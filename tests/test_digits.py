"""Digit counts and decimal rendering against str(), and no process-wide state.

str() is the oracle here, so the interpreter's int -> str digit limit is
lifted for the oracle only, inside a fixture that puts it back. The
library itself must never need that: it renders any value under any
limit and leaves the limit as it found it.

A factorization's digit count comes from an integer bracket of its
product and is checked against decimal_digits of the expanded value and
against str(); so is decimal_digits itself, whose bracket holds an
int's top bits. A bracket narrowed to a few bits overlaps powers of ten
often, which exercises the exact fallback.
"""

import decimal
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from binomlcm import DEFAULT_CAPS, digits
from binomlcm.cli import run
from binomlcm.digits import _power_of_ten_bracket, bracket_product, decimal_digits, decimal_str
from binomlcm.engine import PrimePowerFactorization, _primes_upto, lcm_range, row_lcm_valuation
from test_golden_values import DIGESTS
from test_golden_verify import ERRORS, OUTPUTS, SHA256_ALL_300


@pytest.fixture
def str_limit():
    """Set the digit limit for one test, restoring the old one after it."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


@pytest.fixture
def unlimited_str(str_limit):
    str_limit(0)


K_MAX = 5000


def test_zero():
    assert decimal_digits(0) == 1
    assert decimal_str(0) == "0"


def near_power_of_ten(k):
    """10^k - 1, 10^k and 10^k + 1 with their strings, known without str()."""
    return ((10**k - 1, "9" * k), (10**k, "1" + "0" * k), (10**k + 1, "1" + "0" * (k - 1) + "1"))


def test_log10_2_lies_between_its_two_rational_bounds():
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        log10_2 = decimal.Decimal(2).log10()
        assert decimal.Decimal(digits._LOG10_2_NUM) / digits._LOG10_2_DEN < log10_2
        assert log10_2 < decimal.Decimal(digits._LOG10_2_HI) / digits._LOG10_2_DEN


def test_powers_of_ten_plus_minus_one():
    for k in range(1, K_MAX + 1):
        for v, text in near_power_of_ten(k):
            assert decimal_digits(v) == decimal_digits(-v) == len(text), k
    # Rendering is the costly half: every k across the switch from str()
    # to the Decimal route (2000 bits, k = 602), a stride beyond it.
    for k in [*range(1, 700), *range(700, K_MAX + 1, 37), K_MAX]:
        for v, text in near_power_of_ten(k):
            assert decimal_str(v) == text, k
            assert decimal_str(-v) == "-" + text, k


def test_powers_of_two_plus_minus_one(unlimited_str):
    for k in range(K_MAX + 1):
        for v in (2**k - 1, 2**k, 2**k + 1):
            text = str(v)
            assert decimal_digits(v) == decimal_digits(-v) == len(text), k
            assert decimal_str(v) == text, k
            assert decimal_str(-v) == str(-v), k


def test_bit_length_decides_only_where_no_power_of_ten_is_in_range(unlimited_str, monkeypatch):
    # Both ends of each bit range [2**(b-1), 2**b): about 70% of ranges hold
    # no power of ten and are counted from the bit length alone; the rest
    # go on to the bracket, as every 10**j and its neighbours must.
    bracketed = []
    bracket = digits.bracket_digit_count
    monkeypatch.setattr(digits, "bracket_digit_count", lambda *a: bracketed.append(a) or bracket(*a))
    decided = 0
    for b in range(1, 4001):
        before = len(bracketed)
        for v in (2 ** (b - 1), 2**b - 1):
            assert decimal_digits(v) == len(str(v)), b
        decided += len(bracketed) == before
    assert 0.69 < decided / 4000 < 0.71
    for j in range(1, 1300):
        for v, text in near_power_of_ten(j):
            before = len(bracketed)
            assert decimal_digits(v) == len(text), v
            assert len(bracketed) == before + 1, j


# The fixture runs once for all examples; the lifted limit is all it does.
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(min_value=0, max_value=40_000).flatmap(lambda bits: st.integers(-(2**bits), 2**bits)))
def test_random_big_ints_match_str(unlimited_str, x):
    text = str(x)
    assert decimal_str(x) == text
    assert decimal_digits(x) == len(text.lstrip("-"))


def test_huge_value_renders_under_the_smallest_limit(str_limit):
    value = 3**209_590 + 12_345  # 100,000 digits
    str_limit(0)
    expected = str(value)
    assert len(expected) == 100_000
    str_limit(640)
    assert decimal_str(value) == expected
    assert decimal_digits(value) == 100_000
    assert sys.get_int_max_str_digits() == 640


CLI_COMMANDS = [
    *(command for command, _, _ in OUTPUTS),
    *(command for command, _, _, _ in ERRORS),
    *(f"verify --theorem all --from 1 --to 300 --format {fmt}" for fmt in sorted(SHA256_ALL_300)),
    *DIGESTS,
]


@pytest.mark.parametrize("command", CLI_COMMANDS)
def test_cli_leaves_the_digit_limit_alone(capsys, command):
    limit = sys.get_int_max_str_digits()
    run(command.split())
    capsys.readouterr()
    assert sys.get_int_max_str_digits() == limit


# --- digit counts from integer brackets --------------------------------------

PRIMES = _primes_upto(2000, DEFAULT_CAPS)

factorizations = st.dictionaries(st.sampled_from(PRIMES), st.integers(0, 300), max_size=40).map(
    PrimePowerFactorization
)


def powers_of_ten_and_neighbours(j):
    """10^j, 2*10^j, 10^j / 2 and 3*10^j as factorizations: the hardest cases to bracket."""
    yield PrimePowerFactorization({2: j, 5: j})
    yield PrimePowerFactorization({2: j + 1, 5: j})
    if j:
        yield PrimePowerFactorization({2: j - 1, 5: j})
    yield PrimePowerFactorization({2: j, 3: 1, 5: j})


def assert_counted_exactly(f):
    x = f.expand()
    assert f.digit_count() == decimal_digits(x) == len(str(x)), f


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(factorizations)
def test_factored_count_matches_the_expanded_value(unlimited_str, f):
    lo, hi, k = bracket_product(f.items())
    assert lo * 2**k <= f.expand() <= hi * 2**k
    assert lo.bit_length() <= digits._BRACKET_BITS
    assert_counted_exactly(f)


def test_power_of_ten_bracket_holds_the_power():
    for d in [*range(0, 200), *range(200, 5000, 97), 130_135]:
        lo, hi, k = _power_of_ten_bracket(d)
        assert lo * 2**k <= 10**d <= hi * 2**k, d
        assert lo.bit_length() <= digits._BRACKET_BITS, d


def test_powers_of_ten_as_factorizations(unlimited_str):
    for j in [*range(0, 300), *range(300, 3000, 41)]:
        for f in powers_of_ten_and_neighbours(j):
            assert_counted_exactly(f)


def _near_prime_squares():
    for p in [2, 3, 5, 7, 11, 31, 97, 251]:
        yield from (p * p - 1, p * p, p * p + 1)


@pytest.mark.parametrize("n", [0, 1, 2, *_near_prime_squares()])
def test_route_counts_match_the_expanded_value(unlimited_str, n):
    assert_counted_exactly(row_lcm_valuation(n))
    if n >= 1:
        assert_counted_exactly(lcm_range(n))


@pytest.mark.parametrize("width", [3, 6, 12])
def test_narrow_brackets_fall_back_and_stay_exact(unlimited_str, monkeypatch, width):
    # So narrow that brackets overlap powers of ten often: each such
    # count must go to the exact route and still be right.
    monkeypatch.setattr(digits, "_BRACKET_BITS", width)
    factored_fallbacks = []
    expand = PrimePowerFactorization.expand
    monkeypatch.setattr(PrimePowerFactorization, "expand", lambda f: factored_fallbacks.append(f) or expand(f))
    int_fallbacks = []
    exact = digits._exact_digit_count
    monkeypatch.setattr(digits, "_exact_digit_count", lambda *a: int_fallbacks.append(a) or exact(*a))
    cases = [f for j in range(0, 120, 7) for f in powers_of_ten_and_neighbours(j)]
    cases += [row_lcm_valuation(n) for n in range(0, 400, 13)] + [lcm_range(n) for n in range(1, 400, 13)]
    for f in cases:
        x = expand(f)
        assert f.digit_count() == len(str(x)), (width, f)
        for v in (x - 1, x, x + 1):
            assert decimal_digits(v) == len(str(abs(v) or 1)), (width, v)
    assert 0 < len(factored_fallbacks) < len(cases)
    assert int_fallbacks
