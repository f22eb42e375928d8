"""Digit counts and decimal rendering against str(), and no process-wide state.

str() is the oracle here, so the interpreter's int -> str digit limit is
lifted for the oracle only, inside a fixture that puts it back. The
library itself must never need that: it renders any value under any
limit and leaves the limit as it found it.
"""

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from binomlcm.cli import run
from binomlcm.digits import decimal_digits, decimal_str
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
