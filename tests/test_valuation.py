"""Valuation module: Legendre, carry counting, and their agreement."""

import math
from array import array
from bisect import bisect_right
from collections import Counter
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomlcm import (
    DEFAULT_CAPS,
    DomainError,
    Prime,
    binomial_valuation,
    kummer_binomial_valuation,
    legendre_factorial_valuation,
    max_binomial_valuation,
    row_lcm_valuation,
    sieve_primes,
)
from binomlcm.engine import _primes_upto
from binomlcm.valuation import _max_borrows, _row_exponents
from helpers import trial_is_prime, vp_by_division

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


class TestPrime:
    def test_accepts_primes(self):
        for v in [2, 3, 5, 97, 7919]:
            assert Prime(v) == v
            assert isinstance(Prime(v), int)

    @pytest.mark.parametrize("v", [-3, 0, 1, 4, 6, 9, 100, 7917])
    def test_rejects_non_primes(self, v):
        with pytest.raises(DomainError):
            Prime(v)

    def test_rejects_values_beyond_trial_division_limit(self):
        with pytest.raises(DomainError):
            Prime(2**32 + 15)

    def test_agrees_with_trial_division_below_10_4(self):
        # Odd composites such as 25 and 49 have no factor 2 or 3.
        for v in range(10**4):
            if trial_is_prime(v):
                assert Prime(v) == v
            else:
                with pytest.raises(DomainError, match=rf"^{v} is not prime$"):
                    Prime(v)

    def test_the_check_limit_itself_is_checked(self):
        # 2**32 is within the limit, and refused as composite; 4294967291 is the largest prime below it.
        with pytest.raises(DomainError, match="^4294967296 is not prime$"):
            Prime(2**32)
        assert Prime(4294967291) == 4294967291

    def test_rejects_non_integers(self):
        with pytest.raises(DomainError):
            Prime(7.0)

    def test_repr(self):
        assert repr(Prime(7)) == "Prime(7)"

    def test_behaves_as_int(self):
        p = Prime(5)
        assert p * p == 25
        assert p in {5}


class TestLegendre:
    def test_empty_sum_at_zero(self):
        assert legendre_factorial_valuation(0, 2) == 0

    def test_four_factorial(self):
        # 4! = 24 = 2^3 * 3
        assert vp_by_division(math.factorial(4), 2) == 3
        assert legendre_factorial_valuation(4, 2) == 3

    def test_ten_factorial_base_three(self):
        # floor(10/3) + floor(10/9) = 3 + 1
        assert vp_by_division(math.factorial(10), 3) == 4
        assert legendre_factorial_valuation(10, 3) == 4

    def test_matches_direct_factorization(self):
        for n in range(0, 61):
            f = math.factorial(n)
            for p in SMALL_PRIMES:
                if f > 1:
                    assert legendre_factorial_valuation(n, p) == vp_by_division(f, p)

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            legendre_factorial_valuation(-1, 2)


class TestKummer:
    def test_edge_entry_has_no_factors(self):
        assert kummer_binomial_valuation(4, 0, 2) == 0

    def test_one_carry_cases(self):
        # C(4,2) = 6 = 2 * 3; one carry in 10_2 + 10_2
        assert vp_by_division(math.comb(4, 2), 2) == 1
        assert kummer_binomial_valuation(4, 2, 2) == 1
        # C(9,3) = 84 = 2^2 * 3 * 7; one carry in 10_3 + 20_3
        assert vp_by_division(math.comb(9, 3), 3) == 1
        assert kummer_binomial_valuation(9, 3, 3) == 1

    def test_k_above_n_rejected(self):
        with pytest.raises(DomainError):
            kummer_binomial_valuation(3, 4, 2)
        with pytest.raises(DomainError):
            kummer_binomial_valuation(3, -1, 2)

    def test_carry_count_equals_legendre_difference_exhaustive(self):
        # Desk-scale slice here; the n <= 500 exhaustive run is in the
        # acceptance suite.
        for n in range(0, 121):
            for p in sieve_primes(max(n, 2)):
                legendre_n = legendre_factorial_valuation(n, p)
                for k in range(0, n + 1):
                    diff = (
                        legendre_n
                        - legendre_factorial_valuation(k, p)
                        - legendre_factorial_valuation(n - k, p)
                    )
                    assert kummer_binomial_valuation(n, k, p) == diff


class TestBinomialValuation:
    def test_trivial_top_entry(self):
        assert binomial_valuation(1, 1, 2) == 0

    def test_direct_factorization_examples(self):
        # C(6,3) = 20 = 2^2 * 5
        assert vp_by_division(math.comb(6, 3), 2) == 2
        assert binomial_valuation(6, 3, 2) == 2
        assert vp_by_division(math.comb(6, 3), 5) == 1
        assert binomial_valuation(6, 3, 5) == 1

    def test_domain_error(self):
        with pytest.raises(DomainError):
            binomial_valuation(2, 3, 2)

    def test_edge_rows_are_zero(self):
        for n in range(0, 40):
            for p in SMALL_PRIMES:
                assert binomial_valuation(n, 0, p) == 0
                assert binomial_valuation(n, n, p) == 0

    @given(
        n=st.integers(min_value=1, max_value=300),
        k=st.integers(min_value=0, max_value=300),
        p=st.sampled_from(SMALL_PRIMES),
    )
    @settings(deadline=None, max_examples=200)
    def test_symmetry(self, n, k, p):
        k %= n + 1
        assert binomial_valuation(n, k, p) == binomial_valuation(n, n - k, p)

    def test_prime_power_bounded_by_n(self):
        for n in range(1, 81):
            for p in sieve_primes(n):
                for k in range(0, n + 1):
                    assert p ** binomial_valuation(n, k, p) <= n

    def test_accepts_raw_ints_as_primes(self):
        assert binomial_valuation(6, 3, 2) == binomial_valuation(6, 3, Prime(2))
        with pytest.raises(DomainError):
            binomial_valuation(6, 3, 4)


class TestMaxBinomialValuation:
    def test_matches_enumeration_definition(self):
        # The digit DP must equal the max over the half row (which by
        # symmetry is the max over the whole row): every prime up to
        # n = 120, and the small primes, with their long digit strings,
        # up to n = 599.
        for n in range(0, 600):
            for p in sieve_primes(max(n, 2)) if n <= 120 else (2, 3, 5, 7):
                brute = max(
                    (binomial_valuation(n, k, p) for k in range(0, n // 2 + 1)),
                    default=0,
                )
                assert max_binomial_valuation(n, p) == brute, (n, int(p))

    def test_zero_row(self):
        assert max_binomial_valuation(0, 2) == 0

    def test_public_checks_kept(self):
        with pytest.raises(DomainError, match="6 is not prime"):
            max_binomial_valuation(10, 6)
        with pytest.raises(DomainError, match="nonnegative"):
            max_binomial_valuation(-1, 5)

    def test_prime_powers_have_full_exponent(self):
        # v_2 of C(2^a, 2^(a-1)) reaches a... the DP max at n = 2^a is a.
        for a in range(1, 10):
            assert max_binomial_valuation(2**a, 2) == a


def test_two_digit_form_matches_kummer_enumeration():
    # For p > isqrt(n), row_lcm_valuation skips the DP and reads the
    # exponent off n's two base-p digits. Check every such p and n < 400
    # against the carry count enumerated over the half row (by symmetry,
    # the maximum over the whole row).
    for n in range(0, 400):
        row = dict(row_lcm_valuation(n).items())
        for p in sieve_primes(n):
            if p > math.isqrt(n):
                expected = max(kummer_binomial_valuation(n, k, p) for k in range(n // 2 + 1))
                assert row.get(p, 0) == expected, (n, int(p))


def test_sieve_output_is_prime_typed_and_correct():
    primes = sieve_primes(200)
    assert all(isinstance(p, Prime) for p in primes)
    assert [int(p) for p in primes] == [v for v in range(201) if trial_is_prime(v)]


# --- _row_exponents: the DP below isqrt(n), one slice above it ---------------


def _assert_row_exponents_match_the_dp(n):
    # Every sieved prime through the DP, zero exponents dropped; the sieve's
    # array goes in and comes back unchanged, and the kept primes come out
    # as an array('I') beside a tuple with the exponent of each kept prime
    # up to isqrt(n) and none for those above it, whose exponent is 1.
    primes = _primes_upto(n, DEFAULT_CAPS)
    kept, exps = _row_exponents(n, primes)
    assert primes == _primes_upto(n, DEFAULT_CAPS)
    assert type(kept) is array and kept.typecode == "I" and type(exps) is tuple
    assert len(exps) == bisect_right(kept, math.isqrt(n))
    expected = [(p, e) for p in primes if (e := _max_borrows(n, p))]
    assert list(zip(kept, (*exps, *repeat(1, len(kept) - len(exps))))) == expected, n


def test_row_exponents_match_the_dp_for_every_n_below_3000():
    for n in range(3_000):
        _assert_row_exponents_match_the_dp(n)


# small-n: n = 0..3. square-q: n + 1 = q^2, so q > isqrt(n) divides n + 1
# twice and is dropped. prime-n: n + 1 is prime, above every sieved prime,
# and nothing is dropped. twice-q: n + 1 = 2q, and q = (n + 1)/2 is dropped.
@pytest.mark.parametrize(
    "n",
    [
        *(pytest.param(n, id=f"small-n{n}") for n in range(4)),
        *(pytest.param(q * q - 1, id=f"square-q{q}") for q in (2, 3, 5, 7, 11, 139, 997)),
        *(pytest.param(n, id=f"prime-n{n}") for n in (1, 2, 4, 6, 10, 19_996, 999_982)),
        *(pytest.param(2 * q - 1, id=f"twice-q{q}") for q in (3, 5, 7, 9_521, 499_979)),
    ],
)
def test_row_exponents_edge_cases(n):
    _assert_row_exponents_match_the_dp(n)


@given(st.integers(min_value=0, max_value=10**6))
@settings(deadline=None, max_examples=20)
def test_row_exponents_match_the_dp_up_to_a_million(n):
    _assert_row_exponents_match_the_dp(n)


def test_row_exponents_follow_farhi_for_every_n_below_20000():
    # Farhi: lcm(C(n,0..n)) = lcm(1..n+1) / (n+1), so the exponent of p is
    # max{a : p^a <= n+1} - v_p(n+1). Above isqrt(n+1) that is 1, or 0 for
    # a p that divides n+1, found from a table of smallest prime factors;
    # _row_exponents stores no exponent for the primes above isqrt(n).
    # The DP pass above stops at 3,000: through 20,000 it takes 24 million
    # calls.
    limit = 20_000
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                spf[m] = min(spf[m], p)
    primes = _primes_upto(limit, DEFAULT_CAPS)
    for n in range(limit):
        upto = primes[: bisect_right(primes, n)]
        divides = Counter()
        m = n + 1
        while m > 1:
            divides[spf[m]] += 1
            m //= spf[m]
        root = math.isqrt(n + 1)
        split = bisect_right(upto, root)
        low = []
        for p in upto[:split]:
            a = 1
            while p ** (a + 1) <= n + 1:
                a += 1
            if e := a - divides[p]:
                low.append((p, e))
        high = upto[split:]
        for p in divides:
            if root < p <= n:
                high.remove(p)
        kept, exps = _row_exponents(n, upto)
        assert kept == array("I", [p for p, _ in low]) + high, n
        assert exps == tuple(e for _, e in low), n
