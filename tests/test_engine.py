"""Engine module: sieve, factorizations, rows, and the three row routes."""

import math
import tracemalloc
from array import array
from bisect import bisect_right
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomlcm import (
    DEFAULT_CAPS,
    BinomialRow,
    DomainError,
    Prime,
    PrimePowerFactorization,
    ResourceCapError,
    ResourceCaps,
    binomial_row,
    iter_binomial_rows,
    iter_psi_table,
    lcm_range,
    lcm_sequence,
    max_binomial_valuation,
    row_lcm_farhi,
    row_lcm_naive,
    row_lcm_valuation,
    sieve_primes,
    verify_range,
)
from binomlcm import engine
from binomlcm.engine import (
    _fold_half_row_lcm,
    _fold_row_lcm,
    _fold_weighted_lcm,
    _lcm_fold,
    _primes_upto,
    iter_range_lcms,
    prime_power_bases,
)
from helpers import (
    brute_range_lcm,
    brute_row,
    brute_row_lcm,
    brute_weighted_row_lcm,
    fold_lcm,
    trial_is_prime,
    vp_by_division,
)

TIGHT_CAPS = ResourceCaps(sieve_limit=100, full_row_n=10, fold_range_n=50)

# (entry point, call(n, caps), how far past n it sieves): every route that
# sieves, each run to its end, so a lazy sweep sieves too.
SIEVING_ROUTES = [
    ("sieve_primes", lambda n, caps: sieve_primes(n, caps=caps), 0),
    ("lcm_range", lambda n, caps: lcm_range(n, caps=caps), 0),
    ("row_lcm_farhi", lambda n, caps: row_lcm_farhi(n, caps=caps), 1),
    ("row_lcm_valuation", lambda n, caps: row_lcm_valuation(n, caps=caps), 0),
    ("iter_range_lcms", lambda n, caps: list(iter_range_lcms(n, caps=caps)), 0),
    ("prime_power_bases", lambda n, caps: prime_power_bases(n, caps=caps), 0),
    ("iter_psi_table", lambda n, caps: list(iter_psi_table(n, caps=caps)), 0),
    ("verify_range-T1", lambda n, caps: verify_range("T1", n, n, caps=caps), 0),
    ("verify_range-T2", lambda n, caps: verify_range("T2", n, n, caps=caps), 1),
]


class TestSieve:
    def test_below_two_is_empty(self):
        assert sieve_primes(1) == []
        assert sieve_primes(0) == []

    def test_known_prefixes(self):
        assert sieve_primes(10) == [2, 3, 5, 7]
        assert sieve_primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_boundary_inclusive(self):
        assert sieve_primes(29)[-1] == 29

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            sieve_primes(101, caps=TIGHT_CAPS)

    @pytest.mark.parametrize("call, reach", [r[1:] for r in SIEVING_ROUTES], ids=[r[0] for r in SIEVING_ROUTES])
    @pytest.mark.parametrize("cap", [1, 30])
    def test_every_route_that_sieves_is_refused_by_the_sieve(self, call, reach, cap):
        # One check, in _primes_upto, with one message: a sieve to the cap
        # itself runs, and one past it is refused whatever route asked.
        caps = ResourceCaps(sieve_limit=cap)
        call(cap - reach, caps)
        with pytest.raises(ResourceCapError, match=f"^sieve limit {cap + 1} exceeds the configured cap {cap}$"):
            call(cap + 1 - reach, caps)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            sieve_primes(-1)

    def test_plain_int_sieve_matches_trial_division(self):
        primes = [v for v in range(2001) if trial_is_prime(v)]
        for limit in range(0, 2001):
            out = list(_primes_upto(limit, DEFAULT_CAPS))
            assert out == [p for p in primes if p <= limit], limit
            assert all(type(p) is int for p in out)


class TestPrimePowerFactorization:
    def test_canonical_order_and_zero_dropping(self):
        f = PrimePowerFactorization([(5, 1), (2, 2), (3, 0)])
        assert list(f.items()) == [(2, 2), (5, 1)]
        assert f.expand() == 20

    def test_rejects_composite_keys(self):
        with pytest.raises(DomainError):
            PrimePowerFactorization({4: 1})

    def test_rejects_negative_exponents(self):
        with pytest.raises(DomainError):
            PrimePowerFactorization({2: -1})

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_bool_exponents(self, flag):
        # A bool is an int, but True would print as JSON true in a factorization.
        with pytest.raises(DomainError, match=rf"^exponent of 2 must be a natural, got {flag}$"):
            PrimePowerFactorization({2: flag, 3: 2})

    # A zero exponent is dropped from the result, not from the duplicate check.
    @pytest.mark.parametrize("pairs", [[(2, 1), (2, 2)], [(2, 0), (2, 1)], [(2, 1), (2, 0)], [(3, 1), (2, 0), (2, 0)]])
    def test_rejects_duplicates(self, pairs):
        with pytest.raises(DomainError, match=r"^duplicate prime 2$"):
            PrimePowerFactorization(pairs)

    def test_empty_expands_to_one(self):
        assert PrimePowerFactorization().expand() == 1

    def test_equality_and_hash(self):
        a = PrimePowerFactorization({2: 2, 3: 1})
        b = PrimePowerFactorization([(3, 1), (2, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != PrimePowerFactorization({2: 3, 3: 1})
        assert a != PrimePowerFactorization({2: 2, 5: 1})
        # The hash of the (p, e) pairs, as when a dict held them.
        assert hash(a) == hash(((2, 2), (3, 1)))

    def test_distinct_factorizations_expand_distinctly(self):
        fs = [
            PrimePowerFactorization(d)
            for d in ({}, {2: 1}, {2: 2}, {3: 1}, {2: 1, 3: 1}, {2: 2, 3: 1}, {5: 1}, {2: 1, 5: 2})
        ]
        values = [f.expand() for f in fs]
        assert len(set(values)) == len(values)

    def test_mapping_access(self):
        f = PrimePowerFactorization({2: 3, 7: 1})
        assert dict(f.items()) == {2: 3, 7: 1}
        assert len(f) == 2
        assert list(f) == [2, 7]

    def test_log_value_matches_ln_of_expansion(self):
        f = lcm_range(500)
        assert f.log_value() == pytest.approx(math.log(f.expand()), rel=1e-12)


# 4294967291 is the largest prime below 2**32: a typecode too narrow to
# hold every Prime fails on it.
_SOME_PRIMES = [*_primes_upto(1000, DEFAULT_CAPS), 65_521, 2**31 - 1, 4_294_967_291]


@st.composite
def _factor_dicts(draw) -> dict[int, int]:
    # Prime -> exponent in increasing prime order: empty, one prime, zero
    # exponents (dropped by the validated build) and large ones.
    exponents = st.integers(min_value=0, max_value=3) | st.integers(min_value=0, max_value=1000)
    drawn = draw(st.dictionaries(st.sampled_from(_SOME_PRIMES), exponents, max_size=25))
    return dict(sorted(drawn.items()))


@st.composite
def _tail_of_ones(draw) -> tuple[list[int], list[int], int]:
    # Increasing primes, exponents >= 1 of which all past a drawn cut are
    # 1, and how many of them a _trusted build stores: any count from the
    # cut to all of them.
    primes = sorted(draw(st.sets(st.sampled_from(_SOME_PRIMES), max_size=25)))
    cut = draw(st.integers(min_value=0, max_value=len(primes)))
    exponents = st.integers(min_value=1, max_value=3) | st.integers(min_value=1, max_value=1000)
    head = draw(st.lists(exponents, min_size=cut, max_size=cut))
    stored = draw(st.integers(min_value=cut, max_value=len(primes)))
    return primes, head + [1] * (len(primes) - cut), stored


def _digits_oracle(x: int) -> int:
    # Decimal digits of x >= 1 by exact comparison with powers of ten.
    d = max(1, x.bit_length() * 3 // 10)
    while 10**d <= x:
        d += 1
    while d > 1 and 10 ** (d - 1) > x:
        d -= 1
    return d


class TestFactorizationAgainstDict:
    """The packed factorization, validated and _trusted builds, against a dict oracle."""

    def test_one_value_stored_whole_or_as_a_prefix(self):
        # 60 = 2^2 * 3 * 5. The validated build stores every exponent; this
        # _trusted one stores that of 2 only, as lcm_range(6) does.
        whole = PrimePowerFactorization([(2, 2), (3, 1), (5, 1)])
        prefix = PrimePowerFactorization._trusted(array("I", [2, 3, 5]), [2])
        assert list(prefix.items()) == list(whole.items()) == [(2, 2), (3, 1), (5, 1)]
        assert whole == prefix and prefix == whole and hash(whole) == hash(prefix)
        # The same primes at another exponent are another value.
        assert whole != PrimePowerFactorization([(2, 1), (3, 1), (5, 1)])

    @given(_factor_dicts())
    @settings(deadline=None, max_examples=150)
    def test_both_builds_agree_with_the_dict(self, drawn):
        oracle = {p: e for p, e in drawn.items() if e}
        validated = PrimePowerFactorization(drawn)
        trusted = PrimePowerFactorization._trusted(array("I", oracle), list(oracle.values()))
        assert validated == trusted and hash(validated) == hash(trusted)
        value = math.prod(p**e for p, e in oracle.items())
        pairs = list(oracle.items())
        inner = " * ".join(f"{p}^{e}" if e > 1 else f"{p}" for p, e in pairs)
        for f in (validated, trusted):
            assert dict(f.items()) == oracle
            assert list(f) == list(oracle) and len(f) == len(oracle)
            assert list(f.items()) == list(f.items()) == pairs
            assert all(type(p) is int and type(e) is int for p, e in f.items())
            assert repr(f) == f"PrimePowerFactorization({inner or '1'})"
            assert f.expand() == value
            assert f.digit_count() == _digits_oracle(value)
            assert hash(f) == hash(tuple(pairs))
        if pairs:
            (p, e), *rest = pairs
            bumped = PrimePowerFactorization([(p, e + 1), *rest])
            assert validated != bumped and trusted != bumped

    @given(_tail_of_ones())
    @settings(deadline=None, max_examples=150)
    def test_a_stored_prefix_and_its_tail_of_ones_are_one_value(self, drawn):
        # _trusted stores the exponents of the first primes only; every
        # later prime has exponent 1, as the validated build stores it.
        primes, exps, stored = drawn
        validated = PrimePowerFactorization(zip(primes, exps))
        trusted = PrimePowerFactorization._trusted(array("I", primes), exps[:stored])
        assert validated == trusted and trusted == validated
        assert hash(validated) == hash(trusted)
        assert list(validated.items()) == list(trusted.items()) == list(zip(primes, exps))
        assert all(type(p) is int and type(e) is int for f in (validated, trusted) for p, e in f.items())
        assert repr(validated) == repr(trusted)
        assert validated.expand() == trusted.expand() == math.prod(p**e for p, e in zip(primes, exps))
        assert validated.digit_count() == trusted.digit_count()


class TestLcmRange:
    def test_lcm_of_single_element_range(self):
        assert list(lcm_range(1).items()) == []
        assert lcm_range(1).expand() == 1

    def test_six(self):
        # 4 = 2^2 raises the exponent of 2; brute fold confirms 60.
        assert brute_range_lcm(6) == 60
        f = lcm_range(6)
        assert list(f.items()) == [(2, 2), (3, 1), (5, 1)]
        assert f.expand() == 60

    def test_ten(self):
        assert brute_range_lcm(10) == 2520
        assert lcm_range(10).expand() == 2520

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            lcm_range(0)
        with pytest.raises(DomainError):
            lcm_range(0, caps=ResourceCaps(sieve_limit=0))

    @pytest.mark.parametrize("n", [1, 2, 10, 121, 1000])
    def test_sieve_cap_edge(self, n):
        assert lcm_range(n, caps=ResourceCaps(sieve_limit=n)) == lcm_range(n)
        with pytest.raises(ResourceCapError, match=f"^sieve limit {n + 1} exceeds the configured cap {n}$"):
            lcm_range(n + 1, caps=ResourceCaps(sieve_limit=n))

    def test_matches_fold_oracle(self):
        # Full n <= 2000 equivalence runs in the acceptance suite.
        running = 1
        for n in range(1, 301):
            running = math.lcm(running, n)
            assert lcm_range(n).expand() == running

    @given(st.sampled_from(_primes_upto(89, DEFAULT_CAPS)), st.sampled_from([-1, 0, 1]))
    @settings(deadline=None, max_examples=60)
    def test_matches_fold_oracle_around_prime_squares(self, p, offset):
        # At n = p^2 the prime p = isqrt(n) is the last one whose exponent
        # is above 1; at p^2 - 1 it is the first with exponent 1.
        n = p * p + offset
        assert lcm_range(n).expand() == brute_range_lcm(n)
        assert dict(lcm_range(n).items())[p] == (2 if offset >= 0 else 1)

    def test_exact_divisibility_by_endpoint(self):
        for n in range(0, 200):
            assert lcm_range(n + 1).expand() % (n + 1) == 0

    def test_divisibility_ladder_structurally(self):
        # lcm(1..n+1) gains exactly the factor p when n+1 = p^a, else
        # nothing; checked on factorizations (expand is injective).
        # Covers prime powers through 2048 = 2^11 and 2187 = 3^7.
        prev = dict(lcm_range(1).items())
        for n in range(1, 2_501):
            cur = dict(lcm_range(n + 1).items())
            gained = {p: e for p, e in cur.items() if prev.get(p, 0) != e}
            root = _prime_power_root(n + 1)
            if root is not None:
                p, a = root
                assert gained == {p: a} and prev.get(p, 0) == a - 1
            else:
                assert gained == {}
            prev = cur

    def test_divisibility_ladder_integer_quotients(self):
        prev = lcm_range(1).expand()
        for n in range(1, 1501):
            cur = lcm_range(n + 1).expand()
            q, r = divmod(cur, prev)
            assert r == 0
            root = _prime_power_root(n + 1)
            assert q == (root[0] if root else 1)
            prev = cur


def _prime_power_root(m):
    for p in sieve_primes(m):
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            return (p, a) if m == 1 else None
    return None


class TestLcmSequence:
    def test_examples(self):
        assert lcm_sequence([1]) == 1
        assert lcm_sequence([4, 6]) == 12
        # row 4 of Pascal's triangle
        assert lcm_sequence([1, 4, 6, 4, 1]) == 12

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            lcm_sequence([3, 0, 5])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            lcm_sequence([])

    @given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=20), st.randoms())
    @settings(deadline=None, max_examples=150)
    def test_permutation_and_duplication_invariance(self, xs, rng):
        shuffled = list(xs)
        rng.shuffle(shuffled)
        assert lcm_sequence(shuffled) == lcm_sequence(xs)
        assert lcm_sequence(xs + [rng.choice(xs)]) == lcm_sequence(xs)

    def test_accepts_any_iterable(self):
        assert lcm_sequence(range(1, 11)) == 2520

    def test_accepts_a_one_shot_generator(self):
        assert lcm_sequence(k for k in range(1, 11)) == 2520
        assert lcm_sequence(iter([7])) == 7

    def test_names_the_first_value_below_one(self):
        with pytest.raises(DomainError, match=r"got -1$"):
            lcm_sequence([3, -1, 0])

    @pytest.mark.parametrize("values", [[1.0, 4], [2.0], [4, 6.0], [True], [3, False], ["5"], [2, "5"]])
    def test_rejects_what_is_not_an_int(self, values):
        # A float once folded to 4 from [1.0, 4] and raised TypeError from
        # math.gcd on [2.0]; a bool is an int to Python, but not an element.
        with pytest.raises(DomainError, match=r"requires every element to be an int >= 1"):
            lcm_sequence(values)

    @given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=40))
    @settings(deadline=None, max_examples=150)
    def test_matches_the_plain_fold(self, xs):
        assert lcm_sequence(xs) == fold_lcm(xs)


class TestBinomialRow:
    def test_row_zero(self):
        assert binomial_row(0).entries == (1,)

    def test_row_four(self):
        assert binomial_row(4).entries == (1, 4, 6, 4, 1)

    def test_row_six_by_hand_recurrence(self):
        assert binomial_row(6).entries == (1, 6, 15, 20, 15, 6, 1)

    def test_matches_comb_oracle(self):
        for row in iter_binomial_rows(200):
            assert list(row.entries) == brute_row(row.n)

    @given(st.integers(min_value=0, max_value=300))
    @settings(deadline=None, max_examples=60)
    def test_invariants(self, n):
        row = binomial_row(n)
        assert row.entries[0] == row.entries[-1] == 1
        assert row.entries == row.entries[::-1]
        assert sum(row.entries) == 2**n

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            binomial_row(11, caps=TIGHT_CAPS)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            binomial_row(-1)

    def test_sequence_protocol(self):
        row = binomial_row(4)
        assert len(row) == 5
        assert row[2] == 6
        assert list(row) == [1, 4, 6, 4, 1]

    def test_cached_folds_match_oracles(self):
        for row in iter_binomial_rows(150):
            assert row.lcm == brute_row_lcm(row.n)
            assert row.weighted_lcm == (brute_weighted_row_lcm(row.n) if row.n else 1)

    def test_each_fold_runs_once_per_row(self, monkeypatch):
        calls = []

        def counted(fold):
            def wrapper(row):
                calls.append(fold.__name__)
                return fold(row)

            return wrapper

        for name in ("_fold_row_lcm", "_fold_weighted_lcm", "_fold_half_row_lcm"):
            monkeypatch.setattr(engine, name, counted(getattr(engine, name)))
        row = binomial_row(12)
        for _ in range(2):
            assert (row.lcm, row.half_lcm, row.weighted_lcm) == (brute_row_lcm(12),) * 2 + (brute_range_lcm(12),)
        # The full fold continues from the half fold, which it runs first.
        assert calls == ["_fold_row_lcm", "_fold_half_row_lcm", "_fold_weighted_lcm"]
        # The cache is per object: a fresh row 12 folds again.
        assert binomial_row(12).lcm == row.lcm and len(calls) == 5

    def test_fold_reads_leave_equality_hash_and_repr_alone(self):
        row, twin = binomial_row(9), binomial_row(9)
        before = (hash(row), repr(row))
        assert (row.lcm, row.weighted_lcm) == (brute_row_lcm(9), brute_range_lcm(9))
        assert row == twin and (hash(row), repr(row)) == before == (hash(twin), repr(twin))
        assert repr(row) == f"BinomialRow(n=9, entries={row.entries!r})"

    def test_equality_reads_type_n_and_entries_and_fields_stay_fixed(self):
        row = binomial_row(4)
        assert row == BinomialRow(4, (1, 4, 6, 4, 1)) and hash(row) == hash(BinomialRow(4, (1, 4, 6, 4, 1)))
        assert row != binomial_row(5) and row != (4, row.entries)
        for name, value in (("n", 5), ("entries", (1,)), ("lcm", 1)):
            with pytest.raises(AttributeError):
                setattr(row, name, value)
        assert (row.n, row.entries, row.lcm) == (4, (1, 4, 6, 4, 1), 12)

    def test_a_list_of_entries_is_copied_into_a_tuple(self):
        entries = [1, 2, 1]
        row = BinomialRow(2, entries)
        assert row.entries == (1, 2, 1) and hash(row) == hash(binomial_row(2)) and row == binomial_row(2)
        entries[1] = 99
        assert row.entries == (1, 2, 1) and (row.half_lcm, row.lcm) == (2, 2)
        # A tuple is held as given: the sweep's rows pay for no copy.
        pascal = (1, 3, 3, 1)
        assert BinomialRow(3, pascal).entries is pascal

    @pytest.mark.parametrize(
        "n, entries", [(5, (1, 4, 6, 4, 1)), (0, (1, 2, 3)), (3, (1, 3, 3, 1, 1)), (2, ())]
    )
    def test_entries_must_have_n_plus_one_items(self, n, entries):
        # Otherwise the folds would answer for another row.
        with pytest.raises(DomainError, match=rf"row {n} needs {n + 1} entries, got {len(entries)}"):
            BinomialRow(n, entries)


class TestRowLcmRoutes:
    def test_naive_examples(self):
        assert row_lcm_naive(0) == 1
        assert fold_lcm([1, 4, 6, 4, 1]) == 12
        assert row_lcm_naive(4) == 12
        assert fold_lcm([1, 6, 15, 20, 15, 6, 1]) == 60
        assert row_lcm_naive(6) == 60

    def test_farhi_examples(self):
        assert row_lcm_farhi(0) == 1
        assert brute_range_lcm(5) == 60
        assert row_lcm_farhi(4) == 60 // 5
        assert brute_range_lcm(7) == 420
        assert row_lcm_farhi(6) == 420 // 7

    def test_farhi_negative_rejected(self):
        with pytest.raises(DomainError):
            row_lcm_farhi(-1)

    def test_valuation_examples(self):
        assert row_lcm_valuation(0).expand() == 1
        assert row_lcm_valuation(4).expand() == row_lcm_naive(4) == 12
        assert row_lcm_valuation(100).expand() == row_lcm_farhi(100)

    @pytest.mark.parametrize("n", [0, 1, 60, 100])
    def test_valuation_cap(self, n):
        # The sieve cap is the route's only cap, and it admits n itself.
        caps = ResourceCaps(sieve_limit=n)
        assert row_lcm_valuation(n, caps=caps).expand() == brute_row_lcm(n)
        with pytest.raises(ResourceCapError, match=f"^sieve limit {n + 1} exceeds the configured cap {n}$"):
            row_lcm_valuation(n + 1, caps=caps)

    def test_valuation_past_a_million_is_the_range_lcm_less_n_plus_1(self):
        # Farhi's identity: the exponent of p is that of lcm(1..n+1) less
        # v_p(n + 1). n = 1_000_001 was refused while the route had a cap
        # of its own at 10^6.
        n = 1_000_001
        expected = {}
        for p, e in lcm_range(n + 1).items():
            if e := e - vp_by_division(n + 1, p):
                expected[p] = e
        assert dict(row_lcm_valuation(n).items()) == expected

    def test_three_routes_agree_with_brute_force(self):
        for n in range(0, 201):
            expected = brute_row_lcm(n)
            assert row_lcm_naive(n) == expected
            assert row_lcm_farhi(n) == expected
            assert row_lcm_valuation(n).expand() == expected


def _valuation_reference(n: int, primes) -> PrimePowerFactorization:
    # The reference: the public, checked DP, called once per prime.
    return PrimePowerFactorization([(p, max_binomial_valuation(n, p)) for p in primes])


class TestValuationRoute:
    """row_lcm_valuation, DP below isqrt(n) and two-digit form above, against the per-prime DP."""

    @given(st.integers(min_value=0, max_value=3 * 10**4))
    @settings(deadline=None, max_examples=100)
    def test_matches_public_dp_over_sieve(self, n):
        assert row_lcm_valuation(n) == _valuation_reference(n, sieve_primes(n))

    def test_isqrt_boundary_full_sieve(self):
        # n in {p^2 - 1, p^2, p^2 + 1} moves p across the isqrt(n) split.
        for p in _primes_upto(100, DEFAULT_CAPS):
            for n in (p * p - 1, p * p, p * p + 1):
                assert row_lcm_valuation(n) == _valuation_reference(n, sieve_primes(n)), n

    def test_isqrt_boundary_up_to_p_1000(self, monkeypatch):
        # Sieving to n ~ 10^6 for each of these 504 n would take seconds, so
        # the sieve is narrowed to every prime up to p + 200 (all those
        # below the split and the first ones above it), the 30 largest
        # primes <= n, and every prime <= n that divides n + 1, which
        # _row_exponents finds in the sieve's array; row_lcm_valuation
        # still finds the split itself.
        primes = _primes_upto(1000**2 + 1, DEFAULT_CAPS)
        small = _primes_upto(1001, DEFAULT_CAPS)  # n + 1 <= 1000**2 + 2 < 1009**2
        for p in _primes_upto(1000, DEFAULT_CAPS):
            for n in (p * p - 1, p * p, p * p + 1):
                upto_n = primes[: bisect_right(primes, n)]
                m = n + 1
                factors = [q for q in small if m % q == 0]
                for q in factors:
                    while m % q == 0:
                        m //= q
                factors.append(m)  # 1, or the one prime factor of n + 1 above 1001
                divisors = [q for q in factors if 1 < q <= n]
                window = array("I", sorted({*upto_n[: bisect_right(upto_n, p + 200)], *upto_n[-30:], *divisors}))

                def narrowed(limit, caps, n=n, window=window):
                    assert (limit, caps) == (n, DEFAULT_CAPS)
                    return window

                monkeypatch.setattr(engine, "_primes_upto", narrowed)
                assert row_lcm_valuation(n) == _valuation_reference(n, window), n

    def test_negative_rejected(self):
        with pytest.raises(DomainError, match="^row_lcm_valuation requires an int n >= 0, got -1$"):
            row_lcm_valuation(-1)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 9, 10, 24, 25, 26, 100, 1000, 30030, 99999])
    def test_plain_int_keys_do_not_show(self, n):
        got = row_lcm_valuation(n)
        validated = PrimePowerFactorization(
            {int(p): max_binomial_valuation(n, p) for p in sieve_primes(n)}
        )
        assert all(isinstance(p, Prime) for p in validated)
        assert got == validated
        assert hash(got) == hash(validated)
        assert repr(got) == repr(validated)
        assert list(got.items()) == list(validated.items())
        assert all(type(p) is int and type(e) is int for p, e in got.items())


def _traced_peak_bytes(fn) -> int:
    # Peak of the memory tracemalloc sees allocated during fn(), above what
    # was live when it started.
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("route", [row_lcm_valuation, lcm_range], ids=["valuation", "range"])
def test_factorization_routes_hold_no_pair_per_prime(route):
    # At n = 3*10^5 the sieve gives about 26,000 primes. A (p, e) tuple per
    # prime, or a dict built from them, peaked at 4.4-4.5 MB, and two flat
    # tuples next to the sieve's list of ints near 1.7 MB. The primes packed
    # in one array('I') beside a tuple with an exponent per prime peaked at
    # 0.35 MB (range) and 0.64 MB (valuation); with exponents stored only
    # up to isqrt(n), the rest read as a tail of ones, both stay near 0.26 MB.
    peak = _traced_peak_bytes(lambda: route(300_000).digit_count())
    assert peak < 0.45e6, f"{route.__name__}(300000).digit_count() peaked at {peak / 1e6:.2f} MB"


class TestWeightedRowLcm:
    """BinomialRow.weighted_lcm, the lcm of k*C(n,k) for k = 1..n."""

    def test_examples(self):
        assert binomial_row(0).weighted_lcm == 1  # the empty lcm
        assert binomial_row(1).weighted_lcm == 1
        assert fold_lcm([4, 12, 12, 4]) == 12
        assert binomial_row(4).weighted_lcm == 12
        assert fold_lcm([6, 30, 60, 60, 30, 6]) == 60
        assert binomial_row(6).weighted_lcm == 60

    def test_matches_comb_oracle(self):
        for row in iter_binomial_rows(120):
            if row.n:
                assert row.weighted_lcm == brute_weighted_row_lcm(row.n)


@st.composite
def _any_entries(draw) -> tuple[int, ...]:
    # Positive ints, equal to their mirror image at some drawn positions
    # (a Pascal row is at every one) and often repeated elsewhere.
    values = st.integers(min_value=1, max_value=60) | st.integers(min_value=1, max_value=2**200)
    entries = draw(st.lists(values, min_size=1, max_size=40))
    for j in draw(st.sets(st.integers(min_value=0, max_value=len(entries) - 1))):
        entries[j] = entries[-1 - j]
    return tuple(entries)


class TestFolds:
    """The divisibility-first folds against plain math.lcm folds and the oracles."""

    def test_rows_0_to_400(self):
        for row in iter_binomial_rows(400):
            n, entries = row.n, row.entries
            assert _fold_row_lcm(row) == reduce(math.lcm, entries) == brute_row_lcm(n)
            assert _fold_half_row_lcm(row) == reduce(math.lcm, entries[: n // 2 + 1]) == brute_row_lcm(n)
            if n:
                weighted = [k * entries[k] for k in range(1, n + 1)]
                assert _fold_weighted_lcm(row) == reduce(math.lcm, weighted) == brute_weighted_row_lcm(n)

    def test_empty_fold_is_one(self):
        # Row 0 has no weighted term k*C(0,k) with k >= 1.
        assert _lcm_fold([]) == math.lcm() == _fold_weighted_lcm(binomial_row(0)) == 1

    @given(st.lists(st.integers(min_value=1, max_value=60) | st.integers(min_value=1, max_value=2**200), min_size=1, max_size=40))
    @settings(deadline=None, max_examples=300)
    def test_matches_reduce_on_positive_ints(self, values):
        assert _lcm_fold(values) == reduce(math.lcm, values)

    @given(_any_entries(), st.integers(min_value=1, max_value=2**100))
    @settings(deadline=None, max_examples=300)
    def test_cached_folds_of_any_entries_match_reduce(self, entries, acc):
        # The folds skip a later value equal to its mirror image, so they
        # must hold for entries that are not a Pascal row: asymmetric,
        # repeated, or a single one.
        row = BinomialRow(len(entries) - 1, entries)
        n = row.n
        weighted = tuple(k * entries[k] for k in range(1, n + 1))
        assert row.lcm == reduce(math.lcm, entries)
        assert row.half_lcm == reduce(math.lcm, entries[: n // 2 + 1])
        assert row.weighted_terms == weighted
        assert row.weighted_lcm == reduce(math.lcm, weighted, 1)
        assert _lcm_fold(entries, acc) == math.lcm(acc, *entries)
