"""Engine module: sieve, factorizations, rows, and the three row routes."""

import math
from bisect import bisect_right
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomlcm import (
    BinomialRow,
    DomainError,
    Prime,
    PrimePowerFactorization,
    ResourceCapError,
    ResourceCaps,
    binomial_row,
    iter_binomial_rows,
    lcm_range,
    lcm_sequence,
    max_binomial_valuation,
    row_lcm_farhi,
    row_lcm_naive,
    row_lcm_valuation,
    sieve_primes,
)
from binomlcm import engine
from binomlcm.engine import _fold_half_row_lcm, _fold_row_lcm, _fold_weighted_lcm, _lcm_fold, _primes_upto
from helpers import brute_range_lcm, brute_row, brute_row_lcm, brute_weighted_row_lcm, fold_lcm, trial_is_prime

TIGHT_CAPS = ResourceCaps(sieve_limit=100, full_row_n=10, fold_range_n=50, valuation_n=60)


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

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            sieve_primes(-1)

    def test_plain_int_sieve_matches_trial_division(self):
        primes = [v for v in range(2001) if trial_is_prime(v)]
        for limit in range(0, 2001):
            out = _primes_upto(limit)
            assert out == [p for p in primes if p <= limit], limit
            assert all(type(p) is int for p in out)


class TestPrimePowerFactorization:
    def test_canonical_order_and_zero_dropping(self):
        f = PrimePowerFactorization([(5, 1), (2, 2), (3, 0)])
        assert f.to_pairs() == [[2, 2], [5, 1]]
        assert f.expand() == 20

    def test_rejects_composite_keys(self):
        with pytest.raises(DomainError):
            PrimePowerFactorization({4: 1})

    def test_rejects_negative_exponents(self):
        with pytest.raises(DomainError):
            PrimePowerFactorization({2: -1})

    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            PrimePowerFactorization([(2, 1), (2, 2)])

    def test_empty_expands_to_one(self):
        assert PrimePowerFactorization().expand() == 1

    def test_equality_and_hash(self):
        a = PrimePowerFactorization({2: 2, 3: 1})
        b = PrimePowerFactorization([(3, 1), (2, 2)])
        assert a == b
        assert hash(a) == hash(b)

    def test_distinct_factorizations_expand_distinctly(self):
        fs = [
            PrimePowerFactorization(d)
            for d in ({}, {2: 1}, {2: 2}, {3: 1}, {2: 1, 3: 1}, {2: 2, 3: 1}, {5: 1}, {2: 1, 5: 2})
        ]
        values = [f.expand() for f in fs]
        assert len(set(values)) == len(values)

    def test_mapping_access(self):
        f = PrimePowerFactorization({2: 3, 7: 1})
        assert f[2] == 3
        assert f.get(5) == 0
        assert 7 in f and 5 not in f
        assert len(f) == 2
        assert list(f) == [2, 7]

    def test_log_value_matches_ln_of_expansion(self):
        f = lcm_range(500)
        assert f.log_value() == pytest.approx(math.log(f.expand()), rel=1e-12)


class TestLcmRange:
    def test_lcm_of_single_element_range(self):
        assert lcm_range(1).to_pairs() == []
        assert lcm_range(1).expand() == 1

    def test_six(self):
        # 4 = 2^2 raises the exponent of 2; brute fold confirms 60.
        assert brute_range_lcm(6) == 60
        f = lcm_range(6)
        assert f.to_pairs() == [[2, 2], [3, 1], [5, 1]]
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

    @given(st.sampled_from(_primes_upto(89)), st.sampled_from([-1, 0, 1]))
    @settings(deadline=None, max_examples=60)
    def test_matches_fold_oracle_around_prime_squares(self, p, offset):
        # At n = p^2 the prime p = isqrt(n) is the last one whose exponent
        # is above 1; at p^2 - 1 it is the first with exponent 1.
        n = p * p + offset
        assert lcm_range(n).expand() == brute_range_lcm(n)
        assert lcm_range(n)[p] == (2 if offset >= 0 else 1)

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

    def test_valuation_cap(self):
        with pytest.raises(ResourceCapError):
            row_lcm_valuation(61, caps=TIGHT_CAPS)

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
        for p in _primes_upto(100):
            for n in (p * p - 1, p * p, p * p + 1):
                assert row_lcm_valuation(n) == _valuation_reference(n, sieve_primes(n)), n

    def test_isqrt_boundary_up_to_p_1000(self, monkeypatch):
        # Sieving to n ~ 10^6 for each of these 504 n would take seconds, so
        # the sieve is narrowed to every prime up to p + 200 (all those
        # below the split and the first ones above it) and the 30 largest
        # primes <= n; row_lcm_valuation still finds the split itself.
        primes = _primes_upto(1000**2 + 1)
        for p in _primes_upto(1000):
            for n in (p * p - 1, p * p, p * p + 1):
                upto_n = primes[: bisect_right(primes, n)]
                window = sorted(set(upto_n[: bisect_right(upto_n, p + 200)] + upto_n[-30:]))

                def narrowed(limit, n=n, window=window):
                    assert limit == n
                    return window

                monkeypatch.setattr(engine, "_primes_upto", narrowed)
                assert row_lcm_valuation(n) == _valuation_reference(n, window), n

    def test_negative_rejected(self):
        with pytest.raises(DomainError, match="requires n >= 0"):
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
        assert got.to_pairs() == validated.to_pairs()


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
