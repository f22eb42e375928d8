"""Identity verifiers: frozen examples, domain rules, report contracts."""

import math
import sys
from functools import cached_property
from types import GeneratorType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binomlcm
from binomlcm import (
    DomainError,
    EquivalenceChainReport,
    IdentityReport,
    Theorem,
    chain_range,
    equivalence_chain,
    row_lcm_naive,
    termwise_identity,
    verify_nair,
    verify_range,
)
from binomlcm import DEFAULT_CAPS, InternalConsistencyError, ResourceCapError, ResourceCaps, engine, identities, lcm_range
from binomlcm.cli import run
from binomlcm.engine import BinomialRow, iter_range_lcms, prime_power_bases, row_quotient
from binomlcm.identities import _termwise_rhs
from helpers import (
    brute_range_lcm,
    brute_row,
    brute_row_lcm,
    brute_weighted_row_lcm,
    fold_lcm,
    json_document,
    vp_by_division,
)


class TestNair:
    def test_n1(self):
        rep = verify_nair(1)
        assert rep.holds and rep.lhs == rep.rhs == 1

    def test_n4(self):
        rep = verify_nair(4)
        assert rep.holds and rep.lhs == rep.rhs == 12

    def test_n9_brute_forced_both_sides(self):
        assert brute_weighted_row_lcm(9) == 2520
        assert brute_range_lcm(9) == 2520
        rep = verify_nair(9)
        assert rep.holds and rep.lhs == rep.rhs == 2520

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            verify_nair(0)


class TestFarhi:
    def test_n0(self):
        (rep,) = verify_range(Theorem.T2, 0, 0)
        assert rep.holds and rep.lhs == rep.rhs == 1

    def test_n4(self):
        (rep,) = verify_range(Theorem.T2, 4, 4)
        assert rep.holds and rep.lhs == rep.rhs == 12

    def test_n10_brute_forced_both_sides(self):
        assert brute_row_lcm(10) == brute_range_lcm(11) // 11
        (rep,) = verify_range(Theorem.T2, 10, 10)
        assert rep.holds and rep.lhs == brute_range_lcm(11) // 11

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            verify_range(Theorem.T2, -1, -1)


class TestTheorem3:
    def test_n1(self):
        (rep,) = verify_range(Theorem.T3, 1, 1)
        assert rep.holds and rep.lhs == rep.rhs == 1

    def test_n5(self):
        assert 5 * fold_lcm([1, 4, 6, 4, 1]) == 60 == brute_range_lcm(5)
        (rep,) = verify_range(Theorem.T3, 5, 5)
        assert rep.holds and rep.lhs == 60

    def test_n7(self):
        assert 7 * 60 == 420 == brute_range_lcm(7)
        (rep,) = verify_range(Theorem.T3, 7, 7)
        assert rep.holds and rep.lhs == 420

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            verify_range(Theorem.T3, 0, 0)


class TestTheorem4:
    def test_n1(self):
        (rep,) = verify_range(Theorem.T4, 1, 1)
        assert rep.holds and rep.lhs == rep.rhs == 1

    def test_n4(self):
        (rep,) = verify_range(Theorem.T4, 4, 4)
        assert rep.holds
        assert rep.lhs == 12
        assert rep.rhs == 4 * fold_lcm([1, 3, 3, 1]) == 12

    def test_n6(self):
        (rep,) = verify_range(Theorem.T4, 6, 6)
        assert rep.holds
        assert rep.lhs == 60
        assert rep.rhs == 6 * fold_lcm([1, 5, 10, 10, 5, 1]) == 60

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            verify_range(Theorem.T4, 0, 0)


class TestTheorem5:
    def test_n1(self):
        (rep,) = verify_range(Theorem.T5, 1, 1)
        assert rep.holds and rep.lhs == rep.rhs == 1

    def test_n5(self):
        assert 5 * fold_lcm([1, 4, 6]) == 60
        (rep,) = verify_range(Theorem.T5, 5, 5)
        assert rep.holds and rep.lhs == 60

    def test_n6(self):
        assert 6 * fold_lcm([1, 5, 10]) == 60
        (rep,) = verify_range(Theorem.T5, 6, 6)
        assert rep.holds and rep.lhs == 60

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            verify_range(Theorem.T5, 0, 0)

    def test_half_row_carries_full_row_lcm(self):
        for n in range(1, 81):
            half = fold_lcm(math.comb(n - 1, k) for k in range(0, (n - 1) // 2 + 1))
            assert half == row_lcm_naive(n - 1)


class TestTermwise:
    def test_examples(self):
        assert termwise_identity(1, 1)
        assert 2 * 6 == 4 * 3
        assert termwise_identity(4, 2)
        assert 7 * 120 == 10 * 84
        assert termwise_identity(10, 7)

    @pytest.mark.parametrize("n,t", [(4, 0), (4, 5), (0, 1)])
    def test_domain_errors(self, n, t):
        with pytest.raises(DomainError):
            termwise_identity(n, t)

    def test_exhaustive_small(self):
        # n <= 200 exhaustively in the acceptance suite.
        for n in range(1, 61):
            for t in range(1, n + 1):
                assert termwise_identity(n, t)


class TestEquivalenceChain:
    def test_n1(self):
        rep = equivalence_chain(1)
        assert rep.all_equal
        assert rep.q_nair == rep.q_thm4_rhs == rep.q_thm3_lhs == rep.q_range == 1

    def test_n4(self):
        rep = equivalence_chain(4)
        assert rep.all_equal and rep.q_nair == 12

    def test_n9(self):
        rep = equivalence_chain(9)
        assert rep.all_equal and rep.q_range == 2520

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            equivalence_chain(0)

    def test_chain_range_matches_singles(self):
        batch = chain_range(1, 25)
        assert [r.n for r in batch] == list(range(1, 26))
        for rep in batch:
            assert rep == equivalence_chain(rep.n)


class TestVerifyRange:
    def test_t1_small(self):
        reports = verify_range(Theorem.T1, 1, 3)
        assert len(reports) == 3
        assert all(r.holds for r in reports)
        assert [r.n for r in reports] == [1, 2, 3]

    def test_t2_single_point_zero(self):
        reports = verify_range(Theorem.T2, 0, 0)
        assert len(reports) == 1 and reports[0].holds

    def test_t5_fifty(self):
        reports = verify_range(Theorem.T5, 1, 50)
        assert len(reports) == 50
        assert all(r.holds for r in reports)

    def test_accepts_string_ids(self):
        assert verify_range("T1", 1, 2) == verify_range(Theorem.T1, 1, 2)

    def test_domain_rules(self):
        with pytest.raises(DomainError):
            verify_range(Theorem.T1, 0, 5)
        with pytest.raises(DomainError):
            verify_range(Theorem.T2, -1, 5)
        with pytest.raises(DomainError):
            verify_range(Theorem.T1, 5, 4)

    def test_batch_equals_single_calls(self):
        for theorem in [Theorem.T1, Theorem.T2, Theorem.T3, Theorem.T4, Theorem.T5]:
            start = 0 if theorem is Theorem.T2 else 1
            batch = verify_range(theorem, start, 30)
            assert batch == [verify_range(theorem, n, n)[0] for n in range(start, 31)]
        assert verify_range(Theorem.T1, 1, 30) == [verify_nair(n) for n in range(1, 31)]

    def test_termwise_range(self):
        reports = verify_range(Theorem.TERMWISE, 1, 40)
        assert len(reports) == 40
        assert all(r.holds for r in reports)
        # On success both sides carry the checked totals.
        assert reports[3].lhs == sum(t * math.comb(4, t) for t in range(1, 5))


# Both sides of every report, from the oracles in helpers.py only.
ORACLE_SIDES = {
    Theorem.T1: lambda n: (brute_weighted_row_lcm(n), brute_range_lcm(n)),
    Theorem.T2: lambda n: (brute_row_lcm(n), brute_range_lcm(n + 1) // (n + 1)),
    Theorem.T3: lambda n: (n * brute_row_lcm(n - 1), brute_range_lcm(n)),
    Theorem.T4: lambda n: (brute_weighted_row_lcm(n), n * brute_row_lcm(n - 1)),
    Theorem.T5: lambda n: (n * brute_row_lcm(n - 1), brute_range_lcm(n)),
    Theorem.TERMWISE: lambda n: (
        sum(t * c for t, c in enumerate(brute_row(n))),
        n * sum(brute_row(n - 1)),
    ),
    Theorem.CHAIN: lambda n: (
        brute_weighted_row_lcm(n),
        n * brute_row_lcm(n - 1),
        n * brute_row_lcm(n - 1),
        brute_range_lcm(n),
    ),
}


def report_sides(report):
    if isinstance(report, EquivalenceChainReport):
        return report.q_nair, report.q_thm4_rhs, report.q_thm3_lhs, report.q_range
    return report.lhs, report.rhs


class TestSweep:
    @given(
        st.lists(st.sampled_from(list(Theorem)), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=6),
    )
    @settings(deadline=None, max_examples=80)
    def test_differential_against_oracles_and_single_theorem_calls(self, theorems, first, span):
        if set(theorems) != {Theorem.T2}:
            first = max(first, 1)  # only T2 is stated at n = 0
        last = first + span
        reports = verify_range(theorems, first, last)
        assert reports == [r for t in theorems for r in verify_range(t, first, last)]
        expected = [(t, n) for t in theorems for n in range(first, last + 1)]
        assert [r.n for r in reports] == [n for _, n in expected]
        for (theorem, n), report in zip(expected, reports):
            assert report_sides(report) == ORACLE_SIDES[theorem](n), (theorem, n)
            if isinstance(report, IdentityReport):
                assert report.theorem is theorem and report.holds

    def test_range_checks_run_up_front_in_the_order_given(self):
        with pytest.raises(DomainError, match="^T1 requires n >= 1, got from=0$"):
            verify_range([Theorem.T2, Theorem.T1, Theorem.CHAIN], 0, 3)
        with pytest.raises(DomainError, match="^equivalence chain requires n >= 1, got from=0$"):
            verify_range([Theorem.T2, Theorem.CHAIN, Theorem.T1], 0, 3)
        with pytest.raises(DomainError, match="no theorem"):
            verify_range([], 1, 3)

    @pytest.mark.parametrize(
        "theorem,code", [("3", 0), ("5", 0), ("1", 3), ("termwise", 3), ("all", 3)]
    )
    def test_row_cap_edge(self, capsys, theorem, code):
        # T3 and T5 read only row n-1, so n = cap + 1 stays admitted.
        argv = ["verify", "--theorem", theorem, "--from", "1", "--to", "11", "--max-row", "10"]
        assert run(argv) == code
        out, err = capsys.readouterr()
        if code:
            assert out == "" and "binomial row n 11 exceeds the configured cap 10" in err
        else:
            assert len(out.splitlines()) == 11 and err == ""


class TestReportContracts:
    def test_json_schema(self, capsys):
        assert run(["verify", "--theorem", "1", "--from", "4", "--to", "4", "--format", "json"]) == 0
        (doc,) = json_document(capsys.readouterr().out)
        report = verify_nair(4)
        assert list(doc.items()) == [
            ("theorem", "T1"),
            ("n", 4),
            ("lhs", "12"),
            ("rhs", "12"),
            ("holds", True),
            ("lhs_method", report.lhs_method),
            ("rhs_method", report.rhs_method),
        ]

    def test_chain_json_schema(self, capsys):
        assert run(["verify", "--theorem", "chain", "--from", "4", "--to", "4", "--format", "json"]) == 0
        (doc,) = json_document(capsys.readouterr().out)
        assert list(doc.items()) == [
            ("theorem", "CHAIN"),
            ("n", 4),
            *[(name, "12") for name in ["q_nair", "q_thm4_rhs", "q_thm3_lhs", "q_range"]],
            ("all_equal", True),
        ]

    def test_bridge_is_structural(self):
        # T4 shares its lhs with T1 and its rhs with T3, by code path;
        # numerically visible as exact field equality.
        for n in range(1, 61):
            t1, t3, t4 = verify_range([Theorem.T1, Theorem.T3, Theorem.T4], n, n)
            assert t4.lhs == t1.lhs
            assert t4.lhs_method == t1.lhs_method
            assert t4.rhs == t3.lhs
            assert t4.rhs_method == t3.lhs_method

    def test_methods_are_independent_labels(self):
        rep = verify_nair(5)
        assert rep.lhs_method != rep.rhs_method


class TestCarriedRangeLcm:
    def test_running_lcm_matches_factorization_and_fold(self):
        # fold is brute_range_lcm(n) taken incrementally; the helper itself
        # is called on a sample of n, since calling it for every n is quadratic.
        fold = 1
        for n, running in enumerate(iter_range_lcms(2000)):
            fold = math.lcm(fold, n) if n else 1
            assert running == fold, n
            if n:
                assert running == lcm_range(n).expand(), n
            if n % 97 == 0 or n in (1, 2, 1999, 2000):
                assert running == (brute_range_lcm(n) if n else 1), n

    @pytest.mark.parametrize(
        "limit",
        # 121 = 11^2, 125 = 5^3, 2048 = 2^11, 2187 = 3^7, each with its neighbours.
        [0, 1, 2, 3, 4, 48, 49, 50, 120, 121, 122, 124, 125, 126, 2047, 2048, 2049, 2186, 2187, 2188, 10_000],
    )
    def test_prime_power_bases(self, limit):
        bases = prime_power_bases(limit)
        assert len(bases) == limit + 1 and bases[:2] == [1, 1][: limit + 1]
        for m in range(2, limit + 1):
            p = next(d for d in range(2, m + 1) if m % d == 0)
            assert bases[m] == (p if p ** vp_by_division(m, p) == m else 1), m

    @given(st.integers(min_value=1, max_value=400))
    @settings(deadline=None, max_examples=60)
    def test_termwise_recurrence_matches_math_comb(self, n):
        assert _termwise_rhs(n) == [n * math.comb(n - 1, t - 1) for t in range(1, n + 1)]

    def test_termwise_rhs_small_n_exhaustive(self):
        # Both parities of n, and n = 1, 2, where the mirrored part is empty or one term.
        for n in range(1, 81):
            assert _termwise_rhs(n) == [n * math.comb(n - 1, t - 1) for t in range(1, n + 1)]

    @pytest.mark.parametrize("n, t", [(2, 2), (9, 6), (9, 9), (10, 7), (12, 12)])
    def test_termwise_fault_in_mirrored_half_is_caught(self, monkeypatch, n, t):
        # t lies where _termwise_rhs mirrors instead of recurring, so only a
        # term-by-term comparison there can see the corrupted entry C(n,t) + 1.
        assert t > (n + 1) // 2
        real = identities.iter_binomial_rows

        def corrupted(n_max, *, caps):
            for row in real(n_max, caps=caps):
                if row.n == n:
                    row = BinomialRow(n, row.entries[:t] + (row.entries[t] + 1,) + row.entries[t + 1 :])
                yield row

        monkeypatch.setattr(identities, "iter_binomial_rows", corrupted)
        (report,) = verify_range(Theorem.TERMWISE, n, n)
        assert report.holds is False
        assert (report.lhs, report.rhs) == (t * (math.comb(n, t) + 1), n * math.comb(n - 1, t - 1))
        assert report.lhs_method == f"t*C(n,t) at first failing t={t}"
        assert report.rhs_method == f"n*C(n-1,t-1) at first failing t={t}"

    @pytest.mark.parametrize("m, k", [(1, 1), (4, 3), (7, 7), (9, 5), (12, 10)])
    def test_theorem5_subcheck_catches_an_upper_half_entry(self, monkeypatch, m, k):
        # Entry k of row m lies past floor(m/2), so only the full fold reads
        # it; times 101, a prime no lower-half entry has, it cannot divide
        # the half-row lcm, and T5 at n = m + 1 must refuse the row.
        assert k > m // 2
        real = identities.iter_binomial_rows

        def corrupted(n_max, *, caps):
            for row in real(n_max, caps=caps):
                if row.n == m:
                    row = BinomialRow(m, row.entries[:k] + (101 * row.entries[k],) + row.entries[k + 1 :])
                yield row

        monkeypatch.setattr(identities, "iter_binomial_rows", corrupted)
        half = brute_row_lcm(m)
        message = rf"^half-row lcm {half} != full-row lcm {101 * half} for row {m}$"
        with pytest.raises(InternalConsistencyError, match=message):
            verify_range(Theorem.T5, 1, m + 3)

    def test_row_quotient_is_exact_division_checked(self):
        assert [row_quotient(brute_range_lcm(n + 1), n) for n in range(0, 30)] == [brute_row_lcm(n) for n in range(30)]
        with pytest.raises(InternalConsistencyError, match=r"lcm\(1..3\) is not divisible by 3"):
            row_quotient(7, 2)

    def test_sieve_cap_names_the_whole_range_limit(self):
        caps = ResourceCaps(sieve_limit=10)
        with pytest.raises(ResourceCapError, match="^sieve limit 20 exceeds the configured cap 10$"):
            verify_range(Theorem.T1, 1, 20, caps=caps)
        with pytest.raises(ResourceCapError, match="^sieve limit 21 exceeds the configured cap 10$"):
            verify_range([Theorem.T4, Theorem.T2], 12, 20, caps=caps)
        assert len(verify_range([Theorem.T4, Theorem.TERMWISE], 1, 20, caps=ResourceCaps(sieve_limit=0))) == 40


def _count_calls(monkeypatch, name):
    """Count calls of engine.<name>, wherever a binomlcm module binds it."""
    original = getattr(engine, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "binomlcm" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_sweep_sieves_once_and_rebuilds_no_range_lcm(monkeypatch):
    sieves = _count_calls(monkeypatch, "sieve_primes")
    ranges = _count_calls(monkeypatch, "lcm_range")
    tables = _count_calls(monkeypatch, "prime_power_bases")
    passes = _count_calls(monkeypatch, "_primes_upto")
    reports = verify_range(list(Theorem), 1, 200)
    assert len(reports) == 7 * 200
    assert all(r.holds if isinstance(r, IdentityReport) else r.all_equal for r in reports)
    assert (len(sieves), len(ranges), tables, passes) == (0, 0, [(201,)], [(201, DEFAULT_CAPS)])


# (row, weighted, half) fold calls over verify_range(selection, 1, 200): each
# row folds at most once, whether it is read as row n or as row n-1. A
# row's full fold continues from its half fold, so every row folded whole
# is also folded by half, and T5 reads that same cached half.
FOLD_CALLS = [
    ("all", list(Theorem), (201, 200, 201)),
    ("T1", [Theorem.T1], (0, 200, 0)),
    ("T2", [Theorem.T2], (200, 0, 200)),
    ("T3", [Theorem.T3], (200, 0, 200)),
    ("T2+T3", [Theorem.T2, Theorem.T3], (201, 0, 201)),
    ("T5", [Theorem.T5], (200, 0, 200)),
    ("TERMWISE", [Theorem.TERMWISE], (0, 0, 0)),
    ("CHAIN", [Theorem.CHAIN], (200, 200, 200)),
]


@pytest.mark.parametrize("selection, expected", [c[1:] for c in FOLD_CALLS], ids=[c[0] for c in FOLD_CALLS])
def test_each_row_folds_once_across_the_sweep(monkeypatch, selection, expected):
    folds = [_count_calls(monkeypatch, name) for name in ("_fold_row_lcm", "_fold_weighted_lcm", "_fold_half_row_lcm")]
    verify_range(selection, 1, 200)
    assert tuple(map(len, folds)) == expected
    for calls in folds:
        assert len({row.n for row, in calls}) == len(calls)


@pytest.mark.parametrize("selection", [list(Theorem), [Theorem.T1], [Theorem.TERMWISE]], ids=["all", "T1", "TERMWISE"])
def test_each_row_builds_its_weighted_terms_once_and_the_sweep_releases_them(monkeypatch, selection):
    rows = []
    sweep = identities.iter_binomial_rows

    def kept(*args, **kwargs):
        for row in sweep(*args, **kwargs):
            rows.append(row)
            yield row

    built = []
    terms = BinomialRow.weighted_terms.func
    counted = cached_property(lambda row: built.append(row.n) or terms(row))
    counted.__set_name__(BinomialRow, "weighted_terms")
    monkeypatch.setattr(identities, "iter_binomial_rows", kept)
    monkeypatch.setattr(BinomialRow, "weighted_terms", counted)
    reports = verify_range(selection, 1, 200)
    assert all(r.ok for r in reports)
    assert built == list(range(1, 201))
    # No report at a later n reads them, so no row keeps them past its step.
    assert [row.n for row in rows if "weighted_terms" in vars(row)] == []


@pytest.mark.parametrize(
    "route, arg, limit",
    [
        ("psi_table", 5000, 5000),
        ("iter_psi_table", 5000, 5000),
        ("lcm_range", 1000, 1000),
        ("row_lcm_farhi", 1000, 1001),
        ("row_lcm_valuation", 1000, 1000),
    ],
)
def test_each_prime_route_runs_the_plain_int_sieve_once(monkeypatch, route, arg, limit):
    fn = getattr(binomlcm, route)
    sieves = _count_calls(monkeypatch, "sieve_primes")
    passes = _count_calls(monkeypatch, "_primes_upto")
    result = fn(arg)
    if isinstance(result, GeneratorType):
        result = list(result)  # the sweep, and so its sieve, runs as records are read
    assert (sieves, passes) == ([], [(limit, DEFAULT_CAPS)])
    if isinstance(result, binomlcm.PrimePowerFactorization):
        # Iteration makes each prime a Prime on the way out; the pairs
        # read the packed primes as they are.
        assert all(type(p) is int for p, _ in result.items())
