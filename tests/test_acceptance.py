"""Acceptance gate: the ten criteria the artifact must meet.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in
captured output). Expensive sweeps are shared through module-scoped
fixtures so the gate stays desk-scale.
"""

import math
import time
from contextlib import contextmanager

import pytest

from binomlcm import (
    InternalConsistencyError,
    Theorem,
    bench_row_methods,
    chain_range,
    kummer_binomial_valuation,
    legendre_factorial_valuation,
    lcm_range,
    psi_table,
    row_lcm_farhi,
    row_lcm_valuation,
    sieve_primes,
    termwise_identity,
    verify_range,
)
from binomlcm.engine import _fold_row_lcm, iter_binomial_rows


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:>2} PASS: {description}")


@pytest.fixture(scope="module")
def t1_reports():
    start = time.perf_counter()
    reports = verify_range(Theorem.T1, 1, 1000)
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def t3_reports():
    return verify_range(Theorem.T3, 1, 1000)


@pytest.fixture(scope="module")
def t4_reports():
    return verify_range(Theorem.T4, 1, 1000)


def test_criterion_1_nair_identity_full_sweep(t1_reports):
    reports, elapsed = t1_reports
    with criterion(1, "weighted-row identity holds exactly for n = 1..1000 in < 60 s"):
        assert len(reports) == 1000
        assert all(r.holds for r in reports)
        assert all(isinstance(r.lhs, int) and r.lhs == r.rhs for r in reports)
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


def test_criterion_2_row_quotient_identity_including_zero():
    with criterion(2, "row-quotient identity holds for n = 0..1000, division always exact"):
        # row_lcm_farhi raises InternalConsistencyError on any inexact
        # division, so completing the sweep proves the assertion never fired.
        reports = verify_range(Theorem.T2, 0, 1000)
        assert len(reports) == 1001
        assert reports[0].n == 0 and reports[0].holds
        assert all(r.holds for r in reports)


def test_criterion_3_rewrites_bridge_and_chain(t1_reports, t3_reports, t4_reports):
    with criterion(3, "scaled-row, bridge, half-row identities and the chain hold for n = 1..1000 with structural consistency"):
        t1, _ = t1_reports
        assert all(r.holds for r in t3_reports)
        assert all(r.holds for r in t4_reports)
        t5 = verify_range(Theorem.T5, 1, 1000)
        assert all(r.holds for r in t5)
        chain = chain_range(1, 1000)
        assert all(r.all_equal for r in chain)
        # The bridge shares its sides with its neighbours exactly.
        for r1, r3, r4 in zip(t1, t3_reports, t4_reports):
            assert r4.n == r1.n == r3.n
            assert r4.lhs == r1.lhs
            assert r4.rhs == r3.lhs


def test_criterion_4_termwise_identity_exhaustive():
    with criterion(4, "t*C(n,t) == n*C(n-1,t-1) exhaustively for n <= 200, zero failures"):
        failures = [
            (n, t)
            for n in range(1, 201)
            for t in range(1, n + 1)
            if not termwise_identity(n, t)
        ]
        assert failures == []


def test_criterion_5_carry_count_equals_legendre_difference():
    with criterion(5, "carry count == Legendre difference for all n <= 500, p <= n, k <= n, zero mismatches"):
        primes = sieve_primes(500)
        # Memoized Legendre values, still produced by the library route.
        factorial_val = {
            p: [legendre_factorial_valuation(m, p) for m in range(501)] for p in primes
        }
        mismatches = 0
        for n in range(1, 501):
            for p in primes:
                if p > n:
                    break
                table = factorial_val[p]
                top = table[n]
                for k in range(n + 1):
                    if kummer_binomial_valuation(n, k, p) != top - table[k] - table[n - k]:
                        mismatches += 1
        assert mismatches == 0


def test_criterion_6_three_route_row_lcm_equality():
    with criterion(6, "naive == farhi == valuation row lcm for n <= 1000, farhi == valuation at 5000 and 20000"):
        for row in iter_binomial_rows(1000):
            n = row.n
            naive = _fold_row_lcm(row)
            assert naive == row_lcm_farhi(n), f"farhi != naive at n={n}"
            assert naive == row_lcm_valuation(n).expand(), f"valuation != naive at n={n}"
        for n in (5000, 20000):
            assert row_lcm_farhi(n) == row_lcm_valuation(n).expand(), f"spot check n={n}"


def test_criterion_7_classical_bounds_to_5000():
    with criterion(7, "2^(n-1) <= lcm(1..n) <= 3^n for n <= 5000 and 2^n <= lcm(1..n) for 9 <= n <= 5000, exact comparisons"):
        records = psi_table(5000, 1)
        assert [r.n for r in records] == list(range(1, 5001))
        violations = [r.n for r in records if not (r.lower_2nm1_holds and r.upper_3n_holds)]
        violations += [r.n for r in records if r.n >= 9 and not r.lower_2n_holds]
        assert violations == []


def test_criterion_8_psi_ratio_trend():
    with criterion(8, "psi_over_n within (0.9, 1.1) for sampled n >= 10^4 up to 10^5; ln(2520)/10 anchor to 1e-3"):
        records = psi_table(100_000, 10_000)
        assert [r.n for r in records] == [10_000 * i for i in range(1, 11)]
        for r in records:
            assert 0.9 < r.psi_over_n < 1.1, f"ratio {r.psi_over_n} out of bracket at n={r.n}"
        (anchor,) = psi_table(10, 10)
        assert math.lcm(*range(1, 11)) == 2520
        assert abs(anchor.psi_over_n - math.log(2520) / 10) < 1e-12
        assert abs(anchor.psi_over_n - 0.7832) <= 1e-3


def test_criterion_9_factorization_route_equals_fold_oracle():
    with criterion(9, "expand(lcm_range(n)) == fold-lcm(1..n) for all n <= 2000"):
        running = 1
        for n in range(1, 2001):
            running = math.lcm(running, n)
            assert lcm_range(n).expand() == running, f"mismatch at n={n}"


def test_criterion_10_bench_attests_before_timing():
    with criterion(10, "bench emits only attested records; injected fault aborts with no timings"):
        records = bench_row_methods([4], 3)
        assert len(records) == 3 and all(r.verified for r in records)

        calls = {"good": 0, "bad": 0}

        def good(n):
            calls["good"] += 1
            return _fold_row_lcm(next(r for r in iter_binomial_rows(n) if r.n == n))

        def bad(n):
            calls["bad"] += 1
            return row_lcm_farhi(n) + 1  # seeded corruption of one route

        with pytest.raises(InternalConsistencyError):
            bench_row_methods(
                [16], 3, methods={"good": good, "bad": bad}
            )
        # One attestation call each; the timing loop never started.
        assert calls == {"good": 1, "bad": 1}


def test_structural_note_t4_single_calls_match_sweep(t4_reports):
    # Batch and single-n construction go through the same builders.
    for n in (1, 17, 400, 1000):
        assert verify_range(Theorem.T4, n, n) == [t4_reports[n - 1]]
