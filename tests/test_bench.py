"""Bench harness: attestation before timing, abort on disagreement."""

import dataclasses
from types import SimpleNamespace

import pytest

from binomlcm import (
    DomainError,
    InternalConsistencyError,
    ResourceCapError,
    ResourceCaps,
    Task,
    bench_range_methods,
    bench_row_methods,
    row_lcm_farhi,
    row_lcm_naive,
    row_lcm_valuation,
)
from binomlcm import bench
from binomlcm.bench import BENCH_CSV_HEADER
from binomlcm.cli import run


class CountingMethod:
    def __init__(self, fn, corrupt_by=0):
        self.fn = fn
        self.calls = 0
        self.corrupt_by = corrupt_by

    def __call__(self, n):
        self.calls += 1
        return self.fn(n) + self.corrupt_by


def _always(_n):
    return True


class TestRowBench:
    def test_tiny_n_yields_all_three_verified(self):
        records = bench_row_methods([4], 3)
        assert len(records) == 3
        assert {r.method for r in records} == {"naive", "farhi", "valuation"}
        for r in records:
            assert r.task is Task.ROW_LCM
            assert r.verified
            assert r.n == 4 and r.reps == 3
            assert r.digits == 2  # row-lcm(4) = 12
            assert 0 <= r.median_ns <= r.p90_ns

    def test_methods_cross_checked_before_timing(self):
        # All three routes agree at these n, so records exist at all.
        records = bench_row_methods([1, 8, 32], 3)
        assert all(r.verified for r in records)

    def test_infeasible_method_skipped(self):
        caps = ResourceCaps(full_row_n=10)
        records = bench_row_methods([64], 3, caps=caps)
        assert {r.method for r in records} == {"farhi", "valuation"}

    def test_reps_must_be_at_least_three(self):
        with pytest.raises(DomainError):
            bench_row_methods([4], 2)

    def test_warmup_must_be_at_least_one(self):
        with pytest.raises(DomainError):
            bench_row_methods([4], 3, warmup=0)

    def test_warmup_and_reps_call_counts(self):
        counting = CountingMethod(row_lcm_naive)
        records = bench_row_methods([6], reps=4, warmup=2, methods={"counted": (counting, _always)})
        # 1 attestation + 2 warm-up + 4 timed
        assert counting.calls == 7
        assert records[0].reps == 4

    def test_fault_injection_aborts_with_no_timings(self):
        good = CountingMethod(row_lcm_naive)
        bad = CountingMethod(row_lcm_farhi, corrupt_by=1)
        with pytest.raises(InternalConsistencyError, match="no timings"):
            bench_row_methods(
                [12],
                3,
                methods={"naive": (good, _always), "farhi": (bad, _always)},
            )
        # Attestation ran each method exactly once; the timing loop
        # (which would add warmup + reps calls) never started.
        assert good.calls == 1
        assert bad.calls == 1


class TestRangeBench:
    def test_both_methods_verified(self):
        records = bench_range_methods([10], 3)
        assert {r.method for r in records} == {"fold", "factorization"}
        assert all(r.verified for r in records)
        assert all(r.digits == 4 for r in records)  # 2520

    def test_fold_infeasible_beyond_cap(self):
        caps = ResourceCaps(fold_range_n=100)
        records = bench_range_methods([1000], 3, caps=caps)
        assert {r.method for r in records} == {"factorization"}
        assert all(r.verified for r in records)

    def test_agreement_at_moderate_n(self):
        records = bench_range_methods([2000], 3)
        assert {r.method for r in records} == {"fold", "factorization"}

    def test_every_method_capped_is_refused_before_any_work(self):
        counted = CountingMethod(lambda n: 1)
        with pytest.raises(ResourceCapError, match="n=50"):
            bench_range_methods([10, 50], 3, methods={"only": (counted, lambda n: n < 20)})
        assert counted.calls == 0  # n = 10 was neither attested nor timed
        with pytest.raises(ResourceCapError, match="range_lcm bench at n=50"):
            bench_range_methods([50], 3, caps=ResourceCaps(fold_range_n=1, sieve_limit=1))

    def test_fault_injection(self):
        with pytest.raises(InternalConsistencyError):
            bench_range_methods(
                [50],
                3,
                methods={
                    "fold": (lambda n: row_lcm_valuation(n).expand(), _always),
                    "corrupted": (lambda n: row_lcm_valuation(n).expand() * 2, _always),
                },
            )


@pytest.mark.parametrize(
    "table, method",
    [
        (bench._row_methods, "naive"),
        (bench._row_methods, "farhi"),
        (bench._row_methods, "valuation"),
        (bench._range_methods, "factorization"),
    ],
)
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ResourceCaps)])
@pytest.mark.parametrize("cap", [29, 30, 31])
def test_feasibility_predicate_matches_the_route_cap_checks(table, method, field, cap):
    # The bench refuses exactly the n the route itself would refuse.
    n = 30
    fn, feasible = table(ResourceCaps(**{field: cap}))[method]
    try:
        fn(n)
    except ResourceCapError:
        assert not feasible(n)
    else:
        assert feasible(n)


@pytest.mark.parametrize(
    "reps, elapsed, median_ns, p90_ns",
    [
        (5, [50, 10, 40, 30, 20], 30, 50),
        (4, [7, 1, 4, 100], 5, 100),  # middle sum 4 + 7 is odd: the median rounds down
    ],
)
def test_median_and_p90_of_the_timed_samples(monkeypatch, reps, elapsed, median_ns, p90_ns):
    # One warm-up sample of 999 first; it must not count.
    ticks = []
    clock = 0
    for e in [999, *elapsed]:
        ticks += [clock, clock + e]
        clock += e
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter_ns=iter(ticks).__next__))
    (record,) = bench_row_methods([4], reps, methods={"fake": (lambda n: 1, _always)})
    assert (record.median_ns, record.p90_ns) == (median_ns, p90_ns)


class TestRecordOutput:
    def test_csv_layout(self, capsys):
        assert run(["bench", "row", "--ns", "4", "--reps", "3", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "\r" not in out  # lines end in a bare \n
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(BENCH_CSV_HEADER)
        assert len(lines) == 4
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] == "row_lcm"
            assert fields[-1] == "true"

    def test_json_dict(self):
        (rec,) = bench_range_methods([10], 3, methods={"fold": (lambda n: 2520, _always)})
        doc = rec.to_json_dict()
        assert list(doc) == ["task", "method", "n", "reps", "median_ns", "p90_ns", "digits", "verified"]
        assert doc["task"] == "range_lcm"
        assert doc["verified"] is True
