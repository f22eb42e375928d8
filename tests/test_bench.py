"""Bench harness: attestation before timing, abort on disagreement."""

import argparse
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
from binomlcm.caps import CAP_FIELDS
from binomlcm.cli import _emit, run
from helpers import json_document


class CountingMethod:
    def __init__(self, fn, corrupt_by=0):
        self.fn = fn
        self.calls = 0
        self.corrupt_by = corrupt_by

    def __call__(self, n):
        self.calls += 1
        return self.fn(n) + self.corrupt_by


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

    def test_warmup_and_reps_call_counts(self):
        counting = CountingMethod(row_lcm_naive)
        records = bench_row_methods([6], reps=4, methods={"counted": counting})
        # 1 attestation + 1 warm-up + 4 timed
        assert counting.calls == 6
        assert records[0].reps == 4

    def test_fault_injection_aborts_with_no_timings(self):
        good = CountingMethod(row_lcm_naive)
        bad = CountingMethod(row_lcm_farhi, corrupt_by=1)
        with pytest.raises(InternalConsistencyError, match="no timings"):
            bench_row_methods(
                [12],
                3,
                methods={"naive": good, "farhi": bad},
            )
        # Attestation ran each method exactly once; the timing loop
        # (which would add warm-up + reps calls) never started.
        assert good.calls == 1
        assert bad.calls == 1

    def test_disagreement_at_a_later_n_aborts_before_any_timing(self):
        good = CountingMethod(row_lcm_naive)
        bad = CountingMethod(lambda n: row_lcm_farhi(n) + (n == 12))
        with pytest.raises(InternalConsistencyError, match="n=12"):
            bench_row_methods([8, 12], 3, methods={"naive": good, "farhi": bad})
        # One attestation call at each n; n = 8 was never timed.
        assert good.calls == 2


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

        def capped_from_20(n):
            # Like every route: refuse before any work.
            if n >= 20:
                raise ResourceCapError(f"n {n} exceeds the configured cap 19")
            return counted(n)

        with pytest.raises(ResourceCapError, match="n=50"):
            bench_range_methods([10, 50], 3, methods={"only": capped_from_20})
        assert counted.calls == 1  # n = 10 was attested but never timed
        with pytest.raises(ResourceCapError, match="range_lcm bench at n=50"):
            bench_range_methods([50], 3, caps=ResourceCaps(fold_range_n=1, sieve_limit=1))

    def test_fault_injection(self):
        with pytest.raises(InternalConsistencyError):
            bench_range_methods(
                [50],
                3,
                methods={
                    "fold": lambda n: row_lcm_valuation(n).expand(),
                    "corrupted": lambda n: row_lcm_valuation(n).expand() * 2,
                },
            )


@pytest.mark.parametrize("ns, reps", [([3000, 5.0], 3), ([3000], 3.5)], ids=["float-n", "float-reps"])
def test_a_bad_n_or_reps_is_refused_before_any_route_is_called(monkeypatch, ns, reps):
    calls = []

    def spy(name, route):
        return lambda n, caps: calls.append((name, n)) or route(n, caps)

    monkeypatch.setattr(bench, "ROW_ROUTES", {name: spy(name, route) for name, route in bench.ROW_ROUTES.items()})
    with pytest.raises(DomainError):
        bench_row_methods(ns, reps)
    assert calls == []


_CAP_FIELDS = [f.name for f in CAP_FIELDS]


def _untimed(records):
    return [r._replace(median_ns=0, p90_ns=0) for r in records]


@pytest.mark.parametrize("runner, count", [(bench_row_methods, 6), (bench_range_methods, 4)], ids=["row", "range"])
def test_an_iterator_of_n_benches_as_its_list_does(runner, count):
    # The n are read once, so the checks do not use an iterator up.
    expected = _untimed(runner([5, 9], 3))
    assert len(expected) == count
    assert _untimed(runner(iter([5, 9]), 3)) == expected


def _within_own_caps(route, n, caps):
    try:
        route(n, caps)
    except ResourceCapError:
        return False
    return True


@pytest.mark.parametrize(
    "runner, routes, method",
    [(bench_row_methods, bench.ROW_ROUTES, name) for name in bench.ROW_ROUTES]
    + [(bench_range_methods, bench.RANGE_ROUTES, name) for name in bench.RANGE_ROUTES],
    ids=[*(f"row-{name}" for name in bench.ROW_ROUTES), *(f"range-{name}" for name in bench.RANGE_ROUTES)],
)
@pytest.mark.parametrize("fields", [[f] for f in _CAP_FIELDS] + [_CAP_FIELDS], ids=[*_CAP_FIELDS, "all"])
@pytest.mark.parametrize("cap", [29, 30, 31])
def test_bench_times_a_route_exactly_when_its_own_caps_allow(runner, routes, method, fields, cap):
    # The bench refuses exactly the n the route itself refuses.
    n = 30
    caps = ResourceCaps(**{field: cap for field in fields})
    within = [name for name, route in routes.items() if _within_own_caps(route, n, caps)]
    if within:
        timed = [r.method for r in runner([n], 3, caps=caps)]
    else:
        with pytest.raises(ResourceCapError, match="every method is over its resource cap"):
            runner([n], 3, caps=caps)
        timed = []
    assert timed == within
    assert (method in timed) == _within_own_caps(routes[method], n, caps)


@pytest.mark.parametrize(
    "reps, elapsed, median_ns, p90_ns",
    [
        (5, [50, 10, 40, 30, 20], 30, 50),
        (4, [7, 1, 4, 100], 5, 100),  # middle sum 4 + 7 is odd: the median rounds down
    ],
)
def test_median_and_p90_of_the_timed_samples(monkeypatch, reps, elapsed, median_ns, p90_ns):
    # The fake clock moves only inside the route. Its attestation call
    # and its warm-up call take 999 each; neither must count.
    clock = [0]
    durations = iter([999, 999, *elapsed])

    def fake(_n):
        clock[0] += next(durations)
        return 1

    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter_ns=lambda: clock[0]))
    (record,) = bench_row_methods([4], reps, methods={"fake": fake})
    assert (record.median_ns, record.p90_ns) == (median_ns, p90_ns)
    assert next(durations, None) is None  # no call beyond the 2 + reps


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

    def test_every_csv_cell_of_a_timed_record(self, capsys, monkeypatch):
        # No golden digest holds a bench row, whose timings vary; a fake
        # clock fixes them, with the median and p90 apart.
        clock = [0]
        durations = iter([999, 999, 50, 10, 40, 30, 20])

        def fake(_n):
            clock[0] += next(durations)
            return 2520

        monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter_ns=lambda: clock[0]))
        records = bench_range_methods([10], 5, methods={"fold": fake})
        assert _emit(argparse.Namespace(format="csv"), records, BENCH_CSV_HEADER) == 0
        assert capsys.readouterr().out == (
            "task,method,n,reps,median_ns,p90_ns,digits,verified\n"
            "range_lcm,fold,10,5,30,50,4,true\n"
        )

    def test_json_document(self, capsys):
        assert run(["bench", "range", "--ns", "10", "--reps", "3", "--format", "json"]) == 0
        docs = json_document(capsys.readouterr().out)
        assert [doc["method"] for doc in docs] == ["fold", "factorization"]
        for doc in docs:
            assert list(doc) == ["task", "method", "n", "reps", "median_ns", "p90_ns", "digits", "verified"]
            assert (doc["task"], doc["n"], doc["reps"], doc["digits"], doc["verified"]) == ("range_lcm", 10, 3, 4, True)
