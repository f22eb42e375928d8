"""Timing harness for the competing lcm routes, correctness first.

Each route is the only judge of its own caps: over them at n, it raises
ResourceCapError before any work and is skipped at that n. Every n is
attested before any is timed: the routes left at each n must produce
the same exact value, and a disagreement aborts the whole run with
InternalConsistencyError and no records. Records therefore always carry
verified == True. An n at which every route is over its caps is refused
with ResourceCapError before anything is timed.

Timing loops are strictly single-threaded and sequential; running
benchmarks concurrently with other work invalidates the numbers.
Speed ordering between methods is reported data, never asserted:
it is machine-dependent.
"""

from __future__ import annotations

import time
from enum import Enum
from functools import partial
from math import ceil
from typing import Callable, Iterable, Mapping, NamedTuple

from .caps import DEFAULT_CAPS, ResourceCaps, check_cap
from .digits import FLAGS, decimal_digits, json_str
from .engine import ROW_ROUTES, PrimePowerFactorization, lcm_range, lcm_sequence
from .errors import DomainError, InternalConsistencyError, ResourceCapError, require_int

__all__ = ["Task", "BenchRecord", "bench_row_methods", "bench_range_methods"]


class Task(Enum):
    ROW_LCM = "row_lcm"
    RANGE_LCM = "range_lcm"


class BenchRecord(NamedTuple):
    task: Task
    method: str
    n: int
    reps: int
    median_ns: int
    p90_ns: int
    digits: int
    verified: bool

    @property
    def ok(self) -> bool:
        return self.verified

    def plain_line(self) -> str:
        return (
            f"{self.task.value} {self.method} n={self.n} reps={self.reps} "
            f"median={self.median_ns}ns p90={self.p90_ns}ns digits={self.digits} verified={FLAGS[self.verified]}"
        )

    def to_json_text(self) -> str:
        return (
            f'{{\n    "task": "{self.task.value}",\n    "method": {json_str(self.method)},\n    "n": {self.n},\n'
            f'    "reps": {self.reps},\n    "median_ns": {self.median_ns},\n    "p90_ns": {self.p90_ns},\n'
            f'    "digits": {self.digits},\n    "verified": {FLAGS[self.verified]}\n  }}'
        )

    def to_csv_row(self) -> list[str]:
        return [
            self.task.value, self.method, str(self.n), str(self.reps), str(self.median_ns), str(self.p90_ns),
            str(self.digits), FLAGS[self.verified],
        ]


BENCH_CSV_HEADER = list(BenchRecord._fields)


def _fold_range(n: int, caps: ResourceCaps) -> int:
    check_cap(n, caps.fold_range_n, "fold range-lcm n")
    return lcm_sequence(range(1, n + 1))


# name -> route(n, caps), each checking its own caps as engine.ROW_ROUTES
# does. The row routes are engine's own table, re-exported here.
RANGE_ROUTES = {
    "fold": _fold_range,
    "factorization": lambda n, caps: lcm_range(n, caps=caps),
}


def _as_int(value) -> int:
    return value.expand() if isinstance(value, PrimePowerFactorization) else value


def _elapsed_ns(fn, n: int) -> int:
    t0 = time.perf_counter_ns()
    fn(n)
    return time.perf_counter_ns() - t0


def _bench_task(task, routes, caps, methods, ns, reps, smallest) -> list[BenchRecord]:
    if not isinstance(ns, Iterable):
        raise DomainError(f"{task.value} bench requires an iterable of n, got {ns!r}")
    # Read once, into a list, so an iterator of n serves as a list does.
    ns = [require_int(n, smallest, f"{task.value} bench requires an int n >= {smallest}, got {{!r}}") for n in ns]
    if not ns:
        raise DomainError("no n to bench: the n list is empty")
    require_int(reps, 3, "reps must be an int >= 3, got {!r}")
    if methods is None:
        methods = {m: partial(route, caps=caps) for m, route in routes.items()}
    # Attestation pass: at every n, the routes within their caps must
    # agree exactly before any route is timed at any n.
    plan = []
    for n in ns:
        values = {}
        for m, fn in methods.items():
            try:
                value = fn(n)
            except ResourceCapError:
                continue
            values[m] = _as_int(value)
        if not values:
            raise ResourceCapError(f"{task.value} bench at n={n}: every method is over its resource cap")
        if len(set(values.values())) > 1:
            detail = ", ".join(f"{m}={decimal_digits(v)}d" for m, v in sorted(values.items()))
            raise InternalConsistencyError(
                f"{task.value} methods disagree at n={n} ({detail}); "
                "no timings emitted"
            )
        plan.append((n, list(values), decimal_digits(next(iter(values.values())))))
    records = []
    for n, feasible, digits in plan:
        for method in feasible:
            fn = methods[method]
            fn(n)  # warm-up, untimed
            samples = sorted(_elapsed_ns(fn, n) for _ in range(reps))
            median_ns = (samples[(reps - 1) // 2] + samples[reps // 2]) // 2
            p90_ns = samples[ceil(0.9 * reps) - 1]
            # Monotone sanity is the only timing property ever asserted.
            assert median_ns <= p90_ns
            records.append(BenchRecord(task, method, n, reps, median_ns, p90_ns, digits, True))
    return records


def bench_row_methods(
    ns,
    reps: int,
    *,
    caps: ResourceCaps = DEFAULT_CAPS,
    methods: Mapping[str, Callable[[int], object]] | None = None,
) -> list[BenchRecord]:
    """Time the row-lcm routes at each n, each only within its own caps.

    ``methods`` replaces the routes with name -> callable(n), for fault
    injection in tests; a callable refuses an n by raising
    ResourceCapError.
    """
    return _bench_task(Task.ROW_LCM, ROW_ROUTES, caps, methods, ns, reps, 0)


def bench_range_methods(
    ns,
    reps: int,
    *,
    caps: ResourceCaps = DEFAULT_CAPS,
    methods: Mapping[str, Callable[[int], object]] | None = None,
) -> list[BenchRecord]:
    """Time the range-lcm routes (gcd fold vs factorization), as bench_row_methods."""
    return _bench_task(Task.RANGE_LCM, RANGE_ROUTES, caps, methods, ns, reps, 1)
