"""Timing harness for the competing lcm routes, correctness first.

Nothing is timed until every method that will be timed has produced the
same exact value for the same input; a disagreement aborts the whole
run with InternalConsistencyError and no records. Records therefore
always carry verified == True. An n for which the caps leave no method
is refused with ResourceCapError before anything is attested or timed.

Timing loops are strictly single-threaded and sequential; running
benchmarks concurrently with other work invalidates the numbers.
Speed ordering between methods is reported data, never asserted:
it is machine-dependent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from math import ceil
from typing import Callable, Mapping

from .caps import DEFAULT_CAPS, ResourceCaps
from .digits import decimal_digits
from .engine import (
    PrimePowerFactorization,
    lcm_range,
    lcm_sequence,
    row_lcm_farhi,
    row_lcm_naive,
    row_lcm_valuation,
)
from .errors import DomainError, InternalConsistencyError, ResourceCapError

__all__ = ["Task", "BenchRecord", "bench_row_methods", "bench_range_methods", "BENCH_CSV_HEADER"]

BENCH_CSV_HEADER = ["task", "method", "n", "reps", "median_ns", "p90_ns", "digits", "verified"]


class Task(Enum):
    ROW_LCM = "row_lcm"
    RANGE_LCM = "range_lcm"


@dataclass(frozen=True)
class BenchRecord:
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
            f"median={self.median_ns}ns p90={self.p90_ns}ns digits={self.digits} verified={str(self.verified).lower()}"
        )

    def to_json_dict(self) -> dict:
        return {
            "task": self.task.value,
            "method": self.method,
            "n": self.n,
            "reps": self.reps,
            "median_ns": self.median_ns,
            "p90_ns": self.p90_ns,
            "digits": self.digits,
            "verified": self.verified,
        }

    def to_csv_row(self) -> list[str]:
        return [
            self.task.value,
            self.method,
            str(self.n),
            str(self.reps),
            str(self.median_ns),
            str(self.p90_ns),
            str(self.digits),
            "true" if self.verified else "false",
        ]


def _row_methods(caps: ResourceCaps) -> dict[str, tuple[Callable[[int], object], Callable[[int], bool]]]:
    # method -> (callable, feasibility predicate)
    return {
        "naive": (
            lambda n: row_lcm_naive(n, caps=caps),
            lambda n: n <= caps.full_row_n,
        ),
        "farhi": (
            lambda n: row_lcm_farhi(n, caps=caps),
            lambda n: n + 1 <= caps.sieve_limit,
        ),
        "valuation": (
            lambda n: row_lcm_valuation(n, caps=caps),
            lambda n: n <= caps.valuation_n and n <= caps.sieve_limit,
        ),
    }


def _range_methods(caps: ResourceCaps) -> dict[str, tuple[Callable[[int], object], Callable[[int], bool]]]:
    return {
        "fold": (
            lambda n: lcm_sequence(range(1, n + 1)),
            lambda n: n <= caps.fold_range_n,
        ),
        "factorization": (
            lambda n: lcm_range(n, caps=caps),
            lambda n: n <= caps.sieve_limit,
        ),
    }


def _as_int(value) -> int:
    return value.expand() if isinstance(value, PrimePowerFactorization) else value


def _bench_task(task, method_table, ns, reps, warmup, smallest) -> list[BenchRecord]:
    if not ns:
        raise DomainError("no n to bench: the n list is empty")
    for n in ns:
        if n < smallest:
            raise DomainError(f"{task.value} bench requires n >= {smallest}, got {n}")
    if reps < 3:
        raise DomainError(f"reps must be >= 3, got {reps}")
    if warmup < 1:
        raise DomainError(f"warmup must be >= 1, got {warmup}")
    plan = [(n, {m: fn for m, (fn, ok) in method_table.items() if ok(n)}) for n in ns]
    for n, feasible in plan:
        if not feasible:
            raise ResourceCapError(f"{task.value} bench at n={n}: every method is over its resource cap")
    records = []
    for n, feasible in plan:
        # Attestation pass: every feasible method must agree exactly
        # before any of them is timed.
        values = {m: _as_int(fn(n)) for m, fn in feasible.items()}
        distinct = set(values.values())
        if len(distinct) > 1:
            detail = ", ".join(f"{m}={decimal_digits(v)}d" for m, v in sorted(values.items()))
            raise InternalConsistencyError(
                f"{task.value} methods disagree at n={n} ({detail}); "
                "no timings emitted"
            )
        digits = decimal_digits(next(iter(values.values())))
        for method, fn in feasible.items():
            samples = []
            for i in range(warmup + reps):
                t0 = time.perf_counter_ns()
                fn(n)
                elapsed = time.perf_counter_ns() - t0
                if i >= warmup:
                    samples.append(elapsed)
            samples.sort()
            median_ns = (samples[(reps - 1) // 2] + samples[reps // 2]) // 2
            p90_ns = samples[ceil(0.9 * reps) - 1]
            # Monotone sanity is the only timing property ever asserted.
            assert median_ns <= p90_ns
            records.append(
                BenchRecord(
                    task=task,
                    method=method,
                    n=n,
                    reps=reps,
                    median_ns=median_ns,
                    p90_ns=p90_ns,
                    digits=digits,
                    verified=True,
                )
            )
    return records


def bench_row_methods(
    ns,
    reps: int,
    *,
    caps: ResourceCaps = DEFAULT_CAPS,
    warmup: int = 1,
    methods: Mapping | None = None,
) -> list[BenchRecord]:
    """Time the row-lcm routes on each n they are feasible for.

    ``methods`` overrides the method table (same shape as the default:
    name -> (callable, feasibility predicate)); exists for fault
    injection in tests.
    """
    table = dict(methods) if methods is not None else _row_methods(caps)
    return _bench_task(Task.ROW_LCM, table, ns, reps, warmup, 0)


def bench_range_methods(
    ns,
    reps: int,
    *,
    caps: ResourceCaps = DEFAULT_CAPS,
    warmup: int = 1,
    methods: Mapping | None = None,
) -> list[BenchRecord]:
    """Time the range-lcm routes (gcd fold vs factorization)."""
    table = dict(methods) if methods is not None else _range_methods(caps)
    return _bench_task(Task.RANGE_LCM, table, ns, reps, warmup, 1)
