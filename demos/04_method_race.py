#!/usr/bin/env python3
"""Racing the lcm routes against each other, correctness attested first.

Every (task, n) is cross-checked for exact equality across the feasible
methods before a single timing runs; a record with verified=false
cannot exist. Orderings are machine-dependent data, so look, don't
assert.
"""

from binomlcm import bench_range_methods, bench_row_methods


def show(records):
    for r in records:
        print(
            f"  {r.task.value:<9} {r.method:<13} n={r.n:<6} "
            f"median={r.median_ns / 1e6:9.3f} ms  p90={r.p90_ns / 1e6:9.3f} ms  "
            f"digits={r.digits:<6} verified={r.verified}"
        )


print("=== row lcm: naive fold vs quotient vs per-prime valuation ===")
show(bench_row_methods([64, 256, 1024], reps=5))
print()

print("=== row lcm at n = 20000: naive is capped out, the others shrug ===")
show(bench_row_methods([20000], reps=3))
print()

print("=== range lcm: gcd fold vs prime-power factorization ===")
show(bench_range_methods([1000, 10000, 30000], reps=3))
