"""The benchmark's workloads: one binomlcm CLI command each, plus its output check.

Each workload maps a seed to a command whose n sits in a narrow window
around a fixed size, so the cost stays within noise while no change can
be tuned to one exact n. The checks recompute what they need from this
file's own sieve and never call into binomlcm, so a wrong answer from the
program cannot also be the expected one.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable


class CheckFailed(Exception):
    """The program's stdout does not match the workload's expectation."""


def _primes_upto(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(itertools.compress(range(limit + 1), flags))


def _tree_product(values: list[int]) -> int:
    while len(values) > 1:
        values = [math.prod(values[i : i + 2]) for i in range(0, len(values), 2)]
    return values[0] if values else 1


def range_lcm(m: int) -> int:
    """lcm(1..m) as the product over primes p <= m of the largest p^e <= m."""
    powers = []
    for p in _primes_upto(m):
        q = p
        while q * p <= m:
            q *= p
        powers.append(q)
    return _tree_product(powers)


def digit_count(x: int) -> int:
    """Decimal digits of x >= 1, from bit_length and a power of ten (no str)."""
    d = int((x.bit_length() - 1) * math.log10(2)) + 1  # digits of 2^(bits-1)
    low = 10 ** (d - 1)
    # The float estimate is off by at most one either way; step to the d
    # with 10^(d-1) <= x < 10^d.
    while low > x:
        d -= 1
        low //= 10
    while low * 10 <= x:
        d += 1
        low *= 10
    return d


def row_lcm_digits(n: int) -> int:
    """Digits of lcm(C(n,0..n)) = lcm(1..n+1)/(n+1)."""
    q, r = divmod(range_lcm(n + 1), n + 1)
    if r:
        raise CheckFailed(f"n+1={n + 1} does not divide lcm(1..{n + 1})")
    return digit_count(q)


def range_lcm_digits(n: int) -> int:
    """Digits of lcm(1..n)."""
    return digit_count(range_lcm(n))


# --- output checks ---------------------------------------------------------
# Each takes the workload's n, the value its `expect` computed for that n
# (once per run, before any timing) and the captured stdout text, and
# raises CheckFailed on the first mismatch.


def check_row_valuation(n: int, expected: int, stdout: str) -> None:
    """The printed digit count of the row lcm."""
    if stdout.strip() != str(expected):
        raise CheckFailed(f"row-lcm {n}: printed {stdout.strip()[:40]!r}, expected {expected}")


def check_verify_all(n: int, expected: int, stdout: str) -> None:
    """One JSON document with 7*n reports, every one holding."""
    try:
        records = json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"verify output is not JSON: {exc}") from None
    if not isinstance(records, list) or len(records) != expected:
        size = len(records) if isinstance(records, list) else type(records).__name__
        raise CheckFailed(f"verify: {size} records, expected {expected}")
    for rec in records:
        ok = rec.get("all_equal") if rec.get("theorem") == "CHAIN" else rec.get("holds")
        if ok is not True:
            raise CheckFailed(f"verify: {rec.get('theorem')} n={rec.get('n')} does not hold")


def check_bounds(n: int, expected: int, stdout: str) -> None:
    """n CSV rows for n = 1..n, enforced bounds true, last digit count exact."""
    rows = list(csv.reader(io.StringIO(stdout)))
    header = ["n", "lcm_digits", "holds_2nm1", "holds_2n", "holds_3n", "psi_over_n"]
    if not rows or rows[0] != header:
        raise CheckFailed(f"bounds: header {rows[0] if rows else None!r}")
    data = rows[1:]
    if len(data) != n:
        raise CheckFailed(f"bounds: {len(data)} data rows, expected {n}")
    for i, row in enumerate(data, start=1):
        if len(row) != len(header) or row[0] != str(i):
            raise CheckFailed(f"bounds: malformed row {i}: {row!r}")
        enforced = [row[2], row[4]] + ([row[3]] if i >= 9 else [])
        if any(flag != "true" for flag in enforced):
            raise CheckFailed(f"bounds: an enforced bound fails at n={i}: {row!r}")
    if data[-1][1] != str(expected):
        raise CheckFailed(f"bounds: lcm_digits at n={n} is {data[-1][1]}, expected {expected}")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base_n: int
    window: int  # n = base_n - seed % window
    template: tuple[str, ...]  # CLI argv with "{n}" for the size
    expect: Callable[[int], int]
    check: Callable[[int, int, str], None]

    def n(self, seed: int) -> int:
        # Never above base_n: row-lcm's valuation route is capped at 10^6.
        return self.base_n - seed % self.window

    def argv(self, seed: int) -> list[str]:
        n = str(self.n(seed))
        return [part.replace("{n}", n) for part in self.template]

    def command(self) -> str:
        return "binomlcm " + " ".join(self.template).replace("{n}", str(self.base_n))


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "row_valuation_3e5",
            "the only workload that reaches valuation; one huge digits count, one large expand and a sieve to 3*10^5",
            300_000,
            1000,
            ("row-lcm", "{n}", "--method", "valuation", "--digits-only"),
            row_lcm_digits,
            check_row_valuation,
        ),
        Workload(
            "verify_all_300",
            "the identities sweep over engine rows and folds; large JSON report built and printed by cli",
            300,
            3,
            ("verify", "--theorem", "all", "--from", "1", "--to", "{n}", "--format", "json"),
            lambda n: 7 * n,  # seven theorems, each over 1..n
            check_verify_all,
        ),
        Workload(
            "bounds_5000",
            "bounds.psi_table plus 5000 medium digit counts, a digits load unlike the single huge one",
            5_000,
            11,
            ("bounds", "--to", "{n}", "--format", "csv"),
            range_lcm_digits,
            check_bounds,
        ),
    ]
}


# The traced run's layers: for each, its spans (each reported as
# <span>.calls, <span>.total_s and <span>.self_s), its counters with their
# units, the end-to-end metrics a change to it should move, the workloads
# where it works and those where it does little or nothing.
LAYER_MAP = {
    "digits": {
        "spans": ["digits.decimal_str", "digits.decimal_digits"],
        "counters": {"digits.chars": "count", "digits.count_only_share": "ratio"},
        "moves": ["cpu_s", "wall_s"],
        "on": ["row_valuation_3e5", "bounds_5000"],
        "none": ["verify_all_300"],
    },
    "bounds": {
        "spans": ["bounds.psi_table", "bounds._smallest_prime_factors"],
        "counters": {"bounds.records": "count"},
        "moves": ["cpu_s", "wall_s"],
        "on": ["bounds_5000"],
        "none": ["row_valuation_3e5", "verify_all_300"],
    },
    "engine": {
        "spans": [
            "engine.sieve_primes",
            "engine.lcm_range",
            "engine.expand",
            "engine.iter_binomial_rows",
            "engine.fold",
            "engine.row_lcm_farhi",
            "engine.row_lcm_valuation",
        ],
        "counters": {
            "engine.sieve_primes.primes": "count",
            "engine.sieve_primes.distinct_limit_share": "ratio",
            "engine.expand.max_bits": "bits",
            "engine.iter_binomial_rows.rows": "count",
            "engine.fold.terms": "count",
        },
        "moves": ["cpu_s", "wall_s"],
        "on": ["verify_all_300 (rows, folds)", "row_valuation_3e5 (expand, sieve to 3*10^5)"],
        "none": ["bounds_5000"],
    },
    "valuation": {
        "spans": ["valuation.max_binomial_valuation"],
        "counters": {},
        "moves": ["cpu_s"],
        "on": ["row_valuation_3e5"],
        "none": ["verify_all_300", "bounds_5000"],
    },
    "identities": {
        "spans": ["identities.verify_range", "identities.chain_range"],
        "counters": {"identities.reports": "count", "identities.row_reuse": "ratio"},
        "moves": ["cpu_s", "wall_s"],
        "on": ["verify_all_300"],
        "none": ["row_valuation_3e5", "bounds_5000"],
    },
    "cli": {
        "spans": ["cli.run"],
        "counters": {"cli.stdout_bytes": "bytes"},
        "moves": ["peak_rss_mb", "wall_s"],
        "on": ["verify_all_300", "bounds_5000"],
        "none": ["row_valuation_3e5"],
    },
}
