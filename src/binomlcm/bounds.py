"""Growth checks for lcm(1..n): classical bounds and the psi ratio.

Checked bounds, each decided exactly by integer arithmetic: 2^k <= x
by the bit length of x, and x <= 3^n by the bit length where that
settles it, otherwise against 3^n built exactly. No float decides a
flag.

    2^(n-1) <= lcm(1..n)        for all n >= 1
    2^n     <= lcm(1..n)        for n >= 9 (recorded but not required
                                below 9; see BoundsRecord.lower_2n_required)
    lcm(1..n) <= 3^n            for all n >= 1

The one floating-point quantity is psi_over_n = ln(lcm(1..n)) / n,
computed from the factorization as the correctly rounded sum of the
float terms e*ln(p). It tracks the classical log lcm(1..n) ~ n growth
and is reporting data only, never a pass/fail criterion.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from .caps import DEFAULT_CAPS, ResourceCaps, check_cap
from .digits import advance_digit_count, decimal_digits
from .engine import lcm_range, prime_power_bases
from .errors import DomainError

# Not used here: perfbench/layer_trace.py still times the prime-power table under this old name.
_smallest_prime_factors = prime_power_bases

__all__ = ["BoundsRecord", "check_bounds", "psi_table", "BOUNDS_CSV_HEADER", "BOUNDS_PLAIN_HEADER"]

BOUNDS_CSV_HEADER = ["n", "lcm_digits", "holds_2nm1", "holds_2n", "holds_3n", "psi_over_n"]
BOUNDS_PLAIN_HEADER = f"{'n':>10} {'lcm_digits':>11} {'2^(n-1)':>8} {'2^n':>6} {'3^n':>6} {'psi_over_n':>16}"


@dataclass(frozen=True)
class BoundsRecord:
    n: int
    lcm_digits: int
    lower_2nm1_holds: bool
    lower_2n_holds: bool
    upper_3n_holds: bool
    psi_over_n: float

    @property
    def lower_2n_required(self) -> bool:
        # The 2^n bound starts at n = 9; below that the flag is
        # informational data, not an obligation.
        return self.n >= 9

    @property
    def enforced_ok(self) -> bool:
        """All bounds that must hold at this n actually hold."""
        return (
            self.lower_2nm1_holds
            and self.upper_3n_holds
            and (self.lower_2n_holds or not self.lower_2n_required)
        )

    @property
    def ok(self) -> bool:
        return self.enforced_ok

    def plain_line(self) -> str:
        """One row under BOUNDS_PLAIN_HEADER; an unrequired 2^n flag is in parentheses."""
        lower_2n = _fmt_ok(self.lower_2n_holds)
        if not self.lower_2n_required:
            lower_2n = f"({'ok' if self.lower_2n_holds else 'no'})"
        return (
            f"{self.n:>10} {self.lcm_digits:>11} {_fmt_ok(self.lower_2nm1_holds):>8} {lower_2n:>6} "
            f"{_fmt_ok(self.upper_3n_holds):>6} {format_psi(self.psi_over_n):>16}"
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "lcm_digits": self.lcm_digits,
            "holds_2nm1": self.lower_2nm1_holds,
            "holds_2n": self.lower_2n_holds,
            "holds_2n_required": self.lower_2n_required,
            "holds_3n": self.upper_3n_holds,
            "psi_over_n": self.psi_over_n,
        }

    def to_csv_row(self) -> list[str]:
        return [
            str(self.n),
            str(self.lcm_digits),
            _fmt_bool(self.lower_2nm1_holds),
            _fmt_bool(self.lower_2n_holds),
            _fmt_bool(self.upper_3n_holds),
            format_psi(self.psi_over_n),
        ]


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _fmt_ok(b: bool) -> str:
    return "ok" if b else "FAIL"


def format_psi(x: float) -> str:
    """12 significant digits."""
    return f"{x:.12g}"


# A lower bound on log2(3) = 1.58496250072115618145..., so 2^(n*num//den) <= 3^n.
_LOG2_3_NUM = 15849625007211561814
_LOG2_3_DEN = 10**19


def _record(n: int, lcm_value: int, lcm_digits: int, psi: float) -> BoundsRecord:
    # 2^k <= x exactly when x has more than k bits. With 2^k <= 3^n, a
    # value of at most k bits is below 3^n; only a longer one is compared
    # with 3^n itself.
    bits = lcm_value.bit_length()
    return BoundsRecord(
        n=n,
        lcm_digits=lcm_digits,
        lower_2nm1_holds=bits >= n,
        lower_2n_holds=bits > n,
        upper_3n_holds=bits <= n * _LOG2_3_NUM // _LOG2_3_DEN or lcm_value <= 3**n,
        psi_over_n=psi / n,
    )


def check_bounds(n: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> BoundsRecord:
    """Bounds record for a single n, from the factorization of lcm(1..n)."""
    if n < 1:
        raise DomainError(f"check_bounds requires n >= 1, got {n}")
    factorization = lcm_range(n, caps=caps)
    value = factorization.expand()
    return _record(n, value, decimal_digits(value), factorization.log_value())


# Every finite double is an integer multiple of 2**-1074.
_UNITS_PER_ONE = 1 << 1074


def _units(x: float) -> int:
    """The finite double x >= 0 as an exact integer count of 2**-1074."""
    num, den = x.as_integer_ratio()
    return num << (1075 - den.bit_length())


def psi_table(max_n: int, step: int = 1, *, caps: ResourceCaps = DEFAULT_CAPS) -> list[BoundsRecord]:
    """Records at n = step, 2*step, ..., <= max_n, built cumulatively.

    A step above max_n leaves no sample and is a DomainError, as an
    empty verify range is.

    One pass holds the running lcm: lcm(1..n) gains exactly one factor
    p whenever n is a prime power p^a, so each step is a lookup in
    engine.prime_power_bases plus at most one small multiplication, and the
    factors gained between two samples reach the running lcm in one
    multiplication. Everything else a record needs is kept the same way,
    so a sample costs constant work beyond that multiplication:

    * the digit count, against a running next power of ten;
    * psi, the sum of the float terms e*ln(p), held exactly as an integer
      in units of 2**-1074 (every finite double is a whole number of
      them); one correctly rounded division gives the same float as
      math.fsum over all the terms.
    """
    if step < 1:
        raise DomainError(f"psi_table requires step >= 1, got {step}")
    if max_n < 1:
        raise DomainError(f"psi_table requires max_n >= 1, got {max_n}")
    if step > max_n:
        raise DomainError(f"psi_table has no sample: step {step} > max_n {max_n}")
    check_cap(max_n, caps.sieve_limit, "psi table max_n")

    bases = prime_power_bases(max_n)
    exps: defaultdict[int, int] = defaultdict(int)  # p -> e, the exponent of p in lcm(1..n)
    terms: dict[int, int] = {}  # p -> e*ln(p) in units of 2**-1074
    psi_units = 0
    running = 1
    gained = 1  # factors of lcm(1..n) since the last sample, multiplied in at the next
    digits = 1
    next_ten = 10  # 10**digits, the smallest power of ten above running
    records = []
    for n in range(1, max_n + 1):
        p = bases[n]
        if p > 1:  # n is a power of p
            gained *= p
            exps[p] += 1
            term = _units(exps[p] * math.log(p))
            psi_units += term - terms.get(p, 0)
            terms[p] = term
        if n % step == 0:
            if gained > 1:
                running *= gained
                gained = 1
                digits, next_ten = advance_digit_count(running, digits, next_ten)
            records.append(_record(n, running, digits, psi_units / _UNITS_PER_ONE))
    return records
