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

iter_psi_table yields the records of a sweep as it makes them, and
psi_table is their list. The bounds subcommand streams iter_psi_table, so
its memory does not grow with the number of records, and a reader that
stops early (| head) ends the sweep at the next write.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import NamedTuple

from .caps import DEFAULT_CAPS, ResourceCaps, check_cap
from .digits import FLAGS, VERDICTS, decimal_digits
from .engine import _range_exponent, lcm_range, prime_power_bases
from .errors import DomainError, require_int

# Not used here: perfbench/layer_trace.py still times the prime-power table under this old name.
_smallest_prime_factors = prime_power_bases

__all__ = ["BoundsRecord", "check_bounds", "iter_psi_table", "psi_table"]

BOUNDS_CSV_HEADER = ["n", "lcm_digits", "holds_2nm1", "holds_2n", "holds_3n", "psi_over_n"]
BOUNDS_PLAIN_HEADER = f"{'n':>10} {'lcm_digits':>11} {'2^(n-1)':>8} {'2^n':>6} {'3^n':>6} {'psi_over_n':>16}"


_LOWER_2N_FROM = 9  # the first n at which 2^n <= lcm(1..n) is required
# An unrequired 2^n flag's text, indexed by the flag as digits.VERDICTS is.
_INFO = ("(no)", "(ok)")


class BoundsRecord(NamedTuple):
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
        return self.n >= _LOWER_2N_FROM

    @property
    def enforced_ok(self) -> bool:
        """All bounds that must hold at this n actually hold."""
        return (
            self.lower_2nm1_holds
            and self.upper_3n_holds
            and (self.lower_2n_holds or self.n < _LOWER_2N_FROM)
        )

    ok = enforced_ok

    def plain_line(self) -> str:
        """One row under BOUNDS_PLAIN_HEADER; an unrequired 2^n flag is in parentheses."""
        n, lcm_digits, lower_2nm1, lower_2n, upper_3n, psi = self
        return (
            f"{n:>10} {lcm_digits:>11} {VERDICTS[lower_2nm1]:>8} "
            f"{(VERDICTS if n >= _LOWER_2N_FROM else _INFO)[lower_2n]:>6} {VERDICTS[upper_3n]:>6} {psi:>16.12g}"
        )

    def to_json_dict(self) -> dict:
        n, lcm_digits, lower_2nm1, lower_2n, upper_3n, psi = self
        return {
            "n": n,
            "lcm_digits": lcm_digits,
            "holds_2nm1": lower_2nm1,
            "holds_2n": lower_2n,
            "holds_2n_required": n >= _LOWER_2N_FROM,
            "holds_3n": upper_3n,
            "psi_over_n": psi,
        }

    def to_csv_row(self) -> list[str]:
        # Spelled out, not through digits.csv_row, which costs a sweep of 10**6 records about 0.6 s more.
        n, lcm_digits, lower_2nm1, lower_2n, upper_3n, psi = self
        return [str(n), str(lcm_digits), FLAGS[lower_2nm1], FLAGS[lower_2n], FLAGS[upper_3n], f"{psi:.12g}"]


# A lower bound on log2(3) = 1.58496250072115618145..., so 2^(n*num//den) <= 3^n.
_LOG2_3_NUM = 15849625007211561814
_LOG2_3_DEN = 10**19


def _record(n: int, lcm_value: int, bits: int, lcm_digits: int, psi: float) -> BoundsRecord:
    # 2^k <= x exactly when x has more than k bits (bits = x.bit_length()).
    # With 2^k <= 3^n, a value of at most k bits is below 3^n; only a
    # longer one is compared with 3^n itself.
    return BoundsRecord(
        n,
        lcm_digits,
        bits >= n,
        bits > n,
        bits <= n * _LOG2_3_NUM // _LOG2_3_DEN or lcm_value <= 3**n,
        psi / n,
    )


def check_bounds(n: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> BoundsRecord:
    """Bounds record for a single n, from the factorization of lcm(1..n)."""
    require_int(n, 1, "check_bounds requires an int n >= 1, got {!r}")
    factorization = lcm_range(n, caps=caps)
    value = factorization.expand()
    return _record(n, value, value.bit_length(), decimal_digits(value), factorization.log_value())


# Every finite double is an integer multiple of 2**-1074.
_UNITS_PER_ONE = 1 << 1074


def _units(x: float) -> int:
    """The finite double x >= 0 as an exact integer count of 2**-1074."""
    num, den = x.as_integer_ratio()
    return num << (1075 - den.bit_length())


def psi_table(max_n: int, step: int = 1, *, caps: ResourceCaps = DEFAULT_CAPS) -> list[BoundsRecord]:
    """The records of iter_psi_table(max_n, step), as a list.

    The list grows with max_n / step, about 175 bytes a record (17.5 MB
    at 10**5 records); the bounds subcommand streams iter_psi_table
    instead, and its peak at 10**5 records is 1.6 MB, mostly the
    prime-power table.
    """
    return list(iter_psi_table(max_n, step, caps=caps))


def iter_psi_table(max_n: int, step: int = 1, *, caps: ResourceCaps = DEFAULT_CAPS) -> Iterator[BoundsRecord]:
    """Records at n = step, 2*step, ..., <= max_n, built cumulatively and yielded as made.

    Every argument is checked at the call, before the first record is
    asked for: a step below 1, a max_n below 1, a step above max_n (no
    sample, a DomainError as an empty verify range is) and the sieve cap.
    No record is kept once yielded, so a sweep holds the prime-power
    table and the running lcm, whatever max_n is.

    One pass holds the running lcm: lcm(1..n) gains exactly one factor
    p whenever n is a prime power p^e, so each step is a lookup in
    engine.prime_power_bases plus at most one small multiplication, and the
    factors gained between two samples reach the running lcm in one
    multiplication. Everything else a record needs is kept the same way,
    so a sample costs little beyond that multiplication:

    * the bit length, and the digit count, which digits.decimal_digits
      takes from the bit length or the top bits of the running lcm;
    * psi, the sum of the float terms e*ln(p), held exactly as an integer
      in units of 2**-1074 (every finite double is a whole number of
      them); one correctly rounded division gives the same float as
      math.fsum over all the terms. At n = p^e the term of p changes
      from (e-1)*ln(p) to e*ln(p), with e read off n itself by
      engine._range_exponent, so no state is kept per prime.

    The running lcm, and with it psi, changes only at a prime power, so
    the bit length, the digit count and the 1100-bit division into psi
    are redone only at a sample that some prime power has reached since
    the last one; every other sample reuses them.
    """
    require_int(step, 1, "psi_table requires step >= 1, got {!r}")
    require_int(max_n, 1, "psi_table requires max_n >= 1, got {!r}")
    if step > max_n:
        raise DomainError(f"psi_table has no sample: step {step} > max_n {max_n}")
    check_cap(max_n, caps.sieve_limit, "psi table max_n")
    return _psi_records(max_n, step)


def _psi_records(max_n: int, step: int) -> Iterator[BoundsRecord]:
    # The sweep of iter_psi_table, whose arguments are already checked.
    bases = prime_power_bases(max_n)
    psi_units = 0
    running = 1
    gained = 1  # factors of lcm(1..n) since the last sample, multiplied in at the next
    bits = 1  # running.bit_length()
    digits = 1
    psi = 0.0  # psi_units as a float
    for n in range(1, max_n + 1):
        p = bases[n]
        if p > 1:  # n = p^e
            gained *= p
            e = _range_exponent(p, n)
            log_p = math.log(p)
            psi_units += _units(e * log_p) - _units((e - 1) * log_p)
        if n % step == 0:
            if gained > 1:
                running *= gained
                gained = 1
                bits = running.bit_length()
                digits = decimal_digits(running)
                psi = psi_units / _UNITS_PER_ONE
            yield _record(n, running, bits, digits, psi)
