"""Decimal digit counts and decimal rendering of huge exact integers.

Range and row lcms reach hundreds of thousands of decimal digits.
Everything here is pure: nothing reads or changes process-wide state
such as CPython's int -> str digit limit, and the Decimal route sets
its precision in a local copy of the thread's decimal context.

* decimal_digits() counts digits exactly without rendering anything: a
  lower bound from the bit length, then one or two comparisons with a
  power of ten.
* decimal_str() renders with plain str() below _STR_MAX_BITS, where
  every allowed digit limit admits the value. Above it, a divide-and-
  conquer conversion to decimal.Decimal lets libmpdec do the large
  multiplications; str() of a Decimal has no digit limit, and the
  conversion is subquadratic where int -> str on Python 3.11 is
  quadratic.
"""

from __future__ import annotations

# A lower bound on log10(2) = 0.30102999566398119521373..., so a digit
# estimate built from it never overshoots.
_LOG10_2_NUM = 30102999566398119521
_LOG10_2_DEN = 10**20

# At most 603 digits: below CPython's smallest settable digit limit (640),
# so str() accepts every value up to this size whatever the limit is.
_STR_MAX_BITS = 2000

# Chunks this small go to Decimal(int) directly.
_CHUNK_BITS = 1024


def decimal_digits(x: int) -> int:
    """Exact decimal digit count of ``abs(x)``; 1 for 0."""
    return advance_digit_count(abs(x) or 1, 1, 10)[0]


def advance_digit_count(x: int, digits: int, power: int) -> tuple[int, int]:
    """``(d, 10**d)`` for the digit count d of ``x >= 1``.

    Starts from any known ``digits <= d`` with ``power == 10**digits``, so
    a caller whose value only grows can carry the pair along.
    """
    # 2**(bits-1) <= x, so this count never overshoots; the comparisons
    # then step it up once or, at worst, twice.
    at_least = (x.bit_length() - 1) * _LOG10_2_NUM // _LOG10_2_DEN + 1
    if at_least > digits:
        power *= 10 ** (at_least - digits)
        digits = at_least
    while x >= power:
        power *= 10
        digits += 1
    return digits, power


def decimal_str(x: int) -> str:
    """``str(x)`` for integers of any size, whatever the digit limit."""
    if x.bit_length() <= _STR_MAX_BITS:
        return str(x)
    return str(_to_decimal(x))


def _to_decimal(x: int) -> decimal.Decimal:
    # Imported here, its only use, so that importing the package (every
    # CLI start) does not load decimal for the values small enough for str().
    import decimal

    # Split x at half its bit width: x = hi * 2**w + lo, recursively, with
    # each 2**w built once per call. Inexact is trapped, so a conversion
    # that lost a digit raises instead of printing a wrong value.
    powers: dict[int, decimal.Decimal] = {}

    def pow2(w: int) -> decimal.Decimal:
        result = powers.get(w)
        if result is None:
            if w <= _CHUNK_BITS:
                result = decimal.Decimal(1 << w)
            elif w - 1 in powers:
                result = powers[w - 1] * 2
            else:
                half = w >> 1
                result = pow2(half) * pow2(w - half)
            powers[w] = result
        return result

    def convert(n: int, w: int) -> decimal.Decimal:
        if w <= _CHUNK_BITS:
            return decimal.Decimal(n)
        half = w >> 1
        hi = n >> half
        return convert(n - (hi << half), half) + convert(hi, w - half) * pow2(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        result = convert(abs(x), x.bit_length())
        return -result if x < 0 else result
