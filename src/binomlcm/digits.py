"""Decimal digit counts and decimal rendering of huge exact integers.

Range and row lcms reach hundreds of thousands of decimal digits.
Everything here is pure: nothing reads or changes process-wide state
such as CPython's int -> str digit limit, and the Decimal route sets
its precision in a local copy of the thread's decimal context.

* Digit counts render nothing. decimal_digits() takes three stages, each
  only when the one before cannot decide. (1) Bit length: rational bounds
  below and above log10(2) show whether [2**(b-1), 2**b) holds a power of
  ten; about 70% of bit lengths hold none, and then every b-bit value has
  one count. (2) Bracket: the value is held in an integer bracket
  lo * 2**k <= x <= hi * 2**k, with lo cut to _BRACKET_BITS bits (lo
  rounded down, hi up), and so is 10**d = 5**d * 2**d; from a lower bound
  on the count taken from the bit length, exact integer comparisons of
  the two brackets step d up once at most, until x < 10**d is certain
  (x has at most one bit more than the lower bound counts). decimal_digits()
  brackets an int by its top bits; bracket_product() brackets a product
  of prime powers streamed pair by pair, so a factorization is counted
  without being multiplied out. (3) Exact: the brackets overlap only
  when x lies within about 2**-110 of a power of ten (10**j itself, say);
  bracket_digit_count() then returns None, and decimal_digits() compares
  x once with the one power of ten its bit length left in doubt, built
  there and nowhere else. A factorization's caller counts the expanded
  value instead.
* decimal_str() renders with plain str() below _STR_MAX_BITS, where
  every allowed digit limit admits the value. Above it, a divide-and-
  conquer conversion to decimal.Decimal lets libmpdec do the large
  multiplications; str() of a Decimal has no digit limit, and the
  conversion is subquadratic where int -> str on Python 3.11 is
  quadratic.
* A record's flags are spelled here once, for every record type: FLAGS
  is a flag's text in CSV and JSON ("false", "true"), VERDICTS a
  verdict's in plain text ("FAIL", "ok"), each indexed by the flag.
* Records and value documents write their own JSON text, byte for byte
  what the json module writes: a flag through FLAGS (JSON's own
  spelling), a string through json_str() and a float through
  json_float(). json_str() writes printable ASCII with no quote and no
  backslash as it is, and hands any other string to json.dumps, so json
  is imported only for such a string.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Iterable

from .errors import require_int

__all__ = ["decimal_digits", "decimal_str"]

# A flag's text, indexed by the flag (False == 0, True == 1).
FLAGS = ("false", "true")
VERDICTS = ("FAIL", "ok")

# log10(2) = 0.30102999566398119521373... lies between NUM / DEN and HI / DEN.
_LOG10_2_NUM = 30102999566398119521
_LOG10_2_HI = 30102999566398119522
_LOG10_2_DEN = 10**20

# At most 603 digits: below CPython's smallest settable digit limit (640),
# so str() accepts every value up to this size whatever the limit is.
_STR_MAX_BITS = 2000

# Chunks this small go to Decimal(int) directly.
_CHUNK_BITS = 1024

# Width of a bracket's lower end. Every cut loses under 2**(1-width) of
# the value, so a product folded in F cuts is bracketed to a relative
# width of about F * 2**-127: lcm(1..10**6) takes about 11,000 cuts.
_BRACKET_BITS = 128


def json_str(s: str) -> str:
    """``json.dumps(s)`` for a str s."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    import json

    return json.dumps(s)


def json_float(x: float) -> str:
    """``json.dumps(x)`` for a float x: its repr when finite, else NaN, Infinity or -Infinity."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if math.isnan(x) else "Infinity" if x > 0 else "-Infinity"


def decimal_digits(x: int) -> int:
    """Exact decimal digit count of ``abs(x)``, for an int x; 1 for 0."""
    x = abs(require_int(x, None, "decimal_digits requires an int, got {!r}")) or 1
    bits = x.bit_length()
    digits = _digits_at_least(bits)
    # The count is at most floor(bits * log10(2)) + 1; when that equals
    # the lower bound, [2**(bits-1), 2**bits) holds no power of ten.
    if bits * _LOG10_2_HI // _LOG10_2_DEN < digits:
        return digits
    cut = max(bits - _BRACKET_BITS, 0)
    top = x >> cut
    counted = bracket_digit_count(top, top + 1 if cut else top, cut)
    return _exact_digit_count(x, digits) if counted is None else counted


def _exact_digit_count(x: int, digits: int) -> int:
    # Only where the bit length left two counts, digits and digits + 1: its bounds
    # floor two reals under 0.31 + bits * 10**-20 apart, less than 1 for any int in memory.
    return digits + (x >= 10**digits)


def _trim(lo: int, hi: int, k: int) -> tuple[int, int, int]:
    # Cut lo to _BRACKET_BITS bits, rounding lo down and hi up, so that
    # lo * 2**k <= x <= hi * 2**k still holds.
    cut = lo.bit_length() - _BRACKET_BITS
    if cut <= 0:
        return lo, hi, k
    return lo >> cut, -(-hi >> cut), k + cut


def bracket_product(pairs: Iterable[tuple[int, int]]) -> tuple[int, int, int]:
    """``(lo, hi, k)`` with ``lo * 2**k <= prod p**e <= hi * 2**k``, over (p, e) pairs.

    The pairs are read once, as they come. Their exact product is
    gathered in a small accumulator and folded into the bracket only
    once it outgrows _BRACKET_BITS, so the bracket is cut once per
    _BRACKET_BITS bits of product, not once per pair.
    """
    limit = 1 << _BRACKET_BITS
    lo = hi = acc = 1
    k = 0
    for p, e in pairs:
        acc *= p if e == 1 else p**e
        if acc >= limit:
            lo, hi, k = _trim(lo * acc, hi * acc, k)
            acc = 1
    return _trim(lo * acc, hi * acc, k)


def _power_of_ten_bracket(d: int) -> tuple[int, int, int]:
    # 10**d = 5**d * 2**d: 5**d by square-and-multiply, cut at each step.
    lo = hi = 1
    k = 0
    for bit in bin(d)[2:]:
        lo, hi, k = lo * lo, hi * hi, 2 * k
        if bit == "1":
            lo, hi = lo * 5, hi * 5
        lo, hi, k = _trim(lo, hi, k)
    return lo, hi, k + d


def _digits_at_least(bits: int) -> int:
    # A value of this many bits is >= 2**(bits-1), and _LOG10_2_NUM / _LOG10_2_DEN
    # is below log10(2), so this count never overshoots.
    return (bits - 1) * _LOG10_2_NUM // _LOG10_2_DEN + 1


def _at_most(a: int, s: int, b: int, t: int) -> bool:
    # a * 2**s <= b * 2**t, exactly.
    return a << (s - t) <= b if s >= t else a <= b << (t - s)


def bracket_digit_count(lo: int, hi: int, k: int) -> int | None:
    """Digit count of every x with ``lo * 2**k <= x <= hi * 2**k``, ``lo >= 1``, ``hi < 2 * 2**bits(lo)``.

    None when the bracket holds values of two different digit counts,
    or cannot be told apart from a power of ten that bounds them; the
    caller then counts the exact value.
    """
    digits = _digits_at_least(k + lo.bit_length())  # x has at least b = k + bits(lo) bits
    ten_lo, ten_hi, ten_k = _power_of_ten_bracket(digits)
    if _at_most(ten_hi, ten_k, lo, k):  # 10**digits <= x
        # hi < 2**(bits(lo) + 1), so x has at most b + 1 bits, and
        # 10**(digits + 1) > 10 * 2**(b - 1) > x: one step is always enough.
        return digits + 1
    # x < 10**digits, unless the brackets overlap.
    return None if _at_most(ten_lo, ten_k, hi, k) else digits


def decimal_str(x: int) -> str:
    """``str(x)`` for an int x of any size, whatever the digit limit."""
    if require_int(x, None, "decimal_str requires an int, got {!r}").bit_length() <= _STR_MAX_BITS:
        return str(x)
    return str(_to_decimal(x))


def _to_decimal(x: int) -> decimal.Decimal:
    # Imported here, its only use, so that importing the package (every
    # CLI start) does not load decimal for the values small enough for str().
    import decimal

    # Split x at half its bit width: x = hi * 2**w + lo, recursively, with
    # each 2**w built once per call. Inexact is trapped, so a conversion
    # that lost a digit raises instead of printing a wrong value.
    @cache
    def pow2(w: int) -> decimal.Decimal:
        if w <= _CHUNK_BITS:
            return decimal.Decimal(1 << w)
        half = w >> 1
        return pow2(half) * pow2(w - half)

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
