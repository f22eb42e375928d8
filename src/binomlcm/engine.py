"""Exact lcm computation for integer ranges and binomial rows.

Three routes compute the lcm of a binomial row C(n,0..n), with costs
that scale very differently:

* naive      -- materialize the row (Pascal additions), fold lcm over
                it (math.lcm only where an entry does not already
                divide the running lcm); the oracle everything else is
                checked against, feasible to a few thousand.
* farhi      -- expand(lcm_range(n+1)) / (n+1), exact division; one
                sieve plus one big division.
* valuation  -- per prime p <= n, the largest carry count any entry can
                have (see valuation.max_binomial_valuation); returns a
                factorization and never touches row-sized integers.
                Above isqrt(n), n has two base-p digits and the carry
                DP reduces to one digit test, so those primes (nearly
                all of them) cost one comparison each.

Range lcms likewise come in two routes: a gcd fold over 1..n (oracle)
and the prime-power factorization lcm(1..n) = prod p^max{e : p^e <= n}.
A sweep over consecutive n carries the second incrementally instead:
lcm(1..m) = lcm(1..m-1) * p when m = p^a is a prime power, and
lcm(1..m-1) otherwise (iter_range_lcms).

Primes come from one bytearray sieve, _primes_upto, read out as plain
ints: lcm_range, prime_power_bases and row_lcm_valuation read it
directly, and sieve_primes wraps its output as Prime for the API.

All values are exact; nothing in this module goes through floats.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import mul
from typing import Iterable, Iterator, Mapping

from .caps import DEFAULT_CAPS, ResourceCaps, check_cap
from .errors import DomainError, InternalConsistencyError
from .valuation import Prime, _max_borrows

__all__ = [
    "PrimePowerFactorization",
    "BinomialRow",
    "sieve_primes",
    "lcm_range",
    "prime_power_bases",
    "iter_range_lcms",
    "row_quotient",
    "lcm_sequence",
    "binomial_row",
    "iter_binomial_rows",
    "row_lcm_naive",
    "row_lcm_farhi",
    "row_lcm_valuation",
    "weighted_row_lcm",
]


def _product(values: list[int]) -> int:
    # Balanced pairwise multiplication: much faster than a left fold
    # once the partial products stop fitting in a few machine words.
    if not values:
        return 1
    while len(values) > 1:
        values = [a * b for a, b in zip(values[::2], values[1::2])] + (
            [values[-1]] if len(values) % 2 else []
        )
    return values[0]


class PrimePowerFactorization:
    """A canonical product of prime powers, prod p^e with e >= 1.

    Keys are primes in strictly increasing order and zero exponents are
    never stored, so expand() is injective: two distinct factorizations
    always expand to distinct integers. The constructor validates each
    key as a Prime; lcm_range and row_lcm_valuation build through
    _trusted with plain-int primes from _primes_upto.
    """

    __slots__ = ("_factors",)

    def __init__(self, factors: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = factors.items() if isinstance(factors, Mapping) else factors
        seen: dict[Prime, int] = {}
        for p, e in items:
            p = p if isinstance(p, Prime) else Prime(p)
            if not isinstance(e, int) or e < 0:
                raise DomainError(f"exponent of {int(p)} must be a natural, got {e!r}")
            if p in seen:
                raise DomainError(f"duplicate prime {int(p)}")
            if e > 0:
                seen[p] = e
        self._factors = dict(sorted(seen.items()))

    @classmethod
    def _trusted(cls, sorted_items: list[tuple[int, int]]) -> "PrimePowerFactorization":
        # Internal fast path: items already sorted, prime, exponent >= 1.
        # lcm_range and row_lcm_valuation pass plain-int keys: a Prime
        # hashes and compares as its int, and repr and to_pairs call
        # int(p), so nothing outside can tell.
        obj = object.__new__(cls)
        obj._factors = dict(sorted_items)
        return obj

    def items(self):
        return self._factors.items()

    def get(self, p: int, default: int = 0) -> int:
        return self._factors.get(p, default)

    def __getitem__(self, p: int) -> int:
        return self._factors[p]

    def __contains__(self, p: int) -> bool:
        return p in self._factors

    def __iter__(self):
        return iter(self._factors)

    def __len__(self) -> int:
        return len(self._factors)

    def __eq__(self, other) -> bool:
        if isinstance(other, PrimePowerFactorization):
            return self._factors == other._factors
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self._factors.items()))

    def __repr__(self) -> str:
        inner = " * ".join(f"{int(p)}^{e}" if e > 1 else f"{int(p)}" for p, e in self.items())
        return f"PrimePowerFactorization({inner or '1'})"

    def expand(self) -> int:
        """Multiply the factorization out to an exact integer."""
        return _product([p**e for p, e in self._factors.items()])

    def log_value(self) -> float:
        """ln(expand()) as sum e*ln(p), compensated (never builds the int)."""
        return math.fsum(e * math.log(p) for p, e in self._factors.items())

    def to_pairs(self) -> list[list[int]]:
        """JSON form: [[prime, exponent], ...] in increasing prime order."""
        return [[int(p), e] for p, e in self._factors.items()]


@dataclass(frozen=True)
class BinomialRow:
    """Row n of Pascal's triangle: entries[k] == C(n,k), exactly."""

    n: int
    entries: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, k: int) -> int:
        return self.entries[k]

    def __iter__(self):
        return iter(self.entries)


def _primes_upto(limit: int) -> list[int]:
    """All primes <= limit as plain ints, increasing. Empty for limit < 2.

    A bytearray sieve over the odd numbers only (flags[i] stands for
    2i + 1), read out by compress: reading out costs one int per
    candidate, so skipping the evens halves it. No domain or cap check:
    callers make those first.
    """
    if limit < 2:
        return []
    flags = bytearray([1]) * ((limit + 1) // 2)
    flags[0] = 0  # 1 is not prime
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            start = p * p // 2  # the index of p^2; its odd multiples are p apart
            flags[start::p] = bytes(len(range(start, len(flags), p)))
    return [2, *compress(range(1, limit + 1, 2), flags)]


def sieve_primes(limit: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> list[Prime]:
    """All primes <= limit, increasing, each a Prime. Empty for limit < 2."""
    if limit < 0:
        raise DomainError("limit must be a nonnegative integer")
    check_cap(limit, caps.sieve_limit, "sieve limit")
    return list(map(Prime._trusted, _primes_upto(limit)))


def _range_exponent(p: int, n: int) -> int:
    # Largest e with p^e <= n, by repeated multiplication only.
    e = 1
    q = p
    while q * p <= n:
        q *= p
        e += 1
    return e


def lcm_range(n: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> PrimePowerFactorization:
    """lcm(1..n) as prod over primes p <= n of p^max{e : p^e <= n}."""
    if n < 1:
        raise DomainError("lcm_range requires n >= 1")
    check_cap(n, caps.sieve_limit, "sieve limit")
    return PrimePowerFactorization._trusted([(p, _range_exponent(p, n)) for p in _primes_upto(n)])


def prime_power_bases(limit: int) -> list[int]:
    """base[m] = p when m = p^a (a >= 1) is a prime power, else 1, for 0 <= m <= limit.

    lcm(1..m) = lcm(1..m-1) * base[m]: the range lcm gains the factor p
    exactly at the powers of p. The primes come from _primes_upto; their
    powers are walked by repeated multiplication.
    """
    base = [1] * (limit + 1)
    for p in _primes_upto(limit):
        q = p
        while q <= limit:
            base[q] = p
            q *= p
    return base


def iter_range_lcms(limit: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> Iterator[int]:
    """Yield lcm(1..m) for m = 0, 1, ..., limit (lcm(1..0) = 1, the empty lcm).

    One sieve for the whole range, then one small multiplication per m
    that is a prime power; every other step yields the previous value.
    """
    if limit < 0:
        raise DomainError("limit must be a nonnegative integer")
    check_cap(limit, caps.sieve_limit, "sieve limit")
    yield from accumulate(prime_power_bases(limit), mul)


def lcm_sequence(values: Iterable[int]) -> int:
    """Fold lcm over a nonempty sequence of positive integers.

    Order- and duplication-independent. Zeros are rejected: no sequence
    this library produces contains one, so a zero is a caller bug and
    failing fast beats silently absorbing everything into lcm 0.
    """
    acc = None
    for v in values:
        if v < 1:
            raise DomainError(f"lcm_sequence requires every element >= 1, got {v}")
        acc = v if acc is None else math.lcm(acc, v)
    if acc is None:
        raise DomainError("lcm_sequence requires a nonempty sequence")
    return acc


def iter_binomial_rows(n_max: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> Iterator[BinomialRow]:
    """Yield rows 0..n_max by extending one Pascal row in place.

    Sweeps over many consecutive rows should use this: building row n
    from scratch costs O(n^2) additions, while the incremental sweep
    pays that once for the whole range.
    """
    if n_max < 0:
        raise DomainError("n_max must be a nonnegative integer")
    check_cap(n_max, caps.full_row_n, "binomial row n")
    row = [1]
    yield BinomialRow(0, (1,))
    for n in range(1, n_max + 1):
        nxt = [1] * (n + 1)
        for i in range(1, n):
            nxt[i] = row[i - 1] + row[i]
        row = nxt
        yield BinomialRow(n, tuple(row))


def binomial_row(n: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> BinomialRow:
    """Row n of Pascal's triangle via the additive recurrence.

    Additions only: the multiplicative formula needs per-entry division,
    and exactness is this library's contract.
    """
    return deque(iter_binomial_rows(n, caps=caps), maxlen=1)[0]


def _lcm_fold(values: Iterable[int]) -> int:
    """lcm of positive integers (1 for none), divisibility first.

    Most entries of a row already divide the running lcm, and a
    remainder costs far less than the gcd inside math.lcm, so math.lcm
    runs only for a value that brings a new factor.
    """
    acc = 1
    for v in values:
        if acc % v:
            acc = math.lcm(acc, v)
    return acc


def _fold_row_lcm(row: BinomialRow) -> int:
    return _lcm_fold(row.entries)


def _fold_weighted_lcm(row: BinomialRow) -> int:
    return _lcm_fold(map(mul, range(1, row.n + 1), row.entries[1:]))


def _fold_half_row_lcm(row: BinomialRow) -> int:
    # First floor(n/2)+1 entries; covers the whole row by symmetry.
    return _lcm_fold(row.entries[: row.n // 2 + 1])


def row_lcm_naive(n: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> int:
    """lcm of C(n,0..n): materialize the row, fold. The oracle route."""
    return _fold_row_lcm(binomial_row(n, caps=caps))


def row_lcm_farhi(n: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> int:
    """lcm of C(n,0..n) as lcm(1..n+1)/(n+1), with exact division checked."""
    if n < 0:
        raise DomainError("row_lcm_farhi requires n >= 0")
    return row_quotient(lcm_range(n + 1, caps=caps).expand(), n)


def row_quotient(lcm_next: int, n: int) -> int:
    """lcm_next / (n+1), where lcm_next = lcm(1..n+1); the division is checked exact.

    (n+1) always divides lcm(1..n+1); a nonzero remainder would falsify
    the identity the quotient rests on, and raises immediately.
    """
    q, r = divmod(lcm_next, n + 1)
    if r:
        raise InternalConsistencyError(
            f"lcm(1..{n + 1}) is not divisible by {n + 1}; this falsifies the "
            "row-quotient identity and cannot happen"
        )
    return q


def row_lcm_valuation(n: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> PrimePowerFactorization:
    """lcm of C(n,0..n) as a factorization, one max-valuation per prime.

    The exponent of p is the largest v_p(C(n,k)) over 0 <= k <= n, the
    most borrows any base-p subtraction n - k can make. The two-state
    digit DP of max_binomial_valuation finds it from the digits of n
    without enumerating k. For p <= isqrt(n) the DP runs as is; for
    p > isqrt(n), n has exactly two base-p digits and the DP's two steps
    are unrolled to one test of the low digit. The primes are plain
    ints from _primes_upto, so no Prime is made, and above the square
    root no function is called per prime. Scales to the default valuation
    cap of n = 10^6, far past where row materialization stops being
    feasible.
    """
    if n < 0:
        raise DomainError("row_lcm_valuation requires n >= 0")
    check_cap(n, caps.valuation_n, "valuation-method row n")
    check_cap(n, caps.sieve_limit, "sieve limit")
    primes = _primes_upto(n)
    split = bisect_right(primes, math.isqrt(n))
    items = [(p, e) for p in primes[:split] if (e := _max_borrows(n, p))]
    # p > isqrt(n): n = d1*p + d0 with 1 <= d1 < p. From the seed state
    # (f0, f1) = (0, infeasible), the top digit d1 >= 1 gives (0, 0); the
    # low digit d0 then gives f0 = 1 + f1 = 1 if d0 <= p - 2, else 0.
    items += [(p, 1) for p in primes[split:] if n % p != p - 1]
    return PrimePowerFactorization._trusted(items)


def weighted_row_lcm(n: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> int:
    """lcm of the weighted row k*C(n,k) for k = 1..n."""
    if n < 1:
        raise DomainError("weighted_row_lcm requires n >= 1")
    return _fold_weighted_lcm(binomial_row(n, caps=caps))
