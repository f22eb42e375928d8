"""Exact lcm computation for integer ranges and binomial rows.

Three routes compute the lcm of a binomial row C(n,0..n), with costs
that scale very differently:

* naive      -- materialize the row (Pascal additions), fold lcm over
                it (a gcd only where an entry does not already
                divide the running lcm); the oracle everything else is
                checked against, feasible to a few thousand. The fold
                takes entries 0..floor(n/2) in row order, then only
                those later entries that differ from their mirror
                C(n,n-k) (on a Pascal row, none).
* farhi      -- expand(lcm_range(n+1)) / (n+1), exact division; one
                sieve plus one big division.
* valuation  -- per prime p <= n, the largest carry count any entry can
                have; returns a factorization and never touches
                row-sized integers. The borrow rule that gives each
                exponent lives in valuation (_row_exponents); above
                isqrt(n) it keeps the primes as one slice, less the
                one, if any, that divides n+1.

Range lcms likewise come in two routes: a gcd fold over 1..n (oracle)
and the prime-power factorization lcm(1..n) = prod p^max{e : p^e <= n}.
A sweep over consecutive n carries the second incrementally instead:
lcm(1..m) = lcm(1..m-1) * p when m = p^a is a prime power, and
lcm(1..m-1) otherwise (iter_range_lcms).

Primes come from one bytearray sieve, _primes_upto, read out into one
array('I'), four bytes per prime and no int object: lcm_range,
prime_power_bases and row_lcm_valuation read it directly, and
sieve_primes wraps its output as Prime for the API. Each of them hands
the sieve its caps, and the sieve is the one place that checks the
sieve cap: a limit over it is refused there, before anything is
allocated, with "sieve limit N exceeds the configured cap C". A
PrimePowerFactorization holds its primes in one array('I') and the
exponents of its first primes in a tuple, every later prime having
exponent 1, with no (p, e) pair or dict per prime. Each prime a route
keeps above isqrt(n) has exponent 1, so lcm_range adopts the sieve's
array with the exponents up to isqrt(n) only, and row_lcm_valuation
what _row_exponents returns. Its items() is a one-pass iterator.

All values are exact; nothing in this module goes through floats.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import deque
from functools import cached_property
from itertools import accumulate, chain, compress, repeat
from operator import add, eq, mul, ne
from typing import Iterable, Iterator, Mapping

from .caps import DEFAULT_CAPS, ResourceCaps, check_cap
from .digits import bracket_digit_count, bracket_product, decimal_digits
from .errors import DomainError, InternalConsistencyError, require_int
from .valuation import Prime, _as_prime, _row_exponents

__all__ = [
    "PrimePowerFactorization",
    "BinomialRow",
    "sieve_primes",
    "lcm_range",
    "lcm_sequence",
    "binomial_row",
    "iter_binomial_rows",
    "row_lcm_naive",
    "row_lcm_farhi",
    "row_lcm_valuation",
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

    Stored as the primes in strictly increasing order, packed in one
    array('I') (every Prime is below 2**32), and the exponents of the
    first len(_exps) of them in a tuple (an exponent is unbounded); every
    later prime has exponent 1. There is no pair or dict per prime. Zero
    exponents are never stored, so expand() is injective: two distinct
    factorizations always expand to distinct integers. Two builds of one
    value may store tuples of different lengths, so equality and hash
    read items(), a one-pass iterator of (p, e) pairs of ints; iteration
    yields each prime as a Prime. The constructor validates each key as a
    Prime and stores every exponent; lcm_range and row_lcm_valuation
    build through _trusted, handing over the array from _primes_upto or
    _row_exponents, which no method hands out, and the exponents up to
    isqrt(n) only.
    """

    __slots__ = ("_primes", "_exps")

    def __init__(self, factors: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = factors.items() if isinstance(factors, Mapping) else factors
        seen: dict[Prime, int] = {}
        for p, e in items:
            p = _as_prime(p)
            require_int(e, 0, f"exponent of {int(p)} must be a natural, got {{!r}}")
            if p in seen:
                raise DomainError(f"duplicate prime {int(p)}")
            seen[p] = e
        kept = [p for p in sorted(seen) if seen[p]]
        self._primes = array("I", kept)
        self._exps = tuple(map(seen.__getitem__, kept))

    @classmethod
    def _trusted(cls, primes: array, exps: Iterable[int]) -> "PrimePowerFactorization":
        # Internal fast path: primes an increasing array('I'), adopted, not
        # copied (lcm_range and row_lcm_valuation hand over one that nothing
        # else holds); exps >= 1 for at most len(primes) first primes.
        obj = object.__new__(cls)
        obj._primes = primes
        obj._exps = tuple(exps)
        return obj

    def items(self) -> Iterator[tuple[int, int]]:
        """The (p, e) pairs in increasing prime order, as a one-pass iterator."""
        return zip(self._primes, chain(self._exps, repeat(1)))

    def __iter__(self) -> Iterator[Prime]:
        return map(Prime._trusted, self._primes)

    def __len__(self) -> int:
        return len(self._primes)

    def __eq__(self, other) -> bool:
        if isinstance(other, PrimePowerFactorization):
            return self._primes == other._primes and all(map(eq, self.items(), other.items()))
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.items()))

    def __repr__(self) -> str:
        inner = " * ".join(f"{int(p)}^{e}" if e > 1 else f"{int(p)}" for p, e in self.items())
        return f"PrimePowerFactorization({inner or '1'})"

    def expand(self) -> int:
        """Multiply the factorization out to an exact integer."""
        return _product([p**e for p, e in self.items()])

    def digit_count(self) -> int:
        """Decimal digits of expand(), exactly, from an integer bracket of the product.

        The product is built only when the bracket cannot decide: when it
        lies within about 2**-110 of a power of ten, such as 10**j itself.
        """
        digits = bracket_digit_count(*bracket_product(self.items()))
        return decimal_digits(self.expand()) if digits is None else digits

    def log_value(self) -> float:
        """ln(expand()) as sum e*ln(p), compensated (never builds the int)."""
        return math.fsum(e * math.log(p) for p, e in self.items())


class BinomialRow:
    """Row n of Pascal's triangle: entries[k] == C(n,k), exactly.

    Its lcm folds and weighted terms are cached on the row, each built at
    most once per row object: the identity sweep reads row n at n and
    again as the previous row at n+1, the second time for its folds only,
    so the sweep drops the cached terms once step n is done. The full
    fold continues from the half-row fold (entries 0..floor(n/2)) and
    skips every later entry equal to its mirror among those, so a Pascal
    row is folded once, in row order, and each of its values once.
    Equality, hash and repr read only n and entries, which cannot be
    reassigned; entries is held as a tuple (any other iterable is copied
    into one), so a caller's list cannot change it under the cached folds.
    n must be an int >= 0 and entries must have n + 1 items, or the folds
    would answer for some other row.
    """

    def __init__(self, n: int, entries: Iterable[int]):
        entries = tuple(entries)
        if len(entries) != require_int(n, 0, "BinomialRow requires an int n >= 0, got {!r}") + 1:
            raise DomainError(f"row {n} needs {n + 1} entries, got {len(entries)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to BinomialRow.{name}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.entries) == (other.n, other.entries)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.entries))

    def __repr__(self) -> str:
        return f"BinomialRow(n={self.n!r}, entries={self.entries!r})"

    @cached_property
    def half_lcm(self) -> int:
        """lcm of C(n,0..floor(n/2)); equal to lcm by the row's symmetry."""
        return _fold_half_row_lcm(self)

    @cached_property
    def lcm(self) -> int:
        """lcm of C(n,0..n)."""
        return _fold_row_lcm(self)

    @cached_property
    def weighted_terms(self) -> tuple[int, ...]:
        """k*C(n,k) for k = 1..n; empty for row 0."""
        return tuple(map(mul, range(1, self.n + 1), self.entries[1:]))

    @cached_property
    def weighted_lcm(self) -> int:
        """lcm of k*C(n,k) for k = 1..n; 1 (the empty lcm) for row 0."""
        return _fold_weighted_lcm(self)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, k: int) -> int:
        return self.entries[k]

    def __iter__(self):
        return iter(self.entries)


def _primes_upto(limit: int, caps: ResourceCaps) -> array:
    """All primes <= limit in one array('I'), increasing. Empty for limit < 2.

    The one check of the sieve cap: every route that sieves comes here,
    and a limit that is not an int >= 0 or is over caps.sieve_limit is
    refused before anything is allocated, so a caller checks only its
    own argument. A bytearray sieve over the odd numbers only (flags[i]
    stands for 2i + 1), read out by compress straight into the array:
    reading out costs one transient int per candidate, so skipping the
    evens halves it, and the array keeps four bytes per prime.
    """
    require_int(limit, 0, "limit must be a nonnegative integer, got {!r}")
    check_cap(limit, caps.sieve_limit, "sieve limit")
    if limit < 2:
        return array("I")
    flags = bytearray([1]) * ((limit + 1) // 2)
    flags[0] = 0  # 1 is not prime
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            start = p * p // 2  # the index of p^2; its odd multiples are p apart
            flags[start::p] = bytes(len(range(start, len(flags), p)))
    primes = array("I", [2])
    primes.extend(compress(range(1, limit + 1, 2), flags))
    return primes


def sieve_primes(limit: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> list[Prime]:
    """All primes <= limit, increasing, each a Prime. Empty for limit < 2."""
    return list(map(Prime._trusted, _primes_upto(limit, caps)))


def _range_exponent(p: int, n: int) -> int:
    # Largest e with p^e <= n, by repeated multiplication only.
    e = 1
    q = p
    while q * p <= n:
        q *= p
        e += 1
    return e


def lcm_range(n: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> PrimePowerFactorization:
    """lcm(1..n) as prod over primes p <= n of p^max{e : p^e <= n}.

    Every p > isqrt(n) has p^2 > n, so exponent 1: only the primes up
    to the square root go through _range_exponent and are stored.
    """
    require_int(n, 1, "lcm_range requires an int n >= 1, got {!r}")
    primes = _primes_upto(n, caps)
    split = bisect_right(primes, math.isqrt(n))
    return PrimePowerFactorization._trusted(primes, map(_range_exponent, primes[:split], repeat(n)))


def prime_power_bases(limit: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> list[int]:
    """base[m] = p when m = p^a (a >= 1) is a prime power, else 1, for 0 <= m <= limit.

    lcm(1..m) = lcm(1..m-1) * base[m]: the range lcm gains the factor p
    exactly at the powers of p. The primes come from _primes_upto, which
    checks limit before the table is allocated; their powers are walked
    by repeated multiplication.
    """
    primes = _primes_upto(limit, caps)
    base = [1] * (limit + 1)
    for p in primes:
        q = p
        while q <= limit:
            base[q] = p
            q *= p
    return base


def iter_range_lcms(limit: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> Iterator[int]:
    """Yield lcm(1..m) for m = 0, 1, ..., limit (lcm(1..0) = 1, the empty lcm).

    One sieve for the whole range, then one small multiplication per m
    that is a prime power; every other step yields the previous value.
    The sieve checks limit and the sieve cap, at the first next().
    """
    yield from accumulate(prime_power_bases(limit, caps=caps), mul)


def lcm_sequence(values: Iterable[int]) -> int:
    """Fold lcm over a nonempty sequence of positive integers, through _lcm_fold.

    Order- and duplication-independent; the values are read once, so a
    one-shot iterator will do. Zeros are rejected: no sequence this
    library produces contains one, so a zero is a caller bug and failing
    fast beats silently absorbing everything into lcm 0. So is anything
    that is not an int, a bool included: a float would fold to a value
    that is not an exact lcm, or fail inside math.gcd.
    """
    it = iter(values)
    first = next(it, None)
    if first is None:
        raise DomainError("lcm_sequence requires a nonempty sequence")
    return _lcm_fold(map(_positive, chain((first,), it)))


def _positive(v: int) -> int:
    return require_int(v, 1, "lcm_sequence requires every element to be an int >= 1, got {!r}")


def iter_binomial_rows(n_max: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> Iterator[BinomialRow]:
    """Yield rows 0..n_max, each built from the one before by Pascal's rule.

    Sweeps over many consecutive rows should use this: building row n
    from scratch costs O(n^2) additions, while the incremental sweep
    pays that once for the whole range.
    """
    require_int(n_max, 0, "n_max must be a nonnegative integer, got {!r}")
    check_cap(n_max, caps.full_row_n, "binomial row n")
    row = (1,)
    yield BinomialRow(0, row)
    for n in range(1, n_max + 1):
        row = (1, *map(add, row, row[1:]), 1)
        yield BinomialRow(n, row)


def binomial_row(n: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> BinomialRow:
    """Row n of Pascal's triangle via the additive recurrence.

    Additions only: the multiplicative formula needs per-entry division,
    and exactness is this library's contract.
    """
    return deque(iter_binomial_rows(n, caps=caps), maxlen=1)[0]


def _lcm_fold(values: Iterable[int], acc: int = 1) -> int:
    """lcm of acc and positive integers (acc alone for none), divisibility first.

    Most entries of a row already divide the running lcm, and a
    remainder costs far less than a gcd, so a gcd runs only for a value
    that brings a new factor. It reuses the remainder r = acc mod v:
    gcd(acc, v) = gcd(v, r), whose operands are no larger than v, and
    the new lcm is acc * (v / gcd(v, r)).
    """
    for v in values:
        if r := acc % v:
            acc *= v // math.gcd(v, r)
    return acc


def _fold_rest(values: tuple[int, ...], mid: int, acc: int) -> int:
    """lcm(acc, values[mid:]), where acc is already a multiple of values[:mid].

    values[j] for j >= mid has its mirror values[len - 1 - j] among
    values[:mid] (2 * mid >= len), and a value equal to its mirror
    divides acc, so it is skipped by one comparison instead of a
    remainder of acc. A Pascal row, and its weighted terms, mirror
    themselves, so their rest costs no remainder at all; nothing here
    relies on that, and any other value is folded.
    """
    rest = values[mid:]
    return _lcm_fold(compress(rest, map(ne, rest, reversed(values[: len(values) - mid]))), acc)


def _fold_row_lcm(row: BinomialRow) -> int:
    return _fold_rest(row.entries, row.n // 2 + 1, row.half_lcm)


def _fold_weighted_lcm(row: BinomialRow) -> int:
    # k*C(n,k) = n*C(n-1,k-1) is symmetric under k <-> n+1-k, so the
    # first ceil(n/2) terms carry the lcm of a Pascal row's terms.
    terms = row.weighted_terms
    mid = (row.n + 1) // 2
    return _fold_rest(terms, mid, _lcm_fold(terms[:mid]))


def _fold_half_row_lcm(row: BinomialRow) -> int:
    # First floor(n/2)+1 entries; covers a Pascal row by symmetry.
    return _lcm_fold(row.entries[: row.n // 2 + 1])


def row_lcm_naive(n: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> int:
    """lcm of C(n,0..n): materialize the row, fold. The oracle route."""
    require_int(n, 0, "row_lcm_naive requires an int n >= 0, got {!r}")
    return binomial_row(n, caps=caps).lcm


def row_lcm_farhi(n: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> int:
    """lcm of C(n,0..n) as lcm(1..n+1)/(n+1), with exact division checked."""
    require_int(n, 0, "row_lcm_farhi requires an int n >= 0, got {!r}")
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
    """lcm of C(n,0..n) as a factorization, one maximal valuation per prime.

    The exponent of p is the largest v_p(C(n,k)) over 0 <= k <= n, the
    most borrows any base-p subtraction n - k can make. That borrow rule
    lives in valuation: _row_exponents finds each exponent from the
    digits of n without enumerating k, and above isqrt(n) tests no
    prime: it drops at most one from the sieve's array and keeps the
    rest as one slice with no exponent stored, so no Prime or int is
    kept per prime. Its work is the sieve's, so its one cap is the sieve
    cap (n = 10^7 by default), as for lcm_range: far past where row
    materialization stops being feasible.
    """
    require_int(n, 0, "row_lcm_valuation requires an int n >= 0, got {!r}")
    return PrimePowerFactorization._trusted(*_row_exponents(n, _primes_upto(n, caps)))


# name -> route(n, caps), for `row-lcm --method` and `bench row`. Each
# route checks its own caps and raises ResourceCapError before any work.
# The routes look the engine up in this module's globals when called, so
# one rebound here later (by a tracer, say) is the one called.
ROW_ROUTES = {
    "naive": lambda n, caps: row_lcm_naive(n, caps=caps),
    "farhi": lambda n, caps: row_lcm_farhi(n, caps=caps),
    "valuation": lambda n, caps: row_lcm_valuation(n, caps=caps),
}
