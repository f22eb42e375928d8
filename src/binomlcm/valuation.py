"""p-adic valuations of factorials and binomial coefficients.

Two independent formulas compute the same quantity and are kept
deliberately separate so each can catch bugs in the other:

* Legendre: v_p(n!) = sum over i >= 1 of floor(n / p^i), so
  v_p(C(n,k)) = v_p(n!) - v_p(k!) - v_p((n-k)!).
* Carry counting: v_p(C(n,k)) equals the number of carries produced
  when adding k and n-k in base p.

The valuation route to a row lcm is a borrow rule: the exponent of p
in lcm(C(n,0..n)) is the most borrows any base-p subtraction n - k
makes. Both shapes of that rule live here: the digit DP
(max_binomial_valuation, _max_borrows) and, for a whole row at once,
_row_exponents, which runs the DP up to isqrt(n) and its two-digit
unrolling above it; engine.row_lcm_valuation reads its exponents from
there.

Everything here is exact integer arithmetic. Base-p digits come from
repeated integer division; floating-point logarithms misround near
prime-power boundaries and are banned from this module.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from math import isqrt

from .errors import DomainError, InternalConsistencyError

__all__ = [
    "Prime",
    "legendre_factorial_valuation",
    "kummer_binomial_valuation",
    "binomial_valuation",
    "max_binomial_valuation",
]

# Trial division is deterministic and fast for values up to 2**32
# (at most ~65k candidate divisors); larger inputs are refused rather
# than silently slow or probabilistic.
PRIMALITY_CHECK_LIMIT = 1 << 32


def _is_prime(v: int) -> bool:
    if v < 2:
        return False
    if v < 4:
        return True
    if v % 2 == 0:
        return False
    f = 3
    while f * f <= v:
        if v % f == 0:
            return False
        f += 2
    return True


class Prime(int):
    """An int that passed a deterministic primality check at construction.

    >>> Prime(7)
    Prime(7)
    >>> Prime(6)
    Traceback (most recent call last):
        ...
    binomlcm.errors.DomainError: 6 is not prime
    """

    __slots__ = ()

    def __new__(cls, value) -> "Prime":
        v = operator.index(value)
        if v > PRIMALITY_CHECK_LIMIT:
            raise DomainError(
                f"{v} exceeds the deterministic primality-check limit 2**32"
            )
        if not _is_prime(v):
            raise DomainError(f"{v} is not prime")
        return super().__new__(cls, v)

    @classmethod
    def _trusted(cls, value: int) -> "Prime":
        # Fast path for values already proved prime (sieve output).
        return int.__new__(cls, value)

    def __repr__(self) -> str:
        return f"Prime({int(self)})"


def _as_prime(p) -> Prime:
    return p if isinstance(p, Prime) else Prime(p)


def legendre_factorial_valuation(n: int, p) -> int:
    """v_p(n!) as the exact sum of floor(n / p^i) over p^i <= n.

    The empty sum gives 0 for n = 0 (0! = 1).
    """
    p = _as_prime(p)
    if n < 0:
        raise DomainError("n must be a nonnegative integer")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def kummer_binomial_valuation(n: int, k: int, p) -> int:
    """v_p(C(n,k)) as the carry count of the base-p addition k + (n-k).

    Digits are consumed least-significant-first by repeated division;
    the shorter operand is implicitly zero-padded, so the carry loop is
    branch-free in the digit values.
    """
    p = _as_prime(p)
    if not 0 <= k <= n:
        raise DomainError(f"require 0 <= k <= n, got n={n}, k={k}")
    a, b = k, n - k
    carry = 0
    carries = 0
    while a or b:
        s = a % p + b % p + carry
        carry = 1 if s >= p else 0
        carries += carry
        a //= p
        b //= p
    # A pending carry past the top digit pair cannot generate another
    # carry (0 + 0 + 1 < p), so the loop above counts them all.
    return carries


def binomial_valuation(n: int, k: int, p) -> int:
    """v_p(C(n,k)), carry-counted and cross-checked against Legendre.

    Both formulas run on every call; a disagreement would mean this
    library is broken and raises InternalConsistencyError.
    """
    p = _as_prime(p)
    if not 0 <= k <= n:
        raise DomainError(f"require 0 <= k <= n, got n={n}, k={k}")
    by_carries = kummer_binomial_valuation(n, k, p)
    by_legendre = (
        legendre_factorial_valuation(n, p)
        - legendre_factorial_valuation(k, p)
        - legendre_factorial_valuation(n - k, p)
    )
    if by_carries != by_legendre:
        raise InternalConsistencyError(
            f"v_{int(p)}(C({n},{k})): carry count {by_carries} != "
            f"Legendre difference {by_legendre}"
        )
    return by_carries


def max_binomial_valuation(n: int, p) -> int:
    """max over 0 <= k <= n of v_p(C(n,k)).

    v_p(C(n,k)) equals the number of borrows in the base-p subtraction
    n - k, so the maximum is found by choosing, digit by digit, whether
    to force a borrow. That is a two-state dynamic program over the
    base-p digits of n (state: borrow pending or not), O(log_p n) per
    call instead of enumerating every k. The enumeration definition is
    what the test suite checks this against.

    p is checked prime and n nonnegative here; the DP itself is
    _max_borrows, which _row_exponents runs on sieved primes.
    """
    p = _as_prime(p)
    if n < 0:
        raise DomainError("n must be a nonnegative integer")
    return _max_borrows(n, p)


def _max_borrows(n: int, p: int) -> int:
    # The DP of max_binomial_valuation for a trusted prime p and n >= 0.
    low = []  # the base-p digits of n below the top one, least significant first
    while n >= p:
        n, d = divmod(n, p)
        low.append(d)
    # f0/f1: best borrow count from the current position up through the
    # top digit, given no-borrow/borrow pending into the position below.
    # The top digit is >= 1 and no borrow can come from above it, so
    # both start at 0 below it (n = 0 has no digits, and its answer 0).
    f0 = f1 = 0
    for d in reversed(low):
        both = max(f0, 1 + f1)
        f0, f1 = (both if d <= p - 2 else f0), (both if d >= 1 else 1 + f1)
    return f0


def _row_exponents(n: int, primes: list[int]) -> list[tuple[int, int]]:
    # (p, max borrows of n - k in base p) for each p in primes (trusted,
    # increasing, all <= n) whose exponent is >= 1: the factorization of
    # lcm(C(n,0..n)). Below the split the DP runs as is.
    split = bisect_right(primes, isqrt(n))
    items = [(p, e) for p in primes[:split] if (e := _max_borrows(n, p))]
    # p > isqrt(n): n = d1*p + d0 with 1 <= d1 < p. Below the top digit d1
    # the DP starts at (f0, f1) = (0, 0); the low digit d0 then gives
    # f0 = max(f0, 1 + f1) = 1 if d0 <= p - 2, else 0.
    items += [(p, 1) for p in primes[split:] if n % p != p - 1]
    return items
