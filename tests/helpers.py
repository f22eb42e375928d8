"""Independent oracles the library is checked against.

Everything here goes through routes the library does not use: direct
divide-out factorization, math.comb, plain math.lcm folds, and the json
module's own parser and layout. Keeping these separate from the package
is the point; a bug in binomlcm cannot hide in its own oracle.
"""

import json
import math
from functools import reduce


def json_document(text: str):
    """The value a JSON document holds; the text must be json's own layout of it.

    That layout is json.dumps(value, indent=2) and a newline, as print
    writes it. A NaN parses to a float that equals nothing, so compare a
    document holding floats through json.dumps.
    """
    value = json.loads(text)
    assert text == json.dumps(value, indent=2) + "\n"
    return value


def vp_by_division(m: int, p: int) -> int:
    """Exponent of p in m, by repeatedly dividing m out. m >= 1."""
    assert m >= 1
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e


def trial_is_prime(v: int) -> bool:
    if v < 2:
        return False
    return all(v % d for d in range(2, int(math.isqrt(v)) + 1))


def brute_row(n: int) -> list[int]:
    """Row n of Pascal's triangle via math.comb."""
    return [math.comb(n, k) for k in range(n + 1)]


def fold_lcm(values) -> int:
    return reduce(math.lcm, values)


def brute_range_lcm(n: int) -> int:
    """lcm(1..n) by direct fold."""
    return fold_lcm(range(1, n + 1))


def brute_row_lcm(n: int) -> int:
    return fold_lcm(brute_row(n))


def brute_weighted_row_lcm(n: int) -> int:
    return fold_lcm(k * math.comb(n, k) for k in range(1, n + 1))


def fsum_psi_table(max_n: int, step: int = 1) -> list[tuple]:
    """(n, digits, 2^(n-1) <= L, 2^n <= L, L <= 3^n, psi/n) per sample, L = lcm(1..n).

    The per-sample route: L folded up by math.lcm, digits by len(str()),
    each flag against an exactly built power, and psi as math.fsum over
    every prime's term e*ln(p) at every sample.
    """
    out = []
    lcm = 1
    exponents: dict[int, int] = {}
    for n in range(1, max_n + 1):
        lcm = math.lcm(lcm, n)
        if n >= 2:
            p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
            a = vp_by_division(n, p)
            if p**a == n:
                exponents[p] = a
        if n % step == 0:
            psi = math.fsum(e * math.log(p) for p, e in exponents.items())
            out.append((n, len(str(lcm)), 2 ** (n - 1) <= lcm, 2**n <= lcm, lcm <= 3**n, psi / n))
    return out
