"""Machine verification of the five row-lcm identities.

The identities, in the ids used throughout this package:

    T1 (Nair)      lcm(1*C(n,1), 2*C(n,2), ..., n*C(n,n)) = lcm(1..n)
    T2 (Farhi)     lcm(C(n,0), ..., C(n,n)) = lcm(1..n+1) / (n+1)
    T3             n * lcm(C(n-1,0), ..., C(n-1,n-1)) = lcm(1..n)
    T4 (bridge)    lcm(1*C(n,1), ..., n*C(n,n))
                       = n * lcm(C(n-1,0), ..., C(n-1,n-1))
    T5 (half row)  n * lcm(C(n-1,0), ..., C(n-1,floor((n-1)/2))) = lcm(1..n)
    TERMWISE       t * C(n,t) = n * C(n-1,t-1), the per-term identity
                   behind T4
    CHAIN          T1 -> T4 -> T3 -> lcm(1..n), the four linked quantities

Each identity is one registry entry fed by one shared Pascal row sweep;
a single n is the range [n, n], so verify_range(T, n, n)[0] is T at n.
The sweep is one loop that hands every builder the same facts at n:
rows n-1 and n, lcm(1..n) and lcm(1..n+1).
Each row caches its own folds, so the fold of row n made at n is the
very value read as the previous row's at n+1. A row's full fold
continues from its half-row fold, which T5 reads, and skips each value
equal to its mirror image, already folded, so a row is folded once. Its
weighted terms k*C(n,k) are built once, for T1's fold and TERMWISE's
left side. T4 is the bridge that makes T1 and T3 equivalent: its left
side is T1's left side, row n's cached weighted fold, and its right
side is T3's left side, n * lcm(row n-1) read off row n-1's cached
fold (CHAIN computes that product once and reports it twice). The
per-n facts are a plain record; every cached value lives on a row.
Everywhere else the two sides of a report go through maximally
independent routes (e.g. no left side ever touches the prime-power
factorization that produces the right side), so a single bug cannot
silently hold an identity up.

The sweep carries lcm(1..n) and lcm(1..n+1) from one n to the next (one
sieve for the whole range, one small multiplication at each prime
power), so no n rebuilds a range lcm. TERMWISE's right side n*C(n-1,t-1)
comes from the multiplicative recurrence C(n-1,t) = C(n-1,t-1)*(n-t)/t
with every division checked exact, run over half the row (t <= ceil(n/2))
and mirrored by C(n-1,t-1) = C(n-1,n-t); its left side is read off the
Pascal row, and all n terms of the two sides are compared pairwise.

A report stores its quantities and their provenance, never its verdict:
holds (lhs == rhs) and the chain's all_equal are read off the quantities,
so no report can disagree with its own sides. A false identity is data
(holds == False), never an exception; batch sweeps always run to
completion so failures are fully enumerated. Exceptions are reserved for
domain errors and for internal-consistency violations.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import chain, pairwise, repeat
from typing import Callable, Iterable, NamedTuple, Sequence

from .caps import DEFAULT_CAPS, ResourceCaps
from .digits import FLAGS, VERDICTS, decimal_str, json_str
from .engine import BinomialRow, iter_binomial_rows, iter_range_lcms, row_quotient
from .errors import DomainError, InternalConsistencyError, require_int

__all__ = [
    "Theorem", "IdentityReport", "EquivalenceChainReport", "verify_nair", "termwise_identity", "equivalence_chain",
    "verify_range", "chain_range",
]

# The CSV columns of both report types; a chain report fills them too.
IDENTITY_CSV_HEADER = ["theorem", "n", "lhs", "rhs", "holds", "lhs_method", "rhs_method"]


class Theorem(Enum):
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    T4 = "T4"
    T5 = "T5"
    TERMWISE = "TERMWISE"
    CHAIN = "CHAIN"

    @classmethod
    def _missing_(cls, value):
        # Theorem(value) for a value that is no member's id; the enum's own error is a bare ValueError.
        raise DomainError(f"a theorem id is one of {', '.join(t.value for t in cls)}, got {value!r}")


# Provenance labels carried on every report.
_M_WEIGHTED = "fold lcm of k*C(n,k), k=1..n, over a Pascal-built row"
_M_ROW_FOLD = "fold lcm of C(n,k), k=0..n, over a Pascal-built row"
_M_SCALED_PREV = "n * fold lcm of C(n-1,k), k=0..n-1, over a Pascal-built row"
_M_HALF_ROW = "n * fold lcm of C(n-1,k), k=0..floor((n-1)/2)"
_M_RANGE_FACT = "prime-power factorization of lcm(1..n), expanded"
_M_FARHI_QUOT = "lcm(1..n+1)/(n+1) via factorization, exact division checked"
_M_TERM_LHS = "sum of t*C(n,t) over t=1..n, each term checked exactly"
_M_TERM_RHS = "sum of n*C(n-1,t-1) over t=1..n, each term checked exactly"


class IdentityReport(NamedTuple):
    """One verified identity instance; holds is read off its two sides."""

    theorem: Theorem
    n: int
    lhs: int
    rhs: int
    lhs_method: str
    rhs_method: str

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs

    ok = holds

    def plain_line(self) -> str:
        return (
            f"{self.theorem.value} n={self.n} {VERDICTS[self.holds]} "
            f"lhs={decimal_str(self.lhs)} rhs={decimal_str(self.rhs)}"
        )

    def to_csv_row(self) -> list[str]:
        return [
            self.theorem.value, str(self.n), decimal_str(self.lhs), decimal_str(self.rhs),
            FLAGS[self.holds], self.lhs_method, self.rhs_method,
        ]

    def to_json_text(self) -> str:
        return (
            f'{{\n    "theorem": "{self.theorem.value}",\n    "n": {self.n},\n'
            f'    "lhs": "{decimal_str(self.lhs)}",\n    "rhs": "{decimal_str(self.rhs)}",\n'
            f'    "holds": {FLAGS[self.holds]},\n    "lhs_method": {json_str(self.lhs_method)},\n'
            f'    "rhs_method": {json_str(self.rhs_method)}\n  }}'
        )


class EquivalenceChainReport(NamedTuple):
    """The four quantities linked by the T1 -> T4 -> T3 -> range chain.

    q_thm4_rhs and q_thm3_lhs are the same expression by construction
    (that identification is the bridge), so they are computed once and
    reported twice to mirror the chain's structure. all_equal is read
    off the four quantities.
    """

    n: int
    q_nair: int
    q_thm4_rhs: int
    q_thm3_lhs: int
    q_range: int

    @property
    def all_equal(self) -> bool:
        return self.q_nair == self.q_thm4_rhs == self.q_thm3_lhs == self.q_range

    ok = all_equal

    def plain_line(self) -> str:
        return (
            f"CHAIN n={self.n} {VERDICTS[self.all_equal]} nair={decimal_str(self.q_nair)} "
            f"thm4_rhs={decimal_str(self.q_thm4_rhs)} "
            f"thm3_lhs={decimal_str(self.q_thm3_lhs)} range={decimal_str(self.q_range)}"
        )

    def to_csv_row(self) -> list[str]:
        # Flattened onto IDENTITY_CSV_HEADER: the chain's endpoints become
        # lhs/rhs. Full detail is in JSON.
        return [
            "CHAIN", str(self.n), decimal_str(self.q_nair), decimal_str(self.q_range), FLAGS[self.all_equal],
            "weighted row fold (chain head)", "prime-power factorization of lcm(1..n) (chain tail)",
        ]

    def to_json_text(self) -> str:
        return (
            f'{{\n    "theorem": "CHAIN",\n    "n": {self.n},\n    "q_nair": "{decimal_str(self.q_nair)}",\n'
            f'    "q_thm4_rhs": "{decimal_str(self.q_thm4_rhs)}",\n'
            f'    "q_thm3_lhs": "{decimal_str(self.q_thm3_lhs)}",\n'
            f'    "q_range": "{decimal_str(self.q_range)}",\n    "all_equal": {FLAGS[self.all_equal]}\n  }}'
        )


# --- registry and sweep ---------------------------------------------------
# One entry per identity: the smallest n it is stated for, whether it reads
# row n or only row n-1, and a builder from the shared per-n facts.


class _Facts(NamedTuple):
    """The inputs at n that several identities share; every cached value
    (row folds, weighted terms) lives on the rows themselves."""

    n: int
    prev: BinomialRow | None  # row n-1; None at n = 0
    row: BinomialRow | None  # row n; None at last when no selected identity reads it
    range_lcm: int | None  # lcm(1..n); None when no selected identity reads a range lcm
    next_range_lcm: int | None  # lcm(1..n+1); None past the sieve limit, which T2 extends to last + 1


def _theorem5_report(f: _Facts) -> IdentityReport:
    half = f.prev.half_lcm
    # Sub-check: by symmetry the half row must already carry the full
    # row's lcm. A violation is a library bug, not a failed identity.
    # The full fold skips only values equal to their mirror in the half
    # row, which divide it, so any other value with a new factor shows here.
    if half != f.prev.lcm:
        raise InternalConsistencyError(f"half-row lcm {half} != full-row lcm {f.prev.lcm} for row {f.prev.n}")
    return IdentityReport(Theorem.T5, f.n, f.n * half, f.range_lcm, _M_HALF_ROW, _M_RANGE_FACT)


def _termwise_rhs(n: int) -> list[int]:
    """n*C(n-1,t-1) for t = 1..n.

    For t <= ceil(n/2), by C(n-1,t) = C(n-1,t-1)*(n-t)/t with each
    division checked; the rest mirrored by C(n-1,t-1) = C(n-1,n-t).
    """
    half = (n + 1) // 2
    terms = []
    c = 1  # C(n-1,0)
    for t in range(1, half + 1):
        terms.append(n * c)
        c, r = divmod(c * (n - t), t)
        if r:
            raise InternalConsistencyError(
                f"C({n - 1},{t - 1})*{n - t} is not divisible by {t}; C({n - 1},{t}) is an integer"
            )
    return terms + terms[: n - half][::-1]


def _termwise_report(f: _Facts) -> IdentityReport:
    """TERMWISE at n: the totals of both sides once every term agrees, else the first pair that does not.

    Left side read off the Pascal-built row (the weighted terms it
    caches for T1's fold), right side from the multiplicative
    recurrence; all n terms are compared pairwise. Two tuples equal term
    by term have equal sums, so the left side is summed once and its
    total reported on both sides. On failure the report carries the
    first mismatching pair instead of the (then meaningless) totals.
    """
    n = f.n
    lhs = f.row.weighted_terms
    rhs = tuple(_termwise_rhs(n))
    if lhs != rhs:
        t = next(t for t in range(1, n + 1) if lhs[t - 1] != rhs[t - 1])
        at = f"at first failing t={t}"
        return IdentityReport(Theorem.TERMWISE, n, lhs[t - 1], rhs[t - 1], f"t*C(n,t) {at}", f"n*C(n-1,t-1) {at}")
    total = sum(lhs)
    return IdentityReport(Theorem.TERMWISE, n, total, total, _M_TERM_LHS, _M_TERM_RHS)


def _chain_report(f: _Facts) -> EquivalenceChainReport:
    mid = f.n * f.prev.lcm
    return EquivalenceChainReport(f.n, f.row.weighted_lcm, mid, mid, f.range_lcm)


class _Entry(NamedTuple):
    first: int  # smallest n the identity is stated for
    reads_row: bool  # needs row n, not just row n-1
    reach: int | None  # reads lcm(1..n + reach); None when it reads no range lcm
    build: Callable[[_Facts], IdentityReport | EquivalenceChainReport]


_REGISTRY = {
    Theorem.T1: _Entry(1, True, 0, lambda f: IdentityReport(
        Theorem.T1, f.n, f.row.weighted_lcm, f.range_lcm, _M_WEIGHTED, _M_RANGE_FACT)),
    Theorem.T2: _Entry(0, True, 1, lambda f: IdentityReport(
        Theorem.T2, f.n, f.row.lcm, row_quotient(f.next_range_lcm, f.n), _M_ROW_FOLD, _M_FARHI_QUOT)),
    Theorem.T3: _Entry(1, False, 0, lambda f: IdentityReport(
        Theorem.T3, f.n, f.n * f.prev.lcm, f.range_lcm, _M_SCALED_PREV, _M_RANGE_FACT)),
    Theorem.T4: _Entry(1, True, None, lambda f: IdentityReport(
        Theorem.T4, f.n, f.row.weighted_lcm, f.n * f.prev.lcm, _M_WEIGHTED, _M_SCALED_PREV)),
    Theorem.T5: _Entry(1, False, 0, _theorem5_report),
    Theorem.TERMWISE: _Entry(1, True, None, _termwise_report),
    Theorem.CHAIN: _Entry(1, True, 0, _chain_report),
}
_NAMES = {Theorem.CHAIN: "equivalence chain"}


def verify_range(
    theorems: Theorem | str | Sequence[Theorem | str], first: int, last: int, *, caps: ResourceCaps = DEFAULT_CAPS
) -> list:
    """One report per theorem and n in [first, last], never short-circuiting.

    `theorems` is one id or a sequence of ids, and anything else is
    refused with a DomainError before any row is built; the reports come
    grouped by theorem in the order given, each group in increasing n.
    A single incremental Pascal sweep serves every theorem, so a range
    costs the same row work as building its last row once. When no selected
    theorem reads row n, rows are built only through last - 1.

    lcm(1..n), and lcm(1..n+1) for T2, are carried across the sweep from
    one sieve through last (last + 1 with T2), checked against the sieve
    cap once; a selection of only T4 and TERMWISE sieves nothing.
    """
    single = isinstance(theorems, (Theorem, str)) or not isinstance(theorems, Iterable)
    theorems = [Theorem(t) for t in ([theorems] if single else theorems)]
    entries = [_REGISTRY[t] for t in theorems]
    if not entries:
        raise DomainError("no theorem selected")
    require_int(first, None, "verify_range requires an int from, got {!r}")
    if first > require_int(last, None, "verify_range requires an int to, got {!r}"):
        raise DomainError(f"empty range: from {first} > to {last}")
    for theorem, entry in zip(theorems, entries):
        if first < entry.first:
            name = _NAMES.get(theorem, theorem.value)
            raise DomainError(f"{name} requires n >= {entry.first}, got from={first}")

    # (row n-1, row n) at each n from 0; rows stop at last - 1 when no
    # selected theorem reads row n, and None fills in past them.
    reads_row = any(e.reads_row for e in entries)
    rows = pairwise(chain([None], iter_binomial_rows(last if reads_row else last - 1, caps=caps), repeat(None)))
    # (lcm(1..n), lcm(1..n+1)) at each n from 0, from one sieve through
    # last + reach; the second is None past it. zip pulls the first row
    # pair before the first lcm pair, so the row cap is checked before
    # the sieve cap.
    reach = max((e.reach for e in entries if e.reach is not None), default=None)
    if reach is None:
        lcms = repeat((None, None))
    else:
        lcms = pairwise(chain(iter_range_lcms(last + reach, caps=caps), [None]))
    groups: list[list] = [[] for _ in entries]
    for n, (prev, row), (range_lcm, next_range_lcm) in zip(range(last + 1), rows, lcms):
        if n >= first:
            facts = _Facts(n, prev, row, range_lcm, next_range_lcm)
            for group, entry in zip(groups, entries):
                group.append(entry.build(facts))
            if row is not None:
                # Only row n's weighted terms are ever read, and only at n:
                # release them, so the sweep holds no row's terms past its step.
                vars(row).pop("weighted_terms", None)
    return [report for group in groups for report in group]


def chain_range(first: int, last: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> list[EquivalenceChainReport]:
    """equivalence_chain over [first, last] with one shared row sweep."""
    return verify_range(Theorem.CHAIN, first, last, caps=caps)


# --- single-n verification ------------------------------------------------


def verify_nair(n: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> IdentityReport:
    """T1 at n: weighted-row fold against the range factorization."""
    require_int(n, 1, "verify_nair requires an int n >= 1, got {!r}")
    return verify_range(Theorem.T1, n, n, caps=caps)[0]


def equivalence_chain(n: int, *, caps: ResourceCaps = DEFAULT_CAPS) -> EquivalenceChainReport:
    """All four chained quantities at n, with their pairwise equality."""
    require_int(n, 1, "equivalence_chain requires an int n >= 1, got {!r}")
    return verify_range(Theorem.CHAIN, n, n, caps=caps)[0]


def termwise_identity(n: int, t: int) -> bool:
    """Exact check of t*C(n,t) == n*C(n-1,t-1) for 1 <= t <= n."""
    require_int(n, None, "termwise identity requires an int n, got {!r}")
    if not 1 <= require_int(t, None, "termwise identity requires an int t, got {!r}") <= n:
        raise DomainError(f"termwise identity requires 1 <= t <= n, got n={n}, t={t}")
    return t * math.comb(n, t) == n * math.comb(n - 1, t - 1)
