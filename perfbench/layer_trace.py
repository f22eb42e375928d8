"""Outside-in tracing of binomlcm's layers, with no change to its source.

A Tracer records one span (name, start, end, parent) per call of each
wrapped entry point, plus counters taken from the calls' arguments and
results. `install` swaps the wrapper in for the original function object
in every ``binomlcm.*`` namespace that binds it (modules import names with
``from .engine import ...``, so patching the defining module alone would
miss most calls) and returns an undo list for `uninstall`.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Iterator, NamedTuple

Hook = Callable[["Tracer", tuple, object], None]


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


class Tracer:
    """Spans kept in memory; `counters` are summed and `sets` collect the
    distinct values that ratios such as distinct rows / rows need."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.sets: dict[str, set] = defaultdict(set)
        self._stack: list[tuple[int, str]] = []

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append((idx, name))
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent)

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if hook:
                hook(self, args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        """Time each next() of the generator fn returns as one span."""

        def traced(*args, **kwargs) -> Iterator:
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(name, next, (it,), {})
                except StopIteration:
                    return
                if hook:
                    hook(self, args, item)
                yield item

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s."""
        out: dict[str, dict[str, float]] = {}
        for span, self_s in zip(self.spans, self_times(self.spans)):
            agg = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += span.end - span.start
            agg["self_s"] += self_s
        return out


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(i, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


Undo = list[tuple[object, str, object]]


def _modules(package: str) -> list[tuple[str, object]]:
    return [
        (name, module)
        for name, module in list(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


def rebind(original: object, replacement: object, package: str) -> Undo:
    """Bind `replacement` wherever `original` is bound in a `package` module."""
    undo: Undo = []
    for _, module in _modules(package):
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def uninstall(undo: Undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def bindings(package: str) -> dict[tuple[str, str], int]:
    """id() of every name bound in `package` modules and their classes."""
    out = {}
    for mod_name, module in _modules(package):
        for attr, value in vars(module).items():
            out[(mod_name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod_name:
                for cls_attr, cls_value in vars(value).items():
                    out[(f"{mod_name}.{attr}", cls_attr)] = id(cls_value)
    return out


# --- the binomlcm layer entry points ---------------------------------------


def _count_chars(tr: Tracer, args: tuple, result: str) -> None:
    tr.counters["digits.chars"] += len(result)
    if tr.parent_name() == "digits.decimal_digits":
        # decimal_digits renders only to take len(): counted, never shown.
        tr.counters["digits.count_only_chars"] += len(result)


def _count_primes(tr: Tracer, args: tuple, result: list) -> None:
    tr.counters["engine.sieve_primes.primes"] += len(result)
    tr.sets["sieve_limits"].add(args[0])


def _max_bits(tr: Tracer, args: tuple, result: int) -> None:
    key = "engine.expand.max_bits"
    tr.counters[key] = max(tr.counters[key], result.bit_length())


def _count_row(tr: Tracer, args: tuple, row) -> None:
    tr.counters["engine.iter_binomial_rows.rows"] += 1
    tr.sets["row_ns"].add(row.n)


def _fold_terms(size: Callable[[object], int]) -> Hook:
    def hook(tr: Tracer, args: tuple, result: int) -> None:
        tr.counters["engine.fold.terms"] += size(args[0])

    return hook


def _count(key: str) -> Hook:
    def hook(tr: Tracer, args: tuple, result: list) -> None:
        tr.counters[key] += len(result)

    return hook


# (span name, module, attribute, hook). A module attribute that is a class
# method is given as "Class.method"; a generator is timed per next().
TARGETS: list[tuple[str, str, str, Hook | None]] = [
    ("digits.decimal_str", "digits", "decimal_str", _count_chars),
    ("digits.decimal_digits", "digits", "decimal_digits", None),
    ("bounds.psi_table", "bounds", "psi_table", _count("bounds.records")),
    ("bounds._smallest_prime_factors", "bounds", "_smallest_prime_factors", None),
    ("engine.sieve_primes", "engine", "sieve_primes", _count_primes),
    ("engine.lcm_range", "engine", "lcm_range", None),
    ("engine.expand", "engine", "PrimePowerFactorization.expand", _max_bits),
    ("engine.log_value", "engine", "PrimePowerFactorization.log_value", None),
    ("engine.iter_binomial_rows", "engine", "iter_binomial_rows", _count_row),
    ("engine.fold", "engine", "_fold_row_lcm", _fold_terms(lambda row: len(row.entries))),
    ("engine.fold", "engine", "_fold_weighted_lcm", _fold_terms(lambda row: row.n)),
    ("engine.fold", "engine", "_fold_half_row_lcm", _fold_terms(lambda row: row.n // 2 + 1)),
    ("engine.row_lcm_farhi", "engine", "row_lcm_farhi", None),
    ("engine.row_lcm_valuation", "engine", "row_lcm_valuation", None),
    ("valuation.max_binomial_valuation", "valuation", "max_binomial_valuation", None),
    ("identities.verify_range", "identities", "verify_range", _count("identities.reports")),
    ("identities.chain_range", "identities", "chain_range", _count("identities.reports")),
    ("cli.run", "cli", "run", None),
]
GENERATORS = {"engine.iter_binomial_rows"}


def install(tracer: Tracer, package: str = "binomlcm") -> Undo:
    """Wrap every target in `package`; pass the result to `uninstall`."""
    undo: Undo = []
    try:
        for span, mod_name, attr, hook in TARGETS:
            owner = sys.modules[f"{package}.{mod_name}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrap = tracer.wrap_generator if span in GENERATORS else tracer.wrap
            wrapped = wrap(span, original, hook)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                undo.append((owner, attr, original))
            else:
                undo.extend(rebind(original, wrapped, package))
    except BaseException:
        uninstall(undo)
        raise
    return undo
