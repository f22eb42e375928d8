import sys
import types

import pytest

import layer_trace
from layer_trace import Span, Tracer, bindings, install, rebind, self_times, uninstall


class ManualClock:
    """A clock that only moves when the test advances it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),  # grandchild of a: already inside b
        Span("d", 5.0, 7.0, 0),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a", 0.0, 10.0, -1), Span("b", 1.0, 5.0, 0), Span("c", 3.0, 6.0, 0)]
    assert self_times(spans)[0] == 5.0


def test_nested_wrapped_calls_give_parents_and_self_time():
    clock = ManualClock()
    tr = Tracer(clock)

    def leaf():
        clock.now += 2

    def middle():
        clock.now += 1
        traced_leaf()
        traced_leaf()
        clock.now += 1

    traced_leaf = tr.wrap("leaf", leaf)
    tr.wrap("middle", middle)()
    summary = tr.summary()
    assert summary["middle"] == {"calls": 1, "total_s": 6.0, "self_s": 2.0}
    assert summary["leaf"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert [s.parent for s in tr.spans] == [-1, 0, 0]


def test_span_is_closed_when_the_call_raises():
    tr = Tracer(ManualClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("boom", boom)()
    assert tr.spans == [Span("boom", 0.0, 0.0, -1)] and tr.parent_name() is None


def test_generator_spans_time_each_next_not_the_consumer():
    clock = ManualClock()
    tr = Tracer(clock)

    def gen(k):
        for i in range(k):
            clock.now += 1  # work inside the generator
            yield i

    items = []
    for item in tr.wrap_generator("gen", gen)(3):
        clock.now += 100  # work in the consumer, between next() calls
        items.append(item)
    assert items == [0, 1, 2]
    # three yields plus the next() that ends the iteration
    assert tr.summary()["gen"] == {"calls": 4, "total_s": 3.0, "self_s": 3.0}


@pytest.fixture
def fake_package():
    names = ["fakepkg", "fakepkg.core", "fakepkg.user", "otherpkg"]
    mods = {name: types.ModuleType(name) for name in names}

    def f():
        return "original"

    mods["fakepkg.core"].f = f
    mods["fakepkg.user"].g = f  # as after "from .core import f as g"
    mods["fakepkg"].f = f
    mods["otherpkg"].f = f  # outside the package: must stay untouched
    sys.modules.update(mods)
    yield mods, f
    for name in names:
        del sys.modules[name]


def test_rebind_reaches_every_module_of_the_package_and_undoes(fake_package):
    mods, f = fake_package
    before = bindings("fakepkg")

    def wrapper():
        return "wrapped"

    undo = rebind(f, wrapper, "fakepkg")
    assert len(undo) == 3
    assert mods["fakepkg.core"].f is wrapper
    assert mods["fakepkg.user"].g is wrapper
    assert mods["fakepkg"].f is wrapper
    assert mods["otherpkg"].f is f
    uninstall(undo)
    assert mods["fakepkg.core"].f is f and mods["fakepkg.user"].g is f and mods["fakepkg"].f is f
    assert bindings("fakepkg") == before


def test_install_wraps_binomlcm_everywhere_and_uninstall_restores():
    import binomlcm.cli
    import binomlcm.engine as engine
    import binomlcm.identities as identities

    original_lcm_range = engine.lcm_range
    original_expand = engine.PrimePowerFactorization.expand
    before = bindings("binomlcm")
    tr = Tracer()
    undo = install(tr)
    try:
        assert engine.lcm_range is not original_lcm_range
        assert identities.lcm_range is engine.lcm_range
        assert binomlcm.cli.lcm_range is engine.lcm_range
        assert binomlcm.lcm_range is engine.lcm_range
        assert engine.PrimePowerFactorization.expand is not original_expand
        assert engine.row_lcm_farhi(10) == 2520  # lcm(1..11) / 11
        assert binomlcm.cli.run(["lcm-range", "10"]) == 0
    finally:
        uninstall(undo)
    assert engine.lcm_range is original_lcm_range
    assert engine.PrimePowerFactorization.expand is original_expand
    assert bindings("binomlcm") == before
    names = {s.name for s in tr.spans}
    assert {"cli.run", "engine.lcm_range", "engine.sieve_primes", "engine.expand"} <= names


def test_install_times_iter_binomial_rows_per_row():
    import binomlcm.engine as engine

    tr = Tracer()
    undo = install(tr)
    try:
        rows = list(engine.iter_binomial_rows(4))
        last = engine.binomial_row(6)  # reaches the wrapper through engine's globals
    finally:
        uninstall(undo)
    assert [r.entries for r in rows] == [r.entries for r in engine.iter_binomial_rows(4)]
    assert last.entries == (1, 6, 15, 20, 15, 6, 1)
    assert tr.counters["engine.iter_binomial_rows.rows"] == 5 + 7
    assert tr.summary()["engine.iter_binomial_rows"]["calls"] == 6 + 8


def test_every_target_exists_in_binomlcm():
    import binomlcm.cli  # noqa: F401  (loads every module)

    for _, mod_name, attr, _ in layer_trace.TARGETS:
        owner = sys.modules[f"binomlcm.{mod_name}"]
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner)
