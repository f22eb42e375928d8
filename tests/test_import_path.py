"""What `import binomlcm.cli` loads, checked in a fresh interpreter.

Every CLI process pays for this import, so it must not pull in
dataclasses (which loads inspect, ast, dis and tokenize), decimal
(loaded on first use, by decimal_str of a value over 2000 bits),
binomlcm.bench (loaded by `binomlcm bench` and by the package's bench
names, on first use), or json and csv, which no output format loads:
records write their own JSON text, and digits.csv_line writes CSV. It
must still load every module that perfbench/layer_trace.py wraps, since
the tracer finds them in sys.modules.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import binomlcm

ROOT = Path(__file__).resolve().parents[1]
# The child imports the package this process imported, so a copy of the
# source put first on PYTHONPATH (as tests/mutants.py does) is the one checked.
SRC = Path(binomlcm.__file__).resolve().parents[1]

_CHILD = """
import io, sys
import binomlcm.cli
loaded = sorted(sys.modules)
# The modules each output format adds, one format after another.
formats = {}
for fmt in ("plain", "csv", "json"):
    before = set(sys.modules)
    sys.stdout, stdout = io.StringIO(), sys.stdout
    try:
        binomlcm.cli.run(["bounds", "--to", "5", "--format", fmt])
    finally:
        sys.stdout = stdout
    formats[fmt] = sorted({"json", "csv"} & (set(sys.modules) - before))
import json
from binomlcm.digits import decimal_str
x = 7**1000 * 3  # 2809 bits, 847 digits: decimal_str's Decimal route
rendered = decimal_str(x) == str(x) and decimal_str(-x) == str(-x)
import binomlcm
bench_record = binomlcm.BenchRecord.__module__
star = {}
exec("from binomlcm import *", star)
print(json.dumps({
    "loaded": loaded,
    "formats": formats,
    "rendered": rendered,
    "decimal_after": "decimal" in sys.modules,
    "bench_record": bench_record,
    "star_missing": sorted(set(binomlcm.__all__) - set(star)),
    "bench_after": "binomlcm.bench" in sys.modules,
}))
"""


def _traced_modules() -> set[str]:
    # The module column of layer_trace.TARGETS, read without importing perfbench.
    tree = ast.parse((ROOT / "perfbench" / "layer_trace.py").read_text())
    targets = next(
        node.value for node in tree.body if isinstance(node, ast.AnnAssign) and node.target.id == "TARGETS"
    )
    return {row.elts[1].value for row in targets.elts}


@pytest.fixture(scope="module")
def report() -> dict:
    out = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out)


def test_cli_import_loads_the_traced_modules_but_not_dataclasses_or_decimal(report):
    loaded = set(report["loaded"])
    assert {"dataclasses", "inspect", "decimal"}.isdisjoint(loaded)
    traced = _traced_modules()
    assert traced == {"cli", "digits", "bounds", "engine", "valuation", "identities"}
    assert {f"binomlcm.{name}" for name in traced} <= loaded
    assert report["rendered"] and report["decimal_after"]


def test_no_output_format_loads_json_or_csv(report):
    assert {"json", "csv"}.isdisjoint(report["loaded"])
    assert report["formats"] == {"plain": [], "csv": [], "json": []}


def test_bench_loads_only_when_its_names_are_used(report):
    assert "binomlcm.bench" not in report["loaded"]
    # The bench names still resolve on the package, and under a star import.
    assert report["bench_record"] == "binomlcm.bench" and report["bench_after"]
    assert report["star_missing"] == []


def _public_modules() -> dict[str, object]:
    # Every binomlcm module that states a share of the public surface.
    modules = {
        info.name: importlib.import_module(f"binomlcm.{info.name}") for info in pkgutil.iter_modules(binomlcm.__path__)
    }
    return {name: module for name, module in modules.items() if hasattr(module, "__all__")}


def test_the_package_surface_is_the_union_of_the_modules_surfaces():
    modules = _public_modules()
    assert set(modules) == {"bench", "bounds", "caps", "digits", "engine", "errors", "identities", "valuation"}
    shares = [name for module in modules.values() for name in module.__all__]
    assert len(shares) == len(set(shares)), "a public name is stated by two modules"
    assert binomlcm.__all__ == sorted(shares)


def test_each_package_name_is_its_modules_object():
    for mod_name, module in _public_modules().items():
        for name in module.__all__:
            assert getattr(binomlcm, name) is getattr(module, name), f"{mod_name}.{name}"


def test_the_lazy_bench_names_are_bench_all():
    from binomlcm import bench

    assert set(bench.__all__) == binomlcm._BENCH_NAMES
