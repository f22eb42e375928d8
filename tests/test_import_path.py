"""What `import binomlcm.cli` loads, checked in a fresh interpreter.

Every CLI process pays for this import, so it must not pull in
dataclasses (which loads inspect, ast, dis and tokenize), decimal
(loaded on first use, by decimal_str of a value over 2000 bits) or
binomlcm.bench (loaded by `binomlcm bench` and by the package's bench
names, on first use). It must still load every module that
perfbench/layer_trace.py wraps, since the tracer finds them in
sys.modules.
"""

import ast
import json
import os
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
import json, sys
import binomlcm.cli
loaded = sorted(sys.modules)
from binomlcm.digits import decimal_str
x = 7**1000 * 3  # 2809 bits, 847 digits: decimal_str's Decimal route
rendered = decimal_str(x) == str(x) and decimal_str(-x) == str(-x)
import binomlcm
bench_record = binomlcm.BenchRecord.__module__
star = {}
exec("from binomlcm import *", star)
print(json.dumps({
    "loaded": loaded,
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


def test_bench_loads_only_when_its_names_are_used(report):
    assert "binomlcm.bench" not in report["loaded"]
    # The bench names still resolve on the package, and under a star import.
    assert report["bench_record"] == "binomlcm.bench" and report["bench_after"]
    assert report["star_missing"] == []
