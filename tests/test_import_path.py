"""What `import binomlcm.cli` loads, checked in a fresh interpreter.

Every CLI process pays for this import, so it must not pull in
dataclasses (which loads inspect, ast, dis and tokenize) or decimal
(loaded on first use, by decimal_str of a value over 2000 bits). It
must still load every module that perfbench/layer_trace.py wraps, since
the tracer finds them in sys.modules.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_CHILD = """
import json, sys
import binomlcm.cli
loaded = sorted(sys.modules)
from binomlcm.digits import decimal_str
x = 7**1000 * 3  # 2809 bits, 847 digits: decimal_str's Decimal route
print(json.dumps({
    "loaded": loaded,
    "rendered": decimal_str(x) == str(x) and decimal_str(-x) == str(-x),
    "decimal_after": "decimal" in sys.modules,
}))
"""


def _traced_modules() -> set[str]:
    # The module column of layer_trace.TARGETS, read without importing perfbench.
    tree = ast.parse((ROOT / "perfbench" / "layer_trace.py").read_text())
    targets = next(
        node.value for node in tree.body if isinstance(node, ast.AnnAssign) and node.target.id == "TARGETS"
    )
    return {row.elts[1].value for row in targets.elts}


def test_cli_import_loads_the_traced_modules_but_not_dataclasses_or_decimal():
    out = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    report = json.loads(out)
    loaded = set(report["loaded"])
    assert {"dataclasses", "inspect", "decimal"}.isdisjoint(loaded)
    traced = _traced_modules()
    assert traced == {"cli", "digits", "bounds", "engine", "valuation", "identities"}
    assert {f"binomlcm.{name}" for name in traced} <= loaded
    assert report["rendered"] and report["decimal_after"]
