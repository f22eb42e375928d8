"""Mutation gate: every mutant in MUTANTS must fail the tests named with it.

    python tests/mutants.py

Each row names a file under src/binomlcm, an exact piece of its text, the
text that replaces it, and the pytest ids that must catch the change. For
each row the runner copies src/ into a temporary directory, applies the
mutant there, and runs only the row's tests in a child pytest with
PYTHONPATH on the copy; the child reports which binomlcm it imported, and
a run that did not import the copy is an error. Before any mutant, the
same tests run once on an unmutated copy and must pass, so a mutant is
killed by its change and not by a test that fails anyway.

A mutant is killed when its tests fail (pytest exit code 1). It survives
when they pass. Anything else is an error: old text not found exactly
once, an unknown test id, a collection error, a timeout, or an import
from outside the copy. The exit code is 0 only when every mutant is
killed. This file is not a test module, so the test suite does not
collect it; it needs only the standard library and pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
CHILD_TIMEOUT_S = 120


class Mutant(NamedTuple):
    name: str
    file: str  # path under src/binomlcm
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repo root


MUTANTS = [
    Mutant(
        "trim-floors-hi", "digits.py",
        "return lo >> cut, -(-hi >> cut), k + cut",
        "return lo >> cut, hi >> cut, k + cut",
        ("tests/test_digits.py::test_powers_of_ten_plus_minus_one",
         "tests/test_digits.py::test_power_of_ten_bracket_holds_the_power"),
    ),
    Mutant(
        "emit-drops-last-partial-batch", "cli.py",
        "while batch := list(islice(records, _BATCH)):",
        "while len(batch := list(islice(records, _BATCH))) == _BATCH:",
        ("tests/test_cli.py::TestBatchedWrites::test_one_write_per_batch_and_the_same_bytes",),
    ),
    Mutant(
        "json-break-one-space-short", "cli.py",
        '_JSON_BREAK = "\\n  },\\n  {\\n    "',
        '_JSON_BREAK = "\\n  },\\n  {\\n   "',
        ("tests/test_cli.py::TestJsonWriter::test_around_the_write_batch",),
    ),
    Mutant(
        "csv-buffer-not-reset", "cli.py",
        "            buffer.truncate()\n",
        "",
        ("tests/test_cli.py::TestBatchedWrites::test_one_write_per_batch_and_the_same_bytes",),
    ),
    Mutant(
        "bench-imported-at-cli-top", "cli.py",
        "from itertools import islice\n",
        "from itertools import islice\n\nfrom . import bench  # noqa: F401\n",
        ("tests/test_import_path.py::test_bench_loads_only_when_its_names_are_used",),
    ),
    Mutant(
        "max-borrows-low-digit-bound", "valuation.py",
        "(both if d <= p - 2 else f0)",
        "(both if d <= p - 1 else f0)",
        ("tests/test_valuation.py::TestMaxBinomialValuation::test_matches_enumeration_definition",),
    ),
    Mutant(
        "two-digit-rule-low-digit", "valuation.py",
        "n % p != p - 1",
        "n % p != p - 2",
        ("tests/test_valuation.py::test_two_digit_form_matches_kummer_enumeration",),
    ),
    Mutant(
        # Puts p = isqrt(n) above the split at n = p^2, where n has three digits.
        "row-split-bisect-left", "valuation.py",
        "from bisect import bisect_right\n",
        "from bisect import bisect_left as bisect_right\n",
        ("tests/test_engine.py::TestValuationRoute::test_isqrt_boundary_full_sieve",),
    ),
    Mutant(
        "psi-table-bits-before-gain", "bounds.py",
        "                running *= gained\n                gained = 1\n                bits = running.bit_length()\n",
        "                bits = running.bit_length()\n                running *= gained\n                gained = 1\n",
        ("tests/test_bounds.py::TestPsiTable::test_matches_per_n_check_bounds",),
    ),
    Mutant(
        "lcm-fold-ignores-acc", "engine.py",
        "    for v in values:\n        if r := acc % v:",
        "    acc = 1\n    for v in values:\n        if r := acc % v:",
        ("tests/test_engine.py::TestFolds::test_rows_0_to_400",),
    ),
    Mutant(
        "full-fold-from-one", "engine.py",
        "return _fold_rest(row.entries, row.n // 2 + 1, row.half_lcm)",
        "return _fold_rest(row.entries, row.n // 2 + 1, 1)",
        ("tests/test_engine.py::TestFolds::test_rows_0_to_400",),
    ),
    Mutant(
        "row-length-unchecked", "engine.py",
        '        if len(entries) != n + 1:\n            raise DomainError(f"row {n} needs {n + 1} entries, got {len(entries)}")\n',
        "",
        ("tests/test_engine.py::TestBinomialRow::test_entries_must_have_n_plus_one_items",),
    ),
    Mutant(
        "t3-reads-row-n", "identities.py",
        "Theorem.T3, f.n, f.n * f.prev.lcm,",
        "Theorem.T3, f.n, f.n * f.row.lcm,",
        ("tests/test_identities.py::TestTheorem3",),
    ),
    Mutant(
        "t5-reads-full-lcm-as-half", "identities.py",
        "half = f.prev.half_lcm",
        "half = f.prev.lcm",
        ("tests/test_identities.py::TestCarriedRangeLcm::test_theorem5_subcheck_catches_an_upper_half_entry",),
    ),
    Mutant(
        "identity-report-make-dropped", "identities.py",
        '    @classmethod\n    def _make(cls, iterable) -> "IdentityReport":\n'
        "        # namedtuple's _make (and so _replace) would skip __new__'s check.\n"
        "        return cls(*iterable)\n",
        "",
        ("tests/test_records.py::test_every_way_to_build_refuses_an_inconsistent_record",),
    ),
    Mutant(
        "chain-report-make-dropped", "identities.py",
        '    @classmethod\n    def _make(cls, iterable) -> "EquivalenceChainReport":\n        return cls(*iterable)\n',
        "",
        ("tests/test_records.py::test_every_way_to_build_refuses_an_inconsistent_record",),
    ),
    Mutant(
        "resource-caps-make-dropped", "caps.py",
        '    @classmethod\n    def _make(cls, iterable) -> "ResourceCaps":\n'
        "        # namedtuple's _make (and so _replace) would skip __new__'s check.\n"
        "        return cls(*iterable)\n",
        "",
        ("tests/test_records.py::test_every_way_to_build_refuses_an_inconsistent_record",),
    ),
]

# Runs pytest in the child, then reports which binomlcm the tests imported.
_CHILD = """
import sys
import pytest
code = pytest.main(sys.argv[1:])
module = sys.modules.get("binomlcm")
print("\\nbinomlcm imported from:", getattr(module, "__file__", None))
sys.exit(code)
"""
_FROM = "binomlcm imported from: "


class GateError(Exception):
    pass


def _copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _apply(src: Path, mutant: Mutant) -> None:
    path = src / "binomlcm" / mutant.file
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        raise GateError(f"old text found {found} times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def _run_tests(src: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    """pytest's exit code over tests with src first on the path, and its output."""
    args = ["-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0", *(str(ROOT / t) for t in tests)]
    env = {**os.environ, "PYTHONPATH": str(src)}
    try:
        child = subprocess.run(
            [sys.executable, "-c", _CHILD, *args],
            cwd=src.parent,  # the hypothesis database lands in the temporary copy
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise GateError(f"tests did not finish in {CHILD_TIMEOUT_S} s") from None
    out = child.stdout + child.stderr
    imported = [line[len(_FROM):] for line in child.stdout.splitlines() if line.startswith(_FROM)]
    if not imported or imported[-1] == "None":
        raise GateError(f"the tests did not import binomlcm\n{out}")
    if not Path(imported[-1]).resolve().is_relative_to(src.resolve()):
        raise GateError(f"binomlcm came from {imported[-1]}, not from the copy under {src}\n{out}")
    return child.returncode, out


def _outcome(mutant: Mutant | None, tests: tuple[str, ...]) -> tuple[str, str]:
    with tempfile.TemporaryDirectory(prefix="binomlcm-mutant-") as tmp:
        src = _copy_src(Path(tmp))
        if mutant is not None:
            _apply(src, mutant)
        code, out = _run_tests(src, tests)
    if mutant is None:
        return ("ok", "") if code == 0 else ("error", f"the unmutated code fails its tests\n{out}")
    if code == 1:
        return "killed", ""
    if code == 0:
        return "SURVIVED", out
    raise GateError(f"pytest exit code {code}\n{out}")


def main() -> int:
    all_tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    bad = 0
    for mutant in [None, *MUTANTS]:
        name = "(unmutated)" if mutant is None else mutant.name
        start = time.perf_counter()
        try:
            status, detail = _outcome(mutant, all_tests if mutant is None else mutant.tests)
        except GateError as e:
            status, detail = "error", str(e)
        print(f"{status:<9} {name}  {time.perf_counter() - start:.1f} s", flush=True)
        if status not in ("ok", "killed"):
            bad += 1
            print(detail, flush=True)
            if mutant is None:
                return 1
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
