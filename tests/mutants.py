"""Mutation gate: every mutant in MUTANTS must fail the tests named with it.

    python tests/mutants.py

Each row names a file under src/binomlcm, an exact piece of its text, the
text that replaces it, and the pytest ids that must catch the change. For
each row the runner copies src/ into a temporary directory, applies the
mutant there, and runs only the row's tests in a child pytest with
PYTHONPATH on the copy; the child reports which binomlcm it imported, and
a run that did not import the copy is an error. Before any mutant, the
same tests run once on an unmutated copy and must pass, so a mutant is
killed by its change and not by a test that fails anyway. Every child
runs in one of WORKERS threads, each waiting on its own child pytest in
its own copy: the unmutated tests are dealt out among them, and then the
rows, whose results print in table order.

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
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
CHILD_TIMEOUT_S = 120
# Child pytests at once; each is one process, so no more than the CPUs CI has (2).
WORKERS = 2


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
        # Decides from the bit length a range [2**(b-1), 2**b) that holds a power of ten.
        "digits-bit-range-upper-one-short", "digits.py",
        "if bits * _LOG10_2_HI // _LOG10_2_DEN < digits:",
        "if (bits - 1) * _LOG10_2_HI // _LOG10_2_DEN < digits:",
        ("tests/test_digits.py::test_bit_length_decides_only_where_no_power_of_ten_is_in_range",
         "tests/test_digits.py::test_powers_of_ten_plus_minus_one"),
    ),
    Mutant(
        "digits-exact-fallback-strict", "digits.py",
        "return digits + (x >= 10**digits)",
        "return digits + (x > 10**digits)",
        ("tests/test_digits.py::test_powers_of_ten_plus_minus_one",
         "tests/test_digits.py::test_narrow_brackets_fall_back_and_stay_exact"),
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
        "json-imported-at-cli-top", "cli.py",
        "import argparse\nimport io\n",
        "import argparse\nimport io\nimport json  # noqa: F401\n",
        ("tests/test_import_path.py::test_json_and_csv_load_only_with_their_output_format",),
    ),
    Mutant(
        "bounds-cli-holds-the-list", "cli.py",
        "    return _emit(args, iter_psi_table(",
        "    from .bounds import psi_table\n\n    return _emit(args, psi_table(",
        ("tests/test_bounds.py::TestIterPsiTable::test_bounds_holds_no_record_list",
         "tests/test_bounds.py::TestIterPsiTable::test_a_closed_pipe_stops_the_sweep"),
    ),
    Mutant(
        # A generator function runs none of its body, the checks included, until the first next().
        "psi-table-checks-lazy", "bounds.py",
        "    return _psi_records(max_n, step)\n",
        "    yield from _psi_records(max_n, step)\n",
        ("tests/test_bounds.py::TestIterPsiTable::test_every_check_raises_at_the_call",),
    ),
    Mutant(
        "sweep-keeps-weighted-terms", "identities.py",
        '                vars(row).pop("weighted_terms", None)\n',
        "                pass\n",
        ("tests/test_identities.py::test_each_row_builds_its_weighted_terms_once_and_the_sweep_releases_them",),
    ),
    Mutant(
        "max-borrows-low-digit-bound", "valuation.py",
        "(both if d <= p - 2 else f0)",
        "(both if d <= p - 1 else f0)",
        ("tests/test_valuation.py::TestMaxBinomialValuation::test_matches_enumeration_definition",),
    ),
    Mutant(
        # Drops the primes above isqrt(n) whose low digit is p - 2, not p - 1.
        "two-digit-rule-low-digit", "valuation.py",
        "    m = n + 1  #",
        "    m = n + 2  #",
        ("tests/test_valuation.py::test_two_digit_form_matches_kummer_enumeration",),
    ),
    Mutant(
        # Leaves the last kept prime up to isqrt(n) to the tail of ones, as p at n = p^2.
        "row-low-exponents-one-short", "valuation.py",
        "return high, tuple(exps)",
        "return high, tuple(exps[:-1])",
        ("tests/test_engine.py::TestValuationRoute::test_isqrt_boundary_full_sieve",),
    ),
    Mutant(
        # Keeps q when n + 1 = q^2, as at n = 3.
        "row-square-cofactor-kept", "valuation.py",
        "    q = isqrt(m)\n    if q * q != m:\n        q = m\n",
        "    q = m\n",
        ("tests/test_valuation.py::test_row_exponents_edge_cases[square-q2]",),
    ),
    Mutant(
        # Looks n + 1 up among the primes <= n when it is prime itself.
        "row-prime-cofactor-unguarded", "valuation.py",
        "if 1 < q <= n:",
        "if 1 < q:",
        ("tests/test_valuation.py::test_row_exponents_edge_cases[prime-n1]",),
    ),
    Mutant(
        # Leaves 2 to the tail of ones at n = 6, where its exponent is 2.
        "range-low-exponents-one-short", "engine.py",
        "map(_range_exponent, primes[:split], repeat(n))",
        "map(_range_exponent, primes[:split - 1], repeat(n))",
        ("tests/test_engine.py::TestLcmRange::test_six",),
    ),
    Mutant(
        "factorization-tail-of-one-one", "engine.py",
        "chain(self._exps, repeat(1))",
        "chain(self._exps, repeat(1, 1))",
        ("tests/test_engine.py::TestFactorizationAgainstDict::test_a_stored_prefix_and_its_tail_of_ones_are_one_value",
         "tests/test_engine.py::TestLcmRange::test_six"),
    ),
    Mutant(
        # A validated build that stores a tuple never equals a _trusted one.
        "validated-primes-in-a-tuple", "engine.py",
        'self._primes = array("I", kept)',
        "self._primes = tuple(kept)",
        ("tests/test_engine.py::TestValuationRoute::test_plain_int_keys_do_not_show",),
    ),
    Mutant(
        "factorization-eq-primes-only", "engine.py",
        "return self._primes == other._primes and all(map(eq, self.items(), other.items()))",
        "return self._primes == other._primes",
        ("tests/test_engine.py::TestFactorizationAgainstDict::test_both_builds_agree_with_the_dict",),
    ),
    Mutant(
        # Two builds of one value may store exponent tuples of different lengths.
        "factorization-eq-stored-exponents", "engine.py",
        "return self._primes == other._primes and all(map(eq, self.items(), other.items()))",
        "return self._primes == other._primes and self._exps == other._exps",
        ("tests/test_engine.py::TestFactorizationAgainstDict::test_a_stored_prefix_and_its_tail_of_ones_are_one_value",),
    ),
    Mutant(
        # lcm_sequence's elements go through the one shared check.
        "require-int-admits-bools", "errors.py",
        "and not isinstance(value, bool) and",
        "and",
        ("tests/test_engine.py::TestLcmSequence::test_rejects_what_is_not_an_int",),
    ),
    Mutant(
        # Puts p = isqrt(n) above the split at n = p^2, where n has three digits.
        "row-split-bisect-left", "valuation.py",
        "split = bisect_right(primes, isqrt(n))",
        "split = bisect_left(primes, isqrt(n))",
        ("tests/test_engine.py::TestValuationRoute::test_isqrt_boundary_full_sieve",),
    ),
    Mutant(
        "psi-table-bits-before-gain", "bounds.py",
        "                running *= gained\n                gained = 1\n                bits = running.bit_length()\n",
        "                bits = running.bit_length()\n                running *= gained\n                gained = 1\n",
        ("tests/test_bounds.py::TestPsiTable::test_matches_per_n_check_bounds",),
    ),
    Mutant(
        # Keeps the last count at the first sample of a step-997 sweep, about 430 digits short.
        "psi-table-recount-skipped", "bounds.py",
        "                digits = decimal_digits(running)\n",
        "                digits = decimal_digits(running) if n != 997 else digits\n",
        ("tests/test_bounds.py::TestPsiTable::test_matches_per_n_check_bounds[40000-997]",),
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
        "identity-holds-always-true", "identities.py",
        "        return self.lhs == self.rhs\n",
        "        return True\n",
        ("tests/test_records.py::test_identity_verdict_is_read_off_the_sides",
         "tests/test_records.py::test_every_way_to_build_a_report_recomputes_its_verdict",
         "tests/test_cli.py::TestVerify::test_failing_report_exits_one"),
    ),
    Mutant(
        "chain-all-equal-ignores-range", "identities.py",
        "return self.q_nair == self.q_thm4_rhs == self.q_thm3_lhs == self.q_range",
        "return self.q_nair == self.q_thm4_rhs == self.q_thm3_lhs",
        ("tests/test_records.py::test_chain_verdict_is_read_off_all_four_quantities",
         "tests/test_records.py::test_every_way_to_build_a_report_recomputes_its_verdict"),
    ),
    Mutant(
        "factorization-duplicates-only-above-zero", "engine.py",
        "            seen[p] = e\n",
        "            if e > 0:\n                seen[p] = e\n",
        ("tests/test_engine.py::TestPrimePowerFactorization::test_rejects_duplicates",),
    ),
    Mutant(
        "row-keeps-entries-as-given", "engine.py",
        "        entries = tuple(entries)\n",
        "",
        ("tests/test_engine.py::TestBinomialRow::test_a_list_of_entries_is_copied_into_a_tuple",),
    ),
    Mutant(
        "package-all-skips-a-module", "__init__.py",
        "for m in (bounds, caps,",
        "for m in (caps,",
        ("tests/test_import_path.py::test_the_package_surface_is_the_union_of_the_modules_surfaces",),
    ),
    Mutant(
        "resource-caps-make-dropped", "caps.py",
        '    @classmethod\n    def _make(cls, iterable) -> "ResourceCaps":\n'
        "        # namedtuple's _make (and so _replace) would skip __new__'s check.\n"
        "        return cls(*iterable)\n",
        "",
        ("tests/test_records.py::test_every_way_to_build_refuses_an_inconsistent_record",),
    ),
    Mutant(
        # The sieve cap is the valuation route's only cap, and admits n itself.
        "valuation-sieve-cap-one-short", "engine.py",
        'check_cap(n, caps.sieve_limit, "sieve limit")\n    return PrimePowerFactorization._trusted(*_row_exponents',
        'check_cap(n + 1, caps.sieve_limit, "sieve limit")\n    return PrimePowerFactorization._trusted(*_row_exponents',
        ("tests/test_engine.py::TestRowLcmRoutes::test_valuation_cap",),
    ),
    Mutant(
        "require-int-admits-floats", "errors.py",
        "if isinstance(value, int) and not isinstance(value, bool) and",
        "if not isinstance(value, bool) and",
        ("tests/test_arguments.py::test_a_value_that_is_not_an_int_is_a_domain_error",),
    ),
    Mutant(
        "csv-flags-swapped", "digits.py",
        'FLAGS = ("false", "true")',
        'FLAGS = ("true", "false")',
        ("tests/test_golden_verify.py::test_all_theorems_to_300_digest[csv]",
         "tests/test_golden_values.py::test_stdout_digest[bounds --to 5000 --format csv]",
         "tests/test_cli.py::TestBench::test_row_csv"),
    ),
    Mutant(
        "plain-verdicts-swapped", "digits.py",
        'VERDICTS = ("FAIL", "ok")',
        'VERDICTS = ("ok", "FAIL")',
        ("tests/test_golden_verify.py::test_all_theorems_to_300_digest[plain]",
         "tests/test_golden_values.py::test_stdout_digest[bounds --to 5000 --format plain]"),
    ),
    Mutant(
        # A disagreement between two routes is exit 1, not a usage error.
        "internal-consistency-exit-2", "cli.py",
        'print(f"binomlcm: internal consistency: {exc}", file=sys.stderr)\n        return 1',
        'print(f"binomlcm: internal consistency: {exc}", file=sys.stderr)\n        return 2',
        ("tests/test_cli.py::TestBench::test_routes_that_disagree_exit_1_and_print_nothing",),
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
    # The child loads only the plugin the tests use: loading every installed
    # pytest plugin took half of a one-test child's 1.2 s.
    args = ["-q", "-x", "-p", "no:cacheprovider", "-p", "_hypothesis_pytestplugin", "--hypothesis-seed=0",
            *(str(ROOT / t) for t in tests)]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
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


def _timed(mutant: Mutant | None, tests: tuple[str, ...]) -> tuple[str, str, float]:
    start = time.perf_counter()
    try:
        status, detail = _outcome(mutant, tests)
    except GateError as e:
        status, detail = "error", str(e)
    return status, detail, time.perf_counter() - start


def _report(name: str, status: str, detail: str, seconds: float, passed: str) -> bool:
    print(f"{status:<9} {name}  {seconds:.1f} s", flush=True)
    if status != passed:
        print(detail, flush=True)
    return status == passed


def main() -> int:
    all_tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with ThreadPoolExecutor(WORKERS) as pool:
        # The unmutated pass deals every row's tests out to the workers.
        shares = [all_tests[i::WORKERS] for i in range(WORKERS)]
        if not all([_report("(unmutated)", *outcome, "ok") for outcome in pool.map(partial(_timed, None), shares)]):
            return 1
        outcomes = pool.map(lambda m: _timed(m, m.tests), MUTANTS)
        killed = sum(_report(m.name, *outcome, "killed") for m, outcome in zip(MUTANTS, outcomes))
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
