"""Mutation gate: every mutant in MUTANTS must fail the tests named with it.

    python tests/mutants.py

Each row names a file under src/binomlcm, an exact piece of its text, the
text that replaces it, and the pytest ids that must catch the change. For
each row the runner copies src/ into a temporary directory, applies the
mutant there, and runs only the row's tests in a child pytest with
PYTHONPATH on the copy; the child reports which binomlcm it imported, and
a run that did not import the copy is an error. The same tests also run
once, in one child, on an unmutated copy and must pass, or no mutant
counts, so a mutant is killed by its change and not by a test that fails
anyway. Every child runs in one of WORKERS threads, each waiting on its
own child pytest in its own copy: the unmutated pass goes first and the
rows follow as threads come free; the unmutated result prints first and
the rows' results in table order.

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
        # One step up from the lower count always reaches the count.
        "bracket-step-not-counted", "digits.py",
        "        return digits + 1\n",
        "        return digits\n",
        ("tests/test_digits.py::test_powers_of_ten_plus_minus_one",),
    ),
    Mutant(
        "log10-2-lower-bound-above-log10-2", "digits.py",
        "_LOG10_2_NUM = 30102999566398119521",
        "_LOG10_2_NUM = 30102999566398119522",
        ("tests/test_digits.py::test_log10_2_lies_between_its_two_rational_bounds",),
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
        "json-join-one-space-short", "cli.py",
        '"[\\n  ", ",\\n  ", ',
        '"[\\n  ", ",\\n ", ',
        ("tests/test_cli.py::TestJsonWriter::test_around_the_write_batch",),
    ),
    Mutant(
        "json-str-quote-unchecked", "digits.py",
        "'\"' not in s and ",
        "",
        ("tests/test_cli.py::TestJsonWriter::test_json_str_examples[quote]",
         "tests/test_cli.py::TestJsonWriter::test_json_str_is_json_dumps"),
    ),
    Mutant(
        "json-str-backslash-unchecked", "digits.py",
        ' and "\\\\" not in s',
        "",
        ("tests/test_cli.py::TestJsonWriter::test_json_str_examples[backslash]",
         "tests/test_cli.py::TestJsonWriter::test_json_str_is_json_dumps"),
    ),
    Mutant(
        "json-float-non-finite-by-repr", "digits.py",
        'return "NaN" if math.isnan(x) else "Infinity" if x > 0 else "-Infinity"',
        "return repr(x)",
        ("tests/test_cli.py::TestJsonWriter::test_json_float_examples",
         "tests/test_cli.py::TestJsonWriter::test_json_float_is_json_dumps"),
    ),
    Mutant(
        "pair-writer-drops-last-partial-batch", "cli.py",
        "            while batch:\n",
        "            while len(batch) == _PAIR_BATCH:\n",
        ("tests/test_cli.py::TestValueJson::test_matches_json_dumps_indent_2[range-40000-False]",),
    ),
    Mutant(
        "empty-factorization-on-two-lines", "cli.py",
        "'  \"factorization\": [],\\n'",
        "'  \"factorization\": [\\n  ],\\n'",
        ("tests/test_cli.py::TestValueJson::test_matches_json_dumps_indent_2[range-1-False]",),
    ),
    Mutant(
        # Python 3.10 to 3.12's csv.writer: a CR in a cell left bare, and the row read back split.
        "csv-cr-not-quoted", "digits.py",
        ' and "\\r" not in text',
        "",
        ("tests/test_cli.py::TestCsvLine::test_pinned_bytes[cr]",
         "tests/test_cli.py::TestCsvLine::test_a_cr_in_a_report_reads_back_as_one_row"),
    ),
    Mutant(
        "csv-inner-quotes-not-doubled", "digits.py",
        """'"' + c.replace('"', '""') + '"'""",
        """'"' + c + '"'""",
        ("tests/test_cli.py::TestCsvLine::test_pinned_bytes[quotes-doubled]",
         "tests/test_cli.py::TestCsvLine::test_reads_back_as_its_cells"),
    ),
    Mutant(
        # A row of one empty cell would read back as a blank line, a row of no cells.
        "csv-one-empty-cell-unquoted", "digits.py",
        """(line if line or not cells else '""')""",
        "line",
        ("tests/test_cli.py::TestCsvLine::test_pinned_bytes[one-empty-cell]",
         "tests/test_cli.py::TestCsvLine::test_reads_back_as_its_cells"),
    ),
    Mutant(
        "bench-imported-at-cli-top", "cli.py",
        "from itertools import islice\n",
        "from itertools import islice\n\nfrom . import bench  # noqa: F401\n",
        ("tests/test_import_path.py::test_bench_loads_only_when_its_names_are_used",),
    ),
    Mutant(
        "json-imported-at-cli-top", "cli.py",
        "import argparse\nimport os\n",
        "import argparse\nimport json  # noqa: F401\nimport os\n",
        ("tests/test_import_path.py::test_no_output_format_loads_json_or_csv",),
    ),
    Mutant(
        "bounds-cli-holds-the-list", "cli.py",
        "    return _emit(args, iter_psi_table(",
        "    from .bounds import psi_table\n\n    return _emit(args, psi_table(",
        ("tests/test_bounds.py::TestIterPsiTable::test_bounds_holds_no_record_list",
         "tests/test_cli.py::TestUsageAndCaps::test_pipe_safe_when_downstream_closes_early[plain-1000000]"),
    ),
    Mutant(
        "log2-3-bound-above-log2-3", "bounds.py",
        "_LOG2_3_NUM = 15849625007211561814",
        "_LOG2_3_NUM = 15849625007211561815",
        ("tests/test_bounds.py::TestCheckBounds::test_log2_3_bound_is_below_log2_3",),
    ),
    Mutant(
        # A generator function runs none of its body, the checks included, until the first next().
        "psi-table-checks-lazy", "bounds.py",
        "    return _psi_records(",
        "    yield from _psi_records(",
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
        # Trial division skips divisors 5, 11, 17, ..., and accepts 25 and 49.
        "trial-division-steps-by-three", "valuation.py",
        "        f += 2\n",
        "        f += 3\n",
        ("tests/test_valuation.py::TestPrime::test_agrees_with_trial_division_below_10_4",),
    ),
    Mutant(
        "prime-limit-excludes-itself", "valuation.py",
        "if v > PRIMALITY_CHECK_LIMIT:",
        "if v >= PRIMALITY_CHECK_LIMIT:",
        ("tests/test_valuation.py::TestPrime::test_the_check_limit_itself_is_checked",),
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
        ("tests/test_engine.py::TestFactorizationAgainstDict::test_one_value_stored_whole_or_as_a_prefix",
         "tests/test_engine.py::TestLcmRange::test_six",
         "tests/test_engine.py::TestFactorizationAgainstDict::test_a_stored_prefix_and_its_tail_of_ones_are_one_value"),
    ),
    Mutant(
        # One int object per prime: lcm-range 10000000 --digits-only still
        # prints 4342311, and its peak goes from about 24 MB to about 47 MB.
        "sieve-primes-in-a-list", "engine.py",
        'primes = array("I", [2])',
        "primes = [2]",
        ("tests/test_cli.py::TestChildProcess::test_peak_rss[primes-packed]",),
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
        ("tests/test_engine.py::TestFactorizationAgainstDict::test_one_value_stored_whole_or_as_a_prefix",
         "tests/test_engine.py::TestFactorizationAgainstDict::test_both_builds_agree_with_the_dict"),
    ),
    Mutant(
        # Two builds of one value may store exponent tuples of different lengths.
        "factorization-eq-stored-exponents", "engine.py",
        "return self._primes == other._primes and all(map(eq, self.items(), other.items()))",
        "return self._primes == other._primes and self._exps == other._exps",
        ("tests/test_engine.py::TestFactorizationAgainstDict::test_one_value_stored_whole_or_as_a_prefix",
         "tests/test_engine.py::TestFactorizationAgainstDict::test_a_stored_prefix_and_its_tail_of_ones_are_one_value"),
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
        # Counts the digits of the lcm at the last sample, not of the one the gained factors make.
        "psi-table-digits-before-gain", "bounds.py",
        "                running *= gained\n                gained = 1\n                digits = decimal_digits(running)\n",
        "                digits = decimal_digits(running)\n                running *= gained\n                gained = 1\n",
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
        '        if len(entries) != require_int(n, 0, "BinomialRow requires an int n >= 0, got {!r}") + 1:\n'
        '            raise DomainError(f"row {n} needs {n + 1} entries, got {len(entries)}")\n',
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
        ("tests/test_records.py::test_every_way_to_build_a_report_recomputes_its_verdict[identity-rhs]",
         "tests/test_cli.py::TestVerify::test_failing_report_exits_one",
         "tests/test_records.py::test_identity_verdict_is_read_off_the_sides"),
    ),
    Mutant(
        "chain-all-equal-ignores-range", "identities.py",
        "return self.q_nair == self.q_thm4_rhs == self.q_thm3_lhs == self.q_range",
        "return self.q_nair == self.q_thm4_rhs == self.q_thm3_lhs",
        ("tests/test_records.py::test_every_way_to_build_a_report_recomputes_its_verdict[chain-range]",
         "tests/test_records.py::test_chain_verdict_is_read_off_all_four_quantities"),
    ),
    Mutant(
        # str() spells a flag as Python does, not as CSV and JSON do.
        "identity-csv-flag-by-str", "identities.py",
        "FLAGS[self.holds], self.lhs_method",
        "str(self.holds), self.lhs_method",
        ("tests/test_records.py::test_every_way_to_build_a_report_recomputes_its_verdict[identity-rhs]",
         "tests/test_records.py::test_identity_verdict_is_read_off_the_sides",
         "tests/test_cli.py::TestRecordProtocol::test_each_csv_cell_is_its_json_value[identity]"),
    ),
    Mutant(
        "chain-csv-flag-by-str", "identities.py",
        "decimal_str(self.q_range), FLAGS[self.all_equal],",
        "decimal_str(self.q_range), str(self.all_equal),",
        ("tests/test_records.py::test_every_way_to_build_a_report_recomputes_its_verdict[chain-range]",
         "tests/test_records.py::test_chain_verdict_is_read_off_all_four_quantities",
         "tests/test_cli.py::TestRecordProtocol::test_each_csv_cell_is_its_json_value[chain]"),
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
        # The sieve cap is the valuation route's only cap, checked by the
        # sieve, and admits n itself.
        "valuation-sieve-cap-one-short", "engine.py",
        'check_cap(limit, caps.sieve_limit, "sieve limit")',
        'check_cap(limit + 1, caps.sieve_limit, "sieve limit")',
        ("tests/test_engine.py::TestRowLcmRoutes::test_valuation_cap",),
    ),
    Mutant(
        # The sieve is the one check of the sieve cap: no route restates it.
        "sieve-cap-check-deleted", "engine.py",
        '    check_cap(limit, caps.sieve_limit, "sieve limit")\n',
        "",
        ("tests/test_engine.py::TestSieve::test_every_route_that_sieves_is_refused_by_the_sieve[30-sieve_primes]",
         "tests/test_engine.py::TestSieve::test_every_route_that_sieves_is_refused_by_the_sieve[30-iter_psi_table]",
         "tests/test_engine.py::TestSieve::test_every_route_that_sieves_is_refused_by_the_sieve[30-verify_range-T2]"),
    ),
    Mutant(
        "require-int-admits-floats", "errors.py",
        "if isinstance(value, int) and not isinstance(value, bool) and",
        "if not isinstance(value, bool) and",
        ("tests/test_arguments.py::test_a_value_that_is_not_an_int_is_a_domain_error",),
    ),
    # Each int(...) below admits 2.0 as 2 and True as 1 past the one check.
    Mutant(
        "prime-check-sees-int", "valuation.py",
        'require_int(value, None, "a prime',
        'require_int(int(value), None, "a prime',
        ("tests/test_arguments.py::test_a_value_that_is_not_an_int_is_a_domain_error[legendre-float-p]",
         "tests/test_arguments.py::test_a_value_that_is_not_an_int_is_a_domain_error[prime-bool]"),
    ),
    Mutant(
        "caps-check-sees-int", "caps.py",
        "require_int(value, 0,",
        "require_int(int(value), 0,",
        ("tests/test_arguments.py::test_a_value_that_is_not_an_int_is_a_domain_error[caps-float]",),
    ),
    Mutant(
        "row-check-sees-int", "engine.py",
        'require_int(n, 0, "BinomialRow',
        'require_int(int(n), 0, "BinomialRow',
        ("tests/test_arguments.py::test_a_value_that_is_not_an_int_is_a_domain_error[row-float-n]",
         "tests/test_arguments.py::test_a_value_that_is_not_an_int_is_a_domain_error[row-bool-n]"),
    ),
    Mutant(
        "bench-n-check-sees-int", "bench.py",
        "require_int(n, smallest,",
        "require_int(int(n), smallest,",
        # Each route refuses 5.0 itself, but only once n = 3000 is attested.
        ("tests/test_bench.py::test_a_bad_n_or_reps_is_refused_before_any_route_is_called[float-n]",),
    ),
    Mutant(
        "bench-reps-check-sees-int", "bench.py",
        "require_int(reps, 3,",
        "require_int(int(reps), 3,",
        ("tests/test_bench.py::test_a_bad_n_or_reps_is_refused_before_any_route_is_called[float-reps]",),
    ),
    Mutant(
        "bench-reps-default-6", "cli.py",
        'p.add_argument("--reps", type=int, default=5)',
        'p.add_argument("--reps", type=int, default=6)',
        ("tests/test_cli.py::TestBench::test_reps_default_to_5",),
    ),
    Mutant(
        "bench-row-from-1", "bench.py",
        "return _bench_task(Task.ROW_LCM, ROW_ROUTES, caps, methods, ns, reps, 0)",
        "return _bench_task(Task.ROW_LCM, ROW_ROUTES, caps, methods, ns, reps, 1)",
        ("tests/test_cli.py::TestBench::test_row_0_is_benched",),
    ),
    Mutant(
        # The checks use up the n, and the attestation pass finds none left.
        "bench-ns-checked-not-listed", "bench.py",
        "    ns = [require_int(n, smallest,",
        "    [require_int(n, smallest,",
        ("tests/test_bench.py::test_an_iterator_of_n_benches_as_its_list_does[range]",),
    ),
    Mutant(
        "bench-csv-median-p90-swapped", "bench.py",
        "str(self.median_ns), str(self.p90_ns)",
        "str(self.p90_ns), str(self.median_ns)",
        ("tests/test_bench.py::TestRecordOutput::test_every_csv_cell_of_a_timed_record",
         "tests/test_cli.py::TestRecordProtocol::test_each_csv_cell_is_its_json_value[bench]"),
    ),
    Mutant(
        "digits-check-sees-int", "digits.py",
        'require_int(x, None, "decimal_digits',
        'require_int(int(x), None, "decimal_digits',
        ("tests/test_arguments.py::test_a_value_that_is_not_an_int_is_a_domain_error[digits-float]",
         "tests/test_arguments.py::test_a_value_that_is_not_an_int_is_a_domain_error[digits-bool]"),
    ),
    Mutant(
        "decimal-str-check-sees-int", "digits.py",
        'require_int(x, None, "decimal_str',
        'require_int(int(x), None, "decimal_str',
        ("tests/test_arguments.py::test_a_value_that_is_not_an_int_is_a_domain_error[decimal-str-float]",
         "tests/test_arguments.py::test_a_value_that_is_not_an_int_is_a_domain_error[decimal-str-bool]"),
    ),
    Mutant(
        # An unknown theorem id gets the enum's own kind of error, a bare ValueError.
        "theorem-id-bare-value-error", "identities.py",
        'raise DomainError(f"a theorem id',
        'raise ValueError(f"a theorem id',
        ("tests/test_arguments.py::test_a_value_that_is_not_an_int_is_a_domain_error[verify-unknown-id]",),
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
        # One worker runs the unmutated pass while the others take rows, and
        # each takes the next row when it is free, so no worker waits.
        unmutated = pool.submit(_timed, None, all_tests)
        outcomes = pool.map(lambda m: _timed(m, m.tests), MUTANTS)
        if not _report("(unmutated)", *unmutated.result(), "ok"):
            pool.shutdown(cancel_futures=True)
            return 1
        killed = sum(_report(m.name, *outcome, "killed") for m, outcome in zip(MUTANTS, outcomes))
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
