"""CLI contract: subcommands, formats, exit codes, stream discipline."""

import argparse
import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomlcm import BenchRecord, BoundsRecord, EquivalenceChainReport, IdentityReport, Task, Theorem, check_bounds
from binomlcm.bench import BENCH_CSV_HEADER
from binomlcm.bounds import BOUNDS_CSV_HEADER, psi_table
from binomlcm.cli import _emit, run
from binomlcm.identities import IDENTITY_CSV_HEADER
from helpers import brute_range_lcm


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLcmRange:
    def test_plain_value(self, capsys):
        code, out, err = invoke(capsys, "lcm-range", "10")
        assert (code, out, err) == (0, "2520\n", "")

    def test_digits_only(self, capsys):
        code, out, _ = invoke(capsys, "lcm-range", "10", "--digits-only")
        assert code == 0 and out == "4\n"

    def test_json_document(self, capsys):
        code, out, _ = invoke(capsys, "lcm-range", "6", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "n": 6,
            "factorization": [[2, 2], [3, 1], [5, 1]],
            "digits": 2,
            "value": "60",
        }

    def test_json_digits_only_drops_value(self, capsys):
        _, out, _ = invoke(capsys, "lcm-range", "6", "--format", "json", "--digits-only")
        assert "value" not in json.loads(out)

    def test_csv(self, capsys):
        _, out, _ = invoke(capsys, "lcm-range", "10", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "digits", "value"]
        assert rows[1] == ["10", "4", "2520"]

    def test_domain_error_exit_2(self, capsys):
        code, out, err = invoke(capsys, "lcm-range", "0")
        assert code == 2 and out == "" and "domain error" in err

    def test_cap_error_exit_3(self, capsys):
        code, _, err = invoke(capsys, "lcm-range", "1000", "--max-sieve", "100")
        assert code == 3 and "cap" in err

    def test_sieve_cap_edge(self, capsys):
        assert invoke(capsys, "lcm-range", "10", "--max-sieve", "10") == (0, "2520\n", "")
        code, out, err = invoke(capsys, "lcm-range", "11", "--max-sieve", "10")
        assert (code, out, err) == (3, "", "binomlcm: resource cap: sieve limit 11 exceeds the configured cap 10\n")

    def test_large_value_prints_fully(self, capsys):
        code, out, _ = invoke(capsys, "lcm-range", "20000")
        assert code == 0
        value = out.strip()
        assert len(value) == 8676  # lcm(1..20000) digit count
        assert value.isdigit()


class TestRowLcm:
    @pytest.mark.parametrize("method", ["naive", "farhi", "valuation"])
    def test_all_methods_agree(self, capsys, method):
        code, out, _ = invoke(capsys, "row-lcm", "6", "--method", method)
        assert code == 0 and out == "60\n"

    def test_default_method(self, capsys):
        code, out, _ = invoke(capsys, "row-lcm", "4")
        assert code == 0 and out == "12\n"

    def test_valuation_json_includes_factorization(self, capsys):
        _, out, _ = invoke(capsys, "row-lcm", "6", "--method", "valuation", "--format", "json")
        doc = json.loads(out)
        assert doc["method"] == "valuation"
        assert doc["factorization"] == [[2, 2], [3, 1], [5, 1]]
        assert doc["value"] == "60"

    def test_naive_cap_exit_3(self, capsys):
        code, _, err = invoke(capsys, "row-lcm", "100", "--method", "naive", "--max-row", "10")
        assert code == 3 and "cap" in err

    # The valuation cap is checked before the sieve cap.
    @pytest.mark.parametrize(
        "caps, named",
        [
            (["--max-valuation", "49"], "valuation-method row n"),
            (["--max-sieve", "49"], "sieve limit"),
            (["--max-valuation", "49", "--max-sieve", "49"], "valuation-method row n"),
            (["--max-sieve", "49", "--max-valuation", "49"], "valuation-method row n"),
        ],
    )
    def test_valuation_caps_exit_3(self, capsys, caps, named):
        code, out, err = invoke(capsys, "row-lcm", "50", "--method", "valuation", *caps)
        assert (code, out, err) == (3, "", f"binomlcm: resource cap: {named} 50 exceeds the configured cap 49\n")


class TestVerify:
    def test_plain_run(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--theorem", "4", "--from", "1", "--to", "5")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "T4 n=1 ok lhs=1 rhs=1"
        assert len(lines) == 5

    def test_domain_violation_exit_2(self, capsys):
        code, out, err = invoke(capsys, "verify", "--theorem", "1", "--from", "0", "--to", "5")
        assert code == 2 and out == "" and "n >= 1" in err

    def test_json_all_reports(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--theorem", "all", "--from", "1", "--to", "12", "--format", "json"
        )
        assert code == 0
        docs = json.loads(out)
        # 5 theorems + termwise + chain, 12 each, fixed order
        assert len(docs) == 7 * 12
        assert [d["theorem"] for d in docs[:24:12]] == ["T1", "T2"]
        assert docs[-1]["theorem"] == "CHAIN"
        assert all(d.get("holds", d.get("all_equal")) for d in docs)

    def test_csv_has_uniform_columns(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--theorem", "all", "--from", "1", "--to", "3", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["theorem", "n", "lhs", "rhs", "holds", "lhs_method", "rhs_method"]
        assert all(len(row) == 7 for row in rows)
        assert code == 0

    def test_chain_plain(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--theorem", "chain", "--from", "9", "--to", "9")
        assert code == 0
        assert out == "CHAIN n=9 ok nair=2520 thm4_rhs=2520 thm3_lhs=2520 range=2520\n"

    def test_termwise(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--theorem", "termwise", "--from", "1", "--to", "20")
        assert code == 0
        assert len(out.strip().splitlines()) == 20

    def test_failing_report_exits_one(self, capsys, monkeypatch):
        # No real identity fails, so fake one to pin the exit-code contract.
        import binomlcm.cli as cli_mod
        from binomlcm import IdentityReport, Theorem

        fake = [IdentityReport.build(Theorem.T1, 5, 2, 3, "a", "b")]
        monkeypatch.setattr(cli_mod, "verify_range", lambda *a, **k: fake)
        code, out, err = invoke(capsys, "verify", "--theorem", "1", "--from", "5", "--to", "5")
        assert code == 1
        assert "FAIL" in out and "lhs=2" in out

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = invoke(capsys, "verify", "--theorem", "all", "--from", "1", "--to", "8", "--format", "json")
        _, second, _ = invoke(capsys, "verify", "--theorem", "all", "--from", "1", "--to", "8", "--format", "json")
        assert first == second


class TestBounds:
    def test_csv_schema(self, capsys):
        code, out, _ = invoke(capsys, "bounds", "--to", "10", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "lcm_digits", "holds_2nm1", "holds_2n", "holds_3n", "psi_over_n"]
        assert len(rows) == 11
        assert code == 0  # informational 2^n misses below 9 do not fail the run

    def test_step(self, capsys):
        code, out, _ = invoke(capsys, "bounds", "--to", "100", "--step", "25", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[0] for r in rows[1:]] == ["25", "50", "75", "100"]

    def test_plain_has_header(self, capsys):
        _, out, _ = invoke(capsys, "bounds", "--to", "5")
        assert "psi_over_n" in out.splitlines()[0]

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_step_above_to_is_refused(self, capsys, fmt):
        # No sample at all: refused like an empty verify range, not a bare header.
        code, out, err = invoke(capsys, "bounds", "--to", "5", "--step", "10", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == "binomlcm: domain error: psi_table has no sample: step 10 > max_n 5\n"


class TestBench:
    def test_row_csv(self, capsys):
        code, out, _ = invoke(capsys, "bench", "row", "--ns", "8,16", "--reps", "3", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert rows[0] == ["task", "method", "n", "reps", "median_ns", "p90_ns", "digits", "verified"]
        assert len(rows) == 1 + 6  # 3 methods x 2 sizes
        assert all(row[-1] == "true" for row in rows[1:])

    def test_range_plain(self, capsys):
        code, out, _ = invoke(capsys, "bench", "range", "--ns", "10", "--reps", "3")
        assert code == 0
        assert all("verified=true" in line for line in out.strip().splitlines())

    def test_bad_ns_list(self, capsys):
        code, _, err = invoke(capsys, "bench", "row", "--ns", "4,x", "--reps", "3")
        assert code == 2

    def test_empty_ns_list_is_an_error(self, capsys):
        code, out, err = invoke(capsys, "bench", "row", "--ns", ",", "--reps", "3")
        assert code == 2 and out == "" and "n list is empty" in err

    @pytest.mark.parametrize("fmt", ["plain", "csv"])
    def test_every_method_capped_exit_3(self, capsys, fmt):
        code, out, err = invoke(
            capsys, "bench", "range", "--ns", "50", "--reps", "3", "--max-fold", "1", "--max-valuation", "1",
            "--format", fmt,
        )
        assert code == 3 and out == ""
        assert "range_lcm bench at n=50" in err

    def test_range_n_zero_refused_up_front(self, capsys, monkeypatch):
        import binomlcm.bench as bench_mod

        timed = []
        monkeypatch.setattr(bench_mod, "lcm_range", lambda n, caps: timed.append(n) or 1)
        code, out, err = invoke(capsys, "bench", "range", "--ns", "5,0", "--reps", "3")
        assert code == 2 and out == ""
        assert "range_lcm bench requires n >= 1, got 0" in err
        assert timed == []  # refused before n = 5 was attested or timed


# One case per cap: its variable, its flag, a command a cap of 5 refuses,
# and the start of that command's stdout once the flag lifts the cap to 100.
CAP_CASES = [
    ("BINOMLCM_MAX_SIEVE", "--max-sieve", ["lcm-range", "10"], "2520\n"),
    ("BINOMLCM_MAX_ROW", "--max-row", ["row-lcm", "10", "--method", "naive"], f"{brute_range_lcm(11) // 11}\n"),
    (
        "BINOMLCM_MAX_FOLD",
        "--max-fold",
        ["bench", "range", "--ns", "10", "--reps", "3", "--max-valuation", "1"],
        "range_lcm fold n=10 reps=3 ",
    ),
    (
        "BINOMLCM_MAX_VALUATION",
        "--max-valuation",
        ["row-lcm", "10", "--method", "valuation"],
        f"{brute_range_lcm(11) // 11}\n",
    ),
]


class TestUsageAndCaps:
    def test_no_arguments(self, capsys):
        code, _, err = invoke(capsys)
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0 and "lcm-range" in out

    @pytest.mark.parametrize("var, flag, argv, lifted_out", CAP_CASES, ids=[c[1] for c in CAP_CASES])
    def test_env_cap_respected(self, capsys, monkeypatch, var, flag, argv, lifted_out):
        monkeypatch.setenv(var, "5")
        code, out, err = invoke(capsys, *argv)
        assert code == 3 and out == "" and "cap" in err

    @pytest.mark.parametrize("var, flag, argv, lifted_out", CAP_CASES, ids=[c[1] for c in CAP_CASES])
    def test_flag_beats_env(self, capsys, monkeypatch, var, flag, argv, lifted_out):
        monkeypatch.setenv(var, "5")
        code, out, _ = invoke(capsys, *argv, flag, "100")
        assert code == 0 and out.startswith(lifted_out)

    @pytest.mark.parametrize("flag", ["--max-sieve", "--max-row", "--max-fold", "--max-valuation"])
    def test_negative_cap_flag_refused(self, capsys, flag):
        code, out, err = invoke(capsys, "lcm-range", "10", flag, "-1")
        assert code == 2 and out == "" and "must be >= 0, got -1" in err

    def test_negative_env_cap_refused(self, capsys, monkeypatch):
        monkeypatch.setenv("BINOMLCM_MAX_ROW", "-5")
        code, out, err = invoke(capsys, "row-lcm", "4")
        assert code == 2 and out == "" and "full_row_n must be >= 0, got -5" in err

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("BINOMLCM_MAX_ROW", "many")
        code, _, err = invoke(capsys, "row-lcm", "4")
        assert code == 2 and "BINOMLCM_MAX_ROW" in err

    def test_diagnostics_never_pollute_stdout(self, capsys):
        code, out, err = invoke(capsys, "verify", "--theorem", "1", "--from", "0", "--to", "2")
        assert out == "" and err != ""

    def test_pipe_safe_when_downstream_closes_early(self):
        # | head must not produce a BrokenPipeError traceback.
        import subprocess
        import sys as _sys

        script = (
            "from binomlcm.cli import run; "
            "run(['bounds', '--to', '3000', '--format', 'csv'])"
        )
        proc = subprocess.run(
            f"{_sys.executable} -c \"{script}\" | head -2",
            shell=True,
            capture_output=True,
            text=True,
        )
        assert "Traceback" not in proc.stderr
        assert proc.stdout.splitlines()[0].startswith("n,lcm_digits")


# (record, its CSV header, the flag ok stands for, expected ok); one failing
# record of each type.
PROTOCOL_CASES = [
    (IdentityReport.build(Theorem.T1, 5, 60, 60, "a", "b"), IDENTITY_CSV_HEADER, "holds", True),
    (IdentityReport.build(Theorem.T1, 5, 2, 3, "a", "b"), IDENTITY_CSV_HEADER, "holds", False),
    (EquivalenceChainReport.build(9, 2520, 2520, 2520), IDENTITY_CSV_HEADER, "all_equal", True),
    (EquivalenceChainReport.build(9, 2520, 2520, 2519), IDENTITY_CSV_HEADER, "all_equal", False),
    (check_bounds(10), BOUNDS_CSV_HEADER, "enforced_ok", True),
    (BoundsRecord(8, 3, True, False, True, 0.8), BOUNDS_CSV_HEADER, "enforced_ok", True),  # 2^n not required
    (BoundsRecord(10, 4, True, False, True, 0.8), BOUNDS_CSV_HEADER, "enforced_ok", False),
    (BenchRecord(Task.ROW_LCM, "naive", 4, 3, 10, 20, 2, True), BENCH_CSV_HEADER, "verified", True),
    (BenchRecord(Task.ROW_LCM, "naive", 4, 3, 10, 20, 2, False), BENCH_CSV_HEADER, "verified", False),
]


class TestRecordProtocol:
    @pytest.mark.parametrize("record, header, flag, expected", PROTOCOL_CASES)
    def test_csv_row_fits_header_and_ok_is_the_flag(self, record, header, flag, expected):
        assert len(record.to_csv_row()) == len(header)
        assert record.ok is getattr(record, flag) is expected
        assert "\n" not in record.plain_line()

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    @pytest.mark.parametrize("record, header, flag, expected", PROTOCOL_CASES)
    def test_emit_exit_code_follows_ok(self, capsys, fmt, record, header, flag, expected):
        code = _emit(argparse.Namespace(format=fmt), [record], header)
        assert code == (0 if expected else 1)
        assert capsys.readouterr().out != ""


class _Doc:
    """A record that is only its JSON dict."""

    ok = True

    def __init__(self, doc):
        self.doc = doc

    def to_json_dict(self):
        return self.doc


def _emit_json(records) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(argparse.Namespace(format="json"), records, [])
    return out.getvalue()


_JSON_TEXT = st.text() | st.text(alphabet=st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\u20ac\U0001f600a'))
_JSON_SCALARS = st.one_of(
    _JSON_TEXT,
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324, math.nan, math.inf, -math.inf]),
)


class TestJsonWriter:
    """_emit writes each record as it comes, yet as one indent=2 document."""

    @given(st.lists(st.dictionaries(_JSON_TEXT, _JSON_SCALARS, min_size=1, max_size=6), max_size=5))
    @settings(deadline=None, max_examples=300)
    def test_matches_json_dumps_indent_2(self, docs):
        assert _emit_json([_Doc(d) for d in docs]) == json.dumps(docs, indent=2) + "\n"

    @pytest.mark.parametrize("count", [63, 64, 65, 129])
    def test_around_the_write_batch(self, count):
        records = psi_table(count)
        assert _emit_json(records) == json.dumps([r.to_json_dict() for r in records], indent=2) + "\n"

    def test_real_records_of_all_four_types(self):
        records = [case[0] for case in PROTOCOL_CASES]
        assert _emit_json(records) == json.dumps([r.to_json_dict() for r in records], indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_one_pass_over_any_iterable(self, capsys, fmt):
        # The failing record comes last, after the iterator has been written out.
        records = iter([check_bounds(10), BoundsRecord(10, 4, True, False, True, 0.8)])
        assert _emit(argparse.Namespace(format=fmt), records, BOUNDS_CSV_HEADER) == 1
        out = capsys.readouterr().out
        if fmt == "json":
            assert len(json.loads(out)) == 2
        else:
            assert len(out.splitlines()) == (3 if fmt == "csv" else 2)  # csv adds its header
