"""CLI contract: subcommands, formats, exit codes, stream discipline."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomlcm import (
    BenchRecord,
    BoundsRecord,
    EquivalenceChainReport,
    IdentityReport,
    PrimePowerFactorization,
    Task,
    Theorem,
    check_bounds,
)
import binomlcm
from binomlcm import cli
from binomlcm.bench import BENCH_CSV_HEADER
from binomlcm.bounds import BOUNDS_CSV_HEADER, BOUNDS_PLAIN_HEADER, psi_table
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

    @pytest.mark.parametrize("fmt", ["plain", "csv"])
    def test_valuation_digits_only_never_expands(self, capsys, monkeypatch, fmt):
        def refuse(self):
            raise AssertionError("expand() called for a digit count")

        monkeypatch.setattr(PrimePowerFactorization, "expand", refuse)
        code, out, err = invoke(capsys, "row-lcm", "300000", "--method", "valuation", "--digits-only", "--format", fmt)
        assert (code, err) == (0, "")
        assert out == ("130136\n" if fmt == "plain" else "n,method,digits\n300000,valuation,130136\n")

    @pytest.mark.parametrize("method", ["naive", "farhi", "valuation"])
    def test_negative_n_names_the_route(self, capsys, method):
        code, out, err = invoke(capsys, "row-lcm", "-1", "--method", method)
        assert (code, out, err) == (2, "", f"binomlcm: domain error: row_lcm_{method} requires an int n >= 0, got -1\n")

    def test_naive_cap_exit_3(self, capsys):
        code, _, err = invoke(capsys, "row-lcm", "100", "--method", "naive", "--max-row", "10")
        assert code == 3 and "cap" in err

    def test_valuation_caps_exit_3(self, capsys):
        # The sieve cap is the valuation route's only cap.
        code, out, err = invoke(capsys, "row-lcm", "50", "--method", "valuation", "--max-sieve", "49")
        assert (code, out, err) == (3, "", "binomlcm: resource cap: sieve limit 50 exceeds the configured cap 49\n")

    def test_no_valuation_cap_flag(self, capsys):
        code, out, err = invoke(capsys, "row-lcm", "50", "--method", "valuation", "--max-valuation", "5")
        assert code == 2 and out == "" and "unrecognized arguments: --max-valuation 5" in err


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

        fake = [IdentityReport(Theorem.T1, 5, 2, 3, "a", "b")]
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
            capsys, "bench", "range", "--ns", "50", "--reps", "3", "--max-fold", "1", "--max-sieve", "1",
            "--format", fmt,
        )
        assert code == 3 and out == ""
        assert "range_lcm bench at n=50" in err

    def test_routes_that_disagree_exit_1_and_print_nothing(self, capsys, monkeypatch):
        from binomlcm import engine

        farhi = engine.ROW_ROUTES["farhi"]
        monkeypatch.setitem(engine.ROW_ROUTES, "farhi", lambda n, caps: farhi(n, caps) + 1)
        code, out, err = invoke(capsys, "bench", "row", "--ns", "10", "--reps", "3")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("binomlcm: internal consistency: row_lcm methods disagree at n=10")

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
        ["bench", "range", "--ns", "10", "--reps", "3", "--max-sieve", "1"],
        "range_lcm fold n=10 reps=3 ",
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

    @pytest.mark.parametrize("flag", ["--max-sieve", "--max-row", "--max-fold"])
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
        # | head -2 must get the first two lines, with no BrokenPipeError
        # traceback and exit 0, in every format and with stdout unbuffered
        # too (each write is then a system call); 3000 records are many
        # batches. The child imports the package this process imported, so
        # a copy of the source put first on PYTHONPATH (as tests/mutants.py
        # does) is the one it runs.
        src = Path(binomlcm.__file__).resolve().parents[1]
        for fmt in ("plain", "csv", "json"):
            argv = ["bounds", "--to", "3000", "--format", fmt]
            whole = io.StringIO()
            with contextlib.redirect_stdout(whole):
                assert run(argv) == 0
            expected = whole.getvalue().splitlines(keepends=True)[:2]
            for unbuffered in (False, True):
                env = {**os.environ, "PYTHONPATH": str(src)}
                env.pop("PYTHONUNBUFFERED", None)
                if unbuffered:
                    env["PYTHONUNBUFFERED"] = "1"
                child = subprocess.Popen(
                    [sys.executable, "-m", "binomlcm.cli", *argv],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    env=env,
                )
                head = subprocess.run(["head", "-2"], stdin=child.stdout, capture_output=True, text=True)
                child.stdout.close()
                err = child.stderr.read().decode()
                child.stderr.close()
                assert child.wait(timeout=60) == 0, (fmt, unbuffered, err)
                assert "Traceback" not in err, (fmt, unbuffered)
                assert head.stdout.splitlines(keepends=True) == expected, (fmt, unbuffered)


# (record, its CSV header, the flag ok stands for, expected ok); one failing
# record of each type.
PROTOCOL_CASES = [
    (IdentityReport(Theorem.T1, 5, 60, 60, "a", "b"), IDENTITY_CSV_HEADER, "holds", True),
    (IdentityReport(Theorem.T1, 5, 2, 3, "a", "b"), IDENTITY_CSV_HEADER, "holds", False),
    (EquivalenceChainReport(9, 2520, 2520, 2520, 2520), IDENTITY_CSV_HEADER, "all_equal", True),
    (EquivalenceChainReport(9, 2520, 2520, 2520, 2519), IDENTITY_CSV_HEADER, "all_equal", False),
    (check_bounds(10), BOUNDS_CSV_HEADER, "enforced_ok", True),
    (BoundsRecord(8, 3, True, False, True, 0.8), BOUNDS_CSV_HEADER, "enforced_ok", True),  # 2^n not required
    (BoundsRecord(10, 4, True, False, True, 0.8), BOUNDS_CSV_HEADER, "enforced_ok", False),
    (BenchRecord(Task.ROW_LCM, "naive", 4, 3, 10, 20, 2, True), BENCH_CSV_HEADER, "verified", True),
    (BenchRecord(Task.ROW_LCM, "naive", 4, 3, 10, 20, 2, False), BENCH_CSV_HEADER, "verified", False),
]


# sha256 of (stdout, stderr) for help and usage errors, captured at an
# 80-column width (the top-level help and the two usage errors while
# _build_parser still built every subcommand in full).
# argparse's help layout is not fixed across Python versions, so the digests
# are checked on the version they were captured on; the tests after them
# hold on any.
_EMPTY = hashlib.sha256(b"").hexdigest()
HELP_DIGESTS_PY = (3, 11)
HELP_DIGESTS = [
    (["--help"], 0, "59ecef3e825feaa4ba1fd99ab89c52688451b87f15cd0948d88d43d06e5457ab", _EMPTY),
    (["lcm-range", "--help"], 0, "121c4056e8fcf8d3a9893fae68937bb35b1c354c60ebd96982c098d2f8edb6fc", _EMPTY),
    (["row-lcm", "--help"], 0, "80e0b79275f74fceedc076e289f2b80e56c97607b593792b0880ec5a4fd9bf28", _EMPTY),
    (["verify", "--help"], 0, "f89206f5ef71336b0ff12e6728ec391598a6504f50d9440d9f891ab028e61819", _EMPTY),
    (["bounds", "--help"], 0, "4351572b8072db08f6a23d0fb7c73617d4238f8084dbc7d0da2016814d89b454", _EMPTY),
    (["bench", "--help"], 0, "9e60896860ff5d1f29abb9acf38fda2c4c236b96ae9b9ea16cf640ed41c83322", _EMPTY),
    ([], 2, _EMPTY, "4b9750ca8a770a5a717a88447ff476b89056421f5abd68cd5d561a2073beaa49"),
    (["nosuch"], 2, _EMPTY, "4c1002662dc2653ec16026efbb437aae175f1260b474543cd6c8c51800fe6674"),
]


class TestHelpBytes:
    """The parser builds only the chosen subcommand; what it prints must not change."""

    @pytest.mark.parametrize(
        "argv, code, out_sha256, err_sha256", HELP_DIGESTS, ids=[" ".join(c[0]) or "(none)" for c in HELP_DIGESTS]
    )
    def test_help_and_usage_digests(self, capsys, monkeypatch, argv, code, out_sha256, err_sha256):
        if sys.version_info[:2] != HELP_DIGESTS_PY:
            pytest.skip(f"help digests were captured on Python {'.'.join(map(str, HELP_DIGESTS_PY))}")
        monkeypatch.setenv("COLUMNS", "80")
        got_code, out, err = invoke(capsys, *argv)
        assert (got_code, hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(err.encode()).hexdigest()) == (
            code,
            out_sha256,
            err_sha256,
        )

    def test_top_level_help_is_the_same_whichever_subcommand_is_built(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        helps = {cli._build_parser([name]).format_help() for name in [*cli._COMMANDS, "nosuch"]}
        assert helps == {invoke(capsys, "--help")[1]}

    @pytest.mark.parametrize("name", ["lcm-range", "row-lcm", "verify", "bounds", "bench"])
    def test_a_later_subcommand_name_is_an_argument_not_the_command(self, capsys, name):
        # Only the first name is the command; "bench" here is verify's bad --theorem.
        code, out, err = invoke(capsys, "verify", "--theorem", name, "--from", "1", "--to", "2")
        assert code == 2 and out == "" and f"argument --theorem: invalid choice: '{name}'" in err


class TestRecordProtocol:
    @pytest.mark.parametrize("record, header, flag, expected", PROTOCOL_CASES)
    def test_csv_row_fits_header_and_ok_is_the_flag(self, record, header, flag, expected):
        assert len(record.to_csv_row()) == len(header)
        assert record.ok is getattr(record, flag) is expected
        assert "\n" not in record.plain_line()

    @pytest.mark.parametrize("record, header", [(c[0], c[1]) for c in PROTOCOL_CASES[:2] + PROTOCOL_CASES[-2:]])
    def test_an_identity_or_bench_csv_row_is_its_json_dict(self, record, header):
        # Both read their CSV row off to_json_dict(), so its keys are the header.
        doc = record.to_json_dict()
        assert list(doc) == header
        assert record.to_csv_row() == [str(v).lower() if isinstance(v, bool) else str(v) for v in doc.values()]

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


_JSON_TEXT = (
    st.text()
    | st.text(alphabet=st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\u20ac\U0001f600a{},: '))
    # The text _emit rewrites between two records, and pieces of it.
    | st.sampled_from(["},\n    {", "},", "{", "}", "\n  },\n  {\n    "])
)
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

    # Long enough to cross a write batch (64 records), where the encoded
    # batch is split into records.
    @given(
        st.lists(
            st.dictionaries(_JSON_TEXT, _JSON_TEXT | st.integers(), min_size=1, max_size=2),
            min_size=60,
            max_size=130,
        )
    )
    @settings(deadline=None, max_examples=40)
    def test_matches_json_dumps_indent_2_across_batches(self, docs):
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


class _CountingStdout(io.StringIO):
    """A stdout that keeps every write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def _per_record(fmt, records, csv_header, plain_header) -> str:
    """What a print or writerow per record prints."""
    if fmt == "json":
        return json.dumps([r.to_json_dict() for r in records], indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(csv_header)
        for r in records:
            writer.writerow(r.to_csv_row())
        return out.getvalue()
    lines = [] if plain_header is None else [plain_header]
    return "".join(line + "\n" for line in lines + [r.plain_line() for r in records])


class TestBatchedWrites:
    """_emit writes 64 records per write, and the bytes of one write per record."""

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 129])
    @pytest.mark.parametrize(
        "fmt, plain_header", [("plain", BOUNDS_PLAIN_HEADER), ("plain", None), ("csv", None), ("json", None)]
    )
    def test_one_write_per_batch_and_the_same_bytes(self, monkeypatch, count, fmt, plain_header):
        records = psi_table(count) if count else []
        stdout = _CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert _emit(argparse.Namespace(format=fmt), iter(records), BOUNDS_CSV_HEADER, plain_header) == 0
        monkeypatch.undo()
        assert stdout.getvalue() == _per_record(fmt, records, BOUNDS_CSV_HEADER, plain_header)
        assert len(stdout.writes) <= math.ceil(count / 64) + 1
        assert "" not in stdout.writes
        if fmt == "plain" and plain_header is None and not count:
            assert stdout.writes == []

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @pytest.mark.parametrize("position", [0, 30, 63, 64, 99])
    def test_one_failing_record_anywhere_fails_the_run(self, capsys, fmt, position):
        # 30: inside the first batch; 64: the first record of the second.
        records = psi_table(100)
        records[position] = records[position]._replace(upper_3n_holds=False)
        assert _emit(argparse.Namespace(format=fmt), records, BOUNDS_CSV_HEADER, BOUNDS_PLAIN_HEADER) == 1
        assert capsys.readouterr().out == _per_record(fmt, records, BOUNDS_CSV_HEADER, BOUNDS_PLAIN_HEADER)
