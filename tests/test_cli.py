"""CLI contract: subcommands, formats, exit codes, stream discipline."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from binomlcm import (
    DEFAULT_CAPS,
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
from binomlcm.digits import decimal_str, json_float, json_str
from binomlcm.engine import ROW_ROUTES, lcm_range
from binomlcm.identities import IDENTITY_CSV_HEADER
from helpers import brute_range_lcm, json_document


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CLI = [sys.executable, "-m", "binomlcm.cli"]


def child_env(unbuffered: bool = False) -> dict[str, str]:
    """The environment of a CLI child: the package this process imported, stdout as asked.

    A copy of the source put first on PYTHONPATH, as tests/mutants.py
    does, is then the one the child runs.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(binomlcm.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


class TestLcmRange:
    def test_plain_value(self, capsys):
        code, out, err = invoke(capsys, "lcm-range", "10")
        assert (code, out, err) == (0, "2520\n", "")

    @pytest.mark.parametrize("n, digits", [("10", "4"), ("100000", "43452")])
    def test_digits_only(self, capsys, n, digits):
        code, out, _ = invoke(capsys, "lcm-range", n, "--digits-only")
        assert code == 0 and out == digits + "\n"

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


class TestValueJson:
    """A value document is print(json.dumps(doc, indent=2)), its factorization read off items()."""

    # 3000 has 430 pairs; 40000 has 4203, more than one write batch of pairs.
    @pytest.mark.parametrize("digits_only", [False, True])
    @pytest.mark.parametrize(
        "route, n",
        [(r, n) for r in ["range", "valuation", "farhi", "naive"] for n in [1, 2, 4, 50, 3000]]
        + [("range", 40000), ("valuation", 40000)],
    )
    def test_matches_json_dumps_indent_2(self, capsys, route, n, digits_only):
        if route == "range":
            argv, result, doc = ["lcm-range", str(n)], lcm_range(n), {"n": n}
        else:
            argv = ["row-lcm", str(n), "--method", route]
            result, doc = ROW_ROUTES[route](n, DEFAULT_CAPS), {"n": n, "method": route}
        if isinstance(result, PrimePowerFactorization):
            doc["factorization"] = [list(pair) for pair in result.items()]
            if n == 40000:
                assert len(doc["factorization"]) > cli._PAIR_BATCH
            result = result.expand()
        text = decimal_str(result)  # checked against str() in test_digits
        doc["digits"] = len(text)
        if not digits_only:
            doc["value"] = text
        code, out, err = invoke(capsys, *argv, "--format", "json", *(["--digits-only"] if digits_only else []))
        assert (code, err) == (0, "")
        assert out == json.dumps(doc, indent=2) + "\n"

    # A factorization stores exponents up to isqrt(n) = 316 only and reads
    # every later prime as exponent 1: lcm(1..n) lists all 9592 primes, and
    # the row lcm all but 9091 (n + 1 = 100001 = 11 * 9091).
    def test_range_factorization_at_10_5(self, capsys):
        code, out, err = invoke(capsys, "lcm-range", "100000", "--format", "json")
        doc = json.loads(out)
        pairs = doc["factorization"]
        above_one = [p for p, e in pairs if e > 1]
        assert (code, err, len(pairs), len(above_one), doc["digits"]) == (0, "", 9592, 65, 43452)
        assert above_one == [p for p, _ in pairs if p <= 316]

    def test_row_factorization_at_10_5(self, capsys):
        code, out, err = invoke(capsys, "row-lcm", "100000", "--method", "valuation", "--format", "json")
        doc = json.loads(out)
        pairs = doc["factorization"]
        assert (code, err, len(pairs), doc["digits"]) == (0, "", 9591, 43447)
        assert 9091 not in [p for p, _ in pairs]
        assert all(e == 1 for p, e in pairs if p > 316)


class TestRowLcm:
    @pytest.mark.parametrize("method", ["naive", "farhi", "valuation"])
    def test_all_methods_agree(self, capsys, method):
        code, out, _ = invoke(capsys, "row-lcm", "6", "--method", method)
        assert code == 0 and out == "60\n"

    def test_default_method(self, capsys):
        code, out, _ = invoke(capsys, "row-lcm", "4")
        assert code == 0 and out == "12\n"

    def test_valuation_and_farhi_print_one_value_at_10_5(self, capsys):
        valuation = invoke(capsys, "row-lcm", "100000", "--method", "valuation")
        assert valuation == invoke(capsys, "row-lcm", "100000", "--method", "farhi")
        code, value, err = valuation
        assert (code, err) == (0, "") and value.strip().isdigit()
        for method in ("valuation", "farhi"):
            digits = invoke(capsys, "row-lcm", "100000", "--method", method, "--digits-only")
            assert digits == (0, f"{len(value) - 1}\n", "")

    # The valuation route's only cap is the sieve cap (10**7), as for farhi
    # and lcm-range; past 10**6 the two routes still agree.
    @pytest.mark.parametrize("n", ["1000000", "1000001"])
    def test_valuation_and_farhi_count_one_value_past_10_6(self, capsys, n):
        for method in ("valuation", "farhi"):
            assert invoke(capsys, "row-lcm", n, "--method", method, "--digits-only") == (0, "434109\n", "")

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

    # The sieve cap is the valuation route's only cap: one past a flag, or one past the default.
    @pytest.mark.parametrize(
        "n, flags, cap", [("50", ["--max-sieve", "49"], 49), ("10000001", [], 10_000_000)], ids=["flag", "default"]
    )
    def test_valuation_caps_exit_3(self, capsys, n, flags, cap):
        refusal = f"binomlcm: resource cap: sieve limit {n} exceeds the configured cap {cap}\n"
        assert invoke(capsys, "row-lcm", n, "--method", "valuation", *flags) == (3, "", refusal)

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
            capsys, "verify", "--theorem", "all", "--from", "1", "--to", "20", "--format", "json"
        )
        assert code == 0
        docs = json.loads(out)
        # 5 theorems + termwise + chain, 20 each, fixed order
        assert len(docs) == 7 * 20
        assert [d["theorem"] for d in docs[:40:20]] == ["T1", "T2"]
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

    # T5 reads each row's cached half-row fold.
    @pytest.mark.parametrize("theorem, last", [("termwise", 20), ("5", 300)])
    def test_one_theorem_over_a_range(self, capsys, theorem, last):
        code, out, _ = invoke(capsys, "verify", "--theorem", theorem, "--from", "1", "--to", str(last))
        assert code == 0
        assert len(out.strip().splitlines()) == last

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
    @pytest.mark.parametrize("max_n", [10, 3000])
    def test_csv_schema(self, capsys, max_n):
        code, out, _ = invoke(capsys, "bounds", "--to", str(max_n), "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "lcm_digits", "holds_2nm1", "holds_2n", "holds_3n", "psi_over_n"]
        assert len(rows) == max_n + 1
        assert code == 0  # informational 2^n misses below 9 do not fail the run

    def test_step(self, capsys):
        code, out, _ = invoke(capsys, "bounds", "--to", "100", "--step", "25", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[0] for r in rows[1:]] == ["25", "50", "75", "100"]

    def test_last_sample_counts_the_digits_lcm_range_counts(self, capsys):
        code, out, _ = invoke(capsys, "bounds", "--to", "100000", "--step", "1000", "--format", "csv")
        assert code == 0 and out.splitlines()[-1].split(",")[:2] == ["100000", "43452"]

    def test_plain_has_header(self, capsys):
        _, out, _ = invoke(capsys, "bounds", "--to", "5")
        assert "psi_over_n" in out.splitlines()[0]

    # A step above --to has no sample at all: refused like an empty verify
    # range, not a bare header. The sieve is the one check of the sieve cap,
    # so bounds refuses in the words every sieving command uses.
    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["--to", "5", "--step", "10"], 2, "binomlcm: domain error: psi_table has no sample: step 10 > max_n 5\n"),
            (
                ["--to", "100", "--max-sieve", "99"],
                3,
                "binomlcm: resource cap: sieve limit 100 exceeds the configured cap 99\n",
            ),
        ],
        ids=["step-above-to", "sieve-cap"],
    )
    def test_refused_with_nothing_on_stdout(self, capsys, fmt, argv, code, err):
        assert invoke(capsys, "bounds", *argv, "--format", fmt) == (code, "", err)


class TestBench:
    # Above the default full-row cap (5000) the naive route is not timed.
    @pytest.mark.parametrize(
        "ns, methods",
        [("8,16", ["naive", "farhi", "valuation"] * 2), ("6000", ["farhi", "valuation"])],
        ids=["8,16", "6000"],
    )
    def test_row_csv(self, capsys, ns, methods):
        code, out, _ = invoke(capsys, "bench", "row", "--ns", ns, "--reps", "3", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert rows[0] == ["task", "method", "n", "reps", "median_ns", "p90_ns", "digits", "verified"]
        assert [row[1] for row in rows[1:]] == methods
        assert all(row[-1] == "true" for row in rows[1:])

    def test_reps_default_to_5(self, capsys):
        code, out, _ = invoke(capsys, "bench", "row", "--ns", "8")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 3
        assert all(" n=8 reps=5 " in line for line in lines)

    def test_row_0_is_benched(self, capsys):
        code, out, _ = invoke(capsys, "bench", "row", "--ns", "0", "--reps", "3")
        lines = out.splitlines()
        assert code == 0
        assert [line.split()[1] for line in lines] == list(ROW_ROUTES)
        assert all(" n=0 reps=3 " in line and line.endswith(" digits=1 verified=true") for line in lines)

    # Above the default fold cap (10**5) only the factorization route is timed.
    @pytest.mark.parametrize(
        "ns, methods", [("10", ["fold", "factorization"]), ("2000000", ["factorization"])], ids=["10", "2000000"]
    )
    def test_range_plain(self, capsys, ns, methods):
        code, out, _ = invoke(capsys, "bench", "range", "--ns", ns, "--reps", "3")
        lines = out.strip().splitlines()
        assert code == 0
        assert [line.split()[1] for line in lines] == methods
        assert all("verified=true" in line for line in lines)

    def test_bad_ns_list(self, capsys):
        code, _, err = invoke(capsys, "bench", "row", "--ns", "4,x", "--reps", "3")
        assert code == 2

    def test_empty_ns_list_is_an_error(self, capsys):
        code, out, err = invoke(capsys, "bench", "row", "--ns", ",", "--reps", "3")
        assert code == 2 and out == "" and "n list is empty" in err

    @pytest.mark.parametrize("fmt", ["plain", "csv"])
    @pytest.mark.parametrize(
        "argv, refusal",
        [
            (["range", "--ns", "50", "--max-fold", "1", "--max-sieve", "1"], "range_lcm bench at n=50"),
            (["row", "--ns", "30", "--max-row", "29", "--max-sieve", "29"], "row_lcm bench at n=30"),
        ],
        ids=["range", "row"],
    )
    def test_every_method_capped_exit_3(self, capsys, fmt, argv, refusal):
        code, out, err = invoke(capsys, "bench", *argv, "--reps", "3", "--format", fmt)
        assert code == 3 and out == ""
        assert refusal in err

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
        assert "range_lcm bench requires an int n >= 1, got 0" in err
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


# (format, --to, unbuffered stdout, seconds allowed) for a bounds child cut off by head.
PIPE_CASES = [
    *(
        pytest.param(fmt, "3000", unbuffered, 60, id=f"{fmt}-3000" + "-unbuffered" * unbuffered)
        for fmt in ("plain", "csv", "json")
        for unbuffered in (False, True)
    ),
    # Streamed, this run ends in about 0.1 s; a held list of 10**6 records peaks near 190 MB.
    pytest.param("plain", "1000000", False, 5, id="plain-1000000"),
    # The sieve cap: a held list of 10**7 records would need about 2 GB.
    pytest.param("plain", "10000000", False, 60, id="plain-10000000"),
]


class TestUsageAndCaps:
    def test_no_arguments(self, capsys):
        code, _, err = invoke(capsys)
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, shown", [(["--help"], "lcm-range"), (["bench", "--help"], "--ns")], ids=["help", "bench-help"]
    )
    def test_help_exits_zero(self, capsys, argv, shown):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and shown in out

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

    # A bad cap, from a flag or from a variable, prints nothing on stdout and
    # one `binomlcm: domain error:` line on stderr, and exits 2.
    @pytest.mark.parametrize("flag", ["--max-sieve", "--max-row", "--max-fold"])
    def test_negative_cap_flag_refused(self, capsys, flag):
        code, out, err = invoke(capsys, "lcm-range", "10", flag, "-1")
        assert code == 2 and out == ""
        assert re.fullmatch(r"binomlcm: domain error: .*must be an int >= 0, got -1\n", err)

    def test_negative_env_cap_refused(self, capsys, monkeypatch):
        monkeypatch.setenv("BINOMLCM_MAX_ROW", "-5")
        code, out, err = invoke(capsys, "row-lcm", "4")
        assert code == 2 and out == "" and "full_row_n must be an int >= 0, got -5" in err

    @pytest.mark.parametrize("var, flag, argv, lifted_out", CAP_CASES, ids=[c[1] for c in CAP_CASES])
    def test_bad_env_value(self, capsys, monkeypatch, var, flag, argv, lifted_out):
        monkeypatch.setenv(var, "many")
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert re.fullmatch(f"binomlcm: domain error: {var} .*\n", err)

    def test_diagnostics_never_pollute_stdout(self, capsys):
        code, out, err = invoke(capsys, "verify", "--theorem", "1", "--from", "0", "--to", "2")
        assert out == "" and err != ""

    @pytest.mark.parametrize("fmt, max_n, unbuffered, limit_s", PIPE_CASES)
    def test_pipe_safe_when_downstream_closes_early(self, fmt, max_n, unbuffered, limit_s):
        # | head -n 3 must get the first three lines, with no BrokenPipeError
        # traceback and exit 0, in every format and with stdout unbuffered
        # too (each write is then a system call); 3000 records are many
        # batches. A sweep ends at the first write after head exits, long
        # before it would finish. The child runs the package this process
        # imported (child_env), so a copy of the source put first on
        # PYTHONPATH is the one it runs.
        whole = io.StringIO()
        with contextlib.redirect_stdout(whole):
            assert run(["bounds", "--to", "3000", "--format", fmt]) == 0
        expected = whole.getvalue().splitlines(keepends=True)[:3]  # the same for any --to
        start = time.monotonic()
        child = subprocess.Popen(
            [*CLI, "bounds", "--to", max_n, "--format", fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(unbuffered),
        )
        try:
            head = subprocess.run(["head", "-n", "3"], stdin=child.stdout, capture_output=True, text=True, timeout=60)
            child.stdout.close()
            err = child.stderr.read().decode()
            child.stderr.close()
            assert child.wait(timeout=60) == 0, err
        finally:
            child.kill()
        assert time.monotonic() - start < limit_s
        assert "Traceback" not in err
        assert head.stdout.splitlines(keepends=True) == expected


# Run as its own process, it starts the command in its argv, which writes to
# its stdout and stderr, and then prints the command's exit code and peak RSS
# (KiB, from os.wait4) as the last line of stderr. Linux hands the RSS of a
# process that starts a child by vfork, as subprocess does, to that child's
# ru_maxrss at exec, so a child started by pytest itself would report
# pytest's RSS. This small process holds about 14 MB, below every bound.
_PEAK = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(child.returncode, usage.ru_maxrss, file=sys.stderr)
"""


class TestChildProcess:
    """What only a process of its own shows: its peak RSS and its unbuffered stdout."""

    # Records are written as they are made and none is kept, so the peak
    # does not grow with the record count. The sieve and the factorization
    # keep each prime as four bytes of one array('I'), with no int object
    # per prime: at the default sieve cap this peaks near 24 MB, where a
    # list of ints peaked at 51 MB.
    @pytest.mark.parametrize(
        "argv, out, peak_mb",
        [
            (["bounds", "--to", "300000", "--format", "csv"], None, 30),
            (["lcm-range", "10000000", "--digits-only"], "4342311\n", 35),
        ],
        ids=["bounds-streams", "primes-packed"],
    )
    def test_peak_rss(self, argv, out, peak_mb):
        child = subprocess.run(
            [sys.executable, "-c", _PEAK, *CLI, *argv],
            stdout=subprocess.DEVNULL if out is None else subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
            text=True,
            timeout=60,
        )
        *err, report = child.stderr.splitlines()
        code, maxrss_kib = map(int, report.split())
        assert (code, err, child.stdout) == (0, [], out)
        assert maxrss_kib / 1024 < peak_mb

    # With PYTHONUNBUFFERED every write is a system call; the emitter's
    # batches must give the bytes the in-process run writes.
    @pytest.mark.parametrize(
        "command",
        [
            *(f"bounds --to 3000 --format {fmt}" for fmt in ("plain", "csv", "json")),
            *(f"verify --theorem all --from 1 --to 40 --format {fmt}" for fmt in ("plain", "csv", "json")),
            "lcm-range 3000 --format json",
            "row-lcm 3000 --method valuation --format json",
        ],
    )
    def test_unbuffered_stdout_gets_the_same_bytes(self, capsys, command):
        code, out, err = invoke(capsys, *command.split())
        assert (code, err) == (0, "")
        child = subprocess.run([*CLI, *command.split()], capture_output=True, env=child_env(True), timeout=60)
        assert (child.returncode, child.stderr, child.stdout) == (0, b"", out.encode())


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


def _emit_json(records) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(argparse.Namespace(format="json"), records, [])
    return out.getvalue()


_JSON_TEXT = (
    st.text()
    | st.text(alphabet=st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\u20ac\U0001f600a{},: '))
    # The text between two records at depth 1, and pieces of it.
    | st.sampled_from(["},\n    {", "},", "{", "}", "\n  },\n  {\n    "])
)
_FLOATS = st.floats() | st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324, math.nan, math.inf, -math.inf])
# Either side of digits._STR_MAX_BITS, where decimal_str switches to its Decimal route.
_SIDES = (
    st.integers()
    | st.integers(min_value=2**1990, max_value=2**2100)
    | st.integers(min_value=-(2**2100), max_value=-(2**1990))
)
_RECORDS = {
    "identity": st.builds(
        IdentityReport, st.sampled_from(Theorem), st.integers(), _SIDES, _SIDES, _JSON_TEXT, _JSON_TEXT
    ),
    "chain": st.builds(EquivalenceChainReport, st.integers(), _SIDES, _SIDES, _SIDES, _SIDES),
    "bounds": st.builds(BoundsRecord, st.integers(), st.integers(), *[st.booleans()] * 3, _FLOATS),
    "bench": st.builds(BenchRecord, st.sampled_from(Task), _JSON_TEXT, *[st.integers()] * 5, st.booleans()),
}


def _document(record) -> dict:
    """The JSON object of a record, derived from its fields: sides by str(), verdicts off the quantities."""
    if isinstance(record, IdentityReport):
        theorem, n, lhs, rhs, lhs_method, rhs_method = record
        sides = {"lhs": str(lhs), "rhs": str(rhs), "holds": lhs == rhs}
        return {"theorem": theorem.value, "n": n, **sides, "lhs_method": lhs_method, "rhs_method": rhs_method}
    if isinstance(record, EquivalenceChainReport):
        n, *quantities = record
        named = {name: str(q) for name, q in zip(record._fields[1:], quantities)}
        return {"theorem": "CHAIN", "n": n, **named, "all_equal": len(set(quantities)) == 1}
    if isinstance(record, BoundsRecord):
        n, lcm_digits, lower_2nm1, lower_2n, upper_3n, psi = record
        flags = {"holds_2nm1": lower_2nm1, "holds_2n": lower_2n, "holds_2n_required": n >= 9, "holds_3n": upper_3n}
        return {"n": n, "lcm_digits": lcm_digits, **flags, "psi_over_n": psi}
    return {**record._asdict(), "task": record.task.value}


def _assert_json_of_fields(records):
    # Floats through json.dumps: a NaN equals nothing, not even itself.
    assert json.dumps(json_document(_emit_json(records))) == json.dumps([_document(r) for r in records])


# Each kind's CSV header, and the JSON name of a column that has another one there.
_CSV_COLUMNS = {
    "identity": (IDENTITY_CSV_HEADER, {}),
    "chain": (IDENTITY_CSV_HEADER, {"lhs": "q_nair", "rhs": "q_range", "holds": "all_equal"}),
    "bounds": (BOUNDS_CSV_HEADER, {}),
    "bench": (BENCH_CSV_HEADER, {}),
}


class TestRecordProtocol:
    @pytest.mark.parametrize("record, header, flag, expected", PROTOCOL_CASES)
    def test_csv_row_fits_header_and_ok_is_the_flag(self, record, header, flag, expected):
        assert len(record.to_csv_row()) == len(header)
        assert record.ok is getattr(record, flag) is expected
        assert "\n" not in record.plain_line()

    @pytest.mark.parametrize("kind", list(_RECORDS))
    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_each_csv_cell_is_its_json_value(self, kind, data):
        record = data.draw(_RECORDS[kind])
        header, json_names = _CSV_COLUMNS[kind]
        row = record.to_csv_row()
        assert len(row) == len(header)
        if sys.version_info < (3, 11):
            assume("\x00" not in "".join(row))  # csv reads a NUL from Python 3.11 on
        out = io.StringIO()
        csv.writer(out).writerow(row)
        assert next(csv.reader(io.StringIO(out.getvalue(), newline=""))) == row
        (doc,) = json_document(_emit_json([record]))
        cells = dict(zip(header, row))
        if kind == "chain":
            del cells["lhs_method"], cells["rhs_method"]  # fixed labels, not in its JSON
        if kind == "bounds":
            assert cells.pop("psi_over_n") == format(doc["psi_over_n"], ".12g")
        for column, cell in cells.items():
            value = doc[json_names.get(column, column)]
            assert cell == (value if isinstance(value, str) else json.dumps(value)), column

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    @pytest.mark.parametrize("record, header, flag, expected", PROTOCOL_CASES)
    def test_emit_exit_code_follows_ok(self, capsys, fmt, record, header, flag, expected):
        code = _emit(argparse.Namespace(format=fmt), [record], header)
        assert code == (0 if expected else 1)
        assert capsys.readouterr().out != ""


class TestJsonWriter:
    """Records write their own JSON text, as one json.dumps(list, indent=2) document."""

    @given(_JSON_TEXT)
    @settings(deadline=None, max_examples=500)
    def test_json_str_is_json_dumps(self, s):
        assert json_str(s) == json.dumps(s)

    @given(_FLOATS)
    @settings(deadline=None, max_examples=300)
    def test_json_float_is_json_dumps(self, x):
        assert json_float(x) == json.dumps(x)

    @pytest.mark.parametrize("kind", list(_RECORDS))
    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_each_record_type_is_json_of_its_fields(self, kind, data):
        _assert_json_of_fields([data.draw(_RECORDS[kind])])

    @pytest.mark.parametrize("count", [63, 64, 65, 129])
    def test_around_the_write_batch(self, count):
        _assert_json_of_fields(psi_table(count))

    def test_real_records_of_all_four_types(self):
        _assert_json_of_fields([case[0] for case in PROTOCOL_CASES])

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
        return json.dumps([_document(r) for r in records], indent=2) + "\n"
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
