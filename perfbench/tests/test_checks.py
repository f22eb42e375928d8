import contextlib
import io
import json
import math
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

import layer_trace
import run
import workloads
from workloads import CheckFailed, Workload


def cli_stdout(*argv: str) -> str:
    import binomlcm.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert binomlcm.cli.run(list(argv)) == 0
    return buf.getvalue()


@pytest.mark.parametrize("x", [1, 9, 10, 11, 99, 100, 101, 2**64, 10**300 - 1, 10**300, 10**300 + 1])
def test_digit_count_matches_str(x):
    assert workloads.digit_count(x) == len(str(x))


def test_range_lcm_matches_a_gcd_fold():
    for m in range(1, 60):
        assert workloads.range_lcm(m) == reduce(math.lcm, range(1, m + 1))


def test_row_lcm_digits_matches_the_row():
    for n in range(0, 40):
        row_lcm = reduce(math.lcm, (math.comb(n, k) for k in range(n + 1)))
        assert workloads.row_lcm_digits(n) == len(str(row_lcm))


def test_row_valuation_check():
    n = 300
    good = cli_stdout("row-lcm", str(n), "--method", "valuation", "--digits-only")
    expected = workloads.row_lcm_digits(n)
    workloads.check_row_valuation(n, expected, good)
    for bad in [str(expected + 1) + "\n", "", good + good]:
        with pytest.raises(CheckFailed):
            workloads.check_row_valuation(n, expected, bad)


def test_verify_all_check():
    n = 6
    good = cli_stdout("verify", "--theorem", "all", "--from", "1", "--to", str(n), "--format", "json")
    workloads.check_verify_all(n, 7 * n, good)
    records = json.loads(good)
    flipped = json.loads(good)
    flipped[3]["holds"] = False
    chain_broken = json.loads(good)
    chain_broken[-1]["all_equal"] = False
    for bad in [good[:-10], json.dumps(records[:-1]), json.dumps(flipped), json.dumps(chain_broken)]:
        with pytest.raises(CheckFailed):
            workloads.check_verify_all(n, 7 * n, bad)


def test_bounds_check():
    n = 40
    good = cli_stdout("bounds", "--to", str(n), "--format", "csv")
    expected = workloads.range_lcm_digits(n)
    workloads.check_bounds(n, expected, good)
    lines = good.splitlines(keepends=True)
    last = lines[-1].split(",")
    last[1] = str(int(last[1]) + 1)
    corruptions = [
        "".join(lines[:-1]),  # a row missing
        good.replace("true", "false", 1),  # an enforced bound failing at n=1
        "".join(lines[:-1]) + ",".join(last),  # wrong final digit count
        good.replace("lcm_digits", "digits"),  # wrong header
    ]
    for bad in corruptions:
        with pytest.raises(CheckFailed):
            workloads.check_bounds(n, expected, bad)


def test_failure_reports_exit_code_and_timeout():
    w = workloads.WORKLOADS["verify_all_300"]
    assert run.failure(w, 1, 7, None, "") == "timed out"
    assert run.failure(w, 1, 7, 1, "") == "exit code 1"
    assert run.failure(w, 1, 7, 0, "[]") is not None


def test_high_percentile_keeps_ten_samples_beyond():
    assert run.high_percentile([float(i) for i in range(10)]) is None
    assert run.high_percentile([float(i) for i in range(20)]) == (50.0, 9.0)
    assert run.high_percentile([float(i) for i in range(100)]) == (90.0, 89.0)


def test_traced_run_passes_the_same_check_and_restores_bindings():
    tiny = Workload(
        "tiny",
        "",
        8,
        1,
        ("verify", "--theorem", "all", "--from", "1", "--to", "{n}", "--format", "json"),
        lambda n: 7 * n,
        workloads.check_verify_all,
    )
    cli = run.import_cli()
    untraced = cli_stdout(*tiny.argv(0))
    before = layer_trace.bindings("binomlcm")
    limit = sys.get_int_max_str_digits()
    values, why, spans = run.traced_run(cli, tiny, 0, tiny.expect(8))
    assert why is None
    assert values["cli.stdout_bytes"] == len(untraced.encode())
    assert values["identities.reports"] == 7 * 8
    assert values["identities.chain_range.calls"] == 1
    assert values["engine.fold.calls"] > 0 and spans
    assert layer_trace.bindings("binomlcm") == before
    assert sys.get_int_max_str_digits() == limit
    assert set(values) >= set(run.per_layer_names()) - {"trace.untraced_cpu_s", "trace.overhead_ratio"}
    cpu, why = run.untraced_run(cli, tiny, 0, tiny.expect(8))
    assert why is None and cpu > 0
    assert layer_trace.bindings("binomlcm") == before
    assert sys.get_int_max_str_digits() == limit


def test_run_refuses_a_directory_without_the_source():
    script = Path(run.__file__).resolve()
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", "bounds_5000", "--seed", "1", "--seconds", "1"],
        cwd=script.parent,  # holds no src/binomlcm
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((Path(run.__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_names()
