"""Benchmark binomlcm's CLI end to end, or trace it layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 times whole processes: each sample is a fresh
``python -m binomlcm.cli`` child, one at a time, measured with os.wait4
by spawn.py (wall from spawn to exit, user+sys CPU, ru_maxrss), and its
stdout is checked. set-up time is the median wall time of children that only
``import binomlcm.cli``, one before each workload child.

--trace 1 runs the same command in this process through
``binomlcm.cli.run``, alternately untraced and with the layer entry points
wrapped (see layer_trace.py), and reports per-layer spans and counters
plus the tracing overhead.

Human-readable lines go first; the last line of stdout is one JSON object
with "correct", "attempted", "failed" and "metrics".
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layer_trace
from workloads import LAYER_MAP, WORKLOADS, CheckFailed, Workload

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SPAWN = Path(__file__).resolve().parent / "spawn.py"
IMPORTER = ["-c", "import binomlcm.cli"]
SETUP_TIMEOUT_S = 5.0
CHILD_TIMEOUT_S = 15.0  # over ten times a workload child's run time
MAX_SAMPLES = 200

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int | None  # None when killed at the timeout
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("BINOMLCM_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run `python args...` through spawn.py and collect its output and rusage."""
    report_r, report_w = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(SPAWN), str(report_w), str(timeout), sys.executable, *args],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            pass_fds=(report_w,),
        )
    finally:
        os.close(report_w)
    try:
        # spawn.py enforces the timeout; the margin only guards against
        # spawn.py itself hanging.
        out, err = proc.communicate(timeout=timeout + 30)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    with os.fdopen(report_r, "rb") as f:
        raw = f.read()
    report = json.loads(raw) if raw else {"wall_s": timeout, "cpu_s": 0.0, "maxrss_kib": 0, "code": None}
    return Child(
        wall_s=report["wall_s"],
        cpu_s=report["cpu_s"],
        peak_rss_mb=report["maxrss_kib"] / 1024,
        code=report["code"],
        stdout=out.decode("utf-8", "replace"),
        stderr=err.decode("utf-8", "replace"),
    )


def failure(w: Workload, n: int, expected: int, code: int | None, stdout: str) -> str | None:
    """Why a run failed, or None when it passed its output check."""
    if code is None:
        return "timed out"
    if code != 0:
        return f"exit code {code}"
    try:
        w.check(n, expected, stdout)
    except CheckFailed as exc:
        return str(exc)
    return None


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest sample with at least ten above it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    i = len(ordered) - 11
    return (100.0 * (i + 1) / len(ordered), ordered[i])


def describe(name: str, unit: str, values: list[float]) -> dict:
    high = high_percentile(values)
    return {
        "name": name,
        "unit": unit,
        "median": statistics.median(values),
        "high_percentile": None if high is None else {"p": high[0], "value": high[1]},
        "samples": len(values),
    }


def print_table(rows: list[dict]) -> None:
    for r in rows:
        high = r["high_percentile"]
        tail = "n/a (<11 samples)" if high is None else f"p{high['p']:.0f}={high['value']:.6g}"
        print(f"  {r['name']:<16} median={r['median']:.6g} {r['unit']:<3} {tail} samples={r['samples']}")


def sample(w: Workload, seed: int, expected: int) -> tuple[Child, bool]:
    """One workload child and whether it passed; a failure is printed."""
    child = run_child(["-m", "binomlcm.cli", *w.argv(seed)])
    why = failure(w, w.n(seed), expected, child.code, child.stdout)
    if why:
        print(f"  FAILED: {why}; stderr: {child.stderr.strip()[-300:]}")
    child.stdout = child.stderr = ""  # checked; a run keeps dozens of children
    return child, why is None


def run_children(w: Workload, seed: int, expected: int, seconds: float) -> tuple[list[float], list[Child], list[bool]]:
    """Import-only and workload children in turn until another pair would overrun `seconds`.

    Alternating them spreads the set-up samples over the whole run, so
    set-up time and the workload see the same spells of a busy host.
    """
    setup: list[float] = []
    children: list[Child] = []
    passed: list[bool] = []
    start = time.perf_counter()
    while len(children) < MAX_SAMPLES:
        setup.append(run_child(IMPORTER, SETUP_TIMEOUT_S).wall_s)
        child, ok = sample(w, seed, expected)
        children.append(child)
        passed.append(ok)
        typical = statistics.median(setup) + statistics.median(c.wall_s for c in children)
        if time.perf_counter() - start + typical > seconds:
            break
    return setup, children, passed


def end_to_end(w: Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """The contract result for --trace 0, and the detail behind it."""
    n = w.n(seed)
    expected = w.expect(n)
    run_child(IMPORTER, SETUP_TIMEOUT_S)  # warm the bytecode cache
    setup, children, passed = run_children(w, seed, expected, seconds)
    failed = passed.count(False)
    good = [c for c, ok in zip(children, passed) if ok] or children
    samples = {
        "wall_s": [c.wall_s for c in good],
        "cpu_s": [c.cpu_s for c in good],
        "peak_rss_mb": [c.peak_rss_mb for c in good],
        "setup_s": setup,
    }
    rows = [describe(k, END_TO_END_UNITS[k], v) for k, v in samples.items()]
    detail = {
        "workload": w.name,
        "seed": seed,
        "n": n,
        "argv": w.argv(seed),
        "end_to_end": rows,
        "fail_frac": failed / len(children),
    }
    result = {
        "correct": failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": {r["name"]: {"value": r["median"], "unit": r["unit"]} for r in rows},
    }
    return result, detail


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name, with its unit, in a fixed order."""
    names = {}
    for layer in LAYER_MAP.values():
        for span in layer["spans"]:
            names.update({f"{span}.calls": "count", f"{span}.total_s": "s", f"{span}.self_s": "s"})
        names.update(layer["counters"])
    names.update({"trace.untraced_cpu_s": "s", "trace.traced_cpu_s": "s", "trace.overhead_ratio": "ratio"})
    return names


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def in_process(cli, argv: list[str]) -> tuple[int, str, float]:
    """Exit code, stdout and CPU seconds of one ``cli.run(argv)`` in this process."""
    str_digits = sys.get_int_max_str_digits()
    buf = io.StringIO()
    cpu0 = time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
    finally:
        # decimal_str raises the process-wide limit; undo it so every
        # repetition starts from the same state.
        sys.set_int_max_str_digits(str_digits)
    return code, buf.getvalue(), time.process_time() - cpu0


def untraced_run(cli, w: Workload, seed: int, expected: int) -> tuple[float, str | None]:
    """CPU seconds of one in-process run without tracing, and why it failed."""
    code, stdout, cpu = in_process(cli, w.argv(seed))
    return cpu, failure(w, w.n(seed), expected, code, stdout)


def traced_run(cli, w: Workload, seed: int, expected: int) -> tuple[dict[str, float], str | None, list]:
    """One in-process run with every layer wrapped; restores all bindings."""
    tracer = layer_trace.Tracer()
    before = layer_trace.bindings("binomlcm")
    undo = layer_trace.install(tracer)
    try:
        code, stdout, cpu = in_process(cli, w.argv(seed))
    finally:
        layer_trace.uninstall(undo)
    if layer_trace.bindings("binomlcm") != before:
        raise RuntimeError("tracing left a binomlcm binding changed")
    c = tracer.counters
    values: dict[str, float] = {}
    summary = tracer.summary()
    for layer in LAYER_MAP.values():
        for span in layer["spans"]:
            agg = summary.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            values.update({f"{span}.{k}": v for k, v in agg.items()})
    values.update(
        {
            "digits.chars": c["digits.chars"],
            "digits.count_only_share": _share(c["digits.count_only_chars"], c["digits.chars"]),
            "bounds.records": c["bounds.records"],
            "engine.sieve_primes.primes": c["engine.sieve_primes.primes"],
            "engine.sieve_primes.distinct_limit_share": _share(
                len(tracer.sets["sieve_limits"]), values["engine.sieve_primes.calls"]
            ),
            "engine.expand.max_bits": c["engine.expand.max_bits"],
            "engine.iter_binomial_rows.rows": c["engine.iter_binomial_rows.rows"],
            "engine.fold.terms": c["engine.fold.terms"],
            "identities.reports": c["identities.reports"],
            "identities.row_reuse": _share(len(tracer.sets["row_ns"]), c["engine.iter_binomial_rows.rows"]),
            "cli.stdout_bytes": len(stdout.encode()),
            "trace.traced_cpu_s": cpu,
        }
    )
    return values, failure(w, w.n(seed), expected, code, stdout), tracer.spans


def import_cli():
    sys.path.insert(0, str(SRC))
    import binomlcm.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "binomlcm").resolve():
        raise RuntimeError(f"binomlcm imported from {cli.__file__}, not from {SRC}")
    return cli


def layered(w: Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """The contract result for --trace 1, and the detail behind it.

    Untraced and traced runs of the same command alternate in this
    process, so the overhead ratio compares runs made under the same
    machine load, neither paying for interpreter start-up or the import.
    """
    n = w.n(seed)
    expected = w.expect(n)
    cli = import_cli()
    untraced: list[float] = []
    reps: list[dict[str, float]] = []
    passed: list[bool] = []
    pairs: list[float] = []
    start = time.perf_counter()
    while len(reps) < MAX_SAMPLES:
        pair_start = time.perf_counter()
        cpu, why = untraced_run(cli, w, seed, expected)
        if why:
            print(f"  FAILED (untraced): {why}")
        untraced.append(cpu)
        passed.append(why is None)
        values, why, spans = traced_run(cli, w, seed, expected)
        if why:
            print(f"  FAILED (traced): {why}")
        reps.append(values)
        passed.append(why is None)
        pairs.append(time.perf_counter() - pair_start)
        if time.perf_counter() - start + statistics.median(pairs) > seconds:
            break
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans_{w.name}_{seed}.json"
    span_file.write_text(json.dumps({"fields": list(layer_trace.Span._fields), "spans": spans}))

    untraced_cpu = statistics.median_low(untraced)
    metrics = {}
    for name, unit in per_layer_names().items():
        if name == "trace.untraced_cpu_s":
            value = untraced_cpu
        elif name == "trace.overhead_ratio":
            value = metrics["trace.traced_cpu_s"]["value"] / untraced_cpu
        else:
            value = statistics.median_low(r[name] for r in reps)
        metrics[name] = {"value": value, "unit": unit}
    result = {
        "correct": all(passed),
        "attempted": len(passed),
        "failed": passed.count(False),
        "metrics": metrics,
    }
    detail = {
        "workload": w.name,
        "seed": seed,
        "n": n,
        "traced_reps": len(reps),
        "span_file": str(span_file.relative_to(ROOT)),
    }
    return result, detail


def print_layers(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "binomlcm" / "cli.py").is_file():
        print(f"run.py: no binomlcm source under {SRC}; run from a checkout's root", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.trace:
        result, detail = layered(w, args.seed, args.seconds)
        print(f"{w.name} n={detail['n']} traced reps={detail['traced_reps']}")
        print_layers(result["metrics"])
    else:
        result, detail = end_to_end(w, args.seed, args.seconds)
        print(f"{w.name} n={detail['n']} fail_frac={detail['fail_frac']:.6g}")
        print_table(detail["end_to_end"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
