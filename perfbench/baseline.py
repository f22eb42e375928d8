"""Run every workload end to end and traced, print the metrics, write BENCH_seed.json.

Run from the root of a checkout:

    python3 perfbench/baseline.py

Each run uses seed 0 and lasts BENCHMARK.json's run_seconds, so the
baseline matches the runs it is compared with.

Prints each end-to-end metric per workload by name and unit (median,
highest percentile with ten samples beyond it, sample count), fail_frac,
and each workload's largest per-layer self times. The result file, under
perfbench/results/, also records the Python version, nproc, the machine,
the seed, each workload's command and reason, and the layer map.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import run
from workloads import LAYER_MAP, WORKLOADS

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SEED = 0


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    report = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "seed": SEED,
        "seconds": seconds,
        "workloads": {},
        "layers": LAYER_MAP,
    }
    ok = True
    for w in WORKLOADS.values():
        result, detail = run.end_to_end(w, SEED, seconds)
        traced, traced_detail = run.layered(w, SEED, seconds)
        ok = ok and result["correct"] and traced["correct"]
        print(f"{w.name}: binomlcm {' '.join(w.argv(SEED))}")
        run.print_table(detail["end_to_end"])
        print(f"  {'fail_frac':<16} {detail['fail_frac']:.6g} ({result['failed']}/{result['attempted']})")
        spans = sorted(
            (name[: -len(".self_s")], m["value"])
            for name, m in traced["metrics"].items()
            if name.endswith(".self_s")
        )
        for name, self_s in sorted(spans, key=lambda kv: -kv[1])[:4]:
            print(f"  self {name:<38} {self_s:.4g} s")
        print(f"  trace overhead {traced['metrics']['trace.overhead_ratio']['value']:.4g}x untraced in-process CPU")
        report["workloads"][w.name] = {
            "command": w.command(),
            "why": w.why,
            "n": detail["n"],
            "end_to_end": detail["end_to_end"],
            "fail_frac": detail["fail_frac"],
            "attempted": result["attempted"] + traced["attempted"],
            "failed": result["failed"] + traced["failed"],
            "per_layer": traced["metrics"],
        }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / "BENCH_seed.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
