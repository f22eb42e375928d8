"""Command-line interface.

Subcommands::

    lcm-range N                 exact lcm(1..N)
    row-lcm N [--method M]      lcm of C(N,0..N) by one of three routes
    verify --theorem T --from A --to B
                                machine-verify identities over a range
    bounds --to N [--step S]    growth bounds and psi_over_n table
    bench {row,range} --ns LIST --reps R
                                timing with correctness attestation

Every subcommand takes --format {plain,json,csv} (default plain). Data
goes to stdout, diagnostics to stderr, so output is pipe-safe. Identical
argv produces byte-identical output, bench timings excepted.

Exit codes: 0 success; 1 a verification, bound, or internal-consistency
check reported false; 2 usage or domain error; 3 resource-cap error.

Resource caps come from defaults, then BINOMLCM_MAX_* environment
variables, then --max-* flags (flags win).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .bench import BENCH_CSV_HEADER, bench_range_methods, bench_row_methods
from .bounds import BOUNDS_CSV_HEADER, format_psi, psi_table
from .caps import ResourceCaps
from .digits import decimal_digits, decimal_str
from .engine import lcm_range, row_lcm_farhi, row_lcm_naive, row_lcm_valuation
from .errors import DomainError, InternalConsistencyError, ResourceCapError
from .identities import Theorem, verify_range

# In the fixed order of --theorem all, so CI logs are reproducible.
_THEOREM_BY_FLAG = {
    "1": Theorem.T1,
    "2": Theorem.T2,
    "3": Theorem.T3,
    "4": Theorem.T4,
    "5": Theorem.T5,
    "termwise": Theorem.TERMWISE,
    "chain": Theorem.CHAIN,
}

_CAP_FLAGS = {
    "max_sieve": "sieve_limit",
    "max_row": "full_row_n",
    "max_fold": "fold_range_n",
    "max_valuation": "valuation_n",
}


def _cap_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("resource caps")
    g.add_argument("--max-sieve", type=int, metavar="N", help="sieve limit (env BINOMLCM_MAX_SIEVE)")
    g.add_argument("--max-row", type=int, metavar="N", help="full-row n cap (env BINOMLCM_MAX_ROW)")
    g.add_argument("--max-fold", type=int, metavar="N", help="fold range-lcm n cap (env BINOMLCM_MAX_FOLD)")
    g.add_argument("--max-valuation", type=int, metavar="N", help="valuation-method n cap (env BINOMLCM_MAX_VALUATION)")
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain", help="output format (default plain)")
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binomlcm",
        description="Exact lcm computation and identity verification for binomial rows.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    cap_parent = _cap_parent()

    p = sub.add_parser("lcm-range", parents=[cap_parent], help="exact lcm(1..N)")
    p.add_argument("n", type=int)
    p.add_argument("--digits-only", action="store_true", help="print the digit count instead of the value")
    p.set_defaults(handler=_cmd_lcm_range)

    p = sub.add_parser("row-lcm", parents=[cap_parent], help="lcm of the binomial row C(N,0..N)")
    p.add_argument("n", type=int)
    p.add_argument("--method", choices=["naive", "farhi", "valuation"], default="farhi")
    p.add_argument("--digits-only", action="store_true", help="print the digit count instead of the value")
    p.set_defaults(handler=_cmd_row_lcm)

    p = sub.add_parser("verify", parents=[cap_parent], help="verify identities over a range of n")
    p.add_argument("--theorem", choices=[*_THEOREM_BY_FLAG, "all"], required=True)
    p.add_argument("--from", dest="first", type=int, required=True, metavar="A")
    p.add_argument("--to", dest="last", type=int, required=True, metavar="B")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("bounds", parents=[cap_parent], help="growth bounds and psi_over_n table")
    p.add_argument("--to", dest="max_n", type=int, required=True, metavar="N")
    p.add_argument("--step", type=int, default=1)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("bench", parents=[cap_parent], help="time the competing methods (verified first)")
    p.add_argument("task", choices=["row", "range"])
    p.add_argument("--ns", type=_int_list, required=True, metavar="N1,N2,...")
    p.add_argument("--reps", type=int, default=5)
    p.set_defaults(handler=_cmd_bench)

    return parser


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}") from exc


def _resolve_caps(args: argparse.Namespace) -> ResourceCaps:
    caps = ResourceCaps.from_env()
    overrides = {
        field: getattr(args, flag)
        for flag, field in _CAP_FLAGS.items()
        if getattr(args, flag, None) is not None
    }
    return caps.replace(**overrides) if overrides else caps


# --- subcommand handlers ----------------------------------------------------


def _emit_value(args, n: int, value: int, extra: dict) -> None:
    if args.format == "plain":
        print(decimal_digits(value) if args.digits_only else decimal_str(value))
        return
    doc = {"n": n, **extra, "digits": decimal_digits(value)}
    if not args.digits_only:
        doc["value"] = decimal_str(value)
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        header = [k for k in doc if k != "factorization"]
        writer.writerow(header)
        writer.writerow([doc[k] for k in header])


def _cmd_lcm_range(args, caps) -> int:
    factorization = lcm_range(args.n, caps=caps)
    _emit_value(args, args.n, factorization.expand(), {"factorization": factorization.to_pairs()})
    return 0


def _cmd_row_lcm(args, caps) -> int:
    if args.method == "naive":
        value = row_lcm_naive(args.n, caps=caps)
        extra: dict = {"method": "naive"}
    elif args.method == "farhi":
        value = row_lcm_farhi(args.n, caps=caps)
        extra = {"method": "farhi"}
    else:
        factorization = row_lcm_valuation(args.n, caps=caps)
        value = factorization.expand()
        extra = {"method": "valuation", "factorization": factorization.to_pairs()}
    _emit_value(args, args.n, value, extra)
    return 0


def _report_ok(report) -> bool:
    return report.all_equal if hasattr(report, "all_equal") else report.holds


def _verify_plain_line(report) -> str:
    if hasattr(report, "all_equal"):
        status = "ok" if report.all_equal else "FAIL"
        return (
            f"CHAIN n={report.n} {status} nair={decimal_str(report.q_nair)} "
            f"thm4_rhs={decimal_str(report.q_thm4_rhs)} "
            f"thm3_lhs={decimal_str(report.q_thm3_lhs)} range={decimal_str(report.q_range)}"
        )
    status = "ok" if report.holds else "FAIL"
    return (
        f"{report.theorem.value} n={report.n} {status} "
        f"lhs={decimal_str(report.lhs)} rhs={decimal_str(report.rhs)}"
    )


def _verify_csv_row(report) -> list[str]:
    if hasattr(report, "all_equal"):
        # Chain reports are flattened onto the identity columns: the
        # chain's endpoints become lhs/rhs. Full detail is in JSON.
        return [
            "CHAIN",
            str(report.n),
            decimal_str(report.q_nair),
            decimal_str(report.q_range),
            "true" if report.all_equal else "false",
            "weighted row fold (chain head)",
            "prime-power factorization of lcm(1..n) (chain tail)",
        ]
    return [
        report.theorem.value,
        str(report.n),
        decimal_str(report.lhs),
        decimal_str(report.rhs),
        "true" if report.holds else "false",
        report.lhs_method,
        report.rhs_method,
    ]


def _cmd_verify(args, caps) -> int:
    flags = _THEOREM_BY_FLAG if args.theorem == "all" else [args.theorem]
    reports = verify_range([_THEOREM_BY_FLAG[f] for f in flags], args.first, args.last, caps=caps)
    if args.format == "plain":
        for report in reports:
            print(_verify_plain_line(report))
    elif args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["theorem", "n", "lhs", "rhs", "holds", "lhs_method", "rhs_method"])
        for report in reports:
            writer.writerow(_verify_csv_row(report))
    return 0 if all(_report_ok(r) for r in reports) else 1


def _cmd_bounds(args, caps) -> int:
    records = psi_table(args.max_n, args.step, caps=caps)
    if args.format == "plain":
        print(f"{'n':>10} {'lcm_digits':>11} {'2^(n-1)':>8} {'2^n':>6} {'3^n':>6} {'psi_over_n':>16}")
        for r in records:
            print(
                f"{r.n:>10} {r.lcm_digits:>11} "
                f"{'ok' if r.lower_2nm1_holds else 'FAIL':>8} "
                f"{('ok' if r.lower_2n_holds else 'FAIL') if r.lower_2n_required else ('(' + ('ok' if r.lower_2n_holds else 'no') + ')'):>6} "
                f"{'ok' if r.upper_3n_holds else 'FAIL':>6} "
                f"{format_psi(r.psi_over_n):>16}"
            )
    elif args.format == "json":
        print(json.dumps([r.to_json_dict() for r in records], indent=2))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(BOUNDS_CSV_HEADER)
        for r in records:
            writer.writerow(r.to_csv_row())
    return 0 if all(r.enforced_ok for r in records) else 1


def _cmd_bench(args, caps) -> int:
    runner = bench_row_methods if args.task == "row" else bench_range_methods
    records = runner(args.ns, args.reps, caps=caps)
    if args.format == "plain":
        for r in records:
            print(
                f"{r.task.value} {r.method} n={r.n} reps={r.reps} "
                f"median={r.median_ns}ns p90={r.p90_ns}ns digits={r.digits} verified={str(r.verified).lower()}"
            )
    elif args.format == "json":
        print(json.dumps([r.to_json_dict() for r in records], indent=2))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(BENCH_CSV_HEADER)
        for r in records:
            writer.writerow(r.to_csv_row())
    return 0


def run(argv: list[str]) -> int:
    """Dispatch one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        caps = _resolve_caps(args)
        return args.handler(args, caps)
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. | head); not our error.
        # Point stdout at devnull so the interpreter's exit flush
        # doesn't raise a second time.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return 0
    except DomainError as exc:
        print(f"binomlcm: domain error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"binomlcm: resource cap: {exc}", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"binomlcm: internal consistency: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"binomlcm: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
