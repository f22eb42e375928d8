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

Exit codes: 0 success; 1 some record is not ok (a check reported false)
or an internal-consistency check failed; 2 usage or domain error; 3
resource-cap error.

Resource caps come from defaults, then BINOMLCM_MAX_* environment
variables, then --max-* flags (flags win).
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from itertools import islice

from .bounds import BOUNDS_CSV_HEADER, BOUNDS_PLAIN_HEADER, iter_psi_table
from .caps import CAP_FIELDS, ResourceCaps
from .digits import decimal_digits, decimal_str, json_str
from .engine import ROW_ROUTES, PrimePowerFactorization, lcm_range
from .errors import DomainError, InternalConsistencyError, ResourceCapError
from .identities import IDENTITY_CSV_HEADER, Theorem, verify_range

# In the fixed order of --theorem all, so CI logs are reproducible.
_THEOREM_BY_FLAG = {
    "1": Theorem.T1, "2": Theorem.T2, "3": Theorem.T3, "4": Theorem.T4, "5": Theorem.T5,
    "termwise": Theorem.TERMWISE, "chain": Theorem.CHAIN,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    # The options every subcommand takes, in the order its usage lists them.
    g = p.add_argument_group("resource caps")
    for field in CAP_FIELDS:
        # BINOMLCM_MAX_<CAP> -> --max-<cap>
        flag = "--" + field.env.removeprefix("BINOMLCM_").lower().replace("_", "-")
        g.add_argument(flag, dest=field.name, type=int, metavar="N", help=f"{field.help} (env {field.env})")
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain", help="output format (default plain)")


def _lcm_range_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=int)
    p.add_argument("--digits-only", action="store_true", help="print the digit count instead of the value")
    p.set_defaults(handler=_cmd_lcm_range)


def _row_lcm_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=int)
    p.add_argument("--method", choices=ROW_ROUTES, default="farhi")
    p.add_argument("--digits-only", action="store_true", help="print the digit count instead of the value")
    p.set_defaults(handler=_cmd_row_lcm)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theorem", choices=[*_THEOREM_BY_FLAG, "all"], required=True)
    p.add_argument("--from", dest="first", type=int, required=True, metavar="A")
    p.add_argument("--to", dest="last", type=int, required=True, metavar="B")
    p.set_defaults(handler=_cmd_verify)


def _bounds_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--to", dest="max_n", type=int, required=True, metavar="N")
    p.add_argument("--step", type=int, default=1)
    p.set_defaults(handler=_cmd_bounds)


def _bench_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("task", choices=["row", "range"])
    p.add_argument("--ns", type=_int_list, required=True, metavar="N1,N2,...")
    p.add_argument("--reps", type=int, default=5)
    p.set_defaults(handler=_cmd_bench)


# name -> (help line, adds its own arguments), in the order --help lists them.
_COMMANDS = {
    "lcm-range": ("exact lcm(1..N)", _lcm_range_args),
    "row-lcm": ("lcm of the binomial row C(N,0..N)", _row_lcm_args),
    "verify": ("verify identities over a range of n", _verify_args),
    "bounds": ("growth bounds and psi_over_n table", _bounds_args),
    "bench": ("time the competing methods (verified first)", _bench_args),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv: every subcommand listed, only argv's given its arguments.

    argparse reads the subcommand from the first positional token, and
    the top level takes no option with a value, so the first token of
    argv that names a subcommand is the one parsed (a token before it
    would be an invalid choice). The others keep only their help line,
    which is all that the top-level help and usage errors print.
    """
    parser = argparse.ArgumentParser(
        prog="binomlcm",
        description="Exact lcm computation and identity verification for binomial rows.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    chosen = next((token for token in argv if token in _COMMANDS), None)
    for name, (help_line, add_args) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name == chosen:
            _add_common(p)
            add_args(p)
    return parser


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}") from exc


def _resolve_caps(args: argparse.Namespace) -> ResourceCaps:
    flags = {field.name: getattr(args, field.name) for field in CAP_FIELDS}
    return ResourceCaps.from_env().replace(**{name: v for name, v in flags.items() if v is not None})


# Records per stdout write. Every write to the text layer has a fixed
# cost, and with unbuffered stdout (python -u, PYTHONUNBUFFERED) it is
# also a system call; one write per record measurably slows a large report.
_BATCH = 64
# Factorization pairs per stdout write; a pair's JSON text is about 30 bytes.
_PAIR_BATCH = 4096


def _emit(args, records, csv_header, plain_header=None) -> int:
    """Print records in args.format; 1 if any record is not ok, else 0.

    A record (identity, chain, bounds or bench) has plain_line(),
    to_csv_row(), to_json_text() and ok. Records are written as they
    come, in one pass, so records may be any iterable. They are taken
    _BATCH at a time, every record's ok is read, and each batch goes out
    as one string in one write, the header or the opening bracket in the
    first. The bytes are those of print(r.plain_line()) per record, of a
    csv.writer's writerow per row, or of print(json.dumps(list, indent=2))
    over the records' objects: each to_json_text() is its object at
    depth 1 of that layout, so JSON is one document, never held whole.
    csv is imported only by the format that writes it.
    """
    fmt = args.format
    if fmt == "json":
        first, later, closing, empty = "[\n  ", ",\n  ", "\n]\n", "[]\n"
    else:
        first = later = closing = ""
        if fmt == "csv":
            import csv

            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(csv_header)  # stays in the buffer for the first batch
            empty = buffer.getvalue()
        else:
            first = empty = "" if plain_header is None else plain_header + "\n"
    ok = True
    lead, wrote = first, False
    records = iter(records)
    while batch := list(islice(records, _BATCH)):
        for r in batch:
            ok &= r.ok
        if fmt == "json":
            text = ",\n  ".join([r.to_json_text() for r in batch])
        elif fmt == "csv":
            writer.writerows([r.to_csv_row() for r in batch])
            text = buffer.getvalue()
            buffer.seek(0)
            buffer.truncate()
        else:
            text = "".join([r.plain_line() + "\n" for r in batch])
        sys.stdout.write(lead + text)
        lead, wrote = later, True
    tail = closing if wrote else empty
    if tail:
        sys.stdout.write(tail)
    return 0 if ok else 1


def _emit_value(args, result, **extra) -> int:
    """Print one lcm, given as an int or as its factorization (JSON keeps it).

    A factorization is multiplied out only when its value is printed;
    its digit count alone comes from PrimePowerFactorization.digit_count.
    JSON is print(json.dumps(doc, indent=2)) of the document {n, extra...,
    factorization: [[p, e], ...], digits, value}, written as text: the
    pairs are read off items() _PAIR_BATCH at a time, each batch in one
    write, so neither a list of pairs nor the whole text is ever held.
    """
    factored = isinstance(result, PrimePowerFactorization)
    if args.digits_only:
        text = None
        digits = result.digit_count() if factored else decimal_digits(result)
    else:
        text = decimal_str(result.expand() if factored else result)
        digits = len(text)
    if args.format == "plain":
        print(digits if text is None else text)
        return 0
    fields = {"n": args.n, **extra, "digits": digits}
    if text is not None:
        fields["value"] = text
    if args.format == "csv":
        import csv

        csv.writer(sys.stdout, lineterminator="\n").writerows([list(fields), list(fields.values())])
        return 0
    members = [f'  "{k}": {json_str(v) if isinstance(v, str) else v}' for k, v in fields.items()]
    ahead = 1 + len(extra)  # n and extra come before the factorization
    write = sys.stdout.write
    lead = "{\n" + "".join(m + ",\n" for m in members[:ahead])
    if factored:
        pairs = result.items()
        if batch := list(islice(pairs, _PAIR_BATCH)):
            lead += '  "factorization": [\n'
            while batch:
                write(lead + ",\n".join([f"    [\n      {p},\n      {e}\n    ]" for p, e in batch]))
                lead = ",\n"
                batch = list(islice(pairs, _PAIR_BATCH))
            lead = "\n  ],\n"
        else:
            lead += '  "factorization": [],\n'
    write(lead + ",\n".join(members[ahead:]) + "\n}\n")
    return 0


def _cmd_lcm_range(args, caps) -> int:
    return _emit_value(args, lcm_range(args.n, caps=caps))


def _cmd_row_lcm(args, caps) -> int:
    return _emit_value(args, ROW_ROUTES[args.method](args.n, caps), method=args.method)


def _cmd_verify(args, caps) -> int:
    flags = _THEOREM_BY_FLAG if args.theorem == "all" else [args.theorem]
    reports = verify_range([_THEOREM_BY_FLAG[f] for f in flags], args.first, args.last, caps=caps)
    return _emit(args, reports, IDENTITY_CSV_HEADER)


def _cmd_bounds(args, caps) -> int:
    return _emit(args, iter_psi_table(args.max_n, args.step, caps=caps), BOUNDS_CSV_HEADER, BOUNDS_PLAIN_HEADER)


def _cmd_bench(args, caps) -> int:
    from .bench import BENCH_CSV_HEADER, bench_range_methods, bench_row_methods

    runner = bench_row_methods if args.task == "row" else bench_range_methods
    return _emit(args, runner(args.ns, args.reps, caps=caps), BENCH_CSV_HEADER)


def run(argv: list[str]) -> int:
    """Dispatch one invocation; returns the process exit code."""
    parser = _build_parser(argv)
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


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
