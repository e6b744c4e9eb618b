"""Command-line drivers for reproducible batch runs.

Four subcommands: `psi` scans primes and checks the closed-form count,
`structure` runs the factorization-shape and graph checks, `isogeny`
exercises the explicit 3-isogeny identities at one (p, lambda), and
`average` computes window sums against the predicted constants.

`psi`, `structure` and `average` share one code path: after every refusal
check, the primes are listed once (the sieve `average.primes_below`),
`family.scan_primes` picks where they are scanned, and `_stream` writes
the rows, one per prime or per X in ascending order, to one sink: the
`--output` file or stdout.  Rows do not depend on where the scans ran, so
reruns with the same flags and seed are byte-identical.

A row is plain data (a dict keyed by its JSON keys, in output order, or
the `AverageRun` fields), and `_line` is the one formatter for all three
commands: compact JSON with floats rounded to six places, or CSV whose
columns are the leading JSON keys of the row, spelled with `-` for None,
lower-case bools and six decimals for floats.  A `structure` graph G_p is
spelled here too: `_graph_data` for the JSON row's `graph_data`, `_dot`
for the `--format dot` files.

Every request is checked against `limits` before any scan or trial starts;
a refused one raises LimitError, printed as `error: ...` (with a cost
estimate for a budget).  `psi` and `structure` admit a prime range whose
scans cost no more than those of the largest `average` run.  An `--output`
that cannot be created or opened is refused the same way, after those
checks and before any scan.

Exit status: 0 all checks passed, 1 at least one failed, 2 a request
refused as malformed, over a bound or budget, or with an unwritable
--output.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from functools import lru_cache
from pathlib import Path

from .average import (
    SKIP_CONVENTIONS,
    default_window,
    primes_below,
    window_sum_bruteforce,
    window_sums,
)
from .family import is_admissible, psi_p, scan_primes
from .fields import is_prime
from .isogenies import compose_is_minus3, verify_transcription
from .limits import (
    LimitError,
    check_bruteforce,
    check_budget,
    check_isogeny,
    check_scan_range,
)
from .structure import structure_verdict

DEFAULT_SEED = 1

USAGE_ERROR = 2

# the CSV columns of each row command: the leading JSON keys of its rows
PSI_COLUMNS = ("p", "class", "psi", "h_p", "h_3p", "ok")
STRUCTURE_COLUMNS = ("p", "class", "psi", "h_p", "h_3p", "closed_form", "shape", "graph")
AVERAGE_COLUMNS = ("mode", "X", "N", "total", "normalized", "predicted", "ratio")


def primes_in_range(lo: int, hi: int) -> list[int]:
    # the largest prime is found by stepping down from hi, so an oversized
    # range is refused before the others are listed
    top = hi
    while top >= lo and not is_prime(top):
        top -= 1
    check_scan_range(lo, hi, top)
    return [q for q in primes_below(top) if q >= lo] + [top]


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value).lower() if isinstance(value, bool) else str(value)


def _line(row: dict, columns) -> str:
    """The row as a CSV line of `columns`, or as compact JSON when columns is None."""
    if columns is not None:
        return ",".join(_cell(row[k]) for k in columns)
    row = {k: round(v, 6) if isinstance(v, float) else v for k, v in row.items()}
    return json.dumps(row, separators=(",", ":"))


def _graph_data(g) -> dict:
    """G_p as the `graph_data` of a JSON structure row."""
    return {
        "p": g.p,
        "vertices": list(g.vertices),
        "edges": [{"u": u, "v": v, "w": w} for u, v, w in g.edges],
    }


def _dot(g) -> str:
    """G_p as a DOT graph: its vertices, then its edges labelled by weight."""
    lines = [f"graph G_{g.p} {{"]
    lines += [f'  "{v}";' for v in g.vertices]
    lines += [f'  "{u}" -- "{v}" [label={w}];' for u, v, w in g.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _sink(output, directory=False):
    """Where the rows go: the --output file, its parent directories created,
    or stdout without one or when `output` is the directory for DOT files.

    A path that cannot be created or opened is refused as a LimitError.
    """
    try:
        if directory:
            Path(output).mkdir(parents=True, exist_ok=True)
        elif output:
            Path(output).parent.mkdir(parents=True, exist_ok=True)
            return open(output, "w", encoding="ascii", newline="\n")
    except OSError as exc:
        raise LimitError(f"cannot write --output {output}: {exc.strerror}") from None
    return contextlib.nullcontext(sys.stdout)


def _stream(header, rows, out) -> int:
    """Write the header lines, then each (line, ok) row; count the failed rows."""
    failures = 0
    for line in header:
        print(line, file=out)
    for line, ok in rows:
        print(line, file=out)
        failures += not ok
    return failures


def cmd_psi(args) -> int:
    primes = primes_in_range(args.from_, args.to)
    columns = PSI_COLUMNS if args.format == "csv" else None
    with _sink(args.output) as out:
        scan_primes(primes)
        rows = ((_line(r, columns), r["ok"]) for r in map(psi_p, primes))
        failures = _stream([",".join(columns)] if columns else [], rows, out)
    print(f"# psi: {len(primes)} primes, {failures} failures", file=sys.stderr)
    return 1 if failures else 0


def cmd_structure(args) -> int:
    dot = args.format == "dot"
    if dot and not args.output:
        raise LimitError("--format dot needs --output DIRECTORY")
    primes = primes_in_range(args.from_, args.to)
    columns = None if args.format == "json" else STRUCTURE_COLUMNS

    def rows():
        # --format dot writes one graph file per prime and the csv rows,
        # without their header, to stdout
        for p in primes:
            row, graph = structure_verdict(p)
            if dot and graph is not None:
                Path(args.output, f"g_{p}.dot").write_text(_dot(graph), encoding="ascii")
            if columns is None and graph is not None:
                row["graph_data"] = _graph_data(graph)
            ok = row["closed_form"] and row["shape"] is not False and row["graph"] is not False
            yield _line(row, columns), ok

    header = [",".join(STRUCTURE_COLUMNS)] if args.format == "csv" else []
    with _sink(args.output, directory=dot) as out:
        scan_primes(primes)
        failures = _stream(header, rows(), out)
    print(f"# structure: {len(primes)} primes, {failures} failures", file=sys.stderr)
    return 1 if failures else 0


def cmd_isogeny(args) -> int:
    p, lam = args.p, args.lam
    if not is_prime(p) or p < 5:
        raise LimitError(f"p={p} is not a prime >= 5")
    check_isogeny(p, args.trials)
    if not is_admissible(lam, p):
        raise LimitError(f"lambda={lam} is inadmissible mod {p}")
    verify_transcription(lam, p)
    print(f"anchors p={p} lambda={lam}: pass")
    ok = compose_is_minus3(lam, p, trials=args.trials, seed=args.seed)
    print(f"compose [-3] p={p} lambda={lam} trials={args.trials} seed={args.seed}: "
          f"{'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_average(args) -> int:
    mode = args.mode
    xs = sorted(set(args.X))
    # refuse a malformed or oversized row before any row is computed
    if xs[0] < 2 or (args.N is not None and args.N < 1):
        raise LimitError(f"need X >= 2 and N >= 1, got X={xs[0]}, N={args.N}")
    windows = [(X, args.N if args.N is not None else default_window(X)) for X in xs]
    for X, N in windows:
        check_budget(X, N, mode)
        if args.check_bruteforce:
            check_bruteforce(X, N)
    columns = AVERAGE_COLUMNS if args.format == "csv" else None

    def rows(runs):
        for run in runs:
            X, N = run.X, run.N
            if N < X:
                print(f"# warning: N={N} < X={X}, outside the N > X regime; "
                      "computed anyway", file=sys.stderr)
            match = True
            if args.check_bruteforce:
                brute = window_sum_bruteforce(X, N, mode)
                match = brute == run.total
                print(f"# bruteforce {mode} X={X} N={N}: {brute} "
                      f"({'match' if match else 'MISMATCH'})", file=sys.stderr)
            yield _line(dataclasses.asdict(run), columns), match

    header = [f"# {SKIP_CONVENTIONS}"] + ([",".join(columns)] if columns else [])
    with _sink(args.output) as out:
        # every row's primes are below the largest X, so one pool scans them all
        scan_primes(primes_below(xs[-1]))
        mismatches = _stream(header, rows(window_sums(windows, mode)), out)
    print(f"# average: {len(windows)} row(s), mode={mode}", file=sys.stderr)
    return 1 if mismatches else 0


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged and returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="s3genus2",
        description="superspecial counting and class-polynomial checks for the "
        "S3 genus-2 family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_range(sp):
        sp.add_argument("--from", dest="from_", type=int, required=True,
                        help="lower end of the prime range (>= 5)")
        sp.add_argument("--to", type=int, required=True,
                        help="upper end of the prime range (inclusive)")
        sp.add_argument("--output", help="write rows to this file")

    p_psi = sub.add_parser("psi", help="per-prime superspecial counts and the "
                           "closed-form verdict")
    add_range(p_psi)
    p_psi.add_argument("--format", choices=("json", "csv"), default="json")
    p_psi.set_defaults(func=cmd_psi)

    p_struct = sub.add_parser("structure", help="factorization-shape and graph "
                              "checks per prime")
    add_range(p_struct)
    p_struct.add_argument("--format", choices=("json", "csv", "dot"), default="csv")
    p_struct.set_defaults(func=cmd_structure)

    p_iso = sub.add_parser("isogeny", help="anchor and composition checks for "
                           "one (p, lambda)")
    p_iso.add_argument("--p", type=int, required=True)
    p_iso.add_argument("--lambda", dest="lam", type=int, required=True)
    p_iso.add_argument("--trials", type=int, default=50)
    p_iso.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_iso.set_defaults(func=cmd_isogeny)

    p_avg = sub.add_parser("average", help="window sums against the predicted "
                           "constants")
    p_avg.add_argument("--X", type=int, action="append", required=True,
                       help="prime bound; repeat for a convergence table")
    p_avg.add_argument("--N", type=int, default=None,
                       help="window size (default: ceil(X^1.1))")
    p_avg.add_argument("--mode", choices=("integer", "rational"), default="integer")
    p_avg.add_argument("--check-bruteforce", action="store_true",
                       help="compare against the direct double loop (small runs)")
    p_avg.add_argument("--output", help="write rows to this file")
    p_avg.add_argument("--format", choices=("json", "csv"), default="csv")
    p_avg.set_defaults(func=cmd_average)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
