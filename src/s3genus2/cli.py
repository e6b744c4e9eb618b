"""Command-line drivers for reproducible batch runs.

Four subcommands: `psi` scans primes and checks the closed-form count,
`structure` runs the factorization-shape and graph checks, `isogeny`
exercises the explicit 3-isogeny identities at one (p, lambda), and
`average` computes window sums against the predicted constants.  Output is
streamed one row per prime in ascending order (worker results are
reordered), so reruns with the same flags and seed are byte-identical.

Exit status: 0 all checks passed, 1 at least one failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .average import (
    SKIP_CONVENTIONS,
    AverageRun,
    BudgetError,
    check_budget,
    default_window,
    primes_below,
    window_sum,
    window_sum_bruteforce,
)
from .family import (
    PSI_CSV_HEADER,
    VECTOR_MODULUS_BOUND,
    PsiReport,
    psi_p,
    seed_scan_cache,
    superspecial_lambdas,
)
from .fields import MAX_MODULUS, is_prime
from .isogenies import compose_is_minus3, verify_transcription
from .structure import StructureVerdict, structure_verdict

DEFAULT_SEED = 1
BRUTEFORCE_X_CAP = 200
BRUTEFORCE_N_CAP = 2000

USAGE_ERROR = 2


class UsageError(ValueError):
    pass


def primes_in_range(lo: int, hi: int) -> list[int]:
    if lo < 5:
        raise UsageError(f"--from must be at least 5, got {lo}")
    if hi < lo:
        raise UsageError(f"empty prime range [{lo}, {hi}]")
    primes = [p for p in range(lo, hi + 1) if is_prime(p)]
    if not primes:
        raise UsageError(f"no primes in [{lo}, {hi}]")
    if primes[-1] >= VECTOR_MODULUS_BOUND:
        raise UsageError(
            f"p={primes[-1]} is at or above the scan's int64 bound "
            f"VECTOR_MODULUS_BOUND = 2^{VECTOR_MODULUS_BOUND.bit_length() - 1} "
            f"= {VECTOR_MODULUS_BOUND}"
        )
    return primes


def _scan_worker(p: int) -> tuple[int, tuple[int, ...]]:
    return p, superspecial_lambdas(p)


def _prefill_scans(primes, threads: int) -> None:
    """Run the per-prime lambda scans on a worker pool, largest first."""
    if threads <= 1:
        return
    from concurrent.futures import ProcessPoolExecutor

    todo = sorted(primes, reverse=True)
    with ProcessPoolExecutor(max_workers=threads) as pool:
        seed_scan_cache(pool.map(_scan_worker, todo, chunksize=4))


def _open_output(args):
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "w", encoding="ascii", newline="\n")
    return None


def _emit(stream, line: str) -> None:
    if stream is None:
        print(line)
    else:
        stream.write(line + "\n")


def cmd_psi(args) -> int:
    primes = primes_in_range(args.from_, args.to)
    _prefill_scans(primes, args.threads)
    out = _open_output(args)
    try:
        if args.format == "csv":
            _emit(out, PSI_CSV_HEADER)
        failures = 0
        for p in primes:
            report: PsiReport = psi_p(p)
            if not report.closed_form_ok:
                failures += 1
            _emit(out, report.to_csv_row() if args.format == "csv" else report.to_json())
        print(f"# psi: {len(primes)} primes, {failures} failures", file=sys.stderr)
        return 1 if failures else 0
    finally:
        if out:
            out.close()


def cmd_structure(args) -> int:
    primes = primes_in_range(args.from_, args.to)
    _prefill_scans(primes, args.threads)
    dot_dir = None
    out = None
    if args.format == "dot":
        if not args.output:
            raise UsageError("--format dot needs --output DIRECTORY")
        dot_dir = Path(args.output)
        dot_dir.mkdir(parents=True, exist_ok=True)
    else:
        out = _open_output(args)
    try:
        if args.format == "csv":
            _emit(out, StructureVerdict.CSV_HEADER)
        failures = 0
        for p in primes:
            verdict, graph = structure_verdict(p)
            if not verdict.ok:
                failures += 1
            if args.format == "dot":
                if graph is not None:
                    (dot_dir / f"g_{p}.dot").write_text(graph.to_dot(), encoding="ascii")
                print(verdict.to_csv_row())
            elif args.format == "csv":
                _emit(out, verdict.to_csv_row())
            else:
                _emit(out, verdict.to_json(graph))
        print(f"# structure: {len(primes)} primes, {failures} failures", file=sys.stderr)
        return 1 if failures else 0
    finally:
        if out:
            out.close()


def cmd_isogeny(args) -> int:
    p, lam = args.p, args.lam
    if not is_prime(p) or p < 5:
        raise UsageError(f"p={p} is not a prime >= 5")
    if p >= MAX_MODULUS:
        raise UsageError(f"p={p} is at or above MAX_MODULUS = 2^31 = {MAX_MODULUS}")
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    if lam % p in (0, 1) or (lam * lam - lam + 1) % p == 0:
        raise UsageError(f"lambda={lam} is inadmissible mod {p}")
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
        raise UsageError(f"need X >= 2 and N >= 1, got X={xs[0]}, N={args.N}")
    windows = [(X, args.N if args.N is not None else default_window(X)) for X in xs]
    for X, N in windows:
        check_budget(X, N, mode)
        if args.check_bruteforce and (X > BRUTEFORCE_X_CAP or N > BRUTEFORCE_N_CAP):
            raise UsageError(
                f"--check-bruteforce capped at X <= {BRUTEFORCE_X_CAP}, "
                f"N <= {BRUTEFORCE_N_CAP}"
            )
    out = _open_output(args)
    try:
        rows: list[AverageRun] = []
        header = f"# {SKIP_CONVENTIONS}"
        _emit(out, header)
        if args.format == "csv":
            _emit(out, AverageRun.CSV_HEADER)
        status = 0
        for X, N in windows:
            if N < X:
                print(f"# warning: N={N} < X={X}, outside the N > X regime; "
                      "computed anyway", file=sys.stderr)
            _prefill_scans(primes_below(X), args.threads)
            run = window_sum(X, N, mode)
            if args.check_bruteforce:
                brute = window_sum_bruteforce(X, N, mode)
                match = "match" if brute == run.total else "MISMATCH"
                print(f"# bruteforce {mode} X={X} N={N}: {brute} ({match})",
                      file=sys.stderr)
                if brute != run.total:
                    status = 1
            rows.append(run)
            if args.format == "csv":
                _emit(out, run.to_csv_row())
            else:
                _emit(out, json.dumps(run.to_json_dict(), separators=(",", ":")))
        print(f"# average: {len(rows)} row(s), mode={mode}", file=sys.stderr)
        return status
    finally:
        if out:
            out.close()


def build_parser() -> argparse.ArgumentParser:
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
        sp.add_argument("--threads", type=int, default=1,
                        help="worker processes for the per-prime scans")
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
    p_avg.add_argument("--threads", type=int, default=1)
    p_avg.add_argument("--output", help="write rows to this file")
    p_avg.add_argument("--format", choices=("json", "csv"), default="csv")
    p_avg.set_defaults(func=cmd_average)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
