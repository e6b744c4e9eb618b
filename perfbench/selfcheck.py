"""Self-check of the benchmark harness at its smallest setting.

Run from the repository root:

    python3 perfbench/selfcheck.py

For every workload, on the smoke inputs, it shows that
  * an untraced run passes every check, error_rate 0, and loads no wrapper;
  * a deliberately wrong expected digest raises error_rate above 0;
  * in a traced run the span self times, cli.main's included, cover at
    least 90% of the traced wall time;
and that run.py, started in a directory holding only BENCHMARK.json and
perfbench/, exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

MIN_COVERAGE = 0.9


def bare_directory_fails(root: Path) -> bool:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", wl.WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    printed_result = bool(lines) and lines[-1].startswith("{")
    print(f"bare directory: exit {proc.returncode}, result printed: {printed_result}")
    return proc.returncode != 0 and not printed_result


def main() -> int:
    root = run.checkout_root()
    failures = []
    for workload in wl.WORKLOADS:
        plain = run.measure(root, workload, 1, 1, 0, smoke=True)
        loads = plain["checks"]["untraced_loads_no_wrappers"]
        wrong = run.measure(root, workload, 1, 1, 0, smoke=True, wrong_digest=True)
        traced = run.measure(root, workload, 1, 1, 1, smoke=True)
        coverage = traced["metrics"]["trace.coverage"]
        rate = wrong["failed"] / wrong["attempted"]
        print(f"{workload}: error_rate {plain['failed']}/{plain['attempted']}; "
              f"wrong digest error_rate {rate:.4f} ({wrong['failed']}/{wrong['attempted']}); "
              f"untraced wrapper-free {loads[0] - loads[1]}/{loads[0]}; "
              f"traced coverage {coverage:.4f}; traced error_rate "
              f"{traced['failed']}/{traced['attempted']}")
        if plain["failed"] or traced["failed"]:
            failures.append(f"{workload}: checks failed on the real digest")
        if not wrong["checks"]["output_digest"][1]:
            failures.append(f"{workload}: a wrong digest went unnoticed")
        if loads[1] or not loads[0]:
            failures.append(f"{workload}: an untraced run loaded the wrappers")
        if coverage < MIN_COVERAGE:
            failures.append(f"{workload}: span coverage {coverage:.3f} < {MIN_COVERAGE}")
    if not bare_directory_fails(root):
        failures.append("run.py printed a result outside a checkout")
    for line in failures:
        print("FAIL", line)
    print("self-check", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
