"""The s3genus2 benchmark: one workload, one seed, a fixed measuring time.

Run from the repository root:

    python3 perfbench/run.py --workload psi-scan --seed 1 --seconds 30 --trace 0

Each repetition runs the workload's seeded inputs through `s3genus2.cli`
in a fresh single-threaded process (perfbench/worker.py; `--threads 1`,
no worker pool).  Repetitions follow each other until the time is used,
at least MIN_REPS of them, and a few set-up-only processes add samples of
the set-up time.  Every figure but wall_s is the median over the
repetitions.

--trace 0 reports the end-to-end metrics: setup_s, wall_s, peak_rss_mb.
wall_s, the time to solution, is summed line by line: each repetition
notes when every line of output is complete, and wall_s is the sum over
those segments of each one's second-slowest time over the repetitions.
A shared host runs in speed phases of seconds to minutes: a steady slow
state, and bursts up to a third faster whose share changes from minute
to minute.  The slow state is the one that repeats, and a segment's
second-slowest time reads it while ignoring one stray slow sample; the
segments of one repetition fall in different phases, so the sum does
not take a whole repetition's phase as a block.  Over ten 30 s runs per
workload on a 2-vCPU host, the spread (q3 - q1) / median of wall_s was
0.10-0.30 with each segment's median and 0.05-0.10 with its
second-slowest time.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of layertrace.py plus trace.overhead_s, the traced
minus the untraced wall time.

Every repetition checks its output: exit statuses, each row's own verdict,
the stdout digest against the golden output recorded at the reference
commit (perfbench/golden), and in the first repetition seeded samples
against the exact oracles.  error_rate = failed / attempted checks.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; a result set with the machine record and every
repetition goes to perfbench/out/.  Exit status 0 when every check passed,
1 when one failed, 2 when the directory holds no s3genus2 checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
SETUP_ONLY_RUNS = 8
MIN_REPS = {0: 3, 1: 4}  # trace 1: two untraced and two traced
HARD_LIMIT_S = 170.0  # every run ends well inside the 180 s allowed

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class CheckoutError(RuntimeError):
    pass


def checkout_root() -> Path:
    """The repository root the benchmark runs in, with its inputs present."""
    root = Path.cwd()
    needed = [root / "src" / "s3genus2" / "cli.py"]
    needed += [wl.GOLDEN / n for n in ("psi.csv", "structure.csv", "average.csv", "isogeny.json")]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        raise CheckoutError("not an s3genus2 checkout; missing " + ", ".join(missing))
    return root


def _read(path: str, key: str) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine(root: Path) -> dict:
    """The machine and source the result set was measured on."""
    versions = {}
    for dist in ("numpy", "mpmath"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    commit = None
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, check=False)
        commit = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "s3genus2").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    mem_kb = _read("/proc/meminfo", "MemTotal")
    golden = json.loads((wl.GOLDEN / "meta.json").read_text(encoding="ascii"))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _read("/proc/cpuinfo", "model name") or platform.processor(),
        "mem_total_mb": int(mem_kb.split()[0]) // 1024 if mem_kb else None,
        "python": platform.python_version(),
        **versions,
        "loadavg_start": list(os.getloadavg()),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "golden_commit": golden["commit"],
    }


def spawn(root: Path, opts: dict, timeout: float) -> dict:
    """One worker process; its JSON result, or a record of how it failed."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), repr(started), json.dumps(opts)],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "took_s": time.monotonic() - started}
    took = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}", "took_s": took}
    result["took_s"] = took
    return result


def segment_wall(runs: list[dict]) -> float | None:
    """Sum over output segments of each segment's second-slowest time in `runs`.

    None when the runs do not split into the same number of segments.
    """
    counts = {len(r["segments_s"]) for r in runs}
    if len(counts) != 1:
        return None
    return sum(sorted(seg)[-2] if len(seg) > 1 else seg[0]
               for seg in zip(*(r["segments_s"] for r in runs)))


def measure(root: Path, workload: str, seed: int, seconds: float, trace: int,
            smoke: bool = False, wrong_digest: bool = False) -> dict:
    """Run repetitions until `seconds` is used; return the result set."""
    host = machine(root)  # before the runs: it records the load average at start
    start = time.monotonic()
    deadline, hard = start + seconds, start + HARD_LIMIT_S
    base = {"workload": workload, "seed": seed, "smoke": smoke,
            "wrong_digest": wrong_digest, "traced": False, "oracle": False, "rep": -1}
    spawns = [spawn(root, {**base, "setup_only": True}, hard - time.monotonic())
              for _ in range(SETUP_ONLY_RUNS)]
    reps: list[dict] = []
    while True:
        opts = {**base, "setup_only": False, "rep": len(reps),
                "traced": bool(trace) and len(reps) % 2 == 1, "oracle": not reps}
        at = time.monotonic()
        rep = spawn(root, opts, hard - at)
        rep["traced"], rep["at_s"] = opts["traced"], at - start
        reps.append(rep)
        if "error" in rep:
            break
        now = time.monotonic()
        if len(reps) >= MIN_REPS[trace] and now + rep["took_s"] > deadline:
            break

    good = [r for r in spawns + reps if "error" not in r]
    untraced = [r for r in reps if "error" not in r and not r["traced"]]
    traced = [r for r in reps if "error" not in r and r["traced"]]
    walls = {kind: segment_wall(runs)
             for kind, runs in (("untraced", untraced), ("traced", traced)) if runs}

    attempted, failed = 0, 0
    by_name: dict[str, list[int]] = {}
    tallies = [{**run.get("checks", {}), "worker_completed": [1, int("error" in run)]}
               for run in spawns + reps]
    tallies.append({"segments_consistent": [len(walls), sum(w is None for w in walls.values())]})
    for entries in tallies:
        for name, (n, bad) in entries.items():
            tally = by_name.setdefault(name, [0, 0])
            tally[0] += n
            tally[1] += bad
            attempted += n
            failed += bad

    metrics: dict[str, float] = {}
    if trace == 0 and walls.get("untraced") is not None:
        metrics = {
            "setup_s": median(r["setup_s"] for r in good),
            "wall_s": walls["untraced"],
            "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
        }
    elif trace == 1 and None not in (walls.get("traced"), walls.get("untraced")):
        import layertrace

        metrics = layertrace.median_metrics([r["layers"] for r in traced])
        metrics["trace.wall_s"] = walls["traced"]
        metrics["trace.untraced_wall_s"] = walls["untraced"]
        metrics["trace.overhead_s"] = walls["traced"] - walls["untraced"]
    inst = wl.instance(workload, seed, smoke)
    return {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "smoke": smoke, "inputs": [step[1] for step in inst["steps"]],
        "oracle_sample": inst["oracle"], "machine": host,
        "attempted": attempted, "failed": failed, "checks": by_name,
        "metrics": metrics, "setup_only": spawns, "reps": reps,
        "rep_wall_s_median": median(r["wall_s"] for r in untraced) if untraced else None,
        "elapsed_s": time.monotonic() - start,
    }


def units(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    import layertrace

    return layertrace.unit(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        root = checkout_root()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = measure(root, args.workload, args.seed, args.seconds, args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(result, indent=1) + "\n", encoding="ascii")

    attempted, failed = result["attempted"], result["failed"]
    print(f"# machine: {json.dumps(result['machine'])}")
    n_reps = len(result["reps"])
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {n_reps} runs "
          f"in {result['elapsed_s']:.1f} s; result set {OUT_DIR.name}/{name}")
    for key, value in result["metrics"].items():
        print(f"{key} = {value:.6g} {units(key)}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} checks)")
    correct = failed == 0 and bool(result["metrics"])
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
