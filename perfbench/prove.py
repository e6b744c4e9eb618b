"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/prove.py --seeds 1-10 --out BENCH_label.json
    python3 perfbench/prove.py --workloads psi-scan --seeds 1-5

For every workload it runs `run.py` once per seed, with the run length
from BENCHMARK.json, and reports per metric the median and quartiles of the
per-seed values and the spread (q3 - q1) / median, as
statistics.quantiles(values, n=4) gives the quartiles.  With --out it
writes every run's result line, the summary and the machine record.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    machine = {}
    for line in lines:
        if line.startswith("# machine: "):
            machine = json.loads(line[len("# machine: "):])
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload} seed {seed}: no result\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), machine


def summarize(values: list[float]) -> dict:
    mid = median(values)
    if len(values) < 2:
        return {"median": mid}
    q1, _, q3 = quantiles(values, n=4)
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else None}


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="ascii"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the result set to this JSON file")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result, machine = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append({"seed": seed, "machine": machine, "result": result})
            ok &= result["correct"]
            print(f"{workload} seed={seed} "
                  + " ".join(f"{k}={v['value']:.5g} {v['unit']}"
                             for k, v in result["metrics"].items() if k in bounds)
                  + f" error_rate={result['failed'] / result['attempted']:.3g}"
                  f" ({result['failed']} failed of {result['attempted']} checks)", flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            summary[name] = summarize([r["result"]["metrics"][name]["value"] for r in runs])
            s = summary[name]
            if name in bounds and "spread" in s:
                flag = "" if s["spread"] < bounds[name] / 3 else "  (above a third of the bound)"
                print(f"  {workload} {name}: median {s['median']:.5g}  spread {s['spread']:.4f}"
                      f"  bound {bounds[name]}{flag}", flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="ascii")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
