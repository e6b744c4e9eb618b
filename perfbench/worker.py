"""One fresh-process repetition of a benchmark workload; run.py spawns it.

    python3 perfbench/worker.py T_SPAWN OPTIONS_JSON

T_SPAWN is the parent's time.monotonic() taken just before the spawn, so
set-up time runs from interpreter start until `s3genus2.cli` is imported
and its parser built.  OPTIONS_JSON holds workload, seed, rep, smoke and
the flags setup_only, traced, oracle and wrong_digest.  The repetition's
result is one JSON line on stdout.

Besides the repetition's wall time it reports segments_s: the time from
the start to the first completed line of output, between each completed
line and the next, and from the last one to the end.  run.py takes the
second-slowest time of each segment over the repetitions and sums them.
"""

import sys
import time

T_SPAWN = float(sys.argv[1])

from s3genus2 import cli  # noqa: E402

cli.build_parser()
SETUP_S = time.monotonic() - T_SPAWN

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"


class Checks:
    """Named correctness checks: attempted and failed per name."""

    def __init__(self):
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()

    def add(self, name: str, ok: bool) -> None:
        self.attempted[name] += 1
        if not ok:
            self.failed[name] += 1

    def as_dict(self) -> dict:
        return {k: [n, self.failed[k]] for k, n in sorted(self.attempted.items())}


class StampedOutput(io.StringIO):
    """Captured stdout that notes the time of every write ending a line."""

    def __init__(self):
        super().__init__()
        self.stamps: list[float] = []

    def write(self, s: str) -> int:
        n = super().write(s)
        if "\n" in s:
            self.stamps.append(time.perf_counter())
        return n


def run_steps(steps) -> tuple[StampedOutput, list[int], list[bool]]:
    """Run the workload's steps with stdout captured; the timed interval."""
    out = StampedOutput()
    statuses, identity = [], []
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        for kind, argv in steps:
            if kind == "cli":
                statuses.append(cli.main(argv))
            else:
                lines, verdicts = wl.identity_lines()
                print("\n".join(lines))
                identity += verdicts
    return out, statuses, identity


def oracle_checks(inst: dict, text: str, checks: Checks) -> None:
    """Seeded samples against the exact oracles, outside the timed interval."""
    if inst["workload"] == "psi-scan":
        from s3genus2.family import psi_p_bruteforce, superspecial_lambdas

        psi = {int(r.split(",")[0]): int(r.split(",")[2]) for r in text.splitlines()[1:]}
        for p in inst["oracle"]:
            brute = psi_p_bruteforce(p)
            checks.add("oracle_psi_count", psi.get(p) == len(brute))
            checks.add("oracle_psi_lambdas", brute == superspecial_lambdas(p))
    elif inst["workload"] == "average-rational":
        from s3genus2.average import window_sum, window_sum_bruteforce

        X, N = inst["oracle"]
        fast = window_sum(X, N, "rational").total
        checks.add("oracle_window_sum", fast == window_sum_bruteforce(X, N, "rational"))


def main() -> None:
    opts = json.loads(sys.argv[2])
    if opts["setup_only"]:
        print(json.dumps({"setup_s": SETUP_S}))
        return
    workload, seed, rep = opts["workload"], opts["seed"], opts["rep"]
    inst = wl.instance(workload, seed, opts["smoke"])
    checks = Checks()
    src = (Path.cwd() / "src").resolve()
    checks.add("package_from_checkout", Path(cli.__file__).resolve().is_relative_to(src))
    tracer = None
    if opts["traced"]:
        import layertrace

        tracer = layertrace.Tracer(f"{workload}-s{seed}-r{rep}")
        tracer.install()

    start = time.perf_counter()
    out, statuses, identity = run_steps(inst["steps"])
    end = time.perf_counter()
    wall_s = end - start
    text, edges = out.getvalue(), [start, *out.stamps, end]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"setup_s": SETUP_S, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "segments_s": [b - a for a, b in zip(edges, edges[1:])],
              "rows": len(text.splitlines()), "bytes_out": len(text.encode("ascii"))}
    if tracer is None:
        checks.add("untraced_loads_no_wrappers", "layertrace" not in sys.modules)
    else:
        layers = tracer.metrics(wall_s)
        layers["cli.rows"] = result["rows"]
        layers["cli.bytes_out"] = result["bytes_out"]
        result["layers"] = layers
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{tracer.run_id}.jsonl")

    for status in statuses:
        checks.add("exit_status", status == 0)
    for ok in wl.row_verdicts(workload, text):
        checks.add("row_verdict", ok)
    for ok in identity:
        checks.add("identity", ok)
    expected = wl.expected_output(inst)
    if opts["wrong_digest"]:
        expected += "deliberately wrong\n"
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    result["digest"] = digest
    checks.add("output_digest", digest == hashlib.sha256(expected.encode("ascii")).hexdigest())
    if opts["oracle"]:
        oracle_checks(inst, text, checks)
    result["checks"] = checks.as_dict()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
