"""Record the golden outputs that benchmark runs are checked against.

Run from the repository root, at the commit whose output is the reference:

    python3 perfbench/record_golden.py

It writes perfbench/golden/: the full `psi` and `structure` CSV over every
prime a seed can select, the `average` rows for every X a seed can select,
the identity lines and both lines of every candidate `isogeny` call, and
meta.json with the commit, the versions and a digest of each file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from s3genus2 import cli  # noqa: E402


def run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise SystemExit(f"{' '.join(argv)}: exit status {status}")
    return out.getvalue()


def main() -> None:
    wl.GOLDEN.mkdir(exist_ok=True)
    files = {
        "psi.csv": run(["psi", "--from", "5", "--to", str(wl.PSI_HI[1]), "--format", "csv"]),
        "structure.csv": run(["structure", "--from", "5", "--to", str(wl.STRUCTURE_HI[1]),
                              "--format", "csv"]),
    }
    xs = sorted({*wl.SMOKE_X, *(X for band in wl.AVERAGE_BANDS for X in band)})
    argv = ["average", "--mode", "rational"]
    for X in xs:
        argv += ["--X", str(X)]
    files["average.csv"] = run(argv)
    identity, verdicts = wl.identity_lines()
    if not all(verdicts):
        raise SystemExit("identity check failed")
    pool = [[list(t), run(wl.isogeny_argv(*t)).splitlines()] for t in wl.isogeny_pool()]
    files["isogeny.json"] = "".join([
        '{"identity": ', json.dumps(identity), ',\n"pool": [\n',
        ",\n".join(json.dumps(entry) for entry in pool), "\n]}\n",
    ])
    for name, text in files.items():
        (wl.GOLDEN / name).write_text(text, encoding="ascii")

    import mpmath
    import numpy

    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            check=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], capture_output=True,
                           text=True, check=True).stdout.strip()
    meta = {
        "commit": commit,
        "src_modified": bool(dirty),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "sha256": {name: hashlib.sha256(text.encode("ascii")).hexdigest()
                   for name, text in sorted(files.items())},
    }
    (wl.GOLDEN / "meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="ascii")


if __name__ == "__main__":
    main()
