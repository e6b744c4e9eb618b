"""Seeded workload inputs, their expected output and their own verdicts.

A workload instance is a list of steps run in one process: ("cli", argv)
calls `s3genus2.cli.main(argv)`, ("identity", None) runs the class-polynomial
and resultant identities.  The seed picks the inputs inside a fixed-cost
band, so runs with different seeds cost about the same.  The expected
stdout of every instance is assembled from the golden files, which
record_golden.py writes from the package's own output.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("psi-scan", "structure-sweep", "average-rational", "isogeny-pairs")

GOLDEN = Path(__file__).resolve().parent / "golden"

# psi-scan and structure-sweep: the seed picks both ends of the prime range
PSI_LO, PSI_HI = (5, 60), (2080, 2120)
STRUCTURE_LO, STRUCTURE_HI = (5, 60), (1630, 1670)
SMOKE_RANGE = (5, 200)

# average-rational: an eight-row convergence table, one X from each band;
# one row per X, so run.py can time each row on its own
AVERAGE_BANDS = tuple(tuple(range(c - 10, c + 11, 2)) for c in range(250, 601, 50))
SMOKE_X = (60, 120)
AVERAGE_ORACLE_X, AVERAGE_ORACLE_N = (40, 60), (40, 60)

# isogeny-pairs: one (p, lambda, trial seed) per log-spaced stratum of p
ISOGENY_P = (1_000, 20_000)
ISOGENY_STRATA = 40
ISOGENY_CANDIDATES = 3  # recorded tuples per stratum; the seed picks one
ISOGENY_TRIALS = 50
SMOKE_STRATA = 3

PSI_ORACLE_MAX, PSI_ORACLE_SAMPLES = 300, 3

# criterion-10 discriminants and the known constants they must reproduce:
# full coefficients, or (modulus, expected reduction) where only that is known
HILBERT_CHECKS = {
    3: (0, 1),
    8: (-8000, 1),
    11: (32768, 1),
    12: (-54000, 1),
    20: (-681472000, -1264000, 1),
    35: (61, (3, 11, 1)),  # (x + 20)(x + 52) mod 61
}


def is_prime(n: int) -> bool:
    # inputs are generated without the package, so no change to it moves them
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def isogeny_pool() -> list[tuple[int, int, int]]:
    """The fixed candidate tuples, ISOGENY_CANDIDATES per stratum, in order."""
    rng = random.Random("isogeny-pool")
    lo, hi = ISOGENY_P
    ratio = (hi / lo) ** (1 / ISOGENY_STRATA)
    pool = []
    for k in range(ISOGENY_STRATA):
        a, b = math.ceil(lo * ratio**k), math.ceil(lo * ratio ** (k + 1))
        primes = [n for n in range(a, b) if is_prime(n)]
        for _ in range(ISOGENY_CANDIDATES):
            p = rng.choice(primes)
            lam = rng.randrange(2, p)
            while (lam * lam - lam + 1) % p == 0:
                lam = rng.randrange(2, p)
            pool.append((p, lam, rng.randrange(1, 10**6)))
    return pool


def isogeny_argv(p: int, lam: int, seed: int) -> list[str]:
    return ["isogeny", "--p", str(p), "--lambda", str(lam),
            "--trials", str(ISOGENY_TRIALS), "--seed", str(seed)]


def instance(workload: str, seed: int, smoke: bool = False) -> dict:
    """The inputs of one workload instance, generated from the seed."""
    rng = _rng(workload, seed)
    if workload in ("psi-scan", "structure-sweep"):
        lo_band, hi_band = (PSI_LO, PSI_HI) if workload == "psi-scan" else (STRUCTURE_LO, STRUCTURE_HI)
        lo, hi = SMOKE_RANGE if smoke else (rng.randint(*lo_band), rng.randint(*hi_band))
        if workload == "psi-scan":
            argv = ["psi", "--from", str(lo), "--to", str(hi), "--format", "csv"]
            small = [p for p in range(lo, min(hi, PSI_ORACLE_MAX) + 1) if is_prime(p)]
            oracle = sorted(rng.sample(small, PSI_ORACLE_SAMPLES))
        else:
            argv = ["structure", "--from", str(lo), "--to", str(hi), "--format", "csv"]
            oracle = None
        return {"workload": workload, "range": [lo, hi],
                "steps": [["cli", argv]], "oracle": oracle}
    if workload == "average-rational":
        xs = SMOKE_X if smoke else tuple(rng.choice(band) for band in AVERAGE_BANDS)
        argv = ["average", *(a for X in xs for a in ("--X", str(X))), "--mode", "rational"]
        oracle = [rng.randint(*AVERAGE_ORACLE_X), rng.randint(*AVERAGE_ORACLE_N)]
        return {"workload": workload, "X": list(xs),
                "steps": [["cli", argv]], "oracle": oracle}
    if workload == "isogeny-pairs":
        pool = isogeny_pool()
        strata = SMOKE_STRATA if smoke else ISOGENY_STRATA
        picks = [pool[k * ISOGENY_CANDIDATES + rng.randrange(ISOGENY_CANDIDATES)]
                 for k in range(strata)]
        steps = [["identity", None]] + [["cli", isogeny_argv(*t)] for t in picks]
        return {"workload": workload, "tuples": picks, "steps": steps, "oracle": None}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# the class-polynomial and resultant identities (isogeny-pairs, once per run)


def identity_lines() -> tuple[list[str], list[bool]]:
    """Run the identities; return the output lines and one verdict each."""
    from s3genus2.classno import hilbert_poly
    from s3genus2.isogenies import resultant_factorization_check

    lines, verdicts = [], []
    for D, want in HILBERT_CHECKS.items():
        coeffs = hilbert_poly(D).coefficients
        if isinstance(want[1], tuple):
            modulus, reduced = want
            ok = tuple(c % modulus for c in coeffs) == reduced
        else:
            ok = tuple(coeffs) == want
        lines.append(f"hilbert_poly D={D}: {','.join(map(str, coeffs))}")
        verdicts.append(ok)
    holds, constant = resultant_factorization_check()
    lines.append(f"resultant_factorization_check: {str(holds).lower()} {constant}")
    verdicts.append(holds and constant == -27)
    return lines, verdicts


# ---------------------------------------------------------------------------
# expected output and per-row verdicts


def _golden_rows(name: str) -> tuple[list[str], dict[int, str]]:
    """Header lines and rows keyed by the integer in column `key`."""
    lines = (GOLDEN / name).read_text(encoding="ascii").splitlines()
    head = [ln for ln in lines if not ln[:1].isdigit() and not ln.startswith("rational,")]
    key = 1 if name == "average.csv" else 0
    rows = {int(ln.split(",")[key]): ln for ln in lines if ln not in head}
    return head, rows


def expected_output(inst: dict) -> str:
    """The stdout the package printed for these inputs when it was recorded."""
    workload = inst["workload"]
    if workload in ("psi-scan", "structure-sweep"):
        head, rows = _golden_rows("psi.csv" if workload == "psi-scan" else "structure.csv")
        lo, hi = inst["range"]
        out = head + [rows[p] for p in sorted(rows) if lo <= p <= hi]
    elif workload == "average-rational":
        head, rows = _golden_rows("average.csv")
        out = head + [rows[X] for X in inst["X"]]
    else:
        golden = json.loads((GOLDEN / "isogeny.json").read_text(encoding="ascii"))
        lines = {tuple(k): v for k, v in golden["pool"]}
        out = list(golden["identity"])
        for p, lam, seed in inst["tuples"]:
            out += lines[(p, lam, seed)]
    return "".join(line + "\n" for line in out)


def row_verdicts(workload: str, text: str) -> list[bool]:
    """Each output row's own verdict; average rows carry none."""
    lines = text.splitlines()
    if workload == "psi-scan":
        return [ln.split(",")[5] == "true" for ln in lines[1:]]
    if workload == "structure-sweep":
        out = []
        for ln in lines[1:]:
            closed_form, shape, graph = ln.split(",")[5:8]
            out.append(closed_form == "true" and shape != "false" and graph != "false")
        return out
    if workload == "isogeny-pairs":
        return [ln.endswith(": pass") for ln in lines if ln.startswith(("anchors", "compose"))]
    return []
