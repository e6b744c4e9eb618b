"""Outside-in layer tracing for the benchmark's traced runs.

`Tracer.install()` wraps public functions of the s3genus2 modules, where
they are defined and in every package module that imported them by name,
so each call records a span (id, parent span, name, start, end) and a call
count.  A span's self time is its duration minus that of its child spans.
Spans stay in memory until `write_spans`.  A few private helpers are only
counted, without a span, so their time stays in the caller's self time.

Only traced runs import this module; the untraced run checks that.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict
from statistics import median

# (module, attribute) of every function that gets a span; a dotted attribute
# is a method, wrapped on its class
SPANNED = (
    ("cli", "main"),
    ("family", "superspecial_lambdas"),
    ("family", "psi_p"),
    ("family", "lambda_record"),
    ("curves", "is_supersingular"),
    ("curves", "j_invariant"),
    ("curves", "deuring_coefficients"),
    ("curves", "CubicCurve.scalar_mul"),
    ("classno", "class_number"),
    ("classno", "hilbert_poly"),
    ("structure", "root_profile"),
    ("structure", "shape_check_3p"),
    ("structure", "build_graph"),
    ("structure", "check_graph_structure"),
    ("structure", "structure_verdict"),
    ("average", "window_sum"),
    ("isogenies", "compose_is_minus3"),
    ("isogenies", "verify_transcription"),
    ("isogenies", "IsogenyMap.__call__"),
    ("isogenies", "resultant_factorization_check"),
    ("fields", "sqrt_in_fp2"),
    ("intpoly", "resultant_bivariate"),
)
# counted only: the closed-form evaluation and its composed fallback
COUNTED = (
    ("isogenies", "IsogenyMap._closed_form"),
    ("isogenies", "IsogenyMap.eval_composed"),
)
# lru caches whose hits are reported (delta over the traced interval)
CACHED = (
    ("curves", "deuring_coefficients"),
    ("classno", "class_number"),
    ("average", "_superspecial_set"),
)
LAYERS = ("cli", "family", "curves", "classno", "structure", "average",
          "isogenies", "fields", "intpoly")

SPAN_FIELDS = ("id", "parent", "name", "start", "end")


def admissible_count(p: int) -> int:
    """lambda in F_p other than 0, 1 and the roots of lambda^2 - lambda + 1."""
    return p - 2 - (2 if p % 3 == 1 else 0)


def horner_steps(p: int) -> int:
    """Vector element-steps of the orbit scan: (deg H_p + 1) x orbit count.

    Computed from p, not counted: the S3-orbits of admissible lambda have
    size 6 except {-1, 2, 1/2}.
    """
    orbits = (admissible_count(p) - 3) // 6 + 1
    return ((p - 1) // 2 + 1) * orbits


def moebius_blocks(N: int) -> int:
    """Distinct values of N // d for 1 <= d <= N: the blocks per prime."""
    r = math.isqrt(N)
    return 2 * r - (1 if r == N // r else 0)


def _package(name: str):
    return sys.modules["s3genus2." + name]


def _owner(module, attr: str):
    """(object holding the attribute, attribute name), or None if absent."""
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, child time] per open span
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self.psi_by_p: dict[int, int] = {}
        self._caches: dict[str, tuple[object, int]] = {}  # name -> (lru fn, hits)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, fn, before=None, after=None):
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = before(args) if before else None
            sid = len(spans)
            spans.append(None)
            frame = [sid, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[sid] = (sid, parent, name, start, end)
                calls[name] += 1
                self_s[name] += duration - frame[1]
            if after:
                after(args, result, state)
            return result

        return traced

    def _counted(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- counters at layer boundaries --------------------------------------

    def _hooks(self, name: str):
        counts = self.counts
        if name == "family.superspecial_lambdas":
            def before(args):
                return args[0] in getattr(_package("family"), "_SCAN_CACHE", {})

            def after(args, result, was_cached):
                p = args[0]
                counts["family.scan.lookups"] += 1
                self.psi_by_p[p] = len(result)
                if not was_cached:
                    counts["family.scan.primes_scanned"] += 1
                    counts["family.scan.superspecial_found"] += len(result)
                    counts["family.scan.lambdas_classified"] += admissible_count(p)
                    counts["family.scan.horner_steps.computed"] += horner_steps(p)
            return before, after
        if name == "structure.root_profile":
            def after(args, result, _):
                counts["structure.distinct_js"] += len(result.distinct_js)
            return None, after
        if name == "structure.build_graph":
            def after(args, result, _):
                counts["structure.graph_edges"] += len(result.edges)
            return None, after
        if name == "average.window_sum":
            def after(args, result, _):
                X, N = args[0], args[1]
                psi = [v for p, v in self.psi_by_p.items() if p < X]
                counts["average.residues"] += sum(psi)
                if args[2:3] == ("rational",):
                    counts["average.moebius_blocks.computed"] += (
                        sum(1 for v in psi if v) * moebius_blocks(N))
            return None, after
        return None, None

    def install(self) -> None:
        """Wrap every listed function; rebind each package-level reference."""
        for module_name, attr in CACHED:
            fn = getattr(_package(module_name), attr, None)
            if hasattr(fn, "cache_info"):
                self._caches[f"{module_name}.{attr}"] = (fn, fn.cache_info().hits)
        replaced = {}
        for table, spanned in ((SPANNED, True), (COUNTED, False)):
            for module_name, attr in table:
                found = _owner(_package(module_name), attr)
                if found is None:
                    continue
                owner, fname = found
                fn = vars(owner)[fname]
                name = f"{module_name}.{attr}"
                if spanned:
                    wrapper = self._spanned(name, fn, *self._hooks(name))
                else:
                    wrapper = self._counted(name, fn)
                setattr(owner, fname, wrapper)
                replaced[id(fn)] = (fn, wrapper)
        for module in [m for k, m in sys.modules.items() if k.startswith("s3genus2.")]:
            for key, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])

    # -- results -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics for one traced run of `wall_s` seconds."""
        out: dict[str, float] = {}
        for module_name, attr in SPANNED:
            name = f"{module_name}.{attr}"
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for module_name, attr in COUNTED:
            name = f"{module_name}.{attr}"
            out[f"{name}.calls"] = self.calls.get(name, 0)
        for module_name, attr in CACHED:
            name = f"{module_name}.{attr}"
            fn, start = self._caches.get(name, (None, 0))
            out[f"{name}.cache_hits"] = fn.cache_info().hits - start if fn else 0
        c = self.counts
        lookups = c["family.scan.lookups"]
        out["family.scan.lookups"] = lookups
        out["family.scan.primes_scanned"] = c["family.scan.primes_scanned"]
        out["family.scan.cache_hit_ratio"] = (
            (lookups - c["family.scan.primes_scanned"]) / lookups if lookups else 0.0)
        out["family.scan.superspecial_found"] = c["family.scan.superspecial_found"]
        classified = c["family.scan.lambdas_classified"]
        out["family.scan.yield"] = (
            c["family.scan.superspecial_found"] / classified if classified else 0.0)
        out["family.scan.horner_steps.computed"] = c["family.scan.horner_steps.computed"]
        for key in ("structure.distinct_js", "structure.graph_edges",
                    "average.residues", "average.moebius_blocks.computed"):
            out[key] = c[key]
        closed = self.calls.get("isogenies.IsogenyMap._closed_form", 0)
        composed = self.calls.get("isogenies.IsogenyMap.eval_composed", 0)
        out["isogenies.fallback_ratio"] = composed / closed if closed else 0.0
        for layer in LAYERS:
            busy = sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))
            out[f"layer.{layer}.self_s"] = busy
            out[f"layer.{layer}.share"] = busy / wall_s
        covered = sum(self.self_s.values())
        out["trace.coverage"] = covered / wall_s
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Median of every metric over several traced runs; counts stay ints."""
    out = {}
    for key in runs[0]:
        values = [r[key] for r in runs]
        exact = all(isinstance(v, int) for v in values) and len(set(values)) == 1
        out[key] = values[0] if exact else median(values)
    return out


def unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share", "yield", "coverage")):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"
