"""Structural checks on class polynomials mod p driven by the family scan.

For p = 1 mod 4 the j-invariants of superspecial members are the roots of
the level-3p class polynomial mod p; their multiplicities follow a fixed
ledger (4 for 8000, 2 for 54000 and for each conjugate pair).  For
p = 11 mod 12 the rational roots carry a weighted graph: each pair
{j(Lambda^-), j(Lambda^+)} is an edge weighted by the number of
superspecial lambda on it; a whole S3 orbit shares one pair.
Everything here consumes the psi rows of `family.psi_p` and the exact
class-number and class-polynomial routines; at tiny primes the class
polynomial itself is computed over the integers and compared, coefficient
for coefficient, with the ledger's product of the (X - j)^m.  The shape
and graph checks return one note per failed clause, and a `structure` row
carries those notes.  The DOT and JSON spellings of a graph are `cli`'s.

The j-invariants come from the scan's lambda set in one numpy pass per
prime, on the lanes of family.class_root's rule: F_p at p = 3 mod 4, and
at p = 1 mod 4 one F_{p^2} pair lane for j(E_{Lambda^-}), whose conjugate
is j(E_{Lambda^+}).  A j is handled by its code a*p + b, so sorting and
deduplication are array operations.  The tests keep the per-lambda
int-pair computation (family.lambda_pair, and j_invariant in
tests/fp2_oracle.py) and the S3 orbit walk (orbit in tests/paper_oracle.py)
as the exact oracles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .classno import class_number, hilbert_poly
from .curves import _inverse_table, _poly_mul, _sqrt_table
from .family import class_root, lambda_eps, legendre_j, psi_p, superspecial_lambdas
from .fields import smallest_nonresidue

GRAPH_MIN_PRIME = 11  # the degree/weight pattern needs p > 11


@dataclass(frozen=True)
class RootProfile:
    """Distinct j-invariants of the superspecial members at one prime, as
    sorted (a, b) pairs.  perfbench/layertrace.py counts `distinct_js`."""

    p: int
    distinct_js: tuple[tuple[int, int], ...]


def _paired_js(lam: np.ndarray, p: int) -> np.ndarray:
    """Rows j(E_{Lambda^-}) and j(E_{Lambda^+}) of each lambda, as codes a*p + b.

    A lambda off family.class_root's rule raises, so the codes come in
    conjugate pairs at p = 1 mod 4 and are rational at p = 3 mod 4.
    """
    n, inv = smallest_nonresidue(p), _inverse_table(p)
    _, keep, (sa, sb) = class_root(lam, p, n, _sqrt_table(p))
    if not keep.all():
        raise ArithmeticError(f"off the class rule at p={p}, lambda={int(lam[~keep].min())}")
    if sb is None:  # both signs on one F_p lane
        t = np.concatenate([lambda_eps(lam, (sa, None), eps, p)[0] for eps in (-1, 1)])
        return legendre_j(t, None, p, n, inv)[0].reshape(2, lam.size) * p
    # sqrt(delta) = c*w: Lambda^+ = Frob(Lambda^-), so j(E_{Lambda^+}) is (a, -b)
    ja, jb = legendre_j(*lambda_eps(lam, (sa, sb), -1, p), p, n, inv)
    return np.array((ja * p + jb, ja * p + (p - jb) % p))


def root_profile(p: int) -> RootProfile:
    """Collect j(E_{Lambda^+-}) over all superspecial lambda."""
    lam = np.array(superspecial_lambdas(p), dtype=np.int64)
    # codes a*p + b sort in (a, b) order; a sorted code is new iff it
    # differs from its predecessor
    codes = np.sort(_paired_js(lam, p), axis=None)
    new = np.ones(codes.size, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=new[1:])
    distinct = codes[new]
    a, b = np.divmod(distinct, p)
    return RootProfile(p, tuple(zip(a.tolist(), b.tolist())))


def shape_check_3p(p: int) -> tuple[str, ...]:
    """The factorization-shape ledger of the level-3p class polynomial mod p.

    (i) 8000 occurs iff p = 5 mod 8; (ii) 54000 occurs iff p = 5, 17 mod 24;
    (iii) multiplicities 4/2/4-per-pair sum to h(-3p); (iv) orbit weights
    6/3/6-per-pair sum to psi_p.  p = 5 is excluded (multiplicity exception).
    Returns one note per failed clause, none when the ledger holds.
    """
    if p % 4 != 1:
        raise ValueError("shape check applies to p = 1 mod 4")
    if p <= 5:
        raise ValueError("p = 5 is the special case; use direct_root_check")
    js = root_profile(p).distinct_js
    rational = {a for a, b in js if b == 0}
    # the profile is Frobenius-stable, so the other j's come in conjugate pairs
    npairs = (len(js) - len(rational)) // 2
    has8000, has54000 = 8000 % p in rational, 54000 % p in rational
    psi = len(superspecial_lambdas(p))
    notes = []
    allowed = {8000 % p, 54000 % p}
    if not rational <= allowed:
        notes.append(f"unexpected rational roots {sorted(rational - allowed)}")
    if has8000 != (p % 8 == 5):
        notes.append(f"8000 presence {has8000} vs p%8={p % 8}")
    if has54000 != (p % 24 in (5, 17)):
        notes.append(f"54000 presence {has54000} vs p%24={p % 24}")
    if 4 * has8000 + 2 * has54000 + 4 * npairs != class_number(3 * p):
        notes.append("multiplicity ledger != h(-3p)")
    if psi != 6 * has8000 + 3 * has54000 + 6 * npairs:
        notes.append("weight ledger != psi_p")
    return tuple(notes)


@dataclass(frozen=True)
class GraphGp:
    """Weighted graph on the rational superspecial j-invariants.

    An edge's weight counts the superspecial lambda whose pair
    {j(Lambda^-), j(Lambda^+)} it joins, so two orbits on one pair would
    make one edge of twice the weight, not two parallel edges.
    """

    p: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]  # (u, v, weight), u <= v


def build_graph(p: int) -> GraphGp:
    """One edge per pair of paired j-invariants, weighted by its lambda count."""
    if p % 12 != 11:
        raise ValueError("the graph is defined for p = 11 mod 12")
    lam = np.array(superspecial_lambdas(p), dtype=np.int64)
    u, v = np.sort(_paired_js(lam, p) // p, axis=0)
    weights = Counter(zip(u.tolist(), v.tolist()))
    edges = sorted((x, y, w) for (x, y), w in weights.items())
    return GraphGp(p, tuple(sorted({x for e in weights for x in e})), tuple(edges))


def check_graph_structure(g: GraphGp) -> tuple[str, ...]:
    """Degree pattern, loop placement, weights, and the 6n-3 / 2n-1 totals.

    Returns one note per failed check, none when the graph has the shape.
    """
    p = g.p
    if p <= GRAPH_MIN_PRIME:
        raise ValueError("the degree pattern needs p > 11")
    v54, v1728 = 54000 % p, 1728 % p
    notes = []
    loops = [(u, v, w) for u, v, w in g.edges if u == v]
    if [(u, v) for u, v, _ in loops] != [(v54, v54)]:
        notes.append(f"self loops at {[(u) for u, _, _ in loops]}, want only {v54}")
    if any(w != 3 for _, _, w in loops):
        notes.append("self loop weight != 3")
    if any(w != 6 for u, v, w in g.edges if u != v):
        notes.append("non-loop edge weight != 6")
    if v54 not in g.vertices or v1728 not in g.vertices:
        notes.append("special vertices missing")
    # each edge adds one to the degree of each endpoint, a loop two
    degree = Counter(x for u, v, _ in g.edges for x in (u, v))
    for v in g.vertices:
        d = degree[v]
        if v == v1728:
            if d != 1:
                notes.append(f"deg(1728)={d}")
        elif v == v54:
            if d != 3:  # self loop (2) plus a single outgoing edge
                notes.append(f"deg(54000)={d}")
        elif d != 2:
            notes.append(f"deg({v})={d}")
    nonloop_at_54 = sum(1 for u, v, w in g.edges if u != v and v54 in (u, v))
    if nonloop_at_54 != 1:
        notes.append(f"54000 has {nonloop_at_54} plain edges, want 1")
    n = len(g.vertices)
    psi = len(superspecial_lambdas(p))
    if sum(w for _, _, w in g.edges) != psi:
        notes.append("edge weights do not sum to psi_p")
    if psi != 6 * n - 3:
        notes.append(f"psi={psi} != 6n-3 with n={n}")
    if class_number(p) != 2 * n - 1:
        notes.append(f"h(-p)={class_number(p)} != 2n-1 with n={n}")
    # handshake: degree sum counts loops twice
    if sum(degree[v] for v in g.vertices) != 2 * len(g.edges):
        notes.append("handshake failure")
    return tuple(notes)


# ---------------------------------------------------------------------------
# direct verification at tiny primes


def direct_root_check(p: int) -> bool:
    """Compare P_{3p} mod p with the ledger's polynomial, multiplied out.

    Only meaningful at tiny primes where the level-3p class polynomial is
    computable over the integers.  The ledger's polynomial is the product of
    (X - j)^m over the distinct j of `root_profile(p)`: m = 4 for 8000, 2 for
    54000 and 2 for each member of a conjugate pair, and any other rational
    j fails the check.  p = 5 expects the single root 0 = 8000 = 54000 mod 5
    with m = 2.  The check holds iff deg P_{3p} = h(-3p) and the product
    equals P_{3p} mod p coefficient for coefficient, so it also requires
    P_{3p} to split completely over F_{p^2}.
    """
    if p % 4 != 1:
        raise ValueError("direct check applies to p = 1 mod 4")
    poly = hilbert_poly(3 * p)
    if poly.degree != class_number(3 * p):
        return False
    n = smallest_nonresidue(p)
    ledger = {0: 2} if p == 5 else {8000 % p: 4, 54000 % p: 2}
    product = [(1, 0)]
    for a, b in root_profile(p).distinct_js:
        mult = 2 if b else ledger.get(a)
        if mult is None:
            return False
        for _ in range(mult):
            product = _poly_mul(product, [(-a % p, -b % p), (1, 0)], p, n)
    return product == [(c, 0) for c in poly.mod(p)]


# ---------------------------------------------------------------------------
# CLI-facing aggregation


def structure_verdict(p: int) -> tuple[dict, GraphGp | None]:
    """Dispatch the per-prime structural checks by congruence class.

    Returns the `structure` row and the graph G_p (None off p = 11 mod 12).
    The row is the psi row's first five keys, then `closed_form` (the psi
    verdict), `shape` and `graph` (None where the check does not apply)
    and `notes`.  A check passes when it returns no notes; its notes join
    the row's.
    """
    rep = psi_p(p)
    shape: bool | None = None
    graph_ok: bool | None = None
    notes: list[str] = []
    graph = None
    if p == 5:
        shape = direct_root_check(5)
        notes.append("p=5 special case: root 8000=54000=0 with multiplicity 2")
    elif rep["class"] == "1mod4":
        failed = shape_check_3p(p)
        shape = not failed
        notes += failed
    elif rep["class"] == "11mod12":
        graph = build_graph(p)
        if p > GRAPH_MIN_PRIME:
            failed = check_graph_structure(graph)
            graph_ok = not failed
            notes += failed
        else:
            notes.append("p=11: degree-pattern checks need p > 11, skipped")
    row = {k: rep[k] for k in ("p", "class", "psi", "h_p", "h_3p")}
    row.update(closed_form=rep["ok"], shape=shape, graph=graph_ok, notes=notes)
    return row, graph
