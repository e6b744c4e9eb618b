"""Tests for root profiles, the shape ledger, the graph, and tiny-scale
direct verification of the class-polynomial correspondence."""

import dataclasses
import json
import random

import numpy as np
import pytest
from fp2_oracle import j_invariant
from paper_oracle import orbit

from s3genus2 import intpoly
from s3genus2.classno import class_number
from s3genus2.cli import STRUCTURE_COLUMNS, _dot, _graph_data, _line, main
from s3genus2.curves import LegendreCurve, _inverse_table, is_supersingular
from s3genus2.family import (
    lambda_pair,
    psi_p,
    superspecial_lambdas,
)
from s3genus2.fields import is_prime, smallest_nonresidue
from s3genus2.limits import VECTOR_MODULUS_BOUND
from s3genus2.structure import (
    GraphGp,
    RootProfile,
    _paired_js,
    build_graph,
    check_graph_structure,
    legendre_j,
    root_profile,
    shape_check_3p,
    structure_verdict,
    direct_root_check,
)


def primes_in(lo, hi, cond=lambda p: True):
    return [p for p in range(lo, hi + 1) if is_prime(p) and cond(p)]


# The per-lambda int-pair computations of the profile and the graph: two
# Legendre curves and two j_invariant calls per lambda.  They are the exact
# oracles of the int64 array path in structure.py.


def root_profile_oracle(p: int) -> RootProfile:
    seen = set()
    for lam in superspecial_lambdas(p):
        _, _, minus, plus = lambda_pair(lam, p)
        seen.update(j_invariant(LegendreCurve(t, p)) for t in (minus, plus))
    if any((a, -b % p) not in seen for a, b in seen):
        raise ArithmeticError(f"profile not Frobenius-stable at p={p}")
    return RootProfile(p, tuple(sorted(seen)))


def rational_js(prof: RootProfile) -> tuple[int, ...]:
    return tuple(a for a, b in prof.distinct_js if b == 0)


def conjugate_pairs(prof: RootProfile) -> tuple:
    """Each conjugate pair of the profile, led by its member with b < p/2."""
    return tuple(((a, b), (a, prof.p - b)) for a, b in prof.distinct_js if b and 2 * b < prof.p)


def weight_sum(g: GraphGp) -> int:
    return sum(w for _, _, w in g.edges)


def build_graph_oracle(p: int) -> GraphGp:
    lambdas = set(superspecial_lambdas(p))
    vertices = set()
    edges = []
    while lambdas:
        rep = min(lambdas)
        members = orbit(rep, p)
        lambdas -= members
        _, _, minus, plus = lambda_pair(rep, p)
        j1 = j_invariant(LegendreCurve(minus, p))
        j2 = j_invariant(LegendreCurve(plus, p))
        if j1[1] or j2[1]:
            raise ArithmeticError(f"irrational j at p={p}, lambda={rep}")
        u, v = sorted((j1[0], j2[0]))
        vertices.update((u, v))
        edges.append((u, v, len(members)))
    return GraphGp(p, tuple(sorted(vertices)), tuple(sorted(edges)))


def test_root_profile_matches_oracle_every_prime_below_3000():
    for p in primes_in(5, 2999):
        got = root_profile(p)
        assert got == root_profile_oracle(p), p
        assert all(type(x) is int for j in got.distinct_js for x in j), p


def test_build_graph_matches_oracle_every_prime_below_3000():
    for p in primes_in(5, 2999, lambda q: q % 12 == 11):
        got = build_graph(p)
        assert got == build_graph_oracle(p), p
        assert all(type(x) is int for e in got.edges for x in e), p


def test_build_graph_rejects_an_irrational_j(monkeypatch):
    # lambda = 3 at p = 23 has a non-residue delta = 7 and is not
    # superspecial: its sqrt(delta) lies outside F_p, off the class rule at
    # p = 3 mod 4, and its paired j-invariants are conjugate, not rational
    from s3genus2 import structure

    assert 3 not in superspecial_lambdas(23)
    monkeypatch.setattr(structure, "superspecial_lambdas", lambda p: tuple(orbit(3, p)))
    with pytest.raises(ArithmeticError, match="off the class rule at p=23, lambda=3"):
        build_graph(23)


def test_root_profile_rejects_a_square_delta_at_1_mod_4(monkeypatch):
    # lambda = 2 at p = 13 has delta = 3 = 4^2, a square: lemma A makes it
    # ordinary, and its sqrt(delta) lies in F_p, off the class rule at
    # p = 1 mod 4, where Lambda^+ is no longer the conjugate of Lambda^-
    from s3genus2 import structure

    assert 2 not in superspecial_lambdas(13)
    monkeypatch.setattr(structure, "superspecial_lambdas", lambda p: tuple(orbit(2, p)))
    with pytest.raises(ArithmeticError, match="off the class rule at p=13, lambda=2"):
        root_profile(13)


def test_paired_js_matches_j_invariant_at_every_superspecial_lambda_below_3000():
    # row for row: row 0 is j(E_{Lambda^-}) and row 1 j(E_{Lambda^+}) of the
    # same lambda, with lambda_pair's sqrt(delta), as codes a*p + b
    for p in primes_in(5, 2999):
        lams = superspecial_lambdas(p)
        got = _paired_js(np.array(lams, dtype=np.int64), p)
        assert got.shape == (2, len(lams)), p
        for row, k in ((0, 2), (1, 3)):
            js = (j_invariant(LegendreCurve(lambda_pair(lam, p)[k], p)) for lam in lams)
            assert got[row].tolist() == [a * p + b for a, b in js], (p, row)


def test_paired_js_runs_one_lane_per_lambda(monkeypatch):
    # one j evaluation of |lambda| F_{p^2} points at p = 1 mod 4, the
    # conjugates giving the Lambda^+ row; F_p points alone at p = 3 mod 4
    from s3genus2 import structure

    for p in (1009, 1013, 1019, 1031):
        calls = []

        def recording_j(ta, tb, q, n, inv):
            calls.append((ta.size, tb is None))
            return legendre_j(ta, tb, q, n, inv)

        lam = np.array(superspecial_lambdas(p), dtype=np.int64)
        with monkeypatch.context() as m:
            m.setattr(structure, "legendre_j", recording_j)
            _paired_js(lam, p)
        assert calls == ([(lam.size, False)] if p % 4 == 1 else [(2 * lam.size, True)]), p


class _PowInverses:
    """inv[v] = 1/v mod p by pow, element by element: an inverse table for a
    prime whose p-sized table would take hundreds of MB."""

    def __init__(self, p):
        self.p = p

    def __getitem__(self, v):
        return np.array([pow(x, -1, self.p) for x in v.tolist()], dtype=np.int64)


def test_legendre_j_matches_j_invariant_on_random_parameters():
    rng = random.Random(20261018)
    top = max(q for q in range(VECTOR_MODULUS_BOUND - 200, VECTOR_MODULUS_BOUND) if is_prime(q))
    for p in (5, 13, 1009, 65537, top):
        inv = _PowInverses(p) if p == top else _inverse_table(p)
        n = smallest_nonresidue(p)
        ts = []
        while len(ts) < 200:
            a, b = rng.randrange(p), rng.randrange(p)
            if b == 0 and a in (0, 1):
                continue
            ts.append((a, b))
        ta = np.array([a for a, _ in ts], dtype=np.int64)
        tb = np.array([b for _, b in ts], dtype=np.int64)
        ja, jb = legendre_j(ta, tb, p, n, inv)
        for (a, b), x, y in zip(ts, ja.tolist(), jb.tolist()):
            assert (x, y) == j_invariant(LegendreCurve((a, b), p)), (p, a, b)


def test_legendre_j_rejects_singular_parameters():
    p = 1009
    n = smallest_nonresidue(p)
    inv = _inverse_table(p)
    for t in (0, 1):
        with pytest.raises(ValueError):
            legendre_j(np.array([5, t, 7]), np.array([3, 0, 0]), p, n, inv)
    # the bound is checked before the table is read
    with pytest.raises(ValueError):
        legendre_j(np.array([2]), np.array([0]), VECTOR_MODULUS_BOUND + 15, 3, inv)


def test_profile_empty_at_7mod12():
    for p in (7, 19, 31, 43):
        prof = root_profile(p)
        assert prof.distinct_js == ()
        assert rational_js(prof) == ()


def test_profile_rational_js_limited_at_1mod4():
    for p in primes_in(5, 300, lambda q: q % 4 == 1):
        prof = root_profile(p)
        assert set(rational_js(prof)) <= {8000 % p, 54000 % p}, p


def test_profile_frobenius_stable_and_supersingular():
    for p in (13, 29, 41, 53):
        prof = root_profile(p)
        keys = set(prof.distinct_js)
        for a, b in prof.distinct_js:
            assert (a, -b % p) in keys
        # every profile j really is a supersingular j-invariant: it came from
        # a Lambda parameter, so re-derive one and check the Legendre model
        for lam in superspecial_lambdas(p):
            assert is_supersingular(LegendreCurve(lambda_pair(lam, p)[2], p))


def test_structure_trusts_the_scan_classification(monkeypatch):
    # the scan already decided which lambda are superspecial; the profile
    # and the graph must not run the per-lambda Deuring test again
    from s3genus2 import family

    def refuse(curve):
        raise AssertionError("is_supersingular called")

    monkeypatch.setattr(family, "is_supersingular", refuse)
    assert root_profile(53).distinct_js
    assert build_graph(59).edges


def test_rational_root_count_relation_11mod12():
    # rational root set of size n has h(-p) = 2n - 1
    for p in primes_in(13, 500, lambda q: q % 12 == 11):
        prof = root_profile(p)
        n = len(rational_js(prof))
        assert conjugate_pairs(prof) == ()
        assert class_number(p) == 2 * n - 1, p


def test_closed_form_verdict_examples():
    assert psi_p(5)["ok"]
    assert psi_p(7)["ok"]
    assert psi_p(13)["ok"]


def test_shape_check_range():
    for p in primes_in(7, 500, lambda q: q % 4 == 1):
        notes = shape_check_3p(p)
        assert notes == (), (p, notes)


def test_shape_check_rejects_wrong_class():
    with pytest.raises(ValueError):
        shape_check_3p(11)
    with pytest.raises(ValueError):
        shape_check_3p(5)


def test_shape_case_table_examples():
    # p = 13 mod 24: 8000 present, 54000 absent; p = 17 mod 24: the reverse;
    # p = 1 mod 24: neither
    from s3genus2.structure import root_profile

    for p, want8000, want54000 in ((13, True, False), (17, False, True), (73, False, False), (29, True, True)):
        prof = root_profile(p)
        assert (8000 % p in rational_js(prof)) == want8000, p
        assert (54000 % p in rational_js(prof)) == want54000, p


def test_minus_32768_not_a_rational_root_beyond_collisions():
    # 8000 = -32768 mod 13 and 54000 = -32768 mod 17, 29: below 31 the
    # collision is a residue coincidence, not an extra root
    for p in primes_in(31, 500, lambda q: q % 4 == 1):
        prof = root_profile(p)
        assert (-32768) % p not in rational_js(prof), p


def test_graph_p23_paper_scale_example():
    g = build_graph(23)
    assert weight_sum(g) == 9  # psi_23
    assert g.vertices == (1728 % 23, 54000 % 23) or g.vertices == (54000 % 23, 1728 % 23)
    loops = [e for e in g.edges if e[0] == e[1]]
    assert loops == [(54000 % 23, 54000 % 23, 3)]
    assert sum((u, v).count(1728 % 23) for u, v, _ in g.edges) == 1  # deg(1728)


def test_graph_verdicts_range():
    for p in primes_in(13, 600, lambda q: q % 12 == 11):
        g = build_graph(p)
        notes = check_graph_structure(g)
        assert notes == (), (p, notes)
        n = len(g.vertices)
        assert weight_sum(g) == 6 * n - 3


def test_graph_rejects_wrong_class_and_p11():
    with pytest.raises(ValueError):
        build_graph(13)
    g11 = build_graph(11)
    assert weight_sum(g11) == 3
    with pytest.raises(ValueError):
        check_graph_structure(g11)


def test_graph_serialization_deterministic():
    g = build_graph(23)
    dot = _dot(g)
    assert dot == (
        'graph G_23 {\n  "3";\n  "19";\n  "3" -- "19" [label=6];\n'
        '  "19" -- "19" [label=3];\n}\n'
    )
    assert _line(_graph_data(g), None) == (
        '{"p":23,"vertices":[3,19],"edges":[{"u":3,"v":19,"w":6},'
        '{"u":19,"v":19,"w":3}]}'
    )


# each clause of check_graph_structure, on graphs edited by hand; 1728 is
# 3 mod 23 and 36 mod 47, 54000 is 19 mod 23 and 44 mod 47


@pytest.mark.parametrize("p, edges, vertices, notes", [
    (23, ((3, 3, 3), (3, 19, 6), (19, 19, 3)), None,
     ("self loops at [3, 19], want only 19", "deg(1728)=3",
      "edge weights do not sum to psi_p")),
    (23, ((3, 19, 6), (19, 19, 6)), None,
     ("self loop weight != 3", "edge weights do not sum to psi_p")),
    (23, None, (19,),
     ("special vertices missing", "psi=9 != 6n-3 with n=1", "h(-p)=3 != 2n-1 with n=1",
      "handshake failure")),
    (47, ((10, 36, 6), (10, 36, 6), (10, 44, 6), (44, 44, 3)), None,
     ("deg(10)=3", "deg(1728)=2", "edge weights do not sum to psi_p")),
    (23, ((19, 19, 3),), None,
     ("deg(1728)=0", "deg(54000)=2", "54000 has 0 plain edges, want 1",
      "edge weights do not sum to psi_p")),
    # two orbits on one pair: the one input the lambda count merges into one
    # edge where the orbit walk kept two
    (23, ((3, 19, 12), (19, 19, 3)), None,
     ("non-loop edge weight != 6", "edge weights do not sum to psi_p")),
], ids=["second-loop", "loop-weight-6", "no-1728", "degree-3", "54000-cut-off", "weight-12"])
def test_graph_check_names_each_failed_clause(p, edges, vertices, notes):
    g = build_graph(p)
    assert check_graph_structure(g) == ()
    edited = dataclasses.replace(g, edges=edges or g.edges, vertices=vertices or g.vertices)
    assert check_graph_structure(edited) == notes


def test_structure_graphs_match_the_orbit_walk_in_json_and_dot(capsys, tmp_path):
    # the oracle's graph, spelled here, against both of cli's spellings
    primes = primes_in(11, 400, lambda q: q % 12 == 11)
    assert main(["structure", "--from", "11", "--to", "400", "--format", "json"]) == 0
    lines = {json.loads(ln)["p"]: ln for ln in capsys.readouterr().out.splitlines()}
    assert main(["structure", "--from", "11", "--to", "400", "--format", "dot",
                 "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(f"g_{p}.dot" for p in primes)
    for p in primes:
        g = build_graph_oracle(p)
        edges = ",".join(f'{{"u":{u},"v":{v},"w":{w}}}' for u, v, w in g.edges)
        vertices = ",".join(map(str, g.vertices))
        assert lines[p].endswith(
            f',"graph_data":{{"p":{p},"vertices":[{vertices}],"edges":[{edges}]}}}}'), p
        dot = [f"graph G_{p} {{"] + [f'  "{v}";' for v in g.vertices]
        dot += [f'  "{u}" -- "{v}" [label={w}];' for u, v, w in g.edges] + ["}"]
        assert (tmp_path / f"g_{p}.dot").read_text(encoding="ascii") == "\n".join(dot) + "\n", p


def test_direct_root_check_tiny_primes():
    for p in (5, 13, 17, 29, 37, 41):
        assert direct_root_check(p), p


def _profile_with(p: int, edit):
    """root_profile(p) with its distinct j-invariants passed through edit."""
    prof = root_profile(p)
    return dataclasses.replace(prof, distinct_js=tuple(edit(prof.distinct_js)))


def test_direct_root_check_fails_without_a_conjugate_pair(monkeypatch):
    # p = 37 is the one tiny prime whose ledger holds a conjugate pair
    from s3genus2 import structure

    assert direct_root_check(37)
    assert conjugate_pairs(root_profile(37)) == (((3, 10), (3, 27)),)
    pair = {(3, 10), (3, 27)}
    monkeypatch.setattr(structure, "root_profile",
                        lambda p: _profile_with(p, lambda js: [j for j in js if j not in pair]))
    assert not direct_root_check(37)


@pytest.mark.parametrize("p", [13, 17, 29, 37, 41])
def test_direct_root_check_fails_on_a_rational_j_off_the_ledger(monkeypatch, p):
    from s3genus2 import structure

    stray = min({1, 2, 3} - {8000 % p, 54000 % p})
    monkeypatch.setattr(structure, "root_profile",
                        lambda q: _profile_with(q, lambda js: sorted({*js, (stray, 0)})))
    assert not direct_root_check(p)


# each clause of shape_check_3p, on profiles edited by hand; 8000 is 5 and
# 54000 is 11 mod 13


@pytest.mark.parametrize("p, edit, notes", [
    (13, lambda js: sorted({*js, (1, 0)}), ("unexpected rational roots [1]",)),
    (13, lambda js: [j for j in js if j != (5, 0)],
     ("8000 presence False vs p%8=5", "multiplicity ledger != h(-3p)",
      "weight ledger != psi_p")),
    (13, lambda js: sorted({*js, (11, 0)}),
     ("54000 presence True vs p%24=13", "multiplicity ledger != h(-3p)",
      "weight ledger != psi_p")),
    (37, lambda js: [j for j in js if j not in {(3, 10), (3, 27)}],
     ("multiplicity ledger != h(-3p)", "weight ledger != psi_p")),
], ids=["stray-rational", "8000-dropped", "54000-added", "pair-dropped"])
def test_shape_check_names_each_failed_clause(monkeypatch, p, edit, notes):
    from s3genus2 import structure

    assert shape_check_3p(p) == ()
    monkeypatch.setattr(structure, "root_profile", lambda q: _profile_with(q, edit))
    assert shape_check_3p(p) == notes


@pytest.mark.parametrize("js", [(), ((1, 0),), ((0, 0), (1, 0)), ((0, 0), (2, 1), (2, 4))],
                         ids=["none", "1", "0-and-1", "0-and-a-pair"])
def test_direct_root_check_at_5_wants_only_the_root_0(monkeypatch, js):
    from s3genus2 import structure

    monkeypatch.setattr(structure, "root_profile", lambda p: _profile_with(p, lambda _: js))
    assert not direct_root_check(5)


def test_graph_vertices_are_class_polynomial_roots_tiny():
    # at p = 11 mod 12 the level-p class polynomial mod p is
    # (X - 1728) R(X)^2, R the product of X - v over the other vertices
    from s3genus2.classno import hilbert_poly

    for p in (11, 23, 47, 59, 83, 107, 131, 167, 179):
        if class_number(p) > 8:
            continue
        product = [1]
        for v in build_graph(p).vertices:
            for _ in range(1 if v == 1728 % p else 2):
                product = intpoly.reduce_mod(intpoly.mul(product, [-v, 1]), p)
        assert product == hilbert_poly(p).mod(p), p


def test_structure_verdict_rows():
    v5, g5 = structure_verdict(5)
    assert v5["shape"] is True and v5["graph"] is None and g5 is None
    assert _line(v5, STRUCTURE_COLUMNS) == "5,1mod4,3,2,2,true,true,-"
    v7, _ = structure_verdict(7)
    assert v7["shape"] is None and v7["graph"] is None and v7["psi"] == 0
    v11, g11 = structure_verdict(11)
    assert v11["graph"] is None and g11 is not None
    assert "skipped" in v11["notes"][0]
    v23, g23 = structure_verdict(23)
    assert v23["graph"] is True and weight_sum(g23) == 9
    v13, _ = structure_verdict(13)
    assert v13["shape"] is True
    assert v13["closed_form"] and v13["shape"] is not False and v13["graph"] is not False
