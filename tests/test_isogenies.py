"""Tests for the explicit 3-isogeny machinery and the modular polynomials."""

import hashlib
import importlib.util
import json
import random
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import fp2_oracle as oracle
import numpy as np
import pytest
from fp2_oracle import (
    F,
    affine_check,
    descend_by_3,
    descend_by_3_pure_cube,
    eval_composed,
    j_invariant,
    normal_form,
    x_map,
)

from s3genus2 import cli, curves, family, fields, intpoly, isogenies
from s3genus2.classno import hilbert_poly
from s3genus2.curves import CubicCurve, LegendreCurve, _sqrt_table
from s3genus2.family import lambda_eps, lambda_eps_pairs, lambda_pair
from s3genus2.fields import fp2_mul, fp2_sqrt, is_prime, smallest_nonresidue
from s3genus2.isogenies import (
    S_NUM,
    T_NUM,
    IsogenyMap,
    _eval_lambda_poly,
    compose_is_minus3,
    phi_coefficients,
    resultant_factorization_check,
    verify_transcription,
)

SAMPLE = [(13, 3), (13, 7), (17, 5), (29, 11), (101, 23), (103, 40), (499, 77)]

# The transcribed denominators of s and t for the oracle: ascending x-powers,
# each a coefficient polynomial in lambda (ascending, rational part only).
# The production map evaluates q = 3x^2 - 2(lam+1)x - (lam-1)^2 instead;
# test_denominators_are_powers_of_q ties the two together.
S_DEN = (
    (1, -4, 6, -4, 1),
    (4, -4, -4, 4),
    (-2, 20, -2),
    (-12, -12),
    (9,),
)
T_DEN = (
    (-1, 6, -15, 20, -15, 6, -1),
    (-6, 18, -12, -12, 18, -6),
    (-3, -36, 78, -36, -3),
    (28, -60, -60, 28),
    (9, 126, 9),
    (-54, -54),
    (27,),
)


def _table_coeff(pair, lam: int, sqrt_delta: F) -> F:
    sq, rat = pair
    p = sqrt_delta.p
    return _eval_lambda_poly(rat, lam, p) + _eval_lambda_poly(sq, lam, p) * sqrt_delta


def closed_form_oracle(m: IsogenyMap, P):
    """Oracle: every coefficient table evaluated at (lam, d) for this int-pair point.

    The image is returned in the int-pair form of `IsogenyMap.image`; None
    where a denominator vanishes, at the kernel abscissas of both signs.
    """
    lam, p = m.lam, m.p
    d = oracle.lift(m.sqrt_delta, p) * -m.eps
    x, y = oracle.to_obj(P, p)
    xpows = [x**k for k in range(7)]
    sden = sum((_eval_lambda_poly(c, lam, p) * xpows[k] for k, c in enumerate(S_DEN)), F(0, 0, p))
    tden = sum((_eval_lambda_poly(c, lam, p) * xpows[k] for k, c in enumerate(T_DEN)), F(0, 0, p))
    if sden.is_zero() or tden.is_zero():
        return None
    snum = F(0, 0, p)
    for (xp, yp), pair in S_NUM.items():
        snum = snum + _table_coeff(pair, lam, d) * xpows[xp] * y**yp
    tnum = sum((_table_coeff(pair, lam, d) * xpows[xp] for xp, pair in T_NUM.items()), F(0, 0, p))
    return oracle.to_pairs((snum / sden, tnum * y / tden))


def _bivariate_mul(f, g):
    """Product of two polynomials in Z[lam][x], as ascending x-lists of
    ascending lam-lists."""
    out = [[] for _ in range(len(f) + len(g) - 1)]
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = intpoly.add(out[i + j], intpoly.mul(a, b))
    return out


def test_denominators_are_powers_of_q():
    # q = 3x^2 - 2(lam+1)x - (lam-1)^2, exactly over Z[lam][x]
    q = [[-1, 2, -1], [-2, -2], [3]]
    q2 = _bivariate_mul(q, q)
    assert q2 == [list(c) for c in S_DEN]
    assert _bivariate_mul(q2, q) == [list(c) for c in T_DEN]


def _admissible(p):
    return [lam for lam in range(2, p) if (lam * lam - lam + 1) % p]


def _maps(lam, p):
    s = lambda_pair(lam, p)[1]
    return IsogenyMap(lam, -1, s, p), IsogenyMap(lam, 1, s, p)


@pytest.fixture
def fresh_pair():
    """Tests that change how maps are built must not meet, or leave, a
    cached pair of `isogenies.isogeny_pair`."""
    isogenies.isogeny_pair.cache_clear()
    yield
    isogenies.isogeny_pair.cache_clear()


class _Replay:
    """Stands in for random.Random in `curves`: hands out fixed draws."""

    def __init__(self, values):
        self._values = iter(values)
        self.used = 0

    def randrange(self, p):
        self.used += 1
        return next(self._values)


def _replaying(monkeypatch, values) -> list:
    """Make compose_is_minus3 draw `values`; the list receives its generator."""
    made = []

    def make(seed):
        made.append(_Replay(values))
        return made[-1]

    monkeypatch.setattr(curves, "random", SimpleNamespace(Random=make))
    return made


def _with_pair(monkeypatch, pair):
    monkeypatch.setattr(isogenies, "isogeny_pair", lambda lam, p: pair)


def _fixed_multiplier(m):
    """Keep m's multiplier at its true value, so only the trial loop can catch
    a change made to m afterwards."""
    c = m.multiplier()
    m.multiplier = lambda: c
    return m


def _neg(u, p):
    return -u[0] % p, -u[1] % p


def _random_point(c, rng):
    """An int-pair point of c, drawn by the oracle's sampler."""
    return oracle.to_pairs(oracle.random_point(c, rng))


def _affine_points(c):
    """Every affine F_{p^2}-point of c, as int pairs."""
    p, n = c.p, c.n
    for a in range(p):
        for b in range(p):
            y = fp2_sqrt(c.rhs((a, b)), p, n)
            if y is not None:
                yield from {((a, b), y), ((a, b), _neg(y, p))}


@pytest.mark.parametrize("p", [13, 1009, 65537])
def test_lambda_params_agree_with_lambda_pair(p):
    # one Lambda^+- formula: lambda_pair and the scan's vector form both read
    # family.lambda_eps, from different square roots; below 10^4 the maps'
    # Lambda parameters and the object power form (1-lam)(lam + eps*sqrt(delta))^2
    # check the sign
    lams = _admissible(p)
    table = _sqrt_table(p)
    n = smallest_nonresidue(p)
    vec = [lambda_eps_pairs(np.array(lams, dtype=np.int64), eps, p, n, table) for eps in (-1, 1)]
    for i, lam in enumerate(lams):
        _, s, minus, plus = lambda_pair(lam, p)
        assert minus == (vec[0][0][i], vec[0][1][i]) and plus == (vec[1][0][i], vec[1][1][i])
        if p < 10_000:
            m_minus, m_plus = _maps(lam, p)
            assert (m_minus.source_lambda, m_minus.target_lambda) == (minus, plus), (p, lam)
            assert (m_plus.source_lambda, m_plus.target_lambda) == (plus, minus), (p, lam)
            one_m, sq = F(1 - lam, 0, p), F(*s, p)
            assert plus == (one_m * (lam + sq) ** 2).pair
            assert minus == (one_m * (lam - sq) ** 2).pair


def test_000_transcription_anchors_run_first():
    # the tabulated closed form must hit the anchor values before anything
    # else in this module is trusted
    for p, lam in SAMPLE:
        verify_transcription(lam, p)


def test_normal_form_lambda2_example():
    p = 101
    s3 = F(*fp2_sqrt((3, 0), p, smallest_nonresidue(p)), p)
    nf = normal_form(2, +1, s3)
    assert nf.A == 3 * (3 + 2 * s3)


def test_normal_form_A_nonzero_and_curve_identities():
    rng = random.Random(5)
    for p in (13, 29, 101, 499):
        for _ in range(10):
            lam = rng.randrange(2, p - 1)
            if (lam * lam - lam + 1) % p == 0:
                continue
            s = F(*lambda_pair(lam, p)[1], p)
            for eps in (-1, 1):
                nf = normal_form(lam, eps, s)
                assert not nf.A.is_zero()
                # the shift x -> X + a_eps turns E_{L^eps} into X^3 + A(X-B)^2
                src = F(*lambda_eps(lam, s.pair, eps, p), p)
                a_eps = (lam + 1 + 2 * eps * s) / 3
                one_plus = 1 + src
                assert 3 * a_eps - one_plus == nf.A
                assert 3 * a_eps * a_eps - 2 * a_eps * one_plus + src == -2 * nf.A * nf.B
                assert a_eps * (a_eps - 1) * (a_eps - src) == nf.A * nf.B * nf.B


def test_normal_form_degenerate_rejected():
    p = 13
    with pytest.raises(ValueError):
        normal_form(0, 1, F(1, 0, p))
    # p = 13 has roots of delta: lambda^2 - lambda + 1 = 0 at lambda = 4, 10
    assert (4 * 4 - 4 + 1) % 13 == 0
    with pytest.raises(ValueError):
        normal_form(4, 1, F(0, 0, p))


def test_second_form_preserves_j_and_conjugate_sum():
    for p, lam in SAMPLE[:5]:
        s = F(*lambda_pair(lam, p)[1], p)
        for eps in (-1, 1):
            c = normal_form(lam, eps, s).second_form_shift()
            # Y^2 = X^3 + (X + c)^2
            legendre = LegendreCurve(lambda_eps(lam, s.pair, eps, p), p)
            assert _cubic_j(F(1, 0, p), 2 * c, c * c).pair == j_invariant(legendre)
        c_minus = normal_form(lam, -1, s).second_form_shift()
        c_plus = normal_form(lam, +1, s).second_form_shift()
        assert c_minus + c_plus == F(4, 0, p) / 27


def _cubic_j(a2: F, a4: F, a6: F) -> F:
    b2, b4, b6 = 4 * a2, 2 * a4, 4 * a6
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
    disc = (c4**3 - c6 * c6) / 1728
    return c4**3 / disc


def _cubic(a2: F, a4: F, a6: F) -> CubicCurve:
    return CubicCurve(a2.pair, a4.pair, a6.pair, a2.p)


def test_descend_by_3_kernel_and_image():
    p = 103
    rng = random.Random(9)
    for _ in range(8):
        a = F(rng.randrange(p), rng.randrange(p), p)
        b = F(rng.randrange(p), rng.randrange(p), p)
        if a.is_zero() or b.is_zero():
            continue
        sa = oracle.sqrt(a)
        if sa is not None:
            assert descend_by_3(a, b, (F(0, 0, p), b * sa)) is None
        E = _cubic(a, -2 * a * b, a * b * b)
        quotient = _cubic(-27 * a, 2 * 27 * a * (4 * a + 27 * b), -27 * a * (4 * a + 27 * b) ** 2)
        for _ in range(5):
            img = descend_by_3(a, b, oracle.random_point(E, rng))
            assert quotient.contains(oracle.to_pairs(img))


def test_descend_twice_rescaled_is_multiplication_by_3():
    p = 103
    rng = random.Random(11)
    checked = 0
    for _ in range(20):
        a = F(rng.randrange(1, p), rng.randrange(p), p)
        b = F(rng.randrange(1, p), rng.randrange(p), p)
        E = _cubic(a, -2 * a * b, a * b * b)
        P = oracle.random_point(E, rng)
        Q1 = descend_by_3(a, b, P)
        if Q1 is None:
            continue
        Q2 = descend_by_3(-27 * a, 4 * a + 27 * b, Q1)
        if Q2 is None:
            continue
        assert (Q2[0] / (27 * 27), Q2[1] / (27 * 27 * 27)) == oracle.scalar_mul(E, 3, P)
        checked += 1
    assert checked >= 10


def test_descend_pure_cube_family():
    p = 103
    rng = random.Random(13)
    zero = F(0, 0, p)
    for _ in range(8):
        d = F(rng.randrange(1, p), rng.randrange(p), p)
        E = _cubic(zero, zero, d)
        quotient = _cubic(zero, zero, -27 * d)
        sd = oracle.sqrt(d)
        if sd is not None:
            assert descend_by_3_pure_cube(d, (zero, sd)) is None
        for _ in range(5):
            img = descend_by_3_pure_cube(d, oracle.random_point(E, rng))
            assert quotient.contains(oracle.to_pairs(img))


def test_psi_fixes_2_torsion_anchors():
    for p, lam in SAMPLE:
        m = _maps(lam, p)[0]
        for T in (((0, 0), (0, 0)), ((1, 0), (0, 0))):
            assert m.image(T) == T


def test_psi_maps_lambda_2_torsion_across():
    for p, lam in SAMPLE:
        for m in _maps(lam, p):
            assert m.image((m.source_lambda, (0, 0))) == (m.target_lambda, (0, 0))


def test_psi_kernel_maps_to_infinity():
    p, lam = 101, 23
    m = _maps(lam, p)[0]
    src = m.source
    y = fp2_sqrt(src.rhs(m.kernel_x), p, src.n)
    assert m.image(None) is None
    if y is not None:
        P = m.kernel_x, y
        assert m.image(P) is None
        assert oracle.scalar_mul(src, 3, oracle.to_obj(P, p)) is None


def test_psi_image_is_on_target_curve():
    rng = random.Random(3)
    for p, lam in SAMPLE:
        for m in _maps(lam, p):
            src, dst = m.source, m.target
            for _ in range(12):
                assert dst.contains(m.image(_random_point(src, rng)))


def test_closed_form_equals_composition():
    rng = random.Random(7)
    for p, lam in SAMPLE:
        for m in _maps(lam, p):
            src = m.source
            for _ in range(15):
                P = _random_point(src, rng)
                assert m.image(P) == eval_composed(m, P)


@pytest.mark.parametrize("p", [p for p in range(5, 24) if is_prime(p)])
def test_closed_form_matches_oracle_on_every_point(p):
    # every affine F_{p^2}-point of every admissible lambda, both signs: the
    # reduced map against the tables wherever q(x) != 0, and against the
    # composition route everywhere
    nones = 0
    for lam in _admissible(p):
        for m in _maps(lam, p):
            for P in _affine_points(m.source):
                got, want = m.image(P), closed_form_oracle(m, P)
                if want is not None:
                    assert got == want, (lam, m.eps, P)
                assert got == eval_composed(m, P), (lam, m.eps, P)
                nones += want is None
    assert nones > 0  # the zeros of q were among the points


@pytest.mark.parametrize("p", [1009, 9973, 19997])
def test_closed_form_matches_oracle_on_random_points(p):
    rng = random.Random(p)
    for _ in range(4):
        lam = rng.choice(_admissible(p)[:50])
        for m in _maps(lam, p):
            src = m.source
            for _ in range(50):
                P = _random_point(src, rng)
                want = closed_form_oracle(m, P)
                if want is not None:
                    assert m.image(P) == want


def _removable_points(m):
    """The points at x0' = (lam + 1 - 2 eps sqrt(delta)) / 3, where the tables vanish."""
    p, src = m.p, m.source
    x = (m.lam + 1 - 2 * m.eps * oracle.lift(m.sqrt_delta, p)) / 3
    y = oracle.sqrt(oracle.rhs(src, x))
    return [] if y is None else sorted({(x.pair, y.pair), (x.pair, (-y).pair)})


def test_vanishing_denominator_falls_back_to_composition():
    # the tabulated denominators vanish at the kernel abscissa of psi^-eps,
    # where the reduced map agrees with the composition route
    checked = 0
    for p, lam in SAMPLE:
        for m in _maps(lam, p):
            for P in _removable_points(m):
                assert closed_form_oracle(m, P) is None
                img = m.image(P)
                assert img == eval_composed(m, P) and m.target.contains(img)
                checked += 1
    assert checked > 0


def test_removable_singularity_matches_composition_below_110():
    # every point at x0' of every admissible lambda, both signs: the reduced
    # map agrees with the composition route
    cases = 0
    for p in range(5, 110):
        if not is_prime(p):
            continue
        for lam in _admissible(p):
            for m in _maps(lam, p):
                for P in _removable_points(m):
                    assert m.image(P) == eval_composed(m, P), (p, lam, m.eps, P)
                    cases += 1
    assert cases > 0


def test_psi_is_homomorphism_on_samples():
    rng = random.Random(17)
    m = _maps(40, 103)[0]
    src, dst = m.source, m.target
    p = m.p
    for _ in range(10):
        P, Q = oracle.random_point(src, rng), oracle.random_point(src, rng)
        sum_image = m.image(oracle.to_pairs(oracle.add(src, P, Q)))
        images = (oracle.to_obj(m.image(oracle.to_pairs(R)), p) for R in (P, Q))
        assert sum_image == oracle.to_pairs(oracle.add(dst, *images))


def test_flipping_sqrt_sign_swaps_the_maps():
    p, lam = 101, 23
    s = lambda_pair(lam, p)[1]
    m_plus = IsogenyMap(lam, +1, s, p)
    m_flip = IsogenyMap(lam, -1, _neg(s, p), p)
    assert m_plus.source_lambda == m_flip.source_lambda
    rng = random.Random(23)
    src = m_plus.source
    for _ in range(10):
        P = _random_point(src, rng)
        assert m_plus.image(P) == m_flip.image(P)


def test_frobenius_equivariance_when_sqrt_irrational():
    # F o psi^- = psi^+ o F on E_{L^-} whenever sqrt(delta) is not in F_p
    def frob(P, p):
        return None if P is None else tuple((u[0], -u[1] % p) for u in P)

    rng = random.Random(29)
    done = 0
    for p, lam in SAMPLE:
        if lambda_pair(lam, p)[1][1] == 0:
            continue
        m_minus, m_plus = _maps(lam, p)
        src = m_minus.source
        for _ in range(100 // 4):
            P = _random_point(src, rng)
            assert frob(m_minus.image(P), p) == m_plus.image(frob(P, p))
            done += 1
    assert done >= 50


def test_compose_is_minus3_samples():
    assert compose_is_minus3(3, 13, trials=25, seed=1)
    assert compose_is_minus3(23, 101, trials=25, seed=2)
    assert compose_is_minus3(40, 103, trials=25, seed=3)


def test_compose_on_3_torsion_gives_infinity():
    # a kernel point of psi^- is 3-torsion, so the composite kills it
    for p, lam in SAMPLE:
        m_minus, m_plus = _maps(lam, p)
        src = m_minus.source
        y = fp2_sqrt(src.rhs(m_minus.kernel_x), p, src.n)
        if y is None:
            continue
        P = m_minus.kernel_x, y
        assert m_plus.image(m_minus.image(P)) is None
        assert oracle.scalar_mul(src, -3, oracle.to_obj(P, p)) is None


def test_image_checks_source_and_target(monkeypatch):
    m = _maps(23, 101)[0]
    src, dst = m.source, m.target
    off = ((5, 0), (1, 0))
    if src.contains(off):
        off = ((5, 0), (2, 0))
    with pytest.raises(ValueError):
        m.image(off)
    P = _random_point(src, random.Random(1))
    img = m.image(P)
    assert img[1] != (0, 0)
    # doubling T doubles t, which leaves the target curve where t != 0
    monkeypatch.setattr(m, "_T", [(2 * a % m.p, 2 * b % m.p) for a, b in m._T])
    assert not dst.contains((img[0], (2 * img[1][0] % m.p, 2 * img[1][1] % m.p)))
    with pytest.raises(ArithmeticError):
        m.image(P)


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_isogeny_stdout_matches_the_golden_pool_lines(capsys):
    # the printed lines of every isogeny-pool tuple, byte for byte
    wl = _load_workloads()
    pool = wl.isogeny_pool()
    assert len(pool) == 120
    golden = json.loads((wl.GOLDEN / "isogeny.json").read_text(encoding="ascii"))
    lines = {tuple(k): v for k, v in golden["pool"]}
    for p, lam, seed in pool:
        assert cli.main(wl.isogeny_argv(p, lam, seed)) == 0
        assert capsys.readouterr().out == "".join(ln + "\n" for ln in lines[(p, lam, seed)])


def test_compose_trial_loop_builds_no_field_objects(monkeypatch, fresh_pair):
    # a trial takes no square root: only lambda_pair's, once per pair of
    # maps built, remain
    roots = 0

    def counting_sqrt(*args):
        nonlocal roots
        roots += 1
        return fields.fp2_sqrt(*args)

    monkeypatch.setattr(family, "fp2_sqrt", counting_sqrt)
    counts = []
    for trials in (1, 40):
        roots = 0
        isogenies.isogeny_pair.cache_clear()
        assert compose_is_minus3(40, 1009, trials=trials, seed=5)
        counts.append(roots)
    assert counts[0] == counts[1] == 1
    assert not hasattr(curves, "fp2_sqrt") and not hasattr(isogenies, "fp2_sqrt")


def test_x_only_check_passes_on_every_admissible_lambda_and_the_pool():
    for p in (17, 19, 23):
        for lam in _admissible(p):
            assert compose_is_minus3(lam, p, trials=20, seed=lam), (p, lam)
    for p, lam, seed in _load_workloads().isogeny_pool():
        assert compose_is_minus3(lam, p, trials=50, seed=seed), (p, lam, seed)
    for p in (2147483629, 2**31 - 1):
        assert compose_is_minus3(1234, p, trials=50, seed=1), p


def test_infinity_on_the_left_must_meet_a_zero_of_psi3(monkeypatch):
    # at p = 5..13 the seeded draws reach every x, kernel abscissas included:
    # each pole of the composite x-map is a root of psi3, and the loop passes
    # on them; the draws are replayed here, in the order that
    # test_compose_draws_four_residues_a_trial pins
    poles = 0
    for p in (5, 7, 11, 13):
        for lam in _admissible(p):
            assert compose_is_minus3(lam, p, trials=1000, seed=p), (p, lam)
            rng = random.Random(p)
            m_minus, m_plus = _maps(lam, p)
            for _ in range(1000):
                for first, second in ((m_minus, m_plus), (m_plus, m_minus)):
                    x = rng.randrange(p), rng.randrange(p)
                    poles += x_map(second, x_map(first, x)) is None
    assert poles > 0
    # a pole planted at a fixed 2-torsion abscissa, where psi3 != 0, fails.
    # Every S vanishes at x = 0 (s fixes (0, 0)), so a pole put there through
    # Q reads (0 : 0) and is refused before the trials; at x = 1, S(1) = Q(1)^2
    # != 0 and the trial itself must fail, psi3(1) = -(L - 1)^2 != 0
    for p in (5, 7, 11, 13):
        for lam in _admissible(p):
            for root, caught in (((0, 0), False), ((1, 0), True)):
                planted = [_fixed_multiplier(m) for m in _maps(lam, p)]
                _with_pair(monkeypatch, tuple(planted))
                _replaying(monkeypatch, [root[0], root[1]] * 4)
                assert compose_is_minus3(lam, p, trials=2, seed=p), (p, lam, root)
                for m in planted:
                    m._Q = [(-3 * root[0] % p, 0), (3, 0)]
                made = _replaying(monkeypatch, [root[0], root[1]] * 4)
                assert not compose_is_minus3(lam, p, trials=2, seed=p), (p, lam, root)
                assert sum(r.used for r in made) == 2 * caught, (p, lam, root)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
def test_trial_loop_agrees_with_the_affine_oracle_on_every_x(p, monkeypatch):
    # every x in F_{p^2}, every admissible lambda, both directions: kernel
    # abscissas, x = 0, the 2- and the 3-torsion.  The loop passes on all of
    # them where the affine x-maps do; with S_1 of psi^- off by the first d
    # that leaves S prime to Q (a common root reads (0 : 0) and is refused
    # before the trials), the verdict of each x, both directions fed the
    # same x, is the oracle's
    xs = [(a, b) for a in range(p) for b in range(p)]
    for lam in _admissible(p):
        maps = _maps(lam, p)
        checks = [affine_check(*maps), affine_check(*maps[::-1])]
        assert all(check(x) for x in xs for check in checks), lam
        _with_pair(monkeypatch, maps)
        _replaying(monkeypatch, [c for x in xs for c in x + x])
        assert compose_is_minus3(lam, p, trials=len(xs), seed=0), lam
        bumped = _maps(lam, p)
        S = _fixed_multiplier(bumped[0])._S
        for d in range(1, p):
            bumped[0]._S = [S[0], ((S[1][0] + d) % p, S[1][1]), *S[2:]]
            if isogenies._x_map_form(bumped[0], p, bumped[0].n) is not None:
                break
        checks = [affine_check(*bumped), affine_check(*bumped[::-1])]
        _with_pair(monkeypatch, bumped)
        verdicts = set()
        for x in xs:
            _replaying(monkeypatch, x + x)
            got = compose_is_minus3(lam, p, trials=1, seed=0)
            assert got == (checks[0](x) and checks[1](x)), (lam, x)
            verdicts.add(got)
        assert False in verdicts, lam


def test_compose_draws_four_residues_a_trial(monkeypatch):
    # --seed means the same x's: a passing call leaves its generator where
    # 4 trials calls of randrange(p) leave random.Random(seed)
    made = []

    class Recording(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(curves, "random", SimpleNamespace(Random=Recording))
    for lam, p, trials, seed in ((3, 13, 200, 1), (5, 1009, 37, 11), (1234, 19997, 50, 3)):
        made.clear()
        assert compose_is_minus3(lam, p, trials=trials, seed=seed)
        want = random.Random(seed)
        for _ in range(4 * trials):
            want.randrange(p)
        assert len(made) == 1 and made[0].getstate() == want.getstate(), (p, lam)


@pytest.mark.parametrize("p", [17, 19, 23])
def test_composed_route_twice_is_minus3(p):
    # the oracle route: the four-map composition applied twice against the
    # object law's [-3], on random points and the points at x0'
    rng = random.Random(p)
    for lam in _admissible(p):
        m_minus, m_plus = _maps(lam, p)
        for first, second in ((m_minus, m_plus), (m_plus, m_minus)):
            src = first.source
            points = [oracle.random_point(src, rng) for _ in range(5)]
            points += [oracle.to_obj(P, p) for P in _removable_points(first)]
            for P in points:
                twice = eval_composed(second, eval_composed(first, oracle.to_pairs(P)))
                assert twice == oracle.to_pairs(oracle.scalar_mul(src, -3, P)), (lam, P)


@pytest.mark.parametrize("p", [1009, 10007, 19997, 2147483629])
def test_tables_divide_exactly_and_pull_back_dx_over_y(p):
    # Q = q/(x - x0') is 3(x - x0), S and T are cubics, and the multipliers
    # of the invariant differential multiply to -3
    rng = random.Random(p)
    for _ in range(20):
        lam = rng.randrange(2, p)
        if (lam * lam - lam + 1) % p == 0:
            continue
        m_minus, m_plus = _maps(lam, p)
        for m in (m_minus, m_plus):
            x0 = m.kernel_x
            assert m._Q == [(-3 * x0[0] % p, -3 * x0[1] % p), (3, 0)]
            assert len(m._S) == len(m._T) == 4
        ca, cb = m_minus.multiplier(), m_plus.multiplier()
        assert F(*ca, p) * F(*cb, p) == -3, (p, lam)


@pytest.mark.parametrize("table", ["S_NUM", "T_NUM"])
def test_a_wrong_table_coefficient_fails_the_check(table, monkeypatch, fresh_pair):
    # adding 1 to any one coefficient either breaks the exact division or
    # fails the check
    p, lam = 1009, 5
    terms = getattr(isogenies, table)
    for key, pair in list(terms.items()):
        for part in (0, 1):
            for i in range(len(pair[part])):
                bumped = [list(pair[0]), list(pair[1])]
                bumped[part][i] += 1
                monkeypatch.setitem(terms, key, (tuple(bumped[0]), tuple(bumped[1])))
                isogenies.isogeny_pair.cache_clear()
                try:
                    assert not compose_is_minus3(lam, p, trials=5, seed=1), (key, part, i)
                except ArithmeticError:
                    pass
        monkeypatch.setitem(terms, key, pair)


@pytest.mark.parametrize("attr, k", [("_S", k) for k in range(4)] + [("_Q", k) for k in range(2)]
                         + [("_T", k) for k in range(4)] + [("_T", None)])
def test_a_wrong_reduced_coefficient_fails_without_raising(attr, k, monkeypatch, fresh_pair):
    # past the division, the x-map comparison and the constant multiplier
    # must catch a wrong S, Q or T; k = None zeroes the leading coefficient
    # of T
    class Bumped(IsogenyMap):
        def __init__(self, *args):
            super().__init__(*args)
            coeffs = list(getattr(self, attr))
            if k is None:
                coeffs[-1] = (0, 0)
            else:
                coeffs[k] = ((coeffs[k][0] + 1) % self.p, coeffs[k][1])
            setattr(self, attr, coeffs)

    monkeypatch.setattr(isogenies, "IsogenyMap", Bumped)
    for p, lam in ((1009, 5), (2003, 10), (10007, 77), (19997, 1234)):
        assert not compose_is_minus3(lam, p, trials=5, seed=1), (p, lam)


def test_degenerate_lambda_rejected():
    with pytest.raises(ValueError):
        IsogenyMap(1, -1, (1, 0), 13)


# ---------------------------------------------------------------------------
# modular polynomials: the level-2 and level-3 identities that no command
# reports are checked on the package's coefficient table by these helpers


def modular_poly_eval(level: int, x, y, p: int) -> tuple[int, int]:
    """Phi_level(x, y) at two (a, b) pairs of F_{p^2}."""
    table = phi_coefficients(level)
    n = smallest_nonresidue(p)
    deg = max(i for i, _ in table)
    xp, yp = [(1, 0)], [(1, 0)]
    for _ in range(deg):
        xp.append(fp2_mul(xp[-1], x, p, n))
        yp.append(fp2_mul(yp[-1], y, p, n))
    acc_a, acc_b = 0, 0
    for (i, j), c in table.items():
        ua, ub = fp2_mul(xp[i], yp[j], p, n)
        acc_a, acc_b = (acc_a + c * ua) % p, (acc_b + c * ub) % p
    return acc_a, acc_b


def phi_substitute_int(level: int, y0: int) -> list[int]:
    """Phi_level(X, y0) as an exact integer polynomial in X (ascending)."""
    table = phi_coefficients(level)
    out = [0] * (max(i for i, _ in table) + 1)
    for (i, j), c in table.items():
        out[i] += c * y0**j
    return intpoly.trim(out)


def phi_diagonal_int(level: int) -> list[int]:
    """Phi_level(X, X) over the integers (ascending)."""
    table = phi_coefficients(level)
    out = [0] * (2 * max(i for i, _ in table) + 1)
    for (i, j), c in table.items():
        out[i + j] += c
    return intpoly.trim(out)


def test_phi3_vanishes_on_isogenous_pair():
    for p, lam in SAMPLE:
        _, _, minus, plus = lambda_pair(lam, p)
        j1 = j_invariant(LegendreCurve(minus, p))
        j2 = j_invariant(LegendreCurve(plus, p))
        assert modular_poly_eval(3, j1, j2, p) == (0, 0)


def test_phi3_at_8000_8000_is_zero():
    poly = phi_substitute_int(3, 8000)
    assert sum(c * 8000**i for i, c in enumerate(poly)) == 0


def test_phi2_at_8000_factors_into_class_polys():
    got = phi_substitute_int(2, 8000)
    want = intpoly.mul(
        list(hilbert_poly(8).coefficients), list(hilbert_poly(32).coefficients)
    )
    assert got == want


def test_phi3_diagonal_factorization_with_recorded_sign():
    got = phi_diagonal_int(3)
    prod = [1]
    for D, e in ((3, 1), (12, 1), (8, 2), (11, 2)):
        f = list(hilbert_poly(D).coefficients)
        for _ in range(e):
            prod = intpoly.mul(prod, f)
    assert got == intpoly.neg(prod)  # the minus-sign variant is the true one


def test_phi_symmetry_random():
    rng = random.Random(31)
    p = 1009
    for level in (2, 3):
        for _ in range(20):
            x = rng.randrange(p), rng.randrange(p)
            y = rng.randrange(p), rng.randrange(p)
            assert modular_poly_eval(level, x, y, p) == modular_poly_eval(level, y, x, p)


def test_phi_kronecker_congruences():
    # Phi_2(X, Y) = (X - Y^2)(X^2 - Y) mod 2, Phi_3(X, Y) = (X - Y^3)(X^3 - Y) mod 3
    for level, p in ((2, 2), (3, 3)):
        full = phi_coefficients(level)
        assert all(full[(j, i)] == c for (i, j), c in full.items())
        want = {
            (1, 0): 1, (0, level): -1, (level + 1, 0): 0,  # placeholder, rebuilt below
        }
        want = {}
        # (X - Y^level)(X^level - Y)
        want[(level + 1, 0)] = want.get((level + 1, 0), 0) + 1
        want[(1, 1)] = want.get((1, 1), 0) - 1
        want[(level, level)] = want.get((level, level), 0) - 1
        want[(0, level + 1)] = want.get((0, level + 1), 0) + 1
        keys = set(full) | set(want)
        for k in keys:
            assert (full.get(k, 0) - want.get(k, 0)) % p == 0, (level, k)


def test_unsupported_level_rejected():
    with pytest.raises(ValueError):
        modular_poly_eval(5, (1, 0), (1, 0), 13)


def test_data_file_hash_pinned():
    data = resources.files("s3genus2.data").joinpath("modular_polynomials.txt").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "aa6181816c8d393878c21466717a7c0f12750665f038917102d4146183fb0cb9"
    )


def test_resultant_factorization_identity():
    ok, constant = resultant_factorization_check()
    assert ok
    # the quoted product is off by the content: the exact identity carries -27
    assert constant == -27


def test_resultant_vanishes_at_zero():
    from s3genus2.isogenies import _phi3_bivariate

    F, dF = _phi3_bivariate()
    res = intpoly.resultant_bivariate(F, dF)
    assert intpoly.degree(res) == 20
    assert res[0] == 0  # the value at Y = 0
