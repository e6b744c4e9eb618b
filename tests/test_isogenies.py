"""Tests for the explicit 3-isogeny machinery and the modular polynomials."""

import hashlib
import importlib.util
import random
from importlib import resources
from pathlib import Path

import group_oracle as oracle
import pytest

from s3genus2 import intpoly
from s3genus2.classno import hilbert_poly
from s3genus2.curves import (
    INFINITY,
    CubicCurve,
    CurvePoint,
    LegendreCurve,
    as_pairs,
    as_point,
    j_invariant,
)
from s3genus2.family import lambda_pair
from s3genus2.fields import QuadExtElement, is_prime, sqrt_fp2
from s3genus2.isogenies import (
    S_DEN,
    S_NUM,
    T_DEN,
    T_NUM,
    IsogenyMap,
    _eval_lambda_poly,
    compose_is_minus3,
    descend_by_3,
    descend_by_3_pure_cube,
    lambda_params,
    resultant_factorization_check,
    modular_poly_eval,
    normal_form,
    phi_diagonal_int,
    phi_substitute_int,
    resultant_degree,
    verify_transcription,
)

SAMPLE = [(13, 3), (13, 7), (17, 5), (29, 11), (101, 23), (103, 40), (499, 77)]


def _table_coeff(pair, lam: int, sqrt_delta: QuadExtElement) -> QuadExtElement:
    sq, rat = pair
    p = sqrt_delta.p
    return _eval_lambda_poly(rat, lam, p) + _eval_lambda_poly(sq, lam, p) * sqrt_delta


def closed_form_oracle(m: IsogenyMap, P: CurvePoint):
    """Oracle: every coefficient table evaluated at (lam, d) for this point.

    The image is returned in the int-pair form of `IsogenyMap._closed_form`.
    """
    lam, p = m.lam, m.p
    d = m.sqrt_delta if m.eps == -1 else -m.sqrt_delta
    x, y = P.x, P.y
    y2 = y * y
    xpows = [QuadExtElement(1, 0, p)]
    for _ in range(6):
        xpows.append(xpows[-1] * x)
    sden = QuadExtElement(0, 0, p)
    for k, coeffs in enumerate(S_DEN):
        sden = sden + _eval_lambda_poly(coeffs, lam, p) * xpows[k]
    if sden.is_zero():
        return None
    snum = QuadExtElement(0, 0, p)
    for (xp, yp), pair in S_NUM.items():
        term = _table_coeff(pair, lam, d) * xpows[xp]
        if yp:
            term = term * y2
        snum = snum + term
    tden = QuadExtElement(0, 0, p)
    for k, coeffs in enumerate(T_DEN):
        tden = tden + _eval_lambda_poly(coeffs, lam, p) * xpows[k]
    if tden.is_zero():
        return None
    tnum = QuadExtElement(0, 0, p)
    for xp, pair in T_NUM.items():
        tnum = tnum + _table_coeff(pair, lam, d) * xpows[xp]
    return as_pairs(CurvePoint(snum / sden, tnum * y / tden))


def _admissible(p):
    return [lam for lam in range(2, p) if (lam * lam - lam + 1) % p]


@pytest.mark.parametrize("p", [13, 1009, 65537])
def test_lambda_params_agree_with_lambda_pair(p):
    # one Lambda^+- formula: lambda_params and lambda_pair both read family.lambda_eps;
    # below 10^4 the object-power form (1-lam)(lam + eps*sqrt(delta))^2 checks the sign
    for lam in _admissible(p):
        _, s, minus, plus = lambda_pair(lam, p)
        assert lambda_params(lam, -1, s) == (minus, plus), (p, lam)
        assert lambda_params(lam, 1, s) == (plus, minus), (p, lam)
        if p < 10_000:
            one_m, lam_e = QuadExtElement(1 - lam, 0, p), QuadExtElement(lam, 0, p)
            assert plus == one_m * (lam_e + s) ** 2 and minus == one_m * (lam_e - s) ** 2


def test_000_transcription_anchors_run_first():
    # the tabulated closed form must hit the anchor values before anything
    # else in this module is trusted
    for p, lam in SAMPLE:
        verify_transcription(lam, p)


def test_normal_form_lambda2_example():
    p = 101
    s3 = sqrt_fp2(QuadExtElement(3, 0, p))
    nf = normal_form(2, +1, s3)
    assert nf.A == 3 * (3 + 2 * s3)


def test_normal_form_A_nonzero_and_curve_identities():
    rng = random.Random(5)
    for p in (13, 29, 101, 499):
        for _ in range(10):
            lam = rng.randrange(2, p - 1)
            if (lam * lam - lam + 1) % p == 0:
                continue
            s = lambda_pair(lam, p)[1]
            for eps in (-1, 1):
                nf = normal_form(lam, eps, s)
                assert not nf.A.is_zero()
                # the shift x -> X + a_eps turns E_{L^eps} into X^3 + A(X-B)^2
                src, _ = lambda_params(lam, eps, s)
                a_eps = (QuadExtElement(lam + 1, 0, p) + 2 * eps * s) / 3
                one_plus = 1 + src
                assert 3 * a_eps - one_plus == nf.A
                assert 3 * a_eps * a_eps - 2 * a_eps * one_plus + src == -2 * nf.A * nf.B
                assert a_eps * (a_eps - 1) * (a_eps - src) == nf.A * nf.B * nf.B


def test_normal_form_degenerate_rejected():
    p = 13
    with pytest.raises(ValueError):
        normal_form(0, 1, sqrt_fp2(QuadExtElement(1, 0, p)))
    # p = 13 has roots of delta: lambda^2 - lambda + 1 = 0 at lambda = 4, 10
    assert (4 * 4 - 4 + 1) % 13 == 0
    with pytest.raises(ValueError):
        normal_form(4, 1, sqrt_fp2(QuadExtElement(0, 0, 13)))


def test_second_form_preserves_j_and_conjugate_sum():
    for p, lam in SAMPLE[:5]:
        s = lambda_pair(lam, p)[1]
        for eps in (-1, 1):
            nf = normal_form(lam, eps, s)
            c = nf.second_form_shift()
            # Y^2 = X^3 + (X + c)^2
            second = CubicCurve(1, 2 * c, c * c, p)
            src_lambda, _ = lambda_params(lam, eps, s)
            legendre = LegendreCurve(src_lambda, p)
            assert _cubic_j(second) == j_invariant(legendre)
        c_minus = normal_form(lam, -1, s).second_form_shift()
        c_plus = normal_form(lam, +1, s).second_form_shift()
        assert c_minus + c_plus == QuadExtElement(4, 0, p) / 27


def _cubic_j(c: CubicCurve) -> QuadExtElement:
    b2 = 4 * c.a2
    b4 = 2 * c.a4
    b6 = 4 * c.a6
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
    disc = (c4**3 - c6 * c6) / 1728
    return c4**3 / disc


def test_descend_by_3_kernel_and_image():
    p = 103
    rng = random.Random(9)
    for _ in range(8):
        a = QuadExtElement(rng.randrange(p), rng.randrange(p), p)
        b = QuadExtElement(rng.randrange(p), rng.randrange(p), p)
        if a.is_zero() or b.is_zero():
            continue
        sa = sqrt_fp2(a)
        if sa is not None:
            kernel_pt = CurvePoint(QuadExtElement(0, 0, p), b * sa)
            assert descend_by_3(a, b, kernel_pt) == INFINITY
        E = CubicCurve(a, -2 * a * b, a * b * b, p)
        quotient = CubicCurve(
            -27 * a, 2 * 27 * a * (4 * a + 27 * b), -27 * a * (4 * a + 27 * b) ** 2, p
        )
        for _ in range(5):
            P = E.random_point(rng)
            img = descend_by_3(a, b, P)
            assert quotient.contains(img)


def test_descend_twice_rescaled_is_multiplication_by_3():
    p = 103
    rng = random.Random(11)
    checked = 0
    for _ in range(20):
        a = QuadExtElement(rng.randrange(1, p), rng.randrange(p), p)
        b = QuadExtElement(rng.randrange(1, p), rng.randrange(p), p)
        E = CubicCurve(a, -2 * a * b, a * b * b, p)
        P = E.random_point(rng)
        Q1 = descend_by_3(a, b, P)
        if Q1.is_infinity:
            continue
        a2 = -27 * a
        b2 = 4 * a + 27 * b
        Q2 = descend_by_3(a2, b2, Q1)
        if Q2.is_infinity:
            continue
        scaled = CurvePoint(Q2.x / (27 * 27), Q2.y / (27 * 27 * 27))
        assert scaled == oracle.scalar_mul(E, 3, P)
        checked += 1
    assert checked >= 10


def test_descend_pure_cube_family():
    p = 103
    rng = random.Random(13)
    for _ in range(8):
        d = QuadExtElement(rng.randrange(1, p), rng.randrange(p), p)
        E = CubicCurve(0, 0, d, p)
        quotient = CubicCurve(0, 0, -27 * d, p)
        sd = sqrt_fp2(d)
        if sd is not None:
            assert descend_by_3_pure_cube(d, CurvePoint(QuadExtElement(0, 0, p), sd)) == INFINITY
        for _ in range(5):
            P = E.random_point(rng)
            img = descend_by_3_pure_cube(d, P)
            assert quotient.contains(img)


def test_psi_fixes_2_torsion_anchors():
    for p, lam in SAMPLE:
        s = lambda_pair(lam, p)[1]
        m = IsogenyMap(lam, -1, s)
        src = m.source_curve()
        assert m(src.point(0, 0)) == src.point(0, 0)
        assert m(src.point(1, 0)) == src.point(1, 0)


def test_psi_maps_lambda_2_torsion_across():
    for p, lam in SAMPLE:
        s = lambda_pair(lam, p)[1]
        for eps in (-1, 1):
            m = IsogenyMap(lam, eps, s)
            src = m.source_curve()
            img = m(src.point(m.source_lambda, 0))
            assert img.x == m.target_lambda and img.y.is_zero()


def test_psi_kernel_maps_to_infinity():
    p, lam = 101, 23
    s = lambda_pair(lam, p)[1]
    m = IsogenyMap(lam, -1, s)
    src = m.source_curve()
    y = sqrt_fp2(src.rhs(m.kernel_x))
    assert m(INFINITY) == INFINITY
    if y is not None:
        P = src.point(m.kernel_x, y)
        assert m(P) == INFINITY
        assert oracle.scalar_mul(src, 3, P) == INFINITY


def test_psi_image_is_on_target_curve():
    rng = random.Random(3)
    for p, lam in SAMPLE:
        s = lambda_pair(lam, p)[1]
        for eps in (-1, 1):
            m = IsogenyMap(lam, eps, s)
            src, dst = m.source_curve(), m.target_curve()
            for _ in range(12):
                P = src.random_point(rng)
                assert dst.contains(m(P))


def test_closed_form_equals_composition():
    rng = random.Random(7)
    for p, lam in SAMPLE:
        s = lambda_pair(lam, p)[1]
        for eps in (-1, 1):
            m = IsogenyMap(lam, eps, s)
            src = m.source_curve()
            for _ in range(15):
                P = src.random_point(rng)
                assert m(P) == m.eval_composed(P)


@pytest.mark.parametrize("p", [p for p in range(5, 24) if is_prime(p)])
def test_closed_form_matches_oracle_on_every_point(p):
    # every affine F_{p^2}-point of every admissible lambda, both signs
    nones = 0
    for lam in _admissible(p):
        s = lambda_pair(lam, p)[1]
        for eps in (-1, 1):
            m = IsogenyMap(lam, eps, s)
            src = m.source_curve()
            for a in range(p):
                for b in range(p):
                    x = QuadExtElement(a, b, p)
                    y = sqrt_fp2(src.rhs(x))
                    if y is None:
                        continue
                    for P in {CurvePoint(x, y), CurvePoint(x, -y)}:
                        got = m._closed_form(as_pairs(P))
                        assert got == closed_form_oracle(m, P), (lam, eps, P)
                        nones += got is None
    assert nones > 0  # the removable singularities were among the points


@pytest.mark.parametrize("p", [1009, 9973, 19997])
def test_closed_form_matches_oracle_on_random_points(p):
    rng = random.Random(p)
    for _ in range(4):
        lam = rng.choice(_admissible(p)[:50])
        s = lambda_pair(lam, p)[1]
        for eps in (-1, 1):
            m = IsogenyMap(lam, eps, s)
            src = m.source_curve()
            for _ in range(50):
                P = src.random_point(rng)
                assert m._closed_form(as_pairs(P)) == closed_form_oracle(m, P)


def test_vanishing_denominator_falls_back_to_composition():
    # the tabulated denominators vanish at the kernel abscissa of psi^-eps
    checked = 0
    for p, lam in SAMPLE:
        s = lambda_pair(lam, p)[1]
        for eps in (-1, 1):
            m = IsogenyMap(lam, eps, s)
            src = m.source_curve()
            x = (QuadExtElement(lam + 1, 0, p) - 2 * eps * s) / 3
            y = sqrt_fp2(src.rhs(x))
            if y is None:
                continue
            P = src.point(x, y)
            assert m._closed_form(as_pairs(P)) is None and closed_form_oracle(m, P) is None
            img = m(P)
            assert img == m.eval_composed(P) and m.target_curve().contains(img)
            checked += 1
    assert checked > 0


def test_psi_is_homomorphism_on_samples():
    rng = random.Random(17)
    p, lam = 103, 40
    s = lambda_pair(lam, p)[1]
    m = IsogenyMap(lam, -1, s)
    src, dst = m.source_curve(), m.target_curve()
    for _ in range(10):
        P, Q = src.random_point(rng), src.random_point(rng)
        assert m(oracle.add(src, P, Q)) == oracle.add(dst, m(P), m(Q))


def test_flipping_sqrt_sign_swaps_the_maps():
    p, lam = 101, 23
    s = lambda_pair(lam, p)[1]
    m_plus = IsogenyMap(lam, +1, s)
    m_flip = IsogenyMap(lam, -1, -s)
    assert m_plus.source_lambda == m_flip.source_lambda
    rng = random.Random(23)
    src = m_plus.source_curve()
    for _ in range(10):
        P = src.random_point(rng)
        assert m_plus(P) == m_flip(P)


def test_frobenius_equivariance_when_sqrt_irrational():
    # F o psi^- = psi^+ o F on E_{L^-} whenever sqrt(delta) is not in F_p
    rng = random.Random(29)
    done = 0
    for p, lam in SAMPLE:
        s = lambda_pair(lam, p)[1]
        if s.in_base_field():
            continue
        m_minus = IsogenyMap(lam, -1, s)
        m_plus = IsogenyMap(lam, +1, s)
        src = m_minus.source_curve()
        for _ in range(100 // 4):
            P = src.random_point(rng)
            img = m_minus(P)
            lhs = CurvePoint(img.x.frobenius(), img.y.frobenius()) if not img.is_infinity else INFINITY
            FP = CurvePoint(P.x.frobenius(), P.y.frobenius())
            rhs = m_plus(FP)
            assert lhs == rhs
            done += 1
    assert done >= 50


def test_compose_is_minus3_samples():
    assert compose_is_minus3(3, 13, trials=25, seed=1)
    assert compose_is_minus3(23, 101, trials=25, seed=2)
    assert compose_is_minus3(40, 103, trials=25, seed=3)


def test_compose_on_3_torsion_gives_infinity():
    # a kernel point of psi^- is 3-torsion, so the composite kills it
    for p, lam in SAMPLE:
        s = lambda_pair(lam, p)[1]
        m_minus = IsogenyMap(lam, -1, s)
        m_plus = IsogenyMap(lam, +1, s)
        src = m_minus.source_curve()
        y = sqrt_fp2(src.rhs(m_minus.kernel_x))
        if y is None:
            continue
        P = src.point(m_minus.kernel_x, y)
        assert m_plus(m_minus(P)) == INFINITY
        assert oracle.scalar_mul(src, -3, P) == INFINITY


def test_image_checks_source_and_target(monkeypatch):
    p, lam = 101, 23
    m = IsogenyMap(lam, -1, lambda_pair(lam, p)[1])
    src, dst = m.source_curve(), m.target_curve()
    off = ((5, 0), (1, 0))
    if src.pair_contains(off):
        off = ((5, 0), (2, 0))
    with pytest.raises(ValueError):
        m.image(off)
    P = src.pair_random(random.Random(1))
    bad = ((1, 1), (1, 1))
    assert not dst.pair_contains(bad)
    monkeypatch.setattr(m, "_closed_form", lambda P: bad)
    with pytest.raises(ArithmeticError):
        m.image(P)


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pair_random_draws_the_oracle_points_on_the_isogeny_pool():
    # compose_is_minus3 draws from E_{L^-} and E_{L^+} in turn; the int-pair
    # sampler must draw the object sampler's points and leave the same state
    wl = _load_workloads()
    pool = wl.isogeny_pool()
    assert len(pool) == 120
    for p, lam, seed in pool:
        minus, plus = lambda_params(lam, -1, lambda_pair(lam, p)[1])
        curves = (LegendreCurve(minus, p), LegendreCurve(plus, p))
        rng, rng_oracle = random.Random(seed), random.Random(seed)
        for _ in range(wl.ISOGENY_TRIALS):
            for c in curves:
                assert as_point(c.pair_random(rng), p) == oracle.random_point(c, rng_oracle)
        assert rng.getstate() == rng_oracle.getstate(), (p, lam, seed)


def test_compose_trial_loop_builds_no_field_objects(monkeypatch):
    built = 0
    init = QuadExtElement.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    fallbacks = 0
    composed = IsogenyMap.eval_composed

    def counting_fallback(self, P):
        nonlocal fallbacks
        fallbacks += 1
        return composed(self, P)

    monkeypatch.setattr(QuadExtElement, "__init__", counting_init)
    monkeypatch.setattr(IsogenyMap, "eval_composed", counting_fallback)
    built_by_trials = {}
    for trials in (1, 40):
        built = 0
        assert compose_is_minus3(40, 1009, trials=trials, seed=5)
        built_by_trials[trials] = built
    assert fallbacks == 0
    assert built_by_trials[1] > 0 and built_by_trials[40] == built_by_trials[1]


def test_degenerate_lambda_rejected():
    with pytest.raises(ValueError):
        IsogenyMap(1, -1, sqrt_fp2(QuadExtElement(1, 0, 13)))


# ---------------------------------------------------------------------------
# modular polynomials


def test_phi3_vanishes_on_isogenous_pair():
    for p, lam in SAMPLE:
        s = lambda_pair(lam, p)[1]
        minus, plus = lambda_params(lam, -1, s)
        j1 = j_invariant(LegendreCurve(minus, p))
        j2 = j_invariant(LegendreCurve(plus, p))
        assert modular_poly_eval(3, j1, j2).is_zero()


def test_phi3_at_8000_8000_is_zero():
    poly = phi_substitute_int(3, 8000)
    assert intpoly.eval_at(poly, 8000) == 0


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
            x = QuadExtElement(rng.randrange(p), rng.randrange(p), p)
            y = QuadExtElement(rng.randrange(p), rng.randrange(p), p)
            assert modular_poly_eval(level, x, y) == modular_poly_eval(level, y, x)


def test_phi_kronecker_congruences():
    # Phi_2(X, Y) = (X - Y^2)(X^2 - Y) mod 2, Phi_3(X, Y) = (X - Y^3)(X^3 - Y) mod 3
    for level, p in ((2, 2), (3, 3)):
        from s3genus2.isogenies import phi_coefficients

        table = phi_coefficients(level)
        full = {}
        for (i, j), c in table.items():
            full[(i, j)] = full.get((i, j), 0) + c
            if i != j:
                full[(j, i)] = full.get((j, i), 0) + c
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
        modular_poly_eval(5, QuadExtElement(1, 0, 13), QuadExtElement(1, 0, 13))


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
    assert resultant_degree() == 20


def test_resultant_vanishes_at_zero():
    from s3genus2.isogenies import _phi3_bivariate

    F, dF = _phi3_bivariate()
    res = intpoly.resultant_bivariate(F, dF)
    assert intpoly.eval_at(res, 0) == 0
