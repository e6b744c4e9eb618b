"""Tests for the family scan: Lambda pairs, orbits, psi_p, and f/g/h."""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from fp2_oracle import F, count_points, normal_form

from s3genus2 import family
from s3genus2.cli import PSI_COLUMNS, _line
from s3genus2.curves import (
    LegendreCurve,
    _deuring_array,
    _inverse_table,
    _sqrt_table,
    is_supersingular,
    j_invariant,
)
from s3genus2.family import (
    _bsgs_eval,
    _supersingular_array,
    fgh_eval,
    is_admissible,
    lambda_eps_pairs,
    lambda_from_torsion,
    lambda_pair,
    legendre_j,
    lambda_record,
    orbit,
    psi_p,
    psi_p_bruteforce,
    superspecial_lambdas,
    psi_closed_form,
    torsion_from_lambda,
)
from s3genus2.fields import fp2_mul, fp2_sqrt, is_prime, legendre_int, smallest_nonresidue
from s3genus2.limits import VECTOR_MODULUS_BOUND

PRIMES_1MOD4 = [5, 13, 17, 29, 37, 41, 53, 61]
PRIMES_11MOD12 = [11, 23, 47, 59, 71, 83, 107]


def primes_in(lo, hi):
    return [p for p in range(lo, hi + 1) if is_prime(p)]


def test_lambda_record_pair_identity_lambda_2():
    # {Lambda^-(2), Lambda^+(2)} = {-7 + 4 sqrt(3), -7 - 4 sqrt(3)}
    for p in (13, 29, 101, 103):
        rec = lambda_record(2, p)
        s3 = F(*fp2_sqrt((3, 0), p, smallest_nonresidue(p)), p)
        assert {rec.lambda_minus, rec.lambda_plus} == {(-7 + 4 * s3).pair, (-7 - 4 * s3).pair}


def test_lambda_record_pair_identity_half():
    # Lambda^{+-}(1/2) = (2 +- sqrt(3)) / 4
    for p in (13, 29, 101):
        half = pow(2, -1, p)
        rec = lambda_record(half, p)
        s3 = F(*fp2_sqrt((3, 0), p, smallest_nonresidue(p)), p)
        assert {rec.lambda_minus, rec.lambda_plus} == {((2 + s3) / 4).pair, ((2 - s3) / 4).pair}


def test_lambda_record_product_is_fourth_power():
    for p in (13, 29, 101):
        for lam in range(2, 20):
            if not is_admissible(lam, p):
                continue
            rec = lambda_record(lam, p)
            product = fp2_mul(rec.lambda_minus, rec.lambda_plus, p, smallest_nonresidue(p))
            assert product == (pow(lam - 1, 4, p), 0)
            assert rec.lambda_minus not in ((0, 0), (1, 0))
            assert rec.lambda_plus not in ((0, 0), (1, 0))


def test_lambda_record_rejects_singular():
    with pytest.raises(ValueError):
        lambda_record(0, 13)
    with pytest.raises(ValueError):
        lambda_record(1, 13)
    with pytest.raises(ValueError):
        lambda_record(4, 13)  # delta(4) = 13 = 0


def test_orbit_of_two_has_size_three():
    for p in (5, 13, 101):
        got = orbit(2, p)
        assert got == {2, (p + 1) // 2 % p, p - 1}
        assert len(got) == 3


def test_orbit_generic_size_six_and_delta_zero_size_two():
    # direct evaluation of the six maps mod 11: generic orbit
    assert orbit(3, 11) == {3, 4, 9, 5, 7, 8}
    # lambda = 3 mod 7 is a root of delta: the orbit collapses to size 2
    assert (3 * 3 - 3 + 1) % 7 == 0
    assert orbit(3, 7) == {3, 5}


def test_orbit_closure():
    for p in (11, 13, 101):
        for lam in range(2, p - 1):
            o = orbit(lam, p)
            for x in o:
                assert orbit(x, p) == o


def test_orbit_rejects_zero_one():
    with pytest.raises(ValueError):
        orbit(0, 11)
    with pytest.raises(ValueError):
        orbit(1, 11)


def test_psi_5_known_value():
    rep = psi_p(5)
    assert rep["psi"] == 3
    assert set(rep["lambdas"]) == {4, 2, 3}  # {-1, 2, 1/2} mod 5
    assert rep["class"] == "1mod4"
    assert rep["ok"]


def test_psi_7_known_value():
    rep = psi_p(7)
    assert rep["psi"] == 0
    assert rep["lambdas"] == ()
    assert rep["class"] == "7mod12"
    assert rep["ok"]


def test_psi_11_known_value():
    rep = psi_p(11)
    assert rep["psi"] == 3
    assert rep["class"] == "11mod12"
    assert rep["ok"]


def test_psi_13_derived_value():
    rep = psi_p(13)
    assert rep["psi"] == 6
    assert rep["h_3p"] == 4  # h(-39)
    assert rep["ok"]


def test_vectorized_scan_matches_bruteforce():
    for p in primes_in(5, 120):
        assert superspecial_lambdas(p) == psi_p_bruteforce(p), p


def test_superspecial_set_is_union_of_orbits_and_multiple_of_3():
    for p in primes_in(5, 200):
        lambdas = set(superspecial_lambdas(p))
        assert len(lambdas) % 3 == 0
        for lam in lambdas:
            assert orbit(lam, p) <= lambdas


def test_pair_supersingularity_agreement():
    for p in primes_in(5, 120):
        for lam in range(2, p):
            if not is_admissible(lam, p):
                continue
            rec = lambda_record(lam, p)
            ss_plus = is_supersingular(LegendreCurve(rec.lambda_plus, p))
            assert rec.superspecial == ss_plus, (p, lam)


def test_both_branches_classify_identically_to_500():
    # H_p at Lambda^+ of every admissible lambda, no orbit shortcut, vanishes
    # exactly on the set the Lambda^- orbit scan stamps
    for p in primes_in(5, 500):
        n = smallest_nonresidue(p)
        lam = np.array([v for v in range(p) if is_admissible(v, p)], dtype=np.int64)
        la, lb = lambda_eps_pairs(lam, +1, p, n, _sqrt_table(p))
        acc_a, acc_b = _bsgs_eval(la, lb, n, p, _deuring_array(p))
        zeros = tuple(lam[(acc_a == 0) & (acc_b == 0)].tolist())
        assert zeros == superspecial_lambdas(p), p


def supersingular_loop(p: int) -> list[int]:
    """Oracle for `_supersingular_array`: the Kaneko-Zagier terms by `pow` inverses."""
    m = p // 12
    num_a, num_b = (1, 5) if p % 4 == 1 else (7, 11)
    a, b = num_a * pow(12, -1, p) % p, num_b * pow(12, -1, p) % p
    terms = [1]
    for i in range(1, m + 1):
        terms.append(terms[-1] * (a + i - 1) * (b + i - 1) * 1728 * pow(i * i, -1, p) % p)
    poly = terms[::-1]  # the n-th term is the coefficient of j^(m-n)
    if p % 3 == 2:
        poly = [0] + poly
    if p % 4 == 3:
        poly = [(lo - 1728 * hi) % p for lo, hi in zip([0] + poly, poly + [0])]
    return poly


def test_supersingular_array_matches_pow_loop_below_2000():
    for p in [q for q in range(5, 2000) if is_prime(q)]:
        assert _supersingular_array(p).tolist() == supersingular_loop(p), p


def test_supersingular_array_small_primes():
    # the products of j - j0 over the known supersingular j0: 0 at p = 5,
    # 1728 = 6 at 7, 0 and 1728 = 1 at 11, 5 at 13, 0 and 8 at 17, 7 and
    # 1728 = 18 at 19
    assert _supersingular_array(5).tolist() == [0, 1]
    assert _supersingular_array(7).tolist() == [1, 1]
    assert _supersingular_array(11).tolist() == [0, 10, 1]
    assert _supersingular_array(13).tolist() == [8, 1]
    assert _supersingular_array(17).tolist() == [0, 9, 1]
    assert _supersingular_array(19).tolist() == [7 * 18 % 19, -25 % 19, 1]


def test_supersingular_array_raises_on_a_vanishing_factor(monkeypatch):
    # a = -12/12 = -1 makes the factor a + i - 1 vanish at i = 2
    monkeypatch.setitem(family.KZ_PARAMETERS, 1, (-12, 5))
    with pytest.raises(ArithmeticError, match="vanishing"):
        _supersingular_array(1009)


def test_supersingular_array_raises_on_a_wrong_degree(monkeypatch):
    # a power table whose g^0 reads 0 zeroes the leading coefficient; the
    # log table reads the real one in curves
    p = 1013
    table = family._power_table(p).copy()
    table[0] = 0
    monkeypatch.setattr(family, "_power_table", lambda q: table)
    with pytest.raises(ArithmeticError, match="degree"):
        _supersingular_array(p)


def test_orbit_scan_matches_deuring_at_every_lambda_below_5000():
    # the j-based scan against H_p at Lambda^- of every admissible lambda,
    # no orbit shortcut, on every prime below 5000
    for p in primes_in(5, 4999):
        n = smallest_nonresidue(p)
        lam = np.arange(2, p, dtype=np.int64)
        lam = lam[(lam * lam - lam + 1) % p != 0]
        la, lb = lambda_eps_pairs(lam, -1, p, n, _sqrt_table(p))
        acc_a, acc_b = _bsgs_eval(la, lb, n, p, _deuring_array(p))
        assert family._orbit_scan(p) == tuple(lam[(acc_a == 0) & (acc_b == 0)].tolist()), p


def horner_eval(xa, xb, n, p, coeffs):
    """Oracle for `_bsgs_eval`: numpy Horner, one pass per coefficient."""
    acc_a = np.zeros_like(xa)
    acc_b = np.zeros_like(xb)
    for k in range(len(coeffs) - 1, -1, -1):
        acc_a, acc_b = (
            (acc_a * xa % p + acc_b * xb % p * n + int(coeffs[k])) % p,
            (acc_a * xb + acc_b * xa) % p,
        )
    return acc_a, acc_b


def test_orbit_scan_matches_horner_oracle_below_1000(monkeypatch):
    for p in primes_in(5, 1000):
        fast = family._orbit_scan(p)
        with monkeypatch.context() as m:
            m.setattr(family, "_bsgs_eval", horner_eval)
            assert fast == family._orbit_scan(p), p


def test_supersingular_roots_are_the_legendre_js_below_200():
    # exhaustive over F_{p^2}: ss_p splits into distinct linear factors, and
    # its roots are the j-invariants of the Legendre parameters where H_p
    # vanishes
    for p in primes_in(5, 199):
        n = smallest_nonresidue(p)
        xa = np.repeat(np.arange(p, dtype=np.int64), p)
        xb = np.tile(np.arange(p, dtype=np.int64), p)
        ss = _supersingular_array(p)
        acc_a, acc_b = horner_eval(xa, xb, n, p, ss)
        roots = set(zip(xa[(acc_a == 0) & (acc_b == 0)].tolist(),
                        xb[(acc_a == 0) & (acc_b == 0)].tolist()))
        assert len(roots) == ss.size - 1, p
        acc_a, acc_b = horner_eval(xa, xb, n, p, _deuring_array(p))
        zero = (acc_a == 0) & (acc_b == 0)
        js = {j_invariant(LegendreCurve(t, p)) for t in zip(xa[zero].tolist(), xb[zero].tolist())}
        assert js == roots, p


def test_legendre_j_inverse_table_matches_exponentiation():
    for p in (5, 13, 1009, 10007):
        inv = _inverse_table(p)
        assert np.array_equal(inv[1:] * np.arange(1, p) % p, np.ones(p - 1, dtype=np.int64))
        rng = np.random.default_rng(p)
        ta = rng.integers(2, p, 300, dtype=np.int64)
        tb = rng.integers(0, p, 300, dtype=np.int64)
        n = smallest_nonresidue(p)
        ja, jb = legendre_j(ta, tb, p, n, inv)
        for a, b, x, y in zip(ta.tolist(), tb.tolist(), ja.tolist(), jb.tolist()):
            assert (x, y) == j_invariant(LegendreCurve((a, b), p)), (p, a, b)


def test_orbit_scan_raises_on_a_singular_representative(monkeypatch):
    # a representative whose Lambda^- reads 1 is singular; the check sees it
    # before the sieve, which would drop it at p = 1, 3 and 5 mod 8
    real = family.lambda_eps_pairs

    def with_one(*args):
        la, lb = real(*args)
        la[0], lb[0] = 1, 0
        return la, lb

    monkeypatch.setattr(family, "lambda_eps_pairs", with_one)
    for p in (1009, 1019, 1013, 1031):  # 1, 3, 5 and 7 mod 8
        with pytest.raises(ValueError, match="singular Legendre parameter"):
            family._orbit_scan(p)


SQUARE_BLOCKS = (7, 17, 31, 71, 97, 199)  # m+1 = (p+1)/2 = k^2
PADDED_BLOCKS = (13, 41, 101, 1009)  # k does not divide m+1


@pytest.mark.parametrize("p", (5,) + SQUARE_BLOCKS + PADDED_BLOCKS)
def test_deuring_eval_matches_horner_on_random_points(p, monkeypatch):
    m1 = (p + 1) // 2
    k = math.isqrt(m1)
    if p in SQUARE_BLOCKS:
        assert k * k == m1
    if p in PADDED_BLOCKS:
        assert m1 % k
    rng = np.random.default_rng(p)
    la = rng.integers(0, p, 400, dtype=np.int64)
    lb = rng.integers(0, p, 400, dtype=np.int64)
    lb[:50] = 0  # points of F_p
    la[50:60] = 0
    n = smallest_nonresidue(p)
    coeffs = _deuring_array(p)
    want_a, want_b = horner_eval(la, lb, n, p, coeffs)
    got_a, got_b = _bsgs_eval(la, lb, n, p, coeffs)
    assert np.array_equal(got_a, want_a) and np.array_equal(got_b, want_b)
    # many row chunks, the last one partial
    monkeypatch.setattr(family, "BSGS_CHUNK_ELEMENTS", 150)
    got_a, got_b = _bsgs_eval(la, lb, n, p, coeffs)
    assert np.array_equal(got_a, want_a) and np.array_equal(got_b, want_b)


def sieve_lemma(lam, p):
    """The lemma of `family._orbit_scan` that drops lam's orbit, or None.

    Read from lam alone: Lambda^- by `lambda_pair` and squares by
    `legendre_int`, 0 counting as a square.
    """
    delta, _, (la, lb), _ = lambda_pair(lam, p)
    if legendre_int(delta, p) < 0:
        return None if p % 4 == 1 else "D"
    assert lb == 0
    if p % 4 == 1:
        return "A"
    one_minus_square = legendre_int(1 - la, p) >= 0
    if p % 8 == 3:
        return "B" if one_minus_square else None
    return None if one_minus_square or legendre_int(la, p) >= 0 else "C"


def orbit_representatives(p):
    return sorted({min(orbit(lam, p)) for lam in range(2, p) if is_admissible(lam, p)})


def test_orbit_scan_evaluates_each_orbit_once(monkeypatch):
    # _bsgs_eval gets j(E_{Lambda^-}) of exactly the kept representatives,
    # in ascending order, in one call
    for p in primes_in(5, 300):
        calls = []

        def recording_eval(xa, xb, n, q, coeffs):
            calls.append(list(zip(xa.tolist(), xb.tolist())))
            return horner_eval(xa, xb, n, q, coeffs)

        kept = [lam for lam in orbit_representatives(p) if sieve_lemma(lam, p) is None]
        want = [j_invariant(LegendreCurve(lambda_pair(lam, p)[2], p)) for lam in kept]
        with monkeypatch.context() as m:
            m.setattr(family, "_bsgs_eval", recording_eval)
            family._orbit_scan(p)
        assert calls == [want], p


def test_sieve_drops_only_ordinary_curves_below_500():
    # no H_p and no ss_p: a curve over F_p that lemmas A-C drop has
    # #E(F_p) != p + 1; one that lemma D drops has a trace prime to p over
    # F_{p^2} (checked below 200, where counting F_{p^2} stays small)
    dropped = Counter()
    for p in primes_in(5, 500):
        for lam in orbit_representatives(p):
            lemma = sieve_lemma(lam, p)
            curve = LegendreCurve(lambda_pair(lam, p)[2], p)
            if lemma in ("A", "B", "C"):
                assert count_points(curve, 1) != p + 1, (p, lam, lemma)
            elif lemma == "D" and p < 200:
                assert (p * p + 1 - count_points(curve, 2)) % p, (p, lam)
            dropped[lemma] += 1
    assert all(dropped[lemma] for lemma in "ABCD")


def test_bsgs_rows_at_the_largest_prime_below_the_bound():
    # all coefficients p-1, so every block value sums k products of two
    # residues, k = isqrt((p+1)/2) as in the scan at this p
    p = next(q for q in range(VECTOR_MODULUS_BOUND - 1, 0, -1) if is_prime(q))
    n = smallest_nonresidue(p)
    k = math.isqrt((p + 1) // 2)
    c = np.full((k, 3), p - 1, dtype=np.int64)
    points = [(p - 1, p - 1), (p - 1, 0), (0, p - 1)]
    la = np.array([a for a, _ in points], dtype=np.int64)
    lb = np.array([b for _, b in points], dtype=np.int64)
    got_a, got_b = family._bsgs_rows(la, lb, n, p, c)
    for (xa, xb), ga, gb in zip(points, got_a.tolist(), got_b.tolist()):
        acc_a, acc_b = 0, 0
        for _ in range(c.size):
            acc_a, acc_b = (acc_a * xa + acc_b * xb * n + p - 1) % p, (acc_a * xb + acc_b * xa) % p
        assert (ga, gb) == (acc_a, acc_b), (xa, xb)


def test_vector_bound_keeps_block_sums_in_int64():
    # a block value sums k products of two residues, and a giant step adds
    # one unreduced to two more; the largest p allowed has the largest k and
    # the largest products
    p = VECTOR_MODULUS_BOUND - 1
    k = math.isqrt((p - 1) // 2 + 1)
    assert k * (p - 1) ** 2 <= 2**62 < 2**63
    assert (k + 2) * (p - 1) ** 2 < 2**63


def test_orbit_scan_rejects_prime_above_bound_before_allocating():
    q = next(v for v in itertools.count(VECTOR_MODULUS_BOUND) if is_prime(v))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="bound"):
            family._orbit_scan(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one p-sized int64 table would take 8q bytes (about 268 MB)
    assert peak < 1 << 20


def test_sqrt_delta_rationality_by_congruence():
    for p in primes_in(5, 200):
        for lam in superspecial_lambdas(p):
            rec = lambda_record(lam, p)
            if p % 4 == 1:
                assert rec.sqrt_delta[1] != 0, (p, lam)
            else:
                assert rec.sqrt_delta[1] == 0, (p, lam)


def test_closed_form_verdict_small_range():
    for p in primes_in(5, 200):
        rep = psi_p(p)
        assert rep["ok"], (p, rep["psi"], psi_closed_form(p))


def test_h3p_even_at_1mod4():
    # psi = (3/2) h(-3p) is an integer, so h(-3p) must be even
    for p in primes_in(5, 300):
        if p % 4 == 1:
            assert psi_p(p)["h_3p"] % 2 == 0


def test_psi_report_serialization():
    rep = psi_p(5)
    assert _line(rep, None) == (
        '{"p":5,"class":"1mod4","psi":3,"h_p":2,"h_3p":2,"ok":true,'
        '"lambdas":[2,3,4]}'
    )
    assert _line(rep, PSI_COLUMNS) == "5,1mod4,3,2,2,true"


def supersingular_legendre_params(p):
    return [t for t in range(2, p) if is_supersingular(LegendreCurve((t, 0), p))]


def torsion_abscissas(t, p):
    out = []
    for a in range(p):
        if (3 * pow(a, 4, p) - 4 * (1 + t) * pow(a, 3, p) + 6 * t * a * a - t * t) % p == 0:
            out.append(a)
    return out


def test_fgh_identities_on_supersingular_corpus():
    checked = 0
    for p in PRIMES_11MOD12:
        for t in supersingular_legendre_params(p):
            abscissas = torsion_abscissas(t, p)
            assert len(abscissas) == 2, (p, t)  # two rational 3-torsion x's
            for a in abscissas:
                b2 = a * (a - 1) % p * (a - t) % p
                f, g, h = fgh_eval(a, b2, p)
                assert (f * f - f * g + g * g - h * h) % p == 0
                assert (f + g - 2 * h - 3 * a * g) % p == 0
                assert ((g - f) * (f - h) ** 2 - t * g**3) % p == 0
                checked += 1
    assert checked >= 20


def test_round_trip_phi_after_psi():
    # Phi(Psi(a)) = a: recover the abscissa from lambda = f/g and h/g
    for p in PRIMES_11MOD12:
        for t in supersingular_legendre_params(p):
            for a in torsion_abscissas(t, p):
                b2 = a * (a - 1) % p * (a - t) % p
                f, g, h = fgh_eval(a, b2, p)
                lam = lambda_from_torsion(t, a, p)
                sqrt_delta = h * pow(g, -1, p) % p
                dl = lam * lam - lam + 1
                assert (sqrt_delta * sqrt_delta - dl) % p == 0
                assert (lam + 1 - 2 * sqrt_delta) * pow(3, -1, p) % p == a
                # and lambda really maps back to t with the recovered root
                assert (1 - lam) * (lam - sqrt_delta) ** 2 % p == t


def test_round_trip_psi_after_phi():
    # Psi(Phi(lambda)) = lambda on the superspecial corpus
    for p in PRIMES_11MOD12:
        if p == 11:
            continue
        for lam in superspecial_lambdas(p):
            rec = lambda_record(lam, p)
            assert rec.sqrt_delta[1] == 0
            for eps in (-1, 1):
                a = torsion_from_lambda(lam, eps, rec.sqrt_delta[0], p)
                t, t_b = rec.lambda_minus if eps == -1 else rec.lambda_plus
                assert t_b == 0
                got = lambda_from_torsion(t, a, p)
                assert got == lam, (p, lam, eps)
                # b_lambda^2 agrees with the normal-form A B^2
                nf = normal_form(lam, eps, F(*rec.sqrt_delta, p))
                b2 = a * (a - 1) * (a - t)
                assert nf.A * nf.B * nf.B == b2


def test_lambda_from_torsion_validates_input():
    with pytest.raises(ValueError):
        lambda_from_torsion(2, 0, 11)
