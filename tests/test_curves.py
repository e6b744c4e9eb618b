"""Tests for Legendre curves: j-invariants, counting, Deuring test, the oracle x([3])."""

import random

import fp2_oracle as oracle
import numpy as np
import pytest
from fp2_oracle import (
    F,
    count_points,
    count_points_weil,
    j_invariant,
    psi3_coefficients,
    triple_x_coefficients,
)

from s3genus2.curves import (
    LegendreCurve,
    _power_table,
    _poly_divmod,
    _poly_mul,
    deuring_coefficients,
    is_supersingular,
)
from s3genus2.family import lambda_pair
from s3genus2.fields import fp2_horner, is_prime, primitive_root, smallest_nonresidue


def count_points_naive_python(t: int, p: int) -> int:
    """Pure-python oracle for the vectorized degree-1 count."""
    total = 1
    squares = {x * x % p for x in range(1, p)}
    for x in range(p):
        v = x * (x - 1) * (x - t) % p
        if v == 0:
            total += 1
        elif v in squares:
            total += 2
    return total


def psi3_roots_scan(lam, p: int) -> list[tuple[int, int]]:
    """Roots of psi3 in F_{p^2}, by evaluating it at all p^2 elements."""
    n = smallest_nonresidue(p)
    f = psi3_coefficients(lam, p)
    return [(a, b) for a in range(p) for b in range(p) if fp2_horner(f, (a, b), p, n) == (0, 0)]


def test_j_invariant_t_minus_one_is_1728():
    c = LegendreCurve((-1, 0), 101)
    assert j_invariant(c) == (1728 % 101, 0)


def test_j_invariant_t_two_same_orbit():
    c = LegendreCurve((2, 0), 101)
    assert j_invariant(c) == (1728 % 101, 0)


def test_j_invariant_matches_object_formula():
    # legendre_j covers p below the int64 bound; this reaches the modulus cap
    rng = random.Random(6)
    for p in (13, 101, 2**31 - 1):
        for _ in range(50):
            t = F(rng.randrange(2, p), rng.randrange(p), p)
            want = 256 * (t * t - t + 1) ** 3 / (t * (t - 1)) ** 2
            assert j_invariant(LegendreCurve(t.pair, p)) == want.pair


def test_singular_parameters_rejected():
    with pytest.raises(ValueError):
        LegendreCurve((0, 0), 7)
    with pytest.raises(ValueError):
        LegendreCurve((8, 7), 7)


def test_j_invariant_constant_on_orbit():
    p = 103
    for lam in (5, 17, 44):
        inv = pow(lam, -1, p)
        inv1m = pow(1 - lam, -1, p)
        orbit = [
            lam,
            inv,
            (1 - lam) % p,
            inv1m % p,
            lam * pow(lam - 1, -1, p) % p,
            (lam - 1) * inv % p,
        ]
        js = {j_invariant(LegendreCurve((t, 0), p)) for t in orbit}
        assert len(js) == 1


def test_group_identity_and_two_torsion():
    c = LegendreCurve((3, 0), 11)
    P = (0, 0), (0, 0)
    assert c.contains(P)
    assert c.contains(None)


def test_group_law_rejects_off_curve():
    c = LegendreCurve((3, 0), 11)
    bad = ((5, 0), (1, 0))
    if c.contains(bad):  # pick another y if (5, 1) happened to be on the curve
        bad = ((5, 0), (2, 0))
    assert not c.contains(bad)


def _all_points(c):
    """Every F_{p^2}-point of c as an F point, infinity (None) first."""
    p = c.p
    points = [None]
    for a in range(p):
        for b in range(p):
            x = F(a, b, p)
            v = oracle.rhs(c, x)
            assert c.rhs((a, b)) == v.pair
            y = oracle.sqrt(v)
            if y is not None:
                points += [(x, y)] if y.is_zero() else [(x, y), (x, -y)]
    return points


CURVES_WITH_EVERY_POINT = [(5, (2, 0)), (7, (3, 2)), (11, (4, 0)), (13, (2, 9))]


@pytest.mark.parametrize("p,t", CURVES_WITH_EVERY_POINT)
def test_triple_x_matches_the_object_law_on_every_point(p, t):
    # x([3]P) = num(x)/den(x); den vanishes exactly on the nonzero 3-torsion
    c = LegendreCurve(t, p)
    num, den = triple_x_coefficients(t, p)
    assert den == _poly_mul(psi3_coefficients(t, p), psi3_coefficients(t, p), p, c.n)
    for P in _all_points(c)[1:]:
        x = P[0].pair
        R = oracle.scalar_mul(c, 3, P)
        d = fp2_horner(den, x, p, c.n)
        if R is None:
            assert d == (0, 0), P
        else:
            assert F(*fp2_horner(num, x, p, c.n), p) == R[0] * F(*d, p), P


@pytest.mark.parametrize("p", [2147483629, 2**31 - 1])
def test_contains_accepts_the_oracle_points_near_the_modulus_cap(p):
    # 2147483629 = 1 mod 4 takes the Tonelli-Shanks loop, 2^31 - 1 = 3 mod 4 not
    setup = random.Random(p)
    c = LegendreCurve((setup.randrange(2, p), setup.randrange(p)), p)
    rng = random.Random(1)
    for _ in range(1000):
        assert c.contains(oracle.to_pairs(oracle.random_point(c, rng)))


def test_count_points_t_minus1_p5_is_8():
    c = LegendreCurve((-1, 0), 5)
    assert count_points(c, 1) == 8
    assert count_points_naive_python(4, 5) == 8


def test_count_matches_python_oracle():
    for p in (5, 7, 11, 13, 17):
        for t in range(2, p - 1):
            if t in (0, 1):
                continue
            got = count_points(LegendreCurve((t, 0), p), 1)
            assert got == count_points_naive_python(t, p)


def test_count_degree2_small():
    # #E(F_{p^2}) by direct enumeration agrees with the Weil relation, and
    # with the listed points, each on the curve
    for p in (5, 7, 11, 13):
        for t in range(2, p):
            if t == 1:
                continue
            c = LegendreCurve((t, 0), p)
            assert count_points(c, 2) == count_points_weil(c)
    for p, t in CURVES_WITH_EVERY_POINT:
        c = LegendreCurve(t, p)
        points = _all_points(c)
        assert len(points) == count_points(c, 2)
        assert all(c.contains(oracle.to_pairs(P)) for P in points)


def test_count_bound_errors():
    c = LegendreCurve((2, 0), 65537)
    with pytest.raises(ValueError):
        count_points(c, 2)


def test_hasse_bound_all_primes_to_200():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
              67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131,
              137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
              197, 199):
        for t in range(2, p - 1):
            n = count_points(LegendreCurve((t, 0), p), 1)
            assert (n - (p + 1)) ** 2 <= 4 * p


def test_deuring_coefficients_small():
    assert deuring_coefficients(7) == (1, 9 % 7, 9 % 7, 1)
    assert deuring_coefficients(5) == (1, 4, 1)


def deuring_coefficients_loop(p: int) -> tuple[int, ...]:
    """Oracle for `deuring_coefficients`: C(m, k)^2 mod p by the running product."""
    m = (p - 1) // 2
    inv = [0, 1]
    for k in range(2, m + 1):
        inv.append(-(p // k) * inv[p % k] % p)
    coeffs = [1] * (m + 1)
    binom = 1
    for k in range(1, m + 1):
        binom = binom * ((m - k + 1) % p) % p * inv[k] % p
        coeffs[k] = binom * binom % p
    return tuple(coeffs)


def test_deuring_coefficients_match_loop_oracle():
    for p in [q for q in range(5, 10_000) if is_prime(q)] + [999_983]:
        assert deuring_coefficients(p) == deuring_coefficients_loop(p), p


def test_power_table_is_a_permutation_of_the_units_below_10000():
    for p in range(5, 10_000):
        if not is_prime(p):
            continue
        table = _power_table(p)
        g = primitive_root(p)
        assert table[0] == 1 and table[1] == g, p
        assert np.array_equal(table[1:], table[:-1] * g % p), p
        # g^0 .. g^(p-2) are distinct only for a generator
        assert np.array_equal(np.sort(table), np.arange(1, p)), p


def test_supersingular_examples():
    assert is_supersingular(LegendreCurve((-1, 0), 7))
    assert not is_supersingular(LegendreCurve((2, 0), 5))
    with pytest.raises(ValueError):
        is_supersingular(LegendreCurve((0, 0), 5))


def test_supersingular_equals_point_count_oracle_small():
    for p in (5, 7, 11, 13, 17, 19, 23):
        for t in range(2, p - 1):
            c = LegendreCurve((t, 0), p)
            assert is_supersingular(c) == (count_points(c, 1) == p + 1)


def test_supersingular_works_for_fp2_parameters():
    p = 13
    c_sup = 0
    for a in range(p):
        for b in range(1, p):
            c = LegendreCurve((a, b), p)
            if is_supersingular(c):
                c_sup += 1
                # cross-check via degree-2 count: supersingular over F_{p^2}
                # means trace of p^2-Frobenius is +-2p, so the count is
                # (p-1)^2 or (p+1)^2
                n2 = count_points(c, 2)
                assert n2 in ((p - 1) ** 2, (p + 1) ** 2)
    assert c_sup > 0


def x_double(c, x: F) -> F:
    """x-coordinate of 2P computed without y (valid when y != 0)."""
    a2, a4 = oracle.lift(c.a2, c.p), oracle.lift(c.a4, c.p)
    num = (3 * x * x + 2 * a2 * x + a4) ** 2
    return num / (4 * oracle.rhs(c, x)) - a2 - 2 * x


@pytest.mark.parametrize("p,lam", [(13, 3), (17, 5), (29, 7), (101, 23)])
def test_psi3_roots_contain_constructed_root_and_have_order_3(p, lam):
    _, s, minus, plus = lambda_pair(lam, p)
    n = smallest_nonresidue(p)
    for lam_big, eps in ((minus, -1), (plus, 1)):
        if lam_big in ((0, 0), (1, 0)):
            continue
        roots = psi3_roots_scan(lam_big, p)
        assert len(roots) <= 4
        expected = ((lam + 1) + 2 * eps * F(*s, p)) / 3
        assert fp2_horner(psi3_coefficients(lam_big, p), expected.pair, p, n) == (0, 0)
        assert expected.pair in roots
        c = LegendreCurve(lam_big, p)
        for root in roots:
            x = F(*root, p)
            # order-3 means x(2P) = x(P) whatever field y lives in
            assert x_double(c, x) == x
            y = oracle.sqrt(oracle.rhs(c, x))
            if y is not None:
                assert oracle.scalar_mul(c, 3, (x, y)) is None
                assert oracle.scalar_mul(c, 1, (x, y)) is not None


def test_psi3_root_counts_on_every_prime_below_200():
    counts = set()
    for p in range(5, 200):
        if not is_prime(p):
            continue
        rng = random.Random(p)
        rational = rng.randrange(2, p), 0
        with_w = rng.randrange(p), rng.randrange(1, p)
        for lam in (rational, with_w):
            counts.add(len(psi3_roots_scan(lam, p)))
    # 0, 1 or all 4 abscissae are rational (two would force the other two)
    assert counts == {0, 1, 4}


def test_poly_divmod_by_linear_factor():
    # f = (x - r) q + c over F_{p^2}, with c = f(r); every pair comes reduced
    p = 101
    n = smallest_nonresidue(p)
    rng = random.Random(7)
    for _ in range(50):
        f = [(rng.randrange(p), rng.randrange(p)) for _ in range(rng.randrange(2, 9))]
        f[-1] = (rng.randrange(1, p), rng.randrange(p))
        r = rng.randrange(p), rng.randrange(p)
        linear = [(-r[0] % p, -r[1] % p), (1, 0)]
        c = fp2_horner(f, r, p, n)
        quot, rem = _poly_divmod(f, linear, p, n)
        assert rem == ([c] if c != (0, 0) else [])
        back = _poly_mul(quot, linear, p, n)
        back[0] = (back[0][0] + c[0]) % p, (back[0][1] + c[1]) % p
        assert back == f


def test_weil_relation_all_primes_to_200():
    from s3genus2.fields import is_prime

    for p in range(5, 200):
        if not is_prime(p):
            continue
        for t in range(2, p - 1):
            c = LegendreCurve((t, 0), p)
            n1 = count_points(c, 1)
            a = p + 1 - n1
            assert count_points(c, 2) == (p + 1) ** 2 - a * a
