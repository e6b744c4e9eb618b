"""Tests for class numbers, Hilbert class polynomials, Gross-Zagier valuations."""

import math

import pytest

from s3genus2 import classno, intpoly
from s3genus2.classno import (
    PrecisionError,
    class_number,
    dirichlet_crosscheck,
    dirichlet_tail_bound,
    gross_zagier_ordp,
    hilbert_poly,
    j_q_coefficients,
    kronecker,
    reduced_forms,
    working_digits,
)
from s3genus2.fields import is_prime
from s3genus2.limits import HILBERT_CLASS_BOUND, HILBERT_D_BOUND, LimitError


def class_number_oracle(D):
    """Dumbest possible reduced-form count, independent of the library loop."""
    count = 0
    for a in range(1, D + 1):
        if 3 * a * a > D:
            break
        for b in range(-a, a + 1):
            num = b * b + D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if math.gcd(math.gcd(a, abs(b)), c) != 1:
                continue
            if b < 0 and (abs(b) == a or a == c):
                continue
            count += 1
    return count


def test_class_number_paper_values():
    assert class_number(15) == 2
    assert class_number(11) == 1
    assert class_number(20) == 2
    assert class_number(39) == 4


def test_class_number_matches_oracle():
    for D in range(3, 500):
        if (-D) % 4 in (0, 1):
            assert class_number(D) == class_number_oracle(D), D


def test_reduced_forms_list_the_oracle_forms_in_order():
    # hilbert_poly multiplies the roots out in this order; class_number
    # counts the same enumeration without listing it
    for D in range(3, 500):
        if (-D) % 4 not in (0, 1):
            continue
        want = [
            (a, b, (b * b + D) // (4 * a))
            for a in range(1, math.isqrt(D // 3) + 1)
            for b in range(a, -a - 1, -1)
            if (b * b + D) % (4 * a) == 0
        ]
        want = [
            (a, b, c) for a, b, c in want
            if c >= a and math.gcd(a, b, c) == 1 and not (b < 0 and (-b == a or a == c))
        ]
        want.sort(key=lambda f: (f[0], abs(f[1]), -f[1]))
        assert reduced_forms(D) == want, D
        assert class_number(D) == len(want), D


def test_reduced_form_invariants():
    for D in (15, 23, 39, 120, 163):
        if (-D) % 4 not in (0, 1):
            continue
        for a, b, c in reduced_forms(D):
            assert b * b - 4 * a * c == -D
            assert abs(b) <= a <= c
            assert math.gcd(math.gcd(a, abs(b)), c) == 1
            if abs(b) == a or a == c:
                assert b >= 0


def test_invalid_discriminant_rejected():
    with pytest.raises(ValueError):
        class_number(1)  # -1 = 3 mod 4
    with pytest.raises(ValueError):
        class_number(5)


def test_kronecker_agrees_with_legendre():
    from s3genus2.fields import legendre_int

    for p in (5, 7, 11, 13, 97):
        for a in range(-20, 21):
            assert kronecker(a, p) == legendre_int(a, p)
    # multiplicativity in the top argument
    for n in (15, 21, 35):
        for a in range(1, 40):
            for b in range(1, 10):
                assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_dirichlet_crosscheck():
    est15 = dirichlet_crosscheck(15, 10**5)
    assert abs(est15 - 2) < 0.1
    est11 = dirichlet_crosscheck(11, 10**5)
    assert abs(est11 - 1) < 0.1
    assert abs(est15 - 2) < max(dirichlet_tail_bound(15, 10**5), 0.01)


def test_kronecker_vanishes_on_common_factor():
    for n in range(1, 60):
        if math.gcd(n, 15) > 1:
            assert kronecker(-15, n) == 0


def test_j_series_known_coefficients():
    jq = j_q_coefficients()
    assert jq[0] == 1
    assert jq[1] == 744
    assert jq[2] == 196884
    assert jq[3] == 21493760
    assert jq[4] == 864299970


def test_hilbert_poly_paper_constants():
    assert hilbert_poly(3).coefficients == (0, 1)
    assert hilbert_poly(4).coefficients == (-1728, 1)
    assert hilbert_poly(8).coefficients == (-8000, 1)
    assert hilbert_poly(11).coefficients == (32768, 1)
    assert hilbert_poly(12).coefficients == (-54000, 1)
    assert hilbert_poly(20).coefficients == (-681472000, -1264000, 1)


def test_hilbert_poly_degree_is_class_number():
    for D in range(3, 201):
        if (-D) % 4 not in (0, 1):
            continue
        if class_number(D) > 8:
            continue
        assert hilbert_poly(D).degree == class_number(D), D


def test_p20_mod_13_factors_as_square():
    got = hilbert_poly(20).mod(13)
    want = intpoly.reduce_mod(intpoly.mul([8, 1], [8, 1]), 13)
    assert got == want


def test_p35_mod_61_factors():
    got = hilbert_poly(35).mod(61)
    want = intpoly.reduce_mod(intpoly.mul([20, 1], [52, 1]), 61)
    assert got == want


def test_hilbert_poly_rejects_large_inputs():
    with pytest.raises(ValueError):
        hilbert_poly(9999)
    assert class_number(119) == 10
    with pytest.raises(LimitError):
        hilbert_poly(119)


def hilbert_poly_mpmath_oracle(D):
    """P_D's coefficients from the q-expansion in mpmath floating point, with
    the same working precision and rounding certificates as hilbert_poly."""
    import mpmath

    forms = reduced_forms(D)
    digits = working_digits(D, len(forms))
    jq = j_q_coefficients()
    with mpmath.workdps(digits):
        sqrt_d = mpmath.sqrt(D)
        roots = []
        for a, b, c in forms:
            tau = mpmath.mpc(-b, sqrt_d) / (2 * a)
            q = mpmath.exp(2j * mpmath.pi * tau)
            acc = mpmath.mpc(0)
            for k in range(len(jq) - 1, -1, -1):
                acc = acc * q + jq[k]
            roots.append(acc / q)
        poly = [mpmath.mpc(1)]
        for r in roots:
            nxt = [mpmath.mpc(0)] * (len(poly) + 1)
            for i, cf in enumerate(poly):
                nxt[i] += -r * cf
                nxt[i + 1] += cf
            poly = nxt
        coeffs = []
        for cf in poly:
            target = mpmath.nint(cf.real)
            if abs(cf.real - target) > 0.01 or abs(cf.imag) > 0.01:
                raise PrecisionError(
                    f"P_{D}: coefficient {cf} is {abs(cf.real - target)} away "
                    "from an integer"
                )
            coeffs.append(int(target))
        # the rounded polynomial must still vanish at the float roots
        for r in roots:
            val = mpmath.mpc(0)
            dval = mpmath.mpc(0)
            for cf in reversed(coeffs):
                dval = dval * r + val
                val = val * r + cf
            shift = abs(val) / max(abs(dval), mpmath.mpf(1))
            if shift > 0.01:
                raise PrecisionError(f"P_{D}: rounded poly moved a root by {shift}")
    return tuple(coeffs)


def test_hilbert_poly_matches_mpmath_oracle_on_every_admissible_discriminant():
    admissible = [
        D for D in range(3, HILBERT_D_BOUND + 1)
        if (-D) % 4 in (0, 1) and class_number(D) <= HILBERT_CLASS_BOUND
    ]
    assert len(admissible) == 94
    for D in admissible:
        assert hilbert_poly(D).coefficients == hilbert_poly_mpmath_oracle(D), D


@pytest.fixture
def five_digit_hilbert(monkeypatch):
    hilbert_poly.cache_clear()
    monkeypatch.setattr(classno, "working_digits", lambda D, h: 5)
    yield
    hilbert_poly.cache_clear()


@pytest.mark.parametrize("D", [20, 35, 56])
def test_hilbert_poly_raises_when_precision_runs_short(five_digit_hilbert, D):
    with pytest.raises(PrecisionError):
        hilbert_poly(D)


def test_gross_zagier_prop_2_8_values():
    for p in range(5, 1001):
        if not is_prime(p) or p % 4 != 1:
            continue
        got = gross_zagier_ordp(8, 3 * p, p)
        if p == 5:
            assert got == 6
        elif p % 8 == 5:
            assert got == 4
        else:
            assert got == 0


def test_gross_zagier_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gross_zagier_ordp(12, 15, 5)  # -12 not fundamental
    with pytest.raises(ValueError):
        gross_zagier_ordp(15, 35, 5)  # not coprime


def test_class_number_3p_even_for_1mod4_primes():
    for p in range(5, 500):
        if is_prime(p) and p % 4 == 1:
            assert class_number(3 * p) % 2 == 0, p
