"""Tests for exact F_p / F_{p^2} arithmetic."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3genus2.fields import (
    FieldElement,
    QuadExtElement,
    is_prime,
    legendre_int,
    legendre_symbol,
    smallest_nonresidue,
    sqrt_fp2,
    sqrt_in_fp2,
    tonelli_shanks,
)

PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 97, 101, 103, 1009, 65537]
# near the 2^31 cap: 2^31 - 1 is 3 mod 4, 15 * 2^27 + 1 has 2-adic order 27
LARGE_PRIMES = [2013265921, 2147483629, 2147483647]


@lru_cache(maxsize=None)
def _fp2_nonsquare(p: int, n: int) -> QuadExtElement:
    # k + w is a non-square iff Norm(k + w) = k^2 - n is a non-residue
    for k in range(p):
        if legendre_int(k * k - n, p) == -1:
            return QuadExtElement(k, 1, p, n)
    raise ArithmeticError(f"no non-square found in F_{p}^2")  # unreachable


def sqrt_fp2_tonelli(u: QuadExtElement) -> QuadExtElement | None:
    """Oracle: Tonelli-Shanks in the multiplicative group of order p^2 - 1."""
    p, n = u.p, u.nonresidue
    if u.is_zero():
        return QuadExtElement(0, 0, p, n)
    if not u.is_square():
        return None
    one = QuadExtElement(1, 0, p, n)
    q, s = p * p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = _fp2_nonsquare(p, n)
    c = z**q
    x = u ** ((q + 1) // 2)
    t = u**q
    m = s
    while t != one:
        t2 = t
        i = 0
        while t2 != one:
            t2 = t2 * t2
            i += 1
        b = c ** (1 << (m - i - 1))
        x = x * b
        c = b * b
        t = t * c
        m = i
    return min(x, -x, key=lambda r: (r.a, r.b))


def exhaustive_squares(p):
    return {x * x % p for x in range(1, p)}


def test_is_prime_small():
    assert [n for n in range(2, 40) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
    ]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 3)


def test_modulus_validation():
    with pytest.raises(ValueError):
        FieldElement(1, 4)
    with pytest.raises(ValueError):
        FieldElement(1, 3)
    with pytest.raises(ValueError):
        FieldElement(1, 2**31 + 11)


def test_legendre_zero_mod_7():
    assert legendre_symbol(FieldElement(0, 7)) == 0


def test_legendre_against_exhaustive_squares_mod_7():
    squares = exhaustive_squares(7)
    assert squares == {1, 2, 4}
    assert legendre_symbol(FieldElement(2, 7)) == 1
    assert legendre_symbol(FieldElement(3, 7)) == -1
    for a in range(1, 7):
        assert legendre_symbol(FieldElement(a, 7)) == (1 if a in squares else -1)


@pytest.mark.parametrize("p", PRIMES[:8])
def test_legendre_matches_square_sets(p):
    squares = exhaustive_squares(p)
    for a in range(p):
        want = 0 if a == 0 else (1 if a in squares else -1)
        assert legendre_int(a, p) == want


def test_legendre_multiplicative():
    rng = random.Random(1)
    for p in PRIMES:
        for _ in range(50):
            a = rng.randrange(1, p)
            b = rng.randrange(1, p)
            assert legendre_int(a * b, p) == legendre_int(a, p) * legendre_int(b, p)


def test_smallest_nonresidue():
    assert smallest_nonresidue(7) == 3
    assert smallest_nonresidue(5) == 2
    for p in PRIMES:
        n = smallest_nonresidue(p)
        assert legendre_int(n, p) == -1
        for k in range(2, n):
            assert legendre_int(k, p) == 1


def test_sqrt_identity():
    s = sqrt_in_fp2(FieldElement(1, 7))
    assert s == 1


def test_sqrt_2_mod_7_is_3():
    s = sqrt_in_fp2(FieldElement(2, 7))
    assert s.in_base_field()
    assert s.a == 3  # 3^2 = 2 mod 7, and 3 < 4 wins the tie-break


def test_sqrt_nonresidue_mod_7():
    s = sqrt_in_fp2(FieldElement(3, 7))
    assert s.a == 0 and s.b != 0
    assert s * s == 3


@pytest.mark.parametrize("p", PRIMES)
def test_sqrt_squares_to_input_everywhere(p):
    for a in range(min(p, 200)):
        s = sqrt_in_fp2(FieldElement(a, p))
        assert s * s == a
        if legendre_int(a, p) == 1:
            assert s.in_base_field()
        elif a != 0:
            assert s.a == 0 and s.b != 0


def test_sqrt_canonical_branch_is_smaller_encoding():
    for p in PRIMES:
        for a in (2, 3, p - 1, 5 % p):
            s = sqrt_in_fp2(FieldElement(a, p))
            other = -s
            assert (s.a, s.b) <= (other.a, other.b)


def test_tonelli_rejects_nonresidue():
    with pytest.raises(ValueError):
        tonelli_shanks(3, 7)


def test_fp2_paper_style_product():
    # (1+w)(1-w) with w^2 = 3 over F_7 is 1 - 3 = -2 = 5
    assert smallest_nonresidue(7) == 3
    x = QuadExtElement(1, 1, 7)
    y = QuadExtElement(1, -1, 7)
    assert x * y == 5


def test_fp2_inverse_law():
    w = QuadExtElement(0, 1, 7)
    assert w.inverse() * w == 1
    with pytest.raises(ZeroDivisionError):
        QuadExtElement(0, 0, 7).inverse()


def test_fp2_frobenius_is_conjugation_and_pth_power():
    for p in PRIMES[:6]:
        rng = random.Random(p)
        for _ in range(20):
            x = QuadExtElement(rng.randrange(p), rng.randrange(p), p)
            fx = x.frobenius()
            assert fx == x**p
            assert fx.frobenius() == x
            assert fx.a == x.a and fx.b == (-x.b) % p


def test_fp2_operators_on_known_values():
    # w^2 = 2 over F_11
    assert smallest_nonresidue(11) == 2
    x = QuadExtElement(2, 3, 11)
    y = QuadExtElement(5, 7, 11)
    assert (x + y).a == 7 and (x + y).b == 10
    assert (x - y).a == 8 and (x - y).b == 7
    assert (x * y).a == (2 * 5 + 3 * 7 * 2) % 11 and (x * y).b == (2 * 7 + 3 * 5) % 11
    assert x.inverse() == QuadExtElement(3, 1, 11)
    assert x.frobenius() == QuadExtElement(2, 8, 11)


def test_frobenius_order_divides_two_random_sample():
    rng = random.Random(42)
    for p in (13, 101, 1009):
        for _ in range(1000 // 3 + 1):
            x = QuadExtElement(rng.randrange(p), rng.randrange(p), p)
            assert x ** (p * p) == x


@given(
    p=st.sampled_from(PRIMES),
    a=st.integers(min_value=0, max_value=10**9),
    b=st.integers(min_value=0, max_value=10**9),
)
@settings(max_examples=200, deadline=None)
def test_field_axioms_sampled(p, a, b):
    x = QuadExtElement(a, b, p)
    y = QuadExtElement(b, a + 1, p)
    z = QuadExtElement(a + b, 2 * a, p)
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    if not x.is_zero():
        assert x * x.inverse() == 1


@given(p=st.sampled_from(PRIMES), a=st.integers(min_value=0, max_value=10**9),
       b=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150, deadline=None)
def test_general_fp2_sqrt(p, a, b):
    x = QuadExtElement(a, b, p)
    sq = x * x
    s = sqrt_fp2(sq)
    assert s is not None
    assert s * s == sq
    assert (s == x) or (s == -x)


def test_general_fp2_sqrt_none_for_nonsquare():
    p = 13
    n = smallest_nonresidue(p)
    found_nonsquare = False
    for a in range(p):
        for b in range(p):
            x = QuadExtElement(a, b, p)
            if not x.is_square():
                found_nonsquare = True
                assert sqrt_fp2(x) is None
    assert found_nonsquare


def test_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        FieldElement(1, 5) + FieldElement(1, 7)
    with pytest.raises(ValueError):
        QuadExtElement(1, 0, 5) * QuadExtElement(1, 0, 7)


@pytest.mark.parametrize("p", [p for p in range(5, 51) if is_prime(p)])
def test_sqrt_fp2_matches_tonelli_oracle_on_every_element(p):
    n = smallest_nonresidue(p)
    squares = set()
    for a in range(p):
        for b in range(p):
            x = QuadExtElement(a, b, p, n)
            squares.add(((x * x).a, (x * x).b))
    for a in range(p):
        for b in range(p):
            u = QuadExtElement(a, b, p, n)
            s = sqrt_fp2(u)
            want = sqrt_fp2_tonelli(u)
            if (a, b) not in squares:
                assert s is None and want is None, (a, b)
                continue
            assert s is not None and s * s == u
            assert (s.a, s.b) == (want.a, want.b), (a, b)
            assert (s.a, s.b) <= ((-s).a, (-s).b)


def test_sqrt_fp2_matches_tonelli_oracle_near_the_modulus_cap():
    rng = random.Random(2**31)
    for i in range(1000):
        p = LARGE_PRIMES[i % len(LARGE_PRIMES)]
        u = QuadExtElement(rng.randrange(p), rng.randrange(p) if i % 10 else 0, p)
        if i % 2:
            u = u * u
        s = sqrt_fp2(u)
        want = sqrt_fp2_tonelli(u)
        assert (s is None) == (want is None) == (not u.is_square())
        if s is not None:
            assert (s.a, s.b) == (want.a, want.b) and s * s == u
