"""Tests for exact F_p / F_{p^2} arithmetic."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fp2_oracle import F
from s3genus2 import fields
from s3genus2.fields import (
    check_modulus,
    fp2_horner,
    fp2_inv,
    fp2_mul,
    fp2_sqrt,
    is_prime,
    legendre_int,
    primitive_root,
    smallest_nonresidue,
    tonelli_shanks,
)

PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 97, 101, 103, 1009, 65537]
# near the 2^31 cap: 2^31 - 1 is 3 mod 4, 15 * 2^27 + 1 has 2-adic order 27
LARGE_PRIMES = [2013265921, 2147483629, 2147483647]


@lru_cache(maxsize=None)
def _fp2_nonsquare(p: int) -> F:
    # k + w is a non-square iff Norm(k + w) = k^2 - n is a non-residue
    n = smallest_nonresidue(p)
    for k in range(p):
        if legendre_int(k * k - n, p) == -1:
            return F(k, 1, p)
    raise ArithmeticError(f"no non-square found in F_{p}^2")  # unreachable


def sqrt_fp2_tonelli(u: F) -> tuple[int, int] | None:
    """Oracle: Tonelli-Shanks in the multiplicative group of order p^2 - 1."""
    p = u.p
    if u.is_zero():
        return 0, 0
    if not u.is_square():
        return None
    q, s = p * p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = _fp2_nonsquare(p)
    c = z**q
    x = u ** ((q + 1) // 2)
    t = u**q
    m = s
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2
            i += 1
        b = c ** (1 << (m - i - 1))
        x = x * b
        c = b * b
        t = t * c
        m = i
    return min(x.pair, (-x).pair)


def fp2_pow(u, k: int, p: int, n: int) -> tuple[int, int]:
    out = (1, 0)
    while k:
        if k & 1:
            out = fp2_mul(out, u, p, n)
        u = fp2_mul(u, u, p, n)
        k >>= 1
    return out


def neg(u, p):
    return -u[0] % p, -u[1] % p


def exhaustive_squares(p):
    return {x * x % p for x in range(1, p)}


def test_is_prime_small():
    assert [n for n in range(2, 40) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
    ]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 3)


def test_modulus_validation():
    for bad in (4, 3, 2**31 + 11):
        with pytest.raises(ValueError):
            check_modulus(bad)
        with pytest.raises(ValueError):
            smallest_nonresidue(bad)
    assert check_modulus(2**31 - 1) == 2**31 - 1


def test_legendre_zero_mod_7():
    assert legendre_int(0, 7) == 0
    assert legendre_int(14, 7) == 0


def test_legendre_against_exhaustive_squares_mod_7():
    squares = exhaustive_squares(7)
    assert squares == {1, 2, 4}
    assert legendre_int(2, 7) == 1
    assert legendre_int(3, 7) == -1
    for a in range(1, 7):
        assert legendre_int(a, 7) == (1 if a in squares else -1)


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
    assert fp2_sqrt((1, 0), 7, 3) == (1, 0)


def test_sqrt_2_mod_7_is_3():
    assert fp2_sqrt((2, 0), 7, 3) == (3, 0)  # 3^2 = 2 mod 7, and 3 < 4 wins the tie-break


def test_sqrt_nonresidue_mod_7():
    s = fp2_sqrt((3, 0), 7, 3)
    assert s[0] == 0 and s[1] != 0
    assert fp2_mul(s, s, 7, 3) == (3, 0)


@pytest.mark.parametrize("p", PRIMES)
def test_sqrt_squares_to_input_everywhere(p):
    n = smallest_nonresidue(p)
    for a in range(min(p, 200)):
        s = fp2_sqrt((a, 0), p, n)
        assert fp2_mul(s, s, p, n) == (a, 0)
        if legendre_int(a, p) == 1:
            assert s[1] == 0
        elif a != 0:
            assert s[0] == 0 and s[1] != 0


def test_sqrt_canonical_branch_is_smaller_encoding():
    for p in PRIMES:
        for a in (2, 3, p - 1, 5 % p):
            s = fp2_sqrt((a, 0), p, smallest_nonresidue(p))
            assert s <= neg(s, p)


def test_tonelli_rejects_nonresidue():
    with pytest.raises(ValueError):
        tonelli_shanks(3, 7)
    # p = 3 mod 4 checks the squared root; p = 1 mod 4 (2013265921 has
    # 2-adic order 27) finds the non-residue in the loop
    rng = random.Random(4)
    for p in (7, 13, 17, 97, 101, 65537, *LARGE_PRIMES):
        found = 0
        while found < 20:
            a = rng.randrange(1, p)
            if legendre_int(a, p) == -1:
                found += 1
                with pytest.raises(ValueError):
                    tonelli_shanks(a, p)
            else:
                assert tonelli_shanks(a, p) ** 2 % p == a


def test_fp2_sqrt_pays_one_euler_criterion_per_radicand(monkeypatch):
    calls = 0

    def counting_legendre(a, p):
        nonlocal calls
        calls += 1
        return legendre_int(a, p)

    monkeypatch.setattr(fields, "legendre_int", counting_legendre)
    for p in (13, 103, *LARGE_PRIMES):
        n = smallest_nonresidue(p)
        for u, want in (((4, 0), 1), ((n, 0), 1), (fields.fp2_mul((2, 3), (2, 3), p, n), 2)):
            calls = 0
            root = fp2_sqrt(u, p, n)
            assert fields.fp2_mul(root, root, p, n) == u
            # the norm, then one of the two candidates for x^2
            assert calls == want, (p, u)
        calls = 0
        tonelli_shanks(9, p)
        assert calls == 0


def test_fp2_paper_style_product():
    # (1+w)(1-w) with w^2 = 3 over F_7 is 1 - 3 = -2 = 5
    assert smallest_nonresidue(7) == 3
    assert fp2_mul((1, 1), (1, 6), 7, 3) == (5, 0)


def test_fp2_inverse_law():
    w = (0, 1)
    assert fp2_mul(fp2_inv(w, 7, 3), w, 7, 3) == (1, 0)
    with pytest.raises(ZeroDivisionError):
        fp2_inv((0, 0), 7, 3)


def test_fp2_frobenius_is_conjugation_and_pth_power():
    for p in PRIMES[:6]:
        n = smallest_nonresidue(p)
        rng = random.Random(p)
        for _ in range(20):
            x = rng.randrange(p), rng.randrange(p)
            assert fp2_pow(x, p, p, n) == (x[0], -x[1] % p)
            assert fp2_pow(fp2_pow(x, p, p, n), p, p, n) == x


def test_fp2_operators_on_known_values():
    # w^2 = 2 over F_11
    assert smallest_nonresidue(11) == 2
    x, y = (2, 3), (5, 7)
    assert fp2_mul(x, y, 11, 2) == ((2 * 5 + 3 * 7 * 2) % 11, (2 * 7 + 3 * 5) % 11)
    assert fp2_inv(x, 11, 2) == (3, 1)
    # 1 + 2x + x^2 = (1 + x)^2 = (3 + 3w)^2 = (9 + 18) + 18w
    assert fp2_horner([(1, 0), (2, 0), (1, 0)], x, 11, 2) == (27 % 11, 18 % 11)


def test_frobenius_order_divides_two_random_sample():
    rng = random.Random(42)
    for p in (13, 101, 1009):
        n = smallest_nonresidue(p)
        for _ in range(1000 // 3 + 1):
            x = rng.randrange(p), rng.randrange(p)
            assert fp2_pow(x, p * p, p, n) == x


@given(
    p=st.sampled_from(PRIMES),
    a=st.integers(min_value=0, max_value=10**9),
    b=st.integers(min_value=0, max_value=10**9),
)
@settings(max_examples=200, deadline=None)
def test_field_axioms_sampled(p, a, b):
    n = smallest_nonresidue(p)
    x, y, z = (a % p, b % p), (b % p, (a + 1) % p), ((a + b) % p, 2 * a % p)
    xy = ((x[0] + y[0]) % p, (x[1] + y[1]) % p)
    xz, yz = fp2_mul(x, z, p, n), fp2_mul(y, z, p, n)
    assert fp2_mul(xy, z, p, n) == ((xz[0] + yz[0]) % p, (xz[1] + yz[1]) % p)
    assert fp2_mul(x, y, p, n) == fp2_mul(y, x, p, n) == (F(*x, p) * F(*y, p)).pair
    assert fp2_mul(fp2_mul(x, y, p, n), z, p, n) == fp2_mul(x, fp2_mul(y, z, p, n), p, n)
    if x != (0, 0):
        assert fp2_inv(x, p, n) == F(*x, p).inverse().pair
        assert fp2_mul(x, fp2_inv(x, p, n), p, n) == (1, 0)


@given(p=st.sampled_from(PRIMES), a=st.integers(min_value=0, max_value=10**9),
       b=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150, deadline=None)
def test_general_fp2_sqrt(p, a, b):
    n = smallest_nonresidue(p)
    x = a % p, b % p
    sq = fp2_mul(x, x, p, n)
    s = fp2_sqrt(sq, p, n)
    assert s is not None
    assert fp2_mul(s, s, p, n) == sq
    assert s in (x, neg(x, p))


def test_general_fp2_sqrt_none_for_nonsquare():
    p = 13
    n = smallest_nonresidue(p)
    found_nonsquare = False
    for a in range(p):
        for b in range(p):
            if not F(a, b, p).is_square():
                found_nonsquare = True
                assert fp2_sqrt((a, b), p, n) is None
    assert found_nonsquare


@pytest.mark.parametrize("p", [p for p in range(5, 51) if is_prime(p)])
def test_sqrt_fp2_matches_tonelli_oracle_on_every_element(p):
    n = smallest_nonresidue(p)
    squares = {(F(a, b, p) * F(a, b, p)).pair for a in range(p) for b in range(p)}
    for a in range(p):
        for b in range(p):
            s = fp2_sqrt((a, b), p, n)
            want = sqrt_fp2_tonelli(F(a, b, p))
            if (a, b) not in squares:
                assert s is None and want is None, (a, b)
                continue
            assert s == want and fp2_mul(s, s, p, n) == (a, b), (a, b)
            assert s <= neg(s, p)


def test_sqrt_fp2_matches_tonelli_oracle_near_the_modulus_cap():
    rng = random.Random(2**31)
    for i in range(1000):
        p = LARGE_PRIMES[i % len(LARGE_PRIMES)]
        n = smallest_nonresidue(p)
        u = F(rng.randrange(p), rng.randrange(p) if i % 10 else 0, p)
        if i % 2:
            u = u * u
        s = fp2_sqrt(u.pair, p, n)
        want = sqrt_fp2_tonelli(u)
        assert (s is None) == (want is None) == (not u.is_square())
        if s is not None:
            assert s == want and fp2_mul(s, s, p, n) == u.pair


def test_primitive_root_is_the_smallest_generator():
    for p in [q for q in range(5, 600) if is_prime(q)] + [65537]:
        smallest = next(g for g in range(2, p) if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)
        assert primitive_root(p) == smallest, p
    # p - 1 = 2 * 3^2 * 7 * 11 * 31 * 151 * 331
    assert primitive_root(2147483647) == 7
