"""Legendre-form elliptic curves over F_p and F_{p^2}.

E_t : y^2 = x(x-1)(x-t) with t in the quadratic extension.  Coefficients,
parameters and points are the (a, b) int pairs of `fields`.  Provides the
on-curve test, the square-root table mod p, the Deuring-polynomial
supersingularity test, the x-only check of a composite of two x-maps
against [3], and dense polynomial products and division over F_{p^2}.
There is no point law: the isogeny check compares x-maps, and the test
suite keeps the chord-tangent law, the naive point counts, the
division-polynomial x-map of [3] and the per-curve j-invariant (the
oracle of `family.legendre_j`) as its oracles.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import isqrt

import numpy as np

from .fields import (
    check_modulus,
    fp2_horner,
    fp2_inv,
    fp2_mul,
    primitive_root,
    smallest_nonresidue,
)


def _reduce(u, p: int) -> tuple[int, int]:
    return u[0] % p, u[1] % p


class CubicCurve:
    """y^2 = x^3 + a2 x^2 + a4 x + a6 with (a, b) pair coefficients in F_{p^2}.

    Points are ((xa, xb), (ya, yb)) int pairs, None for infinity.
    """

    def __init__(self, a2, a4, a6, p: int):
        check_modulus(p)
        self.p = p
        self.n = smallest_nonresidue(p)
        self.a2, self.a4, self.a6 = (_reduce(c, p) for c in (a2, a4, a6))
        self._f = (self.a6, self.a4, self.a2, (1, 0))

    def rhs(self, x: tuple[int, int]) -> tuple[int, int]:
        return fp2_horner(self._f, x, self.p, self.n)

    def contains(self, P) -> bool:
        return P is None or fp2_mul(P[1], P[1], self.p, self.n) == self.rhs(P[0])


class LegendreCurve(CubicCurve):
    """y^2 = x(x-1)(x-t) for a pair t, nonsingular iff t is not 0 or 1."""

    def __init__(self, t, p: int):
        t = _reduce(t, p)
        if t in ((0, 0), (1, 0)):
            raise ValueError(f"singular Legendre parameter t={t}")
        super().__init__((-(t[0] + 1), -t[1]), t, (0, 0), p)
        self.t = t

    def __repr__(self):
        return f"LegendreCurve(t={self.t}, p={self.p})"


# ---------------------------------------------------------------------------
# square roots mod p


def _sqrt_table(p: int) -> np.ndarray:
    """table[v] = the smaller square root of v, or -1 for non-residues."""
    table = np.full(p, -1, dtype=np.int64)
    x = np.arange((p + 1) // 2, dtype=np.int64)
    table[(x * x) % p] = x
    return table


# ---------------------------------------------------------------------------
# supersingularity via the Deuring polynomial


@lru_cache(maxsize=1)
def _power_table(p: int) -> np.ndarray:
    """table[i] = g^i mod p for i = 0 .. p-2, g = fields.primitive_root(p).

    The outer product of g^0 .. g^(B-1) and (g^B)^j, B = isqrt(p-1) + 1: two
    python loops of about sqrt(p) steps and one p-sized reduction.  A
    scanned prime builds it once; the log and inverse tables and the
    Deuring and supersingular coefficients all read it.
    """
    g = primitive_root(p)
    b = isqrt(p - 1) + 1
    baby = [1]
    for _ in range(b - 1):
        baby.append(baby[-1] * g % p)
    giant = [1]
    step = baby[-1] * g % p
    for _ in range((p - 2) // b):
        giant.append(giant[-1] * step % p)
    table = np.multiply.outer(np.array(giant, dtype=np.int64), np.array(baby, dtype=np.int64))
    return (table % p).ravel()[: p - 1]


def _log_table(p: int) -> np.ndarray:
    """log[v] = the discrete log of v to the base of `_power_table(p)`.

    log[0] reads 0 as well, so a caller must keep 0 out of its arguments.
    The Deuring coefficients and `family._supersingular_array` read it, each
    once per prime; it is not cached, so only the inverse table stays alive
    beside the power table between primes.
    """
    log = np.zeros(p, dtype=np.int64)
    log[_power_table(p)] = np.arange(p - 1)
    return log


@lru_cache(maxsize=1)
def _inverse_table(p: int) -> np.ndarray:
    """inv[v] = 1/v mod p (inv[0] = 0): 1/g^i = g^(p-1-i) in `_power_table(p)`."""
    table = _power_table(p)
    inv = np.zeros(p, dtype=np.int64)
    inv[1] = 1
    inv[table[1:]] = table[:0:-1]
    return inv


def _deuring_array(p: int) -> np.ndarray:
    """Coefficients c_0 .. c_m of H_p, m = (p-1)/2, as an int64 array.

    With l = log_g read off the power table, l(C(m, k)) is the partial sum
    of l(m - i + 1) - l(i) over i = 1 .. k, one cumsum whose terms lie in
    (-(p-1), p-1), so its partial sums stay below m (p-1) < 2^49 in
    absolute value; then c_k = C(m, k)^2 = g^(2 l(C(m, k)) mod (p-1)).
    """
    m = (p - 1) // 2
    log = _log_table(p)
    e = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(log[m:0:-1] - log[1 : m + 1], out=e[1:])
    return _power_table(p)[2 * e % (p - 1)]


# the per-lambda loops within one prime (is_supersingular) read this tuple
@lru_cache(maxsize=8)
def deuring_coefficients(p: int) -> tuple[int, ...]:
    """Coefficients of H_p(t) = sum_k C((p-1)/2, k)^2 t^k, reduced mod p."""
    check_modulus(p)
    return tuple(_deuring_array(p).tolist())


def is_supersingular(c: LegendreCurve) -> bool:
    """True iff H_p(t) = 0 in F_{p^2}."""
    p, n = c.p, c.n
    coeffs = deuring_coefficients(p)
    ta, tb = c.t
    acc_a, acc_b = 0, 0
    for k in range(len(coeffs) - 1, -1, -1):
        acc_a, acc_b = (
            (acc_a * ta + acc_b * tb % p * n + coeffs[k]) % p,
            (acc_a * tb + acc_b * ta) % p,
        )
    return acc_a == 0 and acc_b == 0


# ---------------------------------------------------------------------------
# x-only check of a composite of two x-maps against [3]


def _lane(lam, first, second, p: int, n: int) -> tuple[int, ...]:
    """The int constants of one direction of `composite_x_is_triple`.

    A constant that multiplies a value carries n times its w-part as well.
    """
    (r1, (c0, c1, c2, c3)), (r2, t) = first, second
    la, lb = lam
    a4, b = (-4 - 4 * la, -4 * lb), (la, lb)
    e4, bb = fp2_mul(a4, b, p, n), fp2_mul(b, b, p, n)
    c1, c3, t0, t1, t2, t3, r2, a4, e4 = (
        (u % p, v % p, n * v % p) for u, v in (c1, c3, *t, r2, a4, e4))
    return (*r1, *c0, *c1, *c2, *c3, *t0, *t1, *t2, *t3, *r2, *a4, *e4,
            3 * la % p, 3 * lb % p, 6 * la % p, 6 * lb % p, *bb, 12 * bb[0] % p, 12 * bb[1] % p)


def composite_x_is_triple(directions, p: int, n: int, trials: int, seed: int) -> bool:
    """True iff s2(s1(x)) = x([3]) at `trials` seeded x in F_{p^2} per direction.

    A direction is (L, (r1, c), (r2, t)): s1(x) = c(x)/(x - r1)^2 and
    s2(u) = t(u)/(u - r2)^2, c and t cubics (ascending (a, b) pairs) with
    c(r1) != 0 and t(r2) != 0, and [3] acts on E_L.  Then s1 = U/V with
    (U : V) = (c(x) : Q^2), Q = x - r1, and s2(U/V) = N/(V W^2) with
    N = sum_k t_k U^k V^(3-k) and W = U - r2 V; neither pair reads (0 : 0).
    On y^2 = x^3 + a x^2 + b x (a = -(1 + L), b = L), x([3]) = x phi^2/psi3^2
    with phi = (x^2 - 3b)^2 - 4ab x - 12b^2 and psi3 = x^2 (3x^2 + 4a x + 6b)
    - b^2: x-only doubling and differential addition with P as the
    difference, the factor x cancelled (Costello-Smith 2018).  So a trial
    requires N psi3^2 = x (Q phi W)^2 on ints of F_p[w]/(w^2 - n), every
    product written out: no helper call and no inversion.  The x's are
    drawn by random.Random(seed).randrange(p), two per direction, in order.
    """
    lanes = [_lane(lam, first, second, p, n) for lam, first, second in directions]
    rng = random.Random(seed)
    for _ in range(trials):
        for (r1a, r1b, c0a, c0b, c1a, c1b, c1n, c2a, c2b, c3a, c3b, c3n,
             t0a, t0b, t0n, t1a, t1b, t1n, t2a, t2b, t2n, t3a, t3b, t3n, r2a, r2b, r2n,
             a4a, a4b, a4n, e4a, e4b, e4n, b3a, b3b, b6a, b6b, bba, bbb, b12a, b12b) in lanes:
            xa, xb = rng.randrange(p), rng.randrange(p)
            # x^2; U = c0 + c1 x + x^2 (c2 + c3 x); Q = x - r1 and V = Q^2
            sa, sb = (xa * xa + n * xb * xb) % p, 2 * xa * xb % p
            ha, hb = c3a * xa + c3n * xb + c2a, c3a * xb + c3b * xa + c2b
            ua = (sa * ha + n * sb * hb + c1a * xa + c1n * xb + c0a) % p
            ub = (sa * hb + sb * ha + c1a * xb + c1b * xa + c0b) % p
            qa, qb = xa - r1a, xb - r1b
            va, vb = (qa * qa + n * qb * qb) % p, 2 * qa * qb % p
            # N = (t3 U + t2 V) U^2 + (t1 U + t0 V) V^2 and W = U - r2 V
            ea = t3a * ua + t3n * ub + t2a * va + t2n * vb
            eb = t3a * ub + t3b * ua + t2a * vb + t2b * va
            fa = t1a * ua + t1n * ub + t0a * va + t0n * vb
            fb = t1a * ub + t1b * ua + t0a * vb + t0b * va
            ga, gb = ua * ua + n * ub * ub, 2 * ua * ub  # U^2 and V^2
            ha, hb = va * va + n * vb * vb, 2 * va * vb
            na = (ea * ga + n * eb * gb + fa * ha + n * fb * hb) % p
            nb = (ea * gb + eb * ga + fa * hb + fb * ha) % p
            wa, wb = ua - r2a * va - r2n * vb, ub - r2a * vb - r2b * va
            # psi3 = x^2 (3x^2 + 4a x + 6b) - b^2; phi = (x^2 - 3b)^2 - 4ab x - 12b^2
            ga, gb = 3 * sa + a4a * xa + a4n * xb + b6a, 3 * sb + a4a * xb + a4b * xa + b6b
            ra, rb = (sa * ga + n * sb * gb - bba) % p, (sa * gb + sb * ga - bbb) % p
            ga, gb = sa - b3a, sb - b3b
            ha = (ga * ga + n * gb * gb - e4a * xa - e4n * xb - b12a) % p
            hb = (2 * ga * gb - e4a * xb - e4b * xa - b12b) % p
            # N psi3^2 against x (Q phi W)^2
            ga, gb = (ra * ra + n * rb * rb) % p, 2 * ra * rb % p
            la, lb = na * ga + n * nb * gb, na * gb + nb * ga
            ga, gb = (qa * ha + n * qb * hb) % p, (qa * hb + qb * ha) % p
            ga, gb = (ga * wa + n * gb * wb) % p, (ga * wb + gb * wa) % p
            ga, gb = ga * ga + n * gb * gb, 2 * ga * gb
            if (la - xa * ga - n * xb * gb) % p or (lb - xa * gb - xb * ga) % p:
                return False
    return True


# dense polynomials over F_{p^2} = F_p[w]/(w^2 - n): ascending lists of
# (a, b) int pairs, every coefficient reduced mod p


def _poly_trim(f):
    while f and f[-1] == (0, 0):
        f.pop()
    return f


def _poly_mul(f, g, p, n):
    out = [(0, 0)] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi == (0, 0):
            continue
        for j, gj in enumerate(g):
            ua, ub = fp2_mul(fi, gj, p, n)
            oa, ob = out[i + j]
            out[i + j] = (oa + ua) % p, (ob + ub) % p
    return _poly_trim(out)


def _poly_divmod(f, g, p, n):
    """(quotient, remainder) of f by g, by long division."""
    f = list(f)
    quot = [(0, 0)] * max(0, len(f) - len(g) + 1)
    inv_lead = fp2_inv(g[-1], p, n)
    while len(f) >= len(g):
        q = fp2_mul(f[-1], inv_lead, p, n)
        shift = len(f) - len(g)
        quot[shift] = q
        for i, gi in enumerate(g):
            ua, ub = fp2_mul(q, gi, p, n)
            fa, fb = f[shift + i]
            f[shift + i] = (fa - ua) % p, (fb - ub) % p
        f.pop()
    return _poly_trim(quot), _poly_trim(f)
