"""Legendre-form elliptic curves over F_p and F_{p^2}.

E_t : y^2 = x(x-1)(x-t) with t in the quadratic extension.  Coefficients,
parameters and points are the (a, b) int pairs of `fields`.  Provides the
j-invariant, the on-curve test, naive point counts (these double as an
independent oracle), the Deuring-polynomial supersingularity test, and
the x-coordinate map of [3] from the division polynomials.  There is no
point law: the isogeny check compares x-maps, and the test suite keeps
the chord-tangent law as its oracle.
"""

from __future__ import annotations

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
from .limits import POINT_COUNT_BOUND_DEG1, POINT_COUNT_BOUND_DEG2, LimitError


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


def j_invariant(c: LegendreCurve) -> tuple[int, int]:
    """j(E_t) = 2^8 (t^2 - t + 1)^3 / (t^2 (t - 1)^2)."""
    p, n, (ta, tb) = c.p, c.n, c.t
    sa, sb = fp2_mul(c.t, c.t, p, n)
    d = (sa - ta, sb - tb)
    u = (d[0] + 1, d[1])
    num = fp2_mul(fp2_mul(u, u, p, n), u, p, n)
    ja, jb = fp2_mul(num, fp2_inv(fp2_mul(d, d, p, n), p, n), p, n)
    return 256 * ja % p, 256 * jb % p


# ---------------------------------------------------------------------------
# point counting by exhaustive enumeration


def count_points(c: LegendreCurve, extension_degree: int = 1) -> int:
    """Exact number of points over F_p or F_{p^2}, including infinity.

    Enumerates x and tests quadratic residuosity of the cubic value, so it
    is also usable as an oracle against the Deuring-polynomial test.
    """
    p = c.p
    if extension_degree == 1:
        if p > POINT_COUNT_BOUND_DEG1:
            raise LimitError(f"p={p} above enumeration bound {POINT_COUNT_BOUND_DEG1}")
        if c.t[1]:
            raise ValueError("degree-1 count needs t in F_p")
        return _count_fp(c.t[0], p)
    if extension_degree == 2:
        if p > POINT_COUNT_BOUND_DEG2:
            raise LimitError(f"p={p} above enumeration bound {POINT_COUNT_BOUND_DEG2}")
        return _count_fp2(*c.t, p)
    raise ValueError("extension_degree must be 1 or 2")


def _sqrt_table(p: int) -> np.ndarray:
    """table[v] = the smaller square root of v, or -1 for non-residues."""
    table = np.full(p, -1, dtype=np.int64)
    x = np.arange((p + 1) // 2, dtype=np.int64)
    table[(x * x) % p] = x
    return table


def _count_fp(t: int, p: int) -> int:
    x = np.arange(p, dtype=np.int64)
    f = (x * ((x * (x - (1 + t))) % p + t)) % p
    is_sq = _sqrt_table(p) >= 0
    zero = int(np.count_nonzero(f == 0))
    on = int(np.count_nonzero(is_sq[f] & (f != 0)))
    return 1 + zero + 2 * on


def _count_fp2(ta: int, tb: int, p: int) -> int:
    n = smallest_nonresidue(p)
    a = np.repeat(np.arange(p, dtype=np.int64), p)
    b = np.tile(np.arange(p, dtype=np.int64), p)
    # f = x * (x - 1) * (x - t)
    f = fp2_mul((a, b), ((a - 1) % p, b), p, n)
    fa, fb = fp2_mul(f, ((a - ta) % p, (b - tb) % p), p, n)
    norm = (fa * fa - n * ((fb * fb) % p)) % p
    is_sq = _sqrt_table(p) >= 0
    zero = int(np.count_nonzero((fa == 0) & (fb == 0)))
    on = int(np.count_nonzero(is_sq[norm])) - zero
    return 1 + zero + 2 * on


def count_points_weil(c: LegendreCurve) -> int:
    """#E(F_{p^2}) from the degree-1 count: (p+1)^2 - a^2, a = p+1-#E(F_p)."""
    p = c.p
    a = p + 1 - count_points(c, 1)
    return (p + 1) ** 2 - a * a


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
# level-3 division polynomial


def psi3_coefficients(lam: tuple[int, int], p: int) -> list[tuple[int, int]]:
    """Ascending (a, b) coefficients of 3x^4 - 4(1+L)x^3 + 6Lx^2 - L^2, L = lam."""
    la, lb = lam
    sa, sb = fp2_mul(lam, lam, p, smallest_nonresidue(p))
    return [(-sa % p, -sb % p), (0, 0), (6 * la % p, 6 * lb % p),
            (-4 * (1 + la) % p, -4 * lb % p), (3, 0)]


def triple_x_coefficients(lam: tuple[int, int], p: int) -> tuple[list, list]:
    """(num, den) with x([3]P) = num(x)/den(x) on E_lam, as ascending (a, b) pairs.

    den = psi3^2 and num = x psi3^2 - 4 f W, with f = x(x - 1)(x - L) and
    W = psi4/psi2 = 2x^6 - 4(1+L)x^5 + 10Lx^4 - 10L^2x^2 + 4(1+L)L^2x - 2L^3,
    L = lam (Silverman, AEC, Ex. 3.7, at a2 = -(1+L), a4 = L, a6 = 0).
    """
    n = smallest_nonresidue(p)
    lam = _reduce(lam, p)
    one, one_l = (1, 0), ((1 + lam[0]) % p, lam[1])
    l2 = fp2_mul(lam, lam, p, n)
    terms = ((-2, fp2_mul(l2, lam, p, n)), (4, fp2_mul(one_l, l2, p, n)), (-10, l2),
             (0, one), (10, lam), (-4, one_l), (2, one))
    w = [(c * a % p, c * b % p) for c, (a, b) in terms]
    f = [(0, 0), lam, (-one_l[0] % p, -one_l[1] % p), one]
    psi3 = psi3_coefficients(lam, p)
    den = _poly_mul(psi3, psi3, p, n)
    fw = _poly_mul(f, w, p, n)
    num = [((a - 4 * c) % p, (b - 4 * d) % p) for (a, b), (c, d) in zip([(0, 0)] + den, fw)]
    return num, den


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
