"""Legendre-form elliptic curves over F_p and F_{p^2}.

E_t : y^2 = x(x-1)(x-t) with t in the quadratic extension.  Provides the
j-invariant, the chord-tangent group law on plain int pairs, naive point
counts (these double as an independent oracle), the Deuring-polynomial
supersingularity test and the roots of the level-3 division polynomial,
found by gcd and random splitting on int-pair polynomials over F_{p^2}.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import isqrt

import numpy as np

from .fields import (
    QuadExtElement,
    check_modulus,
    fp2_horner,
    fp2_inv,
    fp2_mul,
    fp2_sqrt,
    primitive_root,
    smallest_nonresidue,
)

POINT_COUNT_BOUND_DEG1 = 2_000_000
POINT_COUNT_BOUND_DEG2 = 2_000


def _as_fp2(v, p: int) -> QuadExtElement:
    if isinstance(v, QuadExtElement):
        if v.p != p:
            raise ValueError("mixed moduli")
        return v
    return QuadExtElement(int(v), 0, p)


class CurvePoint:
    """A point on a cubic y^2 = f(x): either infinity or affine (x, y)."""

    __slots__ = ("x", "y")

    def __init__(self, x: QuadExtElement | None, y: QuadExtElement | None):
        if (x is None) != (y is None):
            raise ValueError("affine points need both coordinates")
        self.x = x
        self.y = y

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        if self.is_infinity:
            return hash(None)
        return hash((self.x, self.y))

    def __repr__(self):
        if self.is_infinity:
            return "CurvePoint(infinity)"
        return f"CurvePoint({self.x!r}, {self.y!r})"


INFINITY = CurvePoint(None, None)


def as_pairs(pt: CurvePoint):
    """The int-pair form ((xa, xb), (ya, yb)) of a point; None for infinity."""
    if pt.is_infinity:
        return None
    return (pt.x.a, pt.x.b), (pt.y.a, pt.y.b)


def as_point(P, p: int) -> CurvePoint:
    """The CurvePoint of an int-pair point over F_{p^2}."""
    if P is None:
        return INFINITY
    n = smallest_nonresidue(p)
    (xa, xb), (ya, yb) = P
    return CurvePoint(QuadExtElement(xa, xb, p, n), QuadExtElement(ya, yb, p, n))


class CubicCurve:
    """y^2 = x^3 + a2 x^2 + a4 x + a6 with coefficients in F_{p^2}.

    The `pair_*` methods work on int-pair points ((xa, xb), (ya, yb)), None
    for infinity; the other methods convert CurvePoints at their boundary.
    """

    def __init__(self, a2, a4, a6, p: int):
        check_modulus(p)
        self.p = p
        self.n = smallest_nonresidue(p)
        self.a2 = _as_fp2(a2, p)
        self.a4 = _as_fp2(a4, p)
        self.a6 = _as_fp2(a6, p)
        self._f = tuple((c.a, c.b) for c in (self.a6, self.a4, self.a2)) + ((1, 0),)

    def pair_rhs(self, x: tuple[int, int]) -> tuple[int, int]:
        return fp2_horner(self._f, x, self.p, self.n)

    def pair_contains(self, P) -> bool:
        return P is None or fp2_mul(P[1], P[1], self.p, self.n) == self.pair_rhs(P[0])

    def pair_add(self, P, Q):
        """P + Q by the chord-tangent law (P == Q doubles)."""
        if P is None:
            return Q
        if Q is None:
            return P
        p, n = self.p, self.n
        (x1, y1), (x2, y2) = P, Q
        a2a, a2b = self._f[2]
        if x1 == x2:
            if (y1[0] + y2[0]) % p == 0 and (y1[1] + y2[1]) % p == 0:
                return None
            # tangent slope (3x^2 + 2 a2 x + a4) / 2y
            ua, ub = fp2_mul((3 * x1[0] + 2 * a2a, 3 * x1[1] + 2 * a2b), x1, p, n)
            a4a, a4b = self._f[1]
            num, den = (ua + a4a, ub + a4b), (2 * y1[0], 2 * y1[1])
        else:
            num = (y2[0] - y1[0], y2[1] - y1[1])
            den = (x2[0] - x1[0], x2[1] - x1[1])
        slope = fp2_mul(num, fp2_inv(den, p, n), p, n)
        sa, sb = fp2_mul(slope, slope, p, n)
        x3 = (sa - a2a - x1[0] - x2[0]) % p, (sb - a2b - x1[1] - x2[1]) % p
        ta, tb = fp2_mul(slope, (x1[0] - x3[0], x1[1] - x3[1]), p, n)
        return x3, ((ta - y1[0]) % p, (tb - y1[1]) % p)

    def pair_minus3(self, P):
        """[-3]P, as -(P + 2P)."""
        R = self.pair_add(P, self.pair_add(P, P))
        if R is None:
            return None
        x, (ya, yb) = R
        return x, (-ya % self.p, -yb % self.p)

    def pair_random(self, rng: random.Random):
        """Random x (a-part, then b-part) until f(x) is a square; then a random sign."""
        p, n = self.p, self.n
        while True:
            x = (rng.randrange(p), rng.randrange(p))
            y = fp2_sqrt(self.pair_rhs(x), p, n)
            if y is not None:
                if not rng.randrange(2):
                    y = (-y[0] % p, -y[1] % p)
                return x, y

    def rhs(self, x) -> QuadExtElement:
        x = _as_fp2(x, self.p)
        return QuadExtElement(*self.pair_rhs((x.a, x.b)), self.p, self.n)

    def contains(self, pt: CurvePoint) -> bool:
        return self.pair_contains(as_pairs(pt))

    def point(self, x, y) -> CurvePoint:
        pt = CurvePoint(_as_fp2(x, self.p), _as_fp2(y, self.p))
        if not self.contains(pt):
            raise ValueError(f"({x}, {y}) is not on the curve")
        return pt

    def random_point(self, rng: random.Random) -> CurvePoint:
        return as_point(self.pair_random(rng), self.p)


class LegendreCurve(CubicCurve):
    """y^2 = x(x-1)(x-t), nonsingular iff t is not 0 or 1."""

    def __init__(self, t, p: int):
        t = _as_fp2(t, p)
        if t == 0 or t == 1:
            raise ValueError(f"singular Legendre parameter t={t!r}")
        super().__init__(-(t + 1), t, 0, p)
        self.t = t

    def __repr__(self):
        return f"LegendreCurve(t={self.t!r}, p={self.p})"


def j_invariant(c: LegendreCurve) -> QuadExtElement:
    """j(E_t) = 2^8 (t^2 - t + 1)^3 / (t^2 (t - 1)^2)."""
    t = c.t
    num = 256 * (t * t - t + 1) ** 3
    den = (t * (t - 1)) ** 2
    return num / den


# ---------------------------------------------------------------------------
# point counting by exhaustive enumeration


def count_points(c: LegendreCurve, extension_degree: int = 1, bound: int | None = None) -> int:
    """Exact number of points over F_p or F_{p^2}, including infinity.

    Enumerates x and tests quadratic residuosity of the cubic value, so it
    is also usable as an oracle against the Deuring-polynomial test.
    """
    p = c.p
    if extension_degree == 1:
        if bound is None:
            bound = POINT_COUNT_BOUND_DEG1
        if p > bound:
            raise ValueError(f"p={p} above enumeration bound {bound}")
        if not c.t.in_base_field():
            raise ValueError("degree-1 count needs t in F_p")
        return _count_fp(c.t.a, p)
    if extension_degree == 2:
        if bound is None:
            bound = POINT_COUNT_BOUND_DEG2
        if p > bound:
            raise ValueError(f"p={p} above enumeration bound {bound}")
        return _count_fp2(c.t.a, c.t.b, p)
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
    scanned prime builds it once, and the Deuring coefficients and the
    scan's inverse table both read it.
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


def _deuring_array(p: int) -> np.ndarray:
    """Coefficients c_0 .. c_m of H_p, m = (p-1)/2, as an int64 array.

    With l = log_g read off the power table, l(C(m, k)) is the partial sum
    of l(m - i + 1) - l(i) over i = 1 .. k, one cumsum whose terms lie in
    (-(p-1), p-1), so its partial sums stay below m (p-1) < 2^49 in
    absolute value; then c_k = C(m, k)^2 = g^(2 l(C(m, k)) mod (p-1)).
    """
    table = _power_table(p)
    m = (p - 1) // 2
    log = np.zeros(p, dtype=np.int64)
    log[table] = np.arange(p - 1)
    e = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(log[m:0:-1] - log[1 : m + 1], out=e[1:])
    return table[2 * e % (p - 1)]


# the scan reads `_deuring_array` directly; this tuple serves the
# per-lambda loops within one prime (is_supersingular)
@lru_cache(maxsize=8)
def deuring_coefficients(p: int) -> tuple[int, ...]:
    """Coefficients of H_p(t) = sum_k C((p-1)/2, k)^2 t^k, reduced mod p."""
    check_modulus(p)
    return tuple(_deuring_array(p).tolist())


def is_supersingular(c: LegendreCurve) -> bool:
    """True iff H_p(t) = 0 in F_{p^2}."""
    p = c.p
    n = c.t.nonresidue
    coeffs = deuring_coefficients(p)
    ta, tb = c.t.a, c.t.b
    acc_a, acc_b = 0, 0
    for k in range(len(coeffs) - 1, -1, -1):
        acc_a, acc_b = (
            (acc_a * ta + acc_b * tb % p * n + coeffs[k]) % p,
            (acc_a * tb + acc_b * ta) % p,
        )
    return acc_a == 0 and acc_b == 0


# ---------------------------------------------------------------------------
# level-3 division polynomial


def psi3_coefficients(lam: QuadExtElement) -> list[tuple[int, int]]:
    """Ascending (a, b) coefficients of 3x^4 - 4(1+L)x^3 + 6Lx^2 - L^2, L = lam."""
    p, la, lb = lam.p, lam.a, lam.b
    sa, sb = fp2_mul((la, lb), (la, lb), p, lam.nonresidue)
    return [(-sa % p, -sb % p), (0, 0), (6 * la % p, 6 * lb % p),
            (-4 * (1 + la) % p, -4 * lb % p), (3, 0)]


def psi3_eval(lam: QuadExtElement, x: QuadExtElement) -> QuadExtElement:
    p, n = lam.p, lam.nonresidue
    return QuadExtElement(*fp2_horner(psi3_coefficients(lam), (x.a, x.b), p, n), p, n)


def psi3_roots(lam: QuadExtElement, seed: int = 1) -> list[QuadExtElement]:
    """All roots in F_{p^2} of the level-3 division polynomial of E_lam.

    The F_{p^2}-rational part is split off with gcd(psi3, x^(p^2) - x) and
    factored by random splitting; the roots come sorted by (a-part, b-part).
    """
    if lam == 0 or lam == 1:
        raise ValueError("singular Legendre parameter")
    p, n = lam.p, lam.nonresidue
    roots = _poly_fp2_roots(psi3_coefficients(lam), p, n, seed)
    return [QuadExtElement(a, b, p, n) for a, b in sorted(roots)]


# dense polynomials over F_{p^2} = F_p[w]/(w^2 - n): ascending lists of
# (a, b) int pairs, every coefficient reduced mod p
SPLIT_PROBES = 64  # splitting probes per factor before giving up


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


def _poly_powmod(base, e: int, mod, p, n):
    result = [(1, 0)]
    base = _poly_divmod(base, mod, p, n)[1]
    while e:
        if e & 1:
            result = _poly_divmod(_poly_mul(result, base, p, n), mod, p, n)[1]
        base = _poly_divmod(_poly_mul(base, base, p, n), mod, p, n)[1]
        e >>= 1
    return result


def _poly_gcd(f, g, p, n):
    """Monic gcd of f and g."""
    f, g = list(f), list(g)
    while g:
        f, g = g, _poly_divmod(f, g, p, n)[1]
    if f:
        inv = fp2_inv(f[-1], p, n)
        f = [fp2_mul(c, inv, p, n) for c in f]
    return f


def _poly_fp2_roots(f, p: int, n: int, seed: int) -> list[tuple[int, int]]:
    """Distinct roots in F_{p^2} of f, by gcd with x^(p^2) - x and random splitting."""
    xq = _poly_powmod([(0, 0), (1, 0)], p * p, f, p, n)
    # gcd(f, x^(p^2) - x): product of the distinct linear factors of f
    diff = xq + [(0, 0)] * max(0, 2 - len(xq))
    diff[1] = (diff[1][0] - 1) % p, diff[1][1]
    stack = [_poly_gcd(f, _poly_trim(diff), p, n)]
    rng = random.Random(seed)
    roots = []
    while stack:
        h = stack.pop()
        if len(h) <= 1:
            continue
        if len(h) == 2:
            ra, rb = fp2_mul(h[0], fp2_inv(h[1], p, n), p, n)
            roots.append((-ra % p, -rb % p))
            continue
        # Cantor-Zassenhaus: gcd(h, (x + r)^((p^2 - 1)/2) - 1) keeps the
        # roots x with x + r a nonzero square, a proper factor about half
        # the time; a factor that never splits means h was not squarefree
        for _ in range(SPLIT_PROBES):
            r = rng.randrange(p), rng.randrange(p)
            probe = _poly_powmod([r, (1, 0)], (p * p - 1) // 2, h, p, n)
            probe = probe + [(0, 0)] * max(0, 1 - len(probe))
            probe[0] = (probe[0][0] - 1) % p, probe[0][1]
            d = _poly_gcd(_poly_trim(probe), h, p, n)
            if 0 < len(d) - 1 < len(h) - 1:
                stack += [d, _poly_divmod(h, d, p, n)[0]]
                break
        else:
            raise ArithmeticError(f"no split of a degree-{len(h) - 1} factor in {SPLIT_PROBES} probes")
    return roots
