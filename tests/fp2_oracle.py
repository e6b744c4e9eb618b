"""Test-side oracles: F_{p^2} objects, the object group law, the composed
3-isogeny, the affine x-maps, naive point counts.

`F` is a minimal F_{p^2} operator class with its own product formula, so
the int-pair functions of `s3genus2.fields` are checked against code that
does not call them.  Points are (x, y) tuples of `F`, None for infinity.
On top of that sit the chord-tangent group law with its sampler, the
oracle of `isogenies.compose_is_minus3` (the package checks x-maps and
has no point law), the four-map composition route of psi^eps (shift to
the normal form, descend by 3, rescale, shift back), the oracle of
`IsogenyMap.image`, and the affine x-maps s = S/Q^2 of an IsogenyMap and
x([3]) = num/den from the division polynomials, the oracle of the
projective trial loop of `compose_is_minus3`.  The naive point counts
over F_p and F_{p^2} are the oracle of the Deuring-polynomial test, and
the per-curve j-invariant on int pairs that of `family.legendre_j`.
"""

from dataclasses import dataclass

import numpy as np

from s3genus2.curves import _poly_mul, _sqrt_table
from s3genus2.family import is_admissible
from s3genus2.fields import fp2_horner, fp2_inv, fp2_mul, fp2_sqrt, smallest_nonresidue
from s3genus2.limits import LimitError


class F:
    """a + b*w in F_p[w]/(w^2 - n), n the smallest non-residue mod p."""

    __slots__ = ("a", "b", "p", "n")

    def __init__(self, a: int, b: int, p: int):
        self.a, self.b, self.p = a % p, b % p, p
        self.n = smallest_nonresidue(p)

    def _lift(self, other) -> "F":
        return other if isinstance(other, F) else F(other, 0, self.p)

    def __add__(self, other):
        o = self._lift(other)
        return F(self.a + o.a, self.b + o.b, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return F(self.a - o.a, self.b - o.b, self.p)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __neg__(self):
        return F(-self.a, -self.b, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        return F(self.a * o.a + self.n * self.b * o.b, self.a * o.b + self.b * o.a, self.p)

    __rmul__ = __mul__

    def inverse(self) -> "F":
        norm = (self.a * self.a - self.n * self.b * self.b) % self.p
        if norm == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}^2")
        k = pow(norm, self.p - 2, self.p)
        return F(self.a * k, -self.b * k, self.p)

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __pow__(self, k: int):
        out, base = F(1, 0, self.p), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_square(self) -> bool:
        """Euler's criterion in the multiplicative group of order p^2 - 1."""
        return self.is_zero() or self ** ((self.p * self.p - 1) // 2) == 1

    @property
    def pair(self) -> tuple[int, int]:
        return self.a, self.b

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._lift(other)
        return isinstance(other, F) and (self.a, self.b, self.p) == (other.a, other.b, other.p)

    def __repr__(self):
        return f"F({self.a}, {self.b}, p={self.p})"


def lift(u, p: int) -> F:
    return F(u[0], u[1], p)


def sqrt(u: F) -> F | None:
    root = fp2_sqrt(u.pair, u.p, u.n)
    return None if root is None else lift(root, u.p)


def to_pairs(P):
    return None if P is None else (P[0].pair, P[1].pair)


def to_obj(P, p: int):
    return None if P is None else (lift(P[0], p), lift(P[1], p))


# ---------------------------------------------------------------------------
# the chord-tangent group law of a CubicCurve, on F points


def rhs(c, x: F) -> F:
    return ((x + lift(c.a2, c.p)) * x + lift(c.a4, c.p)) * x + lift(c.a6, c.p)


def neg(P):
    return None if P is None else (P[0], -P[1])


def add(c, P, Q):
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    a2 = lift(c.a2, c.p)
    if x1 == x2:
        if y1 == -y2:
            return None
        slope = ((3 * x1 + 2 * a2) * x1 + lift(c.a4, c.p)) / (2 * y1)
    else:
        slope = (y2 - y1) / (x2 - x1)
    x3 = slope * slope - a2 - x1 - x2
    return x3, slope * (x1 - x3) - y1


def scalar_mul(c, k: int, P):
    if k < 0:
        return scalar_mul(c, -k, neg(P))
    acc, addend = None, P
    while k:
        if k & 1:
            acc = add(c, acc, addend)
        addend = add(c, addend, addend)
        k >>= 1
    return acc


def random_point(c, rng):
    """Random x until the cubic value is a square; then a random sign of y."""
    p = c.p
    while True:
        x = F(rng.randrange(p), rng.randrange(p), p)
        y = sqrt(rhs(c, x))
        if y is not None:
            return x, (y if rng.randrange(2) else -y)


# ---------------------------------------------------------------------------
# the composition route of psi^eps


@dataclass(frozen=True)
class NormalFormParams:
    """The translated model Y^2 = X^3 + A (X - B)^2 of E_{L^eps}."""

    lam: int
    eps: int
    sqrt_delta: F
    A: F
    B: F

    def second_form_shift(self) -> F:
        """c with the rescaled model Y^2 = X^3 + (X + c)^2.

        c = 2/27 - eps (lam+1)(lam-2)(2 lam-1) sqrt(delta) / (27 delta^2).
        """
        lam = F(self.lam, 0, self.sqrt_delta.p)
        delta = lam * lam - lam + 1
        num = (lam + 1) * (lam - 2) * (2 * lam - 1) * self.sqrt_delta
        return (2 - self.eps * num / (delta * delta)) / 27


def normal_form(lam: int, eps: int, sqrt_delta: F) -> NormalFormParams:
    """A and B of the normal form:

    A = (lam^2-lam+1)(2 lam - 1 + 2 eps sqrt(delta)),
    B = -(2 (lam^2-lam+1)(2 lam-1) + eps (5 lam^2-5 lam+2) sqrt(delta))
        / (9 (lam^2-lam+1)).
    """
    p = sqrt_delta.p
    lam_e = F(lam, 0, p)
    delta = lam_e * lam_e - lam_e + 1
    if not is_admissible(lam, p) or sqrt_delta * sqrt_delta != delta:
        raise ValueError(f"lambda={lam} is inadmissible or sqrt_delta is wrong")
    A = delta * (2 * lam_e - 1 + 2 * eps * sqrt_delta)
    B = -(2 * delta * (2 * lam_e - 1)
          + eps * (5 * lam_e * lam_e - 5 * lam_e + 2) * sqrt_delta) / (9 * delta)
    assert not A.is_zero()
    return NormalFormParams(lam % p, eps, sqrt_delta, A, B)


def descend_by_3(a: F, b: F, P):
    """Quotient of E: y^2 = x^3 + a(x-b)^2 by the order-3 subgroup at x = 0.

    Image lies on nu^2 = xi^3 - 27a(xi - 4a - 27b)^2; the kernel
    {O, (0, +-b sqrt(a))} goes to infinity.
    """
    if P is None:
        return None
    x, y = P
    if y * y != x**3 + a * (x - b) ** 2:
        raise ValueError("point not on y^2 = x^3 + a(x-b)^2")
    if x.is_zero():
        return None
    xi = 3 * (6 * y * y + 6 * a * b * b - 3 * x**3 - 2 * a * x * x) / (x * x)
    nu = 27 * y * (-4 * a * b * x + 8 * a * b * b - x**3) / (x**3)
    return xi, nu


def descend_by_3_pure_cube(d: F, P):
    """Same for E: y^2 = x^3 + d with kernel {O, (0, +-sqrt(d))}.

    Image lies on nu^2 = xi^3 - 27 d.
    """
    if P is None:
        return None
    x, y = P
    if y * y != x**3 + d:
        raise ValueError("point not on y^2 = x^3 + d")
    if x.is_zero():
        return None
    return (y * y + 3 * d) / (x * x), y * (x**3 - 8 * d) / (x**3)


def eval_composed(m, P):
    """psi(P) for the int-pair point P of an IsogenyMap m, by composition:
    shift the kernel abscissa to 0, descend by 3, rescale, shift back."""
    lam, eps, p = m.lam, m.eps, m.p
    s = lift(m.sqrt_delta, p)
    kernel_x = (lam + 1 + 2 * eps * s) / 3
    if P is None or lift(P[0], p) == kernel_x:
        return None
    nf = normal_form(lam, eps, s)
    x, y = to_obj(P, p)
    xi, nu = descend_by_3(nf.A, nf.B, (x - kernel_x, y))
    r = (2 * lam - 2 * eps * s - 1) / 9
    return to_pairs((r * r * xi + (lam + 1 - 2 * eps * s) / 3, r**3 * nu))


# ---------------------------------------------------------------------------
# affine x-maps: psi^eps and [3], on (a, b) int pairs


def x_map(m, x):
    """s(x) = S(x)/Q(x)^2 of an IsogenyMap m for x in F_{p^2}; None
    (infinity) at the kernel abscissa and at None."""
    if x is None or x == m.kernel_x:
        return None
    p, n = m.p, m.n
    r = fp2_inv(fp2_horner(m._Q, x, p, n), p, n)
    return fp2_mul(fp2_horner(m._S, x, p, n), fp2_mul(r, r, p, n), p, n)


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
    lam = lam[0] % p, lam[1] % p
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


def affine_check(first, second):
    """The affine check of one trial direction as a predicate of x:
    s2(s1(x)) den(x) = num(x), with infinity on the left meeting den(x) = 0."""
    p, n = first.p, first.n
    num, den = triple_x_coefficients(first.source_lambda, p)

    def holds(x) -> bool:
        s = x_map(second, x_map(first, x))
        d = fp2_horner(den, x, p, n)
        return d == (0, 0) if s is None else fp2_mul(s, d, p, n) == fp2_horner(num, x, p, n)

    return holds


# ---------------------------------------------------------------------------
# the j-invariant and point counting by exhaustive enumeration, on a
# curves.LegendreCurve

# the largest p the naive counts enumerate, over F_p and over F_{p^2}
POINT_COUNT_BOUND_DEG1 = 2_000_000
POINT_COUNT_BOUND_DEG2 = 2_000


def j_invariant(c) -> tuple[int, int]:
    """j(E_t) = 2^8 (t^2 - t + 1)^3 / (t^2 (t - 1)^2)."""
    p, n, (ta, tb) = c.p, c.n, c.t
    sa, sb = fp2_mul(c.t, c.t, p, n)
    d = (sa - ta, sb - tb)
    u = (d[0] + 1, d[1])
    num = fp2_mul(fp2_mul(u, u, p, n), u, p, n)
    ja, jb = fp2_mul(num, fp2_inv(fp2_mul(d, d, p, n), p, n), p, n)
    return 256 * ja % p, 256 * jb % p


def count_points(c, extension_degree: int = 1) -> int:
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


def count_points_weil(c) -> int:
    """#E(F_{p^2}) from the degree-1 count: (p+1)^2 - a^2, a = p+1-#E(F_p)."""
    p = c.p
    a = p + 1 - count_points(c, 1)
    return (p + 1) ** 2 - a * a
