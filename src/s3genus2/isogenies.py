"""Explicit degree-3 isogenies between the paired Legendre curves.

The map psi^eps sends E_{L^eps} to E_{L^-eps}.  It is evaluated through the
closed-form rational functions s(x, y), t(x, y) (coefficient
tables below, transcribed for eps = -1 and flipped to eps = +1 by negating
the square root).  Their coefficients depend only on (lam, eps), so each
map reduces them once to dense lists of (a, b) int pairs over F_{p^2};
a point then costs a few Horner passes on the int pair of its abscissa and
two divisions.  The equivalent four-map composition (shift, degree-3
quotient, rescale, shift back) is kept alongside as an independent
evaluation route.  The level-2 and level-3 modular polynomials ship as an
integer coefficient table and are re-validated by exact identities in the
test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from . import intpoly
from .classno import hilbert_poly
from .curves import INFINITY, CubicCurve, CurvePoint, LegendreCurve
from .fields import FieldElement, QuadExtElement, sqrt_in_fp2

# Closed-form coefficient tables for psi^- (source curve E_{L^-}).
# Keys are (x-power, y-power); values are coefficient polynomials in lambda,
# ascending degree, as (sqrt-part, rational-part): coeff = rat + sqrt * sqrt(delta).
# Numerator and denominator of s are both scaled by 9, those of t by 27.
S_NUM = {
    (5, 0): ((4, -8), (-5, 8, -8)),
    (4, 0): ((0, 8, 12), (12, -4, 2, 12)),
    (3, 0): ((-8, 0, -24), (-6, -20, 18, -24)),
    (2, 2): ((-8, 16), (10, -16, 16)),
    (2, 0): ((0, 8, 4, 8, -4), (-4, 20, -10, 4, 10, -4)),
    (1, 2): ((-8, 16, -32), (4, -28, 32, -32)),
    (1, 0): ((4, -8, 8, -8, 4), (3, -4, -2, 8, -9, 4)),
    (0, 2): ((0, 8, -8, 16), (2, -4, 18, -16, 16)),
}
S_DEN = (  # ascending x-powers, rational coefficients only
    (1, -4, 6, -4, 1),
    (4, -4, -4, 4),
    (-2, 20, -2),
    (-12, -12),
    (9,),
)
T_NUM = {  # x-power -> coefficient of x^k * y
    6: ((-14, 32, -32), (13, -42, 48, -32)),
    5: ((28, -36, 0, 64), (-26, 58, -12, -32, 64)),
    4: ((-2, -56, 146, -160), (7, 44, -189, 226, -160)),
    3: ((-24, 72, -72, -40, 160, -64), (4, -60, 108, -4, -144, 192, -64)),
    2: ((14, 0, -84, 176, -138, 0, 32), (11, -34, 114, -232, 251, -126, -16, 32)),
    1: ((-4, -4, 24, -8, -52, 76, -32), (-10, 34, -56, 36, 38, -102, 92, -32)),
    0: ((2, -8, 18, -32, 38, -24, 6), (1, 0, -13, 38, -57, 52, -27, 6)),
}
T_DEN = (
    (-1, 6, -15, 20, -15, 6, -1),
    (-6, 18, -12, -12, 18, -6),
    (-3, -36, 78, -36, -3),
    (28, -60, -60, 28),
    (9, 126, 9),
    (-54, -54),
    (27,),
)


def _eval_lambda_poly(coeffs, lam: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * lam + c) % p
    return acc


def _dense(terms: dict, lam: int, d: QuadExtElement) -> list[tuple[int, int]]:
    """{x-power: (sq, rat)} as ascending (a, b) pairs of rat(lam) + sq(lam) * d."""
    p = d.p
    out = [(0, 0)] * (max(terms) + 1)
    for k, (sq, rat) in terms.items():
        s = _eval_lambda_poly(sq, lam, p)
        out[k] = (_eval_lambda_poly(rat, lam, p) + s * d.a) % p, s * d.b % p
    return out


def _horner(coeffs, xa: int, xb: int, p: int, n: int) -> tuple[int, int]:
    """sum c_k x^k at x = xa + xb*w (w^2 = n) for ascending (a, b) pairs c_k."""
    ra, rb = coeffs[-1]
    for ca, cb in reversed(coeffs[:-1]):
        ra, rb = (ra * xa + rb * xb % p * n + ca) % p, (ra * xb + rb * xa + cb) % p
    return ra, rb


def _mul(u: tuple[int, int], v: tuple[int, int], p: int, n: int) -> tuple[int, int]:
    return (u[0] * v[0] + u[1] * v[1] % p * n) % p, (u[0] * v[1] + u[1] * v[0]) % p


def lambda_params(lam: int, eps: int, sqrt_delta: QuadExtElement):
    """(Lambda^eps, Lambda^-eps) = (1-lam)(lam +- eps*sqrt(delta))^2."""
    p = sqrt_delta.p
    lam_e = QuadExtElement(lam, 0, p, sqrt_delta.nonresidue)
    src = (1 - lam_e) * (lam_e + eps * sqrt_delta) ** 2
    dst = (1 - lam_e) * (lam_e - eps * sqrt_delta) ** 2
    return src, dst


def _check_admissible(lam: int, p: int, sqrt_delta: QuadExtElement) -> None:
    lam %= p
    if lam in (0, 1):
        raise ValueError(f"degenerate lambda={lam}")
    delta = (lam * lam - lam + 1) % p
    if delta == 0:
        raise ValueError(f"lambda={lam} has delta = 0 (singular member)")
    if sqrt_delta * sqrt_delta != delta:
        raise ValueError("sqrt_delta does not square to lambda^2 - lambda + 1")


@dataclass(frozen=True)
class NormalFormParams:
    """The translated model Y^2 = X^3 + A (X - B)^2 of E_{L^eps}."""

    lam: int
    eps: int
    sqrt_delta: QuadExtElement
    A: QuadExtElement
    B: QuadExtElement

    def curve(self) -> CubicCurve:
        A, B = self.A, self.B
        return CubicCurve(A, -2 * A * B, A * B * B, self.sqrt_delta.p)

    def second_form_shift(self) -> QuadExtElement:
        """c with the rescaled model Y^2 = X^3 + (X + c)^2.

        c = 2/27 - eps (lam+1)(lam-2)(2 lam-1) sqrt(delta) / (27 delta^2).
        """
        p = self.sqrt_delta.p
        lam = QuadExtElement(self.lam, 0, p, self.sqrt_delta.nonresidue)
        delta = lam * lam - lam + 1
        num = (lam + 1) * (lam - 2) * (2 * lam - 1) * self.sqrt_delta
        return (QuadExtElement(2, 0, p) - self.eps * num / (delta * delta)) / 27


def normal_form(lam: int, eps: int, sqrt_delta: QuadExtElement) -> NormalFormParams:
    """A and B of the normal form:

    A = (lam^2-lam+1)(2 lam - 1 + 2 eps sqrt(delta)),
    B = -(2 (lam^2-lam+1)(2 lam-1) + eps (5 lam^2-5 lam+2) sqrt(delta))
        / (9 (lam^2-lam+1)).
    """
    p = sqrt_delta.p
    lam %= p
    _check_admissible(lam, p, sqrt_delta)
    if eps not in (-1, 1):
        raise ValueError("eps must be -1 or +1")
    lam_e = QuadExtElement(lam, 0, p, sqrt_delta.nonresidue)
    delta = lam_e * lam_e - lam_e + 1
    A = delta * (2 * lam_e - 1 + 2 * eps * sqrt_delta)
    B = -(2 * delta * (2 * lam_e - 1) + eps * (5 * lam_e * lam_e - 5 * lam_e + 2) * sqrt_delta) / (9 * delta)
    if A.is_zero():
        raise ArithmeticError("A vanished; impossible for admissible lambda")
    return NormalFormParams(lam, eps, sqrt_delta, A, B)


def descend_by_3(a: QuadExtElement, b: QuadExtElement, P: CurvePoint) -> CurvePoint:
    """Quotient of E: y^2 = x^3 + a(x-b)^2 by the order-3 subgroup at x = 0.

    Image lies on nu^2 = xi^3 - 27a(xi - 4a - 27b)^2; the kernel
    {O, (0, +-b sqrt(a))} goes to infinity.
    """
    p = a.p
    E = CubicCurve(a, -2 * a * b, a * b * b, p)
    if not E.contains(P):
        raise ValueError("point not on y^2 = x^3 + a(x-b)^2")
    if P.is_infinity or P.x.is_zero():
        return INFINITY
    x, y = P.x, P.y
    xi = 3 * (6 * y * y + 6 * a * b * b - 3 * x**3 - 2 * a * x * x) / (x * x)
    nu = 27 * y * (-4 * a * b * x + 8 * a * b * b - x**3) / (x**3)
    return CurvePoint(xi, nu)


def descend_by_3_pure_cube(d: QuadExtElement, P: CurvePoint) -> CurvePoint:
    """Same for E: y^2 = x^3 + d with kernel {O, (0, +-sqrt(d))}.

    Image lies on nu^2 = xi^3 - 27 d.
    """
    p = d.p
    E = CubicCurve(0, 0, d, p)
    if not E.contains(P):
        raise ValueError("point not on y^2 = x^3 + d")
    if P.is_infinity or P.x.is_zero():
        return INFINITY
    x, y = P.x, P.y
    xi = (y * y + 3 * d) / (x * x)
    nu = y * (x**3 - 8 * d) / (x**3)
    return CurvePoint(xi, nu)


class IsogenyMap:
    """psi^eps : E_{L^eps(lam)} -> E_{L^-eps(lam)}, degree 3.

    Evaluation uses the closed-form s(x, y), t(x, y); the tables are written
    for eps = -1 and the sign of sqrt(delta) is flipped for eps = +1.  The
    constructor reduces them at (lam, d = -eps sqrt(delta)) to ascending
    lists of (a, b) int pairs: the denominators of s and t, the y^0 and y^2
    parts of the numerator of s, and the numerator of t over y.  A point is
    then a few Horner passes on the int pair of its abscissa.  The
    tabulated denominators also vanish at the 3-torsion abscissa of the
    *other* sign, where the singularity is removable; those points fall
    back to the composition route.
    """

    def __init__(self, lam: int, eps: int, sqrt_delta: QuadExtElement):
        p = sqrt_delta.p
        lam %= p
        _check_admissible(lam, p, sqrt_delta)
        if eps not in (-1, 1):
            raise ValueError("eps must be -1 or +1")
        self.lam = lam
        self.eps = eps
        self.p = p
        self.sqrt_delta = sqrt_delta
        # the tables encode psi^-; write d for the sign actually substituted
        d = sqrt_delta if eps == -1 else -sqrt_delta
        self._s_den = [(_eval_lambda_poly(c, lam, p), 0) for c in S_DEN]
        self._t_den = [(_eval_lambda_poly(c, lam, p), 0) for c in T_DEN]
        self._s_num0 = _dense({xp: c for (xp, yp), c in S_NUM.items() if yp == 0}, lam, d)
        self._s_num2 = _dense({xp: c for (xp, yp), c in S_NUM.items() if yp == 2}, lam, d)
        self._t_num = _dense(T_NUM, lam, d)
        self.source_lambda, self.target_lambda = lambda_params(lam, eps, sqrt_delta)
        self.kernel_x = (QuadExtElement(lam + 1, 0, p) + 2 * eps * sqrt_delta) / 3
        self._source = LegendreCurve(self.source_lambda, p)
        self._target = LegendreCurve(self.target_lambda, p)

    def source_curve(self) -> LegendreCurve:
        return self._source

    def target_curve(self) -> LegendreCurve:
        return self._target

    def _closed_form(self, P: CurvePoint) -> CurvePoint | None:
        p, n = self.p, self.sqrt_delta.nonresidue
        xa, xb = P.x.a, P.x.b
        sden = _horner(self._s_den, xa, xb, p, n)
        if sden == (0, 0):
            return None
        tden = _horner(self._t_den, xa, xb, p, n)
        if tden == (0, 0):
            return None
        y = (P.y.a, P.y.b)
        s2 = _mul(_horner(self._s_num2, xa, xb, p, n), _mul(y, y, p, n), p, n)
        s0 = _horner(self._s_num0, xa, xb, p, n)
        ty = _mul(_horner(self._t_num, xa, xb, p, n), y, p, n)
        s = QuadExtElement(s0[0] + s2[0], s0[1] + s2[1], p, n) / QuadExtElement(*sden, p, n)
        t = QuadExtElement(*ty, p, n) / QuadExtElement(*tden, p, n)
        return CurvePoint(s, t)

    def eval_composed(self, P: CurvePoint) -> CurvePoint:
        """Shift to the normal form, descend by 3, rescale, shift back."""
        if P.is_infinity or P.x == self.kernel_x:
            return INFINITY
        p, lam, eps = self.p, self.lam, self.eps
        nf = normal_form(lam, eps, self.sqrt_delta)
        X = P.x - self.kernel_x
        Q = descend_by_3(nf.A, nf.B, CurvePoint(X, P.y))
        r = (2 * QuadExtElement(lam, 0, p) - 2 * eps * self.sqrt_delta - 1) / 9
        v = r * r * Q.x
        w = r * r * r * Q.y
        shift_back = (QuadExtElement(lam + 1, 0, p) - 2 * eps * self.sqrt_delta) / 3
        return CurvePoint(v + shift_back, w)

    def __call__(self, P: CurvePoint) -> CurvePoint:
        if not self._source.contains(P):
            raise ValueError("point not on the source curve")
        if P.is_infinity or P.x == self.kernel_x:
            return INFINITY
        img = self._closed_form(P)
        if img is None:  # removable singularity of the tabulated form
            img = self.eval_composed(P)
        if not self._target.contains(img):
            raise ArithmeticError("isogeny image left the target curve")
        return img


def compose_is_minus3(lam: int, p: int, trials: int = 50, seed: int = 0) -> bool:
    """Check psi^+ o psi^- = [-3] = psi^- o psi^+ on random rational points."""
    delta = FieldElement(lam * lam - lam + 1, p)
    sqrt_delta = sqrt_in_fp2(delta)
    psi_minus = IsogenyMap(lam, -1, sqrt_delta)
    psi_plus = IsogenyMap(lam, +1, sqrt_delta)
    e_minus = psi_minus.source_curve()
    e_plus = psi_plus.source_curve()
    rng = random.Random(seed)
    for _ in range(trials):
        P = e_minus.random_point(rng)
        if psi_plus(psi_minus(P)) != e_minus.scalar_mul(-3, P):
            return False
        Q = e_plus.random_point(rng)
        if psi_minus(psi_plus(Q)) != e_plus.scalar_mul(-3, Q):
            return False
    return True


def verify_transcription(lam: int, p: int) -> None:
    """The closed form must reproduce the anchor values.

    s(0,0) = 0 and s(1,0) = 1 (the 2-torsion points (0,0) and (1,0) are
    fixed), and the 2-torsion point (L^eps, 0) maps to (L^-eps, 0).
    """
    delta = FieldElement(lam * lam - lam + 1, p)
    s = sqrt_in_fp2(delta)
    for eps in (-1, 1):
        m = IsogenyMap(lam, eps, s)
        src = m.source_curve()
        zero = src.point(0, 0)
        one = src.point(1, 0)
        if m(zero) != zero or m(one) != one:
            raise AssertionError("2-torsion anchors failed")
        lam_pt = src.point(m.source_lambda, 0)
        img = m(lam_pt)
        if img.x != m.target_lambda or not img.y.is_zero():
            raise AssertionError("(Lambda^eps, 0) -> (Lambda^-eps, 0) failed")


# ---------------------------------------------------------------------------
# modular polynomials of level 2 and 3


@lru_cache(maxsize=None)
def phi_coefficients(level: int) -> dict[tuple[int, int], int]:
    """Unordered-pair coefficient table {(i, j): c} with i >= j."""
    if level not in (2, 3):
        raise ValueError("only levels 2 and 3 ship with the package")
    table: dict[tuple[int, int], int] = {}
    text = resources.files("s3genus2.data").joinpath("modular_polynomials.txt").read_text()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        lvl, i, j, c = line.split()
        if int(lvl) == level:
            table[(int(i), int(j))] = int(c)
    return table


def modular_poly_eval(level: int, x: QuadExtElement, y: QuadExtElement) -> QuadExtElement:
    """Phi_level(x, y) evaluated in F_{p^2}."""
    table = phi_coefficients(level)
    p = x.p
    deg = max(i for i, _ in table)
    xp = [QuadExtElement(1, 0, p)]
    yp = [QuadExtElement(1, 0, p)]
    for _ in range(deg):
        xp.append(xp[-1] * x)
        yp.append(yp[-1] * y)
    acc = QuadExtElement(0, 0, p)
    for (i, j), c in table.items():
        if i == j:
            acc = acc + c * xp[i] * yp[i]
        else:
            acc = acc + c * (xp[i] * yp[j] + xp[j] * yp[i])
    return acc


def phi_substitute_int(level: int, y0: int) -> list[int]:
    """Phi_level(X, y0) as an exact integer polynomial in X (ascending)."""
    table = phi_coefficients(level)
    deg = max(i for i, _ in table)
    out = [0] * (deg + 1)
    for (i, j), c in table.items():
        out[i] += c * y0**j
        if i != j:
            out[j] += c * y0**i
    return intpoly.trim(out)


def phi_diagonal_int(level: int) -> list[int]:
    """Phi_level(X, X) over the integers (ascending)."""
    table = phi_coefficients(level)
    deg = 2 * max(i for i, _ in table)
    out = [0] * (deg + 1)
    for (i, j), c in table.items():
        out[i + j] += c if i == j else 2 * c
    return intpoly.trim(out)


def _phi3_bivariate() -> tuple[list[list[int]], list[list[int]]]:
    """Phi_3 and dPhi_3/dX as elements of Z[Y][X] (ascending in X)."""
    table = phi_coefficients(3)
    deg = max(i for i, _ in table)
    F: list[list[int]] = [[0] * (deg + 1) for _ in range(deg + 1)]
    for (i, j), c in table.items():
        F[i][j] += c
        if i != j:
            F[j][i] += c
    F = [intpoly.trim(row) for row in F]
    dF = [intpoly.scale(F[i], i) for i in range(1, deg + 1)]
    return F, dF


def resultant_factorization_check() -> tuple[bool, int]:
    """Res_X(Phi_3, dPhi_3/dX) against the product of squared class polys.

    Returns (holds, constant): holds means the resultant equals
    constant * (P_3 P_4 P_8 P_11 P_20 P_32 P_35)^2 exactly over the
    integers for some integer constant.  The factored form of the resultant
    carries a content of -27 on top of the squared product; the constant is
    reported so callers can record it.
    """
    F, dF = _phi3_bivariate()
    res = intpoly.resultant_bivariate(F, dF)
    prod = [1]
    for D in (3, 4, 8, 11, 20, 32, 35):
        factor = list(hilbert_poly(D).coefficients)
        prod = intpoly.mul(prod, intpoly.mul(factor, factor))
    if intpoly.degree(res) != intpoly.degree(prod):
        return False, 0
    constant = res[-1] // prod[-1] if prod[-1] else 0
    if constant == 0 or intpoly.scale(prod, constant) != res:
        return False, 0
    return True, constant


def resultant_degree() -> int:
    F, dF = _phi3_bivariate()
    return intpoly.degree(intpoly.resultant_bivariate(F, dF))
