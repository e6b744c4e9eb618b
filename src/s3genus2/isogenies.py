"""Explicit degree-3 isogenies between the paired Legendre curves.

The map psi^eps sends E_{L^eps} to E_{L^-eps}.  Its tabulated closed form
is s = s_num(x, y)/q(x)^2, t = y t_num(x)/q(x)^3, q(x) = 3x^2 - 2(lam+1)x
- (lam-1)^2 = 3(x - x0)(x - x0'), with x0 the kernel abscissa and x0' that
of the other sign (tables below, transcribed for eps = -1 and flipped to
eps = +1 by negating the square root).  As Velu's formulas predict for the
kernel {O, (x0, +-y0)}, the numerators carry (x - x0')^2 and (x - x0')^3;
each map divides them out once, exactly, which certifies the tables.  An
image point then costs three Horner passes and one inversion, of 3(x - x0).

`compose_is_minus3` compares x-maps, s^+(s^-(x)) against x([3]), as
projective pairs in curves' inline int loop with no inversion, and reads
the sign off the invariant differential: no point law, no square root.  The
chord-tangent law, the four-map composition (shift, degree-3 quotient,
rescale, shift back) and the affine x-maps are the test suite's oracles.
The level-2 and level-3 modular polynomials ship as an integer coefficient
table; the resultant identity reads Phi_3, and the test suite checks the
identities that no command reports.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from . import intpoly
from .classno import hilbert_poly
from .curves import LegendreCurve, _poly_divmod, _poly_mul, composite_x_is_triple
from .family import is_admissible, lambda_eps, lambda_pair
from .fields import fp2_horner, fp2_inv, fp2_mul, smallest_nonresidue

# Closed-form numerator tables for psi^- (source curve E_{L^-}).
# Keys are (x-power, y-power); values are coefficient polynomials in lambda,
# ascending degree, as (sqrt-part, rational-part): coeff = rat + sqrt * sqrt(delta).
# The denominators are q^2 and q^3, q = 3x^2 - 2(lam+1)x - (lam-1)^2, so the
# numerator of s carries a factor 9 and that of t a factor 27.
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
T_NUM = {  # x-power -> coefficient of x^k * y
    6: ((-14, 32, -32), (13, -42, 48, -32)),
    5: ((28, -36, 0, 64), (-26, 58, -12, -32, 64)),
    4: ((-2, -56, 146, -160), (7, 44, -189, 226, -160)),
    3: ((-24, 72, -72, -40, 160, -64), (4, -60, 108, -4, -144, 192, -64)),
    2: ((14, 0, -84, 176, -138, 0, 32), (11, -34, 114, -232, 251, -126, -16, 32)),
    1: ((-4, -4, 24, -8, -52, 76, -32), (-10, 34, -56, 36, 38, -102, 92, -32)),
    0: ((2, -8, 18, -32, 38, -24, 6), (1, 0, -13, 38, -57, 52, -27, 6)),
}


def _eval_lambda_poly(coeffs, lam: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * lam + c) % p
    return acc


def _dense(terms: dict, lam: int, d: tuple[int, int], p: int) -> list[tuple[int, int]]:
    """{x-power: (sq, rat)} as ascending (a, b) pairs of rat(lam) + sq(lam) * d."""
    out = [(0, 0)] * (max(terms) + 1)
    for k, (sq, rat) in terms.items():
        s = _eval_lambda_poly(sq, lam, p)
        out[k] = (_eval_lambda_poly(rat, lam, p) + s * d[0]) % p, s * d[1] % p
    return out


def _check_admissible(lam: int, p: int, sqrt_delta: tuple[int, int]) -> None:
    if not is_admissible(lam, p):
        raise ValueError(f"lambda={lam} is inadmissible mod {p}")
    square = fp2_mul(sqrt_delta, sqrt_delta, p, smallest_nonresidue(p))
    if square != ((lam * lam - lam + 1) % p, 0):
        raise ValueError("sqrt_delta does not square to lambda^2 - lambda + 1")


class IsogenyMap:
    """psi^eps : E_{L^eps(lam)} -> E_{L^-eps(lam)}, degree 3, on int-pair points.

    The tables are written for eps = -1 and the sign of sqrt(delta) is
    flipped for eps = +1.  The constructor reduces them at (lam, d = -eps
    sqrt(delta)) to ascending lists of (a, b) int pairs: q, the numerator
    of s with its y^2 part replaced by x(x - 1)(x - L) through the source
    curve, and the numerator of t over y.  It then divides q by
    (x - x0'), the numerator of s by (x - x0')^2 and that of t by
    (x - x0')^3, x0' = (lam+1-2 eps sqrt(delta))/3; a nonzero remainder
    is a bad transcription and raises ArithmeticError.  Left are
    Q = 3(x - x0), x0 = kernel_x = (lam+1+2 eps sqrt(delta))/3, and the
    cubics S and T: s = S(x)/Q(x)^2 and t = y T(x)/Q(x)^3 at every point
    but the kernel.
    """

    def __init__(self, lam: int, eps: int, sqrt_delta: tuple[int, int], p: int):
        lam %= p
        _check_admissible(lam, p, sqrt_delta)
        if eps not in (-1, 1):
            raise ValueError("eps must be -1 or +1")
        self.lam = lam
        self.eps = eps
        self.p = p
        self.n = n = smallest_nonresidue(p)
        self.sqrt_delta = sqrt_delta
        self.source_lambda = lambda_eps(lam, sqrt_delta, eps, p)
        self.target_lambda = lambda_eps(lam, sqrt_delta, -eps, p)
        third = pow(3, -1, p)
        self.kernel_x = ((lam + 1 + 2 * eps * sqrt_delta[0]) * third % p,
                         2 * eps * sqrt_delta[1] * third % p)
        self.source = LegendreCurve(self.source_lambda, p)
        self.target = LegendreCurve(self.target_lambda, p)
        # the tables encode psi^-; write d for the sign actually substituted
        d = sqrt_delta if eps == -1 else (-sqrt_delta[0] % p, -sqrt_delta[1] % p)
        q = [(-(lam - 1) ** 2 % p, 0), (-2 * (lam + 1) % p, 0), (3, 0)]
        # s_num = s_num0 + s_num2 y^2, with y^2 = x(x - 1)(x - L) on the source
        s_num = _dense({xp: c for (xp, yp), c in S_NUM.items() if yp == 0}, lam, d, p)
        s_num2 = _dense({xp: c for (xp, yp), c in S_NUM.items() if yp == 2}, lam, d, p)
        src = self.source
        for i, u in enumerate(s_num2):
            for j, v in enumerate((src.a6, src.a4, src.a2, (1, 0))):
                wa, wb = fp2_mul(u, v, p, n)
                s_num[i + j] = (s_num[i + j][0] + wa) % p, (s_num[i + j][1] + wb) % p
        # divide (x - x0')^k out of q, s_num and t_num, k = 1, 2, 3;
        # x0' = 2(lam+1)/3 - x0
        linear = [((self.kernel_x[0] - 2 * (lam + 1) * third) % p, self.kernel_x[1]), (1, 0)]
        power, reduced = [(1, 0)], []
        for f in (q, s_num, _dense(T_NUM, lam, d, p)):
            power = _poly_mul(power, linear, p, n)
            quot, rem = _poly_divmod(f, power, p, n)
            if rem:
                raise ArithmeticError("a closed-form table lacks its factor of x - x0'")
            reduced.append(quot)
        self._Q, self._S, self._T = reduced

    def multiplier(self):
        """c with psi^*(dx/y) = c dx/y, or None if no constant c exists.

        ds/t = (S'Q - 2SQ')/T dx/y; with Q = q0 + q1 x the numerator's
        x^k coefficient is (k+1) S_{k+1} q0 + (k-2) S_k q1, and each must be
        c T_k for one c (Silverman, AEC, III.5).
        """
        p, n = self.p, self.n
        S, T, (q0, q1) = self._S + [(0, 0)], self._T, self._Q
        if len(S) != 5 or len(T) != 4 or T[3] == (0, 0):
            return None
        num = []
        for k in range(4):
            u, v = fp2_mul(S[k + 1], q0, p, n), fp2_mul(S[k], q1, p, n)
            num.append(tuple(((k + 1) * a + (k - 2) * b) % p for a, b in zip(u, v)))
        c = fp2_mul(num[3], fp2_inv(T[3], p, n), p, n)
        return c if all(fp2_mul(c, t, p, n) == u for t, u in zip(T, num)) else None

    def image(self, P):
        """psi(P) for an int-pair point, checked on the source and the target."""
        if not self.source.contains(P):
            raise ValueError("point not on the source curve")
        if P is None or P[0] == self.kernel_x:
            return None
        p, n = self.p, self.n
        x, y = P
        r = fp2_inv(fp2_horner(self._Q, x, p, n), p, n)
        r2 = fp2_mul(r, r, p, n)
        s = fp2_mul(fp2_horner(self._S, x, p, n), r2, p, n)
        ty = fp2_mul(fp2_horner(self._T, x, p, n), y, p, n)
        img = s, fp2_mul(ty, fp2_mul(r2, r, p, n), p, n)
        if not self.target.contains(img):
            raise ArithmeticError("isogeny image left the target curve")
        return img


@lru_cache(maxsize=1)
def isogeny_pair(lam: int, p: int) -> tuple[IsogenyMap, IsogenyMap]:
    """(psi^-, psi^+) at (lam, p), built once for the anchors and the trials."""
    sqrt_delta = lambda_pair(lam, p)[1]
    return IsogenyMap(lam, -1, sqrt_delta, p), IsogenyMap(lam, +1, sqrt_delta, p)


def _x_map_form(m: IsogenyMap, p: int, n: int):
    """(r, c) with s(x) = c(x)/(x - r)^2: Q = q1 (x - r) and c = S/q1^2.

    None if S is not a cubic prime to Q, so that m is not of degree 3.
    """
    (q0, q1), S = m._Q, m._S
    r = fp2_mul(q0, fp2_inv(q1, p, n), p, n)
    r = -r[0] % p, -r[1] % p
    if len(S) != 4 or fp2_horner(S, r, p, n) == (0, 0):
        return None
    k = fp2_inv(fp2_mul(q1, q1, p, n), p, n)
    return r, [fp2_mul(c, k, p, n) for c in S]


def compose_is_minus3(lam: int, p: int, trials: int = 50, seed: int = 0) -> bool:
    """Check psi^+ o psi^- = [-3] = psi^- o psi^+ on x-coordinates.

    An endomorphism is fixed up to sign by its x-map (Silverman, AEC, III.5
    and Ex. 3.7).  The sign: the composite pulls dx/y back to c^+ c^- dx/y,
    which must be -3 (+[3] gives 3).  The x-map: each trial draws one x in
    F_{p^2} per direction, psi^- first, and compares s^+(s^-(x)), then
    s^-(s^+(x)), with x([3]) as projective pairs, infinity included, in
    `curves.composite_x_is_triple`'s inline loop: 48 F_{p^2} products a
    trial and no inversion.
    """
    psi_minus, psi_plus = isogeny_pair(lam, p)
    n = psi_minus.n
    c_minus, c_plus = psi_minus.multiplier(), psi_plus.multiplier()
    if c_minus is None or c_plus is None or fp2_mul(c_minus, c_plus, p, n) != (p - 3, 0):
        return False
    minus, plus = _x_map_form(psi_minus, p, n), _x_map_form(psi_plus, p, n)
    if minus is None or plus is None:
        return False
    directions = (psi_minus.source_lambda, minus, plus), (psi_plus.source_lambda, plus, minus)
    return composite_x_is_triple(directions, p, n, trials, seed)


def verify_transcription(lam: int, p: int) -> None:
    """The closed form must reproduce the anchor values.

    s(0,0) = 0 and s(1,0) = 1 (the 2-torsion points (0,0) and (1,0) are
    fixed), and the 2-torsion point (L^eps, 0) maps to (L^-eps, 0).
    """
    for m in isogeny_pair(lam, p):
        for T in (((0, 0), (0, 0)), ((1, 0), (0, 0))):
            if m.image(T) != T:
                raise AssertionError("2-torsion anchors failed")
        if m.image((m.source_lambda, (0, 0))) != (m.target_lambda, (0, 0)):
            raise AssertionError("(Lambda^eps, 0) -> (Lambda^-eps, 0) failed")


# ---------------------------------------------------------------------------
# the modular polynomials and the resultant identity


@lru_cache(maxsize=None)
def phi_coefficients(level: int) -> dict[tuple[int, int], int]:
    """Full coefficient table {(i, j): c} of Phi_level(X, Y) = sum c X^i Y^j.

    The data file lists each unordered pair once, with i >= j; the mirror
    (j, i) is added here, so callers sum over the table as it stands.
    """
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
            table[(int(i), int(j))] = table[(int(j), int(i))] = int(c)
    return table


def _phi3_bivariate() -> tuple[list[list[int]], list[list[int]]]:
    """Phi_3 and dPhi_3/dX as elements of Z[Y][X] (ascending in X)."""
    table = phi_coefficients(3)
    deg = max(i for i, _ in table)
    F: list[list[int]] = [[0] * (deg + 1) for _ in range(deg + 1)]
    for (i, j), c in table.items():
        F[i][j] = c
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
