"""Class numbers, small Hilbert class polynomials, and the singular-moduli
p-adic valuation formula.

Class numbers come from enumerating reduced primitive binary quadratic
forms.  Hilbert class polynomials are built analytically: one j-value per
reduced form via the q-expansion, multiplied out at high working precision
and rounded to exact integers (rounding failures raise, never pass
silently).  The valuation formula is evaluated by trial-division
factorization of the quadratic-form values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath

from . import intpoly
from .fields import factorize
from .limits import (
    CLASS_NUMBER_BOUND,
    HILBERT_CLASS_BOUND,
    HILBERT_D_BOUND,
    LimitError,
)

Q_SERIES_TERMS = 40


class PrecisionError(ArithmeticError):
    """A class-polynomial coefficient refused to round to an integer."""


def _check_discriminant(D: int) -> None:
    if D <= 0 or (-D) % 4 not in (0, 1):
        raise ValueError(f"-{D} is not a negative quadratic discriminant")


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """All reduced primitive forms (a, b, c) with b^2 - 4ac = -D."""
    _check_discriminant(D)
    if D > CLASS_NUMBER_BOUND:
        raise LimitError(f"D={D} above enumeration bound {CLASS_NUMBER_BOUND}")
    forms = []
    b = D % 2
    while 3 * b * b <= D:
        m = (b * b + D) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if math.gcd(math.gcd(a, b), c) == 1:
                    forms.append((a, b, c))
                    if 0 < b < a < c:
                        forms.append((a, -b, c))
            a += 1
        b += 2
    return sorted(forms, key=lambda f: (f[0], abs(f[1]), -f[1]))


@lru_cache(maxsize=4096)
def class_number(D: int) -> int:
    """h(-D): the number of reduced primitive forms of discriminant -D."""
    return len(reduced_forms(D))


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for arbitrary integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def dirichlet_crosscheck(D: int, terms: int) -> float:
    """sqrt(D)/pi times the partial sum of L(1, chi_{-D}); approximates h(-D)."""
    _check_discriminant(D)
    if terms < 10**3:
        raise ValueError("need at least 10^3 terms")
    total = 0.0
    for n in range(1, terms + 1):
        chi = kronecker(-D, n)
        if chi:
            total += chi / n
    return math.sqrt(D) / math.pi * total


def dirichlet_tail_bound(D: int, terms: int) -> float:
    """Polya/Abel tail bound for the crosscheck, in class-number units."""
    return 3.0 * D * math.log(D) / (math.pi * terms)


# ---------------------------------------------------------------------------
# j-function q-expansion, exact integer coefficients


@lru_cache(maxsize=1)
def j_q_coefficients() -> tuple[int, ...]:
    """Coefficients of q*j(q) = 1 + 744q + 196884q^2 + ..., exactly, to Q_SERIES_TERMS.

    Built from E4^3 / (Delta/q); both factors have integer q-expansions and
    the division is exact because Delta/q has leading coefficient 1.
    """
    terms = Q_SERIES_TERMS
    sigma3 = [0] * terms
    for d in range(1, terms):
        for n in range(d, terms, d):
            sigma3[n] += d * d * d
    e4 = [1] + [240 * sigma3[n] for n in range(1, terms)]
    # prod (1 - q^n) by the pentagonal number theorem, then ^24
    eta = [0] * terms
    eta[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 < terms:
        sgn = -1 if k % 2 else 1
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        eta[g1] += sgn
        if g2 < terms:
            eta[g2] += sgn
        k += 1
    delta_over_q = _poly_pow_trunc(eta, 24, terms)
    inv = [0] * terms
    inv[0] = 1
    for n in range(1, terms):
        inv[n] = -sum(delta_over_q[i] * inv[n - i] for i in range(1, n + 1))
    e4cubed = _poly_pow_trunc(e4, 3, terms)
    out = [0] * terms
    for i, a in enumerate(e4cubed):
        for j in range(terms - i):
            out[i + j] += a * inv[j]
    return tuple(out)


def _poly_pow_trunc(f: list[int], e: int, terms: int) -> list[int]:
    out = [0] * terms
    out[0] = 1
    base = list(f[:terms]) + [0] * max(0, terms - len(f))
    while e:
        if e & 1:
            out = _mul_trunc(out, base, terms)
        base = _mul_trunc(base, base, terms)
        e >>= 1
    return out


def _mul_trunc(f: list[int], g: list[int], terms: int) -> list[int]:
    out = [0] * terms
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j in range(min(len(g), terms - i)):
            out[i + j] += a * g[j]
    return out


@dataclass(frozen=True)
class HilbertPoly:
    """Monic integer polynomial of degree h(-D); coefficients ascending."""

    D: int
    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def mod(self, p: int) -> list[int]:
        return intpoly.reduce_mod(list(self.coefficients), p)


def working_digits(D: int, h: int) -> int:
    return 15 + h * int(math.pi * math.sqrt(D) / math.log(10) + 10)


@lru_cache(maxsize=256)
def hilbert_poly(D: int) -> HilbertPoly:
    """The Hilbert class polynomial P_D(X), exact integer coefficients."""
    _check_discriminant(D)
    if D > HILBERT_D_BOUND:
        raise LimitError(f"D={D} above analytic bound {HILBERT_D_BOUND}")
    forms = reduced_forms(D)
    h = len(forms)
    if h > HILBERT_CLASS_BOUND:
        raise LimitError(f"h(-{D})={h} too large for the analytic route")
    digits = working_digits(D, h)
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
    return HilbertPoly(D, tuple(coeffs))


# ---------------------------------------------------------------------------
# Gross-Zagier valuation


def _is_fundamental(D: int) -> bool:
    """True iff -D is a fundamental discriminant."""
    if (-D) % 4 == 1:
        return _squarefree(D)
    if (-D) % 4 == 0:
        q = D // 4
        return q % 4 in (1, 2) and _squarefree(q)
    return False


def _squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(n).values())


def _ordp_f(m: int, D1: int, D2: int, p: int) -> int:
    """ord_p F(m) per the multiplicative rule; 0 when m has the wrong shape."""

    def eps(ell: int) -> int:
        if D1 % ell:
            return kronecker(-D1, ell)
        return kronecker(-D2, ell)

    factors = factorize(m)
    e_p = factors.pop(p, 0)
    if e_p % 2 == 0 or eps(p) != -1:
        return 0
    value = (e_p - 1) // 2 + 1  # (a + 1) with m containing p^(2a+1)
    for ell, e in factors.items():
        s = eps(ell)
        if s == 1:
            value *= e + 1
        elif s == -1:
            if e % 2:
                return 0
        else:  # ell divides both discriminants; excluded by coprimality
            raise ArithmeticError("epsilon undefined")
    return value


def gross_zagier_ordp(D1: int, D2: int, p: int) -> int:
    """ord_p of J(-D1, -D2)^2 via the explicit quadratic-form sum.

    Requires -D1, -D2 fundamental and coprime; x runs over all integers
    with x^2 < D1 D2 and x^2 = D1 D2 mod 4.
    """
    for D in (D1, D2):
        _check_discriminant(D)
        if not _is_fundamental(D):
            raise ValueError(f"-{D} is not fundamental")
    if math.gcd(D1, D2) != 1:
        raise ValueError("discriminants must be coprime")
    prod = D1 * D2
    total = 0
    x = 0
    while x * x < prod:
        if (prod - x * x) % 4 == 0:
            term = _ordp_f((prod - x * x) // 4, D1, D2, p)
            total += term if x == 0 else 2 * term
        x += 1
    return total
