"""Class numbers, small Hilbert class polynomials, and the singular-moduli
p-adic valuation formula.

Class numbers come from enumerating reduced primitive binary quadratic
forms.  Hilbert class polynomials are built analytically: one j-value per
reduced form via the q-expansion, multiplied out in fixed-point arithmetic
on python ints and rounded to exact integers (rounding failures raise,
never pass silently).  The valuation formula is evaluated by trial-division
factorization of the quadratic-form values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


def _forms(D: int) -> list[tuple[int, int, int]]:
    """The reduced primitive forms (a, b, c) with b^2 - 4ac = -D, by b."""
    _check_discriminant(D)
    if D > CLASS_NUMBER_BOUND:
        raise LimitError(f"D={D} above enumeration bound {CLASS_NUMBER_BOUND}")
    forms = []
    for b in range(D % 2, math.isqrt(D // 3) + 1, 2):
        m = (b * b + D) // 4
        for a in range(max(b, 1), math.isqrt(m) + 1):
            if m % a == 0:
                c = m // a
                if math.gcd(a, b, c) == 1:
                    forms.append((a, b, c))
                    if 0 < b < a < c:
                        forms.append((a, -b, c))
    return forms


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """All reduced primitive forms (a, b, c) with b^2 - 4ac = -D, sorted."""
    return sorted(_forms(D), key=lambda f: (f[0], abs(f[1]), -f[1]))


@lru_cache(maxsize=4096)
def class_number(D: int) -> int:
    """h(-D): the number of reduced primitive forms of discriminant -D."""
    return len(_forms(D))


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


# ---------------------------------------------------------------------------
# fixed-point reals: the int x stands for x / 2^bits

GUARD_BITS = 16


def _atan_inv(n: int, work: int) -> int:
    """atan(1/n) at scale 2^work, by its alternating Taylor series."""
    power = (1 << work) // n
    total = 0
    k = 1
    while power:
        total += power // k if k % 4 == 1 else -(power // k)
        power //= n * n
        k += 2
    return total


def _fixed_pi(bits: int) -> int:
    """pi at scale 2^bits by Machin's formula pi/4 = 4 atan(1/5) - atan(1/239)."""
    work = bits + 16
    return (16 * _atan_inv(5, work) - 4 * _atan_inv(239, work)) >> 16


def _taylor_terms(x: int, work: int):
    """x^n / n! at scale 2^work for n = 0, 1, ... while nonzero; x >= 0."""
    term = 1 << work
    n = 0
    while term:
        yield term
        n += 1
        term = term * x // (n << work)


def _exp_fixed(x: int, bits: int) -> int:
    """exp(x / 2^bits) at scale 2^bits for x >= 0, to a few units of relative error.

    Sums the Taylor series at x / 2^k < 2^-8 and squares k times.  Each
    squaring doubles the relative error, so the sum carries k + 8 guard bits.
    """
    k = max(0, x.bit_length() - bits + 8)
    work = bits + k + 8
    total = sum(_taylor_terms(x << 8, work))
    for _ in range(k):
        total = total * total >> work
    return total >> (work - bits)


def _cis_fixed(x: int, bits: int) -> tuple[int, int]:
    """(cos, sin) of x / 2^bits at scale 2^bits for x >= 0, as _exp_fixed does exp."""
    k = max(0, x.bit_length() - bits + 8)
    work = bits + k + 8
    c = s = 0
    for n, term in enumerate(_taylor_terms(x << 8, work)):
        if n % 2:
            s += term if n % 4 == 1 else -term
        else:
            c += term if n % 4 == 0 else -term
    for _ in range(k):
        c, s = (c - s) * (c + s) >> work, c * s >> (work - 1)
    return c >> (work - bits), s >> (work - bits)


def _cmul(xr: int, xi: int, yr: int, yi: int, bits: int) -> tuple[int, int]:
    """The product of two fixed-point complex numbers at scale 2^bits."""
    return (xr * yr - xi * yi) >> bits, (xr * yi + xi * yr) >> bits


@lru_cache(maxsize=256)
def hilbert_poly(D: int) -> HilbertPoly:
    """The Hilbert class polynomial P_D(X), exact integer coefficients.

    One j-value per reduced form (a, b, c), tau = (-b + i sqrt(D)) / (2a),
    from the q-expansion, then the product of (X - j_i), all in fixed-point
    complex arithmetic on python ints at scale 2^B, B = working_digits(D, h)
    * log2(10) + GUARD_BITS.

    Error budget: pi, sqrt(D), 1/|q| = exp(pi sqrt(D) / a) with |q| from it,
    and arg q = -pi b / a come within a few units of 2^-B (relative units
    for the exponentials).  The q-series sum is 1 + 744 q + ..., so
    j = sum / q carries a relative error of about 2^(10 - B).  On reduced
    forms |j - 1/q| <= 2079, so no coefficient of the product exceeds
    prod (1 + |j_i|) <= (exp(pi sqrt(D)) + 2080)^h < (100 exp(pi sqrt(D)))^h,
    and the h products leave an absolute error of about h 2^(10 - B) times
    that bound.  B carries working_digits(D, h) = h (pi sqrt(D) / ln 10 + 10)
    + 15 decimal digits, 7 h + 15 more than the bound has, so the error
    stays far below the 0.01 the two certificates allow: every coefficient
    lies within 0.01 of an integer (imaginary part within 0.01 of 0), and
    the rounded polynomial moves no computed root by more than 0.01 (Newton
    shift |f(r)| / max(|f'(r)|, 1)).  Either failure raises PrecisionError;
    the rounding is never silent.
    """
    _check_discriminant(D)
    if D > HILBERT_D_BOUND:
        raise LimitError(f"D={D} above analytic bound {HILBERT_D_BOUND}")
    forms = reduced_forms(D)
    h = len(forms)
    if h > HILBERT_CLASS_BOUND:
        raise LimitError(f"h(-{D})={h} too large for the analytic route")
    bits = math.ceil(working_digits(D, h) * math.log2(10)) + GUARD_BITS
    one = 1 << bits
    pi = _fixed_pi(bits)
    sqrt_d = math.isqrt(D << (2 * bits))
    jq = j_q_coefficients()
    roots = []
    for a, b, _ in forms:
        inv_abs_q = _exp_fixed(pi * sqrt_d // (a << bits), bits)
        abs_q = (one << bits) // inv_abs_q
        cos, sin = _cis_fixed(pi * abs(b) // a, bits)
        if b > 0:  # arg q = -pi b / a
            sin = -sin
        qr, qi = abs_q * cos >> bits, abs_q * sin >> bits
        sr = si = 0
        for cf in reversed(jq):
            sr, si = _cmul(sr, si, qr, qi, bits)
            sr += cf << bits
        # j = (sum jq[k] q^k) / q, dividing by q as a product with 1/q
        roots.append(_cmul(sr, si, inv_abs_q * cos >> bits, -(inv_abs_q * sin) >> bits, bits))
    re, im = [one], [0]
    for rr, ri in roots:
        next_re, next_im = [0] + re, [0] + im
        for i, (cr, ci) in enumerate(zip(re, im)):
            tr, ti = _cmul(rr, ri, cr, ci, bits)
            next_re[i] -= tr
            next_im[i] -= ti
        re, im = next_re, next_im
    coeffs = []
    for k, (cr, ci) in enumerate(zip(re, im)):
        target = (cr + (one >> 1)) >> bits
        off = max(abs(cr - (target << bits)), abs(ci))
        if 100 * off > one:
            raise PrecisionError(
                f"P_{D}: coefficient of X^{k} is {off / one:.3g} away from an integer"
            )
        coeffs.append(target)
    # the rounded polynomial must still vanish at the computed roots
    for rr, ri in roots:
        vr = vi = dr = di = 0
        for cf in reversed(coeffs):
            dr, di = _cmul(dr, di, rr, ri, bits)
            dr, di = dr + vr, di + vi
            vr, vi = _cmul(vr, vi, rr, ri, bits)
            vr += cf << bits
        denom = max(dr * dr + di * di, one * one)
        if 10**4 * (vr * vr + vi * vi) > denom:
            shift = math.sqrt((vr * vr + vi * vi) / denom)
            raise PrecisionError(f"P_{D}: rounded poly moved a root by {shift:.3g}")
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
