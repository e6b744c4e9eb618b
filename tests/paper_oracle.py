"""Test-side paper identities that no command reports.

The acceptance criteria's own code, beside `fp2_oracle`: the Kronecker
symbol with the Dirichlet-series crosscheck of the class numbers, the
Gross-Zagier valuation of the singular moduli J(-D1, -D2), the S3-orbit
of a parameter, the f/g/h correspondence between lambda and the 3-torsion
abscissas of its Legendre curves (the p = 11 mod 12 branch), and the
prime-sum main term of the window averages.
"""

import math

from s3genus2.average import _mode_constant, primes_below
from s3genus2.classno import _check_discriminant
from s3genus2.fields import factorize

# ---------------------------------------------------------------------------
# Kronecker symbol and the Dirichlet crosscheck of h(-D)


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


# ---------------------------------------------------------------------------
# S3-orbits and the 3-torsion correspondence polynomials of the p = 11 mod 12
# branch


def orbit(lam: int, p: int) -> frozenset[int]:
    """The S3-orbit {lam, 1/lam, 1-lam, 1/(1-lam), lam/(lam-1), (lam-1)/lam}."""
    lam %= p
    if lam in (0, 1):
        raise ValueError(f"lambda={lam} is singular")
    inv = pow(lam, -1, p)
    inv1m = pow(1 - lam, -1, p)
    return frozenset(
        (
            lam,
            inv,
            (1 - lam) % p,
            inv1m % p,
            lam * pow(lam - 1, -1, p) % p,
            (lam - 1) * inv % p,
        )
    )


_HALVES = {
    "f": (
        # coefficients of f(a, b^2): (a-power, b2-power, numerator, denominator)
        (9, 0, -3, 1), (8, 0, 14, 1), (7, 0, -34, 1), (6, 0, 50, 1),
        (5, 0, -42, 1), (4, 1, 21, 1), (4, 0, 18, 1), (3, 1, -32, 1),
        (3, 0, -3, 1), (2, 1, 11, 1), (1, 1, 2, 1), (0, 1, -1, 1),
    ),
    "g": (
        (8, 0, 1, 1), (7, 0, -4, 1), (6, 0, 2, 1), (5, 0, 8, 1),
        (4, 0, -12, 1), (3, 1, 20, 1), (3, 0, 6, 1), (2, 1, -30, 1),
        (2, 0, -1, 1), (1, 1, 14, 1), (0, 1, -2, 1),
    ),
    "h": (
        (9, 0, -3, 1), (8, 0, 27, 2), (7, 0, -22, 1), (6, 0, 14, 1),
        (5, 0, 1, 1), (4, 1, -39, 2), (4, 0, -6, 1), (3, 1, 39, 1),
        (3, 0, 3, 1), (2, 1, -61, 2), (2, 0, -1, 2), (1, 1, 11, 1),
        (0, 1, -3, 2),
    ),
}


def fgh_eval(a: int, b2: int, p: int) -> tuple[int, int, int]:
    """The three correspondence polynomials evaluated at (a, b^2) in F_p."""
    a %= p
    b2 %= p
    out = []
    for name in ("f", "g", "h"):
        acc = 0
        for pa, pb, num, den in _HALVES[name]:
            term = num * pow(a, pa, p) % p * pow(b2, pb, p) % p
            if den != 1:
                term = term * pow(den, -1, p) % p
            acc = (acc + term) % p
        out.append(acc)
    return tuple(out)


def lambda_from_torsion(t: int, a: int, p: int) -> int:
    """lambda = f/g for a 3-torsion abscissa a of E_t; g = 0 cannot happen."""
    a %= p
    t %= p
    quartic = (3 * pow(a, 4, p) - 4 * (1 + t) * pow(a, 3, p) + 6 * t * a * a - t * t) % p
    if quartic:
        raise ValueError("a is not a 3-torsion abscissa of E_t")
    b2 = a * (a - 1) % p * (a - t) % p
    f, g, _ = fgh_eval(a, b2, p)
    if g == 0:
        raise ArithmeticError(
            "g(a, b^2) = 0: would force a^2 - a + 1/3 = 0, impossible for a in F_p"
        )
    return f * pow(g, -1, p) % p


def torsion_from_lambda(lam: int, eps: int, sqrt_delta: int, p: int) -> int:
    """The inverse map: a = (1 + lam + 2 eps sqrt(delta)) / 3, in F_p."""
    return (1 + lam + 2 * eps * sqrt_delta) * pow(3, -1, p) % p


# ---------------------------------------------------------------------------
# the main term of the window averages


def prime_sum_prediction(X: int, mode: str = "integer") -> float:
    """The main term constant * sum_{5 <= p < X} 1/(2 sqrt(p)) of the
    normalized window total; constant * sqrt(X)/log X is its leading term."""
    return _mode_constant(mode) * math.fsum(1 / (2 * math.sqrt(p)) for p in primes_below(X))
