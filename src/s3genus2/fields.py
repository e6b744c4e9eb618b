"""Exact arithmetic in F_p and in the quadratic extension F_{p^2}.

Elements of F_p are plain ints mod p.  Elements of F_{p^2} are a + b*w
where w^2 equals a fixed quadratic non-residue mod p (the smallest positive
one, so encodings are reproducible), held as reduced (a, b) int pairs;
fp2_mul, fp2_inv, fp2_horner and fp2_sqrt are their whole API.  Everything
here is integer arithmetic; no floats anywhere.
"""

from __future__ import annotations

from functools import lru_cache

from .limits import MAX_MODULUS, LimitError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 2^31 modulus cap."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def check_modulus(p: int) -> int:
    if not (5 <= p < MAX_MODULUS):
        raise LimitError(f"modulus {p} out of range [5, 2^31)")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


def legendre_int(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1}, via Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


@lru_cache(maxsize=None)
def smallest_nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue mod p (linear scan)."""
    check_modulus(p)
    for n in range(2, p):
        if legendre_int(n, p) == -1:
            return n
    raise ArithmeticError(f"no non-residue found mod {p}")  # unreachable for p >= 3


def factorize(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1 by trial division, at most sqrt(n)/2 steps."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primitive_root(p: int) -> int:
    """Smallest generator g of F_p^*: g^((p-1)/q) != 1 for each prime q | p - 1."""
    check_modulus(p)
    primes = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in primes):
            return g
    raise ArithmeticError(f"no primitive root mod {p}")  # unreachable for prime p


def tonelli_shanks(a: int, p: int) -> int:
    """A square root of the residue a mod p.  Raises if a is a non-residue.

    Residuosity costs no separate Euler criterion: for p = 3 mod 4 the
    candidate root is squared and compared, and otherwise a non-residue
    shows up in the loop as an element t = a^q of the full order 2^s.
    """
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        x = pow(a, (p + 1) // 4, p)
        if x * x % p != a:
            raise ValueError(f"{a} is not a square mod {p}")
        return x
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = smallest_nonresidue(p)
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        if i == m:
            raise ValueError(f"{a} is not a square mod {p}")
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


# ---------------------------------------------------------------------------
# F_{p^2} on (a, b) int pairs, a + b*w with w^2 = n; results are reduced mod p.
# fp2_mul also takes int64 arrays: below p = 2^25 no intermediate reaches 2^51.


def fp2_mul(u: tuple[int, int], v: tuple[int, int], p: int, n: int) -> tuple[int, int]:
    return (u[0] * v[0] + u[1] * v[1] % p * n) % p, (u[0] * v[1] + u[1] * v[0]) % p


def fp2_inv(u: tuple[int, int], p: int, n: int) -> tuple[int, int]:
    """1/(a + b*w) = (a - b*w)/(a^2 - n b^2), one inversion in F_p."""
    a, b = u
    d = (a * a - b * b % p * n) % p
    if d == 0:
        raise ZeroDivisionError(f"inverse of 0 in F_{p}^2")
    d = pow(d, -1, p)
    return a * d % p, -b * d % p


def fp2_horner(coeffs, x: tuple[int, int], p: int, n: int) -> tuple[int, int]:
    """sum c_k x^k for ascending (a, b) pairs c_k."""
    xa, xb = x
    ra, rb = coeffs[-1]
    for ca, cb in reversed(coeffs[:-1]):
        ra, rb = (ra * xa + rb * xb % p * n + ca) % p, (ra * xb + rb * xa + cb) % p
    return ra, rb


def fp2_sqrt(u: tuple[int, int], p: int, n: int) -> tuple[int, int] | None:
    """Canonical square root of a reduced pair u = a + b*w, or None.

    The root is taken through the norm, with square roots in F_p only.  For
    b != 0, u is a square iff N = a^2 - n b^2 is a residue mod p.  A root
    x + y*w satisfies x^2 + n y^2 = a and 2xy = b, so x^2 is a root of
    4X^2 - 4aX + n b^2, that is (a +- sqrt(N))/2.  The product of the two is
    n b^2/4, a non-residue, so exactly one of them is a residue; x is its
    root and y = b/(2x).  For b = 0 the root is sqrt(a), or sqrt(a/n)*w
    when a is a non-residue.  Of the two roots the one with the smaller
    (a-part, b-part) encoding is returned.
    """
    a, b = u
    if b == 0:
        if legendre_int(a, p) != -1:
            x, y = tonelli_shanks(a, p), 0
        else:
            x, y = 0, tonelli_shanks(a * pow(n, -1, p) % p, p)
    else:
        norm = (a * a - b * b % p * n) % p
        if legendre_int(norm, p) != 1:
            return None
        r = tonelli_shanks(norm, p)
        half = (p + 1) // 2
        x2 = (a + r) * half % p
        if legendre_int(x2, p) != 1:
            x2 = (a - r) * half % p
        x = tonelli_shanks(x2, p)
        y = b * pow(2 * x, -1, p) % p
    return min((x, y), (-x % p, -y % p))

