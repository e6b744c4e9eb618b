"""Exact arithmetic in F_p and in the quadratic extension F_{p^2}.

Elements of F_{p^2} are represented as a + b*w where w^2 equals a fixed
quadratic non-residue mod p (the smallest positive one, so encodings are
reproducible).  Everything here is integer arithmetic; no floats anywhere.
"""

from __future__ import annotations

from functools import lru_cache

MAX_MODULUS = 1 << 31  # keeps products inside native double-width integers

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 2^31 modulus cap."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
        raise ValueError(f"modulus {p} out of range [5, 2^31)")
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


def tonelli_shanks(a: int, p: int) -> int:
    """A square root of the residue a mod p.  Raises if a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    if legendre_int(a, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
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
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


class FieldElement:
    """A residue mod an odd prime p >= 5."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        check_modulus(p)
        self.value = value % p
        self.p = p

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.p != self.p:
                raise ValueError("mixed moduli")
            return other
        if isinstance(other, int):
            return FieldElement(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.value - o.value, self.p)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value, self.p)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError(f"inverse of 0 mod {self.p}")
        return FieldElement(pow(self.value, -1, self.p), self.p)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return FieldElement(pow(self.value, n, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.p
        return (
            isinstance(other, FieldElement)
            and self.p == other.p
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return f"FieldElement({self.value}, p={self.p})"

    def is_zero(self) -> bool:
        return self.value == 0


def legendre_symbol(a: FieldElement) -> int:
    """Legendre symbol of a field element: 0 for zero, +-1 otherwise."""
    return legendre_int(a.value, a.p)


class QuadExtElement:
    """a + b*w in F_{p^2}, with w^2 the fixed smallest non-residue mod p."""

    __slots__ = ("a", "b", "p", "nonresidue")

    def __init__(self, a: int, b: int, p: int, nonresidue: int | None = None):
        check_modulus(p)
        self.a = a % p
        self.b = b % p
        self.p = p
        self.nonresidue = smallest_nonresidue(p) if nonresidue is None else nonresidue

    def _coerce(self, other) -> "QuadExtElement":
        if isinstance(other, QuadExtElement):
            if other.p != self.p or other.nonresidue != self.nonresidue:
                raise ValueError("mixed fields")
            return other
        if isinstance(other, FieldElement):
            if other.p != self.p:
                raise ValueError("mixed moduli")
            return QuadExtElement(other.value, 0, self.p, self.nonresidue)
        if isinstance(other, int):
            return QuadExtElement(other, 0, self.p, self.nonresidue)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadExtElement(self.a + o.a, self.b + o.b, self.p, self.nonresidue)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadExtElement(self.a - o.a, self.b - o.b, self.p, self.nonresidue)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        p, n = self.p, self.nonresidue
        a = (self.a * o.a + self.b * o.b % p * n) % p
        b = (self.a * o.b + self.b * o.a) % p
        return QuadExtElement(a, b, p, n)

    __rmul__ = __mul__

    def __neg__(self):
        return QuadExtElement(-self.a, -self.b, self.p, self.nonresidue)

    def norm(self) -> int:
        """Norm to F_p: (a + b*w)(a - b*w) = a^2 - n*b^2."""
        return (self.a * self.a - self.nonresidue * self.b * self.b) % self.p

    def inverse(self) -> "QuadExtElement":
        d = self.norm()
        if d == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}^2")
        dinv = pow(d, -1, self.p)
        return QuadExtElement(self.a * dinv, -self.b * dinv, self.p, self.nonresidue)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = QuadExtElement(1, 0, self.p, self.nonresidue)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def frobenius(self) -> "QuadExtElement":
        """The p-th power map; in the standard basis it is conjugation."""
        return QuadExtElement(self.a, -self.b, self.p, self.nonresidue)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.b == 0 and self.a == other % self.p
        if isinstance(other, FieldElement):
            return self.p == other.p and self.b == 0 and self.a == other.value
        return (
            isinstance(other, QuadExtElement)
            and self.p == other.p
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.a, self.b, self.p))

    def __repr__(self):
        if self.b == 0:
            return f"QuadExt({self.a}, p={self.p})"
        return f"QuadExt({self.a} + {self.b}w, p={self.p})"

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def in_base_field(self) -> bool:
        return self.b == 0

    def to_base_field(self) -> FieldElement:
        if self.b != 0:
            raise ValueError(f"{self!r} is not in F_{self.p}")
        return FieldElement(self.a, self.p)

    def is_square(self) -> bool:
        """True iff the element is a square in F_{p^2} (zero counts)."""
        if self.is_zero():
            return True
        return legendre_int(self.norm(), self.p) != -1


def _canonical_pair(a: int, b: int, p: int) -> tuple[int, int]:
    # pick the representative of {+r, -r} with smaller (a, b) encoding
    return min((a, b), ((-a) % p, (-b) % p))


def sqrt_in_fp2(x: FieldElement) -> QuadExtElement:
    """The canonical square root in F_{p^2} of a base-field element.

    Residues get a root with zero w-part, non-residues a root of the form
    c*w.  Of the two roots +-s we return the one with the smaller
    (a-part, b-part) integer encoding, so the branch is reproducible.
    """
    return sqrt_fp2(QuadExtElement(x.value, 0, x.p))


def sqrt_fp2(u: QuadExtElement) -> QuadExtElement | None:
    """Canonical square root of an arbitrary F_{p^2} element, or None.

    The root is taken through the norm, with square roots in F_p only.  For
    u = a + b*w with b != 0, u is a square iff N = a^2 - n b^2 is a residue
    mod p.  A root x + y*w satisfies x^2 + n y^2 = a and 2xy = b, so x^2 is a
    root of 4X^2 - 4aX + n b^2, that is (a +- sqrt(N))/2.  The product of
    the two is n b^2/4, a non-residue, so exactly one of them is a residue;
    x is its root and y = b/(2x).  For b = 0 the root is sqrt(a), or
    sqrt(a/n)*w when a is a non-residue.  Of the two roots the one with the
    smaller (a-part, b-part) encoding is returned.
    """
    p, n = u.p, u.nonresidue
    a, b = u.a, u.b
    if b == 0:
        if legendre_int(a, p) != -1:
            x, y = tonelli_shanks(a, p), 0
        else:
            x, y = 0, tonelli_shanks(a * pow(n, -1, p) % p, p)
    else:
        norm = u.norm()
        if legendre_int(norm, p) != 1:
            return None
        r = tonelli_shanks(norm, p)
        half = (p + 1) // 2
        x2 = (a + r) * half % p
        if legendre_int(x2, p) != 1:
            x2 = (a - r) * half % p
        x = tonelli_shanks(x2, p)
        y = b * pow(2 * x, -1, p) % p
    x, y = _canonical_pair(x, y, p)
    return QuadExtElement(x, y, p, n)
