"""The chord-tangent group law on QuadExtElement objects.

This is the exact oracle for the int-pair law of `CubicCurve` (`pair_add`,
`pair_minus3`, `pair_random`): the same formulas written with field
objects, double-and-add scalar multiplication and object sampling.
"""

from s3genus2.curves import INFINITY, CurvePoint
from s3genus2.fields import QuadExtElement, sqrt_fp2


def neg(P: CurvePoint) -> CurvePoint:
    if P.is_infinity:
        return P
    return CurvePoint(P.x, -P.y)


def add(c, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return INFINITY
        # tangent
        num = (3 * P.x + 2 * c.a2) * P.x + c.a4
        slope = num / (2 * P.y)
    else:
        slope = (Q.y - P.y) / (Q.x - P.x)
    x3 = slope * slope - c.a2 - P.x - Q.x
    y3 = slope * (P.x - x3) - P.y
    return CurvePoint(x3, y3)


def scalar_mul(c, n: int, P: CurvePoint) -> CurvePoint:
    if n < 0:
        return scalar_mul(c, -n, neg(P))
    acc = INFINITY
    addend = P
    while n:
        if n & 1:
            acc = add(c, acc, addend)
        addend = add(c, addend, addend)
        n >>= 1
    return acc


def rhs(c, x: QuadExtElement) -> QuadExtElement:
    return ((x + c.a2) * x + c.a4) * x + c.a6


def random_point(c, rng) -> CurvePoint:
    """Random x until the cubic value is a square; then a random sign of y."""
    p = c.p
    while True:
        x = QuadExtElement(rng.randrange(p), rng.randrange(p), p)
        y = sqrt_fp2(rhs(c, x))
        if y is not None:
            if not rng.randrange(2):
                y = -y
            return CurvePoint(x, y)
