"""Dense integer polynomials as coefficient lists, ascending degree.

Small exact helpers shared by the modular-polynomial identities and the
class-polynomial checks.  Everything is plain Python ints, so there is no
overflow to worry about.
"""

from __future__ import annotations


def trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def degree(f: list[int]) -> int:
    """Degree with deg(0) = -1."""
    return len(f) - 1


def add(f: list[int], g: list[int]) -> list[int]:
    out = [0] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] += c
    return trim(out)


def neg(f: list[int]) -> list[int]:
    return [-c for c in f]


def mul(f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return trim(out)


def scale(f: list[int], c: int) -> list[int]:
    return trim([c * a for a in f])


def reduce_mod(f: list[int], p: int) -> list[int]:
    return trim([c % p for c in f])


def resultant_bivariate(F: list[list[int]], G: list[list[int]]) -> list[int]:
    """Res_X of two polynomials in Z[Y][X].

    F and G are lists of Z[Y] coefficients (ascending powers of X); the
    result is the determinant of the Sylvester matrix, a polynomial in Y.
    """
    m = len(F) - 1
    n = len(G) - 1
    size = m + n
    rows: list[list[list[int]]] = []
    frev = F[::-1]
    grev = G[::-1]
    for i in range(n):
        rows.append([[0]] * i + [list(c) for c in frev] + [[0]] * (n - 1 - i))
    for i in range(m):
        rows.append([[0]] * i + [list(c) for c in grev] + [[0]] * (m - 1 - i))

    # Laplace expansion along successive rows, memoized on the column subset
    from functools import lru_cache

    full = (1 << size) - 1

    @lru_cache(maxsize=None)
    def minor(colmask: int) -> tuple[int, ...]:
        row = bin(colmask).count("1")
        if colmask == full:
            return (1,)
        acc: list[int] = []
        sign = 1
        for j in range(size):
            bit = 1 << j
            if colmask & bit:
                continue
            entry = rows[row][j]
            if any(entry):
                sub_det = list(minor(colmask | bit))
                term = mul(entry, sub_det)
                acc = add(acc, term if sign > 0 else neg(term))
            sign = -sign
        return tuple(trim(acc))

    return list(minor(0))
