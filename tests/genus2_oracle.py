"""The genus-2 side of the paper's reduction: the Cartier-Manin matrix of C_lambda.

C_lambda : y^2 = x h(x) with h = (x - 1)(x - lambda)(x - mu)(x - nu),
mu = (lambda - 1)/lambda and nu = 1/(1 - lambda), is superspecial exactly
when its Cartier-Manin matrix is zero (Nygaard, "Slopes of powers of
Frobenius on crystalline cohomology", Ann. Sci. ENS 14, 1981).  For
y^2 = f(x) with deg f = 5 the entries are the coefficients of x^(ip - j),
i, j in {1, 2}, in f^m, m = (p - 1)/2 (Manin 1961; Yui, J. Algebra 52,
1978).  With f = x h they are the coefficients of h^m at (p - 1)/2 and
(p - 3)/2 (i = 1), and, since h^m has degree 4m = 2p - 2, the same two
coefficients of the m-th power of the reversed polynomial x^4 h(1/x)
(i = 2).

h(0) = lambda mu nu = -1 for every admissible lambda and h is monic, so
both -h and the reversed h have constant term 1.  J. C. P. Miller's
recurrence for the coefficients of G = q^m, q_0 = 1,

    k G_k = sum_{i=1..4} ((m + 1) i - k) q_i G_{k-i},

then needs only the inverses of k <= m < p.  It runs on int64 lanes, one
per (lambda, polynomial), m steps per prime.  The module builds the lanes
from lambda alone with `pow` and shares no code with the package's scan.
"""

import numpy as np

from s3genus2.fields import is_prime

# the recurrence's four-term sums stay below 4 p^3 < 2^63
MODULUS_BOUND = 1 << 20


def _lanes(lam: int, p: int) -> tuple[list[int], list[int]]:
    """q_1 .. q_4 of -h and of the reversed h, for one admissible lambda."""
    mu = (lam - 1) * pow(lam, -1, p) % p
    nu = pow(1 - lam, -1, p)
    # the roots of h are 1, lam, mu, nu with lam mu nu = -1, so
    # h = x^4 - e1 x^3 + e2 x^2 - e3 x - 1
    s1 = lam + mu + nu
    s2 = lam * mu + lam * nu + mu * nu
    e1, e2, e3 = 1 + s1, s1 + s2, s2 - 1
    return [e3 % p, -e2 % p, e1 % p, p - 1], [-e1 % p, e2 % p, -e3 % p, p - 1]


def cartier_manin_zero_lambdas(p: int) -> tuple[int, ...]:
    """The admissible lambda in F_p at which the Cartier-Manin matrix of
    C_lambda is zero, ascending."""
    if p < 5 or p >= MODULUS_BOUND or not is_prime(p):
        raise ValueError(f"p={p} is not a prime in [5, 2^20)")
    m = (p - 1) // 2
    lams = [lam for lam in range(2, p) if (lam * lam - lam + 1) % p]
    minus_h, reversed_h = zip(*(_lanes(lam, p) for lam in lams))
    # row i - 1 holds q_i of every lane; reversed to q_4 .. q_1 so that it
    # meets the rows G_{k-4} .. G_{k-1} of the window below
    q = np.array(minus_h + reversed_h, dtype=np.int64).T[::-1].copy()
    g = np.zeros((m + 5, q.shape[1]), dtype=np.int64)  # row k + 4 holds G_k
    g[4] = 1
    weights = np.array([4, 3, 2, 1], dtype=np.int64)[:, None] * (m + 1)
    for k in range(1, m + 1):
        # a term is a product of three residues, so the sum stays below 4 p^3
        acc = np.einsum("ij,ij->j", (weights - k) % p * q, g[k : k + 4])
        g[k + 4] = acc % p * pow(k, -1, p) % p
    zero = ~(g[m + 3] | g[m + 4]).astype(bool)
    zero = zero[: len(lams)] & zero[len(lams) :]
    return tuple(lam for lam, z in zip(lams, zero.tolist()) if z)
