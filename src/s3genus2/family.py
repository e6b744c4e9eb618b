"""The genus-2 family side: Lambda pairs, orbits, and the count psi_p.

A member of the family is indexed by lambda in F_p minus {0, 1} and the
roots of lambda^2 - lambda + 1 (those parameters are singular).  The member
is superspecial exactly when the associated Legendre curve with parameter
Lambda^-(lambda) = (1-lambda)(lambda - sqrt(delta))^2 is supersingular; the
partner Lambda^+ then is too.  The scan classifies one representative per
S3-orbit and stamps the rest.  The per-lambda S3-orbit walk and the f/g/h
correspondence with the 3-torsion of the paired curves (p = 11 mod 12),
which no command runs, live in the tests (tests/paper_oracle.py).

A sieve first drops the representatives whose E = E_{Lambda^-} the 2-power
torsion proves ordinary (lemmas A-D, proved in `_orbit_scan`).  At p = 3
mod 4 it keeps only the lambda whose delta = lambda^2 - lambda + 1 is a
square, and their Lambda^- lies in F_p.

Supersingularity depends only on the j-invariant, so the scan maps every
kept representative's Lambda^- to j(E_{Lambda^-}) and evaluates the
supersingular polynomial ss_p(j) there.
ss_p has degree about p/12, against (p-1)/2 for the Deuring polynomial
H_p in Lambda; its coefficients come from the truncated hypergeometric
series of Kaneko-Zagier (1998), with the parameters (1/12, 5/12) for
p = 1 mod 4 and (7/12, 11/12) for p = 3 mod 4 (`_supersingular_array`).
The evaluation is an exact baby-step/giant-step (Paterson-Stockmeyer)
split: about sqrt(p/12) vector operations and one int64 matrix product
per lane, two lanes in F_{p^2} or one in F_p at p = 3 mod 4.  The tests
hold H_p at every lambda's Lambda^- (the same kernel fed the Deuring
coefficients), numpy Horner and the pure-python per-lambda scan
`psi_p_bruteforce` as oracles for it.  The coefficients and the inverses
of the j computation come from one table of generator powers, its logs
and its reversal (curves), so no p-sized exponentiation runs.
"""

from __future__ import annotations

import os
from math import isqrt

import numpy as np

from .classno import class_number
from .curves import (
    LegendreCurve,
    _inverse_table,
    _log_table,
    _power_table,
    _sqrt_table,
    is_supersingular,
)
from .fields import check_modulus, fp2_mul, fp2_sqrt, smallest_nonresidue
from .limits import SCAN_POOL_THRESHOLD, VECTOR_MODULUS_BOUND, LimitError, scan_cost

# entries per baby-step or block-value matrix in one chunk of the scan
# (4 MB of int64); every p below 4.8*10^4 fits in one chunk
BSGS_CHUNK_ELEMENTS = 1 << 19


def congruence_class(p: int) -> str:
    if p % 4 == 1:
        return "1mod4"
    return "7mod12" if p % 12 == 7 else "11mod12"


def delta_of(lam: int, p: int) -> int:
    return (lam * lam - lam + 1) % p


def is_admissible(lam: int, p: int) -> bool:
    lam %= p
    return lam not in (0, 1) and delta_of(lam, p) != 0


def lambda_pair(lam: int, p: int) -> tuple[int, tuple, tuple, tuple]:
    """(delta, sqrt(delta), Lambda^-, Lambda^+) of an admissible lambda, as pairs.

    sqrt(delta) is fields.fp2_sqrt's canonical root, and Lambda^-+ =
    (1-lam)(lam -+ sqrt(delta))^2 = (1-lam)((lam^2 + delta) -+ 2 lam sqrt(delta)).
    """
    check_modulus(p)
    lam %= p
    if not is_admissible(lam, p):
        raise ValueError(f"lambda={lam} is inadmissible mod {p}")
    delta = delta_of(lam, p)
    root = fp2_sqrt((delta, 0), p, smallest_nonresidue(p))
    return delta, root, lambda_eps(lam, root, -1, p), lambda_eps(lam, root, 1, p)


def lambda_eps(lam, root, eps, p: int):
    """Lambda^eps = (1-lam)((lam^2 + delta) + 2*eps*lam*sqrt(delta)), as (a, b).

    root = (a, b) is sqrt(delta) in F_p[w]/(w^2 - n), or (a, None) in F_p,
    which leaves the b-lane out; Lambda^eps is linear in it, so n is not
    needed.  lam, root and eps may be ints or int64 arrays: every
    intermediate is reduced while it is below 2p^2.
    """
    sa, sb = root
    one_m = (1 - lam) % p
    base = (2 * lam * lam - lam + 1) % p
    cross = eps * 2 * lam % p
    la = one_m * ((base + cross * sa) % p) % p
    return la, None if sb is None else one_m * (cross * sb % p) % p


def lambda_eps_pairs(lam: np.ndarray, eps, p: int, n: int, table: np.ndarray) -> tuple:
    """Lambda^eps(lam) for each admissible lam, as int64 (a, b) over F_p[w]/(w^2 - n).

    `lambda_eps` on the arrays, with sqrt(delta) the canonical root of
    `lambda_pair`: the smaller root table[delta] for residues, and c*w with
    c the smaller root of delta/n otherwise.  So the sqrt part stays
    rational for residues and carries the w-component for non-residues.
    `table` is `_sqrt_table(p)`, whose -1 entries mark the non-residues;
    eps is -1, +1 or an array of them.
    """
    delta = (lam * lam - lam + 1) % p
    root = table[delta]
    residue = root >= 0
    root = np.where(residue, root, table[delta * pow(n, -1, p) % p])
    return lambda_eps(lam, (np.where(residue, root, 0), np.where(residue, 0, root)), eps, p)


# numerators over 12 of the hypergeometric parameters (a, b), by p mod 4
KZ_PARAMETERS = {1: (1, 5), 3: (7, 11)}


def _supersingular_array(p: int) -> np.ndarray:
    """Ascending coefficients of the supersingular polynomial ss_p(j), p >= 5.

    ss_p(j) is the product of j - j(E) over the supersingular j-invariants
    in characteristic p.  Kaneko-Zagier ("Supersingular j-invariants,
    hypergeometric series, and Atkin's orthogonal polynomials", 1998) give
    it as the truncated hypergeometric series

        j^delta (j - 1728)^eps sum_{n <= m} (a)_n (b)_n / n!^2 1728^n j^(m-n)

    mod p, with m = p // 12, delta = [p = 2 mod 3] and eps = [p = 3 mod 4].
    (a, b) = (1/12, 5/12) for p = 1 mod 4 and the Euler transform
    (7/12, 11/12) for p = 3 mod 4: in both cases the pair holds -m mod p,
    so the series ends at n = m by itself.  The coefficients are built as
    `curves._deuring_array` builds its own: the log of the n-th term is the
    partial sum of l(a + i - 1) + l(b + i - 1) + l(1728) - 2 l(i) over
    i = 1 .. n, one cumsum of terms in (-2(p-1), 3(p-1)), below
    3 m (p-1) < 2^50 in absolute value, and one table read.  Since the log
    table reads 0 at 0, a vanishing factor raises instead of passing
    silently, and so does a degree other than the number of supersingular
    j-invariants, (p - 1 + 6 eps + 8 delta) / 12 by Eichler's mass formula.
    """
    m = p // 12
    delta, eps = int(p % 3 == 2), int(p % 4 == 3)
    inv12 = pow(12, -1, p)
    a, b = (num * inv12 % p for num in KZ_PARAMETERS[p % 4])
    i = np.arange(1, m + 1, dtype=np.int64)
    fa, fb = (a + i - 1) % p, (b + i - 1) % p
    if ((fa == 0) | (fb == 0) | (i % p == 0)).any():
        raise ArithmeticError(f"a vanishing hypergeometric factor mod p={p}")
    log = _log_table(p)
    e = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(log[fa] + log[fb] + log[1728 % p] - 2 * log[i], out=e[1:])
    # the n-th term is the coefficient of j^(m-n); times j^delta (j - 1728)^eps
    terms = _power_table(p)[e[::-1] % (p - 1)]
    coeffs = np.zeros(m + 1 + delta + eps, dtype=np.int64)
    coeffs[delta + eps :] = terms
    coeffs[delta : delta + m + 1] -= 1728 * eps * terms
    coeffs %= p
    if coeffs[-1] == 0 or 12 * (coeffs.size - 1) != p - 1 + 6 * eps + 8 * delta:
        raise ArithmeticError(f"ss_p of the wrong degree at p={p}")
    return coeffs


_SCAN_CACHE: dict[int, tuple[int, ...]] = {}


def scan_primes(primes) -> None:
    """Fill _SCAN_CACHE for the primes on one worker pool, when that pays.

    The primes not yet cached are priced as limits.check_scan_range prices
    a range.  Above SCAN_POOL_THRESHOLD they are scanned largest first on
    one worker per prime and per CPU at most; otherwise nothing runs here,
    and each prime is scanned when its row asks for it.
    """
    todo = sorted((p for p in primes if p not in _SCAN_CACHE), reverse=True)
    workers = min(len(todo), os.cpu_count() or 1)
    if workers <= 1 or scan_cost(todo[0]) - scan_cost(todo[-1]) <= SCAN_POOL_THRESHOLD:
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        _SCAN_CACHE.update(zip(todo, pool.map(_orbit_scan, todo, chunksize=4)))


def superspecial_lambdas(p: int) -> tuple[int, ...]:
    """All lambda in F_p with a superspecial member, by orbit-stamped scan."""
    cached = _SCAN_CACHE.get(p)
    if cached is not None:
        return cached
    result = _orbit_scan(p)
    _SCAN_CACHE[p] = result
    return result


def legendre_j(ta, tb, p: int, n: int, inv: np.ndarray) -> tuple:
    """j(E_t) = 256 (t^2 - t + 1)^3 / (t(t - 1))^2 for each t = ta + tb*w.

    tb None leaves the b-lanes out: t = ta and j lie in F_p, and jb is None.
    With D = t^2 - t this is 256 D (1 + 1/D)^3.  1/D goes through the norm
    D_a^2 - n D_b^2 (D in F_p), inverted by a read of the inverse table `inv`
    (curves._inverse_table); n is a non-residue, so the norm vanishes only
    at D = 0, that is t in {0, 1}, which raises.  D and u^2 are each one
    F_{p^2} squaring, (a + b w)^2 = (a^2 + n b^2) + 2ab w.
    Below VECTOR_MODULUS_BOUND = 2^25 every intermediate is at most two
    products of residues (or a residue times n < p) and one residue,
    below 2^51, so int64 holds it.
    """
    if p >= VECTOR_MODULUS_BOUND:
        raise LimitError(f"p={p} above the vector kernel bound")
    da = (ta * ta - ta) % p if tb is None else (ta * ta + tb * tb % p * n - ta) % p
    db = None if tb is None else tb * (2 * ta - 1) % p
    norm = da if tb is None else (da * da % p - db * db % p * n) % p
    if not norm.all():
        raise ValueError(f"singular Legendre parameter t in {{0, 1}} mod {p}")
    ninv = inv[norm]
    if tb is None:
        u = ninv + 1
        return 256 * (u * u % p * u % p) % p * da % p, None
    ua, ub = (da * ninv + 1) % p, (p - db) * ninv % p
    u2 = (ua * ua + ub * ub % p * n) % p, 2 * ua * ub % p
    ja, jb = fp2_mul(fp2_mul(u2, (ua, ub), p, n), (da, db), p, n)
    return 256 * ja % p, 256 * jb % p


def _orbit_scan(p: int) -> tuple[int, ...]:
    """Classify every orbit through the Lambda^- branch.

    A supersingular partner forces the other, so Lambda^- alone decides;
    the tests check the Lambda^+ branch against this on every lambda.  The
    representatives are the lambda equal to their own and come out sorted.
    A Lambda^- in {0, 1} raises before the sieve.

    The sieve drops a representative whose E = E_L, L = Lambda^-, is
    ordinary by one of lemmas A-D.  For p >= 5, E/F_p is supersingular
    exactly when #E(F_p) = p + 1, and (x0, y0) on y^2 = (x-e1)(x-e2)(x-e3)
    lies in 2E(K) exactly when every x0 - e_i is a square in K, 0 included
    (Knapp, "Elliptic Curves", 1992, Thm 4.2).  delta = lam^2 - lam + 1
    is a square exactly when L lies in F_p; squares are read from
    `_sqrt_table(p)`.
    A. p = 1 mod 4, delta a square: E[2] is rational, so 4 | #E(F_p), but
       p + 1 = 2 mod 4.
    B. p = 3 mod 8, delta and 1 - L squares: a supersingular E(F_p) =
       Z/n1 x Z/n2 with E[2] rational has 2 | n1 | gcd(p-1, p+1) = 2 (Weil
       pairing), so it is Z/2 x Z/((p+1)/2), (p+1)/2 = 2 mod 4, with no
       point of order 4; yet (1, 0), with differences 1, 0, 1 - L, halves.
    C. p = 7 mod 8, delta a square, 1 - L and L non-squares: as in B, a
       supersingular E(F_p) has 2-part Z/2 x Z/2^m, now with m >= 2,
       where exactly one 2-torsion point halves.  (0, 0) does not (-1 is
       a non-square), (1, 0) halves iff 1 - L is a square, and (L, 0),
       with differences L, L - 1, 0, iff L is and 1 - L is not.
    D. p = 3 mod 4, delta a non-square: sqrt(delta)^p = -sqrt(delta), so
       Frob_p maps E to E_{L^p} = E_{Lambda^+} and Frob_p o psi^+ =
       psi^- o Frob_p, psi^- being psi^+ with sqrt(delta) negated.  So
       beta = psi^+ o Frob_p is in End(E) with beta^2 = psi^+ o psi^- o pi
       = [-3] o pi, pi the p^2-Frobenius (isogenies.compose_is_minus3 checks
       psi^+ o psi^- = [-3]).  j(E) is not 1728 (L would be -1, 2 or 1/2,
       in F_p), nor, for p > 5, 0: L and L^p the roots of x^2 - x + 1 give
       L L^p = (1-lam)^4 = 1 and L + L^p = 2(1-lam)(2lam^2 - lam + 1) = 1,
       so lam = 2 and p | 15.  So Aut(E) = {+-1}, and a supersingular E
       would have pi = [+-p]; beta^2 = [3p] is impossible in a definite
       quaternion algebra, so pi = [p], and E(F_{p^2}) = E[p-1] has no
       point of order 4.  Yet (0, 0) halves over F_{p^2}, where -1 and
       -L = -(1-lam)(lam - sqrt(delta))^2 are squares.
    The sieve keeps 1/2 of the representatives at p = 1 mod 4, 1/4 at
    p = 3 mod 8 and 3/8 at p = 7 mod 8.  ss_p is evaluated at j(E) of each
    kept one by `_bsgs_eval`, exactly.  At p = 3 mod 4, D keeps only rows
    with delta a square, so L, j(E) and, ss_p having F_p coefficients,
    ss_p(j) lie in F_p: their b-lanes would be 0 throughout, and leaving
    them out changes no value.  The supersingular representatives
    are marked, and every lambda whose representative is marked is stamped.
    """
    check_modulus(p)
    if p >= VECTOR_MODULUS_BOUND:
        raise LimitError(f"p={p} above the vector kernel bound")
    lam = np.arange(2, p, dtype=np.int64)
    lam = lam[(lam * lam - lam + 1) % p != 0]
    if lam.size == 0:
        return ()
    inv = _inverse_table(p)
    # each lam's representative is the least of its six S3 images, from two
    # inverse reads: lam/(lam-1) = 1 - 1/(1-lam) and (lam-1)/lam = 1 - 1/lam,
    # and every image lies in [2, p-1], so 1 - v is p + 1 - v
    rep = np.minimum(lam, p + 1 - lam)
    for image in (inv[lam], inv[p + 1 - lam]):
        np.minimum(rep, image, out=rep)
        np.minimum(rep, p + 1 - image, out=rep)
    reps = lam[rep == lam]
    n = smallest_nonresidue(p)
    table = _sqrt_table(p)
    # the sieve: lemmas A-D; no row in F_p is dropped before the singular check
    if p % 4 == 1:
        la, lb = lambda_eps_pairs(reps, -1, p, n, table)
        keep = lb != 0  # A
    else:  # D leaves the rows with delta a square, whose Lambda^- lies in F_p
        root = table[(reps * reps - reps + 1) % p]
        reps = reps[root >= 0]
        la, lb = lambda_eps(reps, (root[root >= 0], None), -1, p)
        one_m = table[(1 - la) % p]
        keep = one_m == -1 if p % 8 == 3 else (one_m >= 0) | (table[la] >= 0)  # B, C
    if not ((la if lb is None else la[lb == 0]) >= 2).all():
        raise ValueError(f"singular Legendre parameter Lambda^- in {{0, 1}} mod {p}")
    del image, table  # p-sized; the kernel below holds the peak
    reps, la, lb = reps[keep], la[keep], lb if lb is None else lb[keep]
    acc = _bsgs_eval(*legendre_j(la, lb, p, n, inv), n, p, _supersingular_array(p))
    mark = np.zeros(p, dtype=bool)
    mark[reps[(acc[0] == 0) & (acc[-1] == 0)]] = True
    return tuple(lam[mark[rep]].tolist())


def _bsgs_eval(xa, xb, n: int, p: int, coeffs: np.ndarray) -> np.ndarray:
    """f(x) for each x = xa + xb*w in F_{p^2} = F_p[w]/(w^2 - n), exactly, as
    the stacked lanes (a, b), or (a,) for x = xa in F_p when xb is None.

    f has the ascending F_p coefficients `coeffs`, at most (p+1)/2 of them
    (ss_p in the scan, H_p in the tests).  Paterson-Stockmeyer: with the
    coefficients split into g blocks of k = isqrt(coeffs.size),
    f(x) = sum_j P_j(x) G^j, where P_j carries c_{jk} .. c_{jk+k-1} and
    G = x^k: one int64 matrix product per lane (the coefficients lie in
    F_p) gives the block values P_j(x), and g - 1 Horner passes in G follow.
    """
    k = isqrt(coeffs.size)
    g = -(-coeffs.size // k)
    # C[i, j] = c_{jk+i}, zero past the top coefficient
    c = np.zeros(g * k, dtype=np.int64)
    c[: coeffs.size] = coeffs
    return _bsgs_rows(xa, xb, n, p, c.reshape(g, k).T)


def _bsgs_rows(la, lb, n: int, p: int, c: np.ndarray) -> np.ndarray:
    """sum_j P_j(L) G^j for the rows' points L, with P_j(L) = sum_i c[i, j] L^i.

    L = la + lb*w, or L = la in F_p when lb is None.  The rows go through in
    chunks of at most BSGS_CHUNK_ELEMENTS entries per (rows, k) or (rows, g)
    matrix.  lb*n and G_b*n are reduced once per chunk, so a product takes
    one reduction per lane.  A baby step sums at most two products of
    residues, below 2^51 for p < VECTOR_MODULUS_BOUND; the block values stay
    unreduced, below k (p-1)^2, until a giant step (the first from 0) adds
    one to its products, below (k + 2)(p-1)^2 < 2^63.
    """
    k, g = c.shape
    step = max(1, BSGS_CHUNK_ELEMENTS // g)
    if la.size > step:
        rows = [slice(lo, lo + step) for lo in range(0, la.size, step)]
        return np.hstack([_bsgs_rows(la[r], lb if lb is None else lb[r], n, p, c) for r in rows])
    pair = lb is not None
    # baby steps: column i holds L^i, and column k the giant step G = L^k
    pow_a = np.empty((la.size, k + 1), dtype=np.int64)
    pow_a[:, 0] = 1
    if pair:
        lbn = lb * n % p
        pow_b = np.empty_like(pow_a)
        pow_b[:, 0] = 0
    for i in range(1, k + 1):
        ua = pow_a[:, i - 1]
        prod = ua * la
        if pair:
            prod += pow_b[:, i - 1] * lbn
            pow_b[:, i] = (ua * lb + pow_b[:, i - 1] * la) % p
        pow_a[:, i] = prod % p
    ga, block_a, acc_a = pow_a[:, k], pow_a[:, :k] @ c, 0
    if pair:
        gb, gbn = pow_b[:, k], pow_b[:, k] * n % p
        block_b, acc_b = pow_b[:, :k] @ c, 0
    for j in range(g - 1, -1, -1):
        prod = acc_a * ga + block_a[:, j]
        if pair:
            prod += acc_b * gbn
            acc_b = (acc_a * gb + acc_b * ga + block_b[:, j]) % p
        acc_a = prod % p
    return np.array((acc_a, acc_b) if pair else (acc_a,))


def psi_p_bruteforce(p: int) -> tuple[int, ...]:
    """Pure-python per-lambda scan, no orbit shortcut; oracle for the kernel."""
    out = []
    for lam in range(2, p):
        if delta_of(lam, p) == 0:
            continue
        if is_supersingular(LegendreCurve(lambda_pair(lam, p)[2], p)):
            out.append(lam)
    return tuple(out)


def psi_closed_form(p: int) -> int:
    """The predicted count by congruence class: (3/2)h(-3p), 0, or 3h(-p)."""
    cls = congruence_class(p)
    if cls == "1mod4":
        h = class_number(3 * p)
        if (3 * h) % 2:
            raise ArithmeticError(f"h(-3p) odd at p={p}")
        return 3 * h // 2
    if cls == "7mod12":
        return 0
    return 3 * class_number(p)


def psi_p(p: int) -> dict:
    """Scan all lambda, count superspecial members, attach the verdict.

    The row's keys are its JSON keys, in output order; `ok` is the
    closed-form verdict.
    """
    lambdas = superspecial_lambdas(p)
    psi = len(lambdas)
    # -p and -3p are only discriminants in the congruence classes the closed
    # form uses them in; the other rows report the field discriminant instead
    h_p = class_number(p) if p % 4 == 3 else class_number(4 * p)
    h_3p = class_number(3 * p) if p % 4 == 1 else class_number(12 * p)
    ok = psi == psi_closed_form(p)
    return {"p": p, "class": congruence_class(p), "psi": psi, "h_p": h_p,
            "h_3p": h_3p, "ok": ok, "lambdas": lambdas}

