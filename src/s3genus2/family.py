"""The genus-2 family side: Lambda pairs, orbits, and the count psi_p.

A member of the family is indexed by lambda in F_p minus {0, 1} and the
roots of lambda^2 - lambda + 1 (those parameters are singular).  The member
is superspecial exactly when the associated Legendre curve with parameter
Lambda^-(lambda) = (1-lambda)(lambda - sqrt(delta))^2 is supersingular; the
partner Lambda^+ then is too.  The scan classifies one representative per
S3-orbit and stamps the rest.

A sieve first drops the representatives whose E = E_{Lambda^-} the 2-power
torsion proves ordinary (Knapp, "Elliptic Curves", Thm 4.2: a point halves
exactly when its differences x - e_i are squares).  With delta = lambda^2 -
lambda + 1 and L = Lambda^-, E is ordinary when A: p = 1 mod 4, delta a
square; B: p = 3 mod 8, delta and 1 - L squares; C: p = 7 mod 8, delta a
square, 1 - L and L not; D: p = 3 mod 4, delta not a square.  A-C read
#E(F_p) = p + 1 against the rational 2-torsion, D the p^2-Frobenius
through psi^+ o Frob_p; `_orbit_scan` gives the proofs.

Supersingularity depends only on the j-invariant, so the scan maps every
kept representative's Lambda^- to j(E_{Lambda^-}) and evaluates the
supersingular polynomial ss_p(j) there.
ss_p has degree about p/12, against (p-1)/2 for the Deuring polynomial
H_p in Lambda; its coefficients come from the truncated hypergeometric
series of Kaneko-Zagier (1998), with the parameters (1/12, 5/12) for
p = 1 mod 4 and (7/12, 11/12) for p = 3 mod 4 (`_supersingular_array`).
The evaluation is an exact baby-step/giant-step (Paterson-Stockmeyer)
split: about sqrt(p/12) vector operations and two int64 matrix products
per prime.  The tests hold H_p at every lambda's Lambda^- (the same kernel
fed the Deuring coefficients), numpy Horner and the pure-python per-lambda
scan `psi_p_bruteforce` as oracles for it.  The per-prime set-up reads one
table of generator powers g^0 .. g^(p-2) (curves._power_table): the
coefficients come from its discrete logarithms and the inverse table,
which also inverts the norms in the j computation, from its reversal
(curves._inverse_table), so no p-sized exponentiation runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
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


@dataclass(frozen=True)
class LambdaRecord:
    """One family member: lambda, its discriminant data and the Lambda pair.

    sqrt_delta, lambda_minus and lambda_plus are (a, b) pairs over F_{p^2}.
    """

    lam: int
    p: int
    delta: int
    sqrt_delta: tuple[int, int]
    lambda_minus: tuple[int, int]
    lambda_plus: tuple[int, int]
    superspecial: bool


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

    root = (a, b) is sqrt(delta) in F_p[w]/(w^2 - n); Lambda^eps is linear
    in it, so n is not needed.  lam, root and eps may be ints or int64
    arrays: every intermediate is reduced while it is below 2p^2.
    """
    sa, sb = root
    one_m = (1 - lam) % p
    base = (2 * lam * lam - lam + 1) % p
    cross = eps * 2 * lam % p
    return one_m * ((base + cross * sa) % p) % p, one_m * (cross * sb % p) % p


def lambda_record(lam: int, p: int) -> LambdaRecord:
    """Build the record; the supersingularity test runs on E_{Lambda^-} only."""
    delta, s, minus, plus = lambda_pair(lam, p)
    ss = is_supersingular(LegendreCurve(minus, p))
    return LambdaRecord(lam % p, p, delta, s, minus, plus, ss)


def lambda_eps_pairs(
    lam: np.ndarray, eps, p: int, n: int, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
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


def legendre_j(
    ta: np.ndarray, tb: np.ndarray, p: int, n: int, inv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """j(E_t) = 256 (t^2 - t + 1)^3 / (t(t - 1))^2 for each t = ta + tb*w.

    With D = t^2 - t this is 256 D (1 + 1/D)^3.  1/D goes through the norm
    D_a^2 - n D_b^2, inverted by a read of the F_p inverse table `inv`
    (curves._inverse_table); n is a non-residue, so the norm vanishes only
    at D = 0, that is t in {0, 1}, which raises.  D and u^2 are each one
    F_{p^2} squaring, (a + b w)^2 = (a^2 + n b^2) + 2ab w.
    Below VECTOR_MODULUS_BOUND = 2^25 every intermediate is at most two
    products of residues (or a residue times n < p) and one residue,
    below 2^51, so int64 holds it.
    """
    if p >= VECTOR_MODULUS_BOUND:
        raise LimitError(f"p={p} above the vector kernel bound")
    da = (ta * ta + tb * tb % p * n - ta) % p
    db = tb * (2 * ta - 1) % p
    norm = (da * da % p - db * db % p * n) % p
    if not norm.all():
        raise ValueError(f"singular Legendre parameter t in {{0, 1}} mod {p}")
    ninv = inv[norm]
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
    kept one by `_bsgs_eval`, exactly.  The supersingular representatives
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
    la, lb = lambda_eps_pairs(reps, -1, p, n, table)
    # the sieve: lemmas A-D, after the singular check has seen every row
    rational = lb == 0
    if not (la[rational] >= 2).all():
        raise ValueError(f"singular Legendre parameter Lambda^- in {{0, 1}} mod {p}")
    if p % 4 == 1:
        keep = lb != 0  # A
    elif p % 8 == 3:
        keep = rational & (table[(1 - la) % p] == -1)  # B, D
    else:
        keep = rational & ((table[(1 - la) % p] >= 0) | (table[la] >= 0))  # C, D
    del image, table  # p-sized; the kernel below holds the peak
    reps, la, lb = reps[keep], la[keep], lb[keep]
    ja, jb = legendre_j(la, lb, p, n, inv)
    acc_a, acc_b = _bsgs_eval(ja, jb, n, p, _supersingular_array(p))
    mark = np.zeros(p, dtype=bool)
    mark[reps[(acc_a == 0) & (acc_b == 0)]] = True
    return tuple(lam[mark[rep]].tolist())


def _bsgs_eval(
    xa: np.ndarray, xb: np.ndarray, n: int, p: int, coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """f(x) for each x = xa + xb*w in F_{p^2} = F_p[w]/(w^2 - n), exactly.

    f has the ascending F_p coefficients `coeffs`, at most (p+1)/2 of them
    (ss_p in the scan, H_p in the tests).  Paterson-Stockmeyer: with the
    coefficients split into g blocks of k = isqrt(coeffs.size),
    f(x) = sum_j P_j(x) G^j, where P_j carries c_{jk} .. c_{jk+k-1} and
    G = x^k.  The block values P_j(x) for all x are one int64 matrix
    product per F_{p^2} component (the coefficients lie in F_p); the giant
    steps are g - 1 Horner passes in G, each adding its block value
    unreduced.  A giant step stays below (k + 2)(p-1)^2, which
    VECTOR_MODULUS_BOUND keeps under 2^63.  The points go
    through in row chunks, so the (rows, k) and (rows, g) matrices hold at
    most BSGS_CHUNK_ELEMENTS entries each.
    """
    k = isqrt(coeffs.size)
    g = -(-coeffs.size // k)
    # C[i, j] = c_{jk+i}, zero past the top coefficient
    c = np.zeros(g * k, dtype=np.int64)
    c[: coeffs.size] = coeffs
    c = c.reshape(g, k).T
    acc_a = np.empty_like(xa)
    acc_b = np.empty_like(xb)
    step = max(1, BSGS_CHUNK_ELEMENTS // g)
    for lo in range(0, xa.size, step):
        rows = slice(lo, lo + step)
        acc_a[rows], acc_b[rows] = _bsgs_rows(xa[rows], xb[rows], n, p, c)
    return acc_a, acc_b


def _bsgs_rows(
    la: np.ndarray, lb: np.ndarray, n: int, p: int, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """sum_j P_j(L) G^j for the rows' points L, with P_j(L) = sum_i c[i, j] L^i.

    lb*n and G_b*n are reduced once per chunk, so every F_{p^2} product
    below takes two reductions, one per component.  A baby step sums two
    products of residues, below 2(p-1)^2 < 2^51 for p < VECTOR_MODULUS_BOUND.
    The block values stay unreduced, below k (p-1)^2, until a giant step
    adds one to its two products of residues, below (k + 2)(p-1)^2 < 2^63.
    """
    k, g = c.shape
    lbn = lb * n % p
    # baby steps: column i holds L^i
    pow_a = np.empty((la.size, k), dtype=np.int64)
    pow_b = np.empty_like(pow_a)
    pow_a[:, 0], pow_b[:, 0] = 1, 0
    for i in range(1, k):
        ua, ub = pow_a[:, i - 1], pow_b[:, i - 1]
        pow_a[:, i] = (ua * la + ub * lbn) % p
        pow_b[:, i] = (ua * lb + ub * la) % p
    ua, ub = pow_a[:, k - 1], pow_b[:, k - 1]
    ga, gb = (ua * la + ub * lbn) % p, (ua * lb + ub * la) % p
    gbn = gb * n % p
    block_a = pow_a @ c
    block_b = pow_b @ c
    acc_a, acc_b = block_a[:, g - 1] % p, block_b[:, g - 1] % p
    for j in range(g - 2, -1, -1):
        acc_a, acc_b = (
            (acc_a * ga + acc_b * gbn + block_a[:, j]) % p,
            (acc_a * gb + acc_b * ga + block_b[:, j]) % p,
        )
    return acc_a, acc_b


def psi_p_bruteforce(p: int) -> tuple[int, ...]:
    """Pure-python per-lambda scan, no orbit shortcut; oracle for the kernel."""
    out = []
    for lam in range(2, p):
        if delta_of(lam, p) == 0:
            continue
        if lambda_record(lam, p).superspecial:
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


# ---------------------------------------------------------------------------
# the 3-torsion correspondence polynomials of the p = 11 mod 12 branch

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
