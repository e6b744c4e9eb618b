"""Desk-scale averages of superspecial prime counts over parameter windows.

phi(lambda, X) counts the primes p < X at which the member indexed by the
rational lambda is superspecial.  The window sums swap the order of
summation: for each prime, the admissible window members congruent to a
superspecial residue are counted exactly (integer windows by a floor count
per residue, rational-height windows by a Moebius/floor-sum lattice count),
and the totals are compared against the closed-form constants
(6 + 4 sqrt(3)) pi / 9 and 4 (3 + 2 sqrt(3)) / (3 pi), both times
sqrt(X)/log X.

The CLI's predicted/ratio columns report that leading term.  It is only the
leading-order expansion of the main term, the prime sum
constant * sum_{5 <= p < X} 1/(2 sqrt(p)) (prime_sum_prediction), whose next
order is a factor 1 + 2/log X: the prime sum exceeds the leading term by a
factor of 1.24 at X = 10^3, 1.28 at 10^4 and still 1.21 at 10^6.  The prime
sum is the finite-X reference for judging a window average.

The rational count is one vectorised pass: per prime, the Moebius blocks
with a nonzero weight are paired with the superspecial residues, and the
two floor sums of every pair go through the int64 numpy kernel
_floor_sum_vec (the AtCoder Library floor_sum reduction, masked across
lanes) in chunks of FLOOR_SUM_CHUNK lanes.  The tests keep the scalar
per-residue floor-sum loop as its oracle, beside window_sum_bruteforce.

Skip conventions: bad reduction (p divides the denominator) and degenerate
residues (lambda = 0, 1 mod p or delta = 0 mod p) are skipped, not counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .family import delta_of, superspecial_lambdas

INTEGER_WINDOW_CONSTANT = (6 + 4 * math.sqrt(3)) * math.pi / 9
RATIONAL_HEIGHT_CONSTANT = 4 * (3 + 2 * math.sqrt(3)) / (3 * math.pi)

MAX_X_BUDGET = 50_000
MAX_N_BUDGET = 10_000_000
# floor-sum lanes per pass of the rational window count (two per pair); it
# bounds the kernel's working set to a few 16 KB int64 buffers at any N
FLOOR_SUM_CHUNK = 1 << 11

SKIP_CONVENTIONS = (
    "skipped: p | denominator (bad reduction); lambda = 0, 1 (mod p); "
    "lambda^2 - lambda + 1 = 0 (mod p)"
)


def _mode_constant(mode: str) -> float:
    if mode == "integer":
        return INTEGER_WINDOW_CONSTANT
    if mode == "rational":
        return RATIONAL_HEIGHT_CONSTANT
    raise ValueError(f"unknown mode {mode!r}")


class BudgetError(ValueError):
    """A run was asked for that exceeds the configured desk-scale budget."""


@lru_cache(maxsize=None)
def primes_below(X: int) -> tuple[int, ...]:
    if X <= 5:
        return ()
    sieve = bytearray([1]) * X
    sieve[0:2] = b"\x00\x00"
    for n in range(2, math.isqrt(X - 1) + 1):
        if sieve[n]:
            sieve[n * n :: n] = b"\x00" * len(range(n * n, X, n))
    return tuple(n for n in range(5, X) if sieve[n])


def prime_sum_prediction(X: int, mode: str = "integer") -> float:
    """The main term constant * sum_{5 <= p < X} 1/(2 sqrt(p)) of the
    normalized window total; constant * sqrt(X)/log X is its leading term."""
    return _mode_constant(mode) * math.fsum(1 / (2 * math.sqrt(p)) for p in primes_below(X))


@lru_cache(maxsize=None)
def _superspecial_set(p: int) -> frozenset[int]:
    return frozenset(superspecial_lambdas(p))


def is_degenerate_rational(numerator: int, denominator: int) -> bool:
    """lambda = 0 and lambda = 1 index singular members at every prime."""
    return numerator == 0 or numerator == denominator


def phi_lambda(numerator: int, denominator: int, X: int) -> int:
    """#{5 <= p < X : the member at numerator/denominator is superspecial}.

    The fraction is reduced; degenerate lambda (0 or 1) counts no primes.
    """
    if denominator == 0:
        raise ZeroDivisionError("lambda must be a rational number")
    if denominator < 0:
        numerator, denominator = -numerator, -denominator
    g = math.gcd(numerator, denominator)
    if g:
        numerator //= g
        denominator //= g
    if is_degenerate_rational(numerator, denominator):
        return 0
    count = 0
    for p in primes_below(X):
        if denominator % p == 0:
            continue
        lam = numerator * pow(denominator, -1, p) % p
        if lam in (0, 1) or delta_of(lam, p) == 0:
            continue
        if lam in _superspecial_set(p):
            count += 1
    return count


@dataclass(frozen=True)
class AverageRun:
    X: int
    N: int
    mode: str
    total: int
    normalized: float
    predicted: float
    ratio: float

    CSV_HEADER = "mode,X,N,total,normalized,predicted,ratio"

    def to_csv_row(self) -> str:
        return (
            f"{self.mode},{self.X},{self.N},{self.total},"
            f"{self.normalized:.6f},{self.predicted:.6f},{self.ratio:.6f}"
        )

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "X": self.X,
            "N": self.N,
            "total": self.total,
            "normalized": round(self.normalized, 6),
            "predicted": round(self.predicted, 6),
            "ratio": round(self.ratio, 6),
        }


def _count_integers_in_window(N: int, residue: int, p: int) -> int:
    """#{lambda in [-N, N] : lambda = residue (mod p)} for 0 <= residue < p."""
    return (N - residue) // p + (N + residue) // p + 1


@lru_cache(maxsize=4)
def _mertens_table(N: int) -> np.ndarray:
    """Mertens sums M(0), ..., M(N) as int64 (M(0) = 0)."""
    mu = [0] * (N + 1)
    mu[1] = 1
    primes = []
    is_comp = [False] * (N + 1)
    smallest = [0] * (N + 1)
    for n in range(2, N + 1):
        if not is_comp[n]:
            primes.append(n)
            mu[n] = -1
            smallest[n] = n
        for q in primes:
            if q * n > N or q > smallest[n]:
                break
            is_comp[q * n] = True
            smallest[q * n] = q
            mu[q * n] = 0 if n % q == 0 else -mu[n]
    return np.cumsum(mu, dtype=np.int64)


def _floor_sum_vec(n, a, b, m) -> np.ndarray:
    """sum_{i=0}^{n-1} floor((a*i + b) / m) per lane, exactly, as int64.

    The Euclid-like reduction of the AtCoder Library floor_sum, run on all
    lanes at once.  numpy's divmod floors, so its first b // m already
    shifts a negative b up to b mod m and adds n * floor(b/m).  A lane that
    finishes has n = 0 from then on, so it adds nothing while the others
    run on; its m is reset to 1 so that it divides safely (lanes are masked,
    not compacted).  The inputs are copied, not written.

    int64 bound: the window count calls this with n <= MAX_N_BUDGET,
    m = p < MAX_X_BUDGET, 0 <= a < m and |b| < 2m.  Then y = a*n + b stays
    below m*(n + 2) < 2^39, and each lane's sum is at most n(n + 1)/2 < 2^46;
    the shift term n*floor(b/m), the partial sums and the reduced n, a, b, m
    of later rounds are no larger, so every intermediate is far below 2^63.
    """
    n, a, b, m = (np.array(x, dtype=np.int64) for x in (n, a, b, m))
    total = np.zeros_like(n)
    t = np.empty_like(n)
    y = np.empty_like(n)
    done = np.empty(n.shape, dtype=bool)
    while True:
        np.divmod(a, m, out=(t, a))
        np.subtract(n, 1, out=y)
        y *= n
        y >>= 1
        y *= t
        total += y
        np.divmod(b, m, out=(t, b))
        t *= n
        total += t
        np.multiply(a, n, out=y)
        y += b
        np.less(y, m, out=done)
        if done.all():
            return total
        np.divmod(y, m, out=(n, b))
        a, m = m, a
        np.putmask(m, done, 1)


def _mertens_coprime(x: np.ndarray, p: int, table: np.ndarray) -> np.ndarray:
    """sum of mu(d) over d <= x with p not dividing d, for ascending x."""
    total = table[x]
    x = x // p
    while x[-1]:
        total += table[x]
        x //= p
    return total


def _count_pairs(pairs: np.ndarray) -> int:
    """Weighted lattice counts of one chunk of (M, s, p, weight) columns.

    Per pair, the points (a, b) with 1 <= a <= M, p !| a, |b| <= M and
    b = s*a (mod p): 2 (M - q) q - q in whole periods, q = M // p, plus
    F(M, s, s + r, p) - F(M, s, s - r - 1, p) for the remainder r = M mod p,
    F the floor sum.  Both floor sums of every pair go through one
    `_floor_sum_vec` pass.  The weighted sum fits int64: a count is at most
    M (2M + 1) and a weight at most its block's length N/(M(M+1)) + 1, so a
    pair adds at most 2N + N(2N + 1) and a chunk stays below 2^58.
    """
    M, s, p, weight = pairs
    q, r = np.divmod(M, p)
    floors = _floor_sum_vec(
        np.concatenate((M, M)),
        np.concatenate((s, s)),
        np.concatenate((s + r, s - r - 1)),
        np.concatenate((p, p)),
    )
    h = M.size
    count = floors[:h] - floors[h:] + (2 * (M - q) - 1) * q
    return int(weight @ count)


def _rational_window_total(X: int, N: int) -> int:
    """#{(p, b/a) : 5 <= p < X, b/a reduced, 1 <= a <= N, |b| <= N, the
    member at b/a superspecial mod p}, by Moebius inversion over gcd(a, b).

    The d with the same M = N // d form a block, whose weight at p is the
    sum of mu(d) over its d prime to p.  Every (block, superspecial residue)
    pair with a nonzero weight counts the lattice points of height at most
    M on the residue's line.  The pairs of all primes are laid out into one
    fixed buffer of FLOOR_SUM_CHUNK // 2 pairs and counted a full buffer at
    a time.
    """
    table = _mertens_table(N)
    ends = [0]  # ends[i] is the last d of block i, ends[0] = 0
    while ends[-1] < N:
        ends.append(N // (N // (ends[-1] + 1)))
    ends = np.array(ends, dtype=np.int64)
    heights = N // ends[1:]
    buf = np.empty((4, FLOOR_SUM_CHUNK // 2), dtype=np.int64)
    held = 0
    total = 0
    for p in primes_below(X):
        residues = np.fromiter(_superspecial_set(p), dtype=np.int64)
        if not residues.size:
            continue
        weight = np.diff(_mertens_coprime(ends, p, table))
        nonzero = weight != 0
        M, w = heights[nonzero], weight[nonzero]
        k = residues.size
        lo, stop = 0, M.size * k
        while lo < stop:
            take = min(buf.shape[1] - held, stop - lo)
            block, res = np.divmod(np.arange(lo, lo + take), k)
            cols = buf[:, held : held + take]
            np.take(M, block, out=cols[0])
            np.take(residues, res, out=cols[1])
            cols[2] = p
            np.take(w, block, out=cols[3])
            held += take
            lo += take
            if held == buf.shape[1]:
                total += _count_pairs(buf)
                held = 0
    return total + _count_pairs(buf[:, :held])


def _cost_estimate(X: int, N: int, mode: str) -> str:
    """The work of window_sum(X, N, mode), stage by stage.

    The scan of a prime p takes two (p/6 x k) @ (k x p/(2k)) int64 products,
    about p^2/6 multiply-adds, and finds about sum_p psi_p = 0.8 X^1.5/ln X
    superspecial residues below X (0.78-0.81 measured at X = 300..3000).  The
    rational count runs two floor-sum lanes per (residue, Moebius block)
    pair, with at most 2 sqrt(N) blocks.
    """
    log_x = math.log(max(X, 3))
    cost = (f"~{X**3 / (18 * log_x):.1e} int64 multiply-adds in the per-prime "
            "baby-step/giant-step scans (X^3/(18 ln X))")
    residues = 0.8 * X**1.5 / log_x
    if mode == "rational":
        return cost + (f", then ~{4 * math.sqrt(N) * residues:.1e} floor-sum lanes "
                       "in the rational window count (3.2 sqrt(N) X^1.5/ln X)")
    return cost + f", then ~{residues:.1e} residue counts (0.8 X^1.5/ln X)"


def check_budget(X: int, N: int, mode: str) -> None:
    """Raise BudgetError, with a cost estimate, if (X, N) is over budget."""
    if X > MAX_X_BUDGET or N > MAX_N_BUDGET:
        raise BudgetError(
            f"X={X}, N={N} exceeds the desk budget "
            f"(X <= {MAX_X_BUDGET}, N <= {MAX_N_BUDGET}); "
            f"estimated cost {_cost_estimate(X, N, mode)}"
        )


def window_sum(X: int, N: int, mode: str = "integer") -> AverageRun:
    """Exact swapped-order window total with the predicted comparison.

    integer mode counts lambda in [-N, N]; rational mode counts each
    rational of height at most N once (reduced b/a, a >= 1).
    """
    constant = _mode_constant(mode)
    check_budget(X, N, mode)
    total = 0
    if mode == "integer":
        for p in primes_below(X):
            for s in _superspecial_set(p):
                total += _count_integers_in_window(N, s, p)
        normalized = total / N
    else:
        total = _rational_window_total(X, N)
        normalized = total / (N * N)
    predicted = constant * math.sqrt(X) / math.log(X)
    return AverageRun(X, N, mode, total, normalized, predicted, normalized / predicted)


def window_sum_bruteforce(X: int, N: int, mode: str = "integer") -> int:
    """Direct double loop over (lambda, p); the exactness oracle."""
    total = 0
    if mode == "integer":
        for lam in range(-N, N + 1):
            total += phi_lambda(lam, 1, X)
    else:
        for a in range(1, N + 1):
            for b in range(-N, N + 1):
                if math.gcd(a, abs(b)) == 1:
                    total += phi_lambda(b, a, X)
    return total


def default_window(X: int) -> int:
    """N = ceil(X^1.1), honoring the N > X regime of the asymptotic averages."""
    return math.ceil(X**1.1)


def convergence_table(X_list, N_rule=None, mode: str = "integer") -> list[AverageRun]:
    """One AverageRun per X, ascending, sharing the per-prime scan cache."""
    if N_rule is None:
        N_rule = default_window
    return [window_sum(X, N_rule(X), mode) for X in sorted(X_list)]
