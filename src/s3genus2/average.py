"""Desk-scale averages of superspecial prime counts over parameter windows.

phi(lambda, X) counts the primes p < X at which the member indexed by the
rational lambda is superspecial.  The window sums swap the order of
summation: for each prime, the admissible window members congruent to a
superspecial residue are counted exactly (integer windows by a floor count
per residue, rational-height windows by a Moebius-weighted lattice count
from a key histogram), and the totals are compared against the closed-form
constants (6 + 4 sqrt(3)) pi / 9 and 4 (3 + 2 sqrt(3)) / (3 pi), both
times sqrt(X)/log X.

The CLI's predicted/ratio columns report that leading term.  It is only the
leading-order expansion of the main term, the prime sum
constant * sum_{5 <= p < X} 1/(2 sqrt(p)), whose next order is a factor
1 + 2/log X: the prime sum exceeds the leading term by a factor of 1.24 at
X = 10^3, 1.28 at 10^4 and still 1.21 at 10^6.  The prime sum is the finite-X
reference for judging a window average; no command reports it, so it lives
in the tests (prime_sum_prediction in tests/paper_oracle.py), where
acceptance criterion 14(b) reads it.

The rational count is one vectorised pass over a whole table of windows
(window_sums; window_sum is its one-window case).  For a height
M = q p + r (0 <= r < p) the lattice points on the line of a residue s
number 2 q^2 (p - 1) + 4 q r + C_s(r), where C_s(r) counts the a <= r
whose keys max(a, +-s a mod p) are at most r (_height_counts).  So per
prime one np.bincount of the keys of the superspecial residues
s <= 1/s (mod p), a slice of KEY_CHUNK p keys at a time, and one cumsum
give the count at every block height with a nonzero Moebius weight in
some window, by lookup.  A height shared by several windows is counted
once and weighted by each window; the extra memory is linear in the
windows' Moebius blocks, plus one p-sized histogram.  The lines of s and
1/s hold equally many points, so a residue pair is counted once with
weight 2 (see _rational_window_totals).  The tests keep the scalar
per-residue floor-sum loop, over every residue, as its oracle, beside
window_sum_bruteforce.

Skip conventions: bad reduction (p divides the denominator) and degenerate
residues (lambda = 0, 1 mod p or delta = 0 mod p) are skipped, not counted.

window_sums refuses a table with an (X, N) over the desk budget before any
prime is scanned (limits.check_budget, which prices the run stage by stage).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .family import superspecial_lambdas
from .limits import check_budget

INTEGER_WINDOW_CONSTANT = (6 + 4 * math.sqrt(3)) * math.pi / 9
RATIONAL_HEIGHT_CONSTANT = 4 * (3 + 2 * math.sqrt(3)) / (3 * math.pi)

# histogram keys per pass of the rational window count (two per residue and
# a), per bin of the prime's p-sized histogram: a pass's bincount then costs a
# small share of the pass, and its working set stays a few times the
# histogram's: 40 KB int64 buffers at p < 610, 3 MB ones at p < 50,000
KEY_CHUNK = 8

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
    # lambda = 0 and lambda = 1 index singular members at every prime
    if numerator == 0 or numerator == denominator:
        return 0
    count = 0
    for p in primes_below(X):
        if denominator % p == 0:
            continue
        # an inadmissible lambda is never in the superspecial set
        if numerator * pow(denominator, -1, p) % p in superspecial_lambdas(p):
            count += 1
    return count


@dataclass(frozen=True)
class AverageRun:
    """One `average` row; the fields are its columns, in output order."""

    mode: str
    X: int
    N: int
    total: int
    normalized: float
    predicted: float
    ratio: float


def _count_integers_in_window(N: int, residue: int, p: int) -> int:
    """#{lambda in [-N, N] : lambda = residue (mod p)} for 0 <= residue < p."""
    return (N - residue) // p + (N + residue) // p + 1


@lru_cache(maxsize=4)
def _mertens_table(N: int) -> np.ndarray:
    """Mertens sums M(0), ..., M(N) as int64 (M(0) = 0), by a Moebius sieve.

    For each prime q <= sqrt(N) every multiple of q is multiplied by -q and
    every multiple of q^2 is zeroed.  Then mu[n] is 0 when n is not
    squarefree, and otherwise the signed product of n's primes up to
    sqrt(N).  Its absolute value falls short of n exactly when n has one
    prime factor above sqrt(N) (two would exceed N), and that factor flips
    the sign.  A q in the loop is prime iff mu[q] is still 1: a composite q
    has a smaller prime factor, which already changed it.  No entry
    exceeds N in absolute value.
    """
    mu = np.ones(N + 1, dtype=np.int64)
    mu[0] = 0
    for q in range(2, math.isqrt(N) + 1):
        if mu[q] != 1:
            continue
        mu[q::q] *= -q
        mu[q * q :: q * q] = 0
    large = np.abs(mu) < np.arange(N + 1)
    np.sign(mu, out=mu)
    mu[large] *= -1
    return np.cumsum(mu, out=mu)


def _mertens_coprime(x: np.ndarray, p: int, table: np.ndarray) -> np.ndarray:
    """sum of mu(d) over d <= x with p not dividing d, for each x >= 0."""
    total = table[x]
    x = x // p
    while x.max():
        total += table[x]
        x //= p
    return total


def _height_counts(M: np.ndarray, residues: np.ndarray, p: int) -> np.ndarray:
    """Per height in M, the weighted lattice counts of the residues at the
    prime p, as int64: the sum over s of w_s #{(a, b) : 1 <= a <= M,
    p !| a, |b| <= M, b = s a (mod p)}, with w_s = 2 and w_{p-1} = 1 (the
    residues ascend, so s = p - 1 comes last).

    Write M = q p + r with 0 <= r < p.  For p !| a let t = s a mod p; the
    b in [-M, M] with b = t (mod p) number 2q + [t <= r] + [p - t <= r].
    The a <= M prime to p fill q whole periods, in each of which t takes
    every value 1..p-1 once and the brackets add 2r, and then a = 1..r
    (shifted by q p).  So the 2q of all q (p - 1) + r such a, the periods'
    2r each and the brackets of a = 1..r give

        2 q^2 (p - 1) + 4 q r + C_s(r),
        C_s(r) = #{1 <= a <= r : max(a, t) <= r} + #{1 <= a <= r : max(a, p - t) <= r}.

    Every r is at most L = min(p - 1, max M), so C_s is read off the
    histogram of the 2L keys max(a, t), max(a, p - t) for a = 1..L: its
    cumsum at r.  One weighted histogram over all the residues, built a
    slice of a at a time with at most KEY_CHUNK p keys per pass (k
    residues, 2k < p, take 2k keys per a), gives every height's count by
    one lookup.  The memory
    is the p-sized histogram and one pass's keys.

    int64 bound: s a <= (p - 1)^2 < 2^32 for p < MAX_X_BUDGET (`limits`).
    The lines of distinct residues share no point with p !| a, so a
    height's weighted sum (each pair {s, 1/s} holds twice the points of
    one line) is at most the 2 (q (p - 1) + r)^2 points of its box off
    b = 0 mod p, below 2 M^2 < 2^48 for M <= MAX_N_BUDGET; the whole
    periods' term is no larger, and a cumsum no larger than the sum.
    """
    k = residues.size
    pairs = k - int(residues[-1] == p - 1)
    L = min(p - 1, int(M.max()))
    hist = np.zeros(p, dtype=np.int64)
    step = KEY_CHUNK * p // (2 * k)
    for lo in range(1, L + 1, step):
        a = np.arange(lo, min(lo + step, L + 1), dtype=np.int64)
        t = np.multiply.outer(residues, a)
        t -= t // p * p  # numpy divides by a scalar faster than it takes t % p
        keys = np.empty((k, 2, a.size), dtype=np.int64)
        np.maximum(t, a, out=keys[:, 0])
        np.subtract(p, t, out=t)
        np.maximum(t, a, out=keys[:, 1])
        hist += 2 * np.bincount(keys[:pairs].ravel(), minlength=p)
        if pairs < k:
            hist += np.bincount(keys[pairs:].ravel(), minlength=p)
    q, r = np.divmod(M, p)
    return (k + pairs) * (2 * q * q * (p - 1) + 4 * q * r) + np.cumsum(hist)[r]


def _rational_window_totals(windows) -> list[int]:
    """Per window (X, N): #{(p, b/a) : 5 <= p < X, b/a reduced, 1 <= a <= N,
    |b| <= N, the member at b/a superspecial mod p}, by Moebius inversion
    over gcd(a, b).

    The d with the same M = N // d form a block of the window, whose weight
    at p is the sum of mu(d) over its d prime to p.  A window counts, per
    prime below its X and per block with a nonzero weight, the lattice
    points of height at most M on the line of every superspecial residue.
    Those counts do not depend on the window, so one pass serves every
    window: the windows' block ends are concatenated by descending X, and
    at each prime one Mertens pass over the ends of the windows whose X
    exceeds p (a prefix) gives every block's weight, the differences across
    a window boundary dropped.  The heights with a nonzero weight are
    marked, and their counts, summed over the residues, come from one key
    histogram of the prime (_height_counts): on the line of s the count at
    M = q p + r is 2 q^2 (p - 1) + 4 q r + C_s(r), and the histogram's
    cumsum at r holds C_s(r).  One np.add.reduceat of the weights times
    those counts gives every window's total at p.  Beside the Mertens table
    of the largest N, the memory is linear in the windows' blocks (at most
    2 sqrt(N) each), plus the histogram's p-sized int64 arrays and one pass
    of at most KEY_CHUNK p keys.

    Only the residues s <= 1/s (mod p) are counted, with weight 2 unless
    s = 1/s.  On the box 1 <= a <= M, 1 <= |b| <= M the bijection
    (a, b) -> (|b|, sgn(b) a) maps the line b = s a to the line b = a/s; it
    keeps p !| a (on a line with s != 0, p | a iff p | b), a counted point
    never has b = 0, and gcd(a, b) is unchanged, so the Moebius blocks are
    too.  S_p is a union of S3 orbits, each holding 1/lambda with lambda,
    so it is closed under s -> 1/s; an ArithmeticError is raised if not.
    The one self-inverse admissible residue is s = p - 1 (s = 1 is not
    admissible).

    int64 bound: a height's sum over the residues, pairs weighted 2, counts
    each point of its box at most once, so it is below 2 M^2 < 2^48
    (_height_counts).  A weight is at most its block's length, so a window's
    sum at one prime is at most sum_{d <= N} (N/d)(2N/d + 1)
    < 3.3 N^2 + N (ln N + 1), below 2^49 for N <= MAX_N_BUDGET.
    """
    table = _mertens_table(max(N for _, N in windows))
    # by descending X, each window's block ends from a 0 and its blocks' places among
    # the heights; cuts holds its X and the lengths of both lists up to its end
    order = sorted(range(len(windows)), key=lambda i: -windows[i][0])
    index, ends, at, cuts = {}, [], [], []
    for i in order:
        X, N = windows[i]
        ends.append(0)
        while ends[-1] < N:
            ends.append(N // (N // (ends[-1] + 1)))
            at.append(index.setdefault(N // ends[-1], len(index)))
        cuts.append((X, len(ends), len(at)))
    ends, at = np.array(ends, dtype=np.int64), np.array(at, dtype=np.intp)
    starts = np.array([0] + [b for _, _, b in cuts[:-1]], dtype=np.intp)
    heights = np.array(list(index), dtype=np.int64)
    totals = [0] * len(windows)
    for p in primes_below(cuts[0][0]):
        lambdas = superspecial_lambdas(p)
        inverse = {s: pow(s, -1, p) for s in lambdas}
        if not inverse.keys() >= set(inverse.values()):
            raise ArithmeticError(f"superspecial set mod {p} is not closed under 1/s")
        residues = np.array(sorted(s for s in lambdas if s <= inverse[s]), dtype=np.int64)
        if not residues.size:
            continue
        live = sum(X > p for X, _, _ in cuts)
        _, e, b = cuts[live - 1]
        weight = np.diff(_mertens_coprime(ends[:e], p, table))[ends[1:e] != 0]
        marked = np.zeros(heights.size, dtype=bool)
        marked[at[:b][weight != 0]] = True
        sums = np.zeros(heights.size, dtype=np.int64)
        sums[marked] = _height_counts(heights[marked], residues, p)
        window_totals = np.add.reduceat(weight * sums[at[:b]], starts[:live])
        for i, total in zip(order, window_totals.tolist()):
            totals[i] += total
    return totals


def window_sums(windows, mode: str = "integer") -> list[AverageRun]:
    """The window_sum rows of a table of windows (X, N), in the given order.

    Every window is checked against the desk budget before any is counted;
    the rational totals of all windows come from one shared count
    (_rational_window_totals).
    """
    constant = _mode_constant(mode)
    for X, N in windows:
        check_budget(X, N, mode)
    if mode == "integer":
        totals = [
            sum(_count_integers_in_window(N, s, p)
                for p in primes_below(X) for s in superspecial_lambdas(p))
            for X, N in windows
        ]
    else:
        totals = _rational_window_totals(windows)
    runs = []
    for (X, N), total in zip(windows, totals):
        normalized = total / (N if mode == "integer" else N * N)
        predicted = constant * math.sqrt(X) / math.log(X)
        runs.append(AverageRun(mode, X, N, total, normalized, predicted, normalized / predicted))
    return runs


def window_sum(X: int, N: int, mode: str = "integer") -> AverageRun:
    """Exact swapped-order window total with the predicted comparison.

    integer mode counts lambda in [-N, N]; rational mode counts each
    rational of height at most N once (reduced b/a, a >= 1).
    """
    return window_sums([(X, N)], mode)[0]


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
