"""Tests for the window averages: exactness against the double loop and
the scalar floor-sum path, the closed-form constants, and the counting
helpers."""

import math
import random
from dataclasses import asdict

import numpy as np
import pytest

from s3genus2 import average
from s3genus2.average import (
    FLOOR_SUM_CHUNK,
    INTEGER_WINDOW_CONSTANT,
    RATIONAL_HEIGHT_CONSTANT,
    AverageRun,
    _floor_sum_vec,
    _mertens_table,
    default_window,
    phi_lambda,
    prime_sum_prediction,
    primes_below,
    window_sum,
    window_sum_bruteforce,
    window_sums,
)
from s3genus2.cli import AVERAGE_COLUMNS, _line
from s3genus2.family import superspecial_lambdas
from s3genus2.limits import MAX_N_BUDGET, MAX_X_BUDGET, LimitError


# The scalar rational-window path: one python floor sum at a time, per
# Moebius block and residue.  It is the oracle of the vectorised count.


def _floor_sum(n: int, a: int, b: int, m: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b) / m), exactly (handles negative b)."""
    total = 0
    if b < 0:
        shift = (-b + m - 1) // m
        total -= n * shift
        b += shift * m
    while True:
        if a >= m:
            total += (n - 1) * n // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b, m, a = y_max // m, y_max % m, a, m


def _count_residue_band(R: int, s: int, p: int, lo_shift: int) -> int:
    """#{r in [1, R] : (s*r mod p) + lo_shift >= p}  (a cyclic band count)."""
    return _floor_sum(R, s, s + lo_shift, p) - _floor_sum(R, s, s, p)


def mertens_table_oracle(N: int) -> np.ndarray:
    """M(0), ..., M(N) from a pure-python linear sieve of mu; the oracle of
    the numpy Moebius sieve `average._mertens_table`."""
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


def _mertens_coprime(x: int, p: int, table) -> int:
    """sum of mu(d) over d <= x with p not dividing d."""
    total = 0
    while x >= 1:
        total += table[x]
        x //= p
    return total


def _rational_line_count(M: int, p: int, residues) -> int:
    """#{(a, b) : 1 <= a <= M, |b| <= M, p !| a, b = s*a (mod p), s in residues}."""
    q, m = divmod(M, p)
    n_a = M - q  # a-values coprime-to-p in [1, M]
    total = len(residues) * n_a * 2 * q
    multiples = M // p  # r in [1, M] with p | r, always landing in the low band
    for s in residues:
        low = _floor_sum(M, s, s, p) - _floor_sum(M, s, s - (m + 1), p)
        high = _count_residue_band(M, s, p, m)
        total += (low - multiples) + high
    return total


def rational_window_scalar(X: int, N: int) -> int:
    table = mertens_table_oracle(N).tolist()
    total = 0
    for p in primes_below(X):
        residues = superspecial_lambdas(p)
        if not residues:
            continue
        d = 1
        while d <= N:
            v = N // d
            d_hi = N // v
            weight = _mertens_coprime(d_hi, p, table) - _mertens_coprime(d - 1, p, table)
            if weight:
                total += weight * _rational_line_count(v, p, residues)
            d = d_hi + 1
    return total


def test_phi_lambda_examples():
    assert phi_lambda(2, 1, 7) == 1  # p = 5 qualifies: 2 in {4, 2, 3}
    assert phi_lambda(0, 1, 100) == 0
    assert phi_lambda(1, 2, 7) == 1  # 1/2 = 3 mod 5, in the set
    assert phi_lambda(1, 1, 100) == 0


def test_phi_lambda_reduces_fractions_and_signs():
    assert phi_lambda(4, 2, 50) == phi_lambda(2, 1, 50)
    assert phi_lambda(-3, -1, 50) == phi_lambda(3, 1, 50)
    with pytest.raises(ZeroDivisionError):
        phi_lambda(1, 0, 10)


def test_phi_lambda_skips_bad_reduction():
    # lambda = 1/5 has bad reduction at 5; the count only sees p = 7, 11, ...
    assert phi_lambda(1, 5, 7) == 0


def test_floor_sum_against_naive():
    rng = random.Random(0)
    lanes = [(rng.randrange(0, 40), rng.randrange(0, 60), rng.randrange(-60, 60),
              rng.randrange(1, 30)) for _ in range(300)]
    got = _floor_sum_vec(*(np.array(col) for col in zip(*lanes)))
    for (n, a, b, m), value in zip(lanes, got.tolist()):
        want = sum((a * i + b) // m for i in range(n))
        assert value == want, (n, a, b, m)


def test_scalar_floor_sum_against_naive():
    rng = random.Random(1)
    for _ in range(300):
        n, a, b, m = (rng.randrange(0, 40), rng.randrange(0, 60),
                      rng.randrange(-60, 60), rng.randrange(1, 30))
        assert _floor_sum(n, a, b, m) == sum((a * i + b) // m for i in range(n))


def test_floor_sum_vec_matches_scalar_oracle():
    rng = random.Random(2)
    lanes = []
    for _ in range(2000):
        m = rng.randrange(1, 5000)
        lanes.append((rng.randrange(0, 10**6), rng.randrange(0, 3 * m),
                      rng.randrange(-3 * m, 3 * m), m))
    # n = 0, a >= m, b < -m
    lanes += [(0, 7, -20, 3), (0, 0, 0, 1), (5, 9, -40, 4), (1, 0, -1, 1)]
    # the edges of the window count's domain: n <= MAX_N_BUDGET,
    # m < MAX_X_BUDGET, 0 <= a < m, |b| < 2m
    lanes += [(n, a, b, m)
              for n in (1, MAX_N_BUDGET)
              for m in (2, 3, MAX_X_BUDGET - 1)
              for a in (0, 1, m - 1)
              for b in (-2 * m + 1, -1, 0, m, 2 * m - 1)]
    got = _floor_sum_vec(*(np.array(col) for col in zip(*lanes)))
    assert got.tolist() == [_floor_sum(*lane) for lane in lanes]


def test_floor_sum_vec_leaves_its_inputs_alone():
    cols = [np.array([5, 0, 9]), np.array([7, 3, 2]), np.array([-8, 4, 1]), np.array([3, 5, 4])]
    before = [c.copy() for c in cols]
    _floor_sum_vec(*cols)
    assert all((c == b).all() for c, b in zip(cols, before))


def test_floor_sum_bound_keeps_the_count_in_int64():
    # the window count's lanes: n = M <= MAX_N_BUDGET, m = p < MAX_X_BUDGET,
    # 0 <= a < m, |b| < 2m
    n, m = MAX_N_BUDGET, MAX_X_BUDGET
    assert m * (n + 2) < 2**39  # y = a*n + b
    assert n * (n + 1) // 2 < 2**46  # one lane's floor sum
    # a chunk's weighted sum: a pair's count is at most M (2M + 1) and its
    # weight at most twice (a residue pair {s, 1/s}) the block length
    # N/(M(M+1)) + 1
    per_pair = max(2 * (n // (M * (M + 1)) + 1) * M * (2 * M + 1)
                   for M in (1, 2, 10, math.isqrt(n), n // 2, n))
    assert per_pair <= 2 * (2 * n + n * (2 * n + 1))
    assert FLOOR_SUM_CHUNK // 2 * 2 * (2 * n + n * (2 * n + 1)) < 2**59
    # a window's sum at one prime: a height's sum over the residues is at
    # most M (2M + 1) and its weight at most its block's length, so the sum
    # is at most sum_{d <= N} (N/d)(2N/d + 1) <= 2 zeta(2) N^2 + N (ln N + 1)
    N = 10**5
    assert sum((N // d) * (2 * (N // d) + 1) for d in range(1, N + 1)) < (
        3.3 * N * N + N * (math.log(N) + 1))
    assert math.pi**2 / 3 < 3.3
    assert 3.3 * n * n + n * (math.log(n) + 1) < 2**49
    # a height's sum over the residues, pairs weighted 2: its lines share no
    # point, so it is at most the M (2M + 1) points of the box
    assert n * (2 * n + 1) < 2**48


def test_mertens_table_matches_oracle_every_N_to_3000():
    want = mertens_table_oracle(3000)
    for N in range(1, 3001):
        got = _mertens_table(N)
        assert got.dtype == np.int64, N
        assert np.array_equal(got, want[: N + 1]), N


@pytest.mark.parametrize("N", [10**5, 10**6])
def test_mertens_table_matches_oracle_large(N):
    assert np.array_equal(_mertens_table(N), mertens_table_oracle(N))


def test_primes_below():
    assert primes_below(20) == (5, 7, 11, 13, 17, 19)
    assert primes_below(5) == ()


def test_constants_match_reported_decimals():
    assert abs(INTEGER_WINDOW_CONSTANT - 4.5128) < 5e-4
    assert abs(RATIONAL_HEIGHT_CONSTANT - 2.7434) < 5e-4


@pytest.mark.parametrize("mode,constant", [("integer", INTEGER_WINDOW_CONSTANT),
                                           ("rational", RATIONAL_HEIGHT_CONSTANT)])
def test_prime_sum_prediction_is_the_prime_sum(mode, constant):
    direct = sum(1 / (2 * math.sqrt(p)) for p in primes_below(60))
    assert math.isclose(prime_sum_prediction(60, mode), constant * direct,
                        rel_tol=1e-12)
    assert prime_sum_prediction(5, mode) == 0.0


def test_prime_sum_prediction_rejects_unknown_mode():
    with pytest.raises(ValueError):
        prime_sum_prediction(100, "diagonal")


@pytest.mark.parametrize("X", [1000, 10000])
def test_leading_term_undershoots_prime_sum(X):
    # Why criterion 14(b) is judged against the prime sum: at desk-scale X
    # the leading term c*sqrt(X)/log X is more than 20% below it.
    leading = INTEGER_WINDOW_CONSTANT * math.sqrt(X) / math.log(X)
    assert prime_sum_prediction(X, "integer") / leading > 1.2


@pytest.mark.parametrize("X,N", [(10, 30), (30, 100), (50, 200)])
def test_integer_window_exactness(X, N):
    run = window_sum(X, N, "integer")
    assert run.total == window_sum_bruteforce(X, N, "integer")


@pytest.mark.parametrize("X,N", [(10, 30), (30, 60), (50, 120)])
def test_rational_window_exactness(X, N):
    run = window_sum(X, N, "rational")
    assert run.total == window_sum_bruteforce(X, N, "rational")


def test_rational_window_matches_scalar_oracle_6_to_150():
    for X in range(6, 151):
        N = default_window(X)
        assert window_sum(X, N, "rational").total == rational_window_scalar(X, N), X


@pytest.mark.parametrize("X", range(250, 601, 50))
def test_rational_window_matches_scalar_oracle_at_the_band_centres(X):
    N = default_window(X)
    assert window_sum(X, N, "rational").total == rational_window_scalar(X, N)


def test_rational_line_counts_of_s_and_its_inverse_agree_below_100():
    # the bijection (a, b) -> (|b|, sgn(b) a) behind counting {s, 1/s} once
    for p in (q for q in range(2, 100) if all(q % d for d in range(2, q))):
        for M in range(1, 3 * p + 1):
            counts = [None, None] + [_rational_line_count(M, p, [s]) for s in range(2, p)]
            for s in range(2, p):
                assert counts[s] == counts[pow(s, -1, p)], (p, M, s)


def test_superspecial_sets_are_closed_under_inversion_below_5000():
    for p in primes_below(5000):
        lambdas = set(superspecial_lambdas(p))
        assert {pow(s, -1, p) for s in lambdas} == lambdas, p


def test_rational_window_raises_on_a_set_not_closed_under_inversion(monkeypatch):
    # 2 is kept (2 < 1/2 = 4 mod 7) but 4 is missing
    monkeypatch.setattr(average, "superspecial_lambdas", lambda p: (2,) if p == 7 else ())
    with pytest.raises(ArithmeticError, match="not closed"):
        window_sum(10, 20, "rational")


@pytest.mark.parametrize("chunk", [2, 6, 64])
def test_rational_window_is_independent_of_the_chunk(monkeypatch, chunk):
    # a prime's heights split across kernel calls, and at chunks 2 and 6
    # a height whose k residues alone exceed the chunk
    want = rational_window_scalar(60, 150)
    table = [(30, 80), (45, 150), (60, 100)]
    want_table = [rational_window_scalar(X, N) for X, N in table]
    monkeypatch.setattr(average, "FLOOR_SUM_CHUNK", chunk)
    assert window_sum(60, 150, "rational").total == want
    assert [run.total for run in window_sums(table, "rational")] == want_table


def _forty_rows():
    rng = random.Random(40)
    return [(rng.randrange(6, 90), rng.randrange(1, 200)) for _ in range(40)]


@pytest.mark.parametrize("table", [
    [(60, 150)],  # one row
    [(20, 100), (45, 80), (70, 130)],  # the larger primes count in the last rows only
    [(30, 120), (50, 120), (70, 120)],  # every row has the same N, as with --N
    [(80, 30), (40, 90), (100, 1), (25, 7)],  # N < X
    _forty_rows(),
])
def test_window_table_matches_scalar_oracle_row_by_row(table):
    runs = window_sums(table, "rational")
    assert [(run.X, run.N) for run in runs] == table
    assert [run.total for run in runs] == [rational_window_scalar(X, N) for X, N in table]
    assert runs == [window_sum(X, N, "rational") for X, N in table]


def test_a_table_counts_each_lane_once(monkeypatch):
    # the eight-row table of the benchmark's seed 1: a lane is one
    # (height M, residue s <= 1/s, prime p) with a nonzero weight in some
    # row whose X exceeds p, and it sends two floor sums to the kernel
    xs = (244, 310, 350, 402, 444, 494, 540, 596)
    table = [(X, default_window(X)) for X in xs]
    mertens = mertens_table_oracle(max(N for _, N in table)).tolist()
    lanes = 0
    for p in primes_below(max(xs)):
        heights = set()
        for X, N in table:
            if p >= X:
                continue
            d = 1
            while d <= N:
                d_hi = N // (N // d)
                if _mertens_coprime(d_hi, p, mertens) != _mertens_coprime(d - 1, p, mertens):
                    heights.add(N // d)
                d = d_hi + 1
        residues = [s for s in superspecial_lambdas(p) if s <= pow(s, -1, p)]
        lanes += len(heights) * len(residues)
    assert 2 * lanes == 176_220  # 382,214 when each row counts its own lanes

    sent = []
    kernel = average._floor_sum_vec

    def counted(n, a, b, m):
        sent.append(len(n))
        return kernel(n, a, b, m)

    monkeypatch.setattr(average, "_floor_sum_vec", counted)
    window_sums(table, "rational")
    assert sum(sent) == 2 * lanes


@pytest.mark.parametrize("table", [
    [(X, default_window(X)) for X in (244, 310, 350, 402, 444, 494, 540, 596)],
    _forty_rows(),
])
def test_each_kernel_call_counts_one_prime(monkeypatch, table):
    # a call holds the lanes of one prime, at most FLOOR_SUM_CHUNK of them
    # unless one height's k residues (2k floor sums) need more
    calls = []
    kernel = average._floor_sum_vec

    def recorded(n, a, b, m):
        calls.append((np.unique(m).tolist(), len(m)))
        return kernel(n, a, b, m)

    monkeypatch.setattr(average, "_floor_sum_vec", recorded)
    window_sums(table, "rational")
    assert calls
    for primes, lanes in calls:
        assert len(primes) == 1
        p = primes[0]
        k = sum(s <= pow(s, -1, p) for s in superspecial_lambdas(p))
        assert lanes <= max(FLOOR_SUM_CHUNK, 2 * k), (p, lanes)


def test_window_monotone_in_X_and_N():
    t1, t2, t3 = (window_sum(X, N, "integer") for X, N in ((30, 100), (50, 100), (50, 200)))
    assert t1.total <= t2.total <= t3.total
    r1, r2, r3 = (window_sum(X, N, "rational") for X, N in ((30, 60), (50, 60), (50, 90)))
    assert r1.total <= r2.total <= r3.total
    for run in (t1, t2, t3, r1, r2, r3):
        assert run.ratio == pytest.approx(run.normalized / run.predicted)


def test_budget_errors():
    with pytest.raises(LimitError, match="baby-step/giant-step scans"):
        window_sum(10**6, 100, "integer")
    with pytest.raises(LimitError, match="residue counts"):
        window_sum(100, 10**8, "integer")
    with pytest.raises(LimitError, match="floor-sum lanes"):
        window_sum(10**6, 100, "rational")
    with pytest.raises(ValueError):
        window_sum(10, 10, "diagonal")


def test_default_window_rule():
    assert default_window(1000) == math.ceil(1000**1.1)
    assert default_window(1000) > 1000


def test_csv_row_format():
    run = AverageRun("integer", 100, 200, 42, 0.21, 0.5, 0.42)
    assert _line(asdict(run), AVERAGE_COLUMNS) == "integer,100,200,42,0.210000,0.500000,0.420000"
    assert ",".join(AVERAGE_COLUMNS) == "mode,X,N,total,normalized,predicted,ratio"
