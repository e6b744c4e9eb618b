"""Tests for the window averages: exactness against the double loop and
the scalar floor-sum path, the closed-form constants, and the counting
helpers."""

import itertools
import math
import random
from dataclasses import asdict

import numpy as np
import pytest
from paper_oracle import prime_sum_prediction

from s3genus2 import average
from s3genus2.average import (
    INTEGER_WINDOW_CONSTANT,
    RATIONAL_HEIGHT_CONSTANT,
    AverageRun,
    _height_counts,
    _mertens_table,
    default_window,
    phi_lambda,
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


def test_scalar_floor_sum_against_naive():
    rng = random.Random(1)
    for _ in range(300):
        n, a, b, m = (rng.randrange(0, 40), rng.randrange(0, 60),
                      rng.randrange(-60, 60), rng.randrange(1, 30))
        assert _floor_sum(n, a, b, m) == sum((a * i + b) // m for i in range(n))


def _lattice_counts_by_points(p: int, s: int, top: int) -> list[int]:
    """#{(a, b) : 1 <= a <= M, p !| a, |b| <= M, b = s a (mod p)} for every
    M = 0..top, by listing the points of the box of height top."""
    at_height = [0] * (top + 1)
    for a in range(1, top + 1):
        if a % p:
            for b in range(-top + (s * a + top) % p, top + 1, p):
                at_height[max(a, abs(b))] += 1
    return list(itertools.accumulate(at_height))


@pytest.mark.parametrize("p", primes_below(100))
def test_height_counts_match_a_lattice_loop_below_100(p):
    # every prime 5 <= p < 100, residue 1 <= s < p and height 0 <= M <= 3p;
    # a residue counts with weight 2 (its pair {s, 1/s}), s = p - 1 with 1
    heights = np.arange(3 * p + 1, dtype=np.int64)
    for s in range(1, p):
        got = _height_counts(heights, np.array([s], dtype=np.int64), p).tolist()
        weight = 1 if s == p - 1 else 2
        assert got == [weight * n for n in _lattice_counts_by_points(p, s, 3 * p)], (p, s)


def test_height_count_bound_keeps_the_count_in_int64():
    # _height_counts on python ints at M = MAX_N_BUDGET, at the largest prime
    # below MAX_X_BUDGET and at p = 5 (the most whole periods): with every
    # residue 1 <= s < p at weight 1, an upper bound on the weights w_s of
    # a superspecial set, the periods' term and the keys' cumsum (C_s(r)
    # summed over s is 2 r^2) add up to the box's points off b = 0 (mod p)
    M = MAX_N_BUDGET
    for p in (5, primes_below(MAX_X_BUDGET)[-1]):
        q, r = divmod(M, p)
        assert (p - 1) ** 2 < 2**32  # s a
        periods = (p - 1) * (2 * q * q * (p - 1) + 4 * q * r)
        assert periods + 2 * r * r == 2 * (q * (p - 1) + r) ** 2 <= 2 * M * M < 2**48
    # the sum over s of C_s(r) is 2 r^2: each a <= r meets each t <= r once
    p = 97
    for r in range(p):
        keys = [max(a, t) for s in range(1, p) for a in range(1, r + 1)
                for t in (s * a % p, p - s * a % p)]
        assert sum(key <= r for key in keys) == 2 * r * r, r
    # a window's sum at one prime: a height's sum over the residues is
    # below 2 M^2 and its weight at most its block's length, so the sum is
    # at most sum_{d <= N} (N/d)(2N/d + 1) <= 2 zeta(2) N^2 + N (ln N + 1)
    N = 10**5
    assert sum((N // d) * (2 * (N // d) + 1) for d in range(1, N + 1)) < (
        3.3 * N * N + N * (math.log(N) + 1))
    assert math.pi**2 / 3 < 3.3
    assert 3.3 * M * M + M * (math.log(M) + 1) < 2**49


def test_mertens_table_matches_oracle_every_N_to_3000():
    want = mertens_table_oracle(3000)
    for N in range(1, 3001):
        got = _mertens_table(N)
        assert got.dtype == np.int64, N
        assert np.array_equal(got, want[: N + 1]), N


@pytest.mark.parametrize("N", [10**5, 10**6])
def test_mertens_table_matches_oracle_large(N):
    assert np.array_equal(_mertens_table(N), mertens_table_oracle(N))


def test_mertens_coprime_reads_ends_in_any_order():
    # the concatenated block ends of a table start each window from 0, so
    # the largest end is not the last; 7^3 = 343 divides 686
    table = _mertens_table(700)
    x = np.array([0, 700, 1, 686, 0, 49, 343, 6], dtype=np.int64)
    want = [_mertens_coprime(v, 7, table.tolist()) for v in x.tolist()]
    assert average._mertens_coprime(x, 7, table).tolist() == want


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


@pytest.mark.parametrize("chunk", [1, 2, 6, 64])
def test_rational_window_is_independent_of_the_chunk(monkeypatch, chunk):
    # passes of chunk * p keys: at chunk 1 fewer than one residue's 2L =
    # 2(p - 1), so every row splits; at 2 and 6 the rows of a prime with
    # more than 1 or 3 residues split; at 64 a prime takes one pass
    want = rational_window_scalar(60, 150)
    table = [(30, 80), (45, 150), (60, 100)]
    want_table = [rational_window_scalar(X, N) for X, N in table]
    monkeypatch.setattr(average, "KEY_CHUNK", chunk)
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


def test_window_sums_of_a_shuffled_table_match_each_window_alone():
    # one Moebius pass per prime over every window's blocks: X in no order,
    # a repeated N, a repeated X and a repeated row, each row counted as
    # window_sum counts it alone
    table = [(45, 90), (80, 40), (30, 90), (80, 150), (12, 7), (45, 90), (60, 40), (7, 3)]
    random.Random(29).shuffle(table)
    assert [X for X, _ in table] != sorted(X for X, _ in table)
    runs = window_sums(table, "rational")
    assert [(run.X, run.N) for run in runs] == table
    assert runs == [window_sum(X, N, "rational") for X, N in table]
    assert [run.total for run in runs] == [rational_window_scalar(X, N) for X, N in table]


def _counting_bincount(monkeypatch, record):
    """Patch np.bincount to pass the length of each array it bins to record."""
    bincount = np.bincount

    def counted(x, *args, **kwargs):
        record(len(x))
        return bincount(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", counted)


def _keys_of_table(table) -> int:
    """The keys a table bins, counted apart from the production code: a prime
    p bins two per (residue s <= 1/s, a <= L), L = min(p - 1, its largest
    height with a nonzero weight in some row whose X exceeds p)."""
    mertens = mertens_table_oracle(max(N for _, N in table)).tolist()
    keys = 0
    for p in primes_below(max(X for X, _ in table)):
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
        keys += 2 * len(residues) * min(p - 1, max(heights))
    return keys


def _binned_keys(monkeypatch, table) -> int:
    binned = []
    _counting_bincount(monkeypatch, binned.append)
    window_sums(table, "rational")
    return sum(binned)


def test_a_table_counts_each_lane_once(monkeypatch):
    # the eight-row table of the benchmark's seed 1 bins each key once
    # (176,220 floor-sum lanes before, 382,214 when each row counted its own)
    table = [(X, default_window(X)) for X in (244, 310, 350, 402, 444, 494, 540, 596)]
    assert _keys_of_table(table) == 587_408
    assert _binned_keys(monkeypatch, table) == 587_408


def test_a_prime_bins_keys_up_to_its_largest_height(monkeypatch):
    # above p = 250 only the first row counts, and its heights stay below
    # p - 1, so L = 100 there
    table = [(600, 100), (300, 250)]
    assert _keys_of_table(table) == 237_972
    assert _binned_keys(monkeypatch, table) == 237_972


@pytest.mark.parametrize("table", [
    [(X, default_window(X)) for X in (244, 310, 350, 402, 444, 494, 540, 596)],
    _forty_rows(),
])
def test_each_kernel_call_counts_one_prime(monkeypatch, table):
    # one key histogram per prime with a residue, in passes of at most
    # KEY_CHUNK p keys
    calls = []
    counts = average._height_counts

    def recorded(M, residues, p):
        calls.append((p, residues.size, []))
        return counts(M, residues, p)

    monkeypatch.setattr(average, "_height_counts", recorded)
    monkeypatch.setattr(average, "KEY_CHUNK", 1)
    _counting_bincount(monkeypatch, lambda size: calls[-1][2].append(size))
    window_sums(table, "rational")
    primes = primes_below(max(X for X, _ in table))
    assert [p for p, _, _ in calls] == [p for p in primes if superspecial_lambdas(p)]
    for p, k, passes in calls:
        assert passes and max(passes) <= p, (p, k, passes)


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
    with pytest.raises(LimitError, match="histogram keys"):
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
