"""The resource model: the scan and trial cost estimates and the leaf-module rule."""

import os
import random
import subprocess
import sys
from collections import Counter
from math import isqrt
from pathlib import Path
from types import SimpleNamespace

import pytest

from s3genus2 import curves, family, fields, isogenies
from s3genus2.average import primes_below
from s3genus2.family import _supersingular_array
from s3genus2.isogenies import compose_is_minus3
from s3genus2.limits import (
    MAX_TRIALS_BUDGET,
    MAX_X_BUDGET,
    LimitError,
    check_isogeny,
    scan_cost,
)

# the per-trial figures of check_isogeny's docstring and refusal message: a
# trial direction does 9 F_{p^2} products by a constant, 8 of two values and
# 7 squares, 24 in all, and no inversion
BY_CONSTANT, OF_TWO_VALUES, SQUARES = 9, 8, 7
TRIAL_MULS, TRIAL_INVS = 2 * (BY_CONSTANT + OF_TWO_VALUES + SQUARES), 0

# the share of the orbit representatives the scan's 2-power torsion sieve
# keeps, and the block products a kept row takes (one per lane: two in
# F_{p^2}, one on the F_p lane that lemma D leaves at p = 3 mod 4), by p mod 8
# (family._orbit_scan)
KEPT = {1: 1 / 2, 5: 1 / 2, 3: 1 / 4, 7: 3 / 8}
PRODUCTS = {1: 2, 5: 2, 3: 1, 7: 1}


def _scan_multiply_adds(p: int, monkeypatch) -> int:
    """lanes rows k g: the (rows x k) @ (k x g) block products the scan runs.

    k and g are `_bsgs_eval`'s split of the ss_p coefficients; rows is the
    number of representatives the scan keeps and lanes the number of lanes
    `_bsgs_eval` evaluates them on, one product each, both recorded from
    its one call.
    """
    calls = []
    real = family._bsgs_eval

    def recording_eval(xa, xb, n, q, coeffs):
        acc = real(xa, xb, n, q, coeffs)
        calls.append((len(acc), xa.size))
        return acc

    monkeypatch.setattr(family, "_bsgs_eval", recording_eval)
    family._orbit_scan(p)
    size = _supersingular_array(p).size
    k = isqrt(size)
    g = -(-size // k)
    ((lanes, kept),) = calls
    assert lanes == PRODUCTS[p % 8]
    return lanes * kept * k * g


# At p = 1009 the split holds k g = 90 slots for 85 coefficients, so the
# scan does 6.9% more than the model; the excess k g - size < k is a
# relative 1/sqrt(p/12) that falls below 5% from p ~ 4800 on.  The sieve
# keeps exactly half the representatives at p = 1 mod 4 (84 of 168 at
# 1009); 619 of 1668 at 10007 and 6247 of 16665 at 99991, both 7 mod 8,
# where each kept row takes one product.
@pytest.mark.parametrize("p, rel", [(1009, 0.07), (10007, 0.05), (99991, 0.05)])
def test_scan_cost_model_matches_the_scan_shape(p, rel, monkeypatch):
    want = KEPT[p % 8] * PRODUCTS[p % 8] * p * p / 72
    assert _scan_multiply_adds(p, monkeypatch) == pytest.approx(want, rel=rel)


def test_scan_cost_is_the_prime_sum_of_the_per_prime_cost():
    # F(X) = 7 X^3/(2304 ln X) is the prime number theorem's
    # sum_{p < X} 7 p^2/768, and 7/768 the mean of KEPT * PRODUCTS / 72
    # over the classes
    exact = sum(KEPT[p % 8] * PRODUCTS[p % 8] * p * p for p in primes_below(MAX_X_BUDGET)) / 72
    assert scan_cost(MAX_X_BUDGET) == pytest.approx(exact, rel=0.05)


def test_limits_imports_nothing_from_the_package():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, s3genus2.limits; "
            "print(sorted(m for m in sys.modules if m.startswith('s3genus2')))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "['s3genus2', 's3genus2.limits']"


def _count_field_calls(monkeypatch) -> Counter:
    """Count the F_{p^2} helper calls of the isogeny code (products,
    inversions, square roots), and the int products of its trial loop.

    The loop's x's come as `Residue` ints, whose arithmetic keeps the type,
    so every int product that involves a trial value is counted: "values"
    when both factors are, "constant" when one is a set-up constant, n or
    a literal.
    """
    counts = Counter()

    def counted(key, func):
        def wrapper(*args):
            counts[key] += 1
            return func(*args)
        return wrapper

    class Residue(int):
        def __mul__(self, other):
            counts["values" if isinstance(other, Residue) else "constant"] += 1
            return Residue(int(self) * int(other))

        __rmul__ = __mul__

        def __add__(self, other):
            return Residue(int(self) + int(other))

        __radd__ = __add__

        def __sub__(self, other):
            return Residue(int(self) - int(other))

        def __rsub__(self, other):
            return Residue(int(other) - int(self))

        def __mod__(self, other):
            return Residue(int(self) % int(other))

    class Draws(random.Random):
        def randrange(self, p):
            return Residue(super().randrange(p))

    for module in (curves, isogenies):
        for name in ("fp2_mul", "fp2_horner", "fp2_inv"):
            monkeypatch.setattr(module, name, counted(name, getattr(fields, name)))
    monkeypatch.setattr(family, "fp2_sqrt", counted("sqrt", fields.fp2_sqrt))
    monkeypatch.setattr(curves, "random", SimpleNamespace(Random=Draws))
    return counts


def test_isogeny_trial_cost_matches_the_stated_figures(monkeypatch):
    counts = _count_field_calls(monkeypatch)

    def run(trials):
        counts.clear()
        isogenies.isogeny_pair.cache_clear()
        assert compose_is_minus3(5, 1009, trials=trials, seed=1)
        return Counter(counts)

    # one seed draws the same first x's, so the difference holds trials
    # 11..410 alone, without the two maps' set-up; the square roots are
    # lambda_pair's, one a pair of maps, and do not grow with the trials.
    # A product of two values is 4 int products and one by n, a square 3
    # and two (by n and by 2), a product by a constant 4 (its n w-part comes
    # precomputed), and psi3 takes 3 x^2 (two more)
    trials = 400
    short, long = run(10), run(10 + trials)
    diff = {k: long[k] - short[k] for k in ("fp2_mul", "fp2_horner", "fp2_inv", "sqrt")}
    assert diff == {"fp2_mul": 0, "fp2_horner": 0, "fp2_inv": TRIAL_INVS, "sqrt": 0}
    assert short["sqrt"] == 1
    per_direction = {"values": 4 * OF_TWO_VALUES + 3 * SQUARES,
                     "constant": 4 * BY_CONSTANT + OF_TWO_VALUES + 2 * SQUARES + 2}
    for key, count in per_direction.items():
        assert long[key] - short[key] == 2 * count * trials, key
    assert short["values"] == 2 * per_direction["values"] * 10

    over = MAX_TRIALS_BUDGET + 1
    with pytest.raises(LimitError) as refusal:
        check_isogeny(1009, over)
    assert (f"~{TRIAL_MULS * over:.1e} F_{{p^2}} multiplications "
            f"and ~{TRIAL_INVS * over:.1e} inversions") in str(refusal.value)
    assert "square root" not in str(refusal.value)
