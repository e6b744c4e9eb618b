"""The resource model: the scan and trial cost estimates and the leaf-module rule."""

import os
import subprocess
import sys
from collections import Counter
from math import isqrt
from pathlib import Path

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

# the per-trial figures of check_isogeny's docstring and refusal message
TRIAL_MULS, TRIAL_INVS = 60, 4


def _scan_multiply_adds(p: int) -> int:
    """2 reps k g: the two (reps x k) @ (k x g) block products of the scan.

    k and g are `_bsgs_eval`'s split of the ss_p coefficients; reps is the
    number of S3 orbits of admissible lambda, all of size 6 but {-1, 2, 1/2}.
    """
    size = _supersingular_array(p).size
    k = isqrt(size)
    g = -(-size // k)
    admissible = p - 2 - (2 if p % 3 == 1 else 0)
    reps = (admissible - 3) // 6 + 1
    return 2 * reps * k * g


# At p = 1009 the split holds k g = 90 slots for 85 coefficients, so the
# scan does 6.9% more than p^2/36; the excess k g - size < k is a relative
# 1/sqrt(p/12) that falls below 5% from p ~ 4800 on.
@pytest.mark.parametrize("p, rel", [(1009, 0.07), (10007, 0.05), (99991, 0.05)])
def test_scan_cost_model_matches_the_scan_shape(p, rel):
    assert _scan_multiply_adds(p) == pytest.approx(p * p / 36, rel=rel)


def test_scan_cost_is_the_prime_sum_of_the_per_prime_cost():
    # F(X) = X^3/(108 ln X) is the prime number theorem's sum_{p < X} p^2/36
    exact = sum(p * p for p in primes_below(MAX_X_BUDGET)) / 36
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
    """Count the F_{p^2} products, inversions and square roots of the
    isogeny code; a Horner pass over k + 1 coefficients is k products."""
    counts = Counter()

    def counted(key, func, weight=lambda *args: 1):
        def wrapper(*args):
            counts[key] += weight(*args)
            return func(*args)
        return wrapper

    for module in (curves, isogenies):
        monkeypatch.setattr(module, "fp2_mul", counted("mul", fields.fp2_mul))
        monkeypatch.setattr(module, "fp2_horner", counted(
            "mul", fields.fp2_horner, lambda coeffs, *rest: len(coeffs) - 1))
        monkeypatch.setattr(module, "fp2_inv", counted("inv", fields.fp2_inv))
    monkeypatch.setattr(family, "fp2_sqrt", counted("sqrt", fields.fp2_sqrt))
    return counts


def test_isogeny_trial_cost_matches_the_stated_figures(monkeypatch):
    counts = _count_field_calls(monkeypatch)

    def run(trials):
        counts.clear()
        assert compose_is_minus3(5, 1009, trials=trials, seed=1)
        return Counter(counts)

    # one seed draws the same first x's, so the difference holds trials
    # 11..410 alone, without the two maps' set-up; the square roots are
    # lambda_pair's, one a call, and do not grow with the trials
    trials = 400
    short, long = run(10), run(10 + trials)
    muls, invs, sqrts = (long[k] - short[k] for k in ("mul", "inv", "sqrt"))
    assert invs == TRIAL_INVS * trials
    assert muls == TRIAL_MULS * trials
    assert sqrts == 0 and short["sqrt"] == 1

    over = MAX_TRIALS_BUDGET + 1
    with pytest.raises(LimitError) as refusal:
        check_isogeny(1009, over)
    assert (f"~{TRIAL_MULS * over:.1e} F_{{p^2}} multiplications "
            f"and ~{TRIAL_INVS * over:.1e} inversions") in str(refusal.value)
    assert "square root" not in str(refusal.value)
