"""Every resource limit of the toolkit, and the checks that refuse a request.

The bounds below are the only definitions of what a job may ask for: the
int64 and enumeration bounds that keep a kernel exact, and the desk
budgets that keep a run to minutes.  A request outside them raises
LimitError, a ValueError that the CLI turns into exit status 2 with the
message (and, for a budget, a cost estimate) on stderr; nothing has been
computed by then.  The CLI raises it for a malformed argument too.  Inside
the library, an argument outside a function's domain (a non-prime
modulus, an inadmissible lambda) stays a plain ValueError.

The cost of a run is dominated by the per-prime scans (family._orbit_scan):
of the p/6 orbit representatives, the 2-power torsion sieve keeps 1/2 at
p = 1 mod 4, for two (rows x k) @ (k x g) int64 products with k g ~ p/12
(the coefficients of ss_p), one per F_{p^2} lane, and 1/4 at p = 3 mod 8
and 3/8 at p = 7 mod 8 for one product: lemma D leaves F_p rows alone there.
So a prime costs about p^2/72, p^2/288 or p^2/192 multiply-adds, 7 p^2/768
on average over the classes mod 8, and all primes below X about

    F(X) = 7 X^3 / (2304 ln X),

the prime number theorem's value of sum_{p < X} 7 p^2/768 (`scan_cost`).
F(MAX_X_BUDGET) is the scan work of the largest `average` run admitted;
`psi` and `structure` admit a prime range whose scans cost no more, and
family.scan_primes puts scans costing more than SCAN_POOL_THRESHOLD on a pool.

This module imports nothing from the package, so every other module can
import it.
"""

from __future__ import annotations

import math

# F_p arithmetic: products of two residues stay in native double-width ints
MAX_MODULUS = 1 << 31
# the int64 scan kernels need (k + 2)(p-1)^2 < 2^63 for up to (p+1)/2
# coefficients, k = isqrt((p+1)/2): below 2^25 that is at most (2^12 + 2) 2^50
VECTOR_MODULUS_BOUND = 1 << 25
# reduced-form enumeration of class numbers h(-D)
CLASS_NUMBER_BOUND = 10**7
# analytic Hilbert class polynomials: discriminant and class number
HILBERT_D_BOUND = 200
HILBERT_CLASS_BOUND = 8
# desk budgets of `average` (prime bound X, window N); the window count's
# int64 proof assumes them: s a <= (p-1)^2 < 2^32 for its keys, and a
# height's count below 2 N^2 < 2^48 (average._height_counts)
MAX_X_BUDGET = 50_000
MAX_N_BUDGET = 10_000_000
# the scan cost above which a worker pool pays: break-even near X = 3300 on a
# 2-vCPU host, where serial and two-worker structure tie, F(3300) = 1.35e7;
# above F(3000) = 1.0e7, every perfbench workload (F <= 3.8e6) is serial
SCAN_POOL_THRESHOLD = 13_500_000
# isogeny --trials: 48 F_{p^2} products and no inversion a trial (check_isogeny),
# 0.010-0.024 ms from p = 10^3 to 2^31 (2-vCPU host)
MAX_TRIALS_BUDGET = 100_000
# average --check-bruteforce runs the double loop over (lambda, p)
BRUTEFORCE_X_CAP = 200
BRUTEFORCE_N_CAP = 2000


class LimitError(ValueError):
    """A request the toolkit refuses: malformed, or over a bound or budget."""


def scan_cost(X: float) -> float:
    """F(X) = 7 X^3/(2304 ln X), the int64 multiply-adds of the scans of
    the primes below X (sum_{p < X} 7 p^2/768)."""
    return 7 * X**3 / (2304 * math.log(max(X, 3)))


def check_scan_range(lo: int, hi: int, top: int) -> None:
    """Refuse a psi/structure range [lo, hi] by its largest prime `top`
    (below lo when there is none), before its other primes are listed."""
    if lo < 5:
        raise LimitError(f"--from must be at least 5, got {lo}")
    if hi < lo:
        raise LimitError(f"empty prime range [{lo}, {hi}]")
    if top < lo:
        raise LimitError(f"no primes in [{lo}, {hi}]")
    if top >= VECTOR_MODULUS_BOUND:
        raise LimitError(
            f"p={top} is at or above the scan's int64 bound "
            f"VECTOR_MODULUS_BOUND = 2^{VECTOR_MODULUS_BOUND.bit_length() - 1} "
            f"= {VECTOR_MODULUS_BOUND}"
        )
    # a psi row of p needs class numbers up to discriminant -12p
    if 12 * top > CLASS_NUMBER_BOUND:
        raise LimitError(
            f"p={top} needs the class number of discriminant -12p = -{12 * top}, "
            f"above CLASS_NUMBER_BOUND = {CLASS_NUMBER_BOUND}"
        )
    cost, budget = scan_cost(top) - scan_cost(lo), scan_cost(MAX_X_BUDGET)
    if cost > budget:
        raise LimitError(
            f"primes {lo}..{top} exceed the desk budget of ~{budget:.1e} int64 "
            f"multiply-adds, the scans of average --X {MAX_X_BUDGET}; estimated cost "
            f"~{cost:.1e} in the per-prime baby-step/giant-step scans "
            "(F(top) - F(from), F(X) = 7 X^3/(2304 ln X))"
        )


def check_isogeny(p: int, trials: int) -> None:
    """Refuse an isogeny run over the modulus cap or the trials budget.

    A compose_is_minus3 trial draws two x-coordinates and compares, for
    each, both x-maps in turn with the x-map of [3] as projective pairs:
    48 F_{p^2} multiplications (24 a direction: 9 by a constant, 8 of two
    values, 7 squares), written out as 226 int products, counted at
    p = 1009, and no inversion and no square root.
    """
    if p >= MAX_MODULUS:
        raise LimitError(f"p={p} is at or above MAX_MODULUS = 2^31 = {MAX_MODULUS}")
    if trials < 1:
        raise LimitError(f"--trials must be at least 1, got {trials}")
    if trials > MAX_TRIALS_BUDGET:
        raise LimitError(
            f"trials={trials} exceeds the desk budget (trials <= {MAX_TRIALS_BUDGET}); "
            f"estimated cost ~{48 * trials:.1e} F_{{p^2}} multiplications "
            f"and ~{0:.1e} inversions"
        )


def _window_cost(X: int, N: int, mode: str) -> str:
    """The work of average.window_sum(X, N, mode), stage by stage.

    The scans cost F(X) and find about sum_p psi_p = 0.8 X^1.5/ln X
    superspecial residues below X (0.78-0.81 measured at X = 300..3000).
    The rational count bins two keys per (residue s <= 1/s, a) with
    a <= min(p - 1, N) at each prime, about psi_p min(p - 1, N) keys.  Over
    p < X, sum_p psi_p p is about 0.6 X sum_p psi_p, so that is about
    0.8 min(0.6 X, N) X^1.5/ln X keys (0.77-0.81 of min(0.6 X, N) X^1.5/ln X
    counted at X = 300..3000 for N >= X and for N = X/10; 0.68 at N = X/2,
    where the min overstates).  A table bins each prime's keys once, for
    its largest N, so it costs at most the sum of its rows' estimates.
    """
    cost = (f"~{scan_cost(X):.1e} int64 multiply-adds in the per-prime "
            "baby-step/giant-step scans (7 X^3/(2304 ln X))")
    residues = 0.8 * X**1.5 / math.log(max(X, 3))
    if mode == "rational":
        return cost + (f", then ~{min(0.6 * X, N) * residues:.1e} histogram keys "
                       "in the rational window count (0.8 min(0.6X, N) X^1.5/ln X)")
    return cost + f", then ~{residues:.1e} residue counts (0.8 X^1.5/ln X)"


def check_budget(X: int, N: int, mode: str) -> None:
    """Refuse a window sum over the desk budget, with a cost estimate."""
    if X > MAX_X_BUDGET or N > MAX_N_BUDGET:
        raise LimitError(
            f"X={X}, N={N} exceeds the desk budget "
            f"(X <= {MAX_X_BUDGET}, N <= {MAX_N_BUDGET}); "
            f"estimated cost {_window_cost(X, N, mode)}"
        )


def check_bruteforce(X: int, N: int) -> None:
    """Refuse a double-loop check over the bruteforce caps."""
    if X > BRUTEFORCE_X_CAP or N > BRUTEFORCE_N_CAP:
        raise LimitError(
            f"--check-bruteforce capped at X <= {BRUTEFORCE_X_CAP}, "
            f"N <= {BRUTEFORCE_N_CAP}"
        )
