"""Closed-form limit values, expectation formulas, tail bounds, and the
fixed-point solver that the experiment gates compare against."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .comb_invariants import forest_dp
from .random_models import sample_gw_tree, substream_seed


@dataclass(frozen=True)
class TheoryValue:
    """A limit value with a certified truncation bound (0 if closed form)."""

    value: float
    truncation_error: float
    formula_id: str


def prob_lr_sparse_window(lam: float) -> TheoryValue:
    """Limit probability of linear resolution (and presentation) in the
    sparse critical window: exp(-sqrt(lam)/2) * (1 + sqrt(lam)/2)."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    r = math.sqrt(lam) / 2.0
    return TheoryValue(math.exp(-r) * (1.0 + r), 0.0, "lr_sparse_window")


def prob_lp_dense_window(lam: float) -> TheoryValue:
    """Limit probability of linear presentation in the dense critical
    window: exp(-lam/8)."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    return TheoryValue(math.exp(-lam / 8.0), 0.0, "lp_dense_window")


def prob_lr_dense_window(lam: float, tol: float = 1e-12) -> TheoryValue:
    """Limit probability of linear resolution in the dense critical window:
    exp(-sum_{k>=4} lam^{k/4} / (2k)).

    For lam < 1 the series has a geometric tail in lam^{1/4}; truncation
    stops once the certified remainder drops below tol.  For lam >= 1 the
    exponent diverges and the limit is exactly 0.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if lam == 0:
        return TheoryValue(1.0, 0.0, "lr_dense_window")
    if lam >= 1:
        return TheoryValue(0.0, 0.0, "lr_dense_window")
    q = lam ** 0.25
    total = 0.0
    k = 4
    while True:
        total += q ** k / (2 * k)
        # |exp(-S) - exp(-S_trunc)| <= tail, tail <= q^(k+1)/(2(k+1)(1-q)).
        tail = q ** (k + 1) / (2 * (k + 1) * (1 - q))
        if tail <= tol:
            break
        k += 1
    return TheoryValue(math.exp(-total), tail, "lr_dense_window")


def expected_chordless_cycles(m: int, q: float, k: int) -> float:
    """Expected chordless k-cycles in a graph on m vertices with independent
    edge probability q: (k-1)!/2 * C(m,k) * q^k * (1-q)^(C(k,2)-k)."""
    if k < 4 or k > m:
        raise ValueError("need 4 <= k <= m")
    return (math.factorial(k - 1) / 2.0 * math.comb(m, k)
            * q ** k * (1.0 - q) ** (math.comb(k, 2) - k))


def expected_local_cycles(n: int, p: float, k: int) -> float:
    """Expected chordless k-cycles of the complement that additionally leave
    some vertex with no edge-probability-p connection into the cycle."""
    if k < 4 or k > n:
        raise ValueError("need 4 <= k <= n")
    isolation = 1.0 - (1.0 - (1.0 - p) ** k) ** (n - k)
    return expected_chordless_cycles(n, 1.0 - p, k) * isolation


_KS_GRID = 1000
_KS_BISECT_TOL = 1e-12


def karp_sipser_root(lam: float) -> float:
    """Smallest root in [0,1] of t = exp(-lam * exp(-lam * t)): first sign
    change on a 1e-3 grid, then bisection to 1e-12."""
    if lam <= 0:
        raise ValueError("lam must be > 0")

    def f(t: float) -> float:
        return t - math.exp(-lam * math.exp(-lam * t))

    lo = 0.0
    f_lo = f(lo)  # f(0) = -exp(-lam) < 0
    hi = None
    for i in range(1, _KS_GRID + 1):
        t = i / _KS_GRID
        ft = f(t)
        if ft >= 0:
            hi = t
            break
        lo, f_lo = t, ft
    if hi is None:
        raise ArithmeticError("no sign change located in [0,1]")
    while hi - lo > _KS_BISECT_TOL:
        mid = (lo + hi) / 2
        if f(mid) >= 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def karp_sipser_upper(lam: float) -> TheoryValue:
    """Matching-number upper bound for the regularity growth rate:
    1 - (t + e^{-lam t} + lam t e^{-lam t}) / 2 at the smallest root t."""
    t = karp_sipser_root(lam)
    e = math.exp(-lam * t)
    bound = 1.0 - (t + e + lam * t * e) / 2.0
    return TheoryValue(bound, _KS_BISECT_TOL, "karp_sipser_upper")


def mcdiarmid_tail(n: int, m_lip: int, t: float) -> float:
    """Bounded-difference deviation bound 2 exp(-t^2 / (4 n M^2)); reported
    raw, values above 1 mean the bound is vacuous."""
    if n < 1 or m_lip < 1:
        raise ValueError("n and M must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    return 2.0 * math.exp(-t * t / (4.0 * n * m_lip * m_lip))


def near_lipschitz_tail(n: int, lam: float, m_lip: int, t: float) -> float:
    """Deviation bound for degree-Lipschitz functionals:
    2 exp(-t^2/(4nM^2)) + 2 n^2 (lam e / M)^M."""
    return (mcdiarmid_tail(n, m_lip, t)
            + 2.0 * n * n * (lam * math.e / m_lip) ** m_lip)


GW_INVARIANTS = ("induced_matching", "pd", "depth")


@dataclass(frozen=True)
class GwLimitEstimate:
    invariant: str
    lam: float
    estimate: float
    stderr: float
    trials: int
    censor_fraction: float


def gw_limit_estimate(lam: float, trials: int, cap: int,
                      seed: int) -> dict[str, GwLimitEstimate]:
    """Monte Carlo estimates of E[X(T)/|T|] over Galton-Watson trees T for
    each X in GW_INVARIANTS, keyed by name, all from one pass over `trials`
    trees.

    Each tree is sampled once; one forest DP gives its induced matching
    number nu and its smallest maximal independent set i, so pd = |T| - i
    and depth = i, and the per-tree values are nu/|T|, pd/|T| and i/|T|.  Trees that hit `cap` are censored: excluded from every
    estimate and counted in its censor_fraction.
    """
    if lam > 1:
        raise ValueError("the tree limit is only meaningful for lam <= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    total = dict.fromkeys(GW_INVARIANTS, 0.0)
    total_sq = dict.fromkeys(GW_INVARIANTS, 0.0)
    used = 0
    censored = 0
    for t in range(trials):
        s = sample_gw_tree(lam, cap, substream_seed(seed, "gw", t))
        if s.censored:
            censored += 1
            continue
        size = s.size
        nu, mmis = forest_dp(s.tree)
        values = (nu / size, (size - mmis) / size, mmis / size)
        for which, value in zip(GW_INVARIANTS, values):
            total[which] += value
            total_sq[which] += value * value
        used += 1
    estimates = {}
    for which in GW_INVARIANTS:
        mean = total[which] / used if used else float("nan")
        if used > 1:
            var = max(0.0, (total_sq[which] - used * mean * mean) / (used - 1))
            stderr = math.sqrt(var / used)
        else:
            stderr = float("nan")
        estimates[which] = GwLimitEstimate(which, lam, mean, stderr, used,
                                           censored / trials)
    return estimates
