"""Closed-form limit values, expectation formulas, tail bounds, and the
fixed-point solver that the experiment gates compare against."""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

from .comb_invariants import forest_fold
from .random_models import (grow_gw_tree, rngs_for, substream_seed,
                            substream_seeds)


@dataclass(frozen=True)
class TheoryValue:
    """A limit value with a certified truncation bound (0 if closed form)."""

    value: float
    truncation_error: float


def prob_lr_sparse_window(lam: float) -> TheoryValue:
    """Limit probability of linear resolution (and presentation) in the
    sparse critical window: exp(-sqrt(lam)/2) * (1 + sqrt(lam)/2)."""
    if not lam >= 0:  # NaN fails this too
        raise ValueError("lam must be >= 0")
    r = math.sqrt(lam) / 2.0
    return TheoryValue(math.exp(-r) * (1.0 + r), 0.0)


def prob_lp_dense_window(lam: float) -> TheoryValue:
    """Limit probability of linear presentation in the dense critical
    window: exp(-lam/8)."""
    if not lam >= 0:  # NaN fails this too
        raise ValueError("lam must be >= 0")
    return TheoryValue(math.exp(-lam / 8.0), 0.0)


def prob_lr_dense_window(lam: float, tol: float = 1e-12) -> TheoryValue:
    """Limit probability of linear resolution in the dense critical window:
    exp(-sum_{k>=4} lam^{k/4} / (2k)).

    For lam < 1 the series has a geometric tail in lam^{1/4}; truncation
    stops once the certified remainder drops below tol, or refuses if that
    takes over 10**6 terms.  For lam >= 1 the limit is exactly 0.
    """
    if not lam >= 0:  # NaN fails this too
        raise ValueError("lam must be >= 0")
    if not tol > 0:  # a NaN tol would never stop the series
        raise ValueError("tol must be > 0")
    if lam == 0:
        return TheoryValue(1.0, 0.0)
    if lam >= 1:
        return TheoryValue(0.0, 0.0)
    q = lam ** 0.25
    last = 3 + 10 ** 6  # the 10**6-th term; the tail bound falls with k
    if q == 1 or q ** (last + 1) / (2 * (last + 1) * (1 - q)) > tol:
        raise ValueError(f"lam = {lam!r} is too close to 1: the tail needs "
                         f"over 10**6 terms to reach tol = {tol!r}")
    total = 0.0
    k = 4
    while True:
        total += q ** k / (2 * k)
        # |exp(-S) - exp(-S_trunc)| <= tail, tail <= q^(k+1)/(2(k+1)(1-q)).
        tail = q ** (k + 1) / (2 * (k + 1) * (1 - q))
        if tail <= tol:
            break
        k += 1
    return TheoryValue(math.exp(-total), tail)


def expected_chordless_cycles(m: int, q: float, k: int) -> float:
    """Expected chordless k-cycles in a graph on m vertices with independent
    edge probability q: (k-1)!/2 * C(m,k) * q^k * (1-q)^(C(k,2)-k).  A
    product that leaves float range is taken again in log space."""
    if k < 4 or k > m:
        raise ValueError("need 4 <= k <= m")
    if not 0 <= q <= 1:  # NaN fails this too
        raise ValueError("q must be in [0, 1]")
    chords = math.comb(k, 2) - k
    with contextlib.suppress(OverflowError):
        value = (math.factorial(k - 1) / 2.0 * math.comb(m, k)
                 * q ** k * (1.0 - q) ** chords)
        if math.isfinite(value):
            return value
    if not 0 < q < 1:  # q^k or (1-q)^chords is 0
        return 0.0
    with contextlib.suppress(OverflowError):
        return math.exp(_log_chordless_cycles(m, k, math.log(q),
                                              math.log1p(-q)))
    return math.inf


def _log_chordless_cycles(m: int, k: int, log_q: float,
                          log_1mq: float) -> float:
    """log of ``expected_chordless_cycles(m, q, k)``, from log q, log(1-q)."""
    return (math.lgamma(m + 1) - math.lgamma(m - k + 1) - math.log(2 * k)
            + k * log_q + (math.comb(k, 2) - k) * log_1mq)


def expected_local_cycles(n: int, p: float, k: int) -> float:
    """Expected chordless k-cycles of the complement that additionally leave
    some vertex with no edge-probability-p connection into the cycle:
    ``expected_chordless_cycles(n, 1 - p, k)`` * (1 - (1 - (1-p)^k)^(n-k)),
    multiplied in log space (inf past float range, never inf * 0)."""
    if k < 4 or k > n:
        raise ValueError("need 4 <= k <= n")
    if not 0 <= p <= 1:  # NaN fails this too
        raise ValueError("p must be in [0, 1]")
    if not 0 < p < 1 or n == k:  # no chordless cycle, or no vertex left
        return 0.0
    log_q = math.log1p(-p)  # the complement's edge probability, 1 - p
    log_miss = k * log_q  # a vertex with no edge into the cycle: (1-p)^k
    if log_miss < -700:  # near underflow: the factor is (n-k)(1-p)^k
        log_isolation = math.log(n - k) + log_miss
    else:  # (1-p)^k rounds to 1 only where the factor rounds to 1
        miss = math.exp(log_miss)
        log_hit = math.log1p(-miss) if miss < 1 else -math.inf
        log_isolation = math.log(-math.expm1((n - k) * log_hit))
    with contextlib.suppress(OverflowError):
        return math.exp(_log_chordless_cycles(n, k, log_q, math.log(p))
                        + log_isolation)
    return math.inf


_KS_GRID = 1000
_KS_BISECT_TOL = 1e-12


def karp_sipser_root(lam: float) -> float:
    """Smallest root in [0,1] of t = exp(-lam * exp(-lam * t)): first sign
    change on a 1e-3 grid, then bisection to 1e-12."""
    if not lam > 0:  # NaN fails this too
        raise ValueError("lam must be > 0")
    if lam == math.inf:
        raise ValueError("lam must be finite")

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
    return TheoryValue(bound, _KS_BISECT_TOL)


def mcdiarmid_tail(n: int, m_lip: int, t: float) -> float:
    """Bounded-difference deviation bound 2 exp(-t^2 / (4 n M^2)); reported
    raw, values above 1 mean the bound is vacuous."""
    if n < 1 or m_lip < 1:
        raise ValueError("n and M must be >= 1")
    if not t >= 0:  # NaN fails this too
        raise ValueError("t must be >= 0")
    return 2.0 * math.exp(-t * t / (4.0 * n * m_lip * m_lip))


def near_lipschitz_tail(n: int, lam: float, m_lip: int, t: float) -> float:
    """Deviation bound for degree-Lipschitz functionals:
    2 exp(-t^2/(4nM^2)) + 2 n^2 (lam e / M)^M, reported raw (inf past
    float range)."""
    if not lam >= 0:  # NaN fails this too
        raise ValueError("lam must be >= 0")
    tail = mcdiarmid_tail(n, m_lip, t)
    with contextlib.suppress(OverflowError):
        return tail + 2.0 * n * n * (lam * math.e / m_lip) ** m_lip
    return math.inf


GW_INVARIANTS = ("induced_matching", "pd", "depth")


@dataclass(frozen=True)
class GwLimitEstimate:
    estimate: float
    stderr: float
    trials: int
    censor_fraction: float


def gw_limit_estimate(lam: float, trials: int, cap: int,
                      seed: int) -> dict[str, GwLimitEstimate]:
    """Monte Carlo estimates of E[X(T)/|T|] over Galton-Watson trees T for
    each X in GW_INVARIANTS, keyed by name, all from one pass over `trials`
    trees.

    Each tree is grown once as its parent list, whose ``forest_fold``
    (no Graph built) gives its induced matching number nu and smallest
    maximal independent set i: pd = |T| - i and depth = i, and the per-tree
    values are nu/|T|, pd/|T| and i/|T|, summed in tree order; the seeds
    share one hash of their (seed, "gw") prefix (``substream_seeds``).
    Trees that hit `cap` are censored: excluded from every estimate and
    counted in its censor_fraction.
    """
    if lam > 1:
        raise ValueError("the tree limit is only meaningful for lam <= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    s_nu = s_pd = s_dep = q_nu = q_pd = q_dep = 0.0  # sums, sums of squares
    used = 0
    censored = 0
    # Tree t is sample_gw_tree(lam, cap, substream_seed(seed, "gw", t)):
    # rng_for hashes its seed once more, and rngs_for seeds it in bulk.
    tree_seeds = map(substream_seed, substream_seeds(seed, "gw",
                                                     count=trials))
    for rng in rngs_for(tree_seeds):
        parents, capped = grow_gw_tree(lam, cap, rng)
        if capped:
            censored += 1
            continue
        size = len(parents)
        nu, mmis = forest_fold(parents)
        nu, pd, dep = nu / size, (size - mmis) / size, mmis / size
        s_nu, s_pd, s_dep = s_nu + nu, s_pd + pd, s_dep + dep
        q_nu, q_pd, q_dep = q_nu + nu * nu, q_pd + pd * pd, q_dep + dep * dep
        used += 1
    estimates = {}
    for which, total, total_sq in zip(GW_INVARIANTS, (s_nu, s_pd, s_dep),
                                      (q_nu, q_pd, q_dep)):
        mean = total / used if used else float("nan")
        if used > 1:
            var = max(0.0, (total_sq - used * mean * mean) / (used - 1))
            stderr = math.sqrt(var / used)
        else:
            stderr = float("nan")
        estimates[which] = GwLimitEstimate(mean, stderr, used,
                                           censored / trials)
    return estimates
