"""Posterior-predictive calibration of the TV weight.

For one intensity sample the goodness-of-fit statistic

    D = sum_i (y_i - theta_i)^2 / theta_i          (default: Pearson)

is referred to a chi-squared law with one degree of freedom per ray (scipy's
regularized upper incomplete gamma); the classical upper-tail probability
averaged over posterior samples gives the posterior-predictive p-value p_b.
Pearson's form follows that law approximately when the counts are drawn at
theta, so p is roughly uniform at the truth.  The paper's printed
denominator theta^2 ("theta_sq") stays selectable, but its statistic has
mean sum_i 1/theta_i instead of the ray count, so at mean counts below one
per ray its p is near 0 even at the truth.

Sweeping the TV weight traces p_b down from near 1 (overfit) to near 0
(oversmoothed); the admissible weights are those with p_b inside a fixed
band, and a projected stochastic-approximation iteration picks a single
weight inside that interval.  The sweep streams its chains
(samplers.walk_chain): p_b comes from the expected counts of each distinct
subsampled state's own evaluation, so a weight costs O(max_eval_samples)
floats, the per-step traces and one state, not a chain of kept samples.
``posterior_predictive_p`` computes the same p_b from a stored chain: it
evaluates each distinct subsampled state once, as the chain did, so the
same states give the same bits.
Without a given beta, each sweep chain and the first selection chain tune
beta in their own burn-in, and later selection chains take the first one's.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._kernels import gammaincc
from .posterior import TGPosterior
from .samplers import (Chain, SamplerConfig, _check_counts, kept_steps,
                       run_chain, walk_chain)

__all__ = [
    "chi2_sf",
    "chi2_discrepancy",
    "PredictiveResult",
    "posterior_predictive_p",
    "CalibrationRow",
    "CalibrationResult",
    "admissible_interval",
    "admissible_search",
    "SelectionResult",
    "select_lambda",
]

log = logging.getLogger(__name__)

PB_BAND = (0.1, 0.7)
DENOMINATORS = ("theta", "theta_sq")


def chi2_sf(x, dof: float):
    """Upper-tail chi-squared probability Q(dof/2, x/2), elementwise in x."""
    x = np.asarray(x, dtype=float)
    if dof <= 0.0:
        raise ValueError(f"dof must be positive, got {dof}")
    if np.any(x < 0.0):
        raise ValueError("chi-squared argument must be nonnegative")
    return gammaincc(0.5 * dof, 0.5 * x)


def _check_denominator(denominator: str) -> None:
    if denominator not in DENOMINATORS:
        raise ValueError(f"denominator must be one of {DENOMINATORS}, "
                         f"got {denominator!r}")


def _check_band(band: tuple[float, float]) -> tuple[float, float]:
    if not 0.0 <= band[0] < band[1] <= 1.0:
        raise ValueError(f"band must satisfy 0 <= lo < hi <= 1, got {band}")
    return band


def chi2_discrepancy(counts, theta, denominator: str = "theta") -> float:
    """Squared-misfit statistic of counts against expected counts.

    denominator "theta" gives the Pearson form (the default); "theta_sq"
    divides by theta^2.
    """
    _check_denominator(denominator)
    y = np.asarray(counts, dtype=float).reshape(-1)
    th = np.asarray(theta, dtype=float).reshape(-1)
    if th.size != y.size:
        raise ValueError("counts and theta lengths disagree")
    if np.any(th <= 0.0):
        raise ValueError("theta must be strictly positive")
    r = y - th
    r *= r
    r /= th ** 2 if denominator == "theta_sq" else th
    return float(np.sum(r))


@dataclass(frozen=True)
class PredictiveResult:
    p: float
    stderr: float
    n_used: int


def _even_subsample(n: int, max_samples: int | None) -> np.ndarray:
    """Indices of an even subsample of at most max_samples of n items."""
    _check_counts(max_eval_samples=max_samples)
    if max_samples is not None and n > max_samples:
        return np.linspace(0, n - 1, max_samples).astype(int)
    return np.arange(n)


def _predictive(discrepancies: np.ndarray, n_rays: int) -> PredictiveResult:
    """p_b and its Monte Carlo standard error from per-sample discrepancies."""
    n = discrepancies.size
    pvals = chi2_sf(discrepancies, n_rays)
    stderr = float(np.std(pvals, ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return PredictiveResult(float(np.mean(pvals)), stderr, n)


def posterior_predictive_p(chain: Chain, post: TGPosterior,
                           max_samples: int | None = None,
                           denominator: str = "theta") -> PredictiveResult:
    """Average the classical p-value over posterior intensity samples.

    The Monte Carlo standard error treats samples as independent; thin the
    chain first when autocorrelation matters.  An even subsample of at most
    max_samples kept states is used when the cap is set.  Each stretch of
    the subsample that repeats one state is evaluated once, one state at a
    time, and its discrepancy, read off the expected counts of that
    evaluation as admissible_search reads it, counts once per row.
    """
    idx = _even_subsample(chain.n_kept, max_samples)
    runs, lengths = chain.samples[idx].stretches()
    d = np.array([chi2_discrepancy(post.data.counts,
                                   post.evaluate(chain.samples.rows[r]).theta,
                                   denominator) for r in runs])
    return _predictive(np.repeat(d, lengths), post.op.n_rays)


# ---------------------------------------------------------------------------
# admissible interval and weight selection


def _stream_seed(seed: int, index: int) -> int:
    """Seed in [0, 2**63) of a calibration's chain: admissible_search counts
    index up from 0 and select_lambda down from -1, so none coincide."""
    return (seed + index) % 2 ** 63


def _check_grid(weights: Sequence[float]) -> tuple[float, ...]:
    """The weights as floats, if nonempty, nonnegative and increasing."""
    w = tuple(float(v) for v in weights)
    if not (w and 0.0 <= w[0] and all(a < b for a, b in zip(w, w[1:]))):
        raise ValueError("weight_grid must be nonnegative and strictly "
                         f"increasing, got {w}")
    return w


@dataclass(frozen=True)
class CalibrationRow:
    tv_weight: float
    p: float
    stderr: float
    chain_steps: int
    acceptance: float
    beta: float               # the stepsize the chain's kept states used


@dataclass(frozen=True)
class CalibrationResult:
    rows: tuple
    interval: tuple[float, float] | None


def admissible_interval(weights: Sequence[float], pvalues: Sequence[float],
                        band: tuple[float, float] = PB_BAND
                        ) -> tuple[float, float] | None:
    """Weights whose interpolated p-value lies inside the band.

    p is taken piecewise linear between grid points and decreasing in the
    weight; the lower endpoint comes from the upper band threshold and vice
    versa.  Returns None when the band is never entered or met at one weight.
    """
    w = np.asarray(_check_grid(weights))
    p = np.asarray(pvalues, dtype=float)
    if w.size != p.size:
        raise ValueError("need matching, nonempty weight and p-value grids")
    p_lo, p_hi = _check_band(band)

    def cross(level: float) -> float | None:
        """First weight at which p falls to the level, by interpolation."""
        if p[0] <= level:
            return float(w[0])
        below = np.nonzero(p <= level)[0]
        if below.size == 0:
            return None
        i = int(below[0])
        frac = (p[i - 1] - level) / (p[i - 1] - p[i])
        return float(w[i - 1] + frac * (w[i] - w[i - 1]))

    lo = cross(p_hi)          # p has fallen into the band
    if lo is None:
        return None           # never below the upper threshold
    hi = cross(p_lo)          # p has fallen out of the band
    if hi is None:
        hi = float(w[-1])
    if hi <= lo:
        return None           # below the band at w[0], or met at one weight
    return (lo, hi)


def admissible_search(make_posterior: Callable[[float], TGPosterior],
                      weight_grid: Sequence[float],
                      chain_steps: int = 20000,
                      band: tuple[float, float] = PB_BAND,
                      seed: int = 0,
                      beta: float | None = None,
                      max_eval_samples: int | None = 2000,
                      denominator: str = "theta") -> CalibrationResult:
    """Estimate p_b on a weight grid with short chains and bracket the band.

    One pcn chain per weight, p_b averaged over an even subsample of at most
    max_eval_samples kept states (every kept state when it is None), the
    subsample posterior_predictive_p takes.  Each chain is streamed
    (walk_chain): a distinct subsampled state's discrepancy is read once
    off the expected counts of the chain's own evaluation of it and counts
    once per subsampled step, so no state is synthesized or projected twice
    and nothing holds the kept samples; memory is O(max_eval_samples)
    floats, the per-step traces and one state.  The grid, the band and the
    denominator are checked before any chain runs.
    Each weight starts at the last state of the previous weight's chain
    (the first at the prior mean, whose zero TV makes it a sticky start at
    large weights).  Without a given beta, each chain tunes beta in its
    burn-in: the posterior narrows as the weight grows, so a stepsize tuned
    at the first weight can leave later chains where they began.
    """
    weights = _check_grid(weight_grid)
    _check_band(band)
    _check_denominator(denominator)
    rows = []
    start = None
    for i, w in enumerate(weights):
        post = make_posterior(w)
        cfg = SamplerConfig("pcn", chain_steps, beta=beta,
                            seed=_stream_seed(seed, i))
        steps = kept_steps(cfg)[_even_subsample(cfg.n_kept, max_eval_samples)]
        d = []
        walk = walk_chain(post, cfg, steps, lambda j, z, ev: d.append(
            chi2_discrepancy(post.data.counts, ev.theta, denominator)), start)
        res = _predictive(np.array(d)[walk.run], post.op.n_rays)
        start = walk.last
        rows.append(CalibrationRow(w, res.p, res.stderr, chain_steps,
                                   walk.acceptance_rate, walk.config.beta))
        log.info("calibration: weight %.4g -> p_b %.4g (stderr %.2g, "
                 "acceptance %.3f, beta %.4g)", w, res.p, res.stderr,
                 walk.acceptance_rate, walk.config.beta)
    interval = admissible_interval(weights, [r.p for r in rows], band)
    return CalibrationResult(tuple(rows), interval)


@dataclass(frozen=True)
class SelectionResult:
    tv_weight: float
    trace: tuple
    at_bound: bool     # tv_weight is an end of the searched interval


def select_lambda(make_posterior: Callable[[float], TGPosterior],
                  interval: tuple[float, float],
                  n_iters: int = 60,
                  inner_steps: int = 200,
                  beta: float | None = None,
                  seed: int = 0) -> SelectionResult:
    """Pick one TV weight inside the admissible interval.

    Projected root-finding for the evidence stationarity condition: from
    the midpoint, the weight steps by a0 / k times n_eff / weight minus the
    batch-mean TV of the latent field, read off the regularizer trace of a
    short pcn chain warm started at the previous chain's last state.
    Without a given beta, the first chain tunes it in a 1,000-step burn-in
    that no gradient reads, and the later chains take its frozen value.
    n_eff is the coefficient dimension (approximate for this reference
    measure, so the iterate is meaningful only within the interval) and a0
    the interval's width over n_eff.  The trace holds (k, weight, gradient)
    rows; an iterate that does not settle raises a warning but is still
    returned.  ``at_bound`` tells whether it is an end of the interval, its
    lower end floored at 1e-8.
    """
    lo, hi = interval
    if not 0.0 <= lo < hi:
        raise ValueError(f"invalid interval {interval}")
    _check_counts(n_iters=n_iters, inner_steps=inner_steps)
    width = hi - lo
    lo = max(lo, 1e-8)  # the gradient needs a positive weight
    lam = 0.5 * (lo + hi)
    c, trace = None, []
    for k in range(1, n_iters + 1):
        burn = 1000 if beta is None else 0    # the first chain tunes beta
        # only the traces and the last state are read: keep one state
        cfg = SamplerConfig("pcn", burn + inner_steps, beta=beta,
                            burn_in=burn, thinning=inner_steps,
                            seed=_stream_seed(seed, -k))
        chain = run_chain(make_posterior(lam), cfg, init=c)
        beta, c = chain.config.beta, chain.samples[-1]
        n_eff = float(chain.n_modes)
        grad = n_eff / lam - float(np.mean(chain.reg_trace[burn:])) / lam
        lam = min(max(lam + (width / n_eff / k) * grad, lo), hi)
        trace.append((k, lam, grad))
    tail = [t[1] for t in trace[-max(1, n_iters // 4):]]
    if max(tail) - min(tail) > 0.25 * (hi - lo):
        warnings.warn("weight selection did not settle within the iteration "
                      "cap; returning the last projected iterate",
                      RuntimeWarning, stacklevel=2)
    return SelectionResult(lam, tuple(trace), lam in (lo, hi))
