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
weight inside that interval.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaincc

from .diagnostics import block_rows
from .posterior import TGPosterior
from .samplers import Chain, SamplerConfig, run_chain, tune_stepsize

__all__ = [
    "chi2_sf",
    "chi2_discrepancy",
    "PredictiveResult",
    "posterior_predictive_p",
    "CalibrationRow",
    "CalibrationResult",
    "admissible_interval",
    "admissible_search",
    "stochastic_approximation",
    "SelectionResult",
    "select_lambda",
    "write_calibration_csv",
    "write_selection_csv",
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


def chi2_discrepancy(counts, theta, denominator: str = "theta"):
    """Squared-misfit statistic of counts against expected counts.

    denominator "theta" gives the Pearson form (the default); "theta_sq"
    divides by theta^2.  A flat theta gives one float; a (k, n_rays) block
    gives one statistic per row.
    """
    if denominator not in DENOMINATORS:
        raise ValueError(f"denominator must be one of {DENOMINATORS}, "
                         f"got {denominator!r}")
    y = np.asarray(counts, dtype=float).reshape(-1)
    th = np.asarray(theta, dtype=float)
    if th.ndim != 2:
        th = th.reshape(-1)
    if th.shape[-1] != y.size:
        raise ValueError("counts and theta lengths disagree")
    if np.any(th <= 0.0):
        raise ValueError("theta must be strictly positive")
    r = y - th          # in place from here: a block is k * n_rays floats
    r *= r
    r /= th ** 2 if denominator == "theta_sq" else th
    d = np.sum(r, axis=-1)
    return float(d) if th.ndim == 1 else d


@dataclass(frozen=True)
class PredictiveResult:
    p: float
    stderr: float
    n_used: int


def posterior_predictive_p(chain: Chain, post: TGPosterior,
                           max_samples: int | None = None,
                           denominator: str = "theta",
                           block: int | None = None) -> PredictiveResult:
    """Average the classical p-value over posterior intensity samples.

    The Monte Carlo standard error treats samples as independent; thin the
    chain first when autocorrelation matters.  An even subsample of at most
    max_samples kept states is used when the cap is set.  Samples go through
    in blocks of ``block`` rows, by default as many rows of max(npix, n_rays)
    floats as fit ``diagnostics.BLOCK_FLOATS``, so the extra memory is
    O(budget); the p-values do not depend on the block.
    """
    samples = chain.samples
    if max_samples is not None and samples.shape[0] > max_samples:
        idx = np.linspace(0, samples.shape[0] - 1, max_samples).astype(int)
        samples = samples[idx]
    n = samples.shape[0]
    if n == 0:
        raise ValueError("chain holds no kept samples")
    if block is None:
        block = block_rows(max(post.basis.grid.npix, post.op.n_rays))
    pvals = np.empty(n)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        # nested so that each intermediate block is freed once it is used
        theta = post.op.apply(post.rep.apply(
            post.basis.synthesize_values(samples[lo:hi])))
        d = chi2_discrepancy(post.data.counts, theta, denominator)
        pvals[lo:hi] = chi2_sf(d, post.op.n_rays)
    stderr = float(np.std(pvals, ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return PredictiveResult(float(np.mean(pvals)), stderr, n)


# ---------------------------------------------------------------------------
# admissible interval and weight selection


@dataclass(frozen=True)
class CalibrationRow:
    tv_weight: float
    p: float
    stderr: float
    chain_steps: int
    acceptance: float


@dataclass(frozen=True)
class CalibrationResult:
    rows: tuple
    interval: tuple[float, float] | None
    band: tuple[float, float]


def admissible_interval(weights: Sequence[float], pvalues: Sequence[float],
                        band: tuple[float, float] = PB_BAND
                        ) -> tuple[float, float] | None:
    """Weights whose interpolated p-value lies inside the band.

    p is taken piecewise linear between grid points and decreasing in the
    weight; the lower endpoint comes from the upper band threshold and vice
    versa.  Returns None when the band is never entered.
    """
    w = np.asarray(weights, dtype=float)
    p = np.asarray(pvalues, dtype=float)
    if w.size != p.size or w.size < 1:
        raise ValueError("need matching, nonempty weight and p-value grids")
    if np.any(np.diff(w) <= 0.0):
        raise ValueError("weights must be strictly increasing")
    p_lo, p_hi = band
    if not 0.0 <= p_lo < p_hi <= 1.0:
        raise ValueError(f"invalid band {band}")

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
    elif hi <= lo:
        return None           # p starts below the band at w[0]
    return (lo, hi)


def admissible_search(make_posterior: Callable[[float], TGPosterior],
                      weight_grid: Sequence[float],
                      chain_steps: int = 20000,
                      band: tuple[float, float] = PB_BAND,
                      seed: int = 0,
                      beta: float | None = None,
                      max_eval_samples: int = 2000,
                      denominator: str = "theta") -> CalibrationResult:
    """Estimate p_b on a weight grid with short chains and bracket the band.

    One pcn chain per weight, p_b averaged over an even subsample of kept
    states.  Each chain starts at the last state of the previous weight's
    chain (the first at the prior mean, whose zero TV makes it a sticky
    start at large weights), and without a given beta the stepsize is tuned
    at every weight from that start: the posterior narrows as the weight
    grows, so a stepsize tuned at the first weight can leave later chains
    where they began.
    """
    weights = [float(v) for v in weight_grid]
    if sorted(weights) != weights:
        raise ValueError("weight grid must be increasing")
    rows = []
    start = None
    for i, w in enumerate(weights):
        post = make_posterior(w)
        step = (tune_stepsize(post, "pcn", n_pilot=1000, seed=seed, init=start)
                if beta is None else beta)
        cfg = SamplerConfig("pcn", chain_steps, beta=step, seed=seed + i)
        chain = run_chain(post, cfg, init=start)
        start = chain.samples[-1]
        res = posterior_predictive_p(chain, post, max_samples=max_eval_samples,
                                     denominator=denominator)
        rows.append(CalibrationRow(w, res.p, res.stderr, chain_steps,
                                   chain.acceptance_rate))
        log.info("calibration: weight %.4g -> p_b %.4g (stderr %.2g, "
                 "acceptance %.3f)", w, res.p, res.stderr,
                 chain.acceptance_rate)
    interval = admissible_interval(weights, [r.p for r in rows], band)
    return CalibrationResult(tuple(rows), interval, band)


def stochastic_approximation(mean_reg: Callable[[float, int], float],
                             n_eff: float,
                             interval: tuple[float, float],
                             a0: float = 1.0,
                             n_iters: int = 200,
                             start: float | None = None
                             ) -> tuple[float, list]:
    """Projected root-finding iteration for the evidence stationarity condition.

    mean_reg(weight, k) must return a Monte Carlo estimate of the posterior
    mean regularizer value at the given weight; the ascent direction is
    n_eff / weight - mean_reg, stepped with a_k = a0 / k and projected onto
    the interval.  Returns the final iterate and the (k, weight, gradient)
    trace; a non-settling trajectory raises a warning but still returns.
    """
    lo, hi = interval
    if not 0.0 <= lo < hi:
        raise ValueError(f"invalid interval {interval}")
    lo = max(lo, 1e-8)  # the gradient needs a positive weight
    lam = 0.5 * (lo + hi) if start is None else float(start)
    lam = min(max(lam, lo), hi)
    trace = []
    for k in range(1, n_iters + 1):
        r_hat = mean_reg(lam, k)
        grad = n_eff / lam - r_hat
        lam = min(max(lam + (a0 / k) * grad, lo), hi)
        trace.append((k, lam, grad))
    tail = [t[1] for t in trace[-max(1, n_iters // 4):]]
    if max(tail) - min(tail) > 0.25 * (hi - lo):
        warnings.warn("weight selection did not settle within the iteration "
                      "cap; returning the last projected iterate",
                      RuntimeWarning, stacklevel=2)
    return lam, trace


@dataclass(frozen=True)
class SelectionResult:
    tv_weight: float
    trace: tuple
    interval: tuple[float, float]


def select_lambda(make_posterior: Callable[[float], TGPosterior],
                  interval: tuple[float, float],
                  n_eff: float | None = None,
                  a0: float | None = None,
                  n_iters: int = 60,
                  inner_steps: int = 200,
                  beta: float | None = None,
                  seed: int = 0) -> SelectionResult:
    """Pick one TV weight inside the admissible interval.

    Each iteration runs a short warm-started pcn chain at the current weight
    and feeds the batch-mean TV of the latent field, read off the chain's
    own evaluations (its regularizer trace over the weight), to the projected
    stochastic-approximation update.  n_eff defaults to the coefficient
    dimension, an identification that is approximate for this reference
    measure, so the iterate is meaningful only within the interval it is
    projected onto.
    """
    probe = make_posterior(0.5 * (interval[0] + interval[1]))
    if n_eff is None:
        n_eff = float(probe.n_modes)
    if beta is None:
        beta = tune_stepsize(probe, "pcn", n_pilot=1000, seed=seed)
    if a0 is None:
        a0 = (interval[1] - interval[0]) / n_eff
    state = {"c": np.zeros(probe.n_modes)}

    def mean_reg(weight: float, k: int) -> float:
        post = make_posterior(weight)
        cfg = SamplerConfig("pcn", inner_steps, beta=beta, burn_in=0,
                            seed=seed + 1000 * k)
        chain = run_chain(post, cfg, init=state["c"])
        state["c"] = chain.samples[-1]
        return float(np.mean(chain.reg_trace)) / weight

    lam, trace = stochastic_approximation(mean_reg, n_eff, interval,
                                          a0=a0, n_iters=n_iters)
    return SelectionResult(lam, tuple(trace), tuple(interval))


# ---------------------------------------------------------------------------
# reports


def write_calibration_csv(result: CalibrationResult, path) -> None:
    """Rows of (tv_weight, p_b, MC stderr, chain steps, acceptance rate)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("tv_weight,p_b,stderr,chain_steps,acceptance\n")
        for r in result.rows:
            fh.write(f"{r.tv_weight:.17g},{r.p:.17g},{r.stderr:.17g},"
                     f"{r.chain_steps},{r.acceptance:.17g}\n")


def write_selection_csv(result: SelectionResult, path) -> None:
    """Trace rows of (iteration, tv_weight, gradient estimate)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("iteration,tv_weight,gradient\n")
        for k, lam, grad in result.trace:
            fh.write(f"{k},{lam:.17g},{grad:.17g}\n")
