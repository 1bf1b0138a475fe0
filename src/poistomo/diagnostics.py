"""Chain diagnostics and posterior summaries.

Summaries are reported on the intensity scale: coefficient samples are
synthesized to latent fields and passed through the positivity map before
averaging or interval construction.  ESS uses the initial-positive-sequence
rule: the integrated autocorrelation time sums ACF values until the first
nonpositive lag.
"""

from __future__ import annotations

import logging

import numpy as np

from .fields import ScalarField
from .forward import Reparam
from .klbasis import KLBasis
from .samplers import Chain

__all__ = [
    "acf_matrix",
    "ess_matrix",
    "intensity_samples",
    "posterior_mean",
    "pointwise_hpdi",
    "hpdi_sorted",
    "write_acf_csv",
    "write_ess_csv",
]

log = logging.getLogger(__name__)


def acf_matrix(traces: np.ndarray, max_lag: int | None = None) -> np.ndarray:
    """Column-wise autocorrelation of a (steps, series) array.

    The standard biased estimator: empirical autocovariances normalized by
    lag zero, computed with an FFT.  Columns with zero variance return 1 at
    every lag by convention after a degenerate-series warning.
    """
    x = np.atleast_2d(np.asarray(traces, dtype=float))
    if x.shape[0] == 1 and x.ndim == 2 and np.asarray(traces).ndim == 1:
        x = x.T
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least two steps for an autocorrelation")
    max_lag = n - 1 if max_lag is None else min(int(max_lag), n - 1)
    centered = x - x.mean(axis=0)
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(centered, n=nfft, axis=0)
    cov = np.fft.irfft(spec * np.conj(spec), n=nfft, axis=0)[:max_lag + 1]
    var = cov[0].copy()
    degenerate = var <= 0.0
    if np.any(degenerate):
        log.warning("acf: %d degenerate (constant) series, returning 1 at "
                    "all lags", int(np.sum(degenerate)))
        var[degenerate] = 1.0
    out = cov / var
    out[:, degenerate] = 1.0
    return out


def _tau_from_acf(rho: np.ndarray) -> np.ndarray:
    """Integrated time per column: sum rho[1:] up to the first nonpositive lag."""
    tail = rho[1:]
    nonpos = tail <= 0.0
    # index of the first nonpositive lag, or the full length if none
    first = np.where(nonpos.any(axis=0), nonpos.argmax(axis=0), tail.shape[0])
    csum = np.vstack([np.zeros(tail.shape[1]), np.cumsum(tail, axis=0)])
    return csum[first, np.arange(tail.shape[1])]


def ess_matrix(traces: np.ndarray) -> np.ndarray:
    """Effective sample size n / (1 + 2 tau) per column."""
    x = np.asarray(traces, dtype=float)
    rho = acf_matrix(x)
    return x.shape[0] / (1.0 + 2.0 * _tau_from_acf(rho))


def intensity_samples(chain: Chain, basis: KLBasis, rep: Reparam,
                      thin: int = 1, block: int = 2048) -> np.ndarray:
    """Intensity fields of (possibly thinned) kept samples, (count, npix)."""
    if thin < 1:
        raise ValueError("thin must be at least 1")
    samples = chain.samples[::thin]
    out = np.empty((samples.shape[0], basis.grid.npix))
    for lo in range(0, samples.shape[0], block):
        hi = min(lo + block, samples.shape[0])
        out[lo:hi] = rep.apply(basis.synthesize_values(samples[lo:hi]))
    return out


def posterior_mean(chain: Chain, basis: KLBasis, rep: Reparam) -> ScalarField:
    """Sample average of the intensity u = f(z) over kept states."""
    if chain.n_kept == 0:
        raise ValueError("chain holds no kept samples")
    return ScalarField(basis.grid,
                       intensity_samples(chain, basis, rep).mean(axis=0))


def hpdi_sorted(sorted_vals: np.ndarray, alpha: float):
    """Narrowest window of ceil((1 - alpha) n) consecutive order statistics.

    Works along axis 0: a sorted (n,) sample gives the two window ends as
    scalars, an (n, k) block sorted down its columns gives two length-k
    arrays, one window per column.  Ties go to the lowest window.
    """
    s = np.asarray(sorted_vals, dtype=float)
    n = s.shape[0] if s.ndim else 0
    if n == 0:
        raise ValueError("empty sample")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    m = max(1, int(np.ceil((1.0 - alpha) * n)))
    widths = s[m - 1:] - s[:n - m + 1]
    i = np.expand_dims(np.argmin(widths, axis=0), 0)
    lo = np.take_along_axis(s, i, axis=0)[0]
    hi = np.take_along_axis(s, i + m - 1, axis=0)[0]
    return lo, hi


def pointwise_hpdi(chain: Chain, basis: KLBasis, rep: Reparam,
                   alpha: float) -> tuple[ScalarField, ScalarField]:
    """Per-pixel highest-posterior-density intervals of the intensity.

    Marginal credible intervals only; nothing joint is claimed.  Returns the
    lower and upper envelope fields.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    u = intensity_samples(chain, basis, rep)
    if u.shape[0] == 0:
        raise ValueError("chain holds no kept samples")
    lo, hi = hpdi_sorted(np.sort(u, axis=0), alpha)
    return (ScalarField(basis.grid, lo), ScalarField(basis.grid, hi))


def write_acf_csv(path, rho: np.ndarray, labels=None) -> None:
    """Lag-by-series ACF table; one column per series."""
    rho = np.atleast_2d(np.asarray(rho, dtype=float))
    if rho.shape[0] == 1:
        rho = rho.T
    labels = labels or [f"series{i}" for i in range(rho.shape[1])]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("lag," + ",".join(labels) + "\n")
        for lag in range(rho.shape[0]):
            row = ",".join(f"{v:.17g}" for v in rho[lag])
            fh.write(f"{lag},{row}\n")


def write_ess_csv(path, values, labels=None) -> None:
    values = np.asarray(values, dtype=float).reshape(-1)
    labels = labels or [f"series{i}" for i in range(values.size)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("series,ess\n")
        for lab, v in zip(labels, values):
            fh.write(f"{lab},{v:.17g}\n")
