"""Chain diagnostics and posterior summaries.

Summaries are reported on the intensity scale: coefficient samples are
synthesized to latent fields and passed through the positivity map before
averaging or interval construction.  ESS uses the initial-positive-sequence
rule: the integrated autocorrelation time sums ACF values until the first
nonpositive lag.

Memory: every pass that synthesizes chain rows, or transforms chain columns,
works on blocks of at most ``BLOCK_FLOATS`` floats (4 MB), so the posterior
mean and the ESS take O(budget) memory beyond the chain.  Exact pointwise
HPD bounds need every sample of a pixel at once: ``pointwise_hpdi`` holds
one (n, npix) intensity array and sorts it in place.
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

# float budget of one block of any blocked pass over a chain (2^19 floats)
BLOCK_FLOATS = 1 << 19


def block_rows(width: int) -> int:
    """Rows of a width-wide float block that fit the block budget."""
    return max(1, BLOCK_FLOATS // width)


def _columns(traces) -> np.ndarray:
    """A (steps, series) float array; a 1-D trace is one column."""
    x = np.atleast_2d(np.asarray(traces, dtype=float))
    if x.shape[0] == 1 and x.ndim == 2 and np.asarray(traces).ndim == 1:
        x = x.T
    if x.shape[0] < 2:
        raise ValueError("need at least two steps for an autocorrelation")
    return x


def _nfft(n: int) -> int:
    return 1 << int(np.ceil(np.log2(2 * n)))


def _acf(x: np.ndarray, mean: np.ndarray, max_lag: int):
    """ACF of the columns of x about the given column means, lags 0..max_lag;
    also returns the count of degenerate (constant) columns, set to 1."""
    n = x.shape[0]
    nfft = _nfft(n)
    spec = np.fft.rfft(x - mean, n=nfft, axis=0)
    # not in place: numpy's in-place complex product rounds differently
    cov = np.fft.irfft(spec * np.conj(spec), n=nfft, axis=0)[:max_lag + 1]
    del spec
    var = cov[0].copy()
    degenerate = var <= 0.0
    var[degenerate] = 1.0
    out = cov / var
    out[:, degenerate] = 1.0
    return out, int(np.sum(degenerate))


def _warn_degenerate(count: int) -> None:
    if count:
        log.warning("acf: %d degenerate (constant) series, returning 1 at "
                    "all lags", count)


def acf_matrix(traces: np.ndarray, max_lag: int | None = None) -> np.ndarray:
    """Column-wise autocorrelation of a (steps, series) array.

    The standard biased estimator: empirical autocovariances normalized by
    lag zero, computed with an FFT.  Columns with zero variance return 1 at
    every lag by convention after a degenerate-series warning.
    """
    x = _columns(traces)
    n = x.shape[0]
    max_lag = n - 1 if max_lag is None else min(int(max_lag), n - 1)
    out, degenerate = _acf(x, x.mean(axis=0), max_lag)
    _warn_degenerate(degenerate)
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
    """Effective sample size n / (1 + 2 tau) per column.

    Columns go through the FFT in blocks whose FFT length times column count
    fits ``BLOCK_FLOATS``, so the extra memory is a few budgets, not several
    copies of the chain.  Column means are taken over the whole array first,
    so each column's ESS is the same, bit for bit, as from ``acf_matrix``.
    """
    x = _columns(traces)
    n, m = x.shape
    mean = x.mean(axis=0)
    cols = block_rows(_nfft(n))
    tau = np.empty(m)
    degenerate = 0
    for lo in range(0, m, cols):
        rho, d = _acf(x[:, lo:lo + cols], mean[lo:lo + cols], n - 1)
        tau[lo:lo + cols] = _tau_from_acf(rho)
        degenerate += d
    _warn_degenerate(degenerate)
    return n / (1.0 + 2.0 * tau)


def _intensity_blocks(samples: np.ndarray, basis: KLBasis, rep: Reparam):
    """(first row, intensity block) pairs over the rows of samples."""
    rows = block_rows(basis.grid.npix)
    for lo in range(0, samples.shape[0], rows):
        yield lo, rep.apply(basis.synthesize_values(samples[lo:lo + rows]))


def intensity_samples(chain: Chain, basis: KLBasis, rep: Reparam,
                      thin: int = 1) -> np.ndarray:
    """Intensity fields of (possibly thinned) kept samples, (count, npix).

    The result is one (count, npix) array; synthesis runs in row blocks of
    at most ``BLOCK_FLOATS`` floats on top of it.
    """
    if thin < 1:
        raise ValueError("thin must be at least 1")
    samples = chain.samples[::thin]
    out = np.empty((samples.shape[0], basis.grid.npix))
    for lo, u in _intensity_blocks(samples, basis, rep):
        out[lo:lo + u.shape[0]] = u
    return out


def posterior_mean(chain: Chain, basis: KLBasis, rep: Reparam) -> ScalarField:
    """Sample average of the intensity u = f(z) over kept states.

    Rows are added one at a time in chain order, the order of
    ``intensity_samples(...).mean(axis=0)``, without forming that array.
    """
    if chain.n_kept == 0:
        raise ValueError("chain holds no kept samples")
    total = np.zeros(basis.grid.npix)
    for _, u in _intensity_blocks(chain.samples, basis, rep):
        for row in u:
            total += row
    return ScalarField(basis.grid, total / chain.n_kept)


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
    lower and upper envelope fields.  Holds one (n, npix) intensity array,
    sorted in place.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    u = intensity_samples(chain, basis, rep)
    if u.shape[0] == 0:
        raise ValueError("chain holds no kept samples")
    u.sort(axis=0)
    lo, hi = hpdi_sorted(u, alpha)
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
