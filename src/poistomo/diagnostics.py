"""Chain diagnostics and posterior summaries.

Summaries are reported on the intensity scale: coefficient samples are
synthesized to latent fields and passed through the positivity map before
averaging or interval construction.  ESS uses the initial-positive-sequence
rule: the integrated autocorrelation time sums ACF values until the first
nonpositive lag.

Memory: ``BLOCK_FLOATS`` floats (2 MB) bound the extra memory of a whole pass
over a chain: each blocked loop sizes its block with ``block_rows`` from all
the buffers live at once.  Column blocks (ACF and ESS transforms, level
chunks) take ``column_block``: at most a quarter of the budget, and no more
than the pass leaves free, so the diag pass peaks below the strip passes and
an FFT block fits a 2 MB L2 cache.  The samples are a ``RunMatrix`` that
stores each run of a repeated state once, and every pass that synthesizes
intensities (``posterior_mean``, the strip passes, and, one state at a time,
``calibrate.posterior_predictive_p``) does so once for each run and carries
its length; no pass forms the dense (n, n_modes) chain.  The HPD bounds and
the credible levels need every sample of a pixel, so both run over
``run_strips``: one strip of whole x-rows at a time, holding each run once
beside its length, never the (n, npix) intensity array.  The strip takes half
of the budget; synthesis and then the sort and windows of the HPD bounds, or
the level histograms, take what it leaves.  The HPD bounds repeat each run to
its length a column chunk at a time, so one plain window search serves every
chain; the levels weigh each run by its length, as their histogram work grows
with the rows held.  Floors: one x-row of a strip beside a sixteenth of the
budget for synthesis and one column of windows, and one FFT column (about 3
nfft floats, nfft the smallest 2^a 3^b 5^c at least 2 n), so a chain whose
x-row or column outgrows the budget should be thinned first.
"""

from __future__ import annotations

import logging

import numpy as np

from .fields import ScalarField
from .forward import Reparam
from .klbasis import KLBasis
from .samplers import Chain, RunMatrix, _check_counts

__all__ = [
    "acf_matrix",
    "ess_matrix",
    "intensity_samples",
    "posterior_mean",
    "pointwise_hpdi",
    "hpdi_sorted",
    "run_strips",
]

log = logging.getLogger(__name__)

# float budget of one block of any blocked pass over a chain (2^18 floats)
BLOCK_FLOATS = 1 << 18


def block_rows(width: int, held: int = 0) -> int:
    """Rows of width floats that fit the budget beside ``held`` ones, >= 1."""
    return max(1, (BLOCK_FLOATS - held) // width)


def column_block(width: int, held: int = 0) -> int:
    """Columns of width floats in min(budget / 4, budget - held), >= 1."""
    return max(1, min(BLOCK_FLOATS // 4, BLOCK_FLOATS - held) // width)


def _columns(traces):
    """A (steps, series) float array, or a RunMatrix as it is; a 1-D trace is
    one column."""
    x = traces
    if not isinstance(x, RunMatrix):
        x = np.asarray(x, dtype=float)
        x = x[:, None] if x.ndim == 1 else np.atleast_2d(x)
    if x.shape[0] < 2:
        raise ValueError("need at least two steps for an autocorrelation")
    return x


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length numpy's FFT factors fast
    (``scipy.fft.next_fast_len(n, real=True)`` without importing
    ``scipy.fft``)."""
    best = 1 << (n - 1).bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:
            # the least power of two that carries this 3^b 5^c up to n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


def _acf_blocks(x, max_lag: int):
    """(first column, ACF block) pairs, lags 0..max_lag about the column
    means.  A block holds ``column_block`` columns of their spectra, its
    product and the inverse transform (3 (nfft + 2) floats a column): a
    quarter of the budget, below the strip passes' peak and within a 2 MB L2
    cache.  The gathered block beside its running sums, then its centred
    copy (2 n <= nfft floats a column), is freed before the product."""
    n, m = x.shape
    # at least 2 n, so the transform has no circular wrap, and fast to factor
    nfft = _fast_len(2 * n)
    cols = column_block(3 * (nfft + 2))
    degenerate = 0
    for lo in range(0, m, cols):
        block = x[:, lo:lo + cols]
        # the rows added one at a time in order: numpy's mean(axis=0) sums a
        # lone contiguous column pairwise, which would make a column's ACF
        # depend on its block
        block = block - np.cumsum(block, axis=0)[-1] / n
        spec = np.fft.rfft(block, n=nfft, axis=0)
        del block
        # in place at every block size: numpy elides the temporary of
        # spec * np.conj(spec) only from 256 KiB, and the two products round
        # differently, so a column's values would depend on its block
        power = np.conj(spec)
        power *= spec
        del spec
        cov = np.fft.irfft(power, n=nfft, axis=0)[:max_lag + 1]
        del power
        flat = cov[0] <= 0.0
        cov = cov / np.where(flat, 1.0, cov[0])   # frees the whole transform
        cov[:, flat] = 1.0
        degenerate += int(np.sum(flat))
        yield lo, cov
    if degenerate:
        log.warning("acf: %d degenerate (constant) series, returning 1 at "
                    "all lags", degenerate)


def acf_matrix(traces: np.ndarray, max_lag: int | None = None) -> np.ndarray:
    """Column-wise autocorrelation of a (steps, series) array, (lags, series).

    The standard biased estimator: empirical autocovariances normalized by
    lag zero, computed with an FFT.  Columns with zero variance return 1 at
    every lag by convention after a degenerate-series warning.  max_lag must
    be nonnegative; above steps - 1 it is cut to that.
    """
    x = _columns(traces)
    n = x.shape[0]
    if max_lag is not None and max_lag < 0:
        raise ValueError(f"max_lag must be nonnegative, got {max_lag}")
    max_lag = n - 1 if max_lag is None else min(int(max_lag), n - 1)
    out = np.empty((max_lag + 1, x.shape[1]))
    for lo, rho in _acf_blocks(x, max_lag):
        out[:, lo:lo + rho.shape[1]] = rho
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
    """Effective sample size n / (1 + 2 tau) per column, over the column
    blocks of ``acf_matrix``.  A constant column has ACF 1 at every lag and
    so an ESS of n / (2 n - 1), about 0.5: a chain that never moved has a
    median ESS near 0.5 and one distinct state (``RunMatrix.n_runs``)."""
    x = _columns(traces)
    tau = [_tau_from_acf(rho) for _, rho in _acf_blocks(x, x.shape[0] - 1)]
    return x.shape[0] / (1.0 + 2.0 * np.concatenate(tau))


def intensity_samples(chain: Chain, basis: KLBasis, rep: Reparam,
                      thin: int = 1) -> np.ndarray:
    """Intensity fields of (possibly thinned) kept samples, (count, npix).

    Synthesis runs in row blocks within ``BLOCK_FLOATS`` on top of the
    result; a row holds 2 n_modes + 2 npix floats at once: the gathered
    coefficients, their weights, and the scatter and its product
    (``KLModes.synthesize``).
    """
    _check_counts(thin=thin)
    samples = chain.samples[::thin]
    rows = block_rows(2 * basis.n_modes + 2 * basis.grid.npix)
    out = np.empty((samples.shape[0], basis.grid.npix))
    for lo in range(0, samples.shape[0], rows):
        out[lo:lo + rows] = rep.apply(
            basis.synthesize_values(samples[lo:lo + rows, :]))
    return out


def posterior_mean(chain: Chain, basis: KLBasis, rep: Reparam) -> ScalarField:
    """Sample average of the intensity u = f(z) over kept states.

    Each run of a repeated state is synthesized once, in blocks of runs
    counted as in ``intensity_samples``, and its intensity is added once per
    kept row in chain order, the order of
    ``intensity_samples(...).mean(axis=0)``, without forming that array.
    """
    runs, lengths = chain.samples.stretches()
    rows = block_rows(2 * basis.n_modes + 2 * basis.grid.npix)
    total = np.zeros(basis.grid.npix)
    for a in range(0, runs.size, rows):
        u = rep.apply(basis.synthesize_values(
            chain.samples.rows[runs[a:a + rows]]))
        for row, count in zip(u, lengths[a:a + rows]):
            for _ in range(count):
                total += row
        del u, row   # free this block before the next one is synthesized
    return ScalarField(basis.grid, total / chain.n_kept)


def run_strips(samples: RunMatrix, basis: KLBasis, rep: Reparam):
    """Intensity samples of the pixels, one strip of whole x-rows at a time.

    Yields (pixels, strip, lengths) triples: ``pixels`` slices the flat
    image, ``strip`` holds the intensities of those pixels for each stretch
    of ``samples.stretches()`` (a chain's runs), synthesized once, unsorted,
    and ``lengths`` counts the sample rows of each stretch, or is None when
    every stretch is one row.  ``pointwise_hpdi`` repeats each stretch to
    its length (one window search), ``credible_level`` weighs it (histograms
    of one row a stretch).  A strip takes as many x-rows as fit in half of
    ``BLOCK_FLOATS``, at least one.
    Synthesis blocks take the rest, at least a sixteenth of the budget, a
    row costing a scatter row, the gathered coefficients, their weights and
    the two products of ``KLBasis.synthesize_values`` for the band.  One
    strip buffer serves the pass, so each yielded strip is overwritten by
    the next.
    """
    runs, lengths = samples.stretches()
    n = runs.size
    if n == samples.shape[0]:
        # all single rows: the passes then sort in place and form no count
        # or weight array, which keeps 9,000 distinct desk rows in budget
        lengths = None
    nx, ny = basis.grid.shape
    width = min(nx, block_rows(2 * n * ny))
    buf = np.empty(n * width * ny)
    per_row = basis.grid.npix + 2 * basis.n_modes + 2 * (width + 1) * ny
    rows = min(n, max(block_rows(per_row, held=buf.size),
                      block_rows(16 * per_row)))
    log.info("strip pass: %d samples, %d states synthesized, %d pixels, "
             "%d strips of %.2f MB", samples.shape[0], n, basis.grid.npix,
             -(-nx // width), buf.nbytes / 2**20)
    for x0 in range(0, nx, width):
        x_rows = slice(x0, min(x0 + width, nx))
        strip = buf[:n * (x_rows.stop - x0) * ny].reshape(n, -1)
        for a in range(0, n, rows):
            strip[a:a + rows] = rep.apply(basis.synthesize_values(
                samples.rows[runs[a:a + rows]], x_rows))
        yield slice(x0 * ny, x_rows.stop * ny), strip, lengths


def hpdi_sorted(sorted_vals: np.ndarray, alpha: float):
    """Narrowest window of ceil((1 - alpha) n) consecutive order statistics.

    Works along axis 0: a sorted (n,) sample gives the two window ends as
    scalars, an (n, k) block sorted down its columns gives two length-k
    arrays, one window per column.  Ties go to the lowest window.  A chain
    comes with each run repeated to its length (``pointwise_hpdi``): a
    window from a later copy of a value is no narrower than one from its
    first copy, so no search over run weights is needed.
    """
    s = np.asarray(sorted_vals, dtype=float)
    n = s.shape[0] if s.ndim else 0
    if n == 0:
        raise ValueError("empty sample")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    v = s.reshape(n, -1)
    col = np.arange(v.shape[1])
    size = max(1, int(np.ceil((1.0 - alpha) * n)))
    first = np.argmin(v[size - 1:] - v[:n - size + 1], axis=0)
    return (v[first, col].reshape(s.shape[1:])[()],
            v[first + size - 1, col].reshape(s.shape[1:])[()])


def pointwise_hpdi(chain: Chain, basis: KLBasis, rep: Reparam,
                   alpha: float) -> tuple[ScalarField, ScalarField]:
    """Per-pixel highest-posterior-density intervals of the intensity.

    Marginal credible intervals only; nothing joint is claimed.  Returns the
    lower and upper envelope fields.  Works over ``run_strips``, so it never
    holds the (n, npix) intensity array: a column chunk of a strip, each run
    repeated to its length, is sorted in place and ``hpdi_sorted`` takes its
    windows.  A chunk fits what the strip leaves of ``BLOCK_FLOATS`` (at
    least one column), at 2 floats a kept row, 3 with the repeated copy.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    lo, hi = np.empty(basis.grid.npix), np.empty(basis.grid.npix)
    for pixels, strip, lengths in run_strips(chain.samples, basis, rep):
        cols = block_rows((2 if lengths is None else 3) * chain.n_kept,
                          held=strip.size)
        for j in range(0, strip.shape[1], cols):
            part = strip[:, j:j + cols]
            if lengths is not None:
                part = np.repeat(part, lengths, axis=0)
            part.sort(axis=0)
            p = slice(pixels.start + j, pixels.start + j + part.shape[1])
            lo[p], hi[p] = hpdi_sorted(part, alpha)
    return (ScalarField(basis.grid, lo), ScalarField(basis.grid, hi))
