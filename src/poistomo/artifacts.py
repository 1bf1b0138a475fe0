"""Pixelwise credible-level screening of a test image against a chain.

Each pixel's level is that of the highest-density region (Hyndman 1996):
the share of the kept samples where the pixel's marginal density is higher
than at the test value v, an estimate of P(p(X) > p(v)).  It is near 0 at
the mode, near 1 far in the tails, exactly 1 outside the sample range, and
a multiple of 1/n for n kept samples.  Structure that the data cannot
support lights up as a coherent high-level region, while mere noise stays
diffuse.

Memory: the screen runs over ``diagnostics.run_strips``, the strip form
that the HPD bounds also use: each strip holds every distinct kept state
once beside its run length, never the (n, npix) intensity array, and the
level histograms of its columns take what it leaves of the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import column_block, run_strips
from .fields import ScalarField
from .forward import Reparam
from .klbasis import KLBasis
from .samplers import Chain, _check_counts

__all__ = [
    "credible_level",
    "CredibleLevelMap",
    "credible_level_map",
    "inject_artifact",
]

ARTIFACT_KINDS = ("add_blob", "remove_blob", "add_noise")


LEVEL_BINS = 256   # bins of the density estimate of one pixel's marginal


def _levels(vals: np.ndarray, weights, target: np.ndarray) -> np.ndarray:
    """Levels of k targets, one a column of (m, k) vals; weights None: one
    each."""
    m, k = vals.shape
    n = m if weights is None else weights.sum()

    def average(a):
        return a.mean(axis=0) if weights is None else weights @ a / n

    d = vals - average(vals)
    d *= d
    h = 0.9 * np.sqrt(average(d)) * n ** -0.2   # Silverman's rule of thumb
    lo, hi = vals.min(axis=0), vals.max(axis=0)
    h[lo == hi] = 0.0   # one distinct value, whatever the mean rounds to
    left = lo - 3.0 * h
    step = np.where(lo == hi, 1.0, (hi - lo + 6.0 * h) / LEVEL_BINS)
    np.subtract(vals, left, out=d)
    d /= step
    bins = d.astype(np.intp)
    del d
    np.minimum(bins, LEVEL_BINS - 1, out=bins)
    bins += LEVEL_BINS * np.arange(k)
    counts = np.bincount(bins.ravel(), None if weights is None else
                         np.repeat(weights, k), k * LEVEL_BINS)
    counts = counts.reshape(k, LEVEL_BINS)
    del bins
    # Gaussian smoothing as a product of transforms; a kernel that wraps
    # round reaches the samples and the value only after the two 3-bandwidth
    # margins, where it has fallen to exp(-18) of its peak
    spec = np.fft.rfft(counts)
    spec *= np.exp(-2.0 * (np.pi * (h / step)[:, None]
                           * np.fft.rfftfreq(LEVEL_BINS)) ** 2)
    dens = np.fft.irfft(spec, LEVEL_BINS)
    pos = np.clip((target - left) / step - 0.5, 0.0, LEVEL_BINS - 1.0)
    i, r = np.minimum(pos.astype(np.intp), LEVEL_BINS - 2), np.arange(k)
    at = dens[r, i] + (pos - i) * (dens[r, i + 1] - dens[r, i])
    level = np.sum(counts, axis=1, where=dens > at[:, None]) / n
    level[(target < lo) | (target > hi)] = 1.0
    return level


def credible_level(values: np.ndarray, value, weights=None):
    """HPD-region level P(p(X) > p(value)) of a value under a sample.

    ``values`` is a sample (m,), or an (m, k) block of one sample a column
    with one value a column, in any row order; ``weights`` counts each row
    (a chain's run lengths), one each by default, and n is their sum.  The
    density p is the weighted histogram of ``LEVEL_BINS`` bins over the range
    plus 3 bandwidths each side, smoothed by a Gaussian of Silverman's
    bandwidth 0.9 sd n^(-1/5) and read linearly between bin centres; the
    level is the weight in bins denser than the value, over n.  So it is a
    multiple of 1/n for integer weights, exactly 1 outside the sample range
    and 0 at the one value of a constant sample.  Above about 0.98, in the
    sparse tail of a skewed marginal, the density has a bump at each
    isolated sample, so away from the mode the level can dip by a few 1/n
    (by at most 6/n on 4,500 gamma(3) draws).  Columns go in chunks of
    ``diagnostics.column_block`` (3 m + 4 ``LEVEL_BINS`` floats a column
    beside the values): a quarter of the budget at most, within L2 cache.
    """
    vals = np.asarray(values, dtype=float)
    cols = vals.reshape(vals.shape[0], -1)
    m, k = cols.shape
    if weights is not None and np.shape(weights) != (m,):
        raise ValueError(f"expected {m} weights, got {np.shape(weights)}")
    w = None if weights is None else np.asarray(weights, dtype=float)
    target = np.broadcast_to(np.asarray(value, dtype=float), (k,))
    if not np.isfinite(target).all():
        raise ValueError("the values to screen must be finite")
    chunk = column_block(3 * m + 4 * LEVEL_BINS, held=cols.size)
    out = np.empty(k)
    for j in range(0, k, chunk):
        out[j:j + chunk] = _levels(cols[:, j:j + chunk], w,
                                   target[j:j + chunk])
    return float(out[0]) if vals.ndim == 1 else out


@dataclass(frozen=True)
class CredibleLevelMap:
    levels: ScalarField = field(repr=False)
    n_samples: int

    @property
    def resolution(self) -> float:
        return 1.0 / self.n_samples


def credible_level_map(chain: Chain, basis: KLBasis, rep: Reparam,
                       test_image: ScalarField, thin: int = 1
                       ) -> CredibleLevelMap:
    """Per-pixel credible levels of a test image under the chain's posterior.

    Each strip of ``run_strips`` holds every distinct kept state once, and
    ``credible_level`` weighs it by the kept rows it stands for, so the
    levels are those of the n (thinned) kept samples.  A non-finite pixel
    of the test image is refused before any state is synthesized.
    """
    if test_image.grid != basis.grid:
        raise ValueError("test image grid does not match the basis grid")
    _check_counts(thin=thin)
    target = test_image.ravel()
    if not np.isfinite(target).all():
        raise ValueError("the values to screen must be finite")
    samples = chain.samples[::thin]
    levels = np.empty(target.size)
    for pixels, strip, lengths in run_strips(samples, basis, rep):
        levels[pixels] = credible_level(strip, target[pixels], lengths)
    return CredibleLevelMap(ScalarField(basis.grid, levels), samples.shape[0])


def inject_artifact(image: ScalarField, kind: str, magnitude: float,
                    center: tuple[float, float] | None = None,
                    radius: float | None = None,
                    rng: np.random.Generator | None = None) -> ScalarField:
    """Perturb an intensity image with a known, exactly-described change.

    Kinds: "add_blob" / "remove_blob" shift a disk (center and radius in
    domain coordinates, the disk must lie inside the unit square) up or down
    by magnitude; "add_noise" adds independent Gaussian pixel noise with
    standard deviation magnitude (an rng is required).  Results are clamped
    at zero from below.
    """
    if kind not in ARTIFACT_KINDS:
        raise ValueError(f"kind must be one of {ARTIFACT_KINDS}, got {kind!r}")
    if not 0.0 <= magnitude < np.inf:
        raise ValueError(f"magnitude must be finite and >= 0, got {magnitude}")
    vals = image.values.copy()
    if kind == "add_noise":
        if rng is None:
            raise ValueError("add_noise requires an rng")
        vals += magnitude * rng.standard_normal(vals.shape)
    else:
        if center is None or radius is None:
            raise ValueError(f"{kind} requires center and radius")
        cx, cy = center
        if radius <= 0.0:
            raise ValueError(f"radius must be positive, got {radius}")
        if not (radius <= cx <= 1.0 - radius and radius <= cy <= 1.0 - radius):
            raise ValueError("blob leaves the unit square")
        x, y = image.grid.centers()
        inside = ((x[:, None] - cx) ** 2 + (y[None, :] - cy) ** 2
                  <= radius ** 2)
        vals[inside] += magnitude if kind == "add_blob" else -magnitude
    return ScalarField(image.grid, np.maximum(vals, 0.0))
