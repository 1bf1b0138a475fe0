"""Pixelwise credible-level screening of a test image against a chain.

For each pixel the reported level is the smallest HPD coverage at which the
test value enters the interval: near 0 where the value sits at the center of
the marginal, near 1 far in the tails, exactly 1 outside the sample range.
Structure that the data cannot support lights up as a coherent high-level
region, while mere noise stays diffuse.

Memory: the screen runs over ``diagnostics.sorted_strips``: one strip of
sorted samples and its synthesis blocks share ``diagnostics.BLOCK_FLOATS``,
with a floor of one x-row and a one-row scatter, never the (n, npix) array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import sorted_strips
from .fields import ScalarField, write_field_csv, write_pgm
from .forward import Reparam
from .klbasis import KLBasis
from .samplers import Chain

__all__ = [
    "credible_level",
    "CredibleLevelMap",
    "credible_level_map",
    "inject_artifact",
    "write_level_map",
]

ARTIFACT_KINDS = ("add_blob", "remove_blob", "add_noise")


def _window_range(sorted_vals: np.ndarray, m: int, value: float):
    """Index range of length-m order-statistic windows containing value."""
    n = sorted_vals.size
    jl = int(np.searchsorted(sorted_vals, value, side="left"))
    jr = int(np.searchsorted(sorted_vals, value, side="right")) - 1
    lo = max(0, jl - m + 1)
    hi = min(jr, n - m)
    return lo, hi


def _contained(sorted_vals: np.ndarray, m: int, value: float,
               tol: float) -> bool:
    n = sorted_vals.size
    widths = sorted_vals[m - 1:] - sorted_vals[:n - m + 1]
    lo, hi = _window_range(sorted_vals, m, value)
    if lo > hi:
        return False
    return float(widths[lo:hi + 1].min()) <= float(widths.min()) + tol


def credible_level(sorted_vals: np.ndarray, value: float) -> float:
    """Smallest HPD coverage whose interval contains the value.

    Bisection over the window size of the sliding order-statistic interval;
    the answer has resolution 1/n.  Values outside the sample range return
    1.0.  Every size-1 window has width 0, so one never counts as containing
    the value, and a value equal to a sample gets at least 2/n.  For
    multimodal marginals the interval convention is the narrowest single
    window, matching the interval summaries elsewhere in the package.
    """
    s = np.asarray(sorted_vals, dtype=float)
    n = s.size
    if n == 0:
        raise ValueError("empty sample")
    if value < s[0] or value > s[-1]:
        return 1.0
    tol = 1e-12 * max(float(s[-1] - s[0]), 1.0)
    lo, hi = min(2, n), n
    while lo < hi:
        mid = (lo + hi) // 2
        if _contained(s, mid, value, tol):
            hi = mid
        else:
            lo = mid + 1
    return min(lo / n, 1.0)


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
    """Per-pixel credible levels of a test image under the chain's posterior."""
    if test_image.grid != basis.grid:
        raise ValueError("test image grid does not match the basis grid")
    if thin < 1:
        raise ValueError("thin must be at least 1")
    samples = chain.samples[::thin]
    n = samples.shape[0]
    if n == 0:
        raise ValueError("chain holds no kept samples")
    target = test_image.ravel()
    levels = np.empty(target.size)
    for pixels, strip in sorted_strips(samples, basis, rep):
        for j, p in enumerate(range(pixels.start, pixels.stop)):
            levels[p] = credible_level(strip[:, j], float(target[p]))
    return CredibleLevelMap(ScalarField(basis.grid, levels), n)


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
    if magnitude < 0.0:
        raise ValueError(f"magnitude must be nonnegative, got {magnitude}")
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


def write_level_map(level_map: CredibleLevelMap, pgm_path, csv_path) -> None:
    """Heatmap as 16-bit PGM on a fixed [0, 1] scale, plus exact CSV values."""
    write_pgm(level_map.levels, pgm_path, vmax=1.0)
    write_field_csv(level_map.levels, csv_path)
