"""Pixel grids on the unit square and the discrete calculus used everywhere else.

Images are (nx, ny) arrays; axis 0 is the first spatial coordinate.  A
vector field, such as the gradient of an image, is one stacked (2, nx, ny)
array whose first index picks the component along axis 0 or axis 1.  The
calculus is three raw kernels on such arrays: ``grad_arrays`` (forward
differences), ``div_arrays`` (its exact negative adjoint) and ``iso_l1``
(the isotropic l1 norm, so that TV(z) = iso_l1(grad z)); the norm carries
the cell-area quadrature weight, so it approximates an integral over the
domain.  ``ScalarField`` pairs an image with its grid where one
crosses an API boundary (image files, phantoms, summaries); its values are
read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "grad_arrays",
    "div_arrays",
    "iso_l1",
    "tv_arrays",
    "psnr",
    "write_field_csv",
    "read_field_csv",
]


@dataclass(frozen=True)
class Grid:
    """Uniform pixel grid on the unit square.

    Pixel (i, j) has its center at ((i + 1/2) * hx, (j + 1/2) * hy).
    """

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"grid must be at least 2x2, got {self.nx}x{self.ny}")

    @property
    def hx(self) -> float:
        return 1.0 / self.nx

    @property
    def hy(self) -> float:
        return 1.0 / self.ny

    @property
    def cell(self) -> float:
        """Pixel area, the quadrature weight of the discrete L2 inner product."""
        return self.hx * self.hy

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def npix(self) -> int:
        return self.nx * self.ny

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Pixel-center coordinates as 1d arrays (x along axis 0, y along axis 1)."""
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return x, y


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _conform(values, grid: Grid) -> np.ndarray:
    """Accept (nx, ny) arrays or flat length-npix vectors; reject the rest."""
    v = np.array(values, dtype=float)
    if v.ndim == 1:
        if v.size != grid.npix:
            raise ValueError(
                f"flat values have length {v.size}, grid needs {grid.npix}")
        return v.reshape(grid.shape)
    if v.shape != grid.shape:
        raise ValueError(f"values shaped {v.shape} do not fit grid {grid.shape}")
    return v


@dataclass(frozen=True)
class ScalarField:
    """Real-valued function sampled at pixel centers."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = _conform(self.values, self.grid)
        object.__setattr__(self, "values", _freeze(v))

    def ravel(self) -> np.ndarray:
        """Row-major flat view of the values."""
        return self.values.reshape(-1)


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError(f"grid mismatch: {a.grid} vs {b.grid}")


def grad_arrays(vals: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """Discrete gradient of an (nx, ny) image as a (2, nx, ny) array.

    Forward differences scaled by the spacing; the replicate (Neumann)
    boundary zeroes the last difference along each axis, so constant images
    map to the zero field exactly.
    """
    g = np.zeros((2,) + vals.shape)
    g[0, :-1, :] = (vals[1:, :] - vals[:-1, :]) / hx
    g[1, :, :-1] = (vals[:, 1:] - vals[:, :-1]) / hy
    return g


def div_arrays(v: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """Exact negative adjoint of grad_arrays for a (2, nx, ny) field.

    <grad_arrays(f), v> + <f, div_arrays(v)> = 0 for every pair under the
    uniform-weight pairing: backward differences in the interior, and the
    boundary rows carry the one-sided terms that make the identity exact.
    """
    c1, c2 = v
    out = np.zeros_like(c1)
    out[0, :] += c1[0, :] / hx
    out[1:-1, :] += (c1[1:-1, :] - c1[:-2, :]) / hx
    out[-1, :] -= c1[-2, :] / hx
    out[:, 0] += c2[:, 0] / hy
    out[:, 1:-1] += (c2[:, 1:-1] - c2[:, :-2]) / hy
    out[:, -1] -= c2[:, -2] / hy
    return out


def iso_l1(v: np.ndarray, hx: float, hy: float) -> float:
    """Cell-weighted isotropic l1 norm of a (2, nx, ny) field: the sum of the
    pointwise magnitudes times the pixel area."""
    return float(np.sum(np.hypot(v[0], v[1]))) * hx * hy


def tv_arrays(vals: np.ndarray, hx: float, hy: float) -> float:
    """Isotropic total variation of an (nx, ny) image.

    One-homogeneous, satisfies the triangle inequality and is invariant under
    constant shifts.  On a unit ramp it returns 1 - 1/nx (the replicate
    boundary drops the last column of differences).
    """
    return iso_l1(grad_arrays(vals, hx, hy), hx, hy)


def psnr(f: ScalarField, ref: ScalarField) -> float:
    """Peak signal-to-noise ratio in dB against a reference field.

    The peak is the maximum of the reference.  Identical fields return
    math.inf as the degenerate-MSE marker.
    """
    _check_same_grid(f, ref)
    diff = f.values - ref.values
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return math.inf
    peak = float(np.max(ref.values))
    if peak <= 0.0:
        raise ValueError("reference peak must be positive for psnr")
    return 10.0 * math.log10(peak * peak / mse)


# ---------------------------------------------------------------------------
# file formats


def write_field_csv(f: ScalarField, path) -> None:
    """Flat CSV, one value per line in row-major order."""
    np.savetxt(path, f.ravel(), fmt="%.17g")


def read_field_csv(path, grid: Grid) -> ScalarField:
    vals = np.loadtxt(path, dtype=float).reshape(-1)
    if vals.size != grid.npix:
        raise ValueError(f"{path}: expected {grid.npix} values, found {vals.size}")
    if not np.isfinite(vals).all():
        raise ValueError(f"{path}: a pixel is not finite")
    return ScalarField(grid, vals)
