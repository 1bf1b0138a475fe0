"""Karhunen-Loeve basis of the Gaussian reference measure.

The covariance kernel gamma * exp(-||x - x'||_1 / d) is separable in the two
coordinates, so its discrete eigenpairs are tensor products of two cheap 1d
eigendecompositions.  Coefficient vectors are standard normal under the
reference measure; the covariance acts diagonally on expansion weights, which
is what makes the preconditioned samplers dimension-robust.

Coordinate conventions used throughout the package:

* a coefficient vector c represents the field  mean + sum_i c_i sqrt(eta_i) e_i,
* ``project`` returns plain expansion weights <f, e_i> of a field,
* derivative vectors d/dc of scalar functionals are obtained from pixel-value
  derivatives via ``pullback``; in these coordinates the reference covariance
  is the identity.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field

import numpy as np

from .fields import Grid, ScalarField

__all__ = [
    "CovarianceSpec",
    "KLBasis",
    "build_kl_basis",
    "save_basis",
    "load_basis",
]

log = logging.getLogger(__name__)

EIGENVALUE_FLOOR_REL = 1e-14


@dataclass(frozen=True)
class CovarianceSpec:
    """Amplitude and correlation length of the exponential covariance kernel."""

    gamma: float = 2.0
    corr_len: float = 1e-3

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.corr_len <= 0.0:
            raise ValueError(f"corr_len must be positive, got {self.corr_len}")


def _axis_eigpairs(n: int, h: float, corr_len: float):
    """Eigenpairs of the 1d exponential kernel, orthonormal under weight h."""
    t = (np.arange(n) + 0.5) * h
    K = np.exp(-np.abs(t[:, None] - t[None, :]) / corr_len)
    vals, vecs = np.linalg.eigh(K * h)
    order = np.argsort(vals)[::-1]
    # rows of the returned matrix are eigenfunctions sampled at the centers
    return vals[order], (vecs[:, order] / np.sqrt(h)).T


@dataclass(frozen=True)
class KLBasis:
    """Truncated eigenexpansion of the reference covariance on a grid.

    ``modes`` holds one eigenfield per row (row-major pixels); rows are
    orthonormal in the cell-weighted inner product.  ``eigenvalues`` are the
    matching covariance eigenvalues, sorted descending.
    """

    grid: Grid
    cov: CovarianceSpec
    eigenvalues: np.ndarray = field(repr=False)
    modes: np.ndarray = field(repr=False)
    mean: np.ndarray = field(repr=False)

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        md = np.asarray(self.modes, dtype=float)
        mn = np.asarray(self.mean, dtype=float).reshape(-1)
        if md.shape != (ev.size, self.grid.npix):
            raise ValueError(f"modes shape {md.shape} does not match "
                             f"{ev.size} eigenvalues on {self.grid.npix} pixels")
        if mn.size != self.grid.npix:
            raise ValueError("mean length does not match the grid")
        for a in (ev, md, mn):
            a.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "modes", md)
        object.__setattr__(self, "mean", mn)
        object.__setattr__(self, "_sqrt_eta", np.sqrt(ev))

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size

    def synthesize_values(self, c) -> np.ndarray:
        """Flat pixel values of mean + sum_i c_i sqrt(eta_i) e_i.

        A (k, n_modes) block of coefficient rows gives a (k, npix) block of
        pixel rows; any other shape is read as one coefficient vector.
        """
        c = np.asarray(c, dtype=float)
        if c.ndim != 2:
            c = c.reshape(-1)
        if c.shape[-1] != self.n_modes:
            raise ValueError(f"expected {self.n_modes} coefficients per row, "
                             f"got {c.shape[-1]}")
        values = (c * self._sqrt_eta) @ self.modes
        values += self.mean
        return values

    def synthesize(self, c) -> ScalarField:
        return ScalarField(self.grid, self.synthesize_values(c))

    def project(self, f: ScalarField, k: int | None = None) -> np.ndarray:
        """Expansion weights <f, e_i> of the leading k modes (cell-weighted)."""
        k = self.n_modes if k is None else int(k)
        if not 0 <= k <= self.n_modes:
            raise ValueError(f"k must be in [0, {self.n_modes}], got {k}")
        if f.grid != self.grid:
            raise ValueError("field grid does not match the basis grid")
        return self.grid.cell * (self.modes[:k] @ f.ravel())

    def sample_reference(self, rng: np.random.Generator) -> np.ndarray:
        """Coefficient draw from the reference measure: i.i.d. standard normal."""
        return rng.standard_normal(self.n_modes)

    def apply_c0(self, vec) -> np.ndarray:
        """Covariance acting on expansion weights: multiply by eta_i."""
        return self.eigenvalues * np.asarray(vec, dtype=float)

    def apply_c0_sqrt(self, vec) -> np.ndarray:
        """Covariance square root on expansion weights: multiply by sqrt(eta_i)."""
        return self._sqrt_eta * np.asarray(vec, dtype=float)

    def pullback(self, dvalues) -> np.ndarray:
        """Chain rule: pixel-value derivative dF/du -> coefficient derivative dF/dc.

        For F(c) = F(values = mean + (c * sqrt(eta)) @ modes) this is
        sqrt(eta) * (modes @ dF/dvalues); no quadrature weight enters because
        the derivative pairs raw values, not L2 functions.
        """
        d = np.asarray(dvalues, dtype=float).reshape(-1)
        return self._sqrt_eta * (self.modes @ d)


def build_kl_basis(grid: Grid, cov: CovarianceSpec, n_modes: int,
                   mean: float | ScalarField = 0.0) -> KLBasis:
    """Assemble the leading n_modes eigenpairs of the separable kernel.

    The two 1d kernel matrices are eigendecomposed with the cell-width
    quadrature weight; products of 1d eigenvalues (scaled by gamma) are sorted
    descending and the top n_modes retained.  Numerically non-positive
    products are clamped at 1e-14 times the leading eigenvalue and reported.
    """
    if not 1 <= n_modes <= grid.npix:
        raise ValueError(f"n_modes must be in [1, {grid.npix}], got {n_modes}")
    vx, ex = _axis_eigpairs(grid.nx, grid.hx, cov.corr_len)
    vy, ey = _axis_eigpairs(grid.ny, grid.hy, cov.corr_len)
    prod = cov.gamma * np.outer(vx, vy)  # (nx, ny) products, index (i, j)
    flat = prod.reshape(-1)
    order = np.argsort(-flat, kind="stable")[:n_modes]
    eta = flat[order]
    floor = EIGENVALUE_FLOOR_REL * eta[0]
    n_clamped = int(np.sum(eta < floor))
    if n_clamped:
        log.warning("clamped %d kl eigenvalues below %.3e", n_clamped, floor)
        eta = np.maximum(eta, floor)
    ii, jj = np.unravel_index(order, prod.shape)
    modes = np.empty((n_modes, grid.npix))
    for r, (i, j) in enumerate(zip(ii, jj)):
        modes[r] = np.outer(ex[i], ey[j]).reshape(-1)
    if isinstance(mean, ScalarField):
        if mean.grid != grid:
            raise ValueError("mean field grid does not match")
        mean_vals = mean.ravel().copy()
    else:
        mean_vals = np.full(grid.npix, float(mean))
    return KLBasis(grid, cov, eta, modes, mean_vals)


# ---------------------------------------------------------------------------
# cache file: magic "KLB1", little-endian header, then float64 payload

_HEADER = struct.Struct("<4sIIddI")


def save_basis(basis: KLBasis, path) -> None:
    """Cache a basis: header (grid dims, kernel parameters, mode count),
    then eigenvalues, eigenfields and the mean field as little-endian f64."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(b"KLB1", basis.grid.nx, basis.grid.ny,
                              basis.cov.gamma, basis.cov.corr_len,
                              basis.n_modes))
        fh.write(basis.eigenvalues.astype("<f8").tobytes())
        fh.write(basis.modes.astype("<f8").tobytes())
        fh.write(basis.mean.astype("<f8").tobytes())


def load_basis(path) -> KLBasis:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"{path}: truncated basis file")
        magic, nx, ny, gamma, corr_len, n = _HEADER.unpack(head)
        if magic != b"KLB1":
            raise ValueError(f"{path}: bad magic {magic!r}")
        grid = Grid(nx, ny)
        payload = np.frombuffer(fh.read(), dtype="<f8")
    want = n + n * grid.npix + grid.npix
    if payload.size != want:
        raise ValueError(f"{path}: payload has {payload.size} floats, expected {want}")
    eigenvalues = payload[:n]
    modes = payload[n:n + n * grid.npix].reshape(n, grid.npix)
    mean = payload[n + n * grid.npix:]
    return KLBasis(grid, CovarianceSpec(gamma, corr_len), eigenvalues, modes, mean)
