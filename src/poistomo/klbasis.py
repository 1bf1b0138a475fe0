"""Karhunen-Loeve basis of the Gaussian reference measure.

The covariance kernel gamma * exp(-||x - x'||_1 / d) is separable in the two
coordinates, so its discrete eigenpairs are tensor products of two cheap 1d
eigendecompositions: mode r is the outer product ex[i_r] (x) ey[j_r] of two
1d eigenvectors.  The basis keeps only those factors and the flat index of
each (i_r, j_r) (``KLModes``), never the dense (n_modes, npix) matrix, and
applies it as ``ex^T . scatter(weights) . ey``; the transpose gathers
``ex . D . ey^T`` at the flat indices.  Coefficient vectors are standard
normal under the reference measure; the covariance acts diagonally on
expansion weights, which is what makes the preconditioned samplers
dimension-robust.

Coordinate conventions used throughout the package:

* a coefficient vector c represents the field  mean + sum_i c_i sqrt(eta_i) e_i,
* derivative vectors d/dc of scalar functionals are obtained from pixel-value
  derivatives via ``pullback``; in these coordinates the reference covariance
  is the identity.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .fields import Grid

__all__ = [
    "CovarianceSpec",
    "KLBasis",
    "KLModes",
    "build_kl_basis",
]

log = logging.getLogger(__name__)

EIGENVALUE_FLOOR_REL = 1e-14


@dataclass(frozen=True)
class CovarianceSpec:
    """Amplitude and correlation length of the exponential covariance kernel."""

    gamma: float = 2.0
    corr_len: float = 1e-3

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not self.corr_len > 0.0:
            raise ValueError(f"corr_len must be positive, got {self.corr_len}")


def _axis_eigpairs(n: int, h: float, corr_len: float):
    """Eigenpairs of the 1d exponential kernel, orthonormal under weight h."""
    t = (np.arange(n) + 0.5) * h
    K = np.exp(-np.abs(t[:, None] - t[None, :]) / corr_len)
    vals, vecs = np.linalg.eigh(K * h)
    order = np.argsort(vals)[::-1]
    # rows of the returned matrix are eigenfunctions sampled at the centers
    return vals[order], (vecs[:, order] / np.sqrt(h)).T


@dataclass(frozen=True, eq=False)
class KLModes:
    """The (n_modes, npix) eigenfield matrix, held as its Kronecker factors.

    Row r is ex[i] (x) ey[j] flattened row-major, where the rows of ex, ey
    are 1d eigenvectors and (i, j) = divmod(index[r], len(ey)): ``index``
    is flat in the (x-mode, y-mode) grid.  ``synthesize`` (pixel rows of a
    weight vector or block) and ``project`` (inner products with one vector
    of pixel values) run as two small matrix products each, without forming
    the matrix.  ``np.asarray(modes)`` gives the dense matrix and is meant
    for tests; ``__array_ufunc__ = None`` makes ``ndarray @ modes`` raise
    instead of forming it.
    """

    ex: np.ndarray = field(repr=False)
    ey: np.ndarray = field(repr=False)
    index: np.ndarray = field(repr=False)

    __array_ufunc__ = None

    def __post_init__(self):
        for name, dtype in (("ex", float), ("ey", float), ("index", np.intp)):
            a = np.asarray(getattr(self, name), dtype=dtype)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.index.size, self.ex.shape[1] * self.ey.shape[1])

    @property
    def nbytes(self) -> int:
        # a square grid's ey is its ex: count the shared factor once
        held = {id(a): a for a in (self.ex, self.ey, self.index)}
        return sum(a.nbytes for a in held.values())

    def __array__(self, dtype=None, copy=None):
        i, j = np.divmod(self.index, self.ey.shape[0])
        dense = self.ex[i][:, :, None] * self.ey[j][:, None, :]
        return dense.reshape(self.shape).astype(dtype or float, copy=False)

    def synthesize(self, w, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Pixel rows sum_r w[..., r] e_r of a weight vector or (k, n_modes)
        block, for image x-rows lo:hi only: with pixels row-major, those are
        one contiguous slice of every pixel row.  A block peaks at
        k (n_modes + 2 npix) floats, the count a block budget
        (``diagnostics.block_rows``) takes."""
        w = np.asarray(w, dtype=float)
        nx, ny, n = self.ex.shape[0], self.ey.shape[0], self.index.size
        buf = np.zeros((w.size // n, nx * ny))
        buf[:, self.index] = w.reshape(-1, n)
        buf = buf.reshape(-1, nx, ny)
        t = np.matmul(self.ex[:, lo:hi].T, buf)
        # the product goes back into the scatter, a band's into its first rows
        out = np.matmul(t, self.ey, out=buf[:, :t.shape[1]])
        return out.reshape(w.shape[:-1] + (t.shape[1] * ny,))

    def project(self, d) -> np.ndarray:
        """Inner products <e_r, d> with one vector d of npix pixel values."""
        d = np.asarray(d, dtype=float).reshape(self.ex.shape[0],
                                                self.ey.shape[0])
        return (self.ex @ d @ self.ey.T).reshape(-1)[self.index]


@dataclass(frozen=True)
class KLBasis:
    """Truncated eigenexpansion of the reference covariance on a grid.

    ``modes`` holds one eigenfield per row (row-major pixels) in factored
    form (``KLModes``); rows are orthonormal in the cell-weighted inner
    product.  ``eigenvalues`` are the matching covariance eigenvalues, sorted
    descending.  ``mean`` is the constant prior mean of every pixel.
    """

    grid: Grid
    eigenvalues: np.ndarray = field(repr=False)
    modes: KLModes = field(repr=False)
    mean: float

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if self.modes.shape != (ev.size, self.grid.npix):
            raise ValueError(f"modes shape {self.modes.shape} does not match "
                             f"{ev.size} eigenvalues on {self.grid.npix} pixels")
        ev.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "mean", np.float64(self.mean))
        object.__setattr__(self, "_sqrt_eta", np.sqrt(ev))

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size

    def synthesize_values(self, c, x_rows: slice | None = None) -> np.ndarray:
        """Flat pixel values of mean + sum_i c_i sqrt(eta_i) e_i.

        A (k, n_modes) block of coefficient rows gives a (k, npix) block of
        pixel rows; any other shape is read as one coefficient vector.

        With ``x_rows`` (a slice of image x-rows with unit step) only the
        pixels of those x-rows are formed, as a (k, len(x_rows) * ny) block,
        by the same contraction with the x-factor cut to the band.  The
        values equal the matching columns of the whole-image block bit for
        bit.
        """
        c = np.asarray(c, dtype=float)
        if c.ndim != 2:
            c = c.reshape(-1)
        if c.shape[-1] != self.n_modes:
            raise ValueError(f"expected {self.n_modes} coefficients per row, "
                             f"got {c.shape[-1]}")
        nx, ny = self.grid.shape
        start, stop, _ = (x_rows or slice(None)).indices(nx)
        # numpy runs a one-row product as a matrix-vector product, which
        # rounds differently: a one-row band takes a neighbour along
        lo = min(start, nx - 2) if stop - start == 1 else start
        hi = max(stop, lo + 2)
        values = self.modes.synthesize(c * self._sqrt_eta, lo, hi)[
            ..., (start - lo) * ny:(stop - lo) * ny]
        values += self.mean
        return values

    def pullback(self, dvalues) -> np.ndarray:
        """Chain rule: pixel-value derivative dF/du -> coefficient derivative dF/dc.

        For F(c) = F(values = mean + sum_i c_i sqrt(eta_i) e_i) this is
        sqrt(eta_i) <e_i, dF/dvalues>; no quadrature weight enters because
        the derivative pairs raw values, not L2 functions.
        """
        return self._sqrt_eta * self.modes.project(dvalues)


def _check_n_modes(n_modes: int, grid: Grid) -> None:
    if not 1 <= n_modes <= grid.npix:
        raise ValueError(f"n_modes must be in [1, {grid.npix}], got {n_modes}")


def build_kl_basis(grid: Grid, cov: CovarianceSpec, n_modes: int,
                   mean: float = 0.0) -> KLBasis:
    """Assemble the leading n_modes eigenpairs of the separable kernel.

    The two 1d kernel matrices (one on a square grid) are eigendecomposed
    with the cell-width quadrature weight; products of 1d eigenvalues
    (scaled by gamma) are sorted descending and the top n_modes retained as
    flat indices into the (x-mode, y-mode) grid of 1d eigenvector pairs.
    Numerically non-positive products are clamped at 1e-14 times the leading
    eigenvalue and reported, as is a cut inside a set of equal eigenvalues.
    """
    _check_n_modes(n_modes, grid)
    vx, ex = _axis_eigpairs(grid.nx, grid.hx, cov.corr_len)
    vy, ey = ((vx, ex) if (grid.ny, grid.hy) == (grid.nx, grid.hx)
              else _axis_eigpairs(grid.ny, grid.hy, cov.corr_len))
    flat = (cov.gamma * np.outer(vx, vy)).reshape(-1)
    # a copy, so the modes do not hold the whole argsort alive
    order = np.argsort(-flat, kind="stable")[:n_modes].copy()
    eta = flat[order]
    # a cut by count can keep (i, j) and drop its equal twin (j, i)
    kept, tied = np.sum(eta == eta[-1]), np.sum(flat == eta[-1])
    if tied > kept:
        log.warning("kl cut splits a tie: keeps %d of the %d modes of "
                    "eigenvalue %.6e", kept, tied, eta[-1])
    floor = EIGENVALUE_FLOOR_REL * eta[0]
    n_clamped = int(np.sum(eta < floor))
    if n_clamped:
        log.warning("clamped %d kl eigenvalues below %.3e", n_clamped, floor)
        eta = np.maximum(eta, floor)
    return KLBasis(grid, eta, KLModes(ex, ey, order), mean)
