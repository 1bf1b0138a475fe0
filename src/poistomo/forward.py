"""Parallel-beam Radon operator, positivity reparametrization and the Poisson
log-likelihood potential.

Rays are traced exactly (Siddon's method): each matrix entry is the length
of the intersection of a ray with a pixel, so the adjoint is the plain matrix
transpose and the operator pair passes a machine-precision adjointness test.
All rays of one projection angle share a direction and are traced together
as array operations, one angle at a time; the matrix comes back in canonical
CSR form (sorted, duplicate-free column indices), on which the summation
order of ``apply`` and ``adjoint`` depends.

Expected counts are theta = kappa * (path integrals of u), and the negative
log-likelihood up to a data-only constant is
phi = sum(theta) - sum(y * log(theta)); its value and derivatives at
coefficient vectors come from ``TGPosterior``.
"""

from __future__ import annotations

import json
import logging
import math
import struct
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import erf

from .fields import Grid, ScalarField

__all__ = [
    "Reparam",
    "RadonOperator",
    "Sinogram",
    "build_radon_operator",
    "simulate_data",
    "write_sinogram_csv",
    "write_sinogram_bin",
    "read_sinogram_bin",
    "write_geometry_manifest",
]

log = logging.getLogger(__name__)

DETECTOR_SPAN = math.sqrt(2.0)  # projected width of the unit square


@dataclass(frozen=True)
class Reparam:
    """Smooth bijection from the real line onto a positive intensity band.

    u = (a/2) * (erf(z/c) + b) with a > 0, b > 1, c > 0, so intensities stay
    inside ((a/2)(b-1), (a/2)(b+1)) and the map has bounded slope
    a / (c sqrt(pi)).
    """

    a: float = 2.0
    b: float = 2.0
    c: float = 1.0

    def __post_init__(self):
        if self.a <= 0.0:
            raise ValueError(f"a must be positive, got {self.a}")
        if self.b <= 1.0:
            raise ValueError(f"b must exceed 1, got {self.b}")
        if self.c <= 0.0:
            raise ValueError(f"c must be positive, got {self.c}")

    @property
    def bounds(self) -> tuple[float, float]:
        return (0.5 * self.a * (self.b - 1.0), 0.5 * self.a * (self.b + 1.0))

    @property
    def max_slope(self) -> float:
        return self.a / (self.c * math.sqrt(math.pi))

    def apply(self, z):
        return 0.5 * self.a * (erf(np.asarray(z, dtype=float) / self.c) + self.b)

    def deriv(self, z):
        z = np.asarray(z, dtype=float)
        return self.max_slope * np.exp(-(z / self.c) ** 2)


_EPS = 1e-12


@dataclass(frozen=True)
class RadonOperator:
    """Sparse parallel-beam path-integral operator theta = kappa * W u.

    The matrix keeps unit intersection lengths; kappa scales both apply and
    adjoint.  Rays that miss the domain are dropped at build time, so every
    retained row has positive weight, bounded by the diagonal sqrt(2).  Rows
    run angle-major, detector-minor (``angle_idx``, ``det_idx``), and the
    matrix is canonical CSR, so each row sums its entries in pixel order.
    """

    grid: Grid
    n_angles: int
    n_det: int
    kappa: float
    matrix: sp.csr_matrix = field(repr=False)
    angle_idx: np.ndarray = field(repr=False)
    det_idx: np.ndarray = field(repr=False)
    n_dropped: int

    @property
    def n_rays(self) -> int:
        return self.matrix.shape[0]

    @property
    def ray_weights(self) -> np.ndarray:
        """Total intersection length of each retained ray."""
        return np.asarray(self.matrix.sum(axis=1)).reshape(-1)

    def angles(self) -> np.ndarray:
        return np.arange(self.n_angles) * math.pi / self.n_angles

    def offsets(self) -> np.ndarray:
        return (np.arange(self.n_det) + 0.5 - 0.5 * self.n_det) * (DETECTOR_SPAN / self.n_det)

    def apply(self, u) -> np.ndarray:
        """Expected counts of an image given flat or as (nx, ny) values; a
        (k, npix) block of flat images gives one row of counts per image."""
        u = np.asarray(u, dtype=float)
        if u.ndim == 2 and u.shape[1] == self.grid.npix:
            return self.kappa * (self.matrix @ u.T).T
        return self.kappa * (self.matrix @ u.reshape(-1))

    def adjoint(self, w) -> np.ndarray:
        """Transpose action, returned as flat pixel values."""
        w = np.asarray(w, dtype=float).reshape(-1)
        return self.kappa * (self.matrix.T @ w)


def build_radon_operator(grid: Grid, n_angles: int, n_det: int,
                         kappa: float = 1.0) -> RadonOperator:
    """Trace n_angles * n_det rays across the grid and assemble the matrix.

    Projection angles are equispaced on [0, pi); for each angle the detector
    bins span the full projected width sqrt(2), centered on the domain.  The
    rays of one angle share a direction and are traced together; rows come
    in angle-major, detector-minor order.  The matrix is returned in
    canonical CSR form (sorted, duplicate-free column indices), which fixes
    the summation order of ``apply`` and ``adjoint``.
    """
    if n_angles < 1 or n_det < 1:
        raise ValueError("need at least one angle and one detector bin")
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    t0 = time.perf_counter()
    offsets = (np.arange(n_det) + 0.5 - 0.5 * n_det) * (DETECTOR_SPAN / n_det)
    counts, cols, vals, angle_idx, det_idx = [], [], [], [], []
    for k in range(n_angles):
        phi = k * math.pi / n_angles
        nxv, nyv = math.cos(phi), math.sin(phi)
        n_seg, pix, lengths = _trace_angle(0.5 + offsets * nxv,
                                           0.5 + offsets * nyv, -nyv, nxv,
                                           grid)
        kept = np.flatnonzero(n_seg)
        counts.append(n_seg[kept])
        cols.append(pix)
        vals.append(lengths)
        angle_idx.append(np.full(kept.size, k, dtype=np.uint32))
        det_idx.append(kept.astype(np.uint32))
    counts = np.concatenate(counts)
    n_rays = counts.size
    if n_rays == 0:
        raise ValueError("all rays missed the domain")
    indptr = np.concatenate(([0], np.cumsum(counts)))
    matrix = sp.csr_matrix((np.concatenate(vals), np.concatenate(cols), indptr),
                           shape=(n_rays, grid.npix))
    matrix.sum_duplicates()
    n_dropped = n_angles * n_det - n_rays
    log.info("radon operator: %d rays kept, %d dropped, %d entries, %.3f s",
             n_rays, n_dropped, matrix.nnz, time.perf_counter() - t0)
    return RadonOperator(grid, n_angles, n_det, kappa, matrix,
                         np.concatenate(angle_idx), np.concatenate(det_idx),
                         n_dropped)


def _trace_angle(p0x, p0y, tx, ty, grid: Grid):
    """Exact pixel-intersection lengths of the parallel lines p0 + t (tx, ty)
    with the unit square, one line per entry of p0x, p0y.

    Returns the number of kept segments of each line (0 for a line that
    misses the square), then the pixel index and length of every kept
    segment, line after line, each line's segments in order of t.
    """
    n = p0x.size
    tlo, thi = np.full(n, -np.inf), np.full(n, np.inf)
    hit = np.ones(n, dtype=bool)
    crossings = []
    for p, t, m, h in ((p0x, tx, grid.nx, grid.hx), (p0y, ty, grid.ny, grid.hy)):
        if abs(t) < _EPS:
            hit &= (p > 0.0) & (p < 1.0)
            continue
        a1, a2 = (0.0 - p) / t, (1.0 - p) / t
        tlo = np.maximum(tlo, np.minimum(a1, a2))
        thi = np.minimum(thi, np.maximum(a1, a2))
        crossings.append((np.arange(m + 1) * h - p[:, None]) / t)
    hit &= thi - tlo > _EPS
    lo, hi = tlo[hit, None], thi[hit, None]
    # grid-line crossings outside (tlo, thi) clip onto an end point, where
    # they only add zero-length segments
    ts = np.concatenate([lo] + [np.clip(c[hit], lo, hi) for c in crossings]
                        + [hi], axis=1)
    ts.sort(axis=1)
    lengths = np.diff(ts, axis=1)
    keep = lengths > 1e-13
    mids = (0.5 * (ts[:, :-1] + ts[:, 1:]))[keep]
    n_kept = np.count_nonzero(keep, axis=1)
    ix = np.clip((np.repeat(p0x[hit], n_kept) + mids * tx) / grid.hx,
                 0, grid.nx - 1).astype(int)
    iy = np.clip((np.repeat(p0y[hit], n_kept) + mids * ty) / grid.hy,
                 0, grid.ny - 1).astype(int)
    n_seg = np.zeros(n, dtype=np.int64)
    n_seg[hit] = n_kept
    return n_seg, ix * grid.ny + iy, lengths[keep]


@dataclass(frozen=True)
class Sinogram:
    """Observed counts, aligned with the retained rays of an operator."""

    counts: np.ndarray = field(repr=False)
    angle_idx: np.ndarray = field(repr=False)
    det_idx: np.ndarray = field(repr=False)
    n_angles: int
    n_det: int

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if np.any(c < 0):
            raise ValueError("counts must be nonnegative")
        a = np.asarray(self.angle_idx, dtype=np.uint32)
        d = np.asarray(self.det_idx, dtype=np.uint32)
        if not (c.size == a.size == d.size):
            raise ValueError("counts and ray index tables disagree in length")
        for arr in (c, a, d):
            arr.setflags(write=False)
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "angle_idx", a)
        object.__setattr__(self, "det_idx", d)

    @property
    def n_rays(self) -> int:
        return self.counts.size


def simulate_data(op: RadonOperator, u_true: ScalarField,
                  rng: np.random.Generator) -> Sinogram:
    """Draw independent Poisson counts with means kappa * (path integrals)."""
    theta = op.apply(u_true.values)
    if np.any(theta < 0.0):
        raise ValueError("negative expected counts; intensity must be nonnegative")
    counts = rng.poisson(theta)
    return Sinogram(counts, op.angle_idx, op.det_idx, op.n_angles, op.n_det)


def _phi_of_theta(theta: np.ndarray, counts: np.ndarray) -> float:
    if np.any(theta <= 0.0):
        raise ValueError("nonpositive expected count in the likelihood potential")
    return float(np.sum(theta) - np.dot(counts, np.log(theta)))


# ---------------------------------------------------------------------------
# file formats

def write_sinogram_csv(sino: Sinogram, path) -> None:
    """Rows of (angle index, detector index, count) with a header line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("angle,det,count\n")
        for a, d, c in zip(sino.angle_idx, sino.det_idx, sino.counts):
            fh.write(f"{a},{d},{c}\n")


_SIN_HEADER = struct.Struct("<4sIII")


def write_sinogram_bin(sino: Sinogram, path) -> None:
    """Binary form: magic "SIN1", geometry and ray tables, then int64 counts."""
    with open(path, "wb") as fh:
        fh.write(_SIN_HEADER.pack(b"SIN1", sino.n_angles, sino.n_det, sino.n_rays))
        # each table is copied only if its dtype or byte order differs
        fh.write(np.ascontiguousarray(sino.angle_idx, dtype="<u4"))
        fh.write(np.ascontiguousarray(sino.det_idx, dtype="<u4"))
        fh.write(np.ascontiguousarray(sino.counts, dtype="<i8"))


def read_sinogram_bin(path) -> Sinogram:
    with open(path, "rb") as fh:
        head = fh.read(_SIN_HEADER.size)
        if len(head) < _SIN_HEADER.size:
            raise ValueError(f"{path}: truncated sinogram file")
        magic, n_angles, n_det, d = _SIN_HEADER.unpack(head)
        if magic != b"SIN1":
            raise ValueError(f"{path}: bad magic {magic!r}")
        angle = np.frombuffer(fh.read(4 * d), dtype="<u4")
        det = np.frombuffer(fh.read(4 * d), dtype="<u4")
        counts = np.frombuffer(fh.read(8 * d), dtype="<i8")
    if counts.size != d:
        raise ValueError(f"{path}: truncated counts block")
    return Sinogram(counts, angle, det, n_angles, n_det)


def write_geometry_manifest(op: RadonOperator, path) -> None:
    """Human-readable record of the acquisition geometry."""
    doc = {
        "format": "parallel-beam path-integral operator",
        "nx": op.grid.nx,
        "ny": op.grid.ny,
        "n_angles": op.n_angles,
        "n_det": op.n_det,
        "kappa": op.kappa,
        "detector_span": DETECTOR_SPAN,
        "rays_kept": op.n_rays,
        "rays_dropped": op.n_dropped,
        "nnz": op.matrix.nnz,
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
