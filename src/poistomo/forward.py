"""Parallel-beam Radon operator, positivity reparametrization and the Poisson
log-likelihood potential.

Rays are traced exactly: each matrix entry is the length of the intersection
of a ray with a pixel, so the adjoint is the plain matrix transpose and the
operator pair passes a machine-precision adjointness test.  Expected counts
are theta = kappa * (path integrals of u), and the negative log-likelihood up
to a data-only constant is  phi = sum(theta) - sum(y * log(theta)); its
value and derivatives at coefficient vectors come from ``TGPosterior``.
"""

from __future__ import annotations

import json
import math
import struct
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
    "potential_bounds",
    "write_sinogram_csv",
    "read_sinogram_csv",
    "write_sinogram_bin",
    "read_sinogram_bin",
    "write_geometry_manifest",
]

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


def _trace_ray(p0x, p0y, tx, ty, nx, ny, hx, hy):
    """Exact pixel-intersection lengths of one line with the unit square."""
    tlo, thi = -np.inf, np.inf
    for p, t in ((p0x, tx), (p0y, ty)):
        if abs(t) < _EPS:
            if p <= 0.0 or p >= 1.0:
                return None
        else:
            a1, a2 = (0.0 - p) / t, (1.0 - p) / t
            tlo = max(tlo, min(a1, a2))
            thi = min(thi, max(a1, a2))
    if thi - tlo <= _EPS:
        return None
    cuts = [np.array([tlo, thi])]
    if abs(tx) >= _EPS:
        tv = (np.arange(nx + 1) * hx - p0x) / tx
        cuts.append(tv[(tv > tlo) & (tv < thi)])
    if abs(ty) >= _EPS:
        th = (np.arange(ny + 1) * hy - p0y) / ty
        cuts.append(th[(th > tlo) & (th < thi)])
    ts = np.sort(np.concatenate(cuts))
    lengths = np.diff(ts)
    keep = lengths > 1e-13
    if not np.any(keep):
        return None
    mids = 0.5 * (ts[:-1] + ts[1:])[keep]
    ix = np.clip((p0x + mids * tx) / hx, 0, nx - 1).astype(int)
    iy = np.clip((p0y + mids * ty) / hy, 0, ny - 1).astype(int)
    return ix * ny + iy, lengths[keep]


@dataclass(frozen=True)
class RadonOperator:
    """Sparse parallel-beam path-integral operator theta = kappa * W u.

    The matrix keeps unit intersection lengths; kappa scales both apply and
    adjoint.  Rays that miss the domain are dropped at build time, so every
    retained row has positive weight, bounded by the diagonal sqrt(2).
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
    bins span the full projected width sqrt(2), centered on the domain.
    """
    if n_angles < 1 or n_det < 1:
        raise ValueError("need at least one angle and one detector bin")
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    offsets = (np.arange(n_det) + 0.5 - 0.5 * n_det) * (DETECTOR_SPAN / n_det)
    rows, cols, vals = [], [], []
    angle_idx, det_idx = [], []
    n_dropped = 0
    row = 0
    for k in range(n_angles):
        phi = k * math.pi / n_angles
        nxv, nyv = math.cos(phi), math.sin(phi)
        txv, tyv = -nyv, nxv
        for j, s in enumerate(offsets):
            traced = _trace_ray(0.5 + s * nxv, 0.5 + s * nyv, txv, tyv,
                                grid.nx, grid.ny, grid.hx, grid.hy)
            if traced is None:
                n_dropped += 1
                continue
            pix, lengths = traced
            rows.append(np.full(pix.size, row))
            cols.append(pix)
            vals.append(lengths)
            angle_idx.append(k)
            det_idx.append(j)
            row += 1
    if row == 0:
        raise ValueError("all rays missed the domain")
    matrix = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row, grid.npix))
    return RadonOperator(grid, n_angles, n_det, kappa, matrix,
                         np.array(angle_idx, dtype=np.uint32),
                         np.array(det_idx, dtype=np.uint32), n_dropped)


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


def potential_bounds(op: RadonOperator, rep: Reparam, r: float):
    """Deterministic envelope M(r) <= phi <= N(r) for all data with ||y||_2 <= r.

    Monotonicity in the intensity band gives per-ray bounds on theta; the
    log-term is controlled by Cauchy-Schwarz against the worst-case log norm.
    Returns (lower, upper, log_norm_bound).
    """
    lo, hi = rep.bounds
    w = op.kappa * op.ray_weights
    theta_lo, theta_hi = w * lo, w * hi
    log_bound = math.sqrt(float(np.sum(np.maximum(np.log(theta_lo) ** 2,
                                                  np.log(theta_hi) ** 2))))
    return (float(np.sum(theta_lo)) - log_bound * r,
            float(np.sum(theta_hi)) + log_bound * r,
            log_bound)


# ---------------------------------------------------------------------------
# file formats

def write_sinogram_csv(sino: Sinogram, path) -> None:
    """Rows of (angle index, detector index, count) with a header line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("angle,det,count\n")
        for a, d, c in zip(sino.angle_idx, sino.det_idx, sino.counts):
            fh.write(f"{a},{d},{c}\n")


def read_sinogram_csv(path, n_angles: int, n_det: int) -> Sinogram:
    raw = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[1] != 3:
        raise ValueError(f"{path}: expected 3 columns, found {raw.shape[1]}")
    if np.any(raw[:, 0] >= n_angles) or np.any(raw[:, 1] >= n_det):
        raise ValueError(f"{path}: ray index outside the stated geometry")
    return Sinogram(raw[:, 2], raw[:, 0], raw[:, 1], n_angles, n_det)


_SIN_HEADER = struct.Struct("<4sIII")


def write_sinogram_bin(sino: Sinogram, path) -> None:
    """Binary form: magic "SIN1", geometry and ray tables, then int64 counts."""
    with open(path, "wb") as fh:
        fh.write(_SIN_HEADER.pack(b"SIN1", sino.n_angles, sino.n_det, sino.n_rays))
        fh.write(sino.angle_idx.astype("<u4").tobytes())
        fh.write(sino.det_idx.astype("<u4").tobytes())
        fh.write(sino.counts.astype("<i8").tobytes())


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
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
