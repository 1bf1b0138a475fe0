"""Parallel-beam Radon operator, positivity reparametrization and the
Poisson count data.

Rays are traced exactly (Siddon's method): each matrix entry is the length
of the intersection of a ray with a pixel, so the adjoint is the plain matrix
transpose and the operator pair passes a machine-precision adjointness test.
Point reflection through the image centre maps pixel p to npix-1-p and
detector offset s_j to s_{n_det-1-j} = -s_j exactly, and keeps each angle's
direction, so a far ray's row is its near twin's, reversed onto the
reflected pixels.  The x-flip and, on a square grid with even n_angles, the
transpose carry one angle's near rays onto another's, so only the near
half of each projection at the angles in [0, pi/4] and pi/2 (or [0, pi/2])
is traced, in batches within a small fixed budget of floats.  Only the near
half H of every projection is stored, as three CSR arrays, written once,
whose rows repeat no pixel and keep their trace's order along the ray (a
mapped row its source row's), which fixes the summation order of ``apply``.
``apply`` runs two CSR products, on u and on u reversed, gathered into
angle-major ray order through one row map; ``adjoint`` scatters the counts
back through that map and runs one two-column CSC pass over H's arrays.
The build peaks below the bytes of the full matrix it never forms.

Expected counts are theta = kappa * (path integrals of u); ``posterior``
holds the Poisson likelihood of the counts at theta.
"""

from __future__ import annotations

import logging
import math
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from ._kernels import erf, sparsetools as _sparsetools
from .fields import Grid, ScalarField

__all__ = [
    "Reparam",
    "RadonOperator",
    "Sinogram",
    "build_radon_operator",
    "simulate_data",
    "write_sinogram_bin",
    "read_sinogram_bin",
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
        if not self.a > 0.0:
            raise ValueError(f"a must be positive, got {self.a}")
        if not self.b > 1.0:
            raise ValueError(f"b must exceed 1, got {self.b}")
        if not self.c > 0.0:
            raise ValueError(f"c must be positive, got {self.c}")

    @property
    def bounds(self) -> tuple[float, float]:
        return (0.5 * self.a * (self.b - 1.0), 0.5 * self.a * (self.b + 1.0))

    @property
    def max_slope(self) -> float:
        return self.a / (self.c * math.sqrt(math.pi))

    def apply(self, z):
        # one fresh array, updated in place: the bits of
        # 0.5 * a * (erf(z / c) + b) without its three temporaries
        u = np.divide(z, self.c, out=np.empty(np.shape(z)))
        erf(u, out=u)
        u += self.b
        u *= 0.5 * self.a
        return u if u.ndim else u[()]

    def deriv(self, z):
        z = np.asarray(z, dtype=float)
        return self.max_slope * np.exp(-(z / self.c) ** 2)


_EPS = 1e-12


@dataclass(frozen=True)
class RadonOperator:
    """Sparse parallel-beam path-integral operator theta = kappa * W u.

    W keeps unit intersection lengths; kappa scales both apply and adjoint.
    Rays that miss the domain are dropped at build time, so every retained
    row has positive weight, bounded by the diagonal sqrt(2).  Rows run
    angle-major, detector-minor (``angle_idx``, ``det_idx``).  W is held as
    its near half H's CSR arrays ``indptr``, ``indices`` (int32) and ``data``
    (float64), and ``row_map``: row i of W u is entry ``row_map[i]`` of
    [H u, H u reflected], near rows then reflected near rows.  All read-only.
    """

    grid: Grid
    n_angles: int
    n_det: int
    kappa: float
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)
    row_map: np.ndarray = field(repr=False)
    angle_idx: np.ndarray = field(repr=False)
    det_idx: np.ndarray = field(repr=False)
    n_dropped: int

    def __post_init__(self):
        for a in (self.indptr, self.indices, self.data, self.row_map,
                  self.angle_idx, self.det_idx):
            a.setflags(write=False)

    @property
    def n_rays(self) -> int:
        return self.row_map.size

    @property
    def nnz(self) -> int:
        """Entries of the full matrix W: each row has its near row's count."""
        counts = np.diff(self.indptr)
        return int(counts[self.row_map % counts.size].sum())

    def apply(self, u) -> np.ndarray:
        """Expected counts of an image given flat or as (nx, ny) values."""
        u = np.asarray(u, dtype=float).reshape(-1)
        n, npix = self.indptr.size - 1, self.grid.npix
        if u.size != npix:
            raise ValueError(f"image has {u.size} values, the grid {npix}")
        both = np.zeros(2 * n)
        # scipy's CSR product kernel, called directly: a sparse matrix checks
        # its operands on every product, which costs as much as a desk product
        for x, y in ((u, both[:n]), (u[::-1], both[n:])):
            _sparsetools.csr_matvec(n, npix, self.indptr, self.indices,
                                    self.data, x, y)
        counts = both[self.row_map]
        counts *= self.kappa
        return counts

    def adjoint(self, w) -> np.ndarray:
        """Transpose action, returned as flat pixel values."""
        w = np.asarray(w, dtype=float).reshape(-1)
        if w.size != self.n_rays:
            raise ValueError(f"{w.size} counts for {self.n_rays} rays")
        n, npix = self.indptr.size - 1, self.grid.npix
        both = np.zeros(2 * n)
        both[self.row_map] = w
        # H's CSR arrays are H^T's CSC ones: one kernel pass for both halves
        back = np.zeros((npix, 2))
        _sparsetools.csc_matvecs(npix, n, 2, self.indptr, self.indices,
                                 self.data, both.reshape(2, n).T.ravel(),
                                 back.ravel())
        return self.kappa * (back[:, 0] + back[::-1, 1])


def _check_geometry(n_angles: int, n_det: int, kappa: float) -> None:
    if not (n_angles >= 1 and n_det >= 1 and kappa > 0.0):
        raise ValueError("n_angles and n_det must be >= 1 and kappa positive, "
                         f"got {n_angles}, {n_det} and {kappa}")


def build_radon_operator(grid: Grid, n_angles: int, n_det: int,
                         kappa: float = 1.0) -> RadonOperator:
    """Trace the near rays of a few angles and map every kept ray onto them.

    Projection angles are equispaced on [0, pi); for each angle the detector
    bins span the full projected width sqrt(2), centered on the domain.  Only
    the near rays (2 j <= n_det-1) of the angles ``_angle_sources`` keeps are
    traced, in batches of consecutive rays, each batch's crossing table
    within ``_BATCH_FLOATS`` floats.  Every other angle's near rows are its
    source angle's, carried through a pixel permutation (an x-flip, a
    transpose or both) in one block copy per angle, so every row keeps the
    order of its trace.  Each angle's rows are its near rows followed by its
    near rows but a middle ray, reflected onto pixels npix-1-p: rows
    (k, n_det-1-j).  Each mapped row is the exact image of its source row
    and within 1e-14 of its own trace.  Rows run angle-major,
    detector-minor; only the near half is stored.
    """
    _check_geometry(n_angles, n_det, kappa)
    t0 = time.perf_counter()
    sources, perms = _angle_sources(grid, n_angles)
    traced_angles = np.unique(sources)
    ray_ids, rays = _ray_table(n_angles, n_det, traced_angles)
    n_seg = np.empty(ray_ids.size, dtype=np.intp)
    cols, vals = [], []
    step = max(1, _BATCH_FLOATS // (grid.nx + grid.ny + 4))
    batches = range(0, ray_ids.size, step)
    for lo in batches:
        n_seg[lo:lo + step], pix, lengths = _trace_rays(rays[:, lo:lo + step],
                                                        grid)
        cols.append(pix)
        vals.append(lengths)
    kept_traced = n_seg > 0
    traced, n_seg = ray_ids[kept_traced], n_seg[kept_traced]
    # join one array's pieces at a time and drop them: the lengths are
    # joined while only the index pieces wait
    lengths = np.concatenate(vals)
    del vals
    pix = np.concatenate(cols)
    del cols
    # angle k's near rows are its source angle's traced rows, rays j alike,
    # whose entries are one block: join the lengths' blocks in trace order,
    # then take each block's pixels through its angle's map into place
    first = np.searchsorted(traced, np.arange(n_angles + 1) * n_det)
    start = np.concatenate(([0], np.cumsum(n_seg)))
    src = [slice(first[s], first[s + 1]) for s in sources]
    near = np.concatenate([traced[rows] + (k - s) * n_det
                           for k, (s, rows) in enumerate(zip(sources, src))])
    indptr = np.zeros(near.size + 1, dtype=np.int32)
    np.cumsum(np.concatenate([n_seg[rows] for rows in src]), out=indptr[1:])
    blocks = [slice(start[rows.start], start[rows.stop]) for rows in src]
    data = np.concatenate([lengths[b] for b in blocks])
    del lengths
    indices = np.empty(data.size, dtype=np.int32)
    at = 0
    for b, perm in zip(blocks, perms):
        to = slice(at, at + b.stop - b.start)
        # "clip": under the default "raise" numpy fills a buffer, then ``out``
        np.take(perm, pix[b], out=indices[to], mode="clip")
        at = to.stop
    # ray (k, j) is kept exactly when its near twin (k, min(j, n_det-1-j))
    # is, and takes its twin's row, reflected for a far ray
    ray = np.arange(n_angles * n_det)
    twin = ray + np.minimum(0, n_det - 1 - 2 * (ray % n_det))
    row = np.searchsorted(near, twin)
    hit = near.take(row, mode="clip") == twin
    kept = ray[hit]
    row_map = row[hit] + near.size * (twin < ray)[hit]
    n_dropped = n_angles * n_det - kept.size
    op = RadonOperator(grid, n_angles, n_det, kappa, indptr, indices, data,
                       row_map, (kept // n_det).astype(np.uint32),
                       (kept % n_det).astype(np.uint32), n_dropped)
    log.info("radon operator: %d rays traced at %d of %d angles, %d mapped, "
             "%d mirrored; %d kept, %d dropped, %d entries, %d batches, "
             "%.3f s", ray_ids.size, traced_angles.size, n_angles,
             near.size - traced.size, kept.size - near.size, kept.size,
             n_dropped, op.nnz, len(batches), time.perf_counter() - t0)
    return op


# floats in one batch's crossing table: a batch's work arrays stay small
# beside the near half, whose own arrays set the build's peak
_BATCH_FLOATS = 2 ** 13


def _geometry(n_angles: int, n_det: int) -> tuple[np.ndarray, np.ndarray]:
    """Projection angles and detector-bin centers of the acquisition."""
    angles = np.arange(n_angles) * math.pi / n_angles
    offsets = (np.arange(n_det) + 0.5 - 0.5 * n_det) * (DETECTOR_SPAN / n_det)
    return angles, offsets


def _angle_sources(grid: Grid, n_angles: int):
    """For each angle k, the traced angle whose near rows give k's, and the
    int32 map of a source row's pixels onto k's pixels (the identity where k
    is traced itself).

    The mirror y -> 1-y takes ray (k, j) onto ray (n_angles-k, n_det-1-j),
    since s_{n_det-1-j} = -s_j exactly; after the point reflection, the
    x-flip (ix, iy) -> (nx-1-ix, iy) takes near ray (k, j) onto
    (n_angles-k, j).  On a square grid with even n_angles, the transpose
    (ix, iy) -> (iy, ix) takes (k, j) onto (n_angles/2-k, j).  So the traced
    angles are those in [0, pi/4] (or [0, pi/2] without the transpose), and
    pi/2: a ray along a grid line takes its pixels from the rounding of its
    direction (cos(pi/2) is 6e-17, not 0), which the transpose of angle 0
    would not carry over.
    """
    pix = np.arange(grid.npix, dtype=np.int32).reshape(grid.nx, grid.ny)
    # keyed by (x-flip, transpose); both at once is the transpose, then the
    # x-flip
    maps = {(False, False): pix.ravel(), (True, False): pix[::-1].ravel(),
            (False, True): pix.T.ravel(), (True, True): pix[::-1].T.ravel()}
    transpose = grid.nx == grid.ny and n_angles % 2 == 0
    sources, perms = [], []
    for k in range(n_angles):
        flip = 2 * k > n_angles
        m = n_angles - k if flip else k
        swap = transpose and n_angles < 4 * m < 2 * n_angles
        sources.append(n_angles // 2 - m if swap else m)
        perms.append(maps[flip, swap])
    return sources, perms


def _ray_table(n_angles: int, n_det: int,
               traced_angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The near rays (2 j <= n_det-1) of the ``traced_angles`` (ascending)
    that cross the unit square: numbers k * n_det + j, angle-major, and a
    column (p0x, p0y, tx, ty, tlo, thi) each.

    Ray (k, j) is the line p0 + t (tx, ty) with p0 = (0.5, 0.5) + s_j n_k
    and (tx, ty) = (-n_k[1], n_k[0]), n_k = (cos phi_k, sin phi_k) taken
    from ``math``; it lies inside the unit square for t in (tlo, thi).
    """
    angles, offsets = _geometry(n_angles, n_det)
    rays = np.empty((6, traced_angles.size, n_det))
    p0x, p0y, tx, ty, tlo, thi = rays
    nxv = np.array([math.cos(angles[k]) for k in traced_angles])[:, None]
    nyv = np.array([math.sin(angles[k]) for k in traced_angles])[:, None]
    p0x[:], p0y[:] = 0.5 + offsets * nxv, 0.5 + offsets * nyv
    tx[:], ty[:] = -nyv, nxv
    tlo[:], thi[:] = -np.inf, np.inf
    hit = np.ones((traced_angles.size, n_det), dtype=bool)
    hit[:, (n_det + 1) // 2:] = False   # the far rays are mirrored
    for p, t in ((p0x, tx), (p0y, ty)):
        # a ray parallel to this axis hits only inside the slab 0 < p < 1,
        # and the slab does not bound its t
        flat = np.abs(t) < _EPS
        hit &= ~flat | ((p > 0.0) & (p < 1.0))
        t = np.where(flat, 1.0, t)
        a1, a2 = (0.0 - p) / t, (1.0 - p) / t
        np.maximum(tlo, np.where(flat, -np.inf, np.minimum(a1, a2)), out=tlo)
        np.minimum(thi, np.where(flat, np.inf, np.maximum(a1, a2)), out=thi)
    hit &= thi - tlo > _EPS
    ids = traced_angles[:, None] * n_det + np.arange(n_det)
    return ids[hit], rays[:, hit]


def _trace_rays(rays: np.ndarray, grid: Grid):
    """Exact pixel-intersection lengths with the unit square of the rays of
    a ``_ray_table`` slice, which may span several angles.

    Returns the number of kept segments of each ray, then the int32 pixel
    index and the length of every kept segment, ray after ray, each ray's
    segments in order of t.
    """
    tlo, thi = rays[4], rays[5]
    nx, ny = grid.nx, grid.ny
    ts = np.empty((tlo.size, nx + ny + 4))
    ts[:, 0], ts[:, -1] = tlo, thi
    # a ray parallel to an axis crosses that axis's grid lines at -inf
    flat = np.abs(rays[2:4]) < _EPS
    p = np.where(flat, np.inf, rays[:2])
    t = np.where(flat, 1.0, rays[2:4])
    for k, m, h, cut in ((0, nx, grid.hx, ts[:, 1:nx + 2]),
                         (1, ny, grid.hy, ts[:, nx + 2:-1])):
        np.subtract(np.arange(m + 1) * h, p[k, :, None], out=cut)
        np.divide(cut, t[k, :, None], out=cut)
    # crossings outside (tlo, thi) clip onto an end point, where they only
    # add zero-length segments
    np.minimum(np.maximum(ts, tlo[:, None], out=ts), thi[:, None], out=ts)
    # the x and y crossings are each monotone, yet the default row sort beats
    # the run-merging stable sort: 0.9 against 1.1-1.6 ms on a paper table
    ts.sort(axis=1)
    lengths = ts[:, 1:] - ts[:, :-1]
    keep = lengths > 1e-13
    n_seg = keep.sum(axis=1)
    # pixel of each segment's midpoint p0 + t (tx, ty), x in row 0, y in row 1
    line = np.repeat(rays[:4], n_seg, axis=1)
    xy = 0.5 * (ts[:, :-1][keep] + ts[:, 1:][keep]) * line[2:]
    xy += line[:2]
    xy /= [[grid.hx], [grid.hy]]
    np.minimum(np.maximum(xy, 0.0, out=xy), [[nx - 1], [ny - 1]], out=xy)
    ix, iy = xy.astype(np.int32)
    return n_seg, ix * ny + iy, lengths[keep]


@dataclass(frozen=True)
class Sinogram:
    """Observed counts of an (n_angles, n_det) acquisition: count i is on
    ray i of the operator built for it, since the geometry fixes its rays."""

    counts: np.ndarray = field(repr=False)
    n_angles: int
    n_det: int

    def __post_init__(self):
        # a copy, so that freezing it leaves the caller's array writable
        c = np.array(self.counts, dtype=np.int64)
        if c.ndim != 1 or np.any(c < 0):
            raise ValueError("counts must be 1-D and nonnegative")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def n_rays(self) -> int:
        return self.counts.size


def simulate_data(op: RadonOperator, u_true: ScalarField,
                  rng: np.random.Generator) -> Sinogram:
    """Draw independent Poisson counts with means kappa * (path integrals)."""
    theta = op.apply(u_true.values)
    if np.any(theta < 0.0):
        raise ValueError("negative expected counts; intensity must be nonnegative")
    return Sinogram(rng.poisson(theta), op.n_angles, op.n_det)


# ---------------------------------------------------------------------------
# file formats

_SIN_HEADER = struct.Struct("<4sIII")


def write_sinogram_bin(sino: Sinogram, path) -> None:
    """Binary form, little-endian: magic "SIN2", the angle, detector-bin and
    ray counts as uint32, then one int64 count per ray."""
    with open(path, "wb") as fh:
        fh.write(_SIN_HEADER.pack(b"SIN2", sino.n_angles, sino.n_det, sino.n_rays))
        # copied only if the dtype or byte order differs
        fh.write(np.ascontiguousarray(sino.counts, dtype="<i8"))


def read_sinogram_bin(path) -> Sinogram:
    """Read ``write_sinogram_bin``'s form; a bad magic, the older "SIN1"
    layout with its ray tables included, or a size other than the header
    plus 8 bytes per ray raises ValueError naming the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _SIN_HEADER.size:
        raise ValueError(f"{path}: truncated sinogram file")
    magic, n_angles, n_det, d = _SIN_HEADER.unpack_from(raw)
    if magic == b"SIN1":
        raise ValueError(f"{path}: sinogram layout SIN1 (per-ray tables) "
                         "is no longer read; run simulate again")
    if magic != b"SIN2":
        raise ValueError(f"{path}: bad magic {magic!r}")
    size = len(raw) - _SIN_HEADER.size
    if size != 8 * d:
        raise ValueError(f"{path}: ray block has {size} bytes, expected "
                         f"{8 * d} for {d} rays")
    return Sinogram(np.frombuffer(raw, "<i8", offset=_SIN_HEADER.size),
                    n_angles, n_det)
