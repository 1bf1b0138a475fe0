import json
import logging
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from poistomo import cli, forward
from poistomo.config import parse_config
from poistomo.fields import Grid, ScalarField
from poistomo.forward import (DETECTOR_SPAN, Reparam, Sinogram, _geometry,
                              build_radon_operator, read_sinogram_bin,
                              simulate_data, write_sinogram_bin)
from poistomo.klbasis import CovarianceSpec, build_kl_basis
from poistomo.posterior import _phi_of_theta


# --- intensity map -----------------------------------------------------------

def test_reparam_default_band():
    rep = Reparam()
    assert rep.bounds == (1.0, 3.0)
    assert rep.apply(0.0) == pytest.approx(2.0)


def test_reparam_respects_band_and_monotone():
    rep = Reparam(a=1.5, b=3.0, c=0.7)
    lo, hi = rep.bounds
    z = np.linspace(-40, 40, 4001)
    u = rep.apply(z)
    # closed band in floating point, strictly inside away from saturation
    assert np.all(u >= lo) and np.all(u <= hi)
    mid = np.abs(z) <= 3.5
    assert np.all(u[mid] > lo) and np.all(u[mid] < hi)
    assert np.all(np.diff(u) >= 0.0)
    assert rep.apply(50.0) == pytest.approx(hi, abs=1e-12)
    assert rep.apply(-50.0) == pytest.approx(lo, abs=1e-12)


def test_reparam_derivative_matches_finite_difference():
    rep = Reparam(a=2.0, b=2.0, c=1.3)
    zs = np.array([-2.0, -0.5, 0.0, 0.7, 1.9])
    eps = 1e-6
    fd = (rep.apply(zs + eps) - rep.apply(zs - eps)) / (2 * eps)
    assert np.allclose(rep.deriv(zs), fd, rtol=1e-8, atol=1e-10)


def test_reparam_max_slope_at_origin():
    rep = Reparam(a=3.0, b=2.5, c=0.5)
    assert rep.deriv(0.0) == pytest.approx(rep.max_slope)
    assert rep.max_slope == pytest.approx(3.0 / (0.5 * math.sqrt(math.pi)))


@pytest.mark.parametrize("kw", [{"a": 0.0}, {"a": -1.0}, {"b": 1.0},
                                {"b": 0.5}, {"c": 0.0}])
def test_reparam_validation(kw):
    with pytest.raises(ValueError):
        Reparam(**kw)


# --- ray geometry ------------------------------------------------------------

def dense_row(op, ray: int, ds: float = 1e-4) -> np.ndarray:
    """Independent pixel-length estimate: walk the ray in tiny steps."""
    g = op.grid
    angles, offsets = _geometry(op.n_angles, op.n_det)
    phi, s = angles[op.angle_idx[ray]], offsets[op.det_idx[ray]]
    nx_, ny_ = math.cos(phi), math.sin(phi)
    p0 = np.array([0.5 + s * nx_, 0.5 + s * ny_])
    t = np.array([-ny_, nx_])
    taus = np.arange(-0.8, 0.8, ds)
    pts = p0[None, :] + taus[:, None] * t[None, :]
    inside = np.all((pts > 0.0) & (pts < 1.0), axis=1)
    acc = np.zeros(g.npix)
    ix = np.clip((pts[inside, 0] / g.hx).astype(int), 0, g.nx - 1)
    iy = np.clip((pts[inside, 1] / g.hy).astype(int), 0, g.ny - 1)
    np.add.at(acc, ix * g.ny + iy, ds)
    return acc


def ray_lengths(op) -> np.ndarray:
    """Total intersection length of each retained ray."""
    return op.apply(np.ones(op.grid.npix)) / op.kappa


def ray_row(op, ray: int) -> np.ndarray:
    """The matrix row of one ray: the adjoint of its unit count, which adds
    each entry to zeros only, so the row is exact at kappa 1."""
    return op.adjoint(np.eye(1, op.n_rays, ray).ravel()) / op.kappa


def test_ray_rows_match_dense_sampling():
    g = Grid(16, 16)
    op = build_radon_operator(g, 12, 16)
    rng = np.random.default_rng(17)
    for ray in rng.choice(op.n_rays, size=8, replace=False):
        row = ray_row(op, int(ray))
        approx = dense_row(op, int(ray))
        assert np.abs(row - approx).max() < 5e-4


def test_axis_aligned_rays_have_unit_length():
    # angle zero runs parallel to an axis: every retained ray that crosses
    # the interior integrates to exactly 1
    op = build_radon_operator(Grid(16, 16), 12, 16)
    first = op.angle_idx == 0
    sums = ray_lengths(op)[first]
    assert np.allclose(sums, 1.0, atol=1e-12)


def test_diagonal_center_ray_has_sqrt2_length():
    # 4 angles puts one projection at 45 degrees; an odd detector count puts
    # one bin exactly through the center
    op = build_radon_operator(Grid(16, 16), 4, 15)
    sel = (op.angle_idx == 1) & (op.det_idx == 7)
    assert sel.sum() == 1
    assert ray_lengths(op)[sel][0] == pytest.approx(math.sqrt(2), abs=1e-10)


def test_ray_weights_bounded_by_diagonal():
    op = build_radon_operator(Grid(16, 16), 12, 16)
    assert ray_lengths(op).max() <= math.sqrt(2) + 1e-12
    assert np.all(ray_lengths(op) > 0.0)


def test_dropped_plus_retained_is_total():
    op = build_radon_operator(Grid(16, 16), 12, 16)
    assert op.n_rays + op.n_dropped == 12 * 16
    assert op.n_dropped > 0  # the sqrt(2) span always overhangs the square
    assert op.angle_idx.max() < 12
    assert op.det_idx.max() < 16


@pytest.mark.parametrize("n_angles, n_det", [(12, 16), (7, 5), (30, 32),
                                             (2, 2), (60, 128)])
def test_kept_rays_depend_on_the_geometry_alone(n_angles, n_det):
    # a Sinogram carries no ray table: the operator of any grid, square
    # (traced with the transpose or not) or not, keeps the same rays
    ops = [build_radon_operator(Grid(nx, ny), n_angles, n_det)
           for nx, ny in ((2, 2), (16, 16), (9, 14), (20, 12), (64, 64))]
    for op in ops[1:]:
        assert np.array_equal(op.angle_idx, ops[0].angle_idx)
        assert np.array_equal(op.det_idx, ops[0].det_idx)


def test_adjoint_identity():
    op = build_radon_operator(Grid(16, 16), 12, 16, kappa=0.7)
    rng = np.random.default_rng(23)
    for _ in range(20):
        u = rng.standard_normal(op.grid.npix)
        w = rng.standard_normal(op.n_rays)
        lhs = float(op.apply(u) @ w)
        rhs = float(u @ op.adjoint(w))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    # one count is not broadcast over every ray
    with pytest.raises(ValueError, match="1 counts for"):
        op.adjoint([1.0])


@pytest.mark.parametrize("preset, seeds", [
    # at desk seeds 132 and 2395 the gap is 1.8e-11 and 2.9e-12 of <Au, w>
    pytest.param("desk", [1, 2, 3, 132, 2395], id="desk"),
    pytest.param("paper", [1, 2], id="paper"),
])
def test_adjoint_identity_to_rounding_of_its_terms(preset, seeds):
    # <Au, w> = <u, A^T w> as the benchmark draws u and w, the gap measured
    # against the sum of |(Au)_i w_i| it rounds: the gap relative to <Au, w>
    # itself grows without bound when the terms cancel
    cfg = parse_config(preset=preset)
    op = build_radon_operator(cfg.grid, cfg.n_angles, cfg.n_det, cfg.kappa)
    for seed in seeds:
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(op.grid.npix)
        w = rng.standard_normal(op.n_rays)
        au = op.apply(u)
        gap = abs(float(au @ w) - float(u @ op.adjoint(w)))
        assert gap <= 8 * np.finfo(float).eps * float(np.abs(au * w).sum())


def test_kappa_scales_linearly():
    g = Grid(8, 8)
    op1 = build_radon_operator(g, 6, 8, kappa=1.0)
    op2 = build_radon_operator(g, 6, 8, kappa=2.5)
    u = np.linspace(1.0, 2.0, g.npix)
    assert np.allclose(op2.apply(u), 2.5 * op1.apply(u))


def test_apply_accepts_images_flat_and_shaped(grid16, op16):
    # an (nx, ny) image and its flat values give the same counts
    rng = np.random.default_rng(2)
    vals = rng.uniform(1.0, 3.0, grid16.shape)
    assert np.array_equal(op16.apply(vals), op16.apply(vals.ravel()))
    # an image of another size is refused before the product reads it
    with pytest.raises(ValueError, match="image has 255 values"):
        op16.apply(vals.ravel()[1:])


# --- reference tracer --------------------------------------------------------

def _reference_ray(p0x, p0y, tx, ty, nx, ny, hx, hy, eps=1e-12):
    """Pixel-intersection lengths of one line with the unit square, traced on
    its own: the ray-by-ray form of build_radon_operator's batched tracer."""
    tlo, thi = -np.inf, np.inf
    for p, t in ((p0x, tx), (p0y, ty)):
        if abs(t) < eps:
            if p <= 0.0 or p >= 1.0:
                return None
        else:
            a1, a2 = (0.0 - p) / t, (1.0 - p) / t
            tlo = max(tlo, min(a1, a2))
            thi = min(thi, max(a1, a2))
    if thi - tlo <= eps:
        return None
    cuts = [np.array([tlo, thi])]
    if abs(tx) >= eps:
        tv = (np.arange(nx + 1) * hx - p0x) / tx
        cuts.append(tv[(tv > tlo) & (tv < thi)])
    if abs(ty) >= eps:
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


def _source_angle(grid, n_angles, k):
    """The angle whose near rays give angle k's near rays, rays j alike, and
    the pixel maps that carry them over, in order: "t" the transpose
    (ix, iy) -> (iy, ix), "x" the x-flip (ix, iy) -> (nx-1-ix, iy).

    The x-flip takes angle m onto n_angles-m.  On a square grid with even
    n_angles the transpose takes m onto n_angles/2-m; it carries no angle
    onto 0 or pi/2, whose rays may lie along grid lines."""
    maps = []
    if 2 * k > n_angles:
        k = n_angles - k
        maps.append("x")
    if (grid.nx == grid.ny and n_angles % 2 == 0
            and n_angles < 4 * k < 2 * n_angles):
        k = n_angles // 2 - k
        maps.insert(0, "t")
    return k, maps


def _carry(grid, pix, maps):
    """Pixel numbers moved through the maps of ``_source_angle``."""
    ix, iy = np.divmod(pix, grid.ny)
    for m in maps:
        ix, iy = (iy, ix) if m == "t" else (grid.nx - 1 - ix, iy)
    return ix * grid.ny + iy


def _reference_operator(grid, n_angles, n_det, mirror):
    """Matrix, ray tables and drop count of a ray-by-ray trace, assembled
    through COO, and each kept ray's (pixels, lengths) in order along the
    ray.  With mirror, only the near rays (2 j <= n_det-1) of the
    angles that are their own ``_source_angle`` are traced: another angle's
    near ray j takes its source angle's trace of ray j, carried through the
    pixel maps, and a far ray takes its near twin n_det-1-j's trace,
    reversed onto pixels npix-1-p."""
    offsets = (np.arange(n_det) + 0.5 - 0.5 * n_det) * (DETECTOR_SPAN / n_det)
    rows, cols, vals, angle_idx, det_idx, kept = [], [], [], [], [], []
    n_dropped = 0
    traces = []
    for k in range(n_angles):
        phi = k * math.pi / n_angles
        nxv, nyv = math.cos(phi), math.sin(phi)
        source, maps = _source_angle(grid, n_angles, k) if mirror else (k, [])
        traces.append([])
        for j, s in enumerate(offsets):
            if mirror and 2 * j > n_det - 1:
                twin = traces[k][n_det - 1 - j]
                traced = twin and (grid.npix - 1 - twin[0][::-1],
                                   twin[1][::-1])
            elif source != k:
                twin = traces[source][j]
                traced = twin and (_carry(grid, twin[0], maps), twin[1])
            else:
                traced = _reference_ray(0.5 + s * nxv, 0.5 + s * nyv, -nyv,
                                        nxv, grid.nx, grid.ny, grid.hx,
                                        grid.hy)
            traces[k].append(traced)
            if traced is None:
                n_dropped += 1
                continue
            pix, lengths = traced
            kept.append(traced)
            rows.append(np.full(pix.size, len(angle_idx)))
            cols.append(pix)
            vals.append(lengths)
            angle_idx.append(k)
            det_idx.append(j)
    matrix = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(angle_idx), grid.npix))
    return (matrix, np.array(angle_idx, dtype=np.uint32),
            np.array(det_idx, dtype=np.uint32), n_dropped, kept)


def _assert_same_tables(op, reference):
    """Same ray tables and drop count as the reference."""
    _, angle_idx, det_idx, n_dropped, _ = reference
    assert op.angle_idx.dtype == angle_idx.dtype == op.det_idx.dtype
    assert np.array_equal(op.angle_idx, angle_idx)
    assert np.array_equal(op.det_idx, det_idx)
    assert op.n_dropped == n_dropped


def _action_gaps(op, matrix, scale):
    """Entrywise |apply - kappa matrix action| and |adjoint - its transpose
    action| at random inputs, each beside |scale| acting on |input|."""
    rng = np.random.default_rng(0)
    u = rng.standard_normal(op.grid.npix)
    w = rng.standard_normal(op.n_rays)
    m, scale = op.kappa * matrix, abs(scale)
    return ((np.abs(op.apply(u) - m @ u), scale @ np.abs(u)),
            (np.abs(op.adjoint(w) - m.T @ w), scale.T @ np.abs(w)))


GEOMETRIES = [
    ((32, 32), 30, 32), ((128, 128), 60, 128), ((16, 16), 7, 9),
    ((20, 20), 13, 31), ((64, 64), 4, 64), ((24, 16), 9, 20),
    ((16, 40), 8, 33), ((8, 8), 1, 1),
    ((8, 8), 2, 64),     # the second angle is pi/2: rays parallel to x
    ((16, 16), 12, 16),  # the shared test operator
    ((16, 16), 4, 15),   # one ray through the center at 45 degrees
]

# floats of one batch's crossing table: the default, one ray per batch, and
# a few rays per batch, which splits one angle's rays between batches and
# puts the rays parallel to an axis in a batch with other angles' rays
BUDGETS = [forward._BATCH_FLOATS, 1, 500]


def _trace_case(i, geometry, budget):
    shape, n_angles, n_det = geometry
    label = f"shape{i}-{n_angles}-{n_det}"
    if budget != forward._BATCH_FLOATS:
        label += f"-budget{budget}"
    return pytest.param(shape, n_angles, n_det, budget, id=label)


@pytest.mark.parametrize("shape,n_angles,n_det,budget", [
    _trace_case(i, geometry, budget)
    for budget in BUDGETS for i, geometry in enumerate(GEOMETRIES)])
def test_operator_matches_ray_by_ray_trace(shape, n_angles, n_det, budget,
                                           monkeypatch):
    # the batched tracer, with the mapped angles' near rows carried over
    # from their source angles, reproduces the ray-by-ray trace of the near
    # half bit for bit: as (pixel, length) pairs sorted per row, the
    # reference's canonical CSR, and stored in order along each ray, a
    # mapped row in its source row's order
    monkeypatch.setattr(forward, "_BATCH_FLOATS", budget)
    op = build_radon_operator(Grid(*shape), n_angles, n_det)
    reference = _reference_operator(op.grid, n_angles, n_det, mirror=True)
    _assert_same_tables(op, reference)
    rows = np.flatnonzero(2 * reference[2] <= n_det - 1)
    near = reference[0][rows]
    assert (op.indptr.size - 1, op.grid.npix) == near.shape
    order = np.lexsort((op.indices, _entry_rows(op)))   # by row, then pixel
    for name in ("indptr", "indices", "data"):
        got, want = getattr(op, name), getattr(near, name)
        assert got.dtype == want.dtype
        if name != "indptr":
            got = got[order]
        assert np.array_equal(got, want), name
    along = [reference[4][r] for r in rows]
    assert np.array_equal(op.indices, np.concatenate([p for p, _ in along]))
    assert np.array_equal(op.data, np.concatenate([v for _, v in along]))


def _entry_rows(op):
    """The near row of each stored entry of ``op``."""
    return np.repeat(np.arange(op.indptr.size - 1), np.diff(op.indptr))


def _build_case(geometry):
    """A test geometry or a preset's, built."""
    if isinstance(geometry, str):
        cfg = parse_config(preset=geometry)
        return build_radon_operator(cfg.grid, cfg.n_angles, cfg.n_det)
    shape, n_angles, n_det = geometry
    return build_radon_operator(Grid(*shape), n_angles, n_det)


EVERY_GEOMETRY = pytest.mark.parametrize(
    "geometry", GEOMETRIES + ["desk", "paper"], ids=(
        lambda g: g if isinstance(g, str)
        else "{}x{}-{}-{}".format(*g[0], *g[1:])))


@EVERY_GEOMETRY
def test_no_stored_row_repeats_a_pixel(geometry):
    # nothing merges duplicate entries, so ``nnz``, the log's entries and
    # the manifest's nnz count pixels crossed only while no row repeats one
    op = _build_case(geometry)
    assert np.unique(_entry_rows(op) * op.grid.npix + op.indices).size \
        == op.indices.size


@EVERY_GEOMETRY
def test_stored_arrays_are_a_valid_frozen_csr(geometry):
    # what a scipy CSR matrix would check of H's arrays, which the kernels
    # in ``apply`` and ``adjoint`` read unchecked, and every array read-only
    op = _build_case(geometry)
    indptr, indices, data = op.indptr, op.indices, op.data
    assert indptr.dtype == indices.dtype == np.int32
    assert indptr[0] == 0 and np.all(np.diff(indptr) >= 0)
    assert indptr[-1] == indices.size == data.size
    assert indices.min() >= 0 and indices.max() < op.grid.npix
    assert data.dtype == np.float64 and np.all(data > 0.0)
    assert op.row_map.min() >= 0 and op.row_map.max() < 2 * (indptr.size - 1)
    for name in ("indptr", "indices", "data", "row_map", "angle_idx",
                 "det_idx"):
        assert not getattr(op, name).flags.writeable, name
    with pytest.raises(ValueError):
        op.data[0] = 1.0


def test_build_neither_sorts_nor_gathers_rows(monkeypatch):
    # the near half is assembled in trace order, one block copy per angle,
    # and kept as bare arrays: scipy's per-row sort and CSR row gather are
    # never called, and neither the build nor the operator's actions form a
    # scipy sparse matrix.  poistomo holds its own load of ``_sparsetools``
    # (``poistomo._kernels``), watched as well as scipy's.
    from scipy.sparse import _compressed, _sparsetools

    from poistomo import _kernels

    def refuse(*args, **kwargs):
        raise AssertionError("a scipy sparse matrix was formed, or CSR rows "
                             "sorted or gathered")

    for module in (_compressed, _sparsetools, _kernels.sparsetools):
        for name in ("csr_sort_indices", "csr_row_index"):
            monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(_compressed._cs_matrix, "__init__", refuse)
    for geometry in GEOMETRIES + ["desk", "paper"]:
        op = _build_case(geometry)
        op.adjoint(op.apply(np.ones(op.grid.npix)))


@pytest.mark.parametrize("shape,n_angles,n_det", GEOMETRIES)
def test_operator_acts_as_the_mirrored_matrix(shape, n_angles, n_det):
    # the near half with its reflections acts as the full matrix the
    # ray-by-ray trace maps and mirrors, to a few ulps of the magnitudes it
    # sums: only the order of the sums differs.  The middle rays of odd n_det
    # have no twin, and n_det = 1 has only a middle ray.
    op = build_radon_operator(Grid(*shape), n_angles, n_det, kappa=0.7)
    reference = _reference_operator(op.grid, n_angles, n_det, mirror=True)
    _assert_same_tables(op, reference)
    assert op.nnz == reference[0].nnz
    for gap, terms in _action_gaps(op, reference[0],
                                   op.kappa * reference[0]):
        assert np.all(gap <= 4 * np.finfo(float).eps * terms)


@pytest.mark.parametrize("shape,n_angles,n_det", GEOMETRIES)
def test_operator_is_within_rounding_of_every_ray_traced(shape, n_angles,
                                                         n_det):
    # every ray traced by itself, mapped and far rays too: the mapped and
    # mirrored rows keep the same tables and drops, and the operator acts as
    # if each entry moved by at most 1e-14, rounding
    op = build_radon_operator(Grid(*shape), n_angles, n_det)
    reference = _reference_operator(op.grid, n_angles, n_det, mirror=False)
    _assert_same_tables(op, reference)
    pattern = reference[0].copy()
    pattern.data[:] = 1.0
    for gap, entries in _action_gaps(op, reference[0], pattern):
        assert np.all(gap <= 1e-14 * entries)


@pytest.mark.parametrize("shape,n_angles,n_det", GEOMETRIES)
def test_far_rows_reflect_their_near_twins(shape, n_angles, n_det):
    # a far ray (k, n_det-1-j) is kept exactly when its near twin (k, j) is,
    # and it counts an image as its twin counts the image reflected onto the
    # pixels npix-1-p, bit for bit (a middle ray along a grid line is
    # traced, and is not its own mirror)
    op = build_radon_operator(Grid(*shape), n_angles, n_det)
    u = np.random.default_rng(5).standard_normal(op.grid.npix)
    counts, reflected = op.apply(u), op.apply(u[::-1])
    row_of = {(k, j): r for r, (k, j) in enumerate(zip(op.angle_idx.tolist(),
                                                       op.det_idx.tolist()))}
    for (k, j), r in row_of.items():
        if 2 * j <= n_det - 1:
            continue
        assert counts[r] == reflected[row_of[(k, n_det - 1 - j)]]
    assert sum(2 * j < n_det - 1 for _, j in row_of) == sum(
        2 * j > n_det - 1 for _, j in row_of)
    if n_det % 2:   # the middle ray crosses the centre at every angle
        assert all((k, n_det // 2) in row_of for k in range(n_angles))


@pytest.mark.parametrize("shape,n_angles,n_det", GEOMETRIES)
def test_mapped_near_rows_carry_their_source_rows(shape, n_angles, n_det):
    # a near ray (k, j) of an angle that is not its own source is kept
    # exactly when the source angle's ray j is, and its row is that ray's
    # row with every pixel carried through the maps, in the same order and
    # with the same lengths, bit for bit
    grid = Grid(*shape)
    op = build_radon_operator(grid, n_angles, n_det)
    row_of = {(k, j): op.row_map[i] for i, (k, j) in enumerate(
        zip(op.angle_idx.tolist(), op.det_idx.tolist())) if 2 * j <= n_det - 1}
    n_mapped = 0
    for k in range(n_angles):
        source, maps = _source_angle(grid, n_angles, k)
        if source == k:
            continue
        near = [j for j in range(n_det) if (k, j) in row_of]
        assert near == [j for j in range(n_det) if (source, j) in row_of]
        for j in near:
            got, src = (slice(op.indptr[r], op.indptr[r + 1])
                        for r in (row_of[(k, j)], row_of[(source, j)]))
            assert np.array_equal(op.indices[got],
                                  _carry(grid, op.indices[src], maps))
            assert np.array_equal(op.data[got], op.data[src])
        n_mapped += len(near)
    # every geometry of more than two angles maps some rows
    assert (n_mapped > 0) == (n_angles > 2)


def test_build_logs_one_summary_line(caplog):
    with caplog.at_level(logging.INFO, logger="poistomo.forward"):
        op = build_radon_operator(Grid(8, 8), 3, 8)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "poistomo.forward"]
    assert len(lines) == 1
    # the near rays of angles 0 and 1 are traced, angle 2's are mapped from
    # angle 1's, and each near row is mirrored: no 8-bin projection has a
    # middle ray.  The entries are those of every ray's row.
    near = op.det_idx < 4
    traced = int(np.sum(near & (op.angle_idx < 2)))
    nnz = sum(np.count_nonzero(ray_row(op, r)) for r in range(op.n_rays))
    assert op.nnz == nnz
    assert f"{traced} rays traced at 2 of 3 angles, {near.sum() - traced} " \
           f"mapped, {near.sum()} mirrored; {op.n_rays} kept, " \
           f"{op.n_dropped} dropped, {nnz} entries" in lines[0]
    assert ", 1 batches, " in lines[0]   # the near rays fit one batch


def test_build_peaks_below_a_multiple_of_the_matrix():
    # batches are traced within a small budget and joined one CSR array at a
    # time, and only the near half is stored, so the build's peak stays
    # below twice that half and below the full matrix it never forms
    tracemalloc.start()
    try:
        op = build_radon_operator(Grid(64, 64), 30, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.indices.dtype == op.indptr.dtype == np.int32
    assert peak <= 2.0 * (op.data.nbytes + op.indices.nbytes
                          + op.indptr.nbytes)
    # an int32 CSR of every ray: float64 data, int32 indices and indptr
    assert peak < op.nnz * (8 + 4) + (op.n_rays + 1) * 4


@pytest.mark.parametrize("key", ["a", "b", "c"])
def test_reparam_refuses_nan(key):
    with pytest.raises(ValueError, match=key):
        Reparam(**{key: math.nan})


def test_build_refuses_a_nan_kappa():
    with pytest.raises(ValueError, match="kappa"):
        build_radon_operator(Grid(8, 8), 8, 8, kappa=math.nan)


def test_build_validation():
    with pytest.raises(ValueError):
        build_radon_operator(Grid(8, 8), 0, 8)
    with pytest.raises(ValueError):
        build_radon_operator(Grid(8, 8), 8, 8, kappa=0.0)


# --- data simulation and potential ------------------------------------------

def test_simulate_data_deterministic(op16, truth16):
    s1 = simulate_data(op16, truth16, np.random.default_rng(5))
    s2 = simulate_data(op16, truth16, np.random.default_rng(5))
    assert np.array_equal(s1.counts, s2.counts)
    assert s1.n_rays == op16.n_rays
    assert (s1.n_angles, s1.n_det) == (op16.n_angles, op16.n_det)


def test_simulate_data_rejects_negative_intensity(op16, grid16):
    bad = ScalarField(grid16, -np.ones(grid16.shape))
    with pytest.raises(ValueError):
        simulate_data(op16, bad, np.random.default_rng(0))


def test_potential_matches_direct_sum(op16, rep, basis60, sino16,
                                      post16_smooth):
    # independent accumulation of sum(theta) - sum(y log theta) with fsum
    rng = np.random.default_rng(31)
    c = 0.4 * rng.standard_normal(60)
    theta = op16.apply(rep.apply(basis60.synthesize_values(c)))
    direct = math.fsum(theta) - math.fsum(
        y * math.log(t) for y, t in zip(sino16.counts, theta) if y)
    assert post16_smooth.evaluate(c).phi == pytest.approx(direct, rel=1e-12)


def test_potential_grad_matches_central_differences(post16_smooth):
    rng = np.random.default_rng(37)
    c = 0.3 * rng.standard_normal(60)
    grad = post16_smooth.phi_grad_at(post16_smooth.evaluate(c))
    eps = 1e-6
    for i in rng.choice(60, size=12, replace=False):
        cp, cm = c.copy(), c.copy()
        cp[i] += eps
        cm[i] -= eps
        fd = (post16_smooth.evaluate(cp).phi
              - post16_smooth.evaluate(cm).phi) / (2 * eps)
        assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def _potential_envelope(op, rep, r):
    """Deterministic envelope M(r) <= phi <= N(r) for all data with
    ||y||_2 <= r: monotonicity in the intensity band bounds theta ray by ray,
    and Cauchy-Schwarz against the worst-case log norm bounds the log term.
    Returns (lower, upper, log_norm_bound)."""
    lo, hi = rep.bounds
    w = op.kappa * ray_lengths(op)
    theta_lo, theta_hi = w * lo, w * hi
    log_bound = math.sqrt(float(np.sum(np.maximum(np.log(theta_lo) ** 2,
                                                  np.log(theta_hi) ** 2))))
    return (float(np.sum(theta_lo)) - log_bound * r,
            float(np.sum(theta_hi)) + log_bound * r,
            log_bound)


def test_potential_envelope_contains_all_values(op16, rep, basis60):
    r = 40.0
    lo, hi, log_bound = _potential_envelope(op16, rep, r)
    assert log_bound > 0.0
    rng = np.random.default_rng(41)
    for _ in range(100):
        c = rng.standard_normal(60) * rng.uniform(0.1, 3.0)
        y = np.abs(rng.standard_normal(op16.n_rays))
        y *= r * rng.uniform(0.0, 1.0) / np.linalg.norm(y)
        # real-valued data, so the potential is formed from theta directly
        val = _phi_of_theta(op16.apply(rep.apply(basis60.synthesize_values(c))),
                            y)
        assert lo <= val <= hi


def test_potential_lipschitz_bound(op16, rep, basis60, sino16, post16_smooth):
    from scipy.sparse.linalg import LinearOperator, svds
    radon = LinearOperator((op16.n_rays, op16.grid.npix), matvec=op16.apply,
                           rmatvec=op16.adjoint, dtype=float)
    opnorm = float(svds(radon, k=1, return_singular_vectors=False)[0])
    y = sino16.counts.astype(float)
    theta_min = (op16.kappa * ray_lengths(op16) * rep.bounds[0]).min()
    lip = (math.sqrt(op16.n_rays) + np.linalg.norm(y) / theta_min) \
        * opnorm * rep.max_slope
    rng = np.random.default_rng(43)
    for _ in range(100):
        c1 = rng.standard_normal(60) * rng.uniform(0.1, 2.0)
        c2 = c1 + rng.standard_normal(60) * rng.uniform(0.01, 1.0)
        z1 = basis60.synthesize_values(c1)
        z2 = basis60.synthesize_values(c2)
        dphi = abs(post16_smooth.evaluate(c1).phi
                   - post16_smooth.evaluate(c2).phi)
        assert dphi <= lip * np.linalg.norm(z1 - z2) + 1e-9


def test_phi_rejects_nonpositive_theta(op16, rep, basis60):
    with pytest.raises(ValueError):
        _phi_of_theta(np.array([1.0, 0.0]), np.array([1.0, 1.0]))


# --- serialization -----------------------------------------------------------

def test_sinogram_bin_roundtrip(tmp_path, sino16):
    path = tmp_path / "s.bin"
    write_sinogram_bin(sino16, path)
    back = read_sinogram_bin(path)
    assert np.array_equal(back.counts, sino16.counts)
    assert back.n_angles == sino16.n_angles
    assert back.n_det == sino16.n_det


def test_sinogram_bin_is_the_header_and_little_endian_counts(tmp_path,
                                                              sino16):
    # 8 bytes a ray: no ray table, which the geometry alone fixes
    path = tmp_path / "s.bin"
    write_sinogram_bin(sino16, path)
    assert path.read_bytes() == (
        struct.pack("<4sIII", b"SIN2", 12, 16, sino16.n_rays)
        + sino16.counts.astype("<i8").tobytes())


def test_sinogram_bin_bad_magic(tmp_path, op16, sino16):
    path = tmp_path / "s.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 12)
    with pytest.raises(ValueError):
        read_sinogram_bin(path)
    # the older layout: magic SIN1, the header, uint32 angle and detector
    # tables, then the counts
    path.write_bytes(struct.pack("<4sIII", b"SIN1", 12, 16, sino16.n_rays)
                     + op16.angle_idx.astype("<u4").tobytes()
                     + op16.det_idx.astype("<u4").tobytes()
                     + sino16.counts.astype("<i8").tobytes())
    with pytest.raises(ValueError,
                       match=re.escape(f"{path}: sinogram layout SIN1")):
        read_sinogram_bin(path)


def test_sinogram_bin_truncated(tmp_path, sino16):
    path = tmp_path / "s.bin"
    write_sinogram_bin(sino16, path)
    clipped = path.read_bytes()[:-16]
    path.write_bytes(clipped)
    with pytest.raises(ValueError):
        read_sinogram_bin(path)


def test_sinogram_bin_refuses_trailing_bytes(tmp_path, sino16):
    # the file is the header plus 8 bytes per ray, nothing after them
    path = tmp_path / "s.bin"
    write_sinogram_bin(sino16, path)
    path.write_bytes(path.read_bytes() + bytes(24))
    with pytest.raises(ValueError, match="ray block"):
        read_sinogram_bin(path)


def test_sinogram_leaves_the_callers_array_writable():
    # the sinogram freezes a copy of its counts, not the array it is given
    a = np.array([1, 2])
    sino = Sinogram(a, 1, 2)
    a[0] = 3
    assert sino.counts.tolist() == [1, 2]
    assert not sino.counts.flags.writeable


def test_sinogram_rejects_negative_counts():
    with pytest.raises(ValueError):
        Sinogram([-1, 2], 1, 2)
    with pytest.raises(ValueError):
        Sinogram([[1, 2]], 1, 2)


# --- simulate reports: the sinogram table and the geometry manifest ----------

@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """``phantom`` then ``simulate`` through the CLI on the op16 geometry."""
    tmp = tmp_path_factory.mktemp("simulate")
    ini = tmp / "op16.ini"
    ini.write_text("[grid]\nnx = 16\nny = 16\n\n[prior]\nn_modes = 60\n\n"
                   "[operator]\nn_angles = 12\nn_det = 16\nkappa = 1.0\n",
                   encoding="utf-8")
    out = tmp / "out"
    for command in ("phantom", "simulate"):
        assert cli.main([command, "--config", str(ini), "--output", str(out),
                         "--seed", "3"]) == 0, command
    return out


def test_sinogram_csv_roundtrip(simulated, op16):
    header, *lines = (simulated / "sinogram.csv").read_text(
        encoding="ascii").splitlines()
    assert header == "angle,det,count"
    rows = [line.split(",") for line in lines]
    assert all(x.isdigit() for row in rows for x in row)
    sino = read_sinogram_bin(simulated / "sinogram.bin")
    table = np.array(rows, dtype=np.int64)
    assert table.shape == (sino.n_rays, 3)
    assert np.array_equal(table[:, 0], op16.angle_idx)
    assert np.array_equal(table[:, 1], op16.det_idx)
    assert np.array_equal(table[:, 2], sino.counts)


def test_geometry_manifest(simulated, op16):
    doc = json.loads((simulated / "geometry.json").read_text())
    assert list(doc) == sorted(doc)
    assert doc == {
        "format": "parallel-beam path-integral operator",
        "nx": 16, "ny": 16, "n_angles": 12, "n_det": 16,
        "kappa": op16.kappa, "detector_span": DETECTOR_SPAN,
        "rays_kept": op16.n_rays, "rays_dropped": op16.n_dropped,
        "nnz": op16.nnz}
