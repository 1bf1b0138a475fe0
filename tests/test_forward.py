import json
import logging
import math

import numpy as np
import pytest
import scipy.sparse as sp

from poistomo.fields import Grid, ScalarField
from poistomo.forward import (DETECTOR_SPAN, Reparam, Sinogram, _phi_of_theta,
                              build_radon_operator, read_sinogram_bin,
                              simulate_data, write_geometry_manifest,
                              write_sinogram_bin, write_sinogram_csv)
from poistomo.klbasis import CovarianceSpec, build_kl_basis


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
    phi = op.angles()[op.angle_idx[ray]]
    s = op.offsets()[op.det_idx[ray]]
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


def test_ray_rows_match_dense_sampling():
    g = Grid(16, 16)
    op = build_radon_operator(g, 12, 16)
    rng = np.random.default_rng(17)
    for ray in rng.choice(op.n_rays, size=8, replace=False):
        row = op.matrix[int(ray)].toarray().reshape(-1)
        approx = dense_row(op, int(ray))
        assert np.abs(row - approx).max() < 5e-4


def test_axis_aligned_rays_have_unit_length():
    # angle zero runs parallel to an axis: every retained ray that crosses
    # the interior integrates to exactly 1
    op = build_radon_operator(Grid(16, 16), 12, 16)
    first = op.angle_idx == 0
    sums = op.ray_weights[first]
    assert np.allclose(sums, 1.0, atol=1e-12)


def test_diagonal_center_ray_has_sqrt2_length():
    # 4 angles puts one projection at 45 degrees; an odd detector count puts
    # one bin exactly through the center
    op = build_radon_operator(Grid(16, 16), 4, 15)
    sel = (op.angle_idx == 1) & (op.det_idx == 7)
    assert sel.sum() == 1
    assert op.ray_weights[sel][0] == pytest.approx(math.sqrt(2), abs=1e-10)


def test_ray_weights_bounded_by_diagonal():
    op = build_radon_operator(Grid(16, 16), 12, 16)
    assert op.ray_weights.max() <= math.sqrt(2) + 1e-12
    assert np.all(op.ray_weights > 0.0)


def test_dropped_plus_retained_is_total():
    op = build_radon_operator(Grid(16, 16), 12, 16)
    assert op.n_rays + op.n_dropped == 12 * 16
    assert op.n_dropped > 0  # the sqrt(2) span always overhangs the square
    assert op.angle_idx.max() < 12
    assert op.det_idx.max() < 16


def test_adjoint_identity():
    op = build_radon_operator(Grid(16, 16), 12, 16, kappa=0.7)
    rng = np.random.default_rng(23)
    for _ in range(20):
        u = rng.standard_normal(op.grid.npix)
        w = rng.standard_normal(op.n_rays)
        lhs = float(op.apply(u) @ w)
        rhs = float(u @ op.adjoint(w))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_kappa_scales_linearly():
    g = Grid(8, 8)
    op1 = build_radon_operator(g, 6, 8, kappa=1.0)
    op2 = build_radon_operator(g, 6, 8, kappa=2.5)
    u = np.linspace(1.0, 2.0, g.npix)
    assert np.allclose(op2.apply(u), 2.5 * op1.apply(u))


def test_apply_accepts_images_flat_and_blocks(grid16, op16):
    # an (nx, ny) image and its flat values give the same counts; a (k, npix)
    # block gives the counts of each row
    rng = np.random.default_rng(2)
    vals = rng.uniform(1.0, 3.0, (3,) + grid16.shape)
    a = op16.apply(vals[1])
    b = op16.apply(vals[1].ravel())
    assert np.array_equal(a, b)
    block = op16.apply(vals.reshape(3, -1))
    assert block.shape == (3, op16.n_rays)
    for k in range(3):
        np.testing.assert_allclose(block[k], op16.apply(vals[k]), rtol=1e-14)


# --- reference tracer --------------------------------------------------------

def _reference_ray(p0x, p0y, tx, ty, nx, ny, hx, hy, eps=1e-12):
    """Pixel-intersection lengths of one line with the unit square, traced on
    its own: the ray-by-ray form of the builder's per-angle tracer."""
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


def _reference_operator(grid, n_angles, n_det):
    """Matrix, ray tables and drop count of a ray-by-ray trace, assembled
    through COO."""
    offsets = (np.arange(n_det) + 0.5 - 0.5 * n_det) * (DETECTOR_SPAN / n_det)
    rows, cols, vals, angle_idx, det_idx = [], [], [], [], []
    n_dropped = 0
    for k in range(n_angles):
        phi = k * math.pi / n_angles
        nxv, nyv = math.cos(phi), math.sin(phi)
        for j, s in enumerate(offsets):
            traced = _reference_ray(0.5 + s * nxv, 0.5 + s * nyv, -nyv, nxv,
                                    grid.nx, grid.ny, grid.hx, grid.hy)
            if traced is None:
                n_dropped += 1
                continue
            pix, lengths = traced
            rows.append(np.full(pix.size, len(angle_idx)))
            cols.append(pix)
            vals.append(lengths)
            angle_idx.append(k)
            det_idx.append(j)
    matrix = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(angle_idx), grid.npix))
    return (matrix, np.array(angle_idx, dtype=np.uint32),
            np.array(det_idx, dtype=np.uint32), n_dropped)


@pytest.mark.parametrize("shape,n_angles,n_det", [
    ((32, 32), 30, 32), ((128, 128), 60, 128), ((16, 16), 7, 9),
    ((20, 20), 13, 31), ((64, 64), 4, 64), ((24, 16), 9, 20),
    ((16, 40), 8, 33), ((8, 8), 1, 1),
    ((8, 8), 2, 64),     # the second angle is pi/2: rays parallel to x
    ((16, 16), 12, 16),  # the shared test operator
    ((16, 16), 4, 15),   # one ray through the center at 45 degrees
])
def test_operator_matches_ray_by_ray_trace(shape, n_angles, n_det):
    # the per-angle tracer reproduces the ray-by-ray trace bit for bit, so
    # every product with the matrix rounds the same way
    op = build_radon_operator(Grid(*shape), n_angles, n_det)
    matrix, angle_idx, det_idx, n_dropped = _reference_operator(
        op.grid, n_angles, n_det)
    assert op.matrix.has_canonical_format
    assert op.matrix.shape == matrix.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(op.matrix, name), getattr(matrix, name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), name
    assert op.angle_idx.dtype == angle_idx.dtype == op.det_idx.dtype
    assert np.array_equal(op.angle_idx, angle_idx)
    assert np.array_equal(op.det_idx, det_idx)
    assert op.n_dropped == n_dropped


def test_build_logs_one_summary_line(caplog):
    with caplog.at_level(logging.INFO, logger="poistomo.forward"):
        op = build_radon_operator(Grid(8, 8), 3, 8)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "poistomo.forward"]
    assert len(lines) == 1
    assert f"{op.n_rays} rays kept, {op.n_dropped} dropped, " \
           f"{op.matrix.nnz} entries" in lines[0]


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
    w = op.kappa * op.ray_weights
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
    from scipy.sparse.linalg import svds
    opnorm = float(svds(op16.kappa * op16.matrix, k=1,
                        return_singular_vectors=False)[0])
    y = sino16.counts.astype(float)
    theta_min = (op16.kappa * op16.ray_weights * rep.bounds[0]).min()
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

def _read_sinogram_csv(path, n_angles, n_det):
    """Read back the (angle, det, count) rows ``write_sinogram_csv`` writes."""
    raw = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[1] != 3:
        raise ValueError(f"{path}: expected 3 columns, found {raw.shape[1]}")
    if np.any(raw[:, 0] >= n_angles) or np.any(raw[:, 1] >= n_det):
        raise ValueError(f"{path}: ray index outside the stated geometry")
    return Sinogram(raw[:, 2], raw[:, 0], raw[:, 1], n_angles, n_det)


def test_sinogram_csv_roundtrip(tmp_path, sino16):
    path = tmp_path / "s.csv"
    write_sinogram_csv(sino16, path)
    back = _read_sinogram_csv(path, sino16.n_angles, sino16.n_det)
    assert np.array_equal(back.counts, sino16.counts)
    assert np.array_equal(back.angle_idx, sino16.angle_idx)
    assert np.array_equal(back.det_idx, sino16.det_idx)


def test_sinogram_csv_rejects_out_of_range(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("angle,det,count\n5,0,3\n")
    with pytest.raises(ValueError):
        _read_sinogram_csv(path, 4, 4)


def test_sinogram_bin_roundtrip(tmp_path, sino16):
    path = tmp_path / "s.bin"
    write_sinogram_bin(sino16, path)
    back = read_sinogram_bin(path)
    assert np.array_equal(back.counts, sino16.counts)
    assert back.n_angles == sino16.n_angles
    assert back.n_det == sino16.n_det


def test_sinogram_bin_tables_are_little_endian(tmp_path, sino16):
    path = tmp_path / "s.bin"
    write_sinogram_bin(sino16, path)
    tables = (sino16.angle_idx.astype("<u4").tobytes()
              + sino16.det_idx.astype("<u4").tobytes()
              + sino16.counts.astype("<i8").tobytes())
    assert path.read_bytes()[-len(tables):] == tables


def test_sinogram_bin_bad_magic(tmp_path):
    path = tmp_path / "s.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 12)
    with pytest.raises(ValueError):
        read_sinogram_bin(path)


def test_sinogram_bin_truncated(tmp_path, sino16):
    path = tmp_path / "s.bin"
    write_sinogram_bin(sino16, path)
    clipped = path.read_bytes()[:-16]
    path.write_bytes(clipped)
    with pytest.raises(ValueError):
        read_sinogram_bin(path)


def test_sinogram_rejects_negative_counts():
    with pytest.raises(ValueError):
        Sinogram([-1, 2], [0, 0], [0, 1], 1, 2)


def test_geometry_manifest(tmp_path, op16):
    path = tmp_path / "geom.json"
    write_geometry_manifest(op16, path)
    doc = json.loads(path.read_text())
    assert doc["n_angles"] == 12
    assert doc["n_det"] == 16
    assert doc["rays_kept"] == op16.n_rays
    assert doc["rays_dropped"] == op16.n_dropped
    assert doc["nnz"] == op16.matrix.nnz
    assert list(doc) == sorted(doc)
