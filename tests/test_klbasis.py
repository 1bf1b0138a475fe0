import numpy as np
import pytest

from poistomo import parse_config
from poistomo.fields import Grid
from poistomo.klbasis import CovarianceSpec, _axis_eigpairs, build_kl_basis


def kernel_matrix(grid: Grid, cov: CovarianceSpec) -> np.ndarray:
    """Dense covariance kernel on pixel centers, built from scratch."""
    x, y = grid.centers()
    xs = np.repeat(x, grid.ny)
    ys = np.tile(y, grid.nx)
    d1 = np.abs(xs[:, None] - xs[None, :])
    d2 = np.abs(ys[:, None] - ys[None, :])
    return cov.gamma * np.exp(-(d1 + d2) / cov.corr_len)


def test_modes_satisfy_weighted_eigenproblem():
    # each mode solves  (K * cell) e = eta e  for the dense kernel
    grid = Grid(7, 5)
    cov = CovarianceSpec(gamma=1.7, corr_len=0.4)
    basis = build_kl_basis(grid, cov, 12)
    K = kernel_matrix(grid, cov)
    A = K * grid.cell
    for i, e in enumerate(np.asarray(basis.modes)):
        resid = A @ e - basis.eigenvalues[i] * e
        assert np.abs(resid).max() < 1e-10


def test_modes_orthonormal_in_cell_weighted_product():
    grid = Grid(6, 9)
    basis = build_kl_basis(grid, CovarianceSpec(gamma=2.0, corr_len=0.25), 15)
    dense = np.asarray(basis.modes)
    assert dense.shape == (15, grid.npix)
    G = grid.cell * (dense @ dense.T)
    assert np.abs(G - np.eye(15)).max() < 1e-10
    # the factored contraction gives the same Gram matrix
    G2 = grid.cell * np.stack([basis.modes.project(row) for row in dense])
    assert np.abs(G2 - np.eye(15)).max() < 1e-10


def test_leading_pair_matches_power_iteration():
    # independent oracle: power iteration on the dense weighted kernel
    grid = Grid(8, 8)
    cov = CovarianceSpec(gamma=2.0, corr_len=0.3)
    A = kernel_matrix(grid, cov) * grid.cell
    v = np.ones(grid.npix)
    lam = 0.0
    for _ in range(4000):
        w = A @ v
        lam = np.linalg.norm(w)
        v = w / lam
    basis = build_kl_basis(grid, cov, 4)
    assert basis.eigenvalues[0] == pytest.approx(lam, rel=1e-8)
    e = np.asarray(basis.modes)[0]
    e = e / np.linalg.norm(e)
    assert min(np.abs(e - v).max(), np.abs(e + v).max()) < 1e-6


@pytest.mark.parametrize("nx, ny", [(16, 16), (24, 16)])
def test_each_axis_gets_its_own_eigenpairs(nx, ny):
    # a square grid decomposes one 1d kernel and uses it for both axes; the
    # factors are those of two separate decompositions, bit for bit
    grid = Grid(nx, ny)
    cov = CovarianceSpec(corr_len=0.2)
    modes = build_kl_basis(grid, cov, 20).modes
    assert np.array_equal(modes.ex,
                          _axis_eigpairs(nx, grid.hx, cov.corr_len)[1])
    assert np.array_equal(modes.ey,
                          _axis_eigpairs(ny, grid.hy, cov.corr_len)[1])
    assert (modes.ex is modes.ey) == (nx == ny)
    # a shared factor is held, and counted, once
    factors = modes.ex.nbytes + (modes.ey.nbytes if nx != ny else 0)
    assert modes.nbytes == factors + modes.index.nbytes


def test_eigenvalues_sorted_descending():
    basis = build_kl_basis(Grid(10, 10), CovarianceSpec(corr_len=0.2), 30)
    assert np.all(np.diff(basis.eigenvalues) <= 1e-15)


def test_full_trace_equals_gamma():
    # sum of all npix eigenvalues = trace(K cell) = gamma (kernel is 1 on
    # the diagonal)
    grid = Grid(9, 6)
    for gamma in (1.0, 2.0, 3.5):
        basis = build_kl_basis(grid, CovarianceSpec(gamma=gamma, corr_len=0.15),
                               grid.npix)
        assert basis.eigenvalues.sum() == pytest.approx(gamma, rel=1e-6)


def test_project_inverts_synthesize():
    grid = Grid(8, 8)
    basis = build_kl_basis(grid, CovarianceSpec(corr_len=0.2), 20)
    rng = np.random.default_rng(1)
    c = rng.standard_normal(20)
    weights = grid.cell * basis.modes.project(basis.synthesize_values(c))
    coeffs = weights / np.sqrt(basis.eigenvalues)
    assert np.abs(coeffs - c).max() < 1e-10


def test_project_with_nonzero_mean():
    grid = Grid(6, 6)
    basis = build_kl_basis(grid, CovarianceSpec(corr_len=0.2), 10, mean=1.3)
    assert np.allclose(basis.synthesize_values(np.zeros(10)), 1.3)


def test_pullback_is_adjoint_of_synthesize_direction():
    # <synthesize'(dc), w> pixelwise = <dc, pullback(w)> euclidean
    grid = Grid(7, 7)
    basis = build_kl_basis(grid, CovarianceSpec(corr_len=0.3), 14)
    rng = np.random.default_rng(4)
    dc = rng.standard_normal(14)
    w = rng.standard_normal(grid.npix)
    push = basis.modes.synthesize(dc * np.sqrt(basis.eigenvalues))
    assert float(push @ w) == pytest.approx(float(dc @ basis.pullback(w)),
                                            rel=1e-12)


def test_sampled_field_moments_match_kernel():
    # MC check: pixel covariance of synthesized reference draws matches the
    # kernel at probe pairs within 5 standard errors
    grid = Grid(6, 6)
    cov = CovarianceSpec(gamma=2.0, corr_len=0.5)
    basis = build_kl_basis(grid, cov, grid.npix)
    rng = np.random.default_rng(9)
    n = 20000
    draws = np.empty((n, grid.npix))
    for k in range(n):
        draws[k] = basis.synthesize_values(rng.standard_normal(basis.n_modes))
    K = kernel_matrix(grid, cov)
    pairs = [(0, 0), (5, 5), (0, 35), (12, 13), (7, 30)]
    for i, j in pairs:
        est = np.mean(draws[:, i] * draws[:, j]) \
            - draws[:, i].mean() * draws[:, j].mean()
        # var of a covariance estimate of jointly gaussian pairs
        se = np.sqrt((K[i, i] * K[j, j] + K[i, j] ** 2) / n)
        assert abs(est - K[i, j]) < 5 * se


def test_floor_applied_to_tiny_eigenvalues(caplog):
    # a very long correlation length makes the kernel numerically rank
    # deficient; trailing eigenvalues get floored, with a warning
    import logging
    grid = Grid(32, 32)
    with caplog.at_level(logging.WARNING, logger="poistomo.klbasis"):
        basis = build_kl_basis(grid, CovarianceSpec(corr_len=1e6), grid.npix)
    assert np.all(basis.eigenvalues > 0.0)
    assert any("clamped" in r.getMessage() for r in caplog.records)


def test_a_cut_inside_a_tie_is_reported(caplog):
    # desk's cut keeps 4 of the 8 modes of one eigenvalue (transposed pairs
    # on a square grid); paper's keeps both modes of its last eigenvalue
    import logging
    with caplog.at_level(logging.WARNING, logger="poistomo.klbasis"):
        _preset_basis("desk")
    assert [r.getMessage() for r in caplog.records] == [
        "kl cut splits a tie: keeps 4 of the 8 modes of eigenvalue "
        "1.953125e-03"]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="poistomo.klbasis"):
        _preset_basis("paper")
    assert not caplog.records


def test_n_modes_bounds():
    grid = Grid(4, 4)
    with pytest.raises(ValueError):
        build_kl_basis(grid, CovarianceSpec(), 17)
    with pytest.raises(ValueError):
        build_kl_basis(grid, CovarianceSpec(), 0)


def test_covariance_spec_validation():
    with pytest.raises(ValueError):
        CovarianceSpec(gamma=0.0)
    with pytest.raises(ValueError):
        CovarianceSpec(corr_len=-1.0)


@pytest.mark.parametrize("key", ["gamma", "corr_len"])
def test_covariance_spec_refuses_nan(key):
    with pytest.raises(ValueError, match=key):
        CovarianceSpec(**{key: float("nan")})


def test_synthesize_values_takes_a_block_of_rows():
    grid = Grid(5, 8)
    basis = build_kl_basis(grid, CovarianceSpec(corr_len=0.2), 6, mean=0.7)
    rows = np.random.default_rng(2).standard_normal((4, 6))
    block = basis.synthesize_values(rows)
    assert block.shape == (4, grid.npix)
    for r in range(4):
        np.testing.assert_allclose(block[r], basis.synthesize_values(rows[r]),
                                   rtol=1e-13, atol=1e-13)
    with pytest.raises(ValueError):
        basis.synthesize_values(np.zeros((4, 5)))
    with pytest.raises(ValueError):
        basis.synthesize_values(np.zeros(7))


# ---------------------------------------------------------------------------
# Kronecker-factored transform against a dense matrix formed here


def _dense_from_factors(basis):
    """Mode matrix row r = ex[i] (x) ey[j], (i, j) the grid position of the
    flat index of mode r, built by explicit loops."""
    m = basis.modes
    ny = m.ey.shape[0]
    rows = [np.outer(m.ex[r // ny], m.ey[r % ny]).reshape(-1) for r in m.index]
    return np.array(rows)


def _small_basis(nx, ny, n):
    return build_kl_basis(Grid(nx, ny), CovarianceSpec(gamma=1.3, corr_len=0.3),
                          n, mean=0.4)


@pytest.mark.parametrize("nx,ny,n", [(7, 5, 20), (6, 9, 54)])
def test_factored_transform_matches_dense_matrix(nx, ny, n):
    basis = _small_basis(nx, ny, n)
    grid = basis.grid
    dense = _dense_from_factors(basis)
    sq = np.sqrt(basis.eigenvalues)
    rng = np.random.default_rng(nx * ny)
    tol = dict(rtol=0.0, atol=1e-13)

    c = rng.standard_normal(n)
    np.testing.assert_allclose(basis.synthesize_values(c),
                               basis.mean + (c * sq) @ dense, **tol)
    block = rng.standard_normal((4, n))
    np.testing.assert_allclose(basis.synthesize_values(block),
                               basis.mean + (block * sq) @ dense, **tol)

    d = rng.standard_normal(grid.npix)
    np.testing.assert_allclose(basis.pullback(d), sq * (dense @ d), **tol)

    np.testing.assert_allclose(grid.cell * basis.modes.project(d),
                               grid.cell * (dense @ d), **tol)
    np.testing.assert_array_equal(np.asarray(basis.modes), dense)
    # a unit weight synthesizes its one mode exactly
    np.testing.assert_array_equal(basis.modes.synthesize(np.eye(n)[3]),
                                  dense[3])


def _preset_basis(preset):
    cfg = parse_config(preset=preset)
    return build_kl_basis(cfg.grid, cfg.cov, cfg.n_modes, cfg.prior_mean)


@pytest.mark.parametrize("make", [lambda: _small_basis(7, 5, 20),
                                  lambda: _small_basis(6, 9, 54),
                                  lambda: _preset_basis("desk"),
                                  lambda: _preset_basis("paper")],
                         ids=["7x5", "6x9", "desk", "paper"])
def test_strip_synthesis_equals_the_whole_image_bit_for_bit(make):
    basis = make()
    nx, ny = basis.grid.shape
    c = np.random.default_rng(nx * ny).standard_normal((11, basis.n_modes))
    whole = basis.synthesize_values(c)
    # one-row strips; strips of two, the last of one row on odd nx; nx - 1
    # rows, then a last strip of one; the whole image; each in blocks of 4,
    # 4 and a short 3 rows
    for width in (1, 2, nx - 1, nx):
        for x0 in range(0, nx, width):
            x_rows = slice(x0, min(x0 + width, nx))
            pixels = slice(x0 * ny, x_rows.stop * ny)
            for lo in range(0, 11, 4):
                strip = basis.synthesize_values(c[lo:lo + 4], x_rows)
                assert np.array_equal(strip, whole[lo:lo + 4, pixels])
    # one coefficient vector
    assert np.array_equal(basis.synthesize_values(c[3], slice(1, 2)),
                          whole[3, ny:2 * ny])


def test_factored_modes_are_small_and_read_only():
    grid = Grid(64, 64)
    basis = build_kl_basis(grid, CovarianceSpec(corr_len=0.1), 2000)
    assert basis.modes.shape == (2000, grid.npix)
    assert basis.modes.nbytes < 0.01 * 2000 * grid.npix * 8
    with pytest.raises(AttributeError):
        basis.modes.ex = None
    with pytest.raises(ValueError):
        basis.modes.ex[0, 0] = 1.0
    # no operator forms the dense matrix: the products are named methods
    with pytest.raises(TypeError):
        np.zeros(2000) @ basis.modes
    with pytest.raises(TypeError):
        basis.modes @ np.zeros(grid.npix)
    with pytest.raises(ValueError):
        basis.pullback(np.zeros(grid.npix + 1))
    with pytest.raises(ValueError):
        basis.synthesize_values(np.zeros(2001))
