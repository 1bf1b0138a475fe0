import math

import numpy as np
import pytest

from poistomo.fields import (Grid, ScalarField, div_arrays, grad_arrays,
                             iso_l1, psnr, read_field_csv, tv_arrays,
                             write_field_csv)


def test_grid_spacings():
    g = Grid(16, 32)
    assert g.hx == 1.0 / 16
    assert g.hy == 1.0 / 32
    assert g.cell == pytest.approx(1.0 / 512, rel=0, abs=0)
    assert g.shape == (16, 32)
    assert g.npix == 512


def test_grid_centers():
    g = Grid(4, 4)
    x, y = g.centers()
    assert np.allclose(x, [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(y, x)


@pytest.mark.parametrize("nx,ny", [(1, 4), (4, 1), (0, 4), (-2, 3)])
def test_grid_rejects_degenerate(nx, ny):
    with pytest.raises(ValueError):
        Grid(nx, ny)


def test_scalar_field_shape_and_immutability():
    g = Grid(3, 4)
    f = ScalarField(g, np.arange(12).reshape(3, 4))
    assert f.values.dtype == np.float64
    with pytest.raises(ValueError):
        f.values[0, 0] = 5.0
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((4, 3)))


def test_gradient_of_constant_is_zero():
    g = Grid(8, 8)
    v = grad_arrays(np.full((8, 8), 3.7), g.hx, g.hy)
    assert v.shape == (2, 8, 8)
    assert np.all(v == 0.0)


def test_gradient_replicate_boundary():
    # one-sided forward differences: the last difference in each axis is zero
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((6, 7))
    g1, g2 = grad_arrays(vals, 1.0 / 6, 1.0 / 7)
    assert np.all(g1[-1, :] == 0.0)
    assert np.all(g2[:, -1] == 0.0)
    # interior matches the difference quotient
    assert g1[2, 3] == pytest.approx((vals[3, 3] - vals[2, 3]) * 6)
    assert g2[2, 3] == pytest.approx((vals[2, 4] - vals[2, 3]) * 7)


@pytest.mark.parametrize("nx,ny", [(8, 8), (8, 13), (16, 5)])
def test_divergence_is_negative_adjoint(nx, ny):
    # <grad f, v>_w + <f, div v>_w = 0 exactly, for random fields
    g = Grid(nx, ny)
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = rng.standard_normal(g.shape)
        v = rng.standard_normal((2,) + g.shape)
        lhs = float(np.vdot(grad_arrays(f, g.hx, g.hy), v)) * g.cell
        rhs = float(np.vdot(f, div_arrays(v, g.hx, g.hy))) * g.cell
        assert lhs + rhs == pytest.approx(0.0, abs=1e-12)


def test_gradient_matches_smooth_function():
    # forward differences are first order: error <= sup|f''| h / 2 plus slack
    g = Grid(64, 64)
    x, y = g.centers()
    f = np.sin(2 * np.pi * x)[:, None] * np.cos(2 * np.pi * y)[None, :]
    g1, g2 = grad_arrays(f, g.hx, g.hy)
    dx_true = 2 * np.pi * np.cos(2 * np.pi * (x + g.hx / 2))[:, None] \
        * np.cos(2 * np.pi * y)[None, :]
    err = np.abs(g1[:-1, :] - dx_true[:-1, :]).max()
    # midpoint-evaluated truth leaves only the second-order remainder
    assert err <= (2 * np.pi) ** 3 * g.hx ** 2 / 8


def test_div_arrays_antisymmetry_explicit():
    c1 = np.zeros((3, 3))
    c1[1, 1] = 2.0
    out = div_arrays(np.stack([c1, np.zeros((3, 3))]), 0.5, 0.5)
    # contribution enters its own cell positively, downstream negatively
    assert out[1, 1] == pytest.approx(4.0)
    assert out[2, 1] == pytest.approx(-4.0)
    assert np.all(out[0, :] == 0.0)


def test_tv_of_ramp():
    # f = x has unit slope on all but the last row: tv = 1 - 1/nx
    for nx in (8, 16, 33):
        g = Grid(nx, nx)
        x, _ = g.centers()
        f = np.repeat(x[:, None], nx, axis=1)
        assert tv_arrays(f, g.hx, g.hy) == pytest.approx(1.0 - 1.0 / nx,
                                                         rel=1e-12)


def test_tv_shift_and_scale():
    g = Grid(12, 9)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(g.shape)
    t0 = tv_arrays(f, g.hx, g.hy)
    assert tv_arrays(f + 4.2, g.hx, g.hy) == pytest.approx(t0)
    assert tv_arrays(-3.0 * f, g.hx, g.hy) == pytest.approx(3 * t0)


def test_iso_l1_is_the_sum_of_pointwise_magnitudes():
    # (3, 4) at every pixel has magnitude 5; the norm weighs pixels by area
    g = Grid(4, 6)
    v = np.stack([np.full(g.shape, 3.0), np.full(g.shape, -4.0)])
    assert iso_l1(v, g.hx, g.hy) == pytest.approx(5.0, rel=1e-15)
    f = np.random.default_rng(2).standard_normal(g.shape)
    assert tv_arrays(f, g.hx, g.hy) == iso_l1(grad_arrays(f, g.hx, g.hy),
                                             g.hx, g.hy)


def test_psnr_known_value():
    # ref peak 2, mse 0.04 -> 10 log10(4 / 0.04) = 20 dB
    g = Grid(4, 4)
    ref = ScalarField(g, np.full((4, 4), 2.0))
    noisy = ScalarField(g, ref.values + 0.2)
    assert psnr(noisy, ref) == pytest.approx(20.0, abs=1e-12)


def test_psnr_identical_is_infinite():
    g = Grid(4, 4)
    f = ScalarField(g, np.ones((4, 4)))
    assert psnr(f, f) == math.inf


def test_psnr_rejects_nonpositive_reference():
    g = Grid(4, 4)
    f = ScalarField(g, np.ones((4, 4)))
    with pytest.raises(ValueError):
        psnr(f, ScalarField(g, np.zeros((4, 4))))


def test_csv_roundtrip_exact(tmp_path):
    g = Grid(5, 6)
    rng = np.random.default_rng(8)
    f = ScalarField(g, rng.standard_normal(g.shape) * 1e3)
    path = tmp_path / "f.csv"
    write_field_csv(f, path)
    back = read_field_csv(path, g)
    assert np.array_equal(back.values, f.values)


def test_csv_wrong_length_rejected(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1.0\n2.0\n")
    with pytest.raises(ValueError):
        read_field_csv(path, Grid(2, 2))


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_csv_non_finite_value_rejected_naming_the_file(tmp_path, token):
    path = tmp_path / "f.csv"
    path.write_text(f"1.0\n{token}\n3.0\n4.0\n")
    with pytest.raises(ValueError, match=f"{path}: a pixel is not finite"):
        read_field_csv(path, Grid(2, 2))
