import dataclasses

import numpy as np
import pytest

from poistomo.fields import grad_arrays, tv_arrays
from poistomo.forward import build_radon_operator, simulate_data
from poistomo.phantom import brain_phantom
from poistomo.posterior import TGPosterior
from poistomo.samplers import SamplerConfig, _rho


def transition_logdensity(src, dst, g_src, delta):
    """Log density (up to constant) of the drift proposal dst | src."""
    mean = ((2.0 - delta) * src - 2.0 * delta * g_src) / (2.0 + delta)
    var = 8.0 * delta / (2.0 + delta) ** 2
    return -float(np.sum((dst - mean) ** 2)) / (2.0 * var)


@pytest.mark.parametrize("delta", [0.05, 0.3, 1.0, 1.9])
def test_rho_difference_is_exact_mh_log_ratio(post16, delta):
    """Oracle: for ANY drift vectors, rho(z,v) - rho(v,z) must equal the
    Metropolis log ratio assembled from the explicit Gaussian transition
    densities and the reference-weighted posterior densities."""
    rng = np.random.default_rng(71)
    for _ in range(6):
        z = 0.5 * rng.standard_normal(60)
        v = 0.5 * rng.standard_normal(60)
        g_z = rng.standard_normal(60)
        g_v = rng.standard_normal(60)
        ev_z, ev_v = post16.evaluate(z), post16.evaluate(v)
        lhs = _rho(ev_z, z, v, g_z, delta) - _rho(ev_v, v, z, g_v, delta)
        rhs = (ev_z.psi - ev_v.psi
               + 0.5 * (float(z @ z) - float(v @ v))
               + transition_logdensity(v, z, g_v, delta)
               - transition_logdensity(z, v, g_z, delta))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_rho_zero_drift_collapses_to_psi(post16):
    rng = np.random.default_rng(3)
    z = rng.standard_normal(60)
    v = rng.standard_normal(60)
    zero = np.zeros(60)
    ev = post16.evaluate(z)
    assert _rho(ev, z, v, zero, 0.3) == pytest.approx(ev.psi)


def test_rho_validates_delta_and_shapes(post16):
    # the chain config checks delta before rho is formed; rho's pairings
    # refuse mismatched shapes
    z = np.zeros(60)
    for bad in (-0.1, 2.5):
        with pytest.raises(ValueError):
            SamplerConfig("pdpcn", 10, delta=bad)
    with pytest.raises(ValueError):
        _rho(post16.evaluate(z), z, np.zeros(59), z, 0.3)


def test_psi_splits_into_phi_and_tv(post16, basis60):
    rng = np.random.default_rng(13)
    c = 0.4 * rng.standard_normal(60)
    ev = post16.evaluate(c)
    g = post16.grid
    z = basis60.synthesize_values(c).reshape(g.shape)
    assert ev.reg == pytest.approx(1.0 * tv_arrays(z, g.hx, g.hy), rel=1e-12)
    np.testing.assert_array_equal(ev.grad, grad_arrays(z, g.hx, g.hy))
    assert ev.psi == pytest.approx(ev.phi + ev.reg, rel=1e-12)
    assert np.all(ev.theta > 0.0)


def test_smooth_posterior_has_zero_reg(post16_smooth):
    c = np.full(60, 0.2)
    ev = post16_smooth.evaluate(c)
    assert ev.reg == 0.0
    assert ev.psi == ev.phi


def test_phi_grad_at_reuses_evaluation(post16_smooth):
    # the gradient depends on the evaluation passed in, not on the latest one
    rng = np.random.default_rng(19)
    c = 0.3 * rng.standard_normal(60)
    ev = post16_smooth.evaluate(c)
    post16_smooth.evaluate(-c)
    assert np.allclose(post16_smooth.phi_grad_at(ev),
                       post16_smooth.phi_grad_at(post16_smooth.evaluate(c)))


def test_psi_grad_is_phi_grad_without_tv(post16_smooth):
    # the gradient of psi exists only without TV: there it is phi_grad, the
    # drift of pdpcn at a zero multiplier
    c = np.zeros(60)
    g = post16_smooth.phi_grad_at(post16_smooth.evaluate(c))
    h = 1e-6
    for k in (0, 7, 31, 59):
        cp, cm = c.copy(), c.copy()
        cp[k] += h
        cm[k] -= h
        fd = (post16_smooth.evaluate(cp).psi
              - post16_smooth.evaluate(cm).psi) / (2 * h)
        assert fd == pytest.approx(g[k], rel=1e-5, abs=1e-8)


def test_posterior_validation(op16, rep, basis60, sino16):
    with pytest.raises(ValueError):
        TGPosterior(op16, rep, basis60, sino16, tv_weight=-0.5)


def test_posterior_refuses_a_nan_tv_weight(op16, rep, basis60, sino16):
    # nan fails the nonnegativity check, rather than dropping the TV term
    with pytest.raises(ValueError, match="tv_weight"):
        TGPosterior(op16, rep, basis60, sino16, tv_weight=float("nan"))


def test_posterior_refuses_the_counts_of_other_rays(op16, rep, basis60,
                                                    sino16):
    # another geometry's labels keep the operator's ray count; another
    # operator's counts, or one count too few, do not
    other = build_radon_operator(op16.grid, 12, 15)
    for data in (dataclasses.replace(sino16, n_angles=7, n_det=999),
                 dataclasses.replace(sino16, counts=sino16.counts[1:]),
                 simulate_data(other, brain_phantom(op16.grid),
                               np.random.default_rng(0))):
        with pytest.raises(ValueError, match="does not match the operator"):
            TGPosterior(op16, rep, basis60, data)
