"""Calibration tests.

The chi-squared tail is checked against closed forms, the admissible
interval against hand-made p-value grids, the batched predictive p-value
against a per-row loop, the default statistic against its reference law
at the true image, and the weight sweep for chains that move.
"""

import math

import numpy as np
import pytest
from scipy.special import erfc

from poistomo import (TGPosterior, brain_phantom, build_radon_operator,
                      parse_config)
from poistomo.calibrate import (admissible_interval, admissible_search,
                                chi2_discrepancy, chi2_sf,
                                posterior_predictive_p, write_calibration_csv)
from poistomo.samplers import Chain, SamplerConfig

# ---------------------------------------------------------------------------
# chi-squared tail


def test_chi2_sf_matches_closed_forms():
    x = np.array([0.0, 0.3, 1.0, 4.5, 20.0, 80.0])
    two = chi2_sf(x, 2)
    one = chi2_sf(x, 1)
    np.testing.assert_allclose(two, np.exp(-x / 2), rtol=1e-13)
    np.testing.assert_allclose(one, erfc(np.sqrt(x / 2)), rtol=1e-13)
    # an array gives the scalar values elementwise
    for xi, t, o in zip(x, two, one):
        assert chi2_sf(xi, 2) == t
        assert chi2_sf(xi, 1) == o


def test_chi2_sf_rejects_bad_arguments():
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        chi2_sf([1.0, -0.5], 3)


# ---------------------------------------------------------------------------
# admissible interval (band 0.1 .. 0.7)


def test_admissible_interval_interpolates_both_crossings():
    lo, hi = admissible_interval([0.0, 1.0, 2.0, 3.0], [0.9, 0.5, 0.2, 0.05])
    assert lo == pytest.approx(0.5, rel=1e-14)          # p = 0.7 at w = 0.5
    assert hi == pytest.approx(2.0 + 2.0 / 3.0, rel=1e-14)


def test_admissible_interval_inside_one_grid_step():
    # p jumps across the whole band between two grid points: the linear
    # interpolant still passes through it, inside that step
    lo, hi = admissible_interval([0.0, 1.0], [0.9, 0.05])
    assert lo == pytest.approx(0.2 / 0.85, rel=1e-14)
    assert hi == pytest.approx(0.8 / 0.85, rel=1e-14)


def test_admissible_interval_none_when_band_never_entered():
    assert admissible_interval([0.0, 1.0, 2.0], [0.99, 0.9, 0.8]) is None


def test_admissible_interval_none_when_p_starts_below_band():
    assert admissible_interval([0.0, 1.0, 2.0], [0.05, 0.03, 0.01]) is None


def test_admissible_interval_starts_at_first_weight_inside_band():
    lo, hi = admissible_interval([1.0, 2.0, 3.0], [0.5, 0.3, 0.2])
    assert lo == 1.0
    assert hi == 3.0          # never leaves the band on the grid


# ---------------------------------------------------------------------------
# posterior-predictive p-value


@pytest.mark.parametrize("denominator", ["theta", "theta_sq"])
def test_predictive_p_matches_row_loop(post16, denominator):
    rng = np.random.default_rng(4)
    samples = 0.3 * rng.standard_normal((37, post16.n_modes))
    chain = Chain(samples, SamplerConfig("pcn", 37, burn_in=0), 1.0)
    # a block size that leaves a partial last block
    res = posterior_predictive_p(chain, post16, denominator=denominator,
                                 block=16)
    counts = post16.data.counts
    pvals = []
    for row in samples:
        z = post16.basis.synthesize_values(row)
        theta = post16.op.apply(post16.rep.apply(z))
        d = chi2_discrepancy(counts, theta, denominator)
        pvals.append(chi2_sf(d, post16.op.n_rays))
    assert res.n_used == 37
    assert res.p == pytest.approx(np.mean(pvals), rel=1e-12, abs=1e-300)
    assert res.stderr == pytest.approx(
        np.std(pvals, ddof=1) / math.sqrt(37), rel=1e-9, abs=1e-300)


def test_predictive_p_does_not_depend_on_the_block(post16):
    rng = np.random.default_rng(5)
    samples = 0.3 * rng.standard_normal((150, post16.n_modes))
    chain = Chain(samples, SamplerConfig("pcn", 150, burn_in=0), 1.0)
    default = posterior_predictive_p(chain, post16)
    small = posterior_predictive_p(chain, post16, block=16)
    assert (default.p, default.stderr) == (small.p, small.stderr)


def test_default_statistic_is_calibrated_at_the_truth():
    # counts drawn at the true expected counts on the desk geometry: the
    # default (Pearson) p-value is roughly uniform, while the theta^2
    # denominator rejects the truth almost every time
    cfg = parse_config()
    op = build_radon_operator(cfg.grid, cfg.n_angles, cfg.n_det, cfg.kappa)
    lo, hi = cfg.reparam.bounds
    theta = op.apply(brain_phantom(cfg.grid, low=lo + 0.05,
                                   high=hi - 0.05).values)
    rng = np.random.default_rng(1)
    draws = [rng.poisson(theta) for _ in range(200)]

    def pvalues(**kwargs):
        return np.array([chi2_sf(chi2_discrepancy(y, theta, **kwargs),
                                 op.n_rays) for y in draws])

    p = pvalues()
    assert cfg.calibration.denominator == "theta"
    assert 0.4 <= p.mean() <= 0.6
    assert np.quantile(p, 0.1) <= 0.15
    assert np.quantile(p, 0.9) >= 0.85
    assert 0.35 <= np.mean(p <= 0.5) <= 0.65
    p_sq = pvalues(denominator="theta_sq")
    assert np.median(p_sq) <= 1e-6
    assert p_sq.mean() <= 0.01


# ---------------------------------------------------------------------------
# weight sweep


def test_every_calibration_chain_accepts(post16_strong, tmp_path):
    # a stepsize tuned at weight 0 and chains started at the prior mean (TV
    # zero, a sticky start once the weight is large) left the chains at
    # weights 10 and 20 without a single accepted step
    base = post16_strong

    def make_posterior(w):
        return TGPosterior(base.op, base.rep, base.basis, base.data,
                           tv_weight=w)

    weights = [0.0, 5.0, 10.0, 20.0]
    result = admissible_search(make_posterior, weights, chain_steps=500,
                               seed=5, max_eval_samples=50)
    assert [r.tv_weight for r in result.rows] == weights
    for row in result.rows:
        assert 0.0 < row.acceptance <= 1.0, row
    path = tmp_path / "calibration.csv"
    write_calibration_csv(result, path)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "tv_weight,p_b,stderr,chain_steps,acceptance"
    assert [float(x.split(",")[-1]) for x in lines[1:]] == \
        [r.acceptance for r in result.rows]
