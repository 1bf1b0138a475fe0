"""Simulation-based calibration of the sampling pipeline.

SBC (Talts, Betancourt, Simpson, Vehtari & Gelman 2018) draws a truth from
the prior, simulates counts at it and samples the posterior of those counts.
When every stage is right (the intensity map, the ray transform, the Poisson
likelihood, the kernel, its tuned burn-in and the thinning) the truth is one
more posterior draw, so its rank among the chain's draws is uniform.

Each replicate ranks one statistic, the image mean of the intensity.  The
pixels of one replicate are dependent, so ranks pooled over pixels would not
be a valid test.  At tv_weight 0 the prior is the Gaussian reference, so the
truths' coefficients are standard normal.
"""

from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaincc

from poistomo import (CovarianceSpec, SamplerConfig, ScalarField, TGPosterior,
                      build_kl_basis, build_radon_operator, parse_config,
                      run_chain, simulate_data)

TINY = Path(__file__).resolve().parents[1] / "bench" / "tiny.ini"
REPLICATES = 160
N_BINS = 10


@pytest.fixture(scope="module")
def tiny_model():
    # the tiny geometry, with a prior whose spectrum decays (corr_len 0.1
    # in place of the preset's white 1e-3)
    cfg = parse_config(TINY)
    op = build_radon_operator(cfg.grid, cfg.n_angles, cfg.n_det, cfg.kappa)
    basis = build_kl_basis(cfg.grid, CovarianceSpec(cfg.cov.gamma, 0.1),
                           cfg.n_modes)
    return cfg, op, basis


def _ranks(tiny_model, kind):
    cfg, op, basis = tiny_model
    rep = cfg.reparam
    anchor = np.zeros((2,) + cfg.grid.shape) if kind == "pdpcn" else None

    def image_mean(c):
        return rep.apply(basis.synthesize_values(c)).mean(axis=-1)

    ranks = []
    for r in range(REPLICATES):
        rng = np.random.default_rng([2019, r])
        c0 = rng.standard_normal(basis.n_modes)
        truth = ScalarField(cfg.grid, rep.apply(basis.synthesize_values(c0)))
        post = TGPosterior(op, rep, basis, simulate_data(op, truth, rng))
        # tuned in a burn-in of a tenth, then every 47th of 900 steps
        config = SamplerConfig(kind, 1000, beta=None, delta=None,
                               thinning=47, seed=r)
        chain = run_chain(post, config, anchor=anchor)
        assert chain.n_kept == 19
        draws = image_mean(np.asarray(chain.samples))
        ranks.append(int(np.sum(draws < image_mean(c0))))
    return np.array(ranks)


@pytest.mark.parametrize("kind", ["pcn", "pdpcn"])
def test_truth_ranks_uniformly_among_posterior_draws(tiny_model, kind):
    # pcn, and pdpcn anchored at a zero multiplier (pCN-Langevin); a
    # likelihood that drops sum(theta) puts the truth below every draw
    ranks = _ranks(tiny_model, kind)
    counts = np.bincount(ranks // 2, minlength=N_BINS)   # ranks 0..19
    expected = REPLICATES / N_BINS
    stat = float(np.sum((counts - expected) ** 2) / expected)
    p = float(gammaincc(0.5 * (N_BINS - 1), 0.5 * stat))
    assert p > 0.01, (counts, p)
