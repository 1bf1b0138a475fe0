"""Shared small-scale fixtures.

Everything here is sized to make a full module-test run take seconds; the
acceptance tests build their own larger setups.
"""

import dataclasses

import numpy as np
import pytest

from poistomo import (AdmmConfig, CovarianceSpec, Grid, Reparam, TGPosterior,
                      brain_phantom, build_kl_basis, build_radon_operator,
                      simulate_data, solve_map)


@pytest.fixture(scope="session")
def grid16():
    return Grid(16, 16)


@pytest.fixture(scope="session")
def rep():
    return Reparam()


@pytest.fixture(scope="session")
def op16(grid16):
    return build_radon_operator(grid16, 12, 16, kappa=1.0)


@pytest.fixture(scope="session")
def basis60(grid16):
    return build_kl_basis(grid16, CovarianceSpec(), 60)


@pytest.fixture(scope="session")
def truth16(grid16):
    return brain_phantom(grid16)


@pytest.fixture(scope="session")
def sino16(op16, truth16):
    return simulate_data(op16, truth16, np.random.default_rng(42))


@pytest.fixture(scope="session")
def post16(op16, rep, basis60, sino16):
    return TGPosterior(op16, rep, basis60, sino16, tv_weight=1.0)


@pytest.fixture(scope="session")
def post16_smooth(op16, rep, basis60, sino16):
    return TGPosterior(op16, rep, basis60, sino16, tv_weight=0.0)


@pytest.fixture(scope="session")
def map16(post16):
    cfg = AdmmConfig(max_outer=300, tol=1e-5)
    return solve_map(post16, cfg), cfg


@pytest.fixture(scope="session")
def post16_strong(grid16, rep, basis60, truth16):
    # higher dose concentrates the posterior well away from the prior,
    # which the stepsize-tuning and efficiency comparisons rely on
    op = build_radon_operator(grid16, 12, 16, kappa=10.0)
    sino = simulate_data(op, truth16, np.random.default_rng(43))
    return TGPosterior(op, rep, basis60, sino, tv_weight=1.0)


@pytest.fixture(scope="session")
def map16_strong(post16_strong):
    cfg = AdmmConfig(max_outer=120, tol=1e-4)
    return solve_map(post16_strong, cfg), cfg


@pytest.fixture
def unthinned(monkeypatch):
    """Make every run_chain keep every post-burn-in state, so a test can show
    that keeping one state does not change what the selection chains
    compute.  Returns the thinning each call asked for."""
    from poistomo import calibrate, samplers
    thinned = samplers.run_chain
    asked = []

    def full(post, config, init=None, anchor=None):
        asked.append(config.thinning)
        return thinned(post, dataclasses.replace(config, thinning=1),
                       init, anchor)

    monkeypatch.setattr(samplers, "run_chain", full)
    monkeypatch.setattr(calibrate, "run_chain", full)
    return asked
