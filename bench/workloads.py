"""The three benchmark workloads and the stages each one times.

Every workload builds its inputs (operator, KL basis, phantom, sinogram)
from the seed alone and then runs a fixed amount of work through the public
poistomo API.  Calls go through the ``poistomo`` package namespace at call
time, so the traced run sees them once the tracer has patched that namespace.
The notes in ``bench/notes/`` say why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import poistomo as pt

HPD_ALPHA = 0.05            # as `poistomo summarize`
ACF_SERIES, ACF_MAX_LAG = 8, 200   # as `poistomo diag`
BLOB_MAGNITUDE, BLOB_RADIUS = 0.25, 0.05


@dataclass(frozen=True)
class Inputs:
    cfg: pt.RunConfig
    op: pt.RadonOperator
    basis: pt.KLBasis
    truth: pt.ScalarField
    sino: pt.Sinogram


def make_phantom(cfg: pt.RunConfig, rng: np.random.Generator) -> pt.ScalarField:
    """The `poistomo phantom` image plus one small blob placed by the seed.

    The blob sits left of the ventricles, clear of the lesion and the bar, so
    every level stays inside the intensity band of the reparametrization.
    """
    lo, hi = cfg.reparam.bounds
    base = pt.brain_phantom(cfg.grid, low=lo + 0.05, high=hi - 0.05)
    center = (rng.uniform(0.22, 0.30), rng.uniform(0.35, 0.65))
    return pt.inject_artifact(base, "add_blob", BLOB_MAGNITUDE, center=center,
                              radius=BLOB_RADIUS)


def build_inputs(cfg: pt.RunConfig) -> Inputs:
    rng = np.random.default_rng(cfg.sampler.seed)
    op = pt.build_radon_operator(cfg.grid, cfg.n_angles, cfg.n_det, cfg.kappa)
    basis = pt.build_kl_basis(cfg.grid, cfg.cov, cfg.n_modes, cfg.prior_mean)
    truth = make_phantom(cfg, rng)
    sino = pt.simulate_data(op, truth, rng)
    return Inputs(cfg, op, basis, truth, sino)


def _summarize(inp: Inputs, chain: pt.Chain):
    mean = pt.posterior_mean(chain, inp.basis, inp.cfg.reparam)
    lo, hi = pt.pointwise_hpdi(chain, inp.basis, inp.cfg.reparam, HPD_ALPHA)
    return mean, lo, hi


def _diag(chain: pt.Chain):
    n_lag = min(ACF_MAX_LAG, chain.n_kept - 1)
    acfs = pt.acf_matrix(chain.samples[:, :ACF_SERIES], max_lag=n_lag)
    return pt.ess_matrix(chain.samples), acfs


def _chain_tail(inp: Inputs, chain: pt.Chain, stage) -> dict:
    """summarize -> detect (the mean screened against the chain) -> diag."""
    mean, lo, hi = stage("summarize", _summarize, inp, chain)
    levels = stage("detect", pt.credible_level_map, chain, inp.basis,
                   inp.cfg.reparam, mean, thin=inp.cfg.detect_thin)
    ess, _ = stage("diag", _diag, chain)
    return {"chain": chain, "mean": mean, "hpdi": (lo, hi),
            "levels": levels.levels, "ess": ess}


def _posterior(inp: Inputs, tv_weight: float) -> pt.TGPosterior:
    return pt.TGPosterior(inp.op, inp.cfg.reparam, inp.basis, inp.sino,
                          tv_weight=tv_weight)


def desk_pdpcn(inp: Inputs, stage) -> dict:
    cfg = inp.cfg
    post = _posterior(inp, cfg.tv_weight)
    result = stage("map", pt.solve_map, post, cfg.admm)
    anchor = pt.anchor_from_map(result, cfg.admm.rho_pen)
    chain = stage("sample", pt.run_chain, post, cfg.sampler,
                  init=result.coeffs, anchor=anchor)
    out = _chain_tail(inp, chain, stage)
    out["map"] = result
    return out


def paper_pcn(inp: Inputs, stage) -> dict:
    post = _posterior(inp, inp.cfg.tv_weight)
    chain = stage("sample", pt.run_chain, post, inp.cfg.sampler)
    return _chain_tail(inp, chain, stage)


# admissible_search finds no interval at the seed, so select_lambda gets a
# fixed one and is timed all the same.
SELECT_INTERVAL = (1.0, 2.0)


def desk_calibrate(inp: Inputs, stage) -> dict:
    cfg = inp.cfg
    cal = cfg.calibration

    def make_posterior(w: float) -> pt.TGPosterior:
        return _posterior(inp, w)

    result = stage("calibrate", pt.admissible_search, make_posterior,
                   cal.weight_grid, chain_steps=cal.chain_steps,
                   band=cal.band, seed=cfg.sampler.seed, beta=None,
                   max_eval_samples=cal.max_eval_samples,
                   denominator=cal.denominator)
    selection = stage("select", pt.select_lambda, make_posterior,
                      SELECT_INTERVAL, n_iters=cal.select_iters,
                      inner_steps=cal.select_inner_steps, beta=None,
                      seed=cfg.sampler.seed)
    return {"calibration": result, "selection": selection}


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    overrides: dict
    pipeline: Callable[[Inputs, Callable], dict]
    psnr_floor: float | None   # dB; None where no posterior mean is formed
    setup_reps: int            # set-up timings at each point of the run
    setup_between_stages: bool  # False where two inputs would not fit

    def config(self, seed: int) -> pt.RunConfig:
        overrides = {s: dict(kv) for s, kv in self.overrides.items()}
        overrides.setdefault("sampler", {})["seed"] = str(seed)
        return pt.parse_config(preset=self.preset, overrides=overrides)


WORKLOADS = {w.name: w for w in (
    # desk preset as shipped, except a shorter chain: 5,000 pdpcn steps at
    # the preset delta, anchored at the preset (unconverged) MAP solve.
    Workload("desk-pdpcn", "desk",
             {"sampler": {"n_samples": "5000", "burn_in": "500"}},
             desk_pdpcn, psnr_floor=10.0, setup_reps=7,
             setup_between_stages=True),
    # paper geometry.  From the cold start the preset beta (0.09) accepts no
    # step and 0.015 about 8%; 0.012 accepts 68-77% over seeds 1-3.
    Workload("paper-pcn", "paper",
             {"sampler": {"kind": "pcn", "n_samples": "200", "burn_in": "20",
                          "beta": "0.012"}},
             paper_pcn, psnr_floor=11.5, setup_reps=4,
             setup_between_stages=False),
    # desk weight grid, default denominator, tuned pcn stepsizes; chains of
    # 5,000 steps per weight instead of the preset 20,000 (the p-values of
    # seeds 1-3 agree to 1e-2 between 5,000 and 20,000 steps).
    Workload("desk-calibrate", "desk",
             {"calibration": {"chain_steps": "5000"}},
             desk_calibrate, psnr_floor=None, setup_reps=10,
             setup_between_stages=True),
)}
