"""The benchmark's tracer must find every poistomo name it wraps.

``bench/tracing.py`` patches poistomo functions and methods by name.  A
refactor that deletes or renames one of them would break the benchmark's
traced run; entering and leaving the tracer here makes it fail the unit
tests instead.
"""

import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import poistomo
from poistomo.samplers import Chain, RunMatrix, SamplerConfig

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _references(tracing):
    """Every reference the tracer may patch: each traced function in every
    namespace that holds it, and each traced method on its class."""
    refs = {}
    for module, attr in tracing.FUNCTIONS:
        for name in tracing.NAMESPACES:
            ns = importlib.import_module(name)
            if hasattr(ns, attr):
                refs[(name, attr)] = getattr(ns, attr)
    for module, cls, attr in tracing.METHODS:
        owner = getattr(importlib.import_module(f"poistomo.{module}"), cls)
        refs[(f"poistomo.{module}.{cls}", attr)] = owner.__dict__[attr]
    return refs


def test_tracer_patches_and_restores_every_traced_name(monkeypatch, post16):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    before = _references(tracing)
    for module, attr in tracing.FUNCTIONS:
        assert (f"poistomo.{module}", attr) in before, (module, attr)

    with tracing.Tracer() as tr:
        during = _references(tracing)
        for key, original in before.items():
            assert during[key] is not original, key
        post16.evaluate(np.zeros(post16.n_modes))
        post16.phi_grad_at(post16.evaluate(np.zeros(post16.n_modes)))
    assert tr.calls("posterior.evaluate") == 2
    assert tr.calls("posterior.phi_grad_at") == 1
    assert tr.calls("klbasis.synthesize") == 2
    assert tr.calls("klbasis.pullback") == 1

    after = _references(tracing)
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key


def test_tracer_counts_summary_synthesis(monkeypatch, basis60, rep):
    # the strip passes of the HPD bounds and the credible levels synthesize
    # through KLBasis.synthesize_values, which the per-layer counts read
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    samples = np.random.default_rng(11).standard_normal((6, basis60.n_modes))
    chain = Chain(RunMatrix(samples, np.arange(6)),
                  SamplerConfig("pcn", 6, beta=0.1, burn_in=0), 1.0)
    image = poistomo.posterior_mean(chain, basis60, rep)
    with tracing.Tracer() as tr:
        poistomo.pointwise_hpdi(chain, basis60, rep, 0.05)
        poistomo.credible_level_map(chain, basis60, rep, image)
    assert tr.calls("diagnostics.pointwise_hpdi") == 1
    assert tr.calls("artifacts.credible_level_map") == 1
    assert tr.calls("klbasis.synthesize") > 0
    # one credible_level call a strip, and the 16x16 image is one strip
    assert tr.calls("artifacts.credible_level") == 1


def test_traced_calibration_reports_its_chains(monkeypatch, post16):
    # the traced benchmark divides by the steps of the chains that pass
    # through run_chain; calibration must leave some there (the selection
    # chains), or the report divides by zero.  Every chain tunes beta in its
    # own burn-in, the selection's first chain included, so no pilot runs.
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    run = importlib.import_module("run")

    def make_posterior(w):
        return poistomo.TGPosterior(post16.op, post16.rep, post16.basis,
                                    post16.data, tv_weight=w)

    chains = {"steps": 0, "accepted": 0}
    tracer = tracing.Tracer()
    tracer.hooks["samplers.run_chain"] = run.chain_hook(chains)
    clock = run.StageClock(tracer)
    with tracer:
        clock("calibrate", poistomo.admissible_search, make_posterior,
              [0.0, 1.0], chain_steps=100, seed=2, max_eval_samples=20)
        clock("select", poistomo.select_lambda, make_posterior, (1.0, 2.0),
              n_iters=3, inner_steps=20, seed=2)
    values = run.span_values(tracer, chains, clock.medians())
    assert values["samplers.steps"] > 0
    assert values["posterior.evals_per_step"] > 0
    assert 0.0 <= values["samplers.acceptance"] <= 1.0
    assert tracer.calls("samplers.tune_stepsize") == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_workload_runs_on_the_tiny_geometry(monkeypatch, name):
    # each pipeline once through the poistomo names it calls, on the CLI
    # pass's tiny grid with the workload's own overrides on top, so that a
    # removed or renamed name fails here rather than in the benchmark run
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    run = importlib.import_module("run")
    workload = workloads.WORKLOADS[name]
    overrides = {s: dict(kv) for s, kv in workload.overrides.items()}
    overrides.setdefault("sampler", {})["seed"] = "1"
    cfg = poistomo.parse_config(BENCH / "tiny.ini", workload.preset,
                                overrides)
    inp = workloads.build_inputs(cfg)
    out = workload.pipeline(inp, lambda _, fn, *args, **kw: fn(*args, **kw))
    facts = run.result_facts(inp, out)
    assert all(math.isfinite(v) for v in facts.values()), facts
