"""Markov kernel tests.

Statistical contracts are checked against closed forms (conjugate Gaussian
targets, AR(1) structure of the no-potential chain) and against a dense
quadrature of a two-coefficient posterior; algebraic reductions are checked
on matched random streams.
"""

import errno
import json
import math
import re
import struct
import tracemalloc
import zlib
from dataclasses import asdict

import numpy as np
import pytest

from poistomo import Grid, TGPosterior, samplers
from poistomo.posterior import PosteriorEval
from poistomo.samplers import (Chain, ChainDivergence, RunMatrix,
                               SamplerConfig, _accept, _rho, anchor_from_map,
                               chain_states, kept_steps, load_chain, run_chain,
                               stream_chain, tune_stepsize, walk_chain)
from poistomo.fields import div_arrays, tv_arrays
from poistomo.admm import AdmmConfig, offset_direction, solve_map

from test_admm import _Toy

# ---------------------------------------------------------------------------
# duck-typed targets: the kernels only touch evaluate / phi_grad_at /
# n_modes (the acceptance functional reads psi from the evaluation), and
# the pdpcn offset reads grid and basis.pullback, so small closed-form
# stand-ins let the statistical checks run against known answers.  Their
# pullback is zero: at a zero multiplier, pdpcn's drift is phi_grad_at
# alone, the pCN-Langevin kernel


class _ZeroPullback:
    def __init__(self, n_modes):
        self.n_modes = n_modes

    def pullback(self, values):
        return np.zeros(self.n_modes)


class _StubTarget:
    grid = Grid(2, 2)

    def __init__(self, n_modes):
        self.n_modes = n_modes
        self.basis = _ZeroPullback(n_modes)

    def potential(self, c):
        raise NotImplementedError

    def gradient(self, c):
        raise NotImplementedError

    def evaluate(self, c):
        c = np.asarray(c, dtype=float)
        p = self.potential(c)
        return PosteriorEval(p, p, 0.0, c, grad=np.zeros((2,) + c.shape),
                             theta=None)

    def phi_grad_at(self, ev):
        return self.gradient(ev.z)


class _FlatTarget(_StubTarget):
    """Zero potential: the chain must preserve the reference measure."""

    def potential(self, c):
        return 0.0

    def gradient(self, c):
        return np.zeros(self.n_modes)


class _GaussTarget(_StubTarget):
    """Potential tau/2 ||c - mu||^2, conjugate to the unit reference."""

    def __init__(self, n_modes, tau, mu):
        super().__init__(n_modes)
        self.tau = tau
        self.mu = mu

    def potential(self, c):
        return 0.5 * self.tau * float(np.sum((c - self.mu) ** 2))

    def gradient(self, c):
        return self.tau * (c - self.mu)

    @property
    def post_mean(self):
        return self.tau * self.mu / (1.0 + self.tau)

    @property
    def post_var(self):
        return 1.0 / (1.0 + self.tau)


class _DriftlessGauss(_GaussTarget):
    """Same potential but a zero drift report, for reduction identities."""

    def gradient(self, c):
        return np.zeros(self.n_modes)


def _pcn_log_ratio(t, z, v):
    """Zero-drift Metropolis log ratio of v against z: psi(z) - psi(v)."""
    zero = np.zeros(z.size)
    return (_rho(t.evaluate(z), z, v, zero, 0.3)
            - _rho(t.evaluate(v), v, z, zero, 0.3))


def _zero(post):
    """The zero multiplier on the grid of post: anchored there, pdpcn runs
    the pCN-Langevin kernel."""
    return np.zeros((2,) + post.grid.shape)


def _batch_stderr(x, n_batches=100):
    """Batch-means standard error of the mean of a correlated series."""
    n = x.size - x.size % n_batches
    means = x[:n].reshape(n_batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))


# ---------------------------------------------------------------------------
# proposal


def test_propose_endpoints():
    # at beta = 1 the state is forgotten: on a flat target every sample is
    # the stream's reference draw (each step's uniform follows its noise)
    t = _FlatTarget(6)
    init = np.random.default_rng(0).standard_normal(6)
    chain = run_chain(t, SamplerConfig("pcn", 5, beta=1.0, burn_in=0, seed=2),
                      init=init)
    rng = np.random.default_rng(2)
    for k in range(5):
        np.testing.assert_array_equal(chain.samples[k],
                                      rng.standard_normal(6))
        rng.random()
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            SamplerConfig("pcn", 5, beta=bad)


def test_propose_preserves_reference_moments():
    # v = sqrt(1-b^2) z + b w has unit variance whenever z does
    rng = np.random.default_rng(3)
    n = 500_000
    z = rng.standard_normal(n)
    chain = run_chain(_FlatTarget(n), SamplerConfig("pcn", 1, beta=0.37,
                                                    burn_in=0, seed=4),
                      init=z)
    v = chain.samples[0]
    assert abs(v.mean()) <= 5.0 / math.sqrt(n)
    assert abs(v.var() - 1.0) <= 5.0 * math.sqrt(2.0 / n)


# ---------------------------------------------------------------------------
# acceptance rule


def test_accept_certain_when_potential_drops():
    t = _GaussTarget(1, 4.0, 0.0)
    rng = np.random.default_rng(4)
    z, v = np.array([2.0]), np.array([0.1])  # potential drops sharply
    log_ratio = _pcn_log_ratio(t, z, v)
    assert log_ratio == t.potential(z) - t.potential(v)
    assert all(_accept(log_ratio, rng) for _ in range(200))


def test_accept_rate_matches_log_two_gap():
    # potential difference ln 2 between states gives acceptance 1/2
    class _LnTwo(_StubTarget):
        def potential(self, c):
            return math.log(2.0) * float(c[0])

    t = _LnTwo(1)
    rng = np.random.default_rng(5)
    n = 100_000
    log_ratio = _pcn_log_ratio(t, np.array([0.0]), np.array([1.0]))
    assert log_ratio == -math.log(2.0)
    hits = sum(_accept(log_ratio, rng) for _ in range(n))
    assert abs(hits / n - 0.5) <= 5.0 * math.sqrt(0.25 / n)


def test_accept_certain_for_flat_potential():
    t = _FlatTarget(3)
    rng = np.random.default_rng(6)
    z = rng.standard_normal(3)
    assert all(_accept(_pcn_log_ratio(t, z, rng.standard_normal(3)), rng)
               for _ in range(200))


# ---------------------------------------------------------------------------
# flat-potential chain preserves the reference measure


def test_flat_chain_has_unit_coordinate_moments():
    t = _FlatTarget(4)
    cfg = SamplerConfig("pcn", 100_000, beta=0.8, burn_in=1000, seed=7)
    chain = run_chain(t, cfg)
    assert chain.acceptance_rate == 1.0
    # AR(1) with coefficient sqrt(1-beta^2): integrated time (1+s)/(1-s)
    s = math.sqrt(1.0 - 0.8 ** 2)
    n_eff = chain.n_kept * (1.0 - s) / (1.0 + s)
    for k in range(4):
        x = chain.samples[:, k]
        assert abs(x.mean()) <= 5.0 / math.sqrt(n_eff)
        assert abs(x.var() - 1.0) <= 5.0 * math.sqrt(2.0 / n_eff)


# ---------------------------------------------------------------------------
# gradient kernel on conjugate targets


def test_gradient_kernel_matches_conjugate_posterior():
    # unit reference times exp(-tau/2 (c-mu)^2) is again Gaussian
    t = _GaussTarget(1, tau=3.0, mu=1.2)
    cfg = SamplerConfig("pdpcn", 100_000, delta=0.8, burn_in=5000, seed=8)
    chain = run_chain(t, cfg, anchor=_zero(t))
    x = chain.samples[:, 0]
    se_mean = _batch_stderr(x)
    assert abs(x.mean() - t.post_mean) <= 3.0 * se_mean
    se_var = _batch_stderr((x - x.mean()) ** 2)
    assert abs(x.var() - t.post_var) <= 3.0 * se_var


def test_self_proposal_accepted_with_certainty(post16_smooth):
    # the acceptance exponent at v = z cancels exactly
    rng = np.random.default_rng(10)
    z = 0.3 * rng.standard_normal(post16_smooth.n_modes)
    ev = post16_smooth.evaluate(z)
    g = post16_smooth.phi_grad_at(ev)
    forward = _rho(ev, z, z, g, 0.4)
    backward = _rho(ev, z, z, g, 0.4)
    assert forward - backward == 0.0


def test_zero_drift_gradient_kernel_is_plain_pcn():
    # with no drift the proposal contracts by (2-d)/(2+d), which equals
    # sqrt(1-beta^2) at beta = sqrt(8 delta)/(2 + delta)
    delta = 0.6
    beta = math.sqrt(8.0 * delta) / (2.0 + delta)
    plain = _GaussTarget(3, tau=2.0, mu=0.5)
    driftless = _DriftlessGauss(3, tau=2.0, mu=0.5)
    a = run_chain(plain, SamplerConfig("pcn", 400, beta=beta,
                                       burn_in=0, seed=11))
    b = run_chain(driftless, SamplerConfig("pdpcn", 400, delta=delta,
                                           burn_in=0, seed=11),
                  anchor=_zero(driftless))
    np.testing.assert_array_equal(a.accepted, b.accepted)
    np.testing.assert_allclose(a.samples, b.samples, atol=1e-12)
    np.testing.assert_allclose(a.psi_trace, b.psi_trace, atol=1e-12)


# ---------------------------------------------------------------------------
# anchored kernel


def test_pdpcn_with_zero_multiplier_is_pcnl(post16_smooth):
    # without TV the shrinkage returns grad z + eta / rho exactly, so the
    # split is exact and the MAP multiplier never leaves zero.  The pdpcn
    # chain anchored at it is the one anchored at zeros, whose drift is
    # phi_grad_at alone: the pCN-Langevin (pcnl) kernel, step for step.  At
    # this delta the chain accepts most steps, so the drift decides each one
    res = solve_map(post16_smooth, AdmmConfig(max_outer=20))
    assert not np.any(res.multiplier)
    cfg = SamplerConfig("pdpcn", 300, delta=0.5, burn_in=0, seed=12)
    a = run_chain(post16_smooth, cfg, init=res.coeffs,
                  anchor=_zero(post16_smooth))
    b = run_chain(post16_smooth, cfg, init=res.coeffs, anchor=res.multiplier)
    assert a.accepted.any()
    np.testing.assert_array_equal(a.accepted, b.accepted)
    np.testing.assert_array_equal(np.asarray(a.samples), np.asarray(b.samples))
    np.testing.assert_array_equal(a.psi_trace, b.psi_trace)


def test_default_kernel_moves_from_the_map(post16, map16):
    # the penalty-free drift lets pdpcn move at the default delta; with the
    # ADMM penalty in the drift this chain accepted 2% of its steps
    res, _ = map16
    chain = run_chain(post16, SamplerConfig("pdpcn", 1000, delta=0.1,
                                            burn_in=200, seed=5),
                      init=res.coeffs, anchor=res.multiplier)
    assert chain.acceptance_rate >= 0.3


def test_anchor_from_map_is_the_multiplier(map16):
    # its second argument is ignored: the drift carries no penalty term
    res, cfg = map16
    assert anchor_from_map(res, cfg.rho_pen) is res.multiplier


def test_drift_takes_one_offset_per_chain(post16, map16, monkeypatch):
    # the offset is a constant of the chain: one offset_direction call and
    # one divergence of the multiplier, however many steps the chain takes
    res, _ = map16
    offsets, divs = [], []

    def counted(calls, fn):
        def wrapped(*args):
            calls.append(1)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(samplers, "offset_direction",
                        counted(offsets, samplers.offset_direction))
    monkeypatch.setattr("poistomo.admm.div_arrays",
                        counted(divs, div_arrays))
    run_chain(post16, SamplerConfig("pdpcn", 50, delta=0.1, burn_in=0,
                                    seed=5),
              init=res.coeffs, anchor=res.multiplier)
    assert (len(offsets), len(divs)) == (1, 1)


def test_acceptance_exponent_antisymmetry(post16, map16):
    res, _ = map16
    o = offset_direction(post16, res.multiplier)
    rng = np.random.default_rng(13)
    delta = 0.2
    for _ in range(6):
        z = 0.5 * rng.standard_normal(post16.n_modes)
        v = 0.5 * rng.standard_normal(post16.n_modes)
        ev_z, ev_v = post16.evaluate(z), post16.evaluate(v)
        g_z = post16.phi_grad_at(ev_z) + o
        g_v = post16.phi_grad_at(ev_v) + o
        fwd = _rho(ev_z, z, v, g_z, delta) - _rho(ev_v, v, z, g_v, delta)
        rev = _rho(ev_v, v, z, g_v, delta) - _rho(ev_z, z, v, g_z, delta)
        assert fwd == -rev


def test_anchored_chain_matches_dense_quadrature():
    # two-coefficient target: chain moments against a Riemann sum of
    # exp(-psi(c) - |c|^2/2) evaluated with the toy's independent math.
    # The drift is the likelihood gradient plus the multiplier's offset
    toy = _Toy(tv_weight=0.8)
    res = solve_map(toy.post, AdmmConfig(rho_pen=1.0, max_outer=400, tol=1e-6,
                                         inner_iters=300, inner_tol=1e-7))
    anchor = res.multiplier
    delta, _ = tune_stepsize(toy.post, "pdpcn", seed=14, init=res.coeffs,
                             anchor=anchor)
    cfg = SamplerConfig("pdpcn", 60_000, delta=delta, burn_in=5000, seed=15)
    chain = run_chain(toy.post, cfg, init=res.coeffs, anchor=anchor)

    step = 0.01
    axis = np.arange(-6.0, 6.0 + 0.5 * step, step)
    c1, c2 = np.meshgrid(axis, axis, indexing="ij")
    rows = np.stack([c1.ravel(), c2.ravel()], axis=-1)
    logw = -toy.objective(rows) - 0.5 * np.sum(rows ** 2, axis=1)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    mean = w @ rows
    var = w @ (rows - mean) ** 2

    for k in range(2):
        x = chain.samples[:, k]
        se = _batch_stderr(x)
        assert abs(x.mean() - mean[k]) <= 3.0 * se
        se_v = _batch_stderr((x - x.mean()) ** 2)
        assert abs(x.var() - var[k]) <= 3.0 * se_v


# ---------------------------------------------------------------------------
# chain driver


def test_kept_sample_count_and_traces():
    t = _FlatTarget(2)
    cfg = SamplerConfig("pcn", 103, beta=0.5, burn_in=13, thinning=5, seed=16)
    chain = run_chain(t, cfg)
    assert cfg.n_kept == (103 - 13) // 5
    assert chain.samples.shape == (cfg.n_kept, 2)
    assert chain.accepted.shape == (103,)
    assert chain.psi_trace.shape == (103,)
    assert chain.reg_trace.shape == (103,)
    assert chain.config == cfg


def test_run_chain_collects_the_yielded_states(post16):
    cfg = SamplerConfig("pcn", 90, beta=0.4, burn_in=11, thinning=4, seed=31)
    states = list(chain_states(post16, cfg))
    chain = run_chain(post16, cfg)
    assert len(states) == cfg.n_samples
    keep = kept_steps(cfg)
    assert keep.size == cfg.n_kept and keep[0] == 11 + 4 - 1
    np.testing.assert_array_equal(chain.samples,
                                  np.array([states[k][0] for k in keep]))
    np.testing.assert_array_equal(chain.accepted, [s[2] for s in states])
    np.testing.assert_array_equal(chain.psi_trace, [s[1].psi for s in states])
    np.testing.assert_array_equal(chain.reg_trace, [s[1].reg for s in states])
    # a given stepsize is the one every step takes
    assert {s[3] for s in states} == {cfg.beta}
    # each yielded evaluation is the evaluation of the yielded state
    z, ev, _, _ = states[-1]
    np.testing.assert_array_equal(ev.z, post16.basis.synthesize_values(z))


def test_walk_hands_on_each_run_once(post16):
    # over a subsample of the steps, each state that starts a new run among
    # them is handed on once, in order, with its own evaluation; the run
    # index maps every chosen step to it
    cfg = SamplerConfig("pcn", 120, beta=0.3, burn_in=0, seed=35)
    states = list(chain_states(post16, cfg))
    steps = np.array([0, 1, 2, 7, 8, 40, 41, 42, 100, 119])
    seen = []
    run, traces, config, last = walk_chain(
        post16, cfg, steps, lambda i, z, ev: seen.append((i, z, ev)))
    chosen = [states[k][0] for k in steps]
    assert [i for i, _, _ in seen] == list(range(len(seen)))
    assert 1 < len(seen) < steps.size
    for k, j in zip(steps, run):
        np.testing.assert_array_equal(seen[j][1], states[k][0])
        assert seen[j][2].psi == states[k][1].psi
    np.testing.assert_array_equal(run, np.cumsum(
        [True] + [a is not b for a, b in zip(chosen[:-1], chosen[1:])]) - 1)
    np.testing.assert_array_equal(traces[0], [s[2] for s in states])
    np.testing.assert_array_equal(traces[1], [s[1].psi for s in states])
    np.testing.assert_array_equal(traces[2], [s[1].reg for s in states])
    assert config == cfg
    np.testing.assert_array_equal(last, states[-1][0])


def _refuse_run_chain(*args, **kwargs):
    raise AssertionError("the tuner should not call run_chain")


def test_tuning_runs_one_pilot(post16_strong, map16_strong, monkeypatch):
    # one evaluation of the start and one per pilot step, and no run_chain:
    # the pilot is driven through chain_states, and its last state is the
    # state of the pilot chain run at the stepsizes the tuner sent
    from poistomo import samplers
    res, _ = map16_strong
    calls = []
    evaluate = TGPosterior.evaluate

    def counted(self, c):
        calls.append(1)
        return evaluate(self, c)

    monkeypatch.setattr(TGPosterior, "evaluate", counted)
    monkeypatch.setattr(samplers, "run_chain", _refuse_run_chain)
    beta, last = tune_stepsize(post16_strong, "pcn", n_pilot=400, seed=25,
                               init=res.coeffs)
    assert len(calls) == 400 + 1
    assert 0.0 < beta <= 1.0
    assert last.shape == (post16_strong.n_modes,)


@pytest.mark.parametrize("kind", ["pcn", "pdpcn"])
def test_tuned_burn_in_is_the_tuning_pilot(post16_strong, map16_strong,
                                           monkeypatch, kind):
    # with no stepsize, a chain's burn-in walks tune_stepsize's pilot at the
    # same seed, then every later step takes the stepsize the tuner returns;
    # the start is evaluated once, so n steps make n + 1 evaluations
    res, _ = map16_strong
    anchor = res.multiplier if kind == "pdpcn" else None
    burn, seed = 300, 33
    seen = []
    evaluate = TGPosterior.evaluate

    def recorded(self, c):
        seen.append(np.array(c))
        return evaluate(self, c)

    monkeypatch.setattr(TGPosterior, "evaluate", recorded)
    step, last = tune_stepsize(post16_strong, kind, n_pilot=burn, seed=seed,
                               init=res.coeffs, anchor=anchor)
    pilot = list(seen)
    cfg = SamplerConfig(kind, burn + 100, beta=None, delta=None,
                        burn_in=burn, seed=seed)
    seen.clear()
    states = list(chain_states(post16_strong, cfg, res.coeffs, anchor))
    assert len(pilot) == burn + 1
    assert len(seen) == cfg.n_samples + 1
    for a, b in zip(pilot, seen):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(states[burn - 1][0], last)
    steps = [s[3] for s in states]
    assert len(set(steps[:burn])) > 1
    assert set(steps[burn - 1:]) == {step}
    seen.clear()
    chain = run_chain(post16_strong, cfg, init=res.coeffs, anchor=anchor)
    assert len(seen) == cfg.n_samples + 1
    assert chain.config.stepsize == step
    np.testing.assert_array_equal(chain.psi_trace, [s[1].psi for s in states])


def test_reg_trace_is_the_tv_of_each_state(post16):
    # with every step kept, step k's regularizer is the weighted TV of the
    # k-th sample's latent field
    chain = run_chain(post16, SamplerConfig("pcn", 60, beta=0.3, burn_in=0,
                                            seed=29))
    g = post16.grid
    for k, row in enumerate(chain.samples):
        z = post16.basis.synthesize_values(row).reshape(g.shape)
        assert chain.reg_trace[k] == pytest.approx(
            post16.tv_weight * tv_arrays(z, g.hx, g.hy), rel=0, abs=1e-12)


def test_run_chain_stores_each_run_once(post16_strong, map16_strong):
    # beta 1 from the MAP point accepts almost nothing: every rejected step
    # adds a run index, not a row, so the chain holds a fraction of the
    # dense (4000, 60) samples while it runs and after
    res, _ = map16_strong
    cfg = SamplerConfig("pcn", 4000, beta=1.0, burn_in=0, seed=32)
    dense = cfg.n_kept * post16_strong.n_modes * 8
    tracemalloc.start()
    try:
        chain = run_chain(post16_strong, cfg, init=res.coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense / 4
    assert chain.samples.n_runs == 1 + int(chain.accepted[1:].sum())
    assert chain.samples.n_runs < cfg.n_kept / 100


def test_default_burn_in_is_a_tenth():
    cfg = SamplerConfig("pcn", 1000, beta=0.5, seed=0)
    assert cfg.burn_in == 100
    assert cfg.n_kept == 900


def test_chain_is_deterministic_per_seed(post16):
    cfg = SamplerConfig("pcn", 200, beta=0.6, burn_in=0, seed=17)
    a = run_chain(post16, cfg)
    b = run_chain(post16, cfg)
    np.testing.assert_array_equal(a.samples, b.samples)
    other = run_chain(post16, SamplerConfig("pcn", 200, beta=0.6,
                                            burn_in=0, seed=18))
    assert np.any(np.asarray(other.samples) != np.asarray(a.samples))


def test_divergent_potential_aborts():
    class _NaN(_StubTarget):
        def potential(self, c):
            return math.nan

        def gradient(self, c):
            return np.zeros(self.n_modes)

    with pytest.raises(ChainDivergence):
        run_chain(_NaN(2), SamplerConfig("pcn", 10, beta=0.5,
                                         burn_in=0, seed=19))


def test_anchored_chain_requires_anchor():
    # the pdpcn kernel never solves for its own anchor: without one the
    # chain and the tuner refuse; with the caller's MAP solve it runs
    toy = _Toy(tv_weight=0.8)
    cfg = SamplerConfig("pdpcn", 50, delta=0.005, burn_in=0, seed=20)
    with pytest.raises(ValueError):
        run_chain(toy.post, cfg)
    with pytest.raises(ValueError):
        tune_stepsize(toy.post, "pdpcn")
    admm = AdmmConfig()
    res = solve_map(toy.post, admm)
    chain = run_chain(toy.post, cfg, init=res.coeffs,
                      anchor=res.multiplier)
    assert chain.samples.shape == (50, 2)
    assert np.all(np.isfinite(np.asarray(chain.samples)))


# pcnl names the pCN-Langevin kernel: pdpcn anchored at a zero multiplier,
# on the smooth target
_KERNELS = pytest.mark.parametrize("kind, anchor", [
    ("pcn", None), ("pdpcn", "zero"), ("pdpcn", "map")],
    ids=["pcn", "pcnl", "pdpcn"])


def _kernel_case(anchor, post16, post16_smooth, res):
    """The target and the anchor of a _KERNELS case."""
    if anchor == "zero":
        return post16_smooth, _zero(post16_smooth)
    return post16, res.multiplier if anchor == "map" else None


@_KERNELS
def test_chain_evaluates_each_state_once(post16, post16_smooth, map16,
                                         monkeypatch, kind, anchor):
    # one posterior evaluation per proposal plus one for the initial state;
    # the drift at a proposal reuses the proposal's evaluation
    res, _ = map16
    post, anchor = _kernel_case(anchor, post16, post16_smooth, res)
    calls = []
    evaluate = TGPosterior.evaluate

    def counted(self, c):
        calls.append(1)
        return evaluate(self, c)

    monkeypatch.setattr(TGPosterior, "evaluate", counted)
    cfg = SamplerConfig(kind, 40, beta=0.05, delta=0.01, burn_in=0, seed=26)
    run_chain(post, cfg, init=res.coeffs, anchor=anchor)
    assert len(calls) == 40 + 1


@pytest.mark.parametrize("kwargs", [
    {"kind": "metropolis"},
    {"n_samples": 0},
    {"beta": 0.0},
    {"beta": 1.0001},
    {"delta": 0.0},
    {"delta": 2.1},
    {"thinning": 0},
    {"burn_in": 100},
    {"burn_in": -1},
    {"beta": math.nan},
    {"thinning": 91},           # 90 post-burn-in steps keep no state
    {"beta": None, "burn_in": 0},   # nothing to tune it in
    {"delta": -0.1},
])
def test_config_validation(kwargs):
    base = {"kind": "pcn", "n_samples": 100, "beta": 0.5, "delta": 0.5}
    base.update(kwargs)
    with pytest.raises(ValueError):
        SamplerConfig(**base)


def test_config_stepsize_follows_kind():
    assert SamplerConfig("pcn", 10, beta=0.25, delta=0.5).stepsize == 0.25
    assert SamplerConfig("pdpcn", 10, beta=0.25, delta=0.5).stepsize == 0.5


def test_stepsizes_default_to_tuned_in_the_burn_in():
    # as in the config: a stepsize not given is tuned in the burn-in, so a
    # run without a burn-in must be given one
    cfg = SamplerConfig("pcn", 100)
    assert (cfg.beta, cfg.delta, cfg.burn_in) == (None, None, 10)
    for kwargs in ({"burn_in": 0}, {}):     # a tenth of 5 steps is 0
        with pytest.raises(ValueError, match="beta none is tuned in the "
                                             "burn-in, which is 0 of 5"):
            SamplerConfig("pcn", 5, **kwargs)


def test_retired_pcnl_kind_is_refused():
    # pCN-Langevin is pdpcn at a zero multiplier; the kind names just two
    assert samplers.KINDS == ("pcn", "pdpcn")
    with pytest.raises(ValueError, match=r"\('pcn', 'pdpcn'\), got 'pcnl'"):
        SamplerConfig("pcnl", 10)


# ---------------------------------------------------------------------------
# stepsize tuning


def test_tuned_plain_stepsize_hits_target(post16_strong, map16_strong):
    res, _ = map16_strong
    beta, _ = tune_stepsize(post16_strong, "pcn", seed=21,
                            init=res.coeffs)
    cfg = SamplerConfig("pcn", 4000, beta=beta, burn_in=0, seed=22)
    chain = run_chain(post16_strong, cfg, init=res.coeffs)
    rate = float(np.mean(chain.accepted[1000:]))
    assert abs(rate - 0.25) <= 0.06


def test_tuned_anchored_stepsize_hits_target(post16_strong, map16_strong):
    res, _ = map16_strong
    anchor = res.multiplier
    delta, _ = tune_stepsize(post16_strong, "pdpcn", seed=23,
                             init=res.coeffs, anchor=anchor)
    cfg = SamplerConfig("pdpcn", 4000, delta=delta, burn_in=0, seed=24)
    chain = run_chain(post16_strong, cfg, init=res.coeffs, anchor=anchor)
    rate = float(np.mean(chain.accepted[1000:]))
    assert abs(rate - 0.25) <= 0.06


def test_tuned_chain_reports_the_kept_window_rate(post16_strong,
                                                  map16_strong, tmp_path):
    # the burn-in adapts the stepsize, so the reported rate is that of the
    # steps after it, all at the frozen stepsize: in memory and on file
    res, _ = map16_strong
    cfg = SamplerConfig("pcn", 1200, beta=None, burn_in=600, seed=26)
    chain = run_chain(post16_strong, cfg, init=res.coeffs)
    kept = float(np.mean(chain.accepted[600:]))
    assert chain.acceptance_rate == kept
    assert kept != float(np.mean(chain.accepted))
    path = tmp_path / "chain.bin"
    _, rate = stream_chain(post16_strong, cfg, path, init=res.coeffs)
    assert rate == load_chain(path).acceptance_rate == kept


def test_tuning_is_deterministic(post16_strong, map16_strong):
    res, _ = map16_strong
    a, za = tune_stepsize(post16_strong, "pcn", seed=25,
                          init=res.coeffs)
    b, zb = tune_stepsize(post16_strong, "pcn", seed=25,
                          init=res.coeffs)
    assert a == b
    np.testing.assert_array_equal(za, zb)
    with pytest.raises(ValueError):
        tune_stepsize(post16_strong, "hamiltonian")


# ---------------------------------------------------------------------------
# persistence


_HEADER = struct.Struct("<4sIIIII")
_AFTER = _HEADER.size      # the first byte after the header


def _pack(*head, body):
    """A chain file: the header fields up to the record length, the CRC-32
    of body, then body, every byte after the header."""
    return _HEADER.pack(*head, zlib.crc32(body)) + body


def _write_chain(chain, path):
    """Reference writer of the chain file format (see samplers), for tests
    that load a file of chosen contents: one row per stretch of equal rows,
    as RunMatrix.stretches finds them, then the record."""
    runs, lengths = chain.samples.stretches()
    record = json.dumps({**asdict(chain.config),
                         "acceptance_rate": chain.acceptance_rate})
    path.write_bytes(_pack(
        b"CHN1", 4, chain.n_modes, runs.size, len(record),
        body=(np.asarray(chain.samples.rows, dtype="<f8")[runs].tobytes()
              + lengths.astype("<i8").tobytes() + record.encode("ascii"))))


def _record(path):
    """The parsed record at the end of the chain file at path."""
    raw = path.read_bytes()
    return json.loads(raw[len(raw) - _HEADER.unpack(raw[:_AFTER])[4]:])


def _with_record(path, record):
    """Replace the record of the chain file at path by ``record``, a JSON
    document or raw bytes, and its length and the checksum in the header."""
    raw = path.read_bytes()
    head = _HEADER.unpack(raw[:_AFTER])
    if not isinstance(record, bytes):
        record = json.dumps(record).encode("ascii")
    path.write_bytes(_pack(*head[:4], len(record),
                           body=raw[_AFTER:len(raw) - head[4]] + record))


def test_chain_roundtrip(tmp_path, post16):
    cfg = SamplerConfig("pcn", 120, beta=0.4, burn_in=20, thinning=2, seed=26)
    chain = run_chain(post16, cfg)
    path = tmp_path / "chain.bin"
    stream_chain(post16, cfg, path)
    back = load_chain(path)
    np.testing.assert_array_equal(back.samples, chain.samples)
    assert back.config == cfg
    assert back.acceptance_rate == chain.acceptance_rate
    record = _record(path)
    assert record["kind"] == "pcn"
    assert record["acceptance_rate"] == chain.acceptance_rate
    assert back.config.n_kept == back.n_kept == chain.n_kept
    # -0.0 and 0.0 compare equal but are different states, a subnormal
    # survives, and a run that stores a row again stays a run of its own
    rows = np.array([[0.0, 1.0], [-0.0, 1.0], [5e-324, 2.0], [0.0, 1.0]])
    odd = RunMatrix(rows, [0, 0, 1, 2, 2, 3])
    _write_chain(Chain(odd, SamplerConfig("pcn", 6, beta=0.1, burn_in=0), 1.0),
                 path)
    back = load_chain(path).samples
    assert back.run.tolist() == odd.run.tolist()
    assert np.array_equal(_bits(back.rows), _bits(rows))


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def test_chain_file_holds_the_little_endian_samples(tmp_path):
    # 400 kept states of 500 modes from a chain that rejects some steps: the
    # file holds the header, each run's row, each run's length, then the
    # record, and the states go to the file without being held
    t = _GaussTarget(500, 0.01, np.zeros(500))
    cfg = SamplerConfig("pcn", 440, beta=0.5, burn_in=40, seed=29)
    chain = run_chain(t, cfg)
    path = tmp_path / "chain.bin"
    tracemalloc.start()
    try:
        stream_chain(t, cfg, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dense = np.asarray(chain.samples)
    assert peak < dense.nbytes / 4
    lengths = np.bincount(chain.samples.run)
    assert 1 < lengths.size < 400 and lengths.max() > 1
    raw = path.read_bytes()
    record = json.dumps({**asdict(cfg), "acceptance_rate":
                         chain.acceptance_rate}).encode("ascii")
    body = (chain.samples.rows.astype("<f8").tobytes()
            + lengths.astype("<i8").tobytes() + record)
    assert _HEADER.unpack(raw[:_AFTER]) == (b"CHN1", 4, 500, lengths.size,
                                            len(record), zlib.crc32(body))
    assert raw[_AFTER:] == body


@_KERNELS
@pytest.mark.parametrize("stepsize", [0.01, None])
def test_streamed_chain_loads_as_the_run_chain(tmp_path, post16,
                                               post16_smooth, map16, kind,
                                               anchor, stepsize):
    # the file of a thinned chain, at a given or a tuned stepsize, loads as
    # the chain run_chain collects, bit for bit
    res, _ = map16
    post, anchor = _kernel_case(anchor, post16, post16_smooth, res)
    cfg = SamplerConfig(kind, 75, beta=stepsize, delta=stepsize, burn_in=9,
                        thinning=3, seed=30)
    chain = run_chain(post, cfg, init=res.coeffs, anchor=anchor)
    path = tmp_path / "chain.bin"
    config, rate = stream_chain(post, cfg, path, init=res.coeffs,
                                anchor=anchor)
    back = load_chain(path)
    assert np.array_equal(_bits(back.samples.rows), _bits(chain.samples.rows))
    assert np.array_equal(back.samples.run, chain.samples.run)
    assert back.config == config == chain.config
    assert back.acceptance_rate == rate == chain.acceptance_rate
    assert isinstance(config.stepsize, float)
    assert path.stat().st_size == _AFTER + 8 * chain.samples.n_runs * (
        post.n_modes + 1) + len(json.dumps(_record(path)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.bin"]


def test_kept_states_are_held_once(tmp_path):
    # every pcn step on a flat target moves, so each of the 300 kept states
    # is a new one.  Each is copied into one block as it comes, a memory map
    # that tracemalloc does not trace, so the traced peak is what the chain
    # holds beyond that block: it stays below one more copy of the states
    t = _FlatTarget(2000)
    cfg = SamplerConfig("pcn", 330, beta=0.5, burn_in=30, seed=40)
    tracemalloc.start()
    try:
        chain = run_chain(t, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = chain.samples.rows
    assert chain.samples.n_runs == cfg.n_kept
    assert peak < rows.nbytes
    # the streamed chain holds the same rows and runs
    path = tmp_path / "chain.bin"
    stream_chain(t, cfg, path)
    back = load_chain(path).samples
    assert np.array_equal(back.rows, rows)
    assert np.array_equal(back.run, chain.samples.run)


def test_tuned_stepsize_round_trips_through_the_chain_file(tmp_path,
                                                           post16):
    # the record holds the frozen beta, not None
    cfg = SamplerConfig("pcn", 120, beta=None, burn_in=40, thinning=2,
                        seed=34)
    chain = run_chain(post16, cfg)
    streamed = tmp_path / "streamed.bin"
    tuned, rate = stream_chain(post16, cfg, streamed)
    assert tuned == chain.config
    assert isinstance(tuned.beta, float) and 0.0 < tuned.beta <= 1.0
    back = load_chain(streamed)
    assert back.config == tuned
    assert back.acceptance_rate == rate == chain.acceptance_rate
    assert _record(streamed)["beta"] == tuned.beta


def test_block_that_cannot_be_reserved_names_the_way_out(monkeypatch):
    # the paper preset's sampler keeps 500,000 states of 6,000 modes: a
    # system that cannot reserve the 22.4 GiB block refuses before the first
    # step, and says what to change.  The reservation is never made here
    class _NoStep(_FlatTarget):
        def evaluate(self, c):
            raise AssertionError("no step should run")

    def refuse(fileno, length):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(samplers.mmap, "mmap", refuse)
    cfg = SamplerConfig("pcn", 550000, beta=0.1, burn_in=50000)
    with pytest.raises(MemoryError, match="22.4 GiB") as info:
        run_chain(_NoStep(6000), cfg)
    assert "stream_chain" in str(info.value)
    assert "thinning" in str(info.value)
    assert info.value.__cause__.errno == errno.ENOMEM

    # any other failure to map is not a lack of memory
    def deny(fileno, length):
        raise OSError(errno.EACCES, "Permission denied")

    monkeypatch.setattr(samplers.mmap, "mmap", deny)
    with pytest.raises(PermissionError):
        run_chain(_NoStep(2), SamplerConfig("pcn", 10, beta=0.1))


def test_failed_stream_leaves_no_chain_file(tmp_path, post16):
    class _NaN(_StubTarget):
        def potential(self, c):
            return math.nan

    path = tmp_path / "chain.bin"
    with pytest.raises(ChainDivergence):
        stream_chain(_NaN(2), SamplerConfig("pcn", 10, beta=0.5, burn_in=0,
                                            seed=19), path)
    with pytest.raises(ValueError):    # pdpcn without an anchor
        stream_chain(post16, SamplerConfig("pdpcn", 10, seed=19), path)
    assert list(tmp_path.iterdir()) == []


def test_chain_load_refuses_a_sidecar_without_a_field(tmp_path):
    # the record holds every config field and the acceptance rate; a
    # missing one is named, never filled in with a default
    path = tmp_path / "chain.bin"
    stream_chain(_FlatTarget(2), SamplerConfig("pcn", 20, beta=0.5, seed=28),
                 path)
    record = _record(path)
    assert sorted(record) == sorted(
        ["kind", "n_samples", "beta", "delta", "burn_in", "thinning", "seed",
         "acceptance_rate"])
    assert record["burn_in"] == 2
    for key in ("burn_in", "delta", "acceptance_rate"):
        _with_record(path, {k: v for k, v in record.items() if k != key})
        with pytest.raises(ValueError, match=repr(key)):
            load_chain(path)


def test_chain_load_rejects_corruption(tmp_path):
    path = tmp_path / "chain.bin"
    stream_chain(_FlatTarget(2), SamplerConfig("pcn", 20, beta=0.5,
                                               burn_in=0, seed=28), path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        load_chain(bad_magic)

    short = tmp_path / "short.bin"
    short.write_bytes(raw[:10])
    with pytest.raises(ValueError, match="truncated"):
        load_chain(short)

    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="header"):
        load_chain(clipped)

    head = _HEADER.unpack(raw[:_AFTER])
    n_runs, n_record = head[3], head[4]
    rows = raw[_AFTER:_AFTER + 16 * n_runs]
    lengths = np.frombuffer(raw[_AFTER + 16 * n_runs:len(raw) - n_record],
                            dtype="<i8")
    record = _record(path)
    assert lengths.sum() == 20 and n_runs > 1

    def refused(match, version=4, runs=lengths, **changes):
        bad = tmp_path / "bad.bin"
        text = json.dumps({**record, **changes}).encode("ascii")
        bad.write_bytes(_pack(b"CHN1", version, 2, n_runs, len(text),
                              body=rows + np.asarray(runs, "<i8").tobytes()
                              + text))
        with pytest.raises(ValueError, match=match):
            load_chain(bad)

    refused("version 1", version=1)
    refused("version 2", version=2)
    refused("version 3", version=3)
    # a version 3 file as it was written: the header before the checksum
    v3 = tmp_path / "v3.bin"
    v3.write_bytes(struct.pack("<4sIIII", b"CHN1", 3, *head[2:5])
                   + raw[_AFTER:])
    with pytest.raises(ValueError, match="version 3, expected 4"):
        load_chain(v3)
    # the checksum of every byte after the header, the header's own
    # included: a changed row or a changed sum is refused
    for at in (_AFTER, _AFTER - 1):
        bad = bytearray(raw)
        bad[at] ^= 1
        path.write_bytes(bad)
        with pytest.raises(ValueError, match="checksum"):
            load_chain(path)
    path.write_bytes(raw)
    refused("kind must be one of", kind="hmc")
    refused(r"\('pcn', 'pdpcn'\), got 'pcnl'", kind="pcnl")    # retired
    refused("kind must be one of", kind=3)
    zero = lengths.copy()
    zero[1] += zero[0]
    zero[0] = 0
    refused("run lengths", runs=zero)
    refused("run lengths", n_samples=21)     # lengths add up to one less
    refused("run lengths", thinning=2)       # or to twice the kept count
    # a record that is not a JSON object of the config's values
    for text in (b"[1, 2]", b"null", b"{", b"\xff", b""):
        _with_record(path, text)
        with pytest.raises(ValueError, match="record"):
            load_chain(path)
    _with_record(path, {**record, "n_samples": "20"})
    with pytest.raises(ValueError, match="record"):
        load_chain(path)


def _small_chain_file(path):
    stream_chain(_FlatTarget(2), SamplerConfig("pcn", 12, beta=0.5,
                                               burn_in=2, seed=35), path)
    return path.read_bytes()


def test_every_truncation_of_a_chain_file_is_refused(tmp_path):
    raw = _small_chain_file(tmp_path / "chain.bin")
    cut = tmp_path / "cut.bin"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(ValueError):
            load_chain(cut)


def test_every_bit_flip_in_a_chain_file_is_refused(tmp_path):
    # a flip in the header breaks its magic, version or sizes, or the
    # checksum; a flip after it, in a row, a run length or the record,
    # breaks the checksum.  Each raises ValueError naming the file
    raw = _small_chain_file(tmp_path / "chain.bin")
    flipped = tmp_path / "flipped.bin"
    for i in range(len(raw)):
        for bit in range(8):
            b = bytearray(raw)
            b[i] ^= 1 << bit
            flipped.write_bytes(b)
            with pytest.raises(ValueError, match=re.escape(f"{flipped}: ")):
                load_chain(flipped)


def test_load_chain_keeps_only_the_runs(tmp_path):
    # 4,500 kept rows of 500 modes in 9 runs: the file and the loaded chain
    # hold the 9 rows and their lengths, never the dense 18 MB
    rng = np.random.default_rng(33)
    samples = RunMatrix(rng.standard_normal((9, 500)),
                        np.repeat(np.arange(9), 500))
    chain = Chain(samples, SamplerConfig("pcn", 4500, beta=0.5, burn_in=0),
                  0.002)
    path = tmp_path / "chain.bin"
    _write_chain(chain, path)
    dense = np.asarray(samples).nbytes
    tracemalloc.start()
    try:
        back = load_chain(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense / 4
    assert back.samples.n_runs == 9
    np.testing.assert_array_equal(back.samples, samples)
    # nothing the file holds is lost in loading
    again = tmp_path / "again.bin"
    _write_chain(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_run_matrix_answers_every_access_form():
    m = RunMatrix(np.random.default_rng(34).standard_normal((4, 3)),
                  [0, 0, 1, 1, 1, 2, 3, 3, 3])
    dense = np.asarray(m)
    assert dense.shape == m.shape == (9, 3)
    assert not (m.rows.flags.writeable or m.run.flags.writeable)
    # integer and (rows, columns) indexing gather ndarrays
    for key in (0, -1, 4, (slice(None), 1),
                (slice(None), slice(0, 2)), (slice(2, 7), [2, 0]),
                (3, slice(None)), (np.array([1, 5]), 2), (slice(2, 5), ...),
                (slice(6, 9), [1, 2]), (slice(6, 9), 0)):
        got = m[key]
        assert isinstance(got, np.ndarray), key
        assert np.array_equal(got, dense[key]), key
    # row slices, thinning included, and 1-D index arrays share the stored
    # rows
    for key in (slice(2, 7), slice(None, None, 3), slice(1, None, 4),
                slice(5, 5), [2, 0, 8], np.arange(9)[::2]):
        part = m[key]
        assert isinstance(part, RunMatrix) and part.rows is m.rows
        assert np.array_equal(np.asarray(part), dense[key])
    assert np.array_equal(np.array(list(m)), dense)
    # a thinned or sliced matrix falls in fewer, shorter stretches
    for key, runs, lengths in ((slice(None), [0, 1, 2, 3], [2, 3, 1, 3]),
                               (slice(None, None, 3), [0, 1, 3], [1, 1, 1]),
                               (slice(1, 5), [0, 1], [1, 3])):
        got = m[key].stretches()
        assert [a.tolist() for a in got] == [runs, lengths], key
    with pytest.raises(TypeError):
        np.isfinite(m)


def test_run_matrix_shares_but_does_not_freeze_the_callers_arrays():
    # a chain's rows may be a memory map: the matrix holds read-only views
    # of the arrays it is given, which stay writable and share its memory
    rows, run = np.zeros((2, 3)), np.array([0, 1, 1])
    m = RunMatrix(rows, run)
    rows[1, 0] = 5.0
    run[0] = 1
    assert np.shares_memory(m.rows, rows) and np.shares_memory(m.run, run)
    assert np.asarray(m)[0, 0] == 5.0
    assert not (m.rows.flags.writeable or m.run.flags.writeable)


def test_chain_shape_validation():
    # the samples are a RunMatrix, whose rows are a (runs, n_modes) array
    with pytest.raises(TypeError, match="RunMatrix"):
        Chain(np.zeros((5, 2)), SamplerConfig("pcn", 5, beta=0.1, burn_in=0),
              1.0)
    with pytest.raises(ValueError):
        Chain(RunMatrix(np.zeros(5), np.arange(5)),
              SamplerConfig("pcn", 10, beta=0.5), 1.0)


def test_chain_refuses_a_rate_outside_the_unit_interval():
    cfg = SamplerConfig("pcn", 5, beta=0.1, burn_in=0)
    samples = RunMatrix(np.zeros((5, 2)), np.arange(5))
    for rate in (1.5, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"not in \[0, 1\]"):
            Chain(samples, cfg, rate)
    for rate in (0.0, 1.0):
        assert Chain(samples, cfg, rate).acceptance_rate == rate


def test_chain_load_refuses_a_rate_or_a_row_it_cannot_hold(tmp_path):
    # a rate outside [0, 1] and a row that is not finite name the file
    path = tmp_path / "chain.bin"
    raw = _small_chain_file(path)
    _with_record(path, {**_record(path), "acceptance_rate": 1.5})
    with pytest.raises(ValueError,
                       match=re.escape(f"{path}: acceptance rate 1.5")):
        load_chain(path)
    for value in (math.nan, math.inf, -math.inf):
        body = struct.pack("<d", value) + raw[_AFTER + 8:]
        path.write_bytes(_pack(*_HEADER.unpack(raw[:_AFTER])[:5], body=body))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: a row holds a non-finite value")):
            load_chain(path)


def test_chain_load_refuses_a_header_without_modes(tmp_path):
    # no rows at all: a run of zero-length rows would load as a chain
    path = tmp_path / "chain.bin"
    cfg = SamplerConfig("pcn", 3, beta=0.1, burn_in=0)
    record = json.dumps({**asdict(cfg), "acceptance_rate": 1.0}).encode("ascii")
    path.write_bytes(_pack(b"CHN1", 4, 0, 1, len(record),
                           body=struct.pack("<q", 3) + record))
    with pytest.raises(ValueError,
                       match=re.escape(f"{path}: the header holds no modes")):
        load_chain(path)


def test_load_chain_checks_the_rows_without_a_mask(tmp_path):
    # 2,000 distinct rows of 100 modes: loading holds the rows, the run
    # lengths and the run index, and no n_runs x n_modes finiteness mask
    # (which alone would add an eighth of the row bytes)
    rng = np.random.default_rng(36)
    rows = rng.standard_normal((2000, 100))
    chain = Chain(RunMatrix(rows, np.arange(2000)),
                  SamplerConfig("pcn", 2000, beta=0.5, burn_in=0), 0.5)
    path = tmp_path / "chain.bin"
    _write_chain(chain, path)
    tracemalloc.start()
    try:
        back = load_chain(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.05 * (rows.nbytes + 8 * 2000)
    assert np.array_equal(back.samples.rows, rows)
