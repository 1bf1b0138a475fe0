"""Markov kernel tests.

Statistical contracts are checked against closed forms (conjugate Gaussian
targets, AR(1) structure of the no-potential chain) and against a dense
quadrature of a two-coefficient posterior; algebraic reductions are checked
on matched random streams.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from poistomo import TGPosterior
from poistomo.posterior import PosteriorEval
from poistomo.samplers import (Anchor, Chain, ChainDivergence, SamplerConfig,
                               _accept, _rho, anchor_from_map, load_chain,
                               run_chain, save_chain, tune_stepsize)
from poistomo.fields import tv_arrays
from poistomo.admm import AdmmConfig, offset_direction, solve_map

from test_admm import _Toy

# ---------------------------------------------------------------------------
# duck-typed targets: the kernels only touch evaluate / phi_grad_at /
# tv_weight / n_modes (the acceptance functional reads psi from the
# evaluation), so small closed-form stand-ins let the statistical checks run
# against known answers


class _StubTarget:
    tv_weight = 0.0

    def __init__(self, n_modes):
        self.n_modes = n_modes

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
    cfg = SamplerConfig("pcnl", 100_000, delta=0.8, burn_in=5000, seed=8)
    chain = run_chain(t, cfg)
    x = chain.samples[:, 0]
    se_mean = _batch_stderr(x)
    assert abs(x.mean() - t.post_mean) <= 3.0 * se_mean
    se_var = _batch_stderr((x - x.mean()) ** 2)
    assert abs(x.var() - t.post_var) <= 3.0 * se_var


def test_gradient_kernel_rejects_nonsmooth_and_bad_stepsize(post16,
                                                            post16_smooth):
    with pytest.raises(ValueError):  # tv_weight > 0
        run_chain(post16, SamplerConfig("pcnl", 10, delta=0.3, seed=9))
    for bad in (0.0, 2.5, -0.1):
        with pytest.raises(ValueError):
            run_chain(post16_smooth, SamplerConfig("pcnl", 10, delta=bad,
                                                   seed=9))


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
    b = run_chain(driftless, SamplerConfig("pcnl", 400, delta=delta,
                                           burn_in=0, seed=11))
    np.testing.assert_array_equal(a.accepted, b.accepted)
    np.testing.assert_allclose(a.samples, b.samples, atol=1e-12)
    np.testing.assert_allclose(a.psi_trace, b.psi_trace, atol=1e-12)


# ---------------------------------------------------------------------------
# anchored kernel


def test_anchored_kernel_reduces_to_pcn_without_projection(post16):
    # k_proj = 0 zeroes the drift before the anchor is ever read
    delta = 0.3
    beta = math.sqrt(8.0 * delta) / (2.0 + delta)
    grid = post16.grid
    zeros = np.zeros((2,) + grid.shape)
    anchor = Anchor(zeros, zeros, 1.0)
    a = run_chain(post16, SamplerConfig("pcn", 300, beta=beta,
                                        burn_in=0, seed=12))
    b = run_chain(post16, SamplerConfig("pdpcn", 300, delta=delta,
                                        burn_in=0, seed=12, k_proj=0),
                  anchor=anchor)
    np.testing.assert_array_equal(a.accepted, b.accepted)
    np.testing.assert_allclose(a.samples, b.samples, atol=1e-12)


def test_acceptance_exponent_antisymmetry(post16, map16):
    res, cfg = map16
    rng = np.random.default_rng(13)
    delta = 0.2
    for _ in range(6):
        z = 0.5 * rng.standard_normal(post16.n_modes)
        v = 0.5 * rng.standard_normal(post16.n_modes)
        ev_z, ev_v = post16.evaluate(z), post16.evaluate(v)
        g_z = offset_direction(post16, ev_z, res.split, res.multiplier,
                               cfg.rho_pen)
        g_v = offset_direction(post16, ev_v, res.split, res.multiplier,
                               cfg.rho_pen)
        fwd = _rho(ev_z, z, v, g_z, delta) - _rho(ev_v, v, z, g_v, delta)
        rev = _rho(ev_v, v, z, g_v, delta) - _rho(ev_z, z, v, g_z, delta)
        assert fwd == -rev


def test_anchored_chain_matches_dense_quadrature():
    # two-coefficient target: chain moments against a Riemann sum of
    # exp(-psi(c) - |c|^2/2) evaluated with the toy's independent math
    toy = _Toy(tv_weight=0.8)
    res = solve_map(toy.post, AdmmConfig(rho_pen=1.0, max_outer=400, tol=1e-6,
                                         inner_iters=300, inner_tol=1e-7))
    anchor = anchor_from_map(res, 1.0)
    delta = tune_stepsize(toy.post, "pdpcn", seed=14, init=res.coeffs,
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


def test_default_burn_in_is_a_tenth():
    cfg = SamplerConfig("pcn", 1000, beta=0.5, seed=0)
    assert cfg.effective_burn_in == 100
    assert cfg.n_kept == 900


def test_chain_is_deterministic_per_seed(post16):
    cfg = SamplerConfig("pcn", 200, beta=0.6, burn_in=0, seed=17)
    a = run_chain(post16, cfg)
    b = run_chain(post16, cfg)
    np.testing.assert_array_equal(a.samples, b.samples)
    other = run_chain(post16, SamplerConfig("pcn", 200, beta=0.6,
                                            burn_in=0, seed=18))
    assert np.any(other.samples != a.samples)


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
                      anchor=anchor_from_map(res, admm.rho_pen))
    assert chain.samples.shape == (50, 2)
    assert np.all(np.isfinite(chain.samples))


@pytest.mark.parametrize("kind", ["pcn", "pcnl", "pdpcn"])
def test_chain_evaluates_each_state_once(post16, post16_smooth, map16,
                                         monkeypatch, kind):
    # one posterior evaluation per proposal plus one for the initial state;
    # the drift at a proposal reuses the proposal's evaluation
    res, admm = map16
    post = post16_smooth if kind == "pcnl" else post16
    calls = []
    evaluate = TGPosterior.evaluate

    def counted(self, c):
        calls.append(1)
        return evaluate(self, c)

    monkeypatch.setattr(TGPosterior, "evaluate", counted)
    anchor = anchor_from_map(res, admm.rho_pen) if kind == "pdpcn" else None
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
    {"k_proj": -1},
])
def test_config_validation(kwargs):
    base = {"kind": "pcn", "n_samples": 100, "beta": 0.5, "delta": 0.5}
    base.update(kwargs)
    with pytest.raises(ValueError):
        SamplerConfig(**base)


def test_config_stepsize_follows_kind():
    assert SamplerConfig("pcn", 10, beta=0.25, delta=0.5).stepsize == 0.25
    assert SamplerConfig("pcnl", 10, beta=0.25, delta=0.5).stepsize == 0.5
    assert SamplerConfig("pdpcn", 10, beta=0.25, delta=0.5).stepsize == 0.5


# ---------------------------------------------------------------------------
# stepsize tuning


def test_tuned_plain_stepsize_hits_target(post16_strong, map16_strong):
    res, _ = map16_strong
    beta = tune_stepsize(post16_strong, "pcn", target=0.25, seed=21,
                         init=res.coeffs)
    cfg = SamplerConfig("pcn", 4000, beta=beta, burn_in=0, seed=22)
    chain = run_chain(post16_strong, cfg, init=res.coeffs)
    rate = float(np.mean(chain.accepted[1000:]))
    assert abs(rate - 0.25) <= 0.06


def test_tuned_anchored_stepsize_hits_target(post16_strong, map16_strong):
    res, cfg_map = map16_strong
    anchor = anchor_from_map(res, cfg_map.rho_pen)
    delta = tune_stepsize(post16_strong, "pdpcn", target=0.25, seed=23,
                          init=res.coeffs, anchor=anchor)
    cfg = SamplerConfig("pdpcn", 4000, delta=delta, burn_in=0, seed=24)
    chain = run_chain(post16_strong, cfg, init=res.coeffs, anchor=anchor)
    rate = float(np.mean(chain.accepted[1000:]))
    assert abs(rate - 0.25) <= 0.06


def test_tuning_is_deterministic(post16_strong, map16_strong):
    res, _ = map16_strong
    a = tune_stepsize(post16_strong, "pcn", target=0.25, seed=25,
                      init=res.coeffs)
    b = tune_stepsize(post16_strong, "pcn", target=0.25, seed=25,
                      init=res.coeffs)
    assert a == b
    with pytest.raises(ValueError):
        tune_stepsize(post16_strong, "hamiltonian")


# ---------------------------------------------------------------------------
# persistence


def test_chain_roundtrip(tmp_path, post16):
    cfg = SamplerConfig("pcn", 120, beta=0.4, burn_in=20, thinning=2, seed=26)
    chain = run_chain(post16, cfg)
    path = tmp_path / "chain.bin"
    save_chain(chain, path)
    back = load_chain(path)
    np.testing.assert_array_equal(back.samples, chain.samples)
    assert back.config == cfg
    assert back.acceptance_rate == chain.acceptance_rate
    sidecar = json.loads((tmp_path / "chain.bin.json").read_text())
    assert sidecar["kind"] == "pcn"
    assert sidecar["n_kept"] == chain.n_kept


def test_chain_file_holds_the_little_endian_samples(tmp_path):
    rng = np.random.default_rng(29)
    chain = Chain(rng.standard_normal((2000, 500)),
                  SamplerConfig("pcn", 2000, beta=0.5, burn_in=0), 1.0)
    path = tmp_path / "chain.bin"
    tracemalloc.start()
    try:
        save_chain(chain, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the samples go to the file without an intermediate copy
    assert peak < chain.samples.nbytes / 4
    payload = path.read_bytes()[-chain.samples.nbytes:]
    assert payload == chain.samples.astype("<f8").tobytes()


def test_chain_loads_without_sidecar(tmp_path):
    t = _FlatTarget(3)
    cfg = SamplerConfig("pcnl", 40, delta=0.7, burn_in=0, thinning=4, seed=27)
    chain = run_chain(t, cfg)
    path = tmp_path / "chain.bin"
    save_chain(chain, path)
    (tmp_path / "chain.bin.json").unlink()
    back = load_chain(path)
    np.testing.assert_array_equal(back.samples, chain.samples)
    assert back.config.kind == "pcnl"
    assert back.config.thinning == 4
    assert back.config.seed == 27
    assert back.config.delta == 0.7
    assert math.isnan(back.acceptance_rate)


def test_chain_load_rejects_corruption(tmp_path):
    t = _FlatTarget(2)
    chain = run_chain(t, SamplerConfig("pcn", 20, beta=0.5, burn_in=0,
                                       seed=28))
    path = tmp_path / "chain.bin"
    save_chain(chain, path)
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
    with pytest.raises(ValueError, match="sample block"):
        load_chain(clipped)


def test_chain_shape_validation():
    with pytest.raises(ValueError):
        Chain(np.zeros(5), SamplerConfig("pcn", 10, beta=0.5), 1.0)
