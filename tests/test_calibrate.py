"""Calibration tests.

The chi-squared tail is checked against closed forms, the admissible
interval against hand-made p-value grids, the predictive p-value against
a per-row loop, the default statistic against its reference law at the
true image, and the weight sweep for chains that move.  The sweep streams
its chains, so it is checked against the predictive p of the same chains
run and stored, bit for bit, and for the memory it holds.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erfc

from poistomo import (TGPosterior, brain_phantom, build_radon_operator,
                      parse_config)
from poistomo.calibrate import (_even_subsample, _predictive, _stream_seed,
                                admissible_interval, admissible_search,
                                chi2_discrepancy, chi2_sf,
                                posterior_predictive_p, select_lambda)
from poistomo.samplers import (Chain, RunMatrix, SamplerConfig, run_chain,
                               tune_stepsize)

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
    # entered only at the last weight: a single point, no interval
    assert admissible_interval([0.0, 1.0], [0.9, 0.7]) is None


def test_admissible_interval_none_when_p_starts_below_band():
    assert admissible_interval([0.0, 1.0, 2.0], [0.05, 0.03, 0.01]) is None


def test_admissible_interval_starts_at_first_weight_inside_band():
    lo, hi = admissible_interval([1.0, 2.0, 3.0], [0.5, 0.3, 0.2])
    assert lo == 1.0
    assert hi == 3.0          # never leaves the band on the grid
    # on a one-weight grid that is a single point, no interval
    assert admissible_interval([1.0], [0.5]) is None
    assert admissible_interval([0.0], [0.797], band=(0.1, 0.9)) is None


# ---------------------------------------------------------------------------
# posterior-predictive p-value


@pytest.mark.parametrize("denominator", ["theta", "theta_sq"])
def test_predictive_p_matches_row_loop(post16, denominator):
    rng = np.random.default_rng(4)
    samples = 0.3 * rng.standard_normal((37, post16.n_modes))
    chain = Chain(RunMatrix(samples, np.arange(37)),
                  SamplerConfig("pcn", 37, beta=0.1, burn_in=0), 1.0)
    res = posterior_predictive_p(chain, post16, denominator=denominator)
    counts = post16.data.counts
    pvals = []
    for row in samples:
        z = post16.basis.synthesize_values(row)
        theta = post16.op.apply(post16.rep.apply(z))
        d = chi2_discrepancy(counts, theta, denominator)
        pvals.append(chi2_sf(d, post16.op.n_rays))
    assert res.n_used == 37
    assert res.p == np.mean(pvals)
    assert res.stderr == np.std(pvals, ddof=1) / math.sqrt(37)


@pytest.mark.parametrize("max_samples, states", [(None, 6), (23, 5)])
def test_predictive_p_synthesizes_each_repeated_state_once(
        post16, monkeypatch, max_samples, states):
    # 150 kept rows in 6 runs, as a sticky chain keeps them; an even
    # subsample of 23 rows misses the one-row run.  Each of the
    # subsample's states is synthesized once, and the p-value is that of
    # every subsampled row evaluated on its own
    rng = np.random.default_rng(6)
    runs = RunMatrix(0.3 * rng.standard_normal((6, post16.n_modes)),
                     np.repeat(np.arange(6), [40, 5, 30, 25, 1, 49]))
    chain = Chain(runs, SamplerConfig("pcn", 150, beta=0.1, burn_in=0), 0.03)
    rows = np.asarray(runs)[_even_subsample(150, max_samples)]
    ref = _predictive(np.array([chi2_discrepancy(
        post16.data.counts, post16.evaluate(row).theta) for row in rows]),
        post16.op.n_rays)
    synthesized = []
    synthesize = type(post16.basis).synthesize_values

    def counting(self, c, *args, **kwargs):
        synthesized.append(np.atleast_2d(c).shape[0])
        return synthesize(self, c, *args, **kwargs)

    monkeypatch.setattr(type(post16.basis), "synthesize_values", counting)
    res = posterior_predictive_p(chain, post16, max_samples=max_samples)
    assert synthesized == [1] * states
    assert (res.p, res.stderr, res.n_used) == (ref.p, ref.stderr, ref.n_used)


@pytest.mark.parametrize("cap", [0, -3])
def test_sample_cap_below_one_is_refused(post16, cap):
    # a cap that keeps no sample is named, not reported as an empty chain
    chain = Chain(RunMatrix(np.zeros((5, post16.n_modes)), np.arange(5)),
                  SamplerConfig("pcn", 5, beta=0.1, burn_in=0), 1.0)
    with pytest.raises(ValueError, match="max_eval_samples must be at least"):
        posterior_predictive_p(chain, post16, max_samples=cap)
    with pytest.raises(ValueError, match="max_eval_samples must be at least"):
        admissible_search(_weights_of(post16), [0.0], chain_steps=20,
                          beta=0.3, max_eval_samples=cap)


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


def test_every_calibration_chain_accepts(post16_strong):
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


def _weights_of(base):
    def make_posterior(w):
        return TGPosterior(base.op, base.rep, base.basis, base.data,
                           tv_weight=w)
    return make_posterior


@pytest.mark.parametrize("denominator", ["theta", "theta_sq"])
@pytest.mark.parametrize("max_eval", [70, None])
def test_streamed_search_matches_the_stored_chains(post16, denominator,
                                                   max_eval):
    # each row equals posterior_predictive_p of the same warm-started chain,
    # run and stored, bit for bit
    make_posterior = _weights_of(post16)
    weights = [0.0, 1.0, 3.0]
    steps, beta, seed = 300, 0.3, 7
    result = admissible_search(make_posterior, weights, chain_steps=steps,
                               seed=seed, beta=beta,
                               max_eval_samples=max_eval,
                               denominator=denominator)
    start = None
    for i, (w, row) in enumerate(zip(weights, result.rows)):
        post = make_posterior(w)
        chain = run_chain(post, SamplerConfig(
            "pcn", steps, beta=beta, seed=_stream_seed(seed, i)), init=start)
        start = chain.samples[-1]
        ref = posterior_predictive_p(chain, post, max_samples=max_eval,
                                     denominator=denominator)
        assert row.acceptance == chain.acceptance_rate
        assert (row.p, row.stderr) == (ref.p, ref.stderr)
        assert row.chain_steps == steps
        assert row.beta == beta


@pytest.mark.parametrize("cap", [50, None])
def test_stored_p_is_the_streamed_row(post16_strong, cap):
    # one sweep row, and posterior_predictive_p of the chain that row ran
    # (its pcn config, seed and cap), stored: the same (p, stderr) exactly
    make_posterior = _weights_of(post16_strong)
    steps, beta, seed = 400, 0.05, 3
    row, = admissible_search(make_posterior, [2.0], chain_steps=steps,
                             seed=seed, beta=beta, max_eval_samples=cap).rows
    post = make_posterior(2.0)
    chain = run_chain(post, SamplerConfig("pcn", steps, beta=beta,
                                          seed=_stream_seed(seed, 0)))
    assert 0.0 < row.acceptance < 1.0
    ref = posterior_predictive_p(chain, post, max_samples=cap)
    assert (row.p, row.stderr) == (ref.p, ref.stderr)


def test_tuned_row_is_the_tuned_stored_chain(post16_strong):
    # without a beta, a sweep chain tunes beta in its burn-in: the row
    # reports the frozen beta and the p of that same chain, run and stored
    make_posterior = _weights_of(post16_strong)
    steps, seed = 400, 3
    row, = admissible_search(make_posterior, [2.0], chain_steps=steps,
                             seed=seed, max_eval_samples=50).rows
    post = make_posterior(2.0)
    chain = run_chain(post, SamplerConfig("pcn", steps, beta=None,
                                          seed=_stream_seed(seed, 0)))
    assert row.beta == chain.config.beta
    assert 0.0 < row.beta <= 1.0
    # the rate of the post-burn-in steps, which ran at that beta
    assert row.acceptance == chain.acceptance_rate == float(
        np.mean(chain.accepted[chain.config.burn_in:]))
    ref = posterior_predictive_p(chain, post, max_samples=50)
    assert (row.p, row.stderr) == (ref.p, ref.stderr)


@pytest.mark.parametrize("bad, match", [
    ({"weight_grid": [0.0, 1.0, 1.0]}, "weight_grid"),
    ({"weight_grid": [1.0, 0.0]}, "weight_grid"),
    ({"weight_grid": [-1.0, 1.0]}, "weight_grid"),
    ({"band": (0.7, 0.1)}, "band"),
    ({"denominator": "theta_cubed"}, "denominator"),
], ids=["grid0", "grid1", "grid2", "band", "denominator"])
def test_search_refuses_a_bad_grid_before_any_chain(post16, monkeypatch,
                                                    bad, match):
    # a repeated, decreasing or negative weight, a reversed band or an
    # unknown denominator is refused up front, not after the sweep has run
    # a chain at every weight (the band) or the first chain's burn-in (the
    # denominator)
    from poistomo import calibrate

    def refuse(*args, **kwargs):
        raise AssertionError("no chain should run")

    monkeypatch.setattr(calibrate, "walk_chain", refuse)
    with pytest.raises(ValueError, match=match):
        admissible_search(_weights_of(post16), chain_steps=50,
                          **{"weight_grid": [0.0, 1.0], **bad})


@pytest.mark.parametrize("name", ["n_iters", "inner_steps"])
def test_selection_refuses_no_iterations_before_any_chain(post16,
                                                          monkeypatch, name):
    # no iterate, or chains of no step, are refused before the first chain
    # runs, and with it the burn-in that tunes beta
    from poistomo import calibrate

    def refuse(*args, **kwargs):
        raise AssertionError("no chain should run")

    monkeypatch.setattr(calibrate, "run_chain", refuse)
    for value in (0, -1):
        with pytest.raises(ValueError, match=name):
            select_lambda(_weights_of(post16), (1.0, 2.0), beta=None,
                          **{name: value})


def test_search_holds_less_than_one_chain(post16):
    # nothing keeps a weight's samples, the previous weight's chain or a
    # copy of the subsample
    steps = 2000
    cfg = SamplerConfig("pcn", steps, beta=0.3)
    one_chain = cfg.n_kept * post16.n_modes * 8
    make_posterior = _weights_of(post16)
    tracemalloc.start()
    try:
        admissible_search(make_posterior, [0.0, 1.0], chain_steps=steps,
                          seed=3, beta=0.3, max_eval_samples=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < one_chain


def test_selection_does_not_depend_on_keeping_samples(post16, request):
    # the inner chains keep one state; keeping all of them selects along
    # the same trace
    make_posterior = _weights_of(post16)
    kwargs = dict(n_iters=6, inner_steps=40, beta=None, seed=4)
    thinned = select_lambda(make_posterior, (1.0, 2.0), **kwargs)
    asked = request.getfixturevalue("unthinned")
    assert select_lambda(make_posterior, (1.0, 2.0), **kwargs) == thinned
    assert asked and all(t > 1 for t in asked)


def test_selection_says_whether_it_ends_at_a_bound(post16, monkeypatch):
    # on (1, 2) the iterate runs to the upper end; on (1, 1000) two steps
    # stay inside; a TV trace that swamps n_eff drives it to the lower end,
    # which is the 1e-8 floor of an interval that starts at 0
    make_posterior = _weights_of(post16)
    kwargs = dict(n_iters=2, inner_steps=20, beta=0.3, seed=6)
    top = select_lambda(make_posterior, (1.0, 2.0), **kwargs)
    assert (top.tv_weight, top.at_bound) == (2.0, True)
    inside = select_lambda(make_posterior, (1.0, 1000.0), **kwargs)
    assert 1.0 < inside.tv_weight < 1000.0 and inside.at_bound is False
    from poistomo import calibrate

    def swamped(*args, **kwargs):
        chain = run_chain(*args, **kwargs)
        return dataclasses.replace(
            chain, reg_trace=np.full_like(chain.reg_trace, 1e12))

    monkeypatch.setattr(calibrate, "run_chain", swamped)
    floor = select_lambda(make_posterior, (0.0, 1.0), **kwargs)
    assert (floor.tv_weight, floor.at_bound) == (1e-8, True)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_every_selection_chain_accepts(post16, monkeypatch, seed):
    # each selection chain starts where the one before it ended, the first
    # after the burn-in that tunes beta; a tuned beta with the first chain
    # restarted at the prior mean once left every chain here without an
    # accepted step
    from poistomo import calibrate
    rates = []

    def recorded(*args, **kwargs):
        chain = run_chain(*args, **kwargs)
        rates.append(chain.acceptance_rate)
        return chain

    monkeypatch.setattr(calibrate, "run_chain", recorded)
    select_lambda(_weights_of(post16), (1.0, 2.0), beta=None, n_iters=6,
                  inner_steps=40, seed=seed)
    assert len(rates) == 6
    assert min(rates) > 0.0, rates


def test_first_selection_chain_tunes_the_pilots_beta(post16, monkeypatch):
    # the first chain's burn-in is the 1,000-step pilot that tune_stepsize
    # runs from the prior mean at the midpoint on the first stream, so it
    # freezes that beta bit for bit, and the later chains run at it with no
    # burn-in
    from poistomo import calibrate
    configs = []

    def recorded(*args, **kwargs):
        chain = run_chain(*args, **kwargs)
        configs.append(chain.config)
        return chain

    monkeypatch.setattr(calibrate, "run_chain", recorded)
    make_posterior = _weights_of(post16)
    select_lambda(make_posterior, (1.0, 2.0), n_iters=3, inner_steps=20,
                  seed=7)
    beta, _ = tune_stepsize(make_posterior(1.5), "pcn", n_pilot=1000,
                            seed=_stream_seed(7, -1))
    assert [c.beta for c in configs] == [beta] * 3
    assert [c.burn_in for c in configs] == [1000, 0, 0]
    assert [c.seed for c in configs] == [_stream_seed(7, -k)
                                         for k in (1, 2, 3)]


@pytest.mark.parametrize("seed", [0, 5, 2 ** 63 - 1])
def test_calibration_streams_are_distinct(post16, monkeypatch, seed):
    # every chain of a sweep and of the selection after it at the same seed
    # (each sweep chain and the first selection chain tuning beta in its
    # burn-in) draws its own stream, each seed in [0, 2**63)
    seeds = []
    default_rng = np.random.default_rng

    def recorded(s=None):
        seeds.append(s)
        return default_rng(s)

    monkeypatch.setattr(np.random, "default_rng", recorded)
    make_posterior = _weights_of(post16)
    admissible_search(make_posterior, [0.0, 1.0, 2.0], chain_steps=50,
                      seed=seed, max_eval_samples=10)
    select_lambda(make_posterior, (1.0, 2.0), n_iters=4, inner_steps=20,
                  seed=seed)
    assert len(seeds) == 3 + 4
    assert len(set(seeds)) == len(seeds), seeds
    assert all(0 <= s < 2 ** 63 for s in seeds)
    # each seed is a pure function of the call's seed and the stream's index
    assert seeds[:2] == [_stream_seed(seed, 0), _stream_seed(seed, 1)]
