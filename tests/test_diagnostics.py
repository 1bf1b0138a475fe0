"""Summary and screening tests.

HPD windows are checked against hand-made samples, the per-pixel intervals
against the one-dimensional window search and, for run-held chains, against
the expanded sample; credible levels against the HPD regions of a Gaussian
and a two-component mixture, and the effective sample size against the
AR(1) formula.  The blocked and strip passes are checked bit for bit against
their unblocked forms, and the memory peak (tracemalloc) of every pass over
a desk-sized chain against one block budget.
"""

import logging
import tracemalloc

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.signal import lfilter
from scipy.special import ndtr

from poistomo import (TGPosterior, brain_phantom, build_kl_basis,
                      build_radon_operator, diagnostics, parse_config,
                      simulate_data)
from poistomo.artifacts import credible_level, credible_level_map
from poistomo.calibrate import posterior_predictive_p
from poistomo.diagnostics import (BLOCK_FLOATS, _fast_len, _tau_from_acf,
                                  acf_matrix, block_rows, column_block,
                                  ess_matrix, hpdi_sorted, intensity_samples,
                                  pointwise_hpdi, posterior_mean, run_strips)
from poistomo.fields import ScalarField
from poistomo.samplers import Chain, RunMatrix, SamplerConfig

# ---------------------------------------------------------------------------
# highest-density windows


def test_hpdi_sorted_known_windows():
    s = np.array([0.0, 5.0, 6.0, 7.0, 20.0])
    # three of five points: the windows have widths 6, 2 and 14
    assert hpdi_sorted(s, 0.4) == (5.0, 7.0)
    # alpha 0 keeps every point
    assert hpdi_sorted(s, 0.0) == (0.0, 20.0)
    # one point: every window has width 0, the lowest one wins
    assert hpdi_sorted(s, 0.9) == (0.0, 0.0)
    # four of five: widths 7 and 15
    assert hpdi_sorted(s, 0.2) == (0.0, 7.0)


def test_hpdi_sorted_block_matches_columns():
    rng = np.random.default_rng(1)
    block = np.sort(rng.gamma(2.0, size=(50, 6)), axis=0)
    lo, hi = hpdi_sorted(block, 0.1)
    assert lo.shape == hi.shape == (6,)
    for j in range(6):
        assert (lo[j], hi[j]) == hpdi_sorted(block[:, j], 0.1)


@pytest.mark.parametrize("bad", [-0.1, 1.0])
def test_hpdi_sorted_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        hpdi_sorted(np.arange(4.0), bad)
    with pytest.raises(ValueError):
        hpdi_sorted(np.array([]), 0.1)


def test_pointwise_hpdi_columns_match_the_1d_search(basis60, rep):
    rng = np.random.default_rng(2)
    chain = Chain(RunMatrix(0.7 * rng.standard_normal((40, basis60.n_modes)),
                            np.arange(40)),
                  SamplerConfig("pcn", 40, beta=0.1, burn_in=0), 1.0)
    lo, hi = pointwise_hpdi(chain, basis60, rep, 0.05)
    u = intensity_samples(chain, basis60, rep)
    for j in range(basis60.grid.npix):
        assert (lo.ravel()[j], hi.ravel()[j]) == \
            hpdi_sorted(np.sort(u[:, j]), 0.05)


def _chain(rows: int, n_modes: int, seed: int) -> Chain:
    samples = 0.7 * np.random.default_rng(seed).standard_normal((rows, n_modes))
    return Chain(RunMatrix(samples, np.arange(rows)),
                 SamplerConfig("pcn", rows, beta=0.1, burn_in=0), 1.0)


def _check_strip_summaries(chain, basis, rep):
    u = intensity_samples(chain, basis, rep)
    u.sort(axis=0)
    lo, hi = pointwise_hpdi(chain, basis, rep, 0.05)
    ref_lo, ref_hi = hpdi_sorted(u, 0.05)
    assert np.array_equal(lo.ravel(), ref_lo)
    assert np.array_equal(hi.ravel(), ref_hi)

    # a test image off the samples, partly outside their range
    image = posterior_mean(chain, basis, rep)
    image = ScalarField(basis.grid, image.values + np.linspace(
        -0.6, 0.6, basis.grid.npix).reshape(basis.grid.shape))
    target = image.ravel()
    for thin in (1, 2):
        ut = intensity_samples(chain, basis, rep, thin=thin)
        ut.sort(axis=0)
        ref = [credible_level(ut[:, p], target[p]) for p in range(target.size)]
        level_map = credible_level_map(chain, basis, rep, image, thin=thin)
        assert level_map.n_samples == ut.shape[0]
        assert np.array_equal(level_map.levels.ravel(), ref)


# 41 samples on the 16x16 grid: the default budget holds the image in one
# strip; n*ny floats give one-row strips, a one-row scatter and (reference)
# synthesis blocks of one row; 3*n*ny give strips of 3 rows (the last one
# short), a one-row scatter and reference blocks of 3 rows (the last short)
@pytest.mark.parametrize("budget", [None, 41 * 16, 3 * 41 * 16])
def test_strip_summaries_equal_the_sorted_intensity_reference(
        basis60, rep, monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(diagnostics, "BLOCK_FLOATS", budget)
    _check_strip_summaries(_chain(41, basis60.n_modes, 8), basis60, rep)


def test_strips_beside_a_multirow_scatter_equal_the_reference(
        basis60, rep, monkeypatch):
    # 101 samples: one-row strips hold 1,616 floats and leave 1,320 for
    # scatter rows of 256 + 2 x 60 + 4 x 16 floats, so blocks of 3 rows,
    # the last one short
    monkeypatch.setattr(diagnostics, "BLOCK_FLOATS", 101 * 16 + 1320)
    _check_strip_summaries(_chain(101, basis60.n_modes, 12), basis60, rep)


@pytest.mark.parametrize("budget", [None, 41 * 16])
def test_strips_of_a_run_held_chain_equal_the_expanded_reference(
        basis60, rep, monkeypatch, budget):
    # 41 rows in 5 runs, in one strip or in one-row strips: the HPD bounds
    # at alpha 0 to 0.99 are those of every kept row bit for bit, and
    # the levels weighted by run length those of the expanded sample; runs
    # that store a row again tie across runs in every pixel
    if budget is not None:
        monkeypatch.setattr(diagnostics, "BLOCK_FLOATS", budget)
    rows = 0.7 * np.random.default_rng(16).standard_normal(
        (5, basis60.n_modes))
    for run in ([0, 1, 2, 3, 4], [0, 1, 0, 2, 1]):
        chain = Chain(RunMatrix(rows, np.repeat(run, [9, 8, 1, 15, 8])),
                      SamplerConfig("pcn", 41, beta=0.1, burn_in=0), 0.1)
        u = intensity_samples(chain, basis60, rep)
        u.sort(axis=0)
        for alpha in (0.0, 0.05, 0.5, 0.9, 0.99):
            lo, hi = pointwise_hpdi(chain, basis60, rep, alpha)
            ref_lo, ref_hi = hpdi_sorted(u, alpha)
            assert np.array_equal(lo.ravel(), ref_lo)
            assert np.array_equal(hi.ravel(), ref_hi)
        image = posterior_mean(chain, basis60, rep)
        level = credible_level_map(chain, basis60, rep, image).levels.ravel()
        assert np.allclose(level, credible_level(u, image.ravel()), rtol=0,
                           atol=1e-12)


def test_strip_pass_logs_one_line(basis60, rep, caplog):
    # 41 distinct rows, then the same 41 rows held as 5 runs
    chain = _chain(41, basis60.n_modes, 9)
    runs = RunMatrix(chain.samples.rows[:5],
                     np.repeat(np.arange(5), [9, 8, 8, 8, 8]))
    with caplog.at_level(logging.INFO, logger="poistomo.diagnostics"):
        pointwise_hpdi(chain, basis60, rep, 0.05)
        pointwise_hpdi(Chain(runs, chain.config, 1.0), basis60, rep, 0.05)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "poistomo.diagnostics"]
    assert lines == [f"strip pass: 41 samples, {states} states synthesized, "
                     f"256 pixels, 1 strips of {states * 256 * 8 / 2**20:.2f} "
                     f"MB" for states in (41, 5)]


# ---------------------------------------------------------------------------
# credible levels


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_credible_level_refuses_a_non_finite_value(value):
    s = np.linspace(0.0, 1.0, 50)
    with pytest.raises(ValueError, match="finite"):
        credible_level(s, value)
    with pytest.raises(ValueError, match="finite"):
        credible_level(np.column_stack([s, s]), [0.5, value])


def test_credible_level_outside_the_range_is_one():
    s = np.sort(np.random.default_rng(3).standard_normal(30))
    assert credible_level(s, s[0] - 1e-9) == 1.0
    assert credible_level(s, s[-1] + 1e-9) == 1.0
    assert credible_level(s, 50.0) == 1.0


def test_credible_level_of_a_gaussian_matches_the_closed_form():
    # the HPD region of N(0, 1) at v is |x| < |v|, of probability
    # 2 Phi(|v|) - 1; 512 columns of 4,500 samples, one value each
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4500, 512))
    v = rng.uniform(-3.5, 3.5, 512)
    true = 2.0 * ndtr(np.abs(v)) - 1.0
    err = np.abs(credible_level(x, v) - true)
    assert np.median(err) <= 0.01
    assert err[true > 0.9].max() <= 0.03


def test_credible_level_of_a_mixture_matches_the_hpd_region():
    # 0.6 N(-2, 0.6^2) + 0.4 N(1.5, 1): the true level of v is the mass of
    # the density above p(v), by quadrature on a fine grid
    rng = np.random.default_rng(5)
    n, k = 4500, 512

    def pdf(z):
        return (0.6 * np.exp(-0.5 * ((z + 2.0) / 0.6) ** 2) / 0.6
                + 0.4 * np.exp(-0.5 * (z - 1.5) ** 2)) / np.sqrt(2 * np.pi)

    first = rng.random((n, k)) < 0.6
    x = np.where(first, rng.normal(-2.0, 0.6, (n, k)),
                 rng.normal(1.5, 1.0, (n, k)))
    v = rng.uniform(-4.0, 4.5, k)
    grid = np.linspace(-9.0, 9.0, 180001)
    dens = pdf(grid)
    dens.sort()
    mass = np.append(np.cumsum(dens[::-1])[::-1] * (grid[1] - grid[0]), 0.0)
    true = mass[np.searchsorted(dens, pdf(v), side="right")]
    err = np.abs(credible_level(x, v) - true)
    assert np.median(err) <= 0.03


def _valley(level: np.ndarray) -> tuple[float, float]:
    """Largest rise before the minimum and largest fall after it."""
    low = int(np.argmin(level))
    return (np.diff(level[:low + 1]).max(initial=0.0),
            -np.diff(level[low:]).min(initial=0.0))


def test_credible_level_does_not_decrease_away_from_the_mode():
    # along 200 values over the sample range of N(0, 1), the level falls to
    # its minimum at the mode and rises on either side of it
    x = np.random.default_rng(6).standard_normal(4500)
    v = np.linspace(x.min(), x.max(), 200)
    level = credible_level(np.broadcast_to(x[:, None], (x.size, 200)), v)
    assert _valley(level) == (0.0, 0.0)
    assert level[0] > 0.99 and level[-1] > 0.99
    # a skewed marginal, gamma(3): the same below level 0.98; in the sparse
    # tail beyond it the density estimate has a bump at each isolated
    # sample, and the level dips there by a few samples
    x = np.random.default_rng(6).gamma(3.0, size=4500)
    v = np.linspace(x.min(), x.max(), 200)
    level = credible_level(np.broadcast_to(x[:, None], (x.size, 200)), v)
    assert _valley(np.minimum(level, 0.98)) == (0.0, 0.0)
    assert max(_valley(level)) <= 6 / 4500 + 1e-12


def test_credible_levels_are_multiples_of_one_over_n():
    # 7 states repeated 1..7 times each: n = 28 kept rows
    rng = np.random.default_rng(7)
    states = rng.standard_normal((7, 40))
    weights = np.arange(1, 8)
    v = rng.uniform(-2.0, 2.0, 40)
    level = credible_level(states, v, weights)
    assert np.all((level >= 0.0) & (level <= 1.0))
    assert np.allclose(level * 28, np.round(level * 28), rtol=0, atol=1e-9)
    outside = states.max(axis=0) + 1e-9
    assert np.all(credible_level(states, outside, weights) == 1.0)
    # the weights stand for repeated rows: the expanded sample agrees
    expanded = np.repeat(states, weights, axis=0)
    assert np.allclose(credible_level(expanded, v), level, rtol=0,
                       atol=1e-12)
    # weights of one each are the unweighted sample
    assert np.allclose(credible_level(states, v, np.ones(7)),
                       credible_level(states, v), rtol=0, atol=1e-12)


def test_a_chain_that_never_moves_gets_finite_summaries(basis60, rep):
    # one run of 30 rows: the mean is the state, the HPD interval is the
    # state at both ends, the level 0 at the state and 1 elsewhere
    state = 0.7 * np.random.default_rng(8).standard_normal(
        (1, basis60.n_modes))
    chain = Chain(RunMatrix(state, np.zeros(30, dtype=int)),
                  SamplerConfig("pcn", 30, beta=0.1, burn_in=0), 0.0)
    u = rep.apply(basis60.synthesize_values(state))[0]
    mean = posterior_mean(chain, basis60, rep)
    lo, hi = pointwise_hpdi(chain, basis60, rep, 0.05)
    assert np.allclose(mean.ravel(), u, rtol=1e-15, atol=0)
    assert np.array_equal(lo.ravel(), u) and np.array_equal(hi.ravel(), u)
    at = credible_level_map(chain, basis60, rep, ScalarField(basis60.grid, u))
    off = credible_level_map(chain, basis60, rep,
                             ScalarField(basis60.grid, u + 0.01))
    assert np.all(at.levels.ravel() == 0.0)
    assert np.all(off.levels.ravel() == 1.0)


def test_credible_level_map_refuses_a_non_finite_pixel_first(basis60, rep,
                                                              monkeypatch):
    # the test image is checked before run_strips synthesizes any state
    chain = _chain(10, basis60.n_modes, 10)
    values = posterior_mean(chain, basis60, rep).values.copy()
    values[3, 5] = np.nan
    synthesized = []
    monkeypatch.setattr(type(basis60), "synthesize_values",
                        lambda self, *a, **k: synthesized.append(a))
    with pytest.raises(ValueError, match="finite"):
        credible_level_map(chain, basis60, rep,
                           ScalarField(basis60.grid, values))
    assert synthesized == []


def test_credible_level_map_rejects_bad_thin_and_empty_chains(basis60, rep):
    chain = _chain(10, basis60.n_modes, 10)
    image = posterior_mean(chain, basis60, rep)
    for thin in (0, -1):
        with pytest.raises(ValueError, match="thin"):
            credible_level_map(chain, basis60, rep, image, thin=thin)
    # an empty chain cannot be made, so no pass over a chain meets one
    with pytest.raises(ValueError, match="no kept samples"):
        Chain(RunMatrix(np.empty((0, basis60.n_modes)), np.arange(0)),
              SamplerConfig("pcn", 10, beta=0.1, burn_in=0), 1.0)


# ---------------------------------------------------------------------------
# effective sample size


def test_ess_of_ar1_matches_the_closed_form():
    # x_t = s x_{t-1} + e_t has integrated time (1 + s)/(1 - s)
    n, s = 20000, 0.5
    rng = np.random.default_rng(3)
    x = lfilter([1.0], [1.0, -s], rng.standard_normal((n, 8)), axis=0)
    ratio = ess_matrix(x) / (n * (1.0 - s) / (1.0 + s))
    assert np.all(np.abs(ratio - 1.0) <= 0.15)
    assert abs(float(np.mean(ratio)) - 1.0) <= 0.05


def _fft_widths(monkeypatch) -> list:
    """Record the column count of every forward FFT the ACF loop runs."""
    widths, rfft = [], np.fft.rfft

    def counting(a, *args, **kwargs):
        widths.append(a.shape[1])
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    return widths


def _whole_acf(x, max_lag):
    """The one-transform ACF of every column at once, its power spectrum
    multiplied in place as numpy does by itself from 256 KiB."""
    nfft = next_fast_len(2 * x.shape[0], real=True)
    spec = np.fft.rfft(x - x.mean(axis=0), n=nfft, axis=0)
    power = np.conj(spec)
    power *= spec
    cov = np.fft.irfft(power, n=nfft, axis=0)[:max_lag + 1]
    return cov / cov[0]


def _ar1(n, m, seed):
    return lfilter([1.0], [1.0, -0.7],
                   np.random.default_rng(seed).standard_normal((n, m)), axis=0)


def test_blocked_ess_matches_the_whole_array_bit_for_bit(monkeypatch):
    # 1,000 steps: 10 columns per FFT block (the spectrum, its product and
    # the inverse transform of a column are 3 x 2,002 floats, in a quarter
    # of the budget), so 21 columns leave a last block of one column
    n = 1000
    cols = column_block(3 * (next_fast_len(2 * n, real=True) + 2))
    assert cols == 10
    x = _ar1(n, 2 * cols + 1, 5)
    whole = n / (1.0 + 2.0 * _tau_from_acf(_whole_acf(x, n - 1)))
    widths = _fft_widths(monkeypatch)
    assert np.array_equal(ess_matrix(x), whole)
    assert widths == [cols, cols, 1]
    one = x[:, 7].copy()
    assert np.array_equal(ess_matrix(one),
                          n / (1.0 + 2.0 * _tau_from_acf(acf_matrix(one))))
    assert ess_matrix(one).shape == (1,)


def test_blocked_acf_matches_the_whole_array_bit_for_bit(monkeypatch):
    # 1,000 steps in blocks of 10 columns, a last block of three columns
    n = 1000
    cols = column_block(3 * (next_fast_len(2 * n, real=True) + 2))
    x = _ar1(n, 2 * cols + 3, 13)
    whole = _whole_acf(x, n - 1)
    widths = _fft_widths(monkeypatch)
    for max_lag in (None, 0, 200):
        rho = acf_matrix(x, max_lag=max_lag)
        assert np.array_equal(rho, whole[:rho.shape[0]])
        assert rho.shape[0] == (n if max_lag is None else max_lag + 1)
    assert widths == 3 * [cols, cols, 3]
    # a lag beyond the chain is cut to n - 1
    assert np.array_equal(acf_matrix(x[:50, :3], max_lag=80),
                          _whole_acf(x[:50, :3], 49))


def test_acf_of_a_column_does_not_depend_on_its_block(monkeypatch):
    # one 4,500-step column's spectrum is 72 KB, under the 256 KiB from which
    # numpy multiplies spectra in place by itself; the ACF loop always does,
    # so a column alone and inside a wide block get the same bits.  At the
    # default budget no block's spectra reach 256 KiB; at 2^20 floats a
    # block holds 9 columns, 648 KB of spectra
    monkeypatch.setattr(diagnostics, "BLOCK_FLOATS", 1 << 20)
    x = _ar1(4500, 12, 15)
    rho = acf_matrix(x, max_lag=200)
    for j in (0, 7, 11):
        assert np.array_equal(rho[:, [j]], acf_matrix(x[:, [j]], max_lag=200))
    assert np.array_equal(ess_matrix(x)[[3]], ess_matrix(x[:, [3]]))


def test_fft_length_is_scipys_fast_real_length():
    # the smallest 2^a 3^b 5^c at least n: every n of a chain up to 10,000
    # steps (nfft takes 2 n), and far beyond
    rng = np.random.default_rng(16)
    for n in [*range(1, 20_001), *rng.integers(20_001, 10 ** 12, 500)]:
        assert _fast_len(int(n)) == next_fast_len(int(n), real=True), n


def test_negative_max_lag_is_refused():
    with pytest.raises(ValueError, match="max_lag"):
        acf_matrix(_ar1(100, 2, 14), max_lag=-5)


def test_posterior_mean_matches_the_sample_average_bit_for_bit(basis60, rep):
    # more rows than one synthesis block holds, ending in a partial block
    rows = block_rows(2 * basis60.n_modes + 2 * basis60.grid.npix)
    n = 2 * rows + 5
    samples = 0.7 * np.random.default_rng(6).standard_normal(
        (n, basis60.n_modes))
    chain = Chain(RunMatrix(samples, np.arange(n)),
                  SamplerConfig("pcn", n, beta=0.1, burn_in=0), 1.0)
    mean = posterior_mean(chain, basis60, rep)
    assert np.array_equal(mean.ravel(),
                          intensity_samples(chain, basis60, rep).mean(axis=0))


# ---------------------------------------------------------------------------
# memory of the passes over desk-sized chains

BUDGET_BYTES = BLOCK_FLOATS * 8
# every pass holds one budget of blocks beside the chain and its result;
# the rest is the small per-pass arrays (means, indices, the HPD widths)
PASS_BUDGETS = 1.25


def _desk_chain(rows: int, runs: int | None = None):
    """A desk chain of rows distinct kept states, or of rows in runs runs of
    random lengths."""
    cfg = parse_config(preset="desk")
    basis = build_kl_basis(cfg.grid, cfg.cov, cfg.n_modes, cfg.prior_mean)
    rng = np.random.default_rng(7)
    runs = rows if runs is None else runs
    samples = 0.5 * rng.standard_normal((runs, basis.n_modes))
    lengths = 1 + rng.multinomial(rows - runs, np.full(runs, 1 / runs))
    chain = Chain(RunMatrix(samples, np.repeat(np.arange(runs), lengths)),
                  SamplerConfig("pcn", rows, beta=0.1, burn_in=0), 1.0)
    return chain, basis, cfg


def _peak_bytes(fn, *args, **kwargs) -> int:
    """Peak traced bytes of one call, less the array it returns."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - getattr(result, "nbytes", 0)
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def desk_chain():
    return _desk_chain(4500)


def test_ess_peak_memory_stays_below_the_chain(desk_chain):
    # the FFT blocks take a quarter of the budget (two 4,500-step columns),
    # so the diag pass peaks below the strip passes, for distinct rows and
    # for rows held in runs
    chain, _, _ = desk_chain
    assert chain.samples.shape == (4500, 500)
    assert _peak_bytes(ess_matrix, chain.samples) \
        <= np.asarray(chain.samples).nbytes
    for samples in (chain.samples, _desk_chain(4500, 1800)[0].samples):
        assert _peak_bytes(ess_matrix, samples) <= 0.3 * BUDGET_BYTES


def test_posterior_mean_never_holds_every_intensity_sample(desk_chain):
    # the (4500, npix) intensity array is 35 MB; the pass holds one block
    chain, basis, cfg = desk_chain
    assert chain.samples.shape[0] * basis.grid.npix * 8 > 8 * BUDGET_BYTES
    assert _peak_bytes(posterior_mean, chain, basis, cfg.reparam) \
        <= 3 * BUDGET_BYTES


@pytest.mark.parametrize("rows, runs", [(4500, None), (9000, None),
                                        (4500, 1800)],
                         ids=["4500", "9000", "4500-1800"])
def test_every_chain_pass_stays_within_one_budget(rows, runs):
    # the (n, npix) intensity array alone is 35 MB at 4,500 samples and
    # 70 MB at 9,000; with 9,000 samples a strip is one x-row.  4,500 rows
    # in 1,800 runs lie between those and the bench tail's 9 runs: the HPD
    # pass sorts a copy of each column chunk with every run written out
    chain, basis, cfg = _desk_chain(rows, runs)
    assert rows * basis.grid.npix * 8 > 8 * BUDGET_BYTES
    op = build_radon_operator(cfg.grid, cfg.n_angles, cfg.n_det, cfg.kappa)
    sino = simulate_data(op, brain_phantom(cfg.grid),
                         np.random.default_rng(8))
    post = TGPosterior(op, cfg.reparam, basis, sino, tv_weight=1.0)
    rep, image = cfg.reparam, posterior_mean(chain, basis, cfg.reparam)
    passes = {
        "posterior_mean": (posterior_mean, chain, basis, rep),
        "pointwise_hpdi": (pointwise_hpdi, chain, basis, rep, 0.05),
        "pointwise_hpdi 0.32": (pointwise_hpdi, chain, basis, rep, 0.32),
        "pointwise_hpdi 0.5": (pointwise_hpdi, chain, basis, rep, 0.5),
        "credible_level_map": (credible_level_map, chain, basis, rep, image),
        "ess_matrix": (ess_matrix, chain.samples),
        "acf_matrix": (acf_matrix, chain.samples),
        "posterior_predictive_p": (posterior_predictive_p, chain, post),
    }
    for name, (fn, *args) in passes.items():
        assert _peak_bytes(fn, *args) <= PASS_BUDGETS * BUDGET_BYTES, name


def test_bench_chain_tail_never_holds_the_dense_chain():
    # a desk chain of 4,500 kept states in 9 runs, as a sticky pdpcn chain
    # keeps them: the dense samples would be 18 MB, the tail's passes read
    # blocks gathered from the 9 stored rows
    cfg = parse_config(preset="desk")
    basis = build_kl_basis(cfg.grid, cfg.cov, cfg.n_modes, cfg.prior_mean)
    rng = np.random.default_rng(17)
    samples = RunMatrix(0.5 * rng.standard_normal((9, basis.n_modes)),
                        np.repeat(np.arange(9), 500))
    chain = Chain(samples, SamplerConfig("pcn", 4500, beta=0.1, burn_in=0),
                  0.002)
    dense = chain.n_kept * chain.n_modes * 8
    rep = cfg.reparam
    mean = posterior_mean(chain, basis, rep)
    tail = {
        "posterior_mean": lambda: posterior_mean(chain, basis, rep),
        "pointwise_hpdi": lambda: pointwise_hpdi(chain, basis, rep, 0.05),
        "credible_level_map": lambda: credible_level_map(
            chain, basis, rep, mean, thin=cfg.detect_thin),
        "ess_matrix": lambda: ess_matrix(chain.samples),
        "acf_matrix": lambda: acf_matrix(chain.samples[:, :8], max_lag=200),
    }
    for name, fn in tail.items():
        assert _peak_bytes(fn) < dense / 3, name


@pytest.mark.parametrize("preset, rows, runs, strips", [
    ("desk", 4500, 9, 1), ("desk", 4500, 4500, 32), ("paper", 180, 121, 16)])
def test_strip_count_follows_the_distinct_states(preset, rows, runs, strips):
    # a strip holds each run once, so the bench-shaped desk chain (9 runs of
    # 500 rows) takes one strip, and the synthesis takes what it leaves
    cfg = parse_config(preset=preset)
    basis = build_kl_basis(cfg.grid, cfg.cov, cfg.n_modes, cfg.prior_mean)
    samples = RunMatrix(np.zeros((runs, basis.n_modes)),
                        np.arange(rows) * runs // rows)
    passes = list(run_strips(samples, basis, cfg.reparam))
    assert len(passes) == strips
    # the lengths are None exactly when every run is one row
    for _, _, lengths in passes:
        assert (lengths is None) == (runs == rows)
        assert lengths is None or lengths.sum() == rows
