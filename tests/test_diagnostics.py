"""Summary and screening tests.

HPD windows are checked against hand-made samples, the per-pixel intervals
against the one-dimensional window search, credible levels against the
symmetric quantile sample whose answers are known in closed form, and the
effective sample size against the AR(1) formula.  The blocked passes are
checked bit for bit against their unblocked forms, and their memory peaks
(tracemalloc) on a desk-sized chain against fixed multiples of its size.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.signal import lfilter
from scipy.special import ndtri

from poistomo import build_kl_basis, parse_config
from poistomo.artifacts import credible_level, credible_level_map
from poistomo.diagnostics import (_nfft, _tau_from_acf, acf_matrix,
                                  block_rows, ess_matrix, hpdi_sorted,
                                  intensity_samples, pointwise_hpdi,
                                  posterior_mean)
from poistomo.samplers import Chain, SamplerConfig

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
    chain = Chain(0.7 * rng.standard_normal((40, basis60.n_modes)),
                  SamplerConfig("pcn", 40, burn_in=0), 1.0)
    lo, hi = pointwise_hpdi(chain, basis60, rep, 0.05)
    u = intensity_samples(chain, basis60, rep)
    for j in range(basis60.grid.npix):
        assert (lo.ravel()[j], hi.ravel()[j]) == \
            hpdi_sorted(np.sort(u[:, j]), 0.05)


# ---------------------------------------------------------------------------
# credible levels


def test_credible_level_outside_the_range_is_one():
    s = np.sort(np.random.default_rng(3).standard_normal(30))
    assert credible_level(s, s[0] - 1e-9) == 1.0
    assert credible_level(s, s[-1] + 1e-9) == 1.0
    assert credible_level(s, 50.0) == 1.0


def test_credible_level_known_answers_at_resolution_one_over_n():
    # on the symmetric quantile sample q, a value between q[50+j] and
    # q[51+j] first enters the narrowest (centered) window when that window
    # reaches q[51+j]: 2(j+1) points of 101, and likewise below the median
    n = 101
    q = ndtri((np.arange(n) + 0.5) / n)
    for j in (0, 1, 5, 10, 30, 49):
        above = 0.5 * (q[50 + j] + q[51 + j])
        below = 0.5 * (q[50 - j] + q[49 - j])
        assert credible_level(q, above) == pytest.approx(2 * (j + 1) / n)
        assert credible_level(q, below) == pytest.approx(2 * (j + 1) / n)
    rng = np.random.default_rng(4)
    for v in rng.uniform(q[0], q[-1], size=20):
        level = credible_level(q, v)
        assert 0.0 < level <= 1.0
        assert level * n == pytest.approx(round(level * n), abs=1e-9)


def test_credible_level_of_a_sample_value_skips_size_one_windows():
    # every size-1 window has width 0, so none counts as containing a value
    # that equals a sample: the median and its neighbour need two points
    n = 101
    q = ndtri((np.arange(n) + 0.5) / n)
    for i, points in ((50, 2), (51, 2), (55, 10), (60, 20), (70, 40)):
        assert credible_level(q, q[i]) == pytest.approx(points / n)


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


def test_blocked_ess_matches_the_whole_array_bit_for_bit():
    # 4,500 steps: 32 columns per FFT block, so 65 columns leave a last
    # block of one column
    n = 4500
    cols = block_rows(_nfft(n))
    x = lfilter([1.0], [1.0, -0.7],
                np.random.default_rng(5).standard_normal((n, 2 * cols + 1)),
                axis=0)
    assert x.shape[1] % cols == 1
    whole = n / (1.0 + 2.0 * _tau_from_acf(acf_matrix(x)))
    assert np.array_equal(ess_matrix(x), whole)
    one = x[:, 7].copy()
    assert np.array_equal(ess_matrix(one),
                          n / (1.0 + 2.0 * _tau_from_acf(acf_matrix(one))))
    assert ess_matrix(one).shape == (1,)


def test_posterior_mean_matches_the_sample_average_bit_for_bit(basis60, rep):
    # more rows than one synthesis block holds, ending in a partial block
    rows = block_rows(basis60.grid.npix)
    n = 2 * rows + 5
    chain = Chain(0.7 * np.random.default_rng(6).standard_normal(
        (n, basis60.n_modes)), SamplerConfig("pcn", n, burn_in=0), 1.0)
    mean = posterior_mean(chain, basis60, rep)
    assert np.array_equal(mean.ravel(),
                          intensity_samples(chain, basis60, rep).mean(axis=0))


# ---------------------------------------------------------------------------
# memory of the summaries on a desk-sized chain


@pytest.fixture(scope="module")
def desk_chain():
    cfg = parse_config(preset="desk")
    basis = build_kl_basis(cfg.grid, cfg.cov, cfg.n_modes, cfg.prior_mean)
    samples = 0.5 * np.random.default_rng(7).standard_normal(
        (4500, basis.n_modes))
    chain = Chain(samples, SamplerConfig("pcn", 4500, burn_in=0), 1.0)
    return chain, basis, cfg.reparam


def _peak_bytes(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ess_peak_memory_stays_below_the_chain(desk_chain):
    chain, _, _ = desk_chain
    assert chain.samples.shape == (4500, 500)
    assert _peak_bytes(ess_matrix, chain.samples) <= chain.samples.nbytes


def test_posterior_mean_never_holds_every_intensity_sample(desk_chain):
    chain, basis, rep = desk_chain
    intensities = chain.n_kept * basis.grid.npix * 8
    assert _peak_bytes(posterior_mean, chain, basis, rep) \
        <= 0.75 * intensities


def test_hpd_and_levels_hold_one_intensity_array(desk_chain):
    chain, basis, rep = desk_chain
    intensities = chain.n_kept * basis.grid.npix * 8
    assert _peak_bytes(pointwise_hpdi, chain, basis, rep, 0.05) \
        <= 1.5 * intensities
    image = posterior_mean(chain, basis, rep)
    assert _peak_bytes(credible_level_map, chain, basis, rep, image) \
        <= 1.5 * intensities
