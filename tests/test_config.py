"""Run configuration: pinned hashes, the written-file round trip, and the
refusals of unknown names and bad values."""

import inspect
from pathlib import Path

import pytest

from poistomo import (AdmmConfig, CovarianceSpec, Reparam, SamplerConfig,
                     TGPosterior, admissible_search, build_kl_basis,
                     build_radon_operator, credible_level_map, select_lambda)
from poistomo.calibrate import admissible_interval
from poistomo.config import (_KEYS, PRESETS, ConfigError, parse_config,
                             write_config)

TINY = Path(__file__).resolve().parents[1] / "bench" / "tiny.ini"

# the hash is what reproducibility is stated against: a change to a default,
# a preset, a parser or the canonical form moves it.  Cases are named by
# their config, so a restated digest keeps the test's name.
PINNED = [
    pytest.param(
        {"preset": "desk"},
        "e2d0ef5f9a19ff4a6019c9f0dc832a70b1d8a5827c02a560ca2743fed26c1312",
        id="desk"),
    pytest.param(
        {"preset": "paper"},
        "95e40f088f950b5405be616ed2aff6550110e58f858cae16866a7139483b2941",
        id="paper"),
    pytest.param(
        {"path": TINY, "overrides": {"sampler": {"seed": 3}}},
        "a67057ab216bcc7127bcd8979a4bd7fe932db9cda39bb2707a1658d155b6b9ca",
        id="tiny-seed3"),
]


@pytest.mark.parametrize("kwargs, digest", PINNED)
def test_config_hash_is_pinned(kwargs, digest):
    assert parse_config(**kwargs).config_hash() == digest


@pytest.mark.parametrize("kwargs, digest", PINNED)
def test_written_config_reproduces_the_hash(tmp_path, kwargs, digest):
    path = tmp_path / "effective.ini"
    write_config(parse_config(**kwargs), path)
    assert parse_config(path=path).config_hash() == digest


def _ini(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("section, key, unknown", [
    ("mapp", "tol", "[mapp]"),
    ("map", "toll", "'toll' in [map]"),
], ids=["section", "key"])
def test_unknown_names_are_refused(tmp_path, section, key, unknown):
    path = _ini(tmp_path, f"[{section}]\n{key} = 1e-4\n")
    for kwargs in ({"path": path}, {"overrides": {section: {key: "1e-4"}}}):
        with pytest.raises(ConfigError) as err:
            parse_config(**kwargs)
        assert unknown in str(err.value)


def test_unknown_preset_is_refused():
    with pytest.raises(ConfigError, match="preset"):
        parse_config(preset="huge")


# the other keys a bad value is bad with, named by the error too
_BAD_WITH = {("calibration", "chain_steps", "9"): {"sampler": {"beta": "none"}}}


@pytest.mark.parametrize("section, key, raw", [
    ("map", "tol", "small"),                # does not parse
    ("map", "rho_pen", "-1"),               # out of range
    ("sampler", "beta", "maybe"),           # neither a float nor none
    ("sampler", "thinning", "18001"),       # keeps none of 18,000 steps
    ("sampler", "seed", "-1"),              # outside [0, 2**63)
    ("sampler", "seed", str(2 ** 63)),
    ("calibration", "max_eval_samples", "0"),
    ("calibration", "max_eval_samples", "-3"),
    ("calibration", "denominator", "pearson"),
    ("calibration", "weight_grid", "0.0, 1.0, 1.0"),    # a repeated weight
    ("calibration", "weight_grid", "1.0, 0.0"),         # decreasing
    ("calibration", "weight_grid", "-1.0, 1.0"),        # a negative weight
    ("calibration", "chain_steps", "9"),    # beta none: no sweep burn-in
    ("calibration", "select_iters", "0"),
    ("calibration", "select_inner_steps", "0"),
    ("prior", "n_modes", "0"),
    ("prior", "n_modes", "1025"),           # the desk grid has 1,024 pixels
    ("operator", "n_angles", "0"),
    ("operator", "kappa", "0"),
    ("model", "tv_weight", "-1"),
    ("detect", "thin", "0"),
    ("model", "tv_weight", "nan"),          # not finite: every float key
    ("operator", "kappa", "nan"),
    ("reparam", "c", "nan"),
    ("map", "tol", "nan"),
    ("prior", "gamma", "inf"),
    ("prior", "mean", "nan"),
    ("calibration", "weight_grid", "0.0, inf"),
    ("sampler", "kind", "pcnl"),            # retired: pdpcn at a zero anchor
])
def test_bad_value_names_its_section_and_key(tmp_path, section, key, raw):
    also = _BAD_WITH.get((section, key, raw), {})
    layers = {**also, section: {**also.get(section, {}), key: raw}}
    path = _ini(tmp_path, "".join(
        f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
        for s, kv in layers.items()))
    for kwargs in ({"path": path}, {"overrides": layers}):
        with pytest.raises(ConfigError) as err:
            parse_config(**kwargs)
        for s, kv in layers.items():
            assert f"[{s}]" in str(err.value)
            assert all(k in str(err.value) for k in kv)


@pytest.mark.parametrize("band, ok", [
    ((0.1, 0.7), True),
    ((0.0, 0.7), True),         # a band may reach 0 and 1
    ((0.1, 1.0), True),
    ((0.0, 1.0), True),
    ((0.7, 0.1), False),        # reversed
    ((0.5, 0.5), False),        # empty
    ((-0.1, 0.7), False),       # out of [0, 1]
    ((0.1, 1.5), False),
], ids=["default", "lo0", "hi1", "lo0-hi1", "reversed", "empty", "lo-neg",
        "hi-over1"])
def test_calibration_band_follows_the_library_rule(band, ok):
    # the config refuses exactly the bands admissible_interval refuses, so
    # a band the library brackets is one calibrate can be given
    lo, hi = band
    overrides = {"calibration": {"band_lo": repr(lo), "band_hi": repr(hi)}}
    if ok:
        assert parse_config(overrides=overrides).calibration.band == band
        admissible_interval([0.0, 1.0], [0.9, 0.05], band)
        return
    with pytest.raises(ConfigError, match=r"\[calibration\] band"):
        parse_config(overrides=overrides)
    with pytest.raises(ValueError, match="band"):
        admissible_interval([0.0, 1.0], [0.9, 0.05], band)


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


# (section, key) -> the library callable and parameter that the key's value
# feeds, wherever both give a default
_LIBRARY_DEFAULTS = {
    **{("reparam", k): (Reparam, k) for k in ("a", "b", "c")},
    **{("map", k): (AdmmConfig, k) for k in _KEYS["map"]},
    **{("sampler", k): (SamplerConfig, k)
       for k in ("burn_in", "thinning", "seed", "beta", "delta")},
    ("prior", "gamma"): (CovarianceSpec, "gamma"),
    ("prior", "corr_len"): (CovarianceSpec, "corr_len"),
    ("prior", "mean"): (build_kl_basis, "mean"),
    ("operator", "kappa"): (build_radon_operator, "kappa"),
    ("model", "tv_weight"): (TGPosterior, "tv_weight"),
    ("calibration", "chain_steps"): (admissible_search, "chain_steps"),
    ("calibration", "max_eval_samples"): (admissible_search,
                                          "max_eval_samples"),
    ("calibration", "denominator"): (admissible_search, "denominator"),
    ("calibration", "select_iters"): (select_lambda, "n_iters"),
    ("calibration", "select_inner_steps"): (select_lambda, "inner_steps"),
    ("detect", "thin"): (credible_level_map, "thin"),
}


def test_raw_defaults_are_the_library_defaults():
    # one default per setting: a key's raw default parses to the default of
    # the library parameter it feeds.  The one difference is deliberate: a
    # posterior built without a weight has no TV term, while a run's model
    # has weight 1
    differ = {}
    for (section, key), (fn, name) in _LIBRARY_DEFAULTS.items():
        conv, raw = _KEYS[section][key]
        if conv(raw) != _default(fn, name):
            differ[section, key] = (conv(raw), _default(fn, name))
    assert differ == {("model", "tv_weight"): (1.0, 0.0)}
    band = tuple(conv(raw) for conv, raw in (_KEYS["calibration"]["band_lo"],
                                             _KEYS["calibration"]["band_hi"]))
    assert band == _default(admissible_search, "band")


def test_no_cap_on_evaluation_samples():
    cfg = parse_config(overrides={"calibration": {"max_eval_samples": "none"}})
    assert cfg.calibration.max_eval_samples is None


def test_none_stepsize_is_tuned_in_the_burn_in(tmp_path):
    # "none" is a stepsize the chain tunes in its burn-in, so it survives the
    # written config and needs a burn-in
    cfg = parse_config(overrides={"sampler": {"delta": "none"}})
    assert cfg.sampler.delta is None
    assert cfg.canonical["sampler"]["delta"] == "none"
    path = tmp_path / "effective.ini"
    write_config(cfg, path)
    assert parse_config(path=path).sampler.delta is None
    with pytest.raises(ConfigError, match=r"\[sampler\] delta none"):
        parse_config(overrides={"sampler": {"delta": "none", "burn_in": "0"}})


@pytest.mark.parametrize("preset, burn_in", [("desk", 2000), ("paper", 50000)])
def test_presets_leave_the_stepsizes_to_the_burn_in(preset, burn_in):
    # no preset sets a stepsize: both are tuned in a burn-in of a tenth of
    # the run unless a file or an override fixes them
    assert not {"beta", "delta"} & set(PRESETS[preset].get("sampler", {}))
    sampler = parse_config(preset=preset).sampler
    assert (sampler.beta, sampler.delta) == (None, None)
    assert sampler.burn_in == burn_in


def test_a_short_run_set_alone_takes_a_tenth_as_burn_in():
    cfg = parse_config(overrides={"sampler": {"n_samples": "1000"}})
    assert cfg.sampler.burn_in == 100
    assert cfg.canonical["sampler"]["burn_in"] == "none"
