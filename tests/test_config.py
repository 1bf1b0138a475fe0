"""Run configuration: pinned hashes, the written-file round trip, and the
refusals of unknown names and bad values."""

from pathlib import Path

import pytest

from poistomo.config import ConfigError, parse_config, write_config

TINY = Path(__file__).resolve().parents[1] / "bench" / "tiny.ini"

# the hash is what reproducibility is stated against: a change to a default,
# a preset, a parser or the canonical form moves it
PINNED = [
    ({"preset": "desk"},
     "5e781cdae2e35bf86f5f67c964c1592b0cc8691dc8b2e3854498baefd30e2605"),
    ({"preset": "paper"},
     "83081ed64a42258ed3bf82d02f33ccb50c291eaf61f7dd6102f80bbafffa4196"),
    ({"path": TINY, "overrides": {"sampler": {"seed": 3}}},
     "bb392bfcc4eea8e5205c678165bde56107c3a87f797567dc56938383ed2bc1a8"),
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


@pytest.mark.parametrize("section, key, raw", [
    ("map", "tol", "small"),                # does not parse
    ("map", "rho_pen", "-1"),               # out of range
    ("sampler", "autotune", "maybe"),
    ("sampler", "thinning", "18001"),       # keeps none of 18,000 steps
    ("sampler", "seed", "-1"),              # outside [0, 2**63)
    ("sampler", "seed", str(2 ** 63)),
    ("calibration", "max_eval_samples", "0"),
    ("calibration", "max_eval_samples", "-3"),
    ("calibration", "denominator", "pearson"),
])
def test_bad_value_names_its_section_and_key(tmp_path, section, key, raw):
    path = _ini(tmp_path, f"[{section}]\n{key} = {raw}\n")
    for kwargs in ({"path": path}, {"overrides": {section: {key: raw}}}):
        with pytest.raises(ConfigError) as err:
            parse_config(**kwargs)
        assert f"[{section}]" in str(err.value)
        assert key in str(err.value)


def test_no_cap_on_evaluation_samples():
    cfg = parse_config(overrides={"calibration": {"max_eval_samples": "none"}})
    assert cfg.calibration.max_eval_samples is None
