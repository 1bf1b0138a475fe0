"""Typed run configuration parsed from INI files.

A run is described by a flat INI file layered on top of a named preset:
preset defaults, then the file, then explicit overrides (the CLI uses this
for --seed).  Unknown sections or keys are hard errors so that a typo never
silently falls back to a default.  What a run can work out defaults to
"none": the stepsizes are tuned in the burn-in, a tenth of the run.  The
canonical form of the merged configuration, and the hash derived from it,
are what reproducibility guarantees are stated against.  parse_config
checks only the file; each value rule is the library's, which it calls.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field

from .admm import AdmmConfig
from .calibrate import _check_band, _check_denominator, _check_grid
from .fields import Grid
from .forward import Reparam, _check_geometry
from .klbasis import CovarianceSpec, _check_n_modes
from .posterior import _check_tv_weight
from .samplers import SamplerConfig, _check_counts

__all__ = [
    "ConfigError",
    "CalibrationSettings",
    "RunConfig",
    "PRESETS",
    "parse_config",
    "write_config",
]


class ConfigError(ValueError):
    """Raised for any malformed, unknown, or out-of-range configuration."""


def _optional(conv):
    """A parser that reads "none" (or nothing) as None and the rest by conv."""
    return lambda s: None if s.strip().lower() in ("", "none") else conv(s)


def _finite(raw: str) -> float:
    """The float of every float key: nan and infinities are refused."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def _parse_float_list(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(_finite(p) for p in parts)


# section -> key -> (parser, default), defaults as raw INI strings.  The keys
# of grid, reparam, map and sampler are the fields of the dataclass their
# section builds.
_KEYS = {
    "grid": {"nx": (int, "32"), "ny": (int, "32")},
    "reparam": {"a": (_finite, "2.0"), "b": (_finite, "2.0"), "c": (_finite, "1.0")},
    "prior": {"gamma": (_finite, "2.0"), "corr_len": (_finite, "1e-3"),
              "n_modes": (int, "500"), "mean": (_finite, "0.0")},
    "operator": {"n_angles": (int, "30"), "n_det": (int, "32"),
                 "kappa": (_finite, "1.0")},
    "model": {"tv_weight": (_finite, "1.0")},
    "sampler": {"kind": (str, "pdpcn"), "n_samples": (int, "20000"),
                "burn_in": (_optional(int), "none"), "thinning": (int, "1"),
                "beta": (_optional(_finite), "none"),
                "delta": (_optional(_finite), "none"), "seed": (int, "0")},
    "map": {"rho_pen": (_finite, "1.0"), "max_outer": (int, "200"),
            "tol": (_finite, "1e-4"), "inner_iters": (int, "50"),
            "inner_tol": (_finite, "1e-6")},
    "calibration": {"weight_grid": (_parse_float_list, "0.0, 1.0, 2.0, 3.0"),
                    "chain_steps": (int, "20000"), "band_lo": (_finite, "0.1"),
                    "band_hi": (_finite, "0.7"), "denominator": (str, "theta"),
                    "max_eval_samples": (_optional(int), "2000"),
                    "select_iters": (int, "60"),
                    "select_inner_steps": (int, "200")},
    "detect": {"thin": (int, "1")},
}

# Presets are overlays on the defaults in _KEYS, and neither sets a stepsize.
# "desk" is sized to run in seconds on one core and keeps every tenth state.
# "paper" reproduces the full-scale tomography setup (128x128 image, 60
# projection angles, half-strength source, long chains).
PRESETS = {
    "desk": {"sampler": {"thinning": "10"}},
    "paper": {
        "grid": {"nx": "128", "ny": "128"},
        "prior": {"n_modes": "6000"},
        "operator": {"n_angles": "60", "n_det": "128", "kappa": "0.5"},
        "model": {"tv_weight": "2.4"},
        "sampler": {"n_samples": "550000", "burn_in": "50000"},
        "calibration": {"weight_grid": "0.0, 1.0, 2.0, 3.0, 4.0, 5.0",
                        "chain_steps": "100000"},
    },
}


@dataclass(frozen=True)
class CalibrationSettings:
    weight_grid: tuple[float, ...]
    chain_steps: int
    band: tuple[float, float]
    denominator: str
    max_eval_samples: int | None
    select_iters: int
    select_inner_steps: int

    def __post_init__(self):
        _check_grid(self.weight_grid)
        _check_band(self.band)
        _check_denominator(self.denominator)
        _check_counts(max_eval_samples=self.max_eval_samples,
                      select_iters=self.select_iters,
                      select_inner_steps=self.select_inner_steps)


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    reparam: Reparam
    cov: CovarianceSpec
    n_modes: int
    prior_mean: float
    n_angles: int
    n_det: int
    kappa: float
    tv_weight: float
    sampler: SamplerConfig
    admm: AdmmConfig
    calibration: CalibrationSettings
    detect_thin: int
    canonical: dict = field(repr=False, compare=False)

    def config_hash(self) -> str:
        """Hex sha256 of the canonical key=value lines."""
        lines = []
        for section in sorted(self.canonical):
            for key in sorted(self.canonical[section]):
                lines.append(f"{section}.{key}={self.canonical[section][key]}")
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _canonical_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


def _layer(merged: dict, layer: dict, where: str) -> None:
    """Overlay one layer of raw values; unknown sections and keys raise."""
    for section, kv in layer.items():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}] in {where}; "
                              f"known sections: {sorted(_KEYS)}")
        for key, raw in kv.items():
            if key not in _KEYS[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}] of {where}; "
                    f"known keys: {sorted(_KEYS[section])}")
            merged[section][key] = str(raw)


def _merge_layers(preset: str, path, overrides) -> dict:
    if preset not in PRESETS:
        raise ConfigError(
            f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    merged = {s: {k: d for k, (_, d) in kv.items()} for s, kv in _KEYS.items()}
    _layer(merged, PRESETS[preset], f"preset {preset!r}")
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        _layer(merged, {s: dict(parser.items(s)) for s in parser.sections()},
               f"config file {path}")
    _layer(merged, overrides or {}, "overrides")
    return merged


def parse_config(path=None, preset: str = "desk", overrides=None) -> RunConfig:
    """Build a validated RunConfig from preset + optional file + overrides."""
    merged = _merge_layers(preset, path, overrides)

    parsed: dict = {}
    for section, keys in _KEYS.items():
        parsed[section] = {}
        for key, (conv, _default) in keys.items():
            raw = merged[section][key]
            try:
                parsed[section][key] = conv(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"[{section}] {key}: cannot parse {raw!r}: {exc}") from exc

    canonical = {
        section: {key: _canonical_value(val) for key, val in kv.items()}
        for section, kv in parsed.items()
    }

    def build(where, ctor, *args, **kwargs):
        try:
            return ctor(*args, **kwargs)
        except ValueError as exc:
            raise ConfigError(f"{where} {exc}") from exc

    grid = build("[grid]", Grid, **parsed["grid"])
    rep = build("[reparam]", Reparam, **parsed["reparam"])
    p = parsed["prior"]
    cov = build("[prior]", CovarianceSpec, gamma=p["gamma"],
                corr_len=p["corr_len"])
    build("[prior]", _check_n_modes, p["n_modes"], grid)
    o = parsed["operator"]
    build("[operator]", _check_geometry, **o)
    m = parsed["model"]
    build("[model]", _check_tv_weight, **m)
    sampler = build("[sampler]", SamplerConfig, **parsed["sampler"])
    admm = build("[map]", AdmmConfig, **parsed["map"])
    c = dict(parsed["calibration"])
    band = (c.pop("band_lo"), c.pop("band_hi"))
    calibration = build("[calibration]", CalibrationSettings, band=band, **c)
    # the sweep's chain config, as admissible_search builds it
    build("[calibration] chain_steps (n_samples) with [sampler] beta:",
          SamplerConfig, "pcn", calibration.chain_steps, beta=sampler.beta)
    d = parsed["detect"]
    build("[detect]", _check_counts, **d)

    return RunConfig(grid=grid, reparam=rep, cov=cov, n_modes=p["n_modes"],
                     prior_mean=p["mean"], n_angles=o["n_angles"],
                     n_det=o["n_det"], kappa=o["kappa"],
                     tv_weight=m["tv_weight"], sampler=sampler, admm=admm,
                     calibration=calibration, detect_thin=d["thin"],
                     canonical=canonical)


def write_config(cfg: RunConfig, path) -> None:
    """Dump the effective configuration as a normalized INI file."""
    parser = configparser.ConfigParser(interpolation=None)
    for section in sorted(cfg.canonical):
        parser[section] = {k: cfg.canonical[section][k]
                           for k in sorted(cfg.canonical[section])}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
