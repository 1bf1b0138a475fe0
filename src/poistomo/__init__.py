"""Bayesian reconstruction of positive images from Poisson count data.

The pieces fit together as: a pixel grid and Karhunen-Loeve basis describe a
Gaussian reference field; a pointwise error-function map squashes it into a
strictly positive intensity band; a ray-transform operator predicts Poisson
means; the posterior combines the count likelihood with an optional total
variation penalty.  MAP estimates come from an operator-splitting solver,
samples from two preconditioned Crank-Nicolson chains (pcn, and pdpcn, whose
drift is the likelihood gradient plus an offset from the MAP multiplier), a
posterior-predictive fit test calibrates the smoothing weight, and
credible-level maps flag unsupported structure in images.
"""

from .admm import AdmmConfig, MapResult, offset_direction, solve_map
from .artifacts import (CredibleLevelMap, credible_level, credible_level_map,
                        inject_artifact)
from .calibrate import (CalibrationResult, SelectionResult,
                        admissible_interval, admissible_search,
                        chi2_discrepancy, chi2_sf, posterior_predictive_p,
                        select_lambda)
from .config import ConfigError, RunConfig, parse_config
from .diagnostics import (acf_matrix, ess_matrix, hpdi_sorted,
                          intensity_samples, pointwise_hpdi, posterior_mean)
from .fields import Grid, ScalarField, psnr, read_field_csv, write_field_csv
from .forward import (RadonOperator, Reparam, Sinogram, build_radon_operator,
                      read_sinogram_bin, simulate_data, write_sinogram_bin)
from .klbasis import CovarianceSpec, KLBasis, build_kl_basis
from .phantom import brain_phantom
from .posterior import TGPosterior
from .samplers import (Chain, ChainDivergence, SamplerConfig, anchor_from_map,
                       chain_states, load_chain, run_chain, stream_chain,
                       walk_chain)

__version__ = "0.1.0"

__all__ = [
    "AdmmConfig", "MapResult", "offset_direction", "solve_map",
    "CredibleLevelMap", "credible_level", "credible_level_map",
    "inject_artifact",
    "CalibrationResult", "SelectionResult", "admissible_interval",
    "admissible_search", "chi2_discrepancy", "chi2_sf",
    "posterior_predictive_p", "select_lambda",
    "ConfigError", "RunConfig", "parse_config",
    "acf_matrix", "ess_matrix", "hpdi_sorted", "intensity_samples",
    "pointwise_hpdi", "posterior_mean",
    "Grid", "ScalarField", "psnr", "read_field_csv", "write_field_csv",
    "RadonOperator", "Reparam", "Sinogram", "build_radon_operator",
    "read_sinogram_bin", "simulate_data", "write_sinogram_bin",
    "CovarianceSpec", "KLBasis", "build_kl_basis",
    "brain_phantom",
    "TGPosterior",
    "Chain", "ChainDivergence", "SamplerConfig", "anchor_from_map",
    "chain_states", "load_chain", "run_chain", "stream_chain", "walk_chain",
    "__version__",
]
