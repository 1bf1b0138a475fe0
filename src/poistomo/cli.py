"""Command-line pipeline: phantom -> simulate -> calibrate/sample ->
summarize / detect / diag.

Every subcommand reads the same layered configuration (preset, optional INI
file, --seed override) and writes its products plus a manifest of sha256
hashes into the output directory.  Outputs are deterministic functions of
configuration and seed, so rerunning a command reproduces its files byte for
byte; the manifests make drift detectable.  Each manifest also records the
command's cost, its wall time ``wall_s`` and the process's peak resident
memory ``peak_rss_mb``, which vary from run to run.

Exit codes: 0 success, 2 for configuration or input validation errors,
3 for runtime failures (solver breakdown, unreadable files, diverged chains).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import resource
import sys
import time
from pathlib import Path

import numpy as np

from .admm import solve_map, write_residual_csv
from .artifacts import credible_level_map, inject_artifact, write_level_map
from .calibrate import (admissible_search, select_lambda,
                        write_calibration_csv, write_selection_csv)
from .config import ConfigError, RunConfig, parse_config, write_config
from .diagnostics import (acf_matrix, ess_matrix, pointwise_hpdi,
                          posterior_mean, write_acf_csv, write_ess_csv)
from .fields import (ScalarField, psnr, read_field_csv, write_field_csv,
                     write_pgm)
from .forward import (build_radon_operator, read_sinogram_bin, simulate_data,
                      write_geometry_manifest, write_sinogram_bin,
                      write_sinogram_csv)
from .klbasis import build_kl_basis
from .phantom import brain_phantom
from .posterior import TGPosterior
from .samplers import anchor_from_map, load_chain, stream_chain, tune_stepsize

log = logging.getLogger(__name__)

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_RUNTIME = 3


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(args, outdir: Path, cfg: RunConfig, inputs: dict,
                    outputs: list, extra: dict | None = None) -> Path:
    # ru_maxrss counts KiB on Linux
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    body = {
        "command": args.command,
        "config_hash": cfg.config_hash(),
        "inputs": {name: _sha256(Path(p)) for name, p in inputs.items()},
        "outputs": {name: _sha256(outdir / name) for name in outputs},
        "wall_s": time.perf_counter() - args.started,
        "peak_rss_mb": peak_kib / 1024,
    }
    if extra:
        body.update(extra)
    path = outdir / f"{args.command}_manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _load_cfg(args) -> RunConfig:
    overrides = {}
    if args.seed is not None:
        overrides["sampler"] = {"seed": str(args.seed)}
    return parse_config(path=args.config, preset=args.preset,
                        overrides=overrides)


def _outdir(args) -> Path:
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _operator(cfg: RunConfig):
    return build_radon_operator(cfg.grid, cfg.n_angles, cfg.n_det, cfg.kappa)


def _basis(cfg: RunConfig):
    return build_kl_basis(cfg.grid, cfg.cov, cfg.n_modes, cfg.prior_mean)


def _read_sinogram(path: Path, cfg: RunConfig):
    sino = read_sinogram_bin(path)
    if sino.n_angles != cfg.n_angles or sino.n_det != cfg.n_det:
        raise ValueError(
            f"sinogram geometry ({sino.n_angles} angles, {sino.n_det} bins) "
            f"does not match config ({cfg.n_angles}, {cfg.n_det})")
    return sino


def _chain_path(args, outdir: Path) -> Path:
    return Path(args.chain) if args.chain else outdir / "chain.bin"


def _load_basis_chain(path: Path, cfg: RunConfig):
    """load_chain, refusing a chain whose modes are not the basis's."""
    chain = load_chain(path)
    if chain.n_modes != cfg.n_modes:
        raise ValueError(
            f"chain has {chain.n_modes} modes, basis has {cfg.n_modes}")
    return chain


def cmd_phantom(args) -> int:
    cfg = _load_cfg(args)
    outdir = _outdir(args)
    truth = brain_phantom(cfg.grid, low=cfg.reparam.bounds[0] + 0.05,
                          high=cfg.reparam.bounds[1] - 0.05)
    write_field_csv(truth, outdir / "phantom.csv")
    write_pgm(truth, outdir / "phantom.pgm")
    write_config(cfg, outdir / "effective_config.ini")
    _write_manifest(args, outdir, cfg, {},
                    ["phantom.csv", "phantom.pgm", "effective_config.ini"])
    print(f"phantom written to {outdir}")
    return _EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    outdir = _outdir(args)
    phantom_path = Path(args.phantom) if args.phantom else outdir / "phantom.csv"
    truth = read_field_csv(phantom_path, cfg.grid)
    op = _operator(cfg)
    rng = np.random.default_rng(cfg.sampler.seed)
    sino = simulate_data(op, truth, rng)
    write_sinogram_bin(sino, outdir / "sinogram.bin")
    write_sinogram_csv(sino, outdir / "sinogram.csv")
    write_geometry_manifest(op, outdir / "geometry.json")
    _write_manifest(args, outdir, cfg,
                    {"phantom.csv": phantom_path},
                    ["sinogram.bin", "sinogram.csv", "geometry.json"],
                    {"total_counts": int(sino.counts.sum()),
                     "n_rays": int(sino.n_rays)})
    print(f"simulated {sino.n_rays} rays, total counts {sino.counts.sum()}")
    return _EXIT_OK


def cmd_calibrate(args) -> int:
    cfg = _load_cfg(args)
    outdir = _outdir(args)
    sino_path = Path(args.sinogram) if args.sinogram else outdir / "sinogram.bin"
    sino = _read_sinogram(sino_path, cfg)
    op, basis = _operator(cfg), _basis(cfg)

    def make_posterior(w: float) -> TGPosterior:
        return TGPosterior(op, cfg.reparam, basis, sino, tv_weight=w)

    cal = cfg.calibration
    beta = None if cfg.autotune else cfg.sampler.beta
    result = admissible_search(make_posterior, cal.weight_grid,
                               chain_steps=cal.chain_steps, band=cal.band,
                               seed=cfg.sampler.seed, beta=beta,
                               max_eval_samples=cal.max_eval_samples,
                               denominator=cal.denominator)
    write_calibration_csv(result, outdir / "calibration.csv")
    outputs = ["calibration.csv"]
    extra: dict = {"interval": list(result.interval) if result.interval else None}
    if result.interval is not None:
        sel = select_lambda(make_posterior, result.interval,
                            n_iters=cal.select_iters,
                            inner_steps=cal.select_inner_steps,
                            beta=beta, seed=cfg.sampler.seed)
        write_selection_csv(sel, outdir / "selection.csv")
        outputs.append("selection.csv")
        extra["tv_weight_selected"] = sel.tv_weight
        print(f"admissible interval {result.interval}, "
              f"selected tv_weight {sel.tv_weight:.4f}")
    else:
        print("no admissible interval found on the given grid")
    _write_manifest(args, outdir, cfg, {"sinogram.bin": sino_path},
                    outputs, extra)
    return _EXIT_OK


def cmd_sample(args) -> int:
    cfg = _load_cfg(args)
    outdir = _outdir(args)
    sino_path = Path(args.sinogram) if args.sinogram else outdir / "sinogram.bin"
    sino = _read_sinogram(sino_path, cfg)
    op, basis = _operator(cfg), _basis(cfg)
    post = TGPosterior(op, cfg.reparam, basis, sino,
                       tv_weight=cfg.tv_weight)

    scfg = cfg.sampler
    outputs = []
    anchor = None
    init = None
    map_converged = None
    if scfg.kind == "pdpcn":
        result = solve_map(post, cfg.admm)
        write_residual_csv(result, outdir / "map_residuals.csv")
        write_field_csv(basis.synthesize(result.coeffs),
                        outdir / "map_latent.csv")
        outputs += ["map_residuals.csv", "map_latent.csv"]
        anchor = anchor_from_map(result, cfg.admm.rho_pen)
        init = result.coeffs
        map_converged = result.converged
        if not result.converged:
            log.warning("MAP solve hit max_outer without meeting tol")
    if cfg.autotune:
        # the chain starts where the tuning pilot ended
        step, init = tune_stepsize(post, scfg.kind, seed=scfg.seed, init=init,
                                   anchor=anchor)
        name = "beta" if scfg.kind == "pcn" else "delta"
        scfg = dataclasses.replace(scfg, **{name: step})
        print(f"tuned {name} = {step:.5f}")
    # kept states go to disk as the chain yields them, never all in memory
    rate = stream_chain(post, scfg, outdir / "chain.bin", init=init,
                        anchor=anchor)
    outputs += ["chain.bin", "chain.bin.json"]
    _write_manifest(args, outdir, cfg, {"sinogram.bin": sino_path},
                    outputs, {"acceptance_rate": rate,
                              "kept_samples": scfg.n_kept,
                              "map_converged": map_converged})
    print(f"chain of {scfg.n_kept} kept samples, acceptance {rate:.3f}")
    return _EXIT_OK


def cmd_summarize(args) -> int:
    cfg = _load_cfg(args)
    outdir = _outdir(args)
    chain_path = _chain_path(args, outdir)
    chain = _load_basis_chain(chain_path, cfg)
    basis = _basis(cfg)
    mean = posterior_mean(chain, basis, cfg.reparam)
    lo, hi = pointwise_hpdi(chain, basis, cfg.reparam, alpha=args.alpha)
    width = ScalarField(cfg.grid, hi.values - lo.values)
    write_field_csv(mean, outdir / "mean.csv")
    write_pgm(mean, outdir / "mean.pgm")
    write_field_csv(lo, outdir / "hpdi_lo.csv")
    write_field_csv(hi, outdir / "hpdi_hi.csv")
    write_field_csv(width, outdir / "hpdi_width.csv")
    summary = {
        "alpha": args.alpha,
        "mean_min": float(mean.values.min()),
        "mean_max": float(mean.values.max()),
        "median_interval_width": float(np.median(width.values)),
    }
    truth_path = Path(args.truth) if args.truth else outdir / "phantom.csv"
    inputs = {"chain.bin": chain_path}
    if truth_path.exists():
        truth = read_field_csv(truth_path, cfg.grid)
        summary["psnr_mean_vs_truth"] = psnr(mean, truth)
        inputs["phantom.csv"] = truth_path
    with open(outdir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _write_manifest(args, outdir, cfg, inputs,
                    ["mean.csv", "mean.pgm", "hpdi_lo.csv", "hpdi_hi.csv",
                     "hpdi_width.csv", "summary.json"])
    if "psnr_mean_vs_truth" in summary:
        print(f"posterior mean PSNR {summary['psnr_mean_vs_truth']:.2f} dB")
    else:
        print("summaries written (no truth image found, PSNR skipped)")
    return _EXIT_OK


def _parse_center(raw: str) -> tuple[float, float]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"center must be 'x,y', got {raw!r}")
    return float(parts[0]), float(parts[1])


def cmd_detect(args) -> int:
    cfg = _load_cfg(args)
    outdir = _outdir(args)
    chain_path = _chain_path(args, outdir)
    chain = _load_basis_chain(chain_path, cfg)
    basis = _basis(cfg)
    test_path = Path(args.test_image) if args.test_image else outdir / "mean.csv"
    image = read_field_csv(test_path, cfg.grid)
    extra: dict = {}
    if args.inject:
        center = _parse_center(args.center) if args.center else None
        rng = np.random.default_rng(cfg.sampler.seed)
        image = inject_artifact(image, args.inject, args.magnitude,
                                center=center, radius=args.radius, rng=rng)
        extra["injected"] = {"kind": args.inject, "magnitude": args.magnitude,
                             "center": list(center) if center else None,
                             "radius": args.radius}
    level_map = credible_level_map(chain, basis, cfg.reparam, image,
                                   thin=cfg.detect_thin)
    write_level_map(level_map, outdir / "levels.pgm", outdir / "levels.csv")
    extra["max_level"] = float(level_map.levels.values.max())
    extra["level_resolution"] = level_map.resolution
    _write_manifest(args, outdir, cfg,
                    {"chain.bin": chain_path, "test_image.csv": test_path},
                    ["levels.pgm", "levels.csv"], extra)
    print(f"credible level map written, max level "
          f"{extra['max_level']:.3f} at resolution {level_map.resolution:.4f}")
    return _EXIT_OK


def cmd_diag(args) -> int:
    cfg = _load_cfg(args)
    outdir = _outdir(args)
    chain_path = _chain_path(args, outdir)
    chain = load_chain(chain_path)
    n = chain.n_kept
    if n < 2:
        raise ValueError("need at least 2 kept samples for diagnostics")
    n_show = min(8, chain.n_modes)
    acfs = acf_matrix(chain.samples[:, :n_show], max_lag=args.max_lag)
    write_acf_csv(outdir / "acf.csv", acfs,
                  labels=[f"coeff{j}" for j in range(n_show)])
    ess = ess_matrix(chain.samples)
    write_ess_csv(outdir / "ess.csv", ess,
                  labels=[f"coeff{j}" for j in range(chain.n_modes)])
    _write_manifest(args, outdir, cfg, {"chain.bin": chain_path},
                    ["acf.csv", "ess.csv"],
                    {"median_ess": float(np.median(ess)),
                     "min_ess": float(ess.min()),
                     "acceptance_rate": chain.acceptance_rate,
                     "distinct_states": chain.samples.n_runs})
    print(f"median coefficient ESS {np.median(ess):.1f} of {n} samples")
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poistomo",
        description="Bayesian tomography from Poisson counts: simulate, "
                    "calibrate, sample, and screen reconstructions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, metavar="PATH",
                       help="INI file layered over the preset")
        p.add_argument("--preset", default="desk", choices=["desk", "paper"],
                       help="baseline parameter set (default: desk)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured seed")
        p.add_argument("--output", default="out", metavar="DIR",
                       help="output directory (default: ./out)")

    p = sub.add_parser("phantom", help="write the synthetic truth image")
    common(p)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("simulate", help="generate Poisson counts from a truth")
    common(p)
    p.add_argument("--phantom", default=None, metavar="PATH",
                   help="truth CSV (default: <output>/phantom.csv)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate",
                       help="scan the smoothing weight and select one")
    common(p)
    p.add_argument("--sinogram", default=None, metavar="PATH",
                   help="counts file (default: <output>/sinogram.bin)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("sample", help="run the posterior sampler")
    common(p)
    p.add_argument("--sinogram", default=None, metavar="PATH",
                   help="counts file (default: <output>/sinogram.bin)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("summarize",
                       help="posterior mean, intervals, PSNR")
    common(p)
    p.add_argument("--chain", default=None, metavar="PATH",
                   help="chain file (default: <output>/chain.bin)")
    p.add_argument("--truth", default=None, metavar="PATH",
                   help="truth CSV for PSNR (default: <output>/phantom.csv)")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="HPD miscoverage level (default: 0.05)")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("detect",
                       help="credible-level screen of a test image")
    common(p)
    p.add_argument("--chain", default=None, metavar="PATH",
                   help="chain file (default: <output>/chain.bin)")
    p.add_argument("--test-image", default=None, metavar="PATH",
                   help="image CSV to screen (default: <output>/mean.csv)")
    p.add_argument("--inject", default=None,
                   choices=["add_blob", "remove_blob", "add_noise"],
                   help="perturb the test image before screening")
    p.add_argument("--center", default=None, metavar="X,Y",
                   help="blob center in domain coordinates")
    p.add_argument("--radius", type=float, default=None,
                   help="blob radius in domain coordinates")
    p.add_argument("--magnitude", type=float, default=0.5,
                   help="perturbation size (default: 0.5)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("diag", help="autocorrelation and ESS of a chain")
    common(p)
    p.add_argument("--chain", default=None, metavar="PATH",
                   help="chain file (default: <output>/chain.bin)")
    p.add_argument("--max-lag", type=int, default=200,
                   help="longest ACF lag to export (default: 200)")
    p.set_defaults(func=cmd_diag)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = time.perf_counter()
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except Exception as exc:  # solver/runtime breakdowns
        print(f"runtime failure: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
