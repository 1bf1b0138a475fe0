"""Command-line pipeline: phantom -> simulate -> calibrate/sample ->
summarize / detect / diag.

Every subcommand reads the same layered configuration (preset, optional INI
file, --seed override) and writes its products plus a manifest of sha256
hashes into the output directory.  Outputs are deterministic functions of
configuration and seed, so rerunning a command reproduces its files byte for
byte; the manifests make drift detectable.  Each manifest also records the
command's cost, its wall time ``wall_s`` and the process's peak resident
memory ``peak_rss_mb``, which vary from run to run.

The reports that nothing reads back (CSV tables, PGM images, JSON summaries,
manifests) are written here; a format that has a reader lives beside it in
the library.

Exit codes: 0 success, 2 for configuration or input validation errors,
3 for runtime failures (solver breakdown, unreadable files, diverged chains).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import resource
import sys
import time
from pathlib import Path

import numpy as np

from .admm import solve_map
from .artifacts import ARTIFACT_KINDS, credible_level_map, inject_artifact
from .calibrate import admissible_search, select_lambda
from .config import (PRESETS, ConfigError, RunConfig, parse_config,
                     write_config)
from .diagnostics import acf_matrix, ess_matrix, pointwise_hpdi, posterior_mean
from .fields import ScalarField, psnr, read_field_csv, write_field_csv
from .forward import (DETECTOR_SPAN, build_radon_operator, read_sinogram_bin,
                      simulate_data, write_sinogram_bin)
from .klbasis import build_kl_basis
from .phantom import brain_phantom
from .posterior import TGPosterior
from .samplers import load_chain, stream_chain

log = logging.getLogger(__name__)

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_RUNTIME = 3

# input file options: option -> (default file in the output directory, help)
_INPUT_FILES = {
    "phantom": ("phantom.csv", "truth CSV"),
    "sinogram": ("sinogram.bin", "counts file"),
    "chain": ("chain.bin", "chain file"),
    "truth": ("phantom.csv", "truth CSV for PSNR"),
    "test-image": ("mean.csv", "image CSV to screen"),
}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_json(path: Path, doc: dict) -> None:
    """Strict JSON: a NaN or an infinity raises ValueError, never a token
    that standard parsers refuse.  The document is serialised before the
    file is opened, so a refused one leaves no partial file behind."""
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="ascii")


def _write_csv(path: Path, header, rows) -> None:
    """A header line, then one line per row: floats as %.17g, which reads
    back exactly, and everything else as str."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _write_pgm(f: ScalarField, path: Path, vmax: float | None = None) -> None:
    """A 16-bit binary PGM (P5, maxval 65535, big-endian samples).

    Values are clipped to [0, vmax] and scaled so vmax maps to 65535; vmax
    defaults to the field maximum.  Rows of the file run along axis 0.
    """
    vals = f.values
    if vmax is None:
        vmax = float(np.max(vals))
        if vmax <= 0.0:
            vmax = 1.0
    scaled = np.clip(vals / vmax, 0.0, 1.0)
    samples = np.round(scaled * 65535.0).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{f.grid.ny} {f.grid.nx}\n65535\n".encode("ascii"))
        fh.write(samples.tobytes())


def _operator(cfg: RunConfig):
    return build_radon_operator(cfg.grid, cfg.n_angles, cfg.n_det, cfg.kappa)


def _basis(cfg: RunConfig):
    return build_kl_basis(cfg.grid, cfg.cov, cfg.n_modes, cfg.prior_mean)


def _load_basis_chain(path: Path, cfg: RunConfig):
    """load_chain, refusing a chain whose modes are not the basis's."""
    chain = load_chain(path)
    if chain.n_modes != cfg.n_modes:
        raise ValueError(
            f"chain has {chain.n_modes} modes, basis has {cfg.n_modes}")
    return chain


# Each command takes the parsed arguments (input paths resolved), the config
# and the output directory, and returns its manifest's inputs (name -> path),
# outputs (file names in the output directory) and extra fields.

def cmd_phantom(args, cfg: RunConfig, outdir: Path):
    truth = brain_phantom(cfg.grid, low=cfg.reparam.bounds[0] + 0.05,
                          high=cfg.reparam.bounds[1] - 0.05)
    write_field_csv(truth, outdir / "phantom.csv")
    _write_pgm(truth, outdir / "phantom.pgm")
    write_config(cfg, outdir / "effective_config.ini")
    print(f"phantom written to {outdir}")
    return {}, ["phantom.csv", "phantom.pgm", "effective_config.ini"], {}


def cmd_simulate(args, cfg: RunConfig, outdir: Path):
    truth = read_field_csv(args.phantom, cfg.grid)
    op = _operator(cfg)
    sino = simulate_data(op, truth, np.random.default_rng(cfg.sampler.seed))
    write_sinogram_bin(sino, outdir / "sinogram.bin")
    _write_csv(outdir / "sinogram.csv", ("angle", "det", "count"),
               zip(op.angle_idx, op.det_idx, sino.counts))
    _write_json(outdir / "geometry.json", {
        "format": "parallel-beam path-integral operator",
        "nx": op.grid.nx, "ny": op.grid.ny, "n_angles": op.n_angles,
        "n_det": op.n_det, "kappa": op.kappa, "detector_span": DETECTOR_SPAN,
        "rays_kept": op.n_rays, "rays_dropped": op.n_dropped,
        "nnz": op.nnz})
    print(f"simulated {sino.n_rays} rays, total counts {sino.counts.sum()}")
    return ({"phantom.csv": args.phantom},
            ["sinogram.bin", "sinogram.csv", "geometry.json"],
            {"total_counts": int(sino.counts.sum()),
             "n_rays": int(sino.n_rays)})


def cmd_calibrate(args, cfg: RunConfig, outdir: Path):
    sino = read_sinogram_bin(args.sinogram)
    op, basis = _operator(cfg), _basis(cfg)

    def make_posterior(w: float) -> TGPosterior:
        return TGPosterior(op, cfg.reparam, basis, sino, tv_weight=w)

    cal = cfg.calibration
    result = admissible_search(make_posterior, cal.weight_grid,
                               chain_steps=cal.chain_steps, band=cal.band,
                               seed=cfg.sampler.seed, beta=cfg.sampler.beta,
                               max_eval_samples=cal.max_eval_samples,
                               denominator=cal.denominator)
    _write_csv(outdir / "calibration.csv",
               ("tv_weight", "p_b", "stderr", "chain_steps", "acceptance",
                "beta"),
               ((r.tv_weight, r.p, r.stderr, r.chain_steps, r.acceptance,
                 r.beta) for r in result.rows))
    outputs = ["calibration.csv"]
    extra: dict = {"interval": list(result.interval) if result.interval else None}
    if result.interval is not None:
        sel = select_lambda(make_posterior, result.interval,
                            n_iters=cal.select_iters,
                            inner_steps=cal.select_inner_steps,
                            beta=cfg.sampler.beta, seed=cfg.sampler.seed)
        _write_csv(outdir / "selection.csv",
                   ("iteration", "tv_weight", "gradient"), sel.trace)
        outputs.append("selection.csv")
        extra["tv_weight_selected"] = sel.tv_weight
        extra["tv_weight_at_bound"] = sel.at_bound
        if sel.at_bound:
            log.warning("selected tv_weight %.4g is an end of the interval",
                        sel.tv_weight)
        print(f"admissible interval {result.interval}, "
              f"selected tv_weight {sel.tv_weight:.4f}")
    else:
        print("no admissible interval found on the given grid")
    return {"sinogram.bin": args.sinogram}, outputs, extra


def cmd_sample(args, cfg: RunConfig, outdir: Path):
    sino = read_sinogram_bin(args.sinogram)
    op, basis = _operator(cfg), _basis(cfg)
    post = TGPosterior(op, cfg.reparam, basis, sino,
                       tv_weight=cfg.tv_weight)

    scfg = cfg.sampler
    outputs = []
    anchor = init = map_converged = None
    if scfg.kind == "pdpcn":
        result = solve_map(post, cfg.admm)
        _write_csv(outdir / "map_residuals.csv",
                   ("iteration", "primal", "dual", "objective"),
                   zip(range(1, result.primal.size + 1), result.primal,
                       result.dual, result.objective))
        write_field_csv(
            ScalarField(cfg.grid, basis.synthesize_values(result.coeffs)),
            outdir / "map_latent.csv")
        outputs += ["map_residuals.csv", "map_latent.csv"]
        anchor = result.multiplier
        init = result.coeffs
        map_converged = result.converged
        if not result.converged:
            log.warning("MAP solve hit max_outer without meeting tol")
    # kept states go to disk as the chain yields them, never all in memory
    walk = stream_chain(post, scfg, outdir / "chain.bin", init=init,
                        anchor=anchor)
    outputs.append("chain.bin")
    scfg, rate = walk.config, walk.acceptance_rate
    print(f"chain of {scfg.n_kept} kept samples at {scfg.stepsize_name} "
          f"{scfg.stepsize:.5g}, acceptance {rate:.3f}")
    return ({"sinogram.bin": args.sinogram}, outputs,
            {"acceptance_rate": rate, "kept_samples": scfg.n_kept,
             "stepsize": scfg.stepsize, "map_converged": map_converged,
             "distinct_states": walk.distinct_states})


def cmd_summarize(args, cfg: RunConfig, outdir: Path):
    chain = _load_basis_chain(args.chain, cfg)
    truth = None        # read and checked before anything is written
    if "truth" in args.given or args.truth.exists():
        truth = read_field_csv(args.truth, cfg.grid)
    basis = _basis(cfg)
    # the HPD bounds check alpha before any state is synthesized
    lo, hi = pointwise_hpdi(chain, basis, cfg.reparam, alpha=args.alpha)
    mean = posterior_mean(chain, basis, cfg.reparam)
    width = ScalarField(cfg.grid, hi.values - lo.values)
    write_field_csv(mean, outdir / "mean.csv")
    _write_pgm(mean, outdir / "mean.pgm")
    write_field_csv(lo, outdir / "hpdi_lo.csv")
    write_field_csv(hi, outdir / "hpdi_hi.csv")
    write_field_csv(width, outdir / "hpdi_width.csv")
    summary = {
        "alpha": args.alpha,
        "mean_min": float(mean.values.min()),
        "mean_max": float(mean.values.max()),
        "median_interval_width": float(np.median(width.values)),
    }
    inputs = {"chain.bin": args.chain}
    if truth is not None:
        summary["psnr_mean_vs_truth"] = psnr(mean, truth)
        inputs["phantom.csv"] = args.truth
        print(f"posterior mean PSNR {summary['psnr_mean_vs_truth']:.2f} dB")
    else:
        print("summaries written (no truth image found, PSNR skipped)")
    _write_json(outdir / "summary.json", summary)
    return inputs, ["mean.csv", "mean.pgm", "hpdi_lo.csv", "hpdi_hi.csv",
                    "hpdi_width.csv", "summary.json"], {}


def _parse_center(raw: str) -> tuple[float, float]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"center must be 'x,y', got {raw!r}")
    return float(parts[0]), float(parts[1])


def cmd_detect(args, cfg: RunConfig, outdir: Path):
    chain = _load_basis_chain(args.chain, cfg)
    basis = _basis(cfg)
    image = read_field_csv(args.test_image, cfg.grid)
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
    # the heatmap on a fixed [0, 1] scale, and the exact levels
    _write_pgm(level_map.levels, outdir / "levels.pgm", vmax=1.0)
    write_field_csv(level_map.levels, outdir / "levels.csv")
    extra["max_level"] = float(level_map.levels.values.max())
    extra["level_resolution"] = level_map.resolution
    print(f"credible level map written, max level "
          f"{extra['max_level']:.3f} at resolution {level_map.resolution:.4f}")
    return ({"chain.bin": args.chain, "test_image.csv": args.test_image},
            ["levels.pgm", "levels.csv"], extra)


def cmd_diag(args, cfg: RunConfig, outdir: Path):
    chain = load_chain(args.chain)
    labels = [f"coeff{j}" for j in range(chain.n_modes)]
    n_show = min(8, chain.n_modes)
    acfs = acf_matrix(chain.samples[:, :n_show], max_lag=args.max_lag)
    _write_csv(outdir / "acf.csv", ["lag"] + labels[:n_show],
               ((lag, *rho) for lag, rho in enumerate(acfs)))
    ess = ess_matrix(chain.samples)
    _write_csv(outdir / "ess.csv", ("series", "ess"), zip(labels, ess))
    print(f"median coefficient ESS {np.median(ess):.1f} of {chain.n_kept} samples")
    return ({"chain.bin": args.chain}, ["acf.csv", "ess.csv"],
            {"median_ess": float(np.median(ess)), "min_ess": float(ess.min()),
             "acceptance_rate": chain.acceptance_rate,
             "kept_samples": chain.n_kept,
             "distinct_states": chain.samples.n_runs})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poistomo",
        description="Bayesian tomography from Poisson counts: simulate, "
                    "calibrate, sample, and screen reconstructions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *files):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", default=None, metavar="PATH",
                       help="INI file layered over the preset")
        p.add_argument("--preset", default="desk", choices=sorted(PRESETS),
                       help="baseline parameter set (default: desk)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured seed")
        p.add_argument("--output", default="out", metavar="DIR",
                       help="output directory (default: ./out)")
        for option in files:
            default, text = _INPUT_FILES[option]
            p.add_argument(f"--{option}", default=None, metavar="PATH",
                           help=f"{text} (default: <output>/{default})")
        p.set_defaults(func=func, files=files)
        return p

    command("phantom", cmd_phantom, "write the synthetic truth image")
    command("simulate", cmd_simulate, "generate Poisson counts from a truth",
            "phantom")
    command("calibrate", cmd_calibrate,
            "scan the smoothing weight and select one", "sinogram")
    command("sample", cmd_sample, "run the posterior sampler", "sinogram")
    p = command("summarize", cmd_summarize, "posterior mean, intervals, PSNR",
                "chain", "truth")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="HPD miscoverage level (default: 0.05)")
    p = command("detect", cmd_detect, "credible-level screen of a test image",
                "chain", "test-image")
    p.add_argument("--inject", default=None,
                   choices=ARTIFACT_KINDS,
                   help="perturb the test image before screening")
    p.add_argument("--center", default=None, metavar="X,Y",
                   help="blob center in domain coordinates")
    p.add_argument("--radius", type=float, default=None,
                   help="blob radius in domain coordinates")
    p.add_argument("--magnitude", type=float, default=0.5,
                   help="perturbation size (default: 0.5)")
    p = command("diag", cmd_diag, "autocorrelation and ESS of a chain",
                "chain")
    p.add_argument("--max-lag", type=int, default=200,
                   help="longest ACF lag to export (default: 200)")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        overrides = {}
        if args.seed is not None:
            overrides["sampler"] = {"seed": str(args.seed)}
        cfg = parse_config(args.config, args.preset, overrides)
        outdir = Path(args.output)
        outdir.mkdir(parents=True, exist_ok=True)
        # a file named on the command line must exist, where a default file
        # may be optional (the truth for summarize's PSNR)
        args.given = set()
        for option in args.files:
            dest = option.replace("-", "_")
            given = getattr(args, dest)
            if given:
                args.given.add(option)
            setattr(args, dest, Path(given) if given
                    else outdir / _INPUT_FILES[option][0])
        inputs, outputs, extra = args.func(args, cfg, outdir)
        if extra.get("distinct_states") == 1:   # sample's and diag's rule
            log.warning("chain never moved: 1 distinct state in %d kept "
                        "samples", extra["kept_samples"])
        # ru_maxrss counts KiB on Linux
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        _write_json(outdir / f"{args.command}_manifest.json", {
            "command": args.command,
            "config_hash": cfg.config_hash(),
            "inputs": {name: _sha256(path) for name, path in inputs.items()},
            "outputs": {name: _sha256(outdir / name) for name in outputs},
            "wall_s": time.perf_counter() - started,
            "peak_rss_mb": peak_kib / 1024,
            **extra,
        })
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except Exception as exc:  # solver/runtime breakdowns
        print(f"runtime failure: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
