"""Run one poistomo benchmark workload and print its metrics.

    python3 bench/run.py --workload desk-pdpcn --seed 1 --seconds 10 --trace 0

Run from the repository root.  The package is imported from ``src/``; no
install step is needed.  With ``--trace 0`` the workload runs untraced and
the result line carries the end-to-end metrics; with ``--trace 1`` the
benchmark's tracer wraps poistomo's public functions for the run and the
result line carries the per-layer metrics instead.  The metric names, units
and directions come from ``BENCHMARK.json``.

Stdout ends with two JSON lines: a report (environment, every stage time,
ESS per second, PSNR, check results, span aggregates, CLI exit codes) and the
result object ``{"correct", "attempted", "failed", "metrics"}``.  Each run is
meant to be a fresh process, so ``peak_rss_mb`` is the high-water mark of this
workload alone.

Only figures that every workload has go into the result line: set-up time
and peak memory end to end; per layer, times of layers that run in every
workload, counts, and ``.pct`` shares of the traced pipeline time for layers
that only some workloads use.  Stage times (``map_s``, ``sample_s``,
``calibrate_s``, ...) exist only where a workload has that stage, so they are
in the report line, with ``total_s``: on a VM whose speed drifts by a quarter
within minutes, the pipeline time spreads too widely between runs to gate a
regression on it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
CLI_COMMANDS = ("phantom", "simulate", "calibrate", "sample", "summarize",
                "detect", "diag")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="the pipeline repeats until this much time has "
                        "passed (at least once; untraced runs only)")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# running the workload


class StageClock:
    """Times named stages; inside a traced run each stage is also a span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: dict[str, list[float]] = {}

    def __call__(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        if self.tracer is None:
            result = fn(*args, **kwargs)
        else:
            result = self.tracer.span(f"stage.{name}", fn, *args, **kwargs)
        self.times.setdefault(name, []).append(time.perf_counter() - t0)
        return result

    def medians(self) -> dict[str, float]:
        return {k: statistics.median(v) for k, v in self.times.items()}

    def summary(self) -> dict[str, dict]:
        """Median, 90th percentile and sample count of every stage."""
        return {k: {"median": statistics.median(v),
                    "p90": statistics.quantiles(v, n=10)[-1]
                    if len(v) > 1 else v[0],
                    "n": len(v)}
                for k, v in self.times.items()}


def run_workload(workload, seed: int, seconds: float, clock: StageClock):
    """Set up, run the pipeline, check its outputs, and set up again.

    Set-up is timed `workload.setup_reps` times at each of several points:
    before the pipeline (the last build feeds it), after it once its memory
    is released, and, where a second set of inputs fits in memory, after
    every stage.  The machine's speed drifts within a run, so the set-up
    median then samples the whole run, not only its two ends.  The pipeline
    repeats until `seconds` have passed; a traced run makes it once, so call
    counts describe one pipeline.  Returns the figures read off the results,
    the check results and the pipeline repetition count.
    """
    from checks import run_checks
    from workloads import build_inputs

    cfg = workload.config(seed)

    def set_up():
        for _ in range(workload.setup_reps):
            clock("setup", build_inputs, cfg)

    def stage(name, fn, *args, **kwargs):
        result = clock(name, fn, *args, **kwargs)
        if workload.setup_between_stages:
            set_up()
        return result

    inp = None
    for _ in range(workload.setup_reps):
        inp = None  # drop the last build first: two paper bases would not fit
        inp = clock("setup", build_inputs, cfg)
    start = time.perf_counter()
    reps = 0
    while True:
        out = workload.pipeline(inp, stage)
        reps += 1
        if clock.tracer is not None or time.perf_counter() - start >= seconds:
            break
    checks = clock("check", run_checks, workload, inp, out, seed)
    facts = result_facts(inp, out)
    del inp, out
    set_up()
    return facts, checks, reps


def cli_pass(seed: int) -> tuple[dict, dict]:
    """All seven subcommands in process on the tiny INI, default kernel.

    Exit codes are recorded as they come; a nonzero one is a failure of the
    CLI path, reported through the cli.* per-layer metrics.
    """
    import poistomo.cli

    exits, times = {}, {}
    ini = str(BENCH_DIR / "tiny.ini")
    with tempfile.TemporaryDirectory(prefix=".bench-cli-", dir=ROOT) as tmp, \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        for cmd in CLI_COMMANDS:
            t0 = time.perf_counter()
            try:
                exits[cmd] = poistomo.cli.main(
                    [cmd, "--config", ini, "--seed", str(seed),
                     "--output", tmp])
            except SystemExit as exc:   # argparse rejects its arguments
                exits[cmd] = exc.code if isinstance(exc.code, int) else 2
            times[cmd] = time.perf_counter() - t0
    return exits, times


# ---------------------------------------------------------------------------
# metrics


def result_facts(inp, out) -> dict:
    """Figures read off the workload's results, named as the per-layer
    metrics they feed; 0 where the workload has no such result."""
    import numpy as np
    import poistomo as pt

    basis = inp.basis
    chain, ess = out.get("chain"), out.get("ess")
    result, cal = out.get("map"), out.get("calibration")
    pvals = [row.p for row in cal.rows] if cal else [0.0]
    facts = {
        "klbasis.basis_mb": (basis.modes.nbytes + basis.mean.nbytes
                             + basis.eigenvalues.nbytes) / 2**20,
        "diagnostics.samples_mb":
            chain.n_kept * basis.grid.npix * 8 / 2**20 if chain else 0.0,
        "samplers.ess_min": float(np.min(ess)) if chain else 0.0,
        "samplers.ess_median": float(np.median(ess)) if chain else 0.0,
        "admm.outer_iters": result.iterations if result else 0,
        "admm.converged": int(result.converged) if result else 0,
        "admm.primal_final": float(result.primal[-1]) if result else 0.0,
        "admm.dual_final": float(result.dual[-1]) if result else 0.0,
        "calibrate.p_b_min": min(pvals),
        "calibrate.p_b_max": max(pvals),
        "calibrate.interval_found": int(bool(cal and cal.interval)),
    }
    if chain:
        facts["acceptance"] = chain.acceptance_rate
        facts["psnr_db"] = pt.psnr(out["mean"], inp.truth)
    return facts


def stage_report(stages: dict, facts: dict) -> dict:
    """Every end-to-end figure the workload defines, for the report line."""
    report = {f"{k}_s": v for k, v in stages.items()}
    report["total_s"] = sum(stages.values())
    if "sample" in stages:
        report["ess_per_s"] = facts["samplers.ess_median"] / stages["sample"]
    for key in ("acceptance", "psnr_db"):
        if key in facts:
            report[key] = facts[key]
    return report


def chain_hook(totals: dict):
    """Accumulates steps and accepted steps over every run_chain call."""
    def hook(args, kwargs, chain):
        config = kwargs["config"] if "config" in kwargs else args[1]
        totals["steps"] += config.n_samples
        totals["accepted"] += int(chain.accepted.sum())
    return hook


def span_values(tr, chains: dict, stages: dict) -> dict:
    """Per-layer figures taken from the spans of the traced run.

    ``<span>.calls``, ``.ms`` (inclusive per call), ``.self_s`` and ``.pct``
    exist for every traced name.  ``.pct`` is the inclusive share of the
    traced pipeline (set-up and checks left out); being a share, it also
    moves when another layer of the pipeline gets faster or slower.
    """
    from tracing import FUNCTIONS, METHODS

    pipeline = sum(tr.total(f"stage.{k}") for k in stages if k != "setup")
    values = {}
    for name in set(tr.stats) | set(FUNCTIONS.values()) | set(METHODS.values()):
        values[f"{name}.calls"] = tr.calls(name)
        values[f"{name}.ms"] = tr.per_call_ms(name)
        values[f"{name}.self_s"] = tr.self_time(name)
        values[f"{name}.pct"] = 100.0 * tr.total(name) / pipeline
    steps = chains["steps"]
    values.update({
        "klbasis.build_s": tr.per_call_ms("klbasis.build") / 1e3,
        "forward.build_s": tr.per_call_ms("forward.build") / 1e3,
        "posterior.evals_per_step":
            tr.scoped[("samplers.run_chain", "posterior.evaluate")] / steps,
        "samplers.steps": steps,
        "samplers.step_ms": 1e3 * tr.total("samplers.run_chain") / steps,
        "samplers.acceptance": chains["accepted"] / steps,
        "admm.evaluations":
            tr.scoped[("admm.solve_map", "posterior.evaluate")],
        "trace.total_s": sum(stages.values()),
        "trace.spans": sum(c for c, _, _ in tr.stats.values()),
    })
    return values


def cli_values(exits: dict) -> dict:
    values = {f"cli.{cmd}.exit": code for cmd, code in exits.items()}
    values["cli.failed"] = sum(1 for code in exits.values() if code != 0)
    return values


def environment(threads: str) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": int(threads),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def pick(values: dict, spec: list) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise KeyError(f"benchmark computed no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "poistomo" / "__init__.py").is_file():
        print(f"error: no poistomo sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # BLAS reads its thread count once, at import: set it before numpy loads.
    # One thread: with two, every BLAS call waits for both cores, so a stall
    # on either slows the run; on a 2-vCPU VM one thread timed steadier.
    threads = "1"
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    sys.path.insert(0, str(ROOT / "src"))

    from tracing import Tracer
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    chains = {"steps": 0, "accepted": 0}
    if tracer is not None:
        tracer.hooks["samplers.run_chain"] = chain_hook(chains)
    clock = StageClock(tracer)
    with tracer or nullcontext():
        facts, checks, reps = run_workload(workload, args.seed, args.seconds,
                                           clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    del clock.times["check"]   # checks are counted one by one below
    stages = clock.medians()
    report = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "pipeline_reps": reps,
              "environment": environment(threads),
              "stages": stage_report(stages, facts),
              "stage_samples": clock.summary(),
              "peak_rss_mb": peak_rss_mb,
              "checks": [{"name": n, "passed": bool(ok), "value": v}
                         for n, ok, v in checks]}
    failed = sum(1 for _, ok, _ in checks if not ok)
    attempted = len(checks) + sum(len(v) for v in clock.times.values())

    if tracer is not None:
        cli_exits, cli_times = cli_pass(args.seed)
        report["cli"] = {"exit": cli_exits, "seconds": cli_times}
        report["spans"] = tracer.aggregates()
        values = {**facts, **span_values(tracer, chains, stages),
                  **cli_values(cli_exits)}
        metrics = pick(values, spec["per_layer"])
    else:
        values = {"setup_s": stages["setup"], "peak_rss_mb": peak_rss_mb}
        metrics = pick(values, spec["end_to_end"])

    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
