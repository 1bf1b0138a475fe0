"""Output checks made after every workload run.

Each check returns (name, passed, measured value).  A failed check counts as
a failed operation of the run and makes it incorrect; it never reads as a
fast result.
"""

from __future__ import annotations

import math

import numpy as np

import poistomo as pt

ADJOINT_RTOL = 1e-12


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def radon_adjoint(inp, rng) -> tuple:
    """<A u, w> = <u, A^T w> at random u, w."""
    u = rng.standard_normal(inp.op.grid.npix)
    w = rng.standard_normal(inp.op.n_rays)
    gap = _rel_gap(float(np.dot(inp.op.apply(u), w)),
                   float(np.dot(u, inp.op.adjoint(w))))
    return "radon_adjoint", gap <= ADJOINT_RTOL, gap


def kl_adjoint_pair(inp, rng) -> tuple:
    """pullback is the transpose of the linear part of synthesize_values."""
    basis = inp.basis
    c = rng.standard_normal(basis.n_modes)
    d = rng.standard_normal(basis.grid.npix)
    gap = _rel_gap(float(np.dot(basis.synthesize_values(c) - basis.mean, d)),
                   float(np.dot(c, basis.pullback(d))))
    return "kl_adjoint_pair", gap <= ADJOINT_RTOL, gap


def _in_unit(values) -> bool:
    v = np.asarray(values, dtype=float)
    return bool(np.all((v >= 0.0) & (v <= 1.0)))


def chain_checks(inp, out, psnr_floor: float) -> list:
    chain = out["chain"]
    psnr_db = pt.psnr(out["mean"], inp.truth)
    return [
        ("psi_finite", bool(np.all(np.isfinite(chain.psi_trace))),
         float(chain.psi_trace[-1])),
        ("acceptance_in_unit", _in_unit(chain.acceptance_rate),
         chain.acceptance_rate),
        ("levels_in_unit", _in_unit(out["levels"].values),
         float(out["levels"].values.max())),
        ("psnr_floor", math.isfinite(psnr_db) and psnr_db >= psnr_floor,
         psnr_db),
    ]


def calibration_checks(inp, out) -> list:
    """The rows cover the weight grid with the asked chain length and finite
    Monte Carlo errors; the selection made every iteration asked for."""
    cal = inp.cfg.calibration
    rows = out["calibration"].rows
    trace = out["selection"].trace
    pvals = [row.p for row in rows]
    stderrs = [row.stderr for row in rows]
    return [
        ("p_values_in_unit", _in_unit(pvals), min(pvals)),
        ("rows_match_grid",
         [r.tv_weight for r in rows] == [float(w) for w in cal.weight_grid]
         and all(r.chain_steps == cal.chain_steps for r in rows), len(rows)),
        ("stderr_finite", all(math.isfinite(e) and e >= 0.0 for e in stderrs),
         max(stderrs)),
        ("selection_iters", len(trace) == cal.select_iters
         and all(math.isfinite(g) for _, _, g in trace), len(trace)),
    ]


def run_checks(workload, inp, out, seed: int) -> list:
    rng = np.random.default_rng(seed)
    results = [radon_adjoint(inp, rng), kl_adjoint_pair(inp, rng)]
    if "chain" in out:
        results += chain_checks(inp, out, workload.psnr_floor)
    else:
        results += calibration_checks(inp, out)
    return results
