"""Splitting solver for the MAP problem  min  phi(z) + tv_weight * TV(z).

The TV term is decoupled through an auxiliary vector field p ~ grad z with an
augmented Lagrangian

    L(z, p, eta) = phi(z) + tv_weight * |p|_1,iso + <eta, grad z - p>
                   + (rho_pen / 2) ||grad z - p||^2,

all pairings cell-weighted.  The z-update is an inexact gradient descent with
backtracking, the p-update is the exact pointwise isotropic shrinkage, and
the multiplier follows the standard ascent direction.  The z-subproblem
value and gradient at a line-search point, and the p- and multiplier
updates, residuals and objective history at the accepted one, all reuse the
line search's single ``TGPosterior.evaluate`` of that point.  The converged
triple also anchors the gradient-informed sampler: ``offset_direction`` is
the coefficient-space derivative of L(., p*, eta*) at the caller's
evaluation, truncated to the leading modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .fields import VectorField, div_arrays, grad_arrays
from .posterior import PosteriorEval, TGPosterior

__all__ = [
    "AdmmConfig",
    "AdmmState",
    "MapResult",
    "initial_state",
    "phi_step",
    "z_step",
    "dual_step",
    "solve_map",
    "offset_direction",
    "lagrangian",
    "write_residual_csv",
]

ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 50
# Below this relative change the subproblem values of two points tie at
# rounding noise, and the line search judges the trial by its slope instead:
# the approximate Wolfe test of Hager & Zhang (2005), delta 0.1, sigma 0.9.
VALUE_TIE_REL = 1e-14
WOLFE_DELTA = 0.1
WOLFE_SIGMA = 0.9


@dataclass(frozen=True)
class AdmmConfig:
    rho_pen: float = 1.0
    max_outer: int = 200
    tol: float = 1e-4
    inner_iters: int = 50
    inner_tol: float = 1e-6

    def __post_init__(self):
        if self.rho_pen <= 0.0:
            raise ValueError(f"rho_pen must be positive, got {self.rho_pen}")
        if self.tol <= 0.0 or self.inner_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_outer < 1 or self.inner_iters < 1:
            raise ValueError("iteration budgets must be at least 1")


@dataclass(frozen=True)
class AdmmState:
    """One iterate: coefficients plus split field and multiplier components."""

    coeffs: np.ndarray = field(repr=False)
    p1: np.ndarray = field(repr=False)
    p2: np.ndarray = field(repr=False)
    eta1: np.ndarray = field(repr=False)
    eta2: np.ndarray = field(repr=False)


def initial_state(post: TGPosterior, init=None) -> AdmmState:
    """Start from given coefficients (default zero), p = grad z, eta = 0."""
    n = post.n_modes
    c = np.zeros(n) if init is None else np.array(init, dtype=float).reshape(n)
    g1, g2 = _grad_z(post, c)
    zero = np.zeros_like(g1)
    return AdmmState(c, g1, g2, zero, zero.copy())


def _grad_z(post: TGPosterior, c, ev: PosteriorEval | None = None):
    """grad z at coefficients c, from the evaluation ev at c when given."""
    z = post.basis.synthesize_values(c) if ev is None else ev.z
    return grad_arrays(z.reshape(post.grid.shape), post.grid.hx, post.grid.hy)


class _ZPoint(NamedTuple):
    """The smooth z-subproblem at one evaluated state, plus the pieces its
    gradient reuses."""

    value: float
    ev: PosteriorEval
    g1: np.ndarray      # grad z
    g2: np.ndarray


def _z_point(post: TGPosterior, ev: PosteriorEval, p, eta,
             rho_pen: float) -> _ZPoint:
    """phi + <eta, grad z> + (rho/2)||grad z - p||^2  (the z-subproblem) at
    the state of ev; p and eta are (component 1, component 2) pairs."""
    g1, g2 = grad_arrays(ev.z.reshape(post.grid.shape),
                         post.grid.hx, post.grid.hy)
    d1, d2 = g1 - p[0], g2 - p[1]
    cell = post.grid.cell
    pair = cell * float(np.vdot(eta[0], g1) + np.vdot(eta[1], g2))
    quad = 0.5 * rho_pen * cell * float(np.vdot(d1, d1) + np.vdot(d2, d2))
    return _ZPoint(ev.phi + pair + quad, ev, g1, g2)


def _z_grad(post: TGPosterior, pt: _ZPoint, p, eta,
            rho_pen: float) -> np.ndarray:
    """Coefficient gradient of the z-subproblem: one pullback of the
    likelihood's pixel derivative minus cell * div(eta + rho (grad z - p))."""
    dfield = div_arrays(eta[0] + rho_pen * (pt.g1 - p[0]),
                        eta[1] + rho_pen * (pt.g2 - p[1]),
                        post.grid.hx, post.grid.hy)
    return post.basis.pullback(post.phi_pixel_grad_at(pt.ev)
                               - post.grid.cell * dfield.reshape(-1))


def lagrangian(post: TGPosterior, c, state: AdmmState, rho_pen: float) -> float:
    """Full augmented Lagrangian, including the TV term of the split field."""
    tv = float(np.sum(np.hypot(state.p1, state.p2))) * post.grid.cell
    pt = _z_point(post, post.evaluate(c), (state.p1, state.p2),
                  (state.eta1, state.eta2), rho_pen)
    return pt.value + post.tv_weight * tv


def z_step(post: TGPosterior, state: AdmmState,
           cfg: AdmmConfig = AdmmConfig(),
           ev: PosteriorEval | None = None) -> tuple[AdmmState, dict]:
    """Descend the smooth z-subproblem with Armijo backtracking.

    ev, when given, is the evaluation at state.coeffs.  A trial whose value
    ties the current one within VALUE_TIE_REL (the Armijo test then reads
    rounding noise) is accepted instead when its slope along the step passes
    the approximate Wolfe test; the gradient that test computes is reused.
    Stops at the gradient tolerance, at the inner budget, or unconverged when
    the step no longer changes the coefficients; the returned info dict says
    which, and carries the evaluation at the returned coefficients under
    "eval".  Raises if a single line search backtracks MAX_BACKTRACKS times
    without an acceptable point.
    """
    p, eta, rho = (state.p1, state.p2), (state.eta1, state.eta2), cfg.rho_pen
    c = state.coeffs.copy()
    pt = _z_point(post, post.evaluate(c) if ev is None else ev, p, eta, rho)
    grad = _z_grad(post, pt, p, eta, rho)
    step = 1.0
    iterations = 0
    converged = False
    for _ in range(cfg.inner_iters):
        gn2 = float(np.dot(grad, grad))
        if np.sqrt(gn2) <= cfg.inner_tol:
            converged = True
            break
        g_try = None
        for _bt in range(MAX_BACKTRACKS):
            c_try = c - step * grad
            if np.array_equal(c_try, c):
                break
            trial = _z_point(post, post.evaluate(c_try), p, eta, rho)
            if trial.value <= pt.value - ARMIJO_C1 * step * gn2:
                break
            if abs(trial.value - pt.value) <= VALUE_TIE_REL * abs(pt.value):
                g_try = _z_grad(post, trial, p, eta, rho)
                slope = -float(np.dot(g_try, grad))
                if (-WOLFE_SIGMA * gn2 <= slope
                        <= (1.0 - 2.0 * WOLFE_DELTA) * gn2):
                    break
                g_try = None
            step *= 0.5
        else:
            raise RuntimeError(f"z-step line search failed {MAX_BACKTRACKS} "
                               "consecutive times")
        if np.array_equal(c_try, c):
            break   # the step is below the coefficients' resolution
        c, pt = c_try, trial
        grad = _z_grad(post, pt, p, eta, rho) if g_try is None else g_try
        step *= 2.0
        iterations += 1
    info = {"iterations": iterations,
            "grad_norm": float(np.linalg.norm(grad)),
            "converged": converged,
            "value": pt.value,
            "eval": pt.ev}
    return replace(state, coeffs=c), info


def phi_step(post: TGPosterior, state: AdmmState,
             cfg: AdmmConfig = AdmmConfig(),
             ev: PosteriorEval | None = None) -> AdmmState:
    """Exact minimizer in the split field: pointwise isotropic shrinkage.

    With q = grad z + eta / rho, each pixel maps to
    max(0, 1 - (tv_weight/rho)/|q|) q; the zero vector stays zero.  ev, when
    given, is the evaluation at state.coeffs.
    """
    g1, g2 = _grad_z(post, state.coeffs, ev)
    q1 = g1 + state.eta1 / cfg.rho_pen
    q2 = g2 + state.eta2 / cfg.rho_pen
    thresh = post.tv_weight / cfg.rho_pen
    mag = np.hypot(q1, q2)
    # divide only where the result is nonzero; avoids denormal blowups
    scale = np.zeros_like(mag)
    live = mag > thresh
    scale[live] = 1.0 - thresh / mag[live]
    return replace(state, p1=scale * q1, p2=scale * q2)


def dual_step(post: TGPosterior, state: AdmmState,
              cfg: AdmmConfig = AdmmConfig(),
              ev: PosteriorEval | None = None) -> AdmmState:
    """Multiplier ascent eta += rho (grad z - p); ev, when given, is the
    evaluation at state.coeffs."""
    g1, g2 = _grad_z(post, state.coeffs, ev)
    return replace(state,
                   eta1=state.eta1 + cfg.rho_pen * (g1 - state.p1),
                   eta2=state.eta2 + cfg.rho_pen * (g2 - state.p2))


@dataclass(frozen=True)
class MapResult:
    coeffs: np.ndarray = field(repr=False)
    split: VectorField = field(repr=False)
    multiplier: VectorField = field(repr=False)
    objective: np.ndarray = field(repr=False)
    primal: np.ndarray = field(repr=False)
    dual: np.ndarray = field(repr=False)
    iterations: int
    converged: bool


def solve_map(post: TGPosterior, cfg: AdmmConfig = AdmmConfig(),
              init=None) -> MapResult:
    """Run the splitting iteration until both residuals meet tol.

    Residuals are cell-weighted L2 norms: primal ||grad z - p||, dual
    rho ||div(p_new - p_old)||.  The dual residual must enter the stopping
    test: without a penalty term the split field tracks grad z exactly and
    the primal residual collapses to ||eta||/rho after one sweep, long
    before the coefficients are stationary.  The objective column of the
    history is the actual target  phi + tv_weight * TV(z).
    """
    state = initial_state(post, init)
    grid = post.grid
    sqrt_cell = np.sqrt(grid.cell)
    objective, primal, dual = [], [], []
    converged = False
    ev = None
    it = 0
    for it in range(1, cfg.max_outer + 1):
        state, info = z_step(post, state, cfg, ev)
        ev = info["eval"]
        p1_old, p2_old = state.p1, state.p2
        state = phi_step(post, state, cfg, ev)
        g1, g2 = _grad_z(post, state.coeffs, ev)
        r1, r2 = g1 - state.p1, g2 - state.p2
        pr = sqrt_cell * float(np.sqrt(np.vdot(r1, r1) + np.vdot(r2, r2)))
        dv = div_arrays(state.p1 - p1_old, state.p2 - p2_old,
                        grid.hx, grid.hy)
        du = cfg.rho_pen * sqrt_cell * float(np.linalg.norm(dv))
        state = dual_step(post, state, cfg, ev)
        objective.append(ev.psi)
        primal.append(pr)
        dual.append(du)
        if pr <= cfg.tol and du <= cfg.tol:
            converged = True
            break
    # final latent polish against the returned splitting pair, so the offset
    # direction evaluated at the returned coefficients vanishes to inner_tol
    state, _info = z_step(post, state, cfg, ev)
    return MapResult(state.coeffs,
                     VectorField(grid, state.p1, state.p2),
                     VectorField(grid, state.eta1, state.eta2),
                     np.array(objective), np.array(primal), np.array(dual),
                     it, converged)


def offset_direction(post: TGPosterior, ev: PosteriorEval, split: VectorField,
                     multiplier: VectorField, rho_pen: float,
                     k_proj: int | None = None) -> np.ndarray:
    """Drift used by the gradient-informed sampler at a frozen (p*, eta*).

    Coefficient-space derivative of the augmented Lagrangian in z only, at
    the state of the caller's evaluation ev, projected onto the leading
    k_proj modes (the tail is zeroed).  k_proj = 0 returns the zero vector,
    which reduces the sampler to its plain preconditioned form.
    """
    n = post.n_modes
    k = n if k_proj is None else int(k_proj)
    if not 0 <= k <= n:
        raise ValueError(f"k_proj must be in [0, {n}], got {k}")
    if k == 0:
        return np.zeros(n)
    p = (split.comp1, split.comp2)
    eta = (multiplier.comp1, multiplier.comp2)
    g = _z_grad(post, _z_point(post, ev, p, eta, rho_pen), p, eta, rho_pen)
    if k < n:
        g[k:] = 0.0
    return g


def write_residual_csv(result: MapResult, path) -> None:
    """History rows: iteration, primal residual, dual residual, objective."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("iteration,primal,dual,objective\n")
        for i in range(result.primal.size):
            fh.write(f"{i + 1},{result.primal[i]:.17g},"
                     f"{result.dual[i]:.17g},{result.objective[i]:.17g}\n")
