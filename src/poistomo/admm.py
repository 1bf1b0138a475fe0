"""Splitting solver for the MAP problem  min  phi(z) + tv_weight * TV(z).

The TV term is decoupled through an auxiliary vector field p ~ grad z with an
augmented Lagrangian

    L(z, p, eta) = phi(z) + tv_weight * |p|_1,iso + <eta, grad z - p>
                   + (rho_pen / 2) ||grad z - p||^2,

all pairings cell-weighted.  The split field p and the multiplier eta are
(2, nx, ny) arrays shaped like grad z (see ``fields``).  The z-update is an
inexact gradient descent whose Armijo line search starts at step 1.0, tries
the last accepted step first, halves it on failure and judges value ties by
a Wolfe test; the p-update is the exact pointwise isotropic shrinkage, and
the multiplier follows the standard ascent direction; the last two are plain
array updates given grad z.  The
z-subproblem value and gradient at a line-search point, and the p- and
multiplier updates, residuals and objective history at the accepted one,
all read the line search's single ``TGPosterior.evaluate`` of that point,
grad z included (``PosteriorEval.grad``).  The multiplier eta* anchors the
pdpcn sampler, whose drift is phi_grad_at(ev) + o: ``offset_direction`` is
o = -pullback(cell * div eta*), the derivative of <eta*, grad z>.  The
penalty term belongs to the splitting and stays out of the drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import div_arrays
from .posterior import PosteriorEval, TGPosterior

__all__ = [
    "AdmmConfig",
    "MapResult",
    "phi_step",
    "z_step",
    "solve_map",
    "offset_direction",
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
        if not self.rho_pen > 0.0:
            raise ValueError(f"rho_pen must be positive, got {self.rho_pen}")
        if not (self.tol > 0.0 and self.inner_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_outer < 1 or self.inner_iters < 1:
            raise ValueError("iteration budgets must be at least 1")


def _pair(a: np.ndarray, b: np.ndarray) -> float:
    """Uniform-weight pairing of two (2, nx, ny) fields.

    Summed per component: one vdot over both rounds differently and moves
    the solver's residual history in the last bits.
    """
    return float(np.vdot(a[0], b[0]) + np.vdot(a[1], b[1]))


def _z_value(post: TGPosterior, ev: PosteriorEval, p: np.ndarray,
             eta: np.ndarray, rho_pen: float) -> float:
    """phi + <eta, grad z> + (rho/2)||grad z - p||^2  (the z-subproblem) at
    the state of ev."""
    d = ev.grad - p
    cell = post.grid.cell
    pair = cell * _pair(eta, ev.grad)
    quad = 0.5 * rho_pen * cell * _pair(d, d)
    return ev.phi + pair + quad


def _z_grad(post: TGPosterior, ev: PosteriorEval, p: np.ndarray,
            eta: np.ndarray, rho_pen: float) -> np.ndarray:
    """Coefficient gradient of the z-subproblem at the state of ev: one
    pullback of the likelihood's pixel derivative minus
    cell * div(eta + rho (grad z - p))."""
    g = post.grid
    dfield = div_arrays(eta + rho_pen * (ev.grad - p), g.hx, g.hy)
    return post.basis.pullback(post.phi_pixel_grad_at(ev)
                               - g.cell * dfield.reshape(-1))


def z_step(post: TGPosterior, c: np.ndarray, ev: PosteriorEval, p: np.ndarray,
           eta: np.ndarray,
           cfg: AdmmConfig = AdmmConfig()) -> tuple[np.ndarray, dict]:
    """Descend the smooth z-subproblem at frozen (p, eta) from coefficients c
    with Armijo backtracking.

    ev is the evaluation at c.  The step starts at 1.0; each iteration first
    tries the step last accepted and halves it on failure, never growing it.
    A trial that ties the current value within VALUE_TIE_REL passes instead
    by the approximate Wolfe test, whose gradient is reused.
    Stops at the gradient tolerance, at the inner budget, or unconverged when
    the step no longer changes the coefficients; returns the coefficients and
    an info dict that says which, and carries the evaluation at the returned
    coefficients under "eval".  Raises if a single line search backtracks
    MAX_BACKTRACKS times without an acceptable point.
    """
    rho = cfg.rho_pen
    value = _z_value(post, ev, p, eta, rho)
    grad = _z_grad(post, ev, p, eta, rho)
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
            ev_try = post.evaluate(c_try)
            v_try = _z_value(post, ev_try, p, eta, rho)
            if v_try <= value - ARMIJO_C1 * step * gn2:
                break
            if abs(v_try - value) <= VALUE_TIE_REL * abs(value):
                g_try = _z_grad(post, ev_try, p, eta, rho)
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
        c, ev, value = c_try, ev_try, v_try
        grad = _z_grad(post, ev, p, eta, rho) if g_try is None else g_try
        iterations += 1
    info = {"iterations": iterations,
            "grad_norm": float(np.linalg.norm(grad)),
            "converged": converged,
            "value": value,
            "eval": ev}
    return c, info


def phi_step(g: np.ndarray, eta: np.ndarray, tv_weight: float,
             rho_pen: float) -> np.ndarray:
    """Exact minimizer in the split field: pointwise isotropic shrinkage.

    g is grad z at the current coefficients.  With q = g + eta / rho, each
    pixel maps to max(0, 1 - (tv_weight/rho)/|q|) q; the zero vector stays
    zero.
    """
    q = g + eta / rho_pen
    thresh = tv_weight / rho_pen
    mag = np.hypot(q[0], q[1])
    # divide only where the result is nonzero; avoids denormal blowups
    scale = np.zeros_like(mag)
    live = mag > thresh
    scale[live] = 1.0 - thresh / mag[live]
    return scale * q


@dataclass(frozen=True)
class MapResult:
    """The MAP coefficients with the split field and multiplier of the last
    iterate, each (2, nx, ny), and the per-iteration history."""

    coeffs: np.ndarray = field(repr=False)
    split: np.ndarray = field(repr=False)
    multiplier: np.ndarray = field(repr=False)
    objective: np.ndarray = field(repr=False)
    primal: np.ndarray = field(repr=False)
    dual: np.ndarray = field(repr=False)
    iterations: int
    converged: bool


def solve_map(post: TGPosterior, cfg: AdmmConfig = AdmmConfig()) -> MapResult:
    """Run the splitting iteration from zero coefficients until both
    residuals meet tol.

    Residuals are cell-weighted L2 norms: primal ||grad z - p||, dual
    rho ||div(p_new - p_old)||.  The dual residual must enter the stopping
    test: without a penalty term the split field tracks grad z exactly and
    the primal residual collapses to ||eta||/rho after one sweep, long
    before the coefficients are stationary.  The objective column of the
    history is the actual target  phi + tv_weight * TV(z).
    """
    c = np.zeros(post.n_modes)
    ev = post.evaluate(c)
    p, eta = ev.grad, np.zeros_like(ev.grad)   # p = grad z, eta = 0
    sqrt_cell = np.sqrt(post.grid.cell)
    objective, primal, dual = [], [], []
    converged = False
    it = 0
    for it in range(1, cfg.max_outer + 1):
        c, info = z_step(post, c, ev, p, eta, cfg)
        ev = info["eval"]
        p_old, p = p, phi_step(ev.grad, eta, post.tv_weight, cfg.rho_pen)
        r = ev.grad - p
        pr = sqrt_cell * float(np.sqrt(_pair(r, r)))
        dv = div_arrays(p - p_old, post.grid.hx, post.grid.hy)
        du = cfg.rho_pen * sqrt_cell * float(np.linalg.norm(dv))
        eta = eta + cfg.rho_pen * r
        objective.append(ev.psi)
        primal.append(pr)
        dual.append(du)
        if pr <= cfg.tol and du <= cfg.tol:
            converged = True
            break
    # final latent polish against the returned splitting pair, so the
    # z-subproblem gradient at the returned coefficients vanishes to inner_tol
    c, _info = z_step(post, c, ev, p, eta, cfg)
    return MapResult(c, p, eta, np.array(objective), np.array(primal),
                     np.array(dual), it, converged)


def offset_direction(post: TGPosterior, multiplier: np.ndarray) -> np.ndarray:
    """The constant o of the pdpcn drift phi_grad_at(ev) + o at a multiplier
    eta*: o = -pullback(cell * div eta*), the coefficient-space derivative of
    <eta*, grad z>.  multiplier must be (2, nx, ny) on the posterior's grid."""
    g = post.grid
    if np.shape(multiplier) != (2,) + g.shape:
        raise ValueError(f"multiplier must have shape {(2,) + g.shape}, "
                         f"got {np.shape(multiplier)}")
    return -post.basis.pullback(
        g.cell * div_arrays(multiplier, g.hx, g.hy).reshape(-1))
