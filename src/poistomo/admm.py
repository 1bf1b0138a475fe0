"""Primal-dual solver for the posterior's mode.

In KL coefficients the mode of the TV-Gaussian posterior minimises the
Onsager-Machlup functional (Dashti, Law, Stuart & Voss 2013)

    U(c) = F(c) + tv_weight * TV(z(c)),    F(c) = phi(c) + |c|^2 / 2.

With K c = grad z(c) (affine in c), paired with a (2, nx, ny) field y by the
cell-weighted pairing <y, K c>, the TV term is the largest <y, K c> over
|y| <= tv_weight pointwise.  The iteration is Condat-Vu's (Condat 2013):

    c+ = c - tau (grad F(c) + K'y),
    y+ = projection of y + sigma K(2 c+ - c) onto |y| <= tv_weight,

where K'y = ``offset_direction(post, y)``, sigma |K| = rho_pen and
tau = 1 / (L/2 + sigma |K|^2): the step condition 1/tau - sigma |K|^2 >= L/2
holds for the upper bound of |K| that ``_norm_k`` returns.  L, the Lipschitz
estimate of grad F, starts at the prior's 1 and is doubled by ``z_step``
until it bounds the step's change of grad F, never shrunk.  Each iteration
makes one ``TGPosterior.evaluate``, at c+, plus one a backtrack; its
``PosteriorEval.grad`` is K c+.  The dual iterate is the multiplier eta*
that anchors the pdpcn sampler, whose drift is phi_grad_at(ev) + o with
o = offset_direction(post, eta*): at the mode phi_grad + c + o = 0.  The
module and ``AdmmConfig`` keep the names of the ADMM solver this replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import div_arrays, grad_arrays
from .posterior import TGPosterior

__all__ = [
    "AdmmConfig",
    "MapResult",
    "z_step",
    "solve_map",
    "offset_direction",
]

POWER_ITERS = 30
NORM_K_MARGIN = 1.02    # above the 0.3-0.9% that POWER_ITERS read |K| low
MAX_BACKTRACKS = 60
TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class AdmmConfig:
    """rho_pen is the step balance sigma |K|; max_outer bounds the
    iterations and tol both relative residuals."""

    rho_pen: float = 3.0
    max_outer: int = 200
    tol: float = 1e-4

    def __post_init__(self):
        if not self.rho_pen > 0.0:
            raise ValueError(f"rho_pen must be positive, got {self.rho_pen}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be at least 1, got "
                             f"{self.max_outer}")


@dataclass(frozen=True)
class MapResult:
    """The mode's coefficients, the multiplier eta* (2, nx, ny) of the last
    iterate, and the per-iteration history of U and both residuals."""

    coeffs: np.ndarray = field(repr=False)
    multiplier: np.ndarray = field(repr=False)
    objective: np.ndarray = field(repr=False)
    primal: np.ndarray = field(repr=False)
    dual: np.ndarray = field(repr=False)
    iterations: int
    converged: bool


def offset_direction(post: TGPosterior, multiplier: np.ndarray) -> np.ndarray:
    """The constant o of the pdpcn drift phi_grad_at(ev) + o at a multiplier
    eta*: o = -pullback(cell * div eta*), the coefficient-space derivative of
    <eta*, grad z>, which is K'eta*.  multiplier must be (2, nx, ny) on the
    posterior's grid."""
    g = post.grid
    if np.shape(multiplier) != (2,) + g.shape:
        raise ValueError(f"multiplier must have shape {(2,) + g.shape}, "
                         f"got {np.shape(multiplier)}")
    return -post.basis.pullback(
        g.cell * div_arrays(multiplier, g.hx, g.hy).reshape(-1))


def _norm_k(post: TGPosterior) -> float:
    """An upper bound of |K|: NORM_K_MARGIN times the read of POWER_ITERS
    power iterations on K'K from the all-ones coefficient vector."""
    g = post.grid
    v = np.full(post.n_modes, 1.0 / np.sqrt(post.n_modes))
    for _ in range(POWER_ITERS):
        z = post.basis.synthesize_values(v).reshape(g.shape)
        w = offset_direction(post, grad_arrays(z, g.hx, g.hy))
        norm2 = float(np.linalg.norm(w))
        v = w / norm2
    return NORM_K_MARGIN * float(np.sqrt(norm2))


def z_step(post: TGPosterior, c: np.ndarray, grad_f: np.ndarray,
           o: np.ndarray, lip: float, sigma_k2: float):
    """The backtracked primal step c+ = c - tau (grad_f + o), tau =
    1 / (lip/2 + sigma_k2).

    grad_f is grad F at c and o is K'y.  lip doubles until
    |grad F(c+) - grad_f| <= lip |c+ - c|, the Lipschitz bound of grad F
    that the descent lemma rests on.  It is tested on gradients, not on F's
    values: a value test fails on rounding alone once |c+ - c|^2 falls
    below eps |F|, and then doubles lip without end.  Returns c+, its
    evaluation, grad F(c+) and the lip it was taken at; raises if
    MAX_BACKTRACKS doublings find no such step.
    """
    for _ in range(MAX_BACKTRACKS):
        s = -(grad_f + o) / (0.5 * lip + sigma_k2)
        c_new = c + s
        ev = post.evaluate(c_new)
        grad_new = post.phi_grad_at(ev) + c_new
        if np.linalg.norm(grad_new - grad_f) <= lip * np.linalg.norm(s):
            return c_new, ev, grad_new, lip
        lip *= 2.0
    raise RuntimeError(f"primal step backtracked {MAX_BACKTRACKS} times")


def solve_map(post: TGPosterior, cfg: AdmmConfig = AdmmConfig()) -> MapResult:
    """Run the primal-dual iteration from c = 0, y = 0 until both relative
    residuals of Goldstein, Li & Yuan (2015) meet tol.

    The primal residual phi_grad(c+) + c+ + K'y+ is the next step's
    direction; the dual residual K(c - c+) - (y - y+)/sigma is what keeps
    K c+ from being a normal of the ball at y+.  Each is taken relative to
    the largest of the terms its own optimality condition balances:
    |phi_grad(c+)|, |c+| and |K'y+|; |K c+| and |y+|/sigma.  The objective
    column of the history is U at c+.
    """
    norm_k = _norm_k(post)
    sigma, sigma_k2 = cfg.rho_pen / norm_k, cfg.rho_pen * norm_k
    w = post.tv_weight
    c = np.zeros(post.n_modes)
    ev = post.evaluate(c)
    y = np.zeros_like(ev.grad)
    grad_f, o = post.phi_grad_at(ev) + c, np.zeros_like(c)
    lip = 1.0
    objective, primal, dual = [], [], []
    converged = False
    for it in range(1, cfg.max_outer + 1):
        c_new, ev_new, grad_f, lip = z_step(post, c, grad_f, o, lip,
                                            sigma_k2)
        y_new = y + sigma * (2.0 * ev_new.grad - ev.grad)
        mag = np.hypot(y_new[0], y_new[1])
        y_new *= np.divide(w, mag, out=np.ones_like(mag), where=mag > w)
        o = offset_direction(post, y_new)
        pr = np.linalg.norm(grad_f + o) / max(
            np.linalg.norm(grad_f - c_new), np.linalg.norm(c_new),
            np.linalg.norm(o), TINY)
        du = np.linalg.norm(ev.grad - ev_new.grad - (y - y_new) / sigma)
        du /= max(np.linalg.norm(ev_new.grad), np.linalg.norm(y_new) / sigma,
                  TINY)
        c, ev, y = c_new, ev_new, y_new
        objective.append(ev.psi + 0.5 * float(c @ c))
        primal.append(float(pr))
        dual.append(float(du))
        if pr <= cfg.tol and du <= cfg.tol:
            converged = True
            break
    return MapResult(c, y, np.array(objective), np.array(primal),
                     np.array(dual), it, converged)
