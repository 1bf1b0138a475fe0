"""Posterior potential for the TV-Gaussian model.

The target measure has density  exp(-psi(z))  with respect to the Gaussian
reference, where  psi = phi + reg:  phi is the Poisson likelihood potential
and  reg = tv_weight * TV(z)  acts on the latent field, before the intensity
map.  Everything here works on coefficient vectors; in those coordinates the
reference is standard normal and derivative vectors already carry the
covariance square root (see klbasis.pullback), so the samplers' acceptance
functional ``rho`` (a private function of ``samplers``) uses plain Euclidean
pairings.

One ``evaluate`` synthesizes the latent field once and computes its discrete
gradient once; ``PosteriorEval.grad`` carries that (2, nx, ny) array to the
TV term here and to every splitting-solver and drift computation in
``admm``, none of which differentiates the field again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fields import grad_arrays, iso_l1
from .forward import RadonOperator, Reparam, Sinogram
from .klbasis import KLBasis

__all__ = ["TGPosterior", "PosteriorEval"]


def _phi_of_theta(theta: np.ndarray, counts: np.ndarray) -> float:
    """Poisson negative log-likelihood of counts at expected counts theta,
    up to a data-only constant: sum(theta) - sum(counts * log(theta))."""
    if np.any(theta <= 0.0):
        raise ValueError("nonpositive expected count in the likelihood potential")
    return float(np.sum(theta) - np.dot(counts, np.log(theta)))


def _check_tv_weight(tv_weight: float) -> None:
    if not tv_weight >= 0.0:
        raise ValueError(f"tv_weight must be nonnegative, got {tv_weight}")


class PosteriorEval(NamedTuple):
    """Cached pieces of one potential evaluation, reused by the samplers."""

    psi: float
    phi: float
    reg: float
    z: np.ndarray       # latent field values, flat
    grad: np.ndarray    # discrete gradient of the latent field, (2, nx, ny)
    theta: np.ndarray   # expected counts


@dataclass(frozen=True)
class TGPosterior:
    """Bundle of forward operator, intensity map, basis, data and TV weight."""

    op: RadonOperator
    rep: Reparam
    basis: KLBasis
    data: Sinogram
    tv_weight: float = 0.0

    def __post_init__(self):
        _check_tv_weight(self.tv_weight)
        if self.op.grid != self.basis.grid:
            raise ValueError("operator and basis grids disagree")
        d, op = self.data, self.op
        # the geometry alone fixes the kept rays, so this is ray for ray
        if (d.n_angles, d.n_det, d.n_rays) != (op.n_angles, op.n_det,
                                               op.n_rays):
            raise ValueError(
                f"sinogram geometry ({d.n_angles} angles, {d.n_det} bins, "
                f"{d.n_rays} rays) does not match the operator's "
                f"({op.n_angles}, {op.n_det}, {op.n_rays})")
        object.__setattr__(self, "_counts", self.data.counts.astype(float))

    @property
    def n_modes(self) -> int:
        return self.basis.n_modes

    @property
    def grid(self):
        return self.basis.grid

    def evaluate(self, c) -> PosteriorEval:
        g = self.grid
        z = self.basis.synthesize_values(c)
        grad = grad_arrays(z.reshape(g.shape), g.hx, g.hy)
        theta = self.op.apply(self.rep.apply(z))
        phi = _phi_of_theta(theta, self._counts)
        reg = (self.tv_weight * iso_l1(grad, g.hx, g.hy)
               if self.tv_weight > 0.0 else 0.0)
        return PosteriorEval(phi + reg, phi, reg, z, grad, theta)

    def phi_grad_at(self, ev: PosteriorEval) -> np.ndarray:
        """Coefficient-space gradient of the likelihood potential at the
        state of an evaluation."""
        return self.basis.pullback(self.phi_pixel_grad_at(ev))

    def phi_pixel_grad_at(self, ev: PosteriorEval) -> np.ndarray:
        """Derivative of phi in the flat latent pixel values at ev's state."""
        return self.rep.deriv(ev.z) * self.op.adjoint(1.0 - self._counts / ev.theta)
