"""Synthetic test images with values inside the attainable intensity band.

The reparametrized field can only realize intensities strictly between its
band edges, so phantoms are built from levels slightly inside the band; a
truth exactly on the boundary would not be representable and reconstruction
error against it would never vanish.
"""

from __future__ import annotations

import numpy as np

from .fields import Grid, ScalarField

__all__ = ["brain_phantom"]


def _ellipse(x, y, cx: float, cy: float, rx: float, ry: float,
             angle: float = 0.0):
    ca, sa = np.cos(angle), np.sin(angle)
    dx = x - cx
    dy = y - cy
    xr = ca * dx + sa * dy
    yr = -sa * dx + ca * dy
    return (xr / rx) ** 2 + (yr / ry) ** 2 <= 1.0


def brain_phantom(grid: Grid, low: float = 1.05, high: float = 2.95
                  ) -> ScalarField:
    """Piecewise-constant head section: skull-less brain outline with two
    low-intensity ventricles, one hot round lesion, and one medium bar.

    low and high set the darkest and brightest levels; both should sit
    strictly inside the band of the reparametrization in use.
    """
    if not high > low > 0.0:
        raise ValueError(f"need 0 < low < high, got low={low}, high={high}")
    xc, yc = grid.centers()
    x, y = xc[:, None], yc[None, :]

    span = high - low
    vals = np.full(grid.shape, low)

    head = _ellipse(x, y, 0.5, 0.5, 0.38, 0.46)
    vals[head] = low + 0.5 * span

    left_vent = _ellipse(x, y, 0.40, 0.52, 0.07, 0.16, angle=0.25)
    right_vent = _ellipse(x, y, 0.60, 0.52, 0.07, 0.16, angle=-0.25)
    vals[head & (left_vent | right_vent)] = low + 0.15 * span

    lesion = _ellipse(x, y, 0.50, 0.26, 0.075, 0.075)
    vals[head & lesion] = high

    bar = ((np.abs(x - 0.50) <= 0.14) & (np.abs(y - 0.74) <= 0.035))
    vals[head & bar] = low + 0.75 * span

    return ScalarField(grid, vals)

