"""Sign-changing nodal weight and its sign partition.

The partition uses the open-set masks {m > eps} / {m < -eps}; the threshold
is relative to the sup norm of m so rescaling the weight never reclassifies
a node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import DomainMask, Grid

EPS_ZERO_REL = 1e-12


@dataclass(frozen=True)
class WeightField:
    grid: Grid
    mask: DomainMask
    m: np.ndarray = field(repr=False)
    eps_zero: float = 0.0

    def __post_init__(self):
        if self.m.shape != self.grid.shape:
            raise ValueError("weight shape does not match grid")
        mv = np.where(self.mask.inside, self.m, 0)
        object.__setattr__(self, "m", mv)
        if self.eps_zero == 0.0:
            norm = np.maximum(mv.max(), -mv.min())  # max |m|, no temporary
            object.__setattr__(self, "eps_zero", EPS_ZERO_REL * norm)

    @property
    def plus(self) -> np.ndarray:
        return self.mask.inside & (self.m > self.eps_zero)

    @property
    def minus(self) -> np.ndarray:
        return self.mask.inside & (self.m < -self.eps_zero)

    @property
    def zero(self) -> np.ndarray:
        return self.mask.inside & ~self.plus & ~self.minus

    @property
    def sign_changing(self) -> bool:
        return bool(self.plus.any() and self.minus.any())


def build_weight(spec, grid: Grid, mask: DomainMask) -> WeightField:
    """Sample a weight at node centers from an expression.

    `spec` is a callable f(X, Y) evaluated on the node coordinate arrays;
    piecewise-constant region lists go through :func:`regions_weight`.
    One-signed weights are allowed (sign_changing comes back False).
    """
    X, Y = grid.coords()
    m = np.asarray(spec(X, Y), dtype=float)
    return WeightField(grid, mask, m)


def regions_weight(background: float, regions, grid: Grid,
                   mask: DomainMask) -> WeightField:
    """Piecewise-constant weight: `background` overridden in order by
    (shape, value) pairs. The shapes test the separable coordinates of
    `Grid.axes`, as in `rasterize`."""
    if regions is None:
        regions = []
    x, y = grid.axes()
    m = np.full(grid.shape, float(background))
    for shape, value in regions:
        m[shape.contains(x, y)] = float(value)
    return WeightField(grid, mask, m)


def negate(w: WeightField) -> WeightField:
    """m -> -m; the plus and minus masks swap exactly."""
    return WeightField(w.grid, w.mask, -w.m, eps_zero=w.eps_zero)
