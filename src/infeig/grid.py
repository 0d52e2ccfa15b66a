"""Uniform 2D grid, domain rasterization, and the exact Euclidean distance
transform to the discrete domain complement.

Distance is node-to-node: d(node) is the exact Euclidean distance from an
inside node to the nearest outside node. This carries an O(h) bias relative
to the true distance to the continuum boundary, which downstream tolerances
absorb.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import distance_transform_edt

from .errors import DegenerateDomainError


@dataclass(frozen=True)
class Grid:
    """Uniform lattice: node (i, j) sits at (x0 + i*h, y0 + j*h)."""

    nx: int
    ny: int
    h: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ValueError(f"grid needs nx, ny >= 3, got {self.nx}x{self.ny}")
        if not self.h > 0:
            raise ValueError(f"grid spacing must be positive, got {self.h}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """World coordinates of every node as two (nx, ny) arrays."""
        x = self.origin[0] + self.h * np.arange(self.nx)
        y = self.origin[1] + self.h * np.arange(self.ny)
        return np.meshgrid(x, y, indexing="ij")

    def scaled(self, t: float) -> "Grid":
        """Same lattice with spacing and origin scaled by t."""
        return Grid(self.nx, self.ny, self.h * t,
                    (self.origin[0] * t, self.origin[1] * t))


@dataclass(frozen=True)
class DomainMask:
    """Inside/outside indicator with a guaranteed one-node outside collar."""

    grid: Grid
    inside: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.inside.shape != self.grid.shape:
            raise ValueError("mask shape does not match grid")
        if self.inside.dtype != np.bool_:
            object.__setattr__(self, "inside", self.inside.astype(bool))
        if not self.inside.any():
            raise DegenerateDomainError("degenerate domain: empty interior")
        edge = (self.inside[0, :].any() or self.inside[-1, :].any()
                or self.inside[:, 0].any() or self.inside[:, -1].any())
        if edge:
            raise ValueError("mask violates the one-node outside collar")


@dataclass(frozen=True)
class DistanceField:
    """Exact node-to-node Euclidean distance to the outside set."""

    grid: Grid
    d: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class ScalarField:
    """Nodal scalar values; zero on all outside nodes (Dirichlet)."""

    grid: Grid
    u: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.u.shape != self.grid.shape:
            raise ValueError("field shape does not match grid")


# --- rasterization primitives -------------------------------------------------

@dataclass(frozen=True)
class Disk:
    center: tuple[float, float]
    radius: float
    op: str = "union"

    def contains(self, X, Y):
        return (X - self.center[0]) ** 2 + (Y - self.center[1]) ** 2 < self.radius ** 2


@dataclass(frozen=True)
class Rect:
    lo: tuple[float, float]
    hi: tuple[float, float]
    op: str = "union"

    def contains(self, X, Y):
        return ((X > self.lo[0]) & (X < self.hi[0])
                & (Y > self.lo[1]) & (Y < self.hi[1]))


@dataclass(frozen=True)
class Polygon:
    """Simple polygon, membership by the even-odd rule at node centers."""

    vertices: tuple[tuple[float, float], ...]
    op: str = "union"

    def contains(self, X, Y):
        vx = np.array([v[0] for v in self.vertices])
        vy = np.array([v[1] for v in self.vertices])
        n = len(vx)
        out = np.zeros(X.shape, dtype=bool)
        j = n - 1
        for i in range(n):
            crosses = ((vy[i] > Y) != (vy[j] > Y))
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = vx[i] + (Y - vy[i]) * (vx[j] - vx[i]) / (vy[j] - vy[i])
            out ^= crosses & (X < xint)
            j = i
        return out


def rasterize(primitives, grid: Grid) -> DomainMask:
    """Compose signed shapes into an inside mask, clearing the boundary collar.

    Shapes are applied in order: "union" adds, "difference" subtracts.
    """
    if not primitives:
        raise ValueError("primitive list is empty")
    X, Y = grid.coords()
    inside = np.zeros(grid.shape, dtype=bool)
    for prim in primitives:
        hit = prim.contains(X, Y)
        if prim.op == "union":
            inside |= hit
        elif prim.op == "difference":
            inside &= ~hit
        else:
            raise ValueError(f"unknown shape op {prim.op!r}")
    inside[0, :] = inside[-1, :] = False
    inside[:, 0] = inside[:, -1] = False
    return DomainMask(grid, inside)


def edt(mask: DomainMask) -> DistanceField:
    """Exact Euclidean distance from each inside node to the nearest outside
    node, in world units. Outside nodes get 0."""
    # unit sampling, then scale: d is exactly h * sqrt(integer), matching any
    # brute-force oracle bit for bit
    d = distance_transform_edt(mask.inside) * mask.grid.h
    return DistanceField(mask.grid, d)

