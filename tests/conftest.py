"""Shared builders for the test suite."""

import numpy as np

from infeig import Disk, Grid, Polygon, Rect, edt, rasterize, regions_weight


def disk_setup(h, radius=1.0, margin=2):
    """Grid centered on the origin (origin is a node) covering a disk of the
    given radius, with a `margin`-node outside band."""
    n_half = int(round(radius / h)) + margin
    n = 2 * n_half + 1
    grid = Grid(n, n, h, (-n_half * h, -n_half * h))
    mask = rasterize([Disk((0.0, 0.0), radius)], grid)
    return grid, mask, edt(mask)


def uniform_weight(grid, mask):
    return regions_weight(1.0, [], grid, mask)


def example1_weight(grid, mask, delta=0.25):
    """m = +1 on the small center ball, -1 elsewhere."""
    return regions_weight(-1.0, [(Disk((0.0, 0.0), delta), 1.0)], grid, mask)


def example2_weight(grid, mask, delta=0.2, radius=1.0):
    """m = +1 on the boundary strip of the given width, -1 in the core."""
    return regions_weight(1.0, [(Disk((0.0, 0.0), radius - delta), -1.0)],
                          grid, mask)


def example3_weight(grid, mask, delta=0.1):
    """m = +1 on two small balls at (+-1/2, 0), -1 elsewhere."""
    return regions_weight(-1.0, [(Disk((0.5, 0.0), delta), 1.0),
                                 (Disk((-0.5, 0.0), delta), 1.0)],
                          grid, mask)


def brute_force_edt(inside, h):
    """All-pairs nearest-outside-node scan; the independent distance oracle."""
    out = np.argwhere(~inside)
    d = np.zeros(inside.shape)
    for i, j in np.argwhere(inside):
        dx = out[:, 0] - i
        dy = out[:, 1] - j
        d[i, j] = h * np.sqrt(float((dx * dx + dy * dy).min()))
    return d


def random_mask(rng, n=32, fill=0.45):
    """Random boolean mask with the outside collar cleared, retried until
    nonempty."""
    while True:
        inside = rng.random((n, n)) < fill
        inside[0, :] = inside[-1, :] = False
        inside[:, 0] = inside[:, -1] = False
        if inside.any():
            return inside


# a non-square grid, and each shape kind once added and once cut out
MIXED_GRID = Grid(41, 29, 0.07, (-1.4, -0.98))
MIXED_SHAPES = {
    "disk": (Disk((0.1, -0.05), 0.8), Disk((0.3, 0.2), 0.35, "difference")),
    "rect": (Rect((-1.2, -0.7), (0.4, 0.6)),
             Rect((-0.5, -0.3), (0.0, 0.1), "difference")),
    "polygon": (Polygon(((-0.9, -0.8), (1.1, -0.6), (0.2, 0.9))),
                Polygon(((-0.2, -0.4), (0.5, -0.3), (0.1, 0.3)), "difference")),
}


def meshgrid_coords(grid):
    """Every node's coordinates as two full (nx, ny) arrays."""
    return np.meshgrid(grid.origin[0] + grid.h * np.arange(grid.nx),
                       grid.origin[1] + grid.h * np.arange(grid.ny),
                       indexing="ij")
