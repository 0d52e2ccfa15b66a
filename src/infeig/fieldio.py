"""CSV serialization for scalar fields.

File layout: one JSON header line with the grid metadata and the kind
"scalar", then nx rows (one per grid row i), each with ny comma-separated
values. Floats are written with %.17g so doubles round-trip bit-identically.
A file holds the field on every node of its grid, outside the domain too;
`viscosity.check` reads the outside values only for its `boundary_max`.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from .errors import ConfigError
from .grid import Grid

KIND = "scalar"


def save_array(path, grid: Grid, values: np.ndarray, kind: str) -> None:
    if kind != KIND:
        raise ValueError(f"unknown field kind {kind!r}, expected {KIND!r}")
    header = {
        "nx": grid.nx,
        "ny": grid.ny,
        "h": grid.h,
        "origin": [grid.origin[0], grid.origin[1]],
        "kind": kind,
    }
    # np.savetxt's own row format, applied to each row's Python floats:
    # the same bytes, without a numpy scalar per value; row by row, so no
    # list of a whole large grid is held
    row = ",".join(["%.17g"] * values.shape[1]) + "\n"
    with open(path, "w") as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for r in values:
            f.write(row % tuple(r.tolist()))


def load_array(path) -> tuple[Grid, np.ndarray, str]:
    with open(path) as f:
        try:
            header = json.loads(f.readline())
            grid = Grid(header["nx"], header["ny"], header["h"],
                        tuple(header["origin"]))
            kind = header.get("kind", KIND)
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"{path}: bad field header: {e!r}") from e
        if kind != KIND:
            raise ConfigError(f"{path}: unknown field kind {kind!r}, "
                              f"expected {KIND!r}")
        mismatch = f"{path}: body does not match {grid.nx}x{grid.ny} header"
        try:
            with warnings.catch_warnings():  # an empty body is a mismatch
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt((line for line in f if line.strip()),
                                    delimiter=",", comments=None, ndmin=2)
        except ValueError as e:
            if not _body_shape_matches(path, grid):
                raise ConfigError(mismatch) from e
            raise ConfigError(f"{path}: bad field value: {e}") from e
    if values.shape != grid.shape:
        raise ConfigError(mismatch)
    if not np.isfinite(values).all():
        raise ConfigError(f"{path}: non-finite field value")
    return grid, values, kind


def _body_shape_matches(path, grid: Grid) -> bool:
    """Whether the non-blank body lines form nx rows of ny cells."""
    with open(path) as f:
        f.readline()
        cells = [line.count(",") + 1 for line in f if line.strip()]
    return len(cells) == grid.nx and all(c == grid.ny for c in cells)
