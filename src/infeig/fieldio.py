"""CSV serialization for masks, distance fields, and scalar fields.

File layout: one JSON header line with the grid metadata, then nx rows
(one per grid row i), each with ny comma-separated values. Floats are
written with %.17g so doubles round-trip bit-identically.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from .errors import ConfigError
from .grid import Grid

KINDS = ("scalar", "mask")


def save_array(path, grid: Grid, values: np.ndarray, kind: str) -> None:
    header = {
        "nx": grid.nx,
        "ny": grid.ny,
        "h": grid.h,
        "origin": [grid.origin[0], grid.origin[1]],
        "kind": kind,
    }
    with open(path, "w") as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        if kind == "mask":
            np.savetxt(f, values.astype(int), fmt="%d", delimiter=",")
        else:
            np.savetxt(f, values, fmt="%.17g", delimiter=",")


def load_array(path) -> tuple[Grid, np.ndarray, str]:
    with open(path) as f:
        try:
            header = json.loads(f.readline())
            grid = Grid(header["nx"], header["ny"], header["h"],
                        tuple(header["origin"]))
            kind = header.get("kind", "scalar")
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"{path}: bad field header: {e!r}") from e
        if kind not in KINDS:
            raise ConfigError(f"{path}: unknown field kind {kind!r}, "
                              f"expected one of {', '.join(KINDS)}")
        mismatch = f"{path}: body does not match {grid.nx}x{grid.ny} header"
        try:
            with warnings.catch_warnings():  # an empty body is a mismatch
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt((line for line in f if line.strip()),
                                    delimiter=",", comments=None, ndmin=2,
                                    dtype=int if kind == "mask" else float)
        except ValueError as e:
            if not _body_shape_matches(path, grid):
                raise ConfigError(mismatch) from e
            raise ConfigError(f"{path}: bad field value: {e}") from e
    if values.shape != grid.shape:
        raise ConfigError(mismatch)
    if not np.isfinite(values).all():
        raise ConfigError(f"{path}: non-finite field value")
    if kind == "mask":
        values = values.astype(bool)
    return grid, values, kind


def _body_shape_matches(path, grid: Grid) -> bool:
    """Whether the non-blank body lines form nx rows of ny cells."""
    with open(path) as f:
        f.readline()
        cells = [line.count(",") + 1 for line in f if line.strip()]
    return len(cells) == grid.nx and all(c == grid.ny for c in cells)
