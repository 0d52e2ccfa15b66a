"""Run configuration: one JSON file per run, strict about unknown keys.

Every field has a default except the grid and domain. See README for the
full schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .eigen import SolverOpts
from .errors import ConfigError
from .grid import (Disk, DomainMask, Grid, Polygon, Rect, ScalarField,
                   rasterize)
from .viscosity import CheckOpts
from .weight import WeightField, build_weight, regions_weight


def _require_keys(d: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _number(v, where: str, positive: bool = False) -> float:
    """A finite number, and > 0 when `positive`."""
    try:
        x = float(v)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x) or (positive and not x > 0):
        kind = "positive" if positive else "finite"
        raise ConfigError(f"{where} must be a {kind} number, got {v!r}")
    return x


def _list(v, where: str) -> list:
    if not isinstance(v, list):
        raise ConfigError(f"{where} must be a list, got {v!r}")
    return v


def _numbers(v, where: str, n: int | None = None) -> tuple:
    """A non-empty list of numbers, of length n when n is given."""
    if not _list(v, where) or (n is not None and len(v) != n):
        raise ConfigError(f"{where} must be a list of {n or 'one or more'} "
                          f"numbers, got {v!r}")
    return tuple(_number(x, where) for x in v)


def _integer(v, where: str, lo: int) -> int:
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or (isinstance(v, float) and not v.is_integer()) or v < lo):
        raise ConfigError(f"{where} must be an integer >= {lo}, got {v!r}")
    return int(v)


SHAPE_KEYS = {"disk": {"center", "radius"}, "rect": {"min", "max"},
              "polygon": {"vertices"}}


def _parse_shape(d: dict, where: str, region: bool = False):
    """A domain shape, or with `region` a weight region's: a value, no op."""
    kind = d.get("shape") if isinstance(d, dict) else None
    if kind not in SHAPE_KEYS:
        raise ConfigError(f"{where}: shape must be one of "
                          f"{sorted(SHAPE_KEYS)}, got {kind!r}")
    required = SHAPE_KEYS[kind] | ({"value"} if region else set())
    optional = set() if region else {"op"}
    _require_keys(d, {"shape"} | required | optional, required, where)
    op = d.get("op", "union")
    if op not in ("union", "difference"):
        raise ConfigError(f"{where}: op must be union or difference, got {op!r}")
    if kind == "disk":
        return Disk(_numbers(d["center"], f"{where}.center", 2),
                    _number(d["radius"], f"{where}.radius", positive=True), op)
    if kind == "rect":
        lo = _numbers(d["min"], f"{where}.min", 2)
        hi = _numbers(d["max"], f"{where}.max", 2)
        if not (lo[0] < hi[0] and lo[1] < hi[1]):
            raise ConfigError(f"{where}: min must be below max on both axes, "
                              f"got min {list(lo)}, max {list(hi)}")
        return Rect(lo, hi, op)
    verts = _list(d["vertices"], f"{where}.vertices")
    if len(verts) < 3:
        raise ConfigError(f"{where}.vertices: a polygon needs 3 or more")
    return Polygon(tuple(_numbers(v, f"{where}.vertex", 2) for v in verts), op)


@dataclass(frozen=True)
class PackConfig:
    k: int = 2
    # not config keys, and ignored by pack; read by bench/traced.py
    max_candidates: int = 4000
    restarts: int = 4


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    domain: tuple
    make_weight: Callable[[Grid, DomainMask], WeightField]
    zero_order: float | None = None
    p_list: tuple = (4.0, 8.0, 16.0, 32.0)
    solver: SolverOpts = SolverOpts()
    pack: PackConfig = PackConfig()
    viscosity: CheckOpts = CheckOpts()
    output_prefix: str = "run"

    def build_mask(self) -> DomainMask:
        return rasterize(self.domain, self.grid)

    def build_weight(self, mask: DomainMask) -> WeightField:
        return self.make_weight(self.grid, mask)

    def zero_order_field(self, mask: DomainMask):
        if self.zero_order is None:
            return None
        return ScalarField(self.grid, np.full(self.grid.shape,
                                              float(self.zero_order)))


def load_config(path) -> RunConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    return parse_config(raw)


def parse_config(raw: dict) -> RunConfig:
    _require_keys(raw, {"grid", "domain", "weight", "zero_order", "p_list",
                        "solver", "pack", "viscosity", "output_prefix"},
                  {"grid", "domain", "weight"}, "config")

    g = raw["grid"]
    _require_keys(g, {"nx", "ny", "h", "origin"}, {"nx", "ny", "h"}, "grid")
    grid = Grid(_integer(g["nx"], "grid.nx", 3), _integer(g["ny"], "grid.ny", 3),
                _number(g["h"], "grid.h", positive=True),
                _numbers(g.get("origin", [0.0, 0.0]), "grid.origin", 2))

    if not _list(raw["domain"], "domain"):
        raise ConfigError("domain: primitive list is empty")
    domain = tuple(_parse_shape(d, f"domain[{i}]")
                   for i, d in enumerate(raw["domain"]))

    wspec = raw["weight"]
    kind = wspec.get("kind") if isinstance(wspec, dict) else None
    if kind == "regions":
        _require_keys(wspec, {"kind", "background", "regions"}, set(), "weight")
        regions = tuple((_parse_shape(r, f"weight.regions[{i}]", region=True),
                         _number(r["value"], f"weight.regions[{i}].value"))
                        for i, r in enumerate(_list(wspec.get("regions", []),
                                                    "weight.regions")))
        make_weight = partial(regions_weight, _number(
            wspec.get("background", 0.0), "weight.background"), regions)
    elif kind == "affine":
        _require_keys(wspec, {"kind", "gradient", "offset"}, {"gradient"},
                      "weight")
        a, b = _numbers(wspec["gradient"], "weight.gradient", 2)
        c = _number(wspec.get("offset", 0.0), "weight.offset")
        make_weight = partial(build_weight, lambda X, Y: a * X + b * Y + c)
    elif kind == "radial":
        _require_keys(wspec, {"kind", "center", "coeffs"}, {"coeffs"}, "weight")
        cx, cy = _numbers(wspec.get("center", [0.0, 0.0]), "weight.center", 2)
        coeffs = list(_numbers(wspec["coeffs"], "weight.coeffs"))
        make_weight = partial(build_weight, lambda X, Y: (
            np.polynomial.polynomial.polyval(np.hypot(X - cx, Y - cy), coeffs)))
    else:
        raise ConfigError(f"weight: unknown kind {kind!r}")

    zo = raw.get("zero_order")
    if zo is not None:
        _require_keys(zo, {"value"}, {"value"}, "zero_order")
        zo = _number(zo["value"], "zero_order.value", positive=True)

    p_list = _numbers(raw.get("p_list", [4, 8, 16, 32]), "p_list")
    if not all(p >= 2 for p in p_list):
        raise ConfigError(f"p_list entries must be >= 2, got {list(p_list)}")
    if any(b <= a for a, b in zip(p_list, p_list[1:])):
        raise ConfigError(f"p_list must be strictly increasing, "
                          f"got {list(p_list)}")

    s = raw.get("solver", {})
    _require_keys(s, {"tol", "max_iter"}, set(), "solver")
    solver = SolverOpts(
        tol=_number(s.get("tol", SolverOpts.tol), "solver.tol", positive=True),
        max_iter=_integer(s.get("max_iter", SolverOpts.max_iter),
                          "solver.max_iter", 1))

    pk = raw.get("pack", {})
    _require_keys(pk, {"k"}, set(), "pack")
    pack = PackConfig(k=_integer(pk.get("k", 2), "pack.k", 1))

    v = raw.get("viscosity", {})
    _require_keys(v, {"kink_tol", "c_tol", "eps_regime"}, set(), "viscosity")
    # None means auto for both thresholds; a tolerance must be > 0
    visc = CheckOpts(**{key: None if x is None and key != "c_tol"
                        else _number(x, f"viscosity.{key}",
                                     positive=key != "eps_regime")
                        for key, x in v.items()})
    if visc.eps_regime is not None and visc.eps_regime < 0:
        raise ConfigError(f"viscosity.eps_regime must be >= 0, "
                          f"got {v['eps_regime']!r}")

    prefix = raw.get("output_prefix", "run")
    if not (isinstance(prefix, str) and prefix):
        raise ConfigError(f"output_prefix {prefix!r} is not a nonempty string")

    return RunConfig(grid=grid, domain=domain, make_weight=make_weight,
                     zero_order=zo, p_list=p_list, solver=solver, pack=pack,
                     viscosity=visc, output_prefix=prefix)
