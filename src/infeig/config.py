"""Run configuration: one JSON file per run, strict about unknown keys.

Every field has a default except the grid and domain. See README for the
full schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .eigen import SolverOpts
from .errors import ConfigError
from .grid import (Disk, DomainMask, Grid, Polygon, Rect, ScalarField,
                   rasterize)
from .viscosity import CheckOpts
from .weight import WeightField, build_weight, regions_weight


def _require_keys(d: dict, allowed: set, required: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _parse_shape(d: dict, where: str, extra: set = frozenset()):
    if "shape" not in d:
        raise ConfigError(f"{where}: shape entry needs a 'shape' key")
    kind = d["shape"]
    op = d.get("op", "union")
    if op not in ("union", "difference"):
        raise ConfigError(f"{where}: op must be union or difference, got {op!r}")
    if kind == "disk":
        _require_keys(d, {"shape", "center", "radius", "op"} | extra,
                      {"center", "radius"}, where)
        return Disk(tuple(d["center"]), float(d["radius"]), op)
    if kind == "rect":
        _require_keys(d, {"shape", "min", "max", "op"} | extra,
                      {"min", "max"}, where)
        return Rect(tuple(d["min"]), tuple(d["max"]), op)
    if kind == "polygon":
        _require_keys(d, {"shape", "vertices", "op"} | extra,
                      {"vertices"}, where)
        return Polygon(tuple(tuple(v) for v in d["vertices"]), op)
    raise ConfigError(f"{where}: unknown shape kind {kind!r}")


@dataclass(frozen=True)
class PackConfig:
    k: int = 2
    max_candidates: int = 4000
    restarts: int = 4


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    domain: tuple
    weight_spec: dict
    zero_order: float | None = None
    p_list: tuple = (4.0, 8.0, 16.0, 32.0)
    solver: SolverOpts = SolverOpts()
    pack: PackConfig = PackConfig()
    viscosity: CheckOpts = CheckOpts()
    output_prefix: str = "run"
    seed: int = 0

    def build_mask(self) -> DomainMask:
        return rasterize(self.domain, self.grid)

    def build_weight(self, mask: DomainMask) -> WeightField:
        spec = self.weight_spec
        kind = spec["kind"]
        if kind == "regions":
            regions = [(_parse_shape(r, "weight.regions", {"value"}),
                        r["value"]) for r in spec.get("regions", [])]
            return regions_weight(spec.get("background", 0.0), regions,
                                  self.grid, mask)
        if kind == "affine":
            a, b = spec["gradient"]
            c = spec.get("offset", 0.0)
            return build_weight(lambda X, Y: a * X + b * Y + c, self.grid, mask)
        if kind == "radial":
            cx, cy = spec.get("center", (0.0, 0.0))
            coeffs = list(spec["coeffs"])
            return build_weight(
                lambda X, Y: np.polynomial.polynomial.polyval(
                    np.hypot(X - cx, Y - cy), coeffs),
                self.grid, mask)
        raise ConfigError(f"weight: unknown kind {kind!r}")

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
                        "solver", "pack", "viscosity", "output_prefix",
                        "seed"},
                  {"grid", "domain", "weight"}, "config")

    g = raw["grid"]
    _require_keys(g, {"nx", "ny", "h", "origin"}, {"nx", "ny", "h"}, "grid")
    try:
        grid = Grid(int(g["nx"]), int(g["ny"]), float(g["h"]),
                    tuple(g.get("origin", (0.0, 0.0))))
    except ValueError as e:
        raise ConfigError(f"grid: {e}") from e

    if not raw["domain"]:
        raise ConfigError("domain: primitive list is empty")
    domain = tuple(_parse_shape(d, f"domain[{i}]")
                   for i, d in enumerate(raw["domain"]))

    wspec = raw["weight"]
    if "kind" not in wspec:
        raise ConfigError("weight: needs a 'kind' key")
    allowed = {
        "regions": ({"kind", "background", "regions"}, set()),
        "affine": ({"kind", "gradient", "offset"}, {"gradient"}),
        "radial": ({"kind", "center", "coeffs"}, {"coeffs"}),
    }
    if wspec["kind"] not in allowed:
        raise ConfigError(f"weight: unknown kind {wspec['kind']!r}")
    _require_keys(wspec, *allowed[wspec["kind"]], "weight")

    zo = raw.get("zero_order")
    if zo is not None:
        _require_keys(zo, {"value"}, {"value"}, "zero_order")
        try:
            zo = float(zo["value"])
        except (TypeError, ValueError) as e:
            raise ConfigError(f"zero_order.value: {e}") from e
        if not zo > 0:
            raise ConfigError("zero_order.value must be positive")

    p_list = tuple(float(p) for p in raw.get("p_list", (4, 8, 16, 32)))
    for p in p_list:
        if not (2 <= p <= 64) or not math.isfinite(p):
            raise ConfigError(f"p_list entries must lie in [2, 64], got {p}")
    if list(p_list) != sorted(p_list):
        raise ConfigError(f"p_list must be increasing, got {list(p_list)}")

    s = raw.get("solver", {})
    _require_keys(s, {"tol", "max_iter"}, set(), "solver")
    try:
        tol = float(s.get("tol", SolverOpts.tol))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"solver.tol: {e}") from e
    if not 0 < tol < math.inf:
        raise ConfigError(f"solver.tol (relative KKT residual) must be "
                          f"positive and finite, got {tol}")
    max_iter = s.get("max_iter", SolverOpts.max_iter)
    if (isinstance(max_iter, bool) or not isinstance(max_iter, (int, float))
            or (isinstance(max_iter, float) and not max_iter.is_integer())
            or max_iter < 1):
        raise ConfigError(f"solver.max_iter must be an integer >= 1, "
                          f"got {max_iter!r}")
    solver = SolverOpts(tol=tol, max_iter=int(max_iter))

    pk = raw.get("pack", {})
    _require_keys(pk, {"k", "max_candidates", "restarts"}, set(), "pack")
    pack = PackConfig(k=int(pk.get("k", 2)),
                      max_candidates=int(pk.get("max_candidates", 4000)),
                      restarts=int(pk.get("restarts", 4)))

    v = raw.get("viscosity", {})
    _require_keys(v, {"kink_tol", "c_tol", "eps_regime"}, set(), "viscosity")
    visc = CheckOpts(
        kink_tol=None if v.get("kink_tol") is None else float(v["kink_tol"]),
        c_tol=float(v.get("c_tol", CheckOpts.c_tol)),
        eps_regime=None if v.get("eps_regime") is None else float(v["eps_regime"]))

    return RunConfig(grid=grid, domain=domain, weight_spec=wspec,
                     zero_order=zo, p_list=p_list, solver=solver, pack=pack,
                     viscosity=visc,
                     output_prefix=str(raw.get("output_prefix", "run")),
                     seed=int(raw.get("seed", 0)))
