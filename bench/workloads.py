"""The three benchmark workloads: their configs, CLI command lists,
reference values and output checks.

Everything here is built from the public API of ``infeig``; the caller puts
``src`` on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from infeig import eigen, fieldio, geometry
from infeig.config import load_config
from infeig.grid import ScalarField, edt

BENCH_DIR = Path(__file__).resolve().parent
REFS_PATH = BENCH_DIR / "refs.json"

UNIT_DISK = [{"shape": "disk", "center": [0.0, 0.0], "radius": 1.0}]
# optimum common radius of three equal disjoint disks in the unit disk
PACK3_OPTIMUM = 1.0 / (1.0 + 2.0 / math.sqrt(3.0))
CONE_BOUND_SLACK = 1e-8  # lambda_root <= cone_bound + slack (acceptance 4)
LIMITS_REL_TOL = 0.02    # acceptance 1
CHECK_POS_TOL_H = 4.0    # acceptance 7: pos residual <= 4 h


def _disk(center, radius, value):
    return {"shape": "disk", "center": list(center), "radius": radius,
            "value": value}


def _sweep_grid(n):
    return {"nx": n, "ny": n, "h": 2.1 / (n - 1), "origin": [-1.05, -1.05]}


def _disk_grid(h, margin=2):
    """Grid centered on the origin with the unit disk and a margin band, as
    the acceptance tests build it."""
    n_half = int(round(1.0 / h)) + margin
    return {"nx": 2 * n_half + 1, "ny": 2 * n_half + 1, "h": h,
            "origin": [-n_half * h, -n_half * h]}


def config_sha256(raw: dict) -> str:
    return hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``infeig <kind> --config <config>.json ...``."""

    kind: str
    config: str
    extra: tuple = ()

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.config}"


@dataclass
class Workload:
    name: str
    configs: dict
    commands: tuple
    # analytic limit values per config: (lambda1_inf, lambda2_inf) for
    # limits, or the sweep's target column, 1/R+ (max(1/R+, 1) with C)
    analytic: dict = field(default_factory=dict)
    warmup: tuple = ()
    cone_on: str | None = None  # config whose grid gets cone.csv

    def write_inputs(self, workdir: Path) -> dict:
        """Write every config (and fixture) into workdir; return name -> path."""
        workdir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, raw in self.configs.items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(raw, indent=1, sort_keys=True) + "\n")
            paths[name] = path
        if self.cone_on is not None:
            g = load_config(paths[self.cone_on]).grid
            cone = geometry.cone_field((g.nx // 2, g.ny // 2), 1.0, g)
            fieldio.save_array(workdir / "cone.csv", g, cone.u, "scalar")
        return paths

    def argv(self, cmd: Command, paths: dict, workdir: Path, prefix: str,
             seed: int) -> list:
        out = [cmd.kind, "--config", str(paths[cmd.config]), "--out", prefix,
               "--seed", str(seed)]
        for a in cmd.extra:
            out.append(str(workdir / a) if a.endswith(".csv") else a)
        return out


def sweep_ex1_96() -> Workload:
    raw = {"grid": _sweep_grid(96), "domain": UNIT_DISK,
           "weight": {"kind": "regions", "background": -1.0,
                      "regions": [_disk((0, 0), 0.25, 1.0)]},
           "p_list": [4, 8, 16, 32]}
    warm = dict(raw, solver={"tol": 1e-8, "max_iter": 20})
    return Workload("sweep-ex1-96", {"ex1": raw, "ex1_warm": warm},
                    (Command("sweep", "ex1"),), analytic={"ex1": 1.0},
                    warmup=(Command("sweep", "ex1_warm"),))


def sweep_strip_c_64() -> Workload:
    raw = {"grid": _sweep_grid(64), "domain": UNIT_DISK,
           "weight": {"kind": "regions", "background": 1.0,
                      "regions": [_disk((0, 0), 0.8, -1.0)]},
           "zero_order": {"value": 1.0},
           "p_list": [16, 64]}
    warm = dict(raw, solver={"tol": 1e-8, "max_iter": 20})
    return Workload("sweep-strip-c-64", {"strip": raw, "strip_warm": warm},
                    (Command("sweep", "strip"),), analytic={"strip": 5.0},
                    warmup=(Command("sweep", "strip_warm"),))


GEOMETRIES = {
    "uniform": ({"kind": "regions", "background": 1.0}, (1.0, 2.0)),
    "center_ball": ({"kind": "regions", "background": -1.0,
                     "regions": [_disk((0, 0), 0.25, 1.0)]}, (1.0, 4.0)),
    "strip": ({"kind": "regions", "background": 1.0,
               "regions": [_disk((0, 0), 0.8, -1.0)]}, (5.0, 5.0)),
    "two_balls": ({"kind": "regions", "background": -1.0,
                   "regions": [_disk((0.5, 0), 0.1, 1.0),
                               _disk((-0.5, 0), 0.1, 1.0)]}, (5 / 3, 2.0)),
}


def geometry_256() -> Workload:
    grid = _disk_grid(1 / 256)
    configs = {name: {"grid": grid, "domain": UNIT_DISK, "weight": wspec}
               for name, (wspec, _) in GEOMETRIES.items()}
    commands = tuple(Command("limits", name) for name in GEOMETRIES) + (
        Command("pack", "uniform", ("--k", "3")),
        Command("check", "uniform", ("--field", "cone.csv", "--lam", "1")))
    return Workload("geometry-256", configs, commands,
                    analytic={n: lim for n, (_, lim) in GEOMETRIES.items()},
                    warmup=commands, cone_on="uniform")


WORKLOADS = {w.name: w for w in (sweep_ex1_96(), sweep_strip_c_64(),
                                 geometry_256())}


# --- output checks -------------------------------------------------------------

def kkt_residual(u: ScalarField, w, p: float, lam: float, C=None) -> float:
    """Relative projected-gradient residual max|P(dE - lam dG)| / max|dE|
    over inside nodes; P drops positive components where u = 0, since the
    bound u >= 0 blocks descent along them."""
    gE = eigen.dirichlet_energy_grad(u, p, C)
    r = gE - lam * eigen.weighted_mass_grad(u, w, p)
    r = np.where((u.u == 0.0) & (r > 0.0), 0.0, r)
    inside = w.mask.inside
    return float(np.abs(r[inside]).max() / np.abs(gE[inside]).max())


def load_refs() -> dict:
    with open(REFS_PATH) as f:
        return json.load(f)


class Checker:
    """Checks a workload's outputs; caches the config-derived fields that
    the checks need so repeated passes do not rebuild them."""

    def __init__(self, workload: Workload, paths: dict, refs: dict):
        self.workload = workload
        self.paths = paths
        self.refs = refs["workloads"].get(workload.name)
        self._cache = {}

    def _setup(self, name):
        if name not in self._cache:
            cfg = load_config(self.paths[name])
            mask = cfg.build_mask()
            w = cfg.build_weight(mask)
            self._cache[name] = (cfg, w, edt(mask), cfg.zero_order_field(mask))
        return self._cache[name]

    def check(self, cmd: Command, prefix: str):
        """Check one command's outputs; returns (problems, accuracy values)."""
        fn = {"sweep": self._sweep, "limits": self._limits,
              "pack": self._pack, "check": self._check}[cmd.kind]
        problems, values = [], {}
        try:
            fn(cmd, prefix, problems, values)
        except (OSError, ValueError, KeyError) as e:
            problems.append(f"unreadable output: {e!r}")
        return problems, values

    def _sweep(self, cmd, prefix, problems, values):
        cfg, w, _, C = self._setup(cmd.config)
        with open(f"{prefix}_sweep.csv") as f:
            rows = list(csv.DictReader(f))
        if [float(r["p"]) for r in rows] != list(cfg.p_list):
            problems.append("sweep rows do not match p_list")
            return
        refs = {float(r["p"]): r["lambda_root"] for r in self.refs["roots"]}
        kkts, ratios, devs = [], [], []
        for r in rows:
            p, root = float(r["p"]), float(r["lambda_root"])
            if r["converged"] != "1":
                problems.append(f"p={p:g}: converged={r['converged']}")
            if not root <= float(r["cone_bound"]) + CONE_BOUND_SLACK:
                problems.append(f"p={p:g}: lambda_root {root} above cone bound "
                                f"{r['cone_bound']}")
            grid, u, _ = fieldio.load_array(f"{prefix}_field_p{p:g}.csv")
            kkts.append(kkt_residual(ScalarField(grid, u), w, p,
                                     math.exp(p * math.log(root)), C))
            ratios.append(root / refs[p])
            devs.append(float(r["deviation"]))
        if self.workload.name == "sweep-ex1-96" and any(
                b > a + 1e-12 for a, b in zip(devs, devs[1:])):
            problems.append(f"deviations not non-increasing: {devs}")
        target = float(rows[0]["target"])
        ref_target = self.workload.analytic[cmd.config]
        values.update(residual=max(kkts), lambda_ratio=max(ratios),
                      limits_relerr=abs(target - ref_target) / ref_target)

    def _limits(self, cmd, prefix, problems, values):
        with open(f"{prefix}_limits.json") as f:
            rec = json.load(f)
        errs, ratios = [], []
        for key, ref in zip(("lambda1_inf", "lambda2_inf"),
                            self.workload.analytic[cmd.config]):
            errs.append(abs(rec[key] - ref) / ref)
            ratios.append(rec[key] / ref)
            if errs[-1] > LIMITS_REL_TOL:
                problems.append(f"{cmd.config}: {key}={rec[key]} vs {ref}")
        values.update(limits_relerr=max(errs), lambda_ratio=max(ratios))

    def _pack(self, cmd, prefix, problems, values):
        _, _, dist, _ = self._setup(cmd.config)
        with open(f"{prefix}_pack.json") as f:
            rec = json.load(f)
        r, centers, h = rec["radius"], rec["centers"], dist.grid.h
        k = int(cmd.extra[cmd.extra.index("--k") + 1])
        if rec["k"] != k or len(centers) != k or not r > 0:
            problems.append(f"pack: bad record k={rec['k']} r={r}")
            return
        for i, (a, b) in enumerate(centers):
            if r > dist.d[a, b] + 1e-12:
                problems.append(f"pack: ball {i} exits the domain")
            for c, d in centers[i + 1:]:
                if h * math.hypot(a - c, b - d) < 2 * r - 1e-12:
                    problems.append(f"pack: balls at {(a, b)} and {(c, d)} overlap")
        values.update(pack3_ratio=r / PACK3_OPTIMUM,
                      lambda_ratio=PACK3_OPTIMUM / r)

    def _check(self, cmd, prefix, problems, values):
        cfg, _, _, _ = self._setup(cmd.config)
        with open(f"{prefix}_check.json") as f:
            rec = json.load(f)
        if not all(rec["passes"].values()):
            problems.append(f"check: regimes failed {rec['passes']}")
        pos_tol = CHECK_POS_TOL_H * cfg.grid.h
        if not rec["max_residual"]["pos"] <= pos_tol:
            problems.append(f"check: pos residual {rec['max_residual']['pos']}"
                            f" above {pos_tol}")
        values.update(residual=max(rec["max_residual"].values())
                      / rec["tolerance"])
