"""Command-line pipeline: limits | sweep | check | pack.

Batch only; every run is a config file plus flags. Scalar results go to
flat JSON records, sweeps and fields to CSV.

Exit codes: 0 success, 1 usage/config error or a file that cannot be read
or written, 2 numeric failure, 3 infeasible geometry.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from . import eigen, fieldio, geometry, viscosity
from .config import RunConfig, load_config
from .errors import ConfigError, GeometryError, GridMismatchError, NumericError
from .grid import ScalarField, edt


def _write_json(path: str, record: dict) -> None:
    with open(path, "w") as f:
        json.dump(record, f, sort_keys=True, indent=2)
        f.write("\n")


def _setup(cfg: RunConfig):
    mask = cfg.build_mask()
    w = cfg.build_weight(mask)
    dist = edt(mask)
    return mask, w, dist


def cmd_limits(cfg: RunConfig, prefix: str) -> int:
    _, w, dist = _setup(cfg)
    lim = geometry.compute_limits(dist, w)
    _write_json(f"{prefix}_limits.json", lim.to_record())
    print(f"R+ = {lim.r_plus:.6g} at node {lim.center_plus}")
    print(f"R2+ = {lim.r2_plus:.6g} at nodes {lim.centers2}")
    if lim.r_minus is not None:
        print(f"R- = {lim.r_minus:.6g}")
    print(f"lambda1_inf = {lim.lambda1_inf:.6g}")
    print(f"lambda2_inf = {lim.lambda2_inf:.6g}")
    if lim.mu1_inf is not None:
        print(f"mu1_inf = {lim.mu1_inf:.6g}")
    print(f"lambda1_inf_C = {lim.lambda1_inf_C:.6g}")
    return 0


def cmd_sweep(cfg: RunConfig, prefix: str) -> int:
    mask, w, dist = _setup(cfg)
    C = cfg.zero_order_field(mask)
    target, results, bounds = eigen.sweep(w, cfg.p_list, C=C, opts=cfg.solver,
                                          dist=dist)
    with open(f"{prefix}_sweep.csv", "w") as f:
        f.write("p,lambda_root,target,deviation,cone_bound,iterations,converged\n")
        for r, bound in zip(results, bounds):
            dev = abs(r.lambda_root - target)
            f.write("%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d\n" % (
                r.p, r.lambda_root, target, dev, bound, r.iterations,
                int(r.converged)))
            print(f"p={r.p:g}: lambda_root={r.lambda_root:.6g} "
                  f"target={target:.6g} deviation={dev:.6g} "
                  f"converged={r.converged} stop={r.stop} "
                  f"residual={r.residual:.3g}")
    for r in results:
        fieldio.save_array(f"{prefix}_field_p{r.p:g}.csv", cfg.grid,
                           r.field.u, "scalar")
    return 0 if all(r.converged for r in results) else 2


def cmd_check(cfg: RunConfig, prefix: str, field_path: str, lam: float) -> int:
    if not (math.isfinite(lam) and lam > 0):
        raise ConfigError(f"--lam must be a finite positive number, got {lam}")
    w = cfg.build_weight(cfg.build_mask())
    grid, values, _ = fieldio.load_array(field_path)
    if grid != cfg.grid:
        raise GridMismatchError(
            f"field grid {grid.nx}x{grid.ny} (h={grid.h}) does not match "
            f"config grid {cfg.grid.nx}x{cfg.grid.ny} (h={cfg.grid.h})")
    report = viscosity.check(ScalarField(cfg.grid, values), lam, w,
                             cfg.viscosity)
    _write_json(f"{prefix}_check.json", report.to_record())
    for name in ("pos", "neg", "zero"):
        print(f"{name}: nodes={report.counts[name]} "
              f"max_residual={report.max_residual[name]:.6g} "
              f"pass={report.passes[name]}")
    print(f"excluded={report.excluded} tolerance={report.tolerance:.6g} "
          f"boundary_max={report.boundary_max:.6g}")
    return 0


def cmd_pack(cfg: RunConfig, prefix: str, k: int | None) -> int:
    _, w, dist = _setup(cfg)
    kk = k if k is not None else cfg.pack.k
    if kk < 1:
        raise ConfigError(f"pack: k must be >= 1, got {kk}")
    result = geometry.pack(kk, dist, w.plus)
    _write_json(f"{prefix}_pack.json", asdict(result))
    tag = "exact" if result.exact else "lower bound"
    print(f"pack(k={result.k}): radius={result.radius:.6g} ({tag})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="infeig",
        description="Grid lab for weighted p-Dirichlet eigenvalues and "
                    "their geometric large-p limits.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("limits", "sweep", "check", "pack"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out", default=None, help="output path prefix")
        p.add_argument("--seed", type=int, default=None,
                       help="accepted and validated, unused")
    sub.choices["check"].add_argument("--field", required=True,
                                      help="field CSV to check")
    sub.choices["check"].add_argument("--lam", type=float, required=True,
                                      help="eigenvalue root for the residuals")
    sub.choices["pack"].add_argument("--k", type=int, default=None,
                                     help="number of balls (default from config)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        prefix = args.out if args.out is not None else cfg.output_prefix
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if args.command == "limits":
            return cmd_limits(cfg, prefix)
        if args.command == "sweep":
            return cmd_sweep(cfg, prefix)
        if args.command == "check":
            return cmd_check(cfg, prefix, args.field, args.lam)
        if args.command == "pack":
            return cmd_pack(cfg, prefix, args.k)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except GeometryError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
