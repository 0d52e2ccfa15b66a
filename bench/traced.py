"""Traced replay of the CLI commands as calls into each module's public API.

Each ``cmd_*`` here makes the same calls, in the same order and with the
same arguments, as ``infeig.cli.cmd_*`` (and, one level down, as
``eigen.sweep`` and ``geometry.compute_limits``), wrapped in spans. It
writes the same output files, so the harness can require them to be
byte-identical to the untraced CLI outputs: that is the proof that the
traced run measures the same program.

No span or counter lives inside ``src``; all of them are recorded here.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from infeig import eigen, fieldio, geometry, viscosity
from infeig.config import load_config
from infeig.errors import GridMismatchError
from infeig.grid import ScalarField, edt, rasterize
from infeig.weight import negate

SWEEP_HEADER = "p,lambda_root,target,deviation,cone_bound,iterations,converged\n"


class Tracer:
    """In-memory span recorder. A span is (id, name, start, end, parent, run);
    spans of one pass share a run id."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.run = None
        # inputs of the last pass's solves and check, for timing kernels
        self.solves = []
        self.check_inputs = None

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"id": sid, "name": name, "start": time.perf_counter(),
               "end": None, "parent": parent, "run": self.run}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def add_iterations(self, solve_span, stamps):
        """One child span per accepted solver iteration, from the callback
        timestamps; the first starts where the solve span starts."""
        start = solve_span["start"]
        for t in stamps:
            self.spans.append({"id": len(self.spans), "name": "eigen.iter",
                               "start": start, "end": t,
                               "parent": solve_span["id"], "run": self.run})
            start = t


def self_times(spans) -> dict:
    """Duration minus the time covered by direct children, per span id.
    Children of one span run one after another on one thread, so their
    covered time is the sum of their durations."""
    covered = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + (
                s["end"] - s["start"])
    return {s["id"]: s["end"] - s["start"] - covered.get(s["id"], 0.0)
            for s in spans}


def _setup(tr: Tracer, path):
    with tr.span("config.load"):
        cfg = load_config(path)
    with tr.span("grid.rasterize"):
        mask = rasterize(cfg.domain, cfg.grid)
    with tr.span("weight.regions"):
        w = cfg.build_weight(mask)
    with tr.span("grid.edt"):
        dist = edt(mask)
    return cfg, mask, w, dist


def _write_json(path, record):
    with open(path, "w") as f:
        json.dump(record, f, sort_keys=True, indent=2)
        f.write("\n")


def cmd_limits(tr: Tracer, path, prefix, seed, geom):
    with tr.span("cli.limits"):
        cfg, _, w, dist = _setup(tr, path)
        rng = np.random.default_rng(seed)
        with tr.span(f"geometry.limits.{geom}"):
            with tr.span("geometry.r_plus"):
                rp, cp = geometry.r_plus(dist, w.plus)
            with tr.span("geometry.pack2"):
                p2 = geometry.pack(2, dist, w.plus,
                                   max_candidates=cfg.pack.max_candidates,
                                   rng=rng)
            wneg = negate(w)
            rm, mu1_inf = None, None
            if wneg.plus.any():
                with tr.span("geometry.r_plus"):
                    rm, _ = geometry.r_plus(dist, wneg.plus)
                mu1_inf = -1.0 / rm
            lim = geometry.GeoLimits(
                r_plus=rp, center_plus=cp, r_minus=rm, r2_plus=p2.radius,
                centers2=p2.centers, lambda1_inf=1.0 / rp,
                lambda2_inf=1.0 / p2.radius, mu1_inf=mu1_inf,
                lambda1_inf_C=max(1.0 / rp, 1.0))
        _write_json(f"{prefix}_limits.json", lim.to_record())


def cmd_sweep(tr: Tracer, path, prefix):
    with tr.span("cli.sweep"):
        cfg, mask, w, dist = _setup(tr, path)
        C = cfg.zero_order_field(mask)
        opts = eigen.SolverOpts(tol=cfg.solver.tol, max_iter=cfg.solver.max_iter)
        with tr.span("eigen.sweep"):
            with tr.span("geometry.r_plus"):
                rp, _ = geometry.r_plus(dist, w.plus)
            target = max(1.0 / rp, 1.0) if C is not None else 1.0 / rp
            records, prev = [], None
            for p in cfg.p_list:
                stamps = []
                with tr.span(f"eigen.solve.p{p:g}") as sp:
                    res = eigen.solve_lambda1(
                        w, float(p), C=C, opts=opts, dist=dist, u0=prev,
                        callback=lambda _loglam: stamps.append(
                            time.perf_counter()))
                tr.add_iterations(sp, stamps)
                prev = res.field
                with tr.span("eigen.cone_bound"):
                    bound = eigen.cone_rayleigh_root(w, float(p), dist, C)
                records.append((res, bound))
                tr.solves.append({"p": float(p), "result": res, "w": w, "C": C})
        with open(f"{prefix}_sweep.csv", "w") as f:
            f.write(SWEEP_HEADER)
            for res, bound in records:
                f.write("%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d\n" % (
                    res.p, res.lambda_root, target,
                    abs(res.lambda_root - target), bound, res.iterations,
                    int(res.converged)))
        for res, _ in records:
            with tr.span("fieldio.save"):
                fieldio.save_array(f"{prefix}_field_p{res.p:g}.csv", cfg.grid,
                                   res.field.u, "scalar")


def cmd_pack(tr: Tracer, path, prefix, seed, k):
    with tr.span("cli.pack"):
        cfg, _, w, dist = _setup(tr, path)
        rng = np.random.default_rng(seed)
        with tr.span(f"geometry.pack{k}"):
            result = geometry.pack(k, dist, w.plus,
                                   max_candidates=cfg.pack.max_candidates,
                                   rng=rng, restarts=cfg.pack.restarts)
        _write_json(f"{prefix}_pack.json", {
            "k": result.k, "radius": result.radius,
            "centers": [list(c) for c in result.centers],
            "exact": result.exact})


def cmd_check(tr: Tracer, path, prefix, field_path, lam):
    with tr.span("cli.check"):
        cfg, mask, w, _ = _setup(tr, path)
        with tr.span("fieldio.load"):
            grid, values, _ = fieldio.load_array(field_path)
        if grid != cfg.grid:
            raise GridMismatchError("field grid does not match config grid")
        u = ScalarField(cfg.grid, np.where(mask.inside, values, 0.0))
        opts = viscosity.CheckOpts(kink_tol=cfg.viscosity.kink_tol,
                                   c_tol=cfg.viscosity.c_tol,
                                   eps_regime=cfg.viscosity.eps_regime)
        with tr.span("viscosity.check"):
            report = viscosity.check(u, lam, w, opts)
        _write_json(f"{prefix}_check.json", report.to_record())
    tr.check_inputs = (u, w, opts)


def run_command(tr: Tracer, argv):
    """Dispatch a CLI argv list (as the harness builds it) to the traced
    replay."""
    kind, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    path, prefix, seed = opts["--config"], opts["--out"], int(opts["--seed"])
    if kind == "limits":
        cmd_limits(tr, path, prefix, seed, Path(path).stem)
    elif kind == "sweep":
        cmd_sweep(tr, path, prefix)
    elif kind == "pack":
        cmd_pack(tr, path, prefix, seed, int(opts["--k"]))
    elif kind == "check":
        cmd_check(tr, path, prefix, opts["--field"], float(opts["--lam"]))
    else:
        raise ValueError(f"unknown command {kind!r}")
