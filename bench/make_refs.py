"""One-off: compute the reference lambda roots behind ``lambda_ratio_max``.

    python3 bench/make_refs.py        # rewrites bench/refs.json (a few minutes)

For each sweep workload it runs the CLI sweep (projected gradient descent at
default options), then polishes every returned field with scipy's L-BFGS-B
on log E(u) - log G(u) under the bounds u >= 0 (Byrd, Lu, Nocedal and Zhu
1995), using the package's analytic gradients. Any admissible field's
Rayleigh root is an upper bound on the discrete eigenvalue, so the stored
root is the lower of the two. A benchmark run only reads refs.json.

Cross-check: on sweep-ex1-96 a cold projected-gradient solve at tol 1e-12
and the polished p = 4 root must both land at 2.94907 +- 1e-5.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.optimize import minimize  # noqa: E402

from infeig import cli, eigen, fieldio  # noqa: E402
from infeig.config import load_config  # noqa: E402
from infeig.grid import ScalarField, edt  # noqa: E402
from workloads import REFS_PATH, WORKLOADS, config_sha256, kkt_residual  # noqa: E402

LBFGSB_OPTIONS = {"maxiter": 100000, "maxfun": 100000, "maxcor": 20,
                  "ftol": 1e-15, "gtol": 1e-12}
P4_EXPECTED, P4_TOL = 2.94907, 1e-5
CROSS_CHECK_PGD = eigen.SolverOpts(tol=1e-12, max_iter=100000)


def polish(u0: ScalarField, w, p, C):
    """L-BFGS-B on the log Rayleigh quotient over inside nodes, u >= 0."""
    inside = w.mask.inside
    grid = u0.grid

    def f(x):
        u = np.zeros(grid.shape)
        u[inside] = x
        sf = ScalarField(grid, u)
        _, log_e = eigen.dirichlet_energy_p(sf, p, C)
        g = eigen.weighted_mass_p(sf, w, p)
        if not g > 0:
            return math.inf, np.zeros_like(x)
        grad = (eigen.dirichlet_energy_grad(sf, p, C) / math.exp(log_e)
                - eigen.weighted_mass_grad(sf, w, p) / g)
        return log_e - math.log(g), grad[inside]

    res = minimize(f, u0.u[inside], jac=True, method="L-BFGS-B",
                   bounds=[(0.0, None)] * int(inside.sum()),
                   options=LBFGSB_OPTIONS)
    u = np.zeros(grid.shape)
    u[inside] = res.x
    return math.exp(res.fun / p), ScalarField(grid, u), res


def main():
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    out = {"generated_by": "python3 bench/make_refs.py", "commit": commit,
           "numpy": np.__version__, "scipy": scipy.__version__,
           "workloads": {}}
    for wl in WORKLOADS.values():
        if not wl.name.startswith("sweep"):
            continue
        workdir = ROOT / ".bench_work" / f"refs-{wl.name}"
        paths = wl.write_inputs(workdir)
        name = wl.commands[0].config
        prefix = str(workdir / name)
        argv = ["sweep", "--config", str(paths[name]), "--out", prefix,
                "--seed", "0"]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            sys.exit(f"{wl.name}: sweep exited {rc}")
        cfg = load_config(paths[name])
        mask = cfg.build_mask()
        w = cfg.build_weight(mask)
        C = cfg.zero_order_field(mask)
        rows = [ln.split(",") for ln in
                Path(f"{prefix}_sweep.csv").read_text().splitlines()[1:]]
        roots = []
        for row in rows:
            p, pgd_root, pgd_iters = float(row[0]), float(row[1]), int(row[5])
            grid, u, _ = fieldio.load_array(f"{prefix}_field_p{p:g}.csv")
            t = time.perf_counter()
            root, field, res = polish(ScalarField(grid, u), w, p, C)
            print(f"{wl.name} p={p:g}: PGD {pgd_root:.9f} ({pgd_iters} it) -> "
                  f"L-BFGS-B {root:.9f} ({res.nit} it, "
                  f"{time.perf_counter() - t:.1f} s, {res.message})")
            roots.append({
                "p": p, "lambda_root": min(root, pgd_root),
                "method": "L-BFGS-B polish of the CLI sweep field",
                "tolerance": {k: LBFGSB_OPTIONS[k] for k in ("ftol", "gtol")},
                "iterations": int(res.nit), "stop": str(res.message),
                "kkt": kkt_residual(field, w, p, math.exp(p * math.log(root)), C),
                "pgd_lambda_root": pgd_root, "pgd_iterations": pgd_iters,
                "command": " ".join(["infeig"] + argv[:1] + ["--config",
                                     f"{name}.json", "--seed", "0"])})
        out["workloads"][wl.name] = {
            "config_sha256": config_sha256(wl.configs[name]), "roots": roots}

        if wl.name == "sweep-ex1-96":
            t = time.perf_counter()
            cold = eigen.solve_lambda1(w, 4.0, opts=CROSS_CHECK_PGD,
                                       dist=edt(mask))
            p4 = next(r for r in roots if r["p"] == 4.0)
            out["cross_check"] = {
                "expected": P4_EXPECTED, "tolerance": P4_TOL,
                "pgd_cold_tol_1e-12": cold.lambda_root,
                "pgd_cold_iterations": cold.iterations,
                "lbfgsb_polished": p4["lambda_root"]}
            print(f"cross-check p=4: PGD tol 1e-12 {cold.lambda_root:.9f} "
                  f"({cold.iterations} it, {time.perf_counter() - t:.1f} s), "
                  f"L-BFGS-B {p4['lambda_root']:.9f}")
            for v in (cold.lambda_root, p4["lambda_root"]):
                if abs(v - P4_EXPECTED) > P4_TOL:
                    sys.exit(f"cross-check failed: {v} vs {P4_EXPECTED}")
    REFS_PATH.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {REFS_PATH}")


if __name__ == "__main__":
    main()
