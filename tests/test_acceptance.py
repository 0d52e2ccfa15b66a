"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The prints bypass pytest capture so the gate summary is always visible.
"""

import math
import sys
import time

import numpy as np

from conftest import (brute_force_edt, disk_setup, example1_weight,
                      example2_weight, example3_weight, random_mask,
                      uniform_weight)
from infeig import (DomainMask, Grid, ScalarField, SolverOpts, check,
                    cone_field, compute_limits, dirichlet_energy_p, edt, mu1,
                    negate, pack, solve_lambda1, sweep, weighted_mass_p)
from infeig.eigen import (dirichlet_energy_grad, rayleigh_root,
                          weighted_mass_grad)
from infeig.weight import WeightField

from test_eigen import eigsh_lambda2_oracle
from test_geometry import brute_force_pack2


def report(capfd, num, desc, ok):
    with capfd.disabled():
        print(f"ACCEPTANCE {num} ({desc}): {'PASS' if ok else 'FAIL'}")
        sys.stdout.flush()
    assert ok, f"acceptance criterion {num} failed: {desc}"


_sweep_cache = {}


def example1_sweep(n=96):
    """n x n sweep at p = 4, 8, 16, 32; the 96 x 96 one is shared by the
    convergence and inequality criteria."""
    if n not in _sweep_cache:
        grid = Grid(n, n, 2.1 / (n - 1), (-1.05, -1.05))
        from infeig import Disk, rasterize, regions_weight
        mask = rasterize([Disk((0.0, 0.0), 1.0)], grid)
        w = regions_weight(-1.0, [(Disk((0.0, 0.0), 0.25), 1.0)], grid, mask)
        dist = edt(mask)
        t0 = time.perf_counter()
        target, results, bounds = sweep(w, [4, 8, 16, 32], dist=dist)
        _sweep_cache[n] = dict(target=target, results=results, bounds=bounds,
                               elapsed=time.perf_counter() - t0,
                               w=w, dist=dist, grid=grid, mask=mask)
    return _sweep_cache[n]


def test_1_geometric_identities(capfd):
    ok = True
    cases = [
        ("uniform", uniform_weight, 1.0, 2.0),
        ("small center ball", lambda g, m: example1_weight(g, m, 0.25), 1.0, 4.0),
        ("boundary strip", lambda g, m: example2_weight(g, m, 0.2), 5.0, 5.0),
        ("two balls", lambda g, m: example3_weight(g, m, 0.1), 2 / 1.2, 2.0),
    ]
    for name, build, lam1, lam2 in cases:
        t0 = time.perf_counter()
        grid, mask, dist = disk_setup(1 / 256)
        w = build(grid, mask)
        lim = compute_limits(dist, w)
        elapsed = time.perf_counter() - t0
        ok &= abs(lim.lambda1_inf - lam1) / lam1 <= 0.02
        ok &= abs(lim.lambda2_inf - lam2) / lam2 <= 0.02
        ok &= elapsed < 30.0
    report(capfd, 1, "geometric limit identities at h=1/256", ok)


def test_2_zero_order_limit(capfd):
    # big inscribed radius: the zero-order limit saturates at exactly 1
    grid, mask, dist = disk_setup(1 / 64, radius=2.0)
    w = uniform_weight(grid, mask)
    lim_big = compute_limits(dist, w)
    ok = lim_big.lambda1_inf_C == 1.0
    # boundary strip with R+ = 0.2: the limit is 1/R+ = 5
    grid, mask, dist = disk_setup(1 / 128)
    w = example2_weight(grid, mask, delta=0.2)
    lim_strip = compute_limits(dist, w)
    ok &= abs(lim_strip.lambda1_inf_C - 5.0) / 5.0 <= 0.02
    report(capfd, 2, "zero-order-variant limit values", ok)


def test_3_convergence_trend(capfd):
    cache = example1_sweep()
    results, elapsed = cache["results"], cache["elapsed"]
    devs = [abs(r.lambda_root - cache["target"]) for r in results]
    ok = all(r.converged for r in results)
    ok &= all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
    ok &= devs[-1] <= 0.25
    ok &= elapsed <= 300.0
    report(capfd, 3, "sweep deviation trend on 96x96", ok)


def test_4_cone_upper_bounds(capfd):
    cache = example1_sweep()
    w, dist, grid, mask = (cache["w"], cache["dist"], cache["grid"],
                           cache["mask"])
    rng = np.random.default_rng(2024)
    nodes = np.argwhere(w.plus)
    ok = True
    for rec, cone_bound in zip(cache["results"], cache["bounds"]):
        checked = 0
        while checked < 20:
            i, j = nodes[rng.integers(len(nodes))]
            r = float(dist.d[i, j] * rng.uniform(0.3, 1.0))
            if r < 2 * grid.h:
                continue
            u = cone_field((int(i), int(j)), r, grid, dist)
            uu = ScalarField(grid, np.where(mask.inside, u.u, 0.0))
            # inf exactly when the mass is not positive: the plain mass
            # underflows to 0 for positive ones on small geometries
            root = rayleigh_root(uu, w, rec.p)
            if root == np.inf:
                continue
            ok &= rec.lambda_root <= root + 1e-8
            checked += 1
        ok &= rec.lambda_root <= cone_bound + 1e-8
    report(capfd, 4, "cone upper-bound inequality, 20 random cones per p", ok)


def test_5_oracle_equivalences(capfd):
    # (a) distance transform vs brute-force nearest-outside scan
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(20):
        inside = random_mask(rng)
        g = Grid(32, 32, 0.41)
        d = edt(DomainMask(g, inside)).d
        ok &= np.array_equal(d, brute_force_edt(inside, 0.41))
    # (b) pair packing vs exhaustive search on a 48x48 grid
    from infeig import Disk, rasterize
    g48 = Grid(48, 48, 2.2 / 47, (-1.1, -1.1))
    mask48 = rasterize([Disk((0.0, 0.0), 1.0)], g48)
    dist48 = edt(mask48)
    res = pack(2, dist48, mask48.inside)
    ok &= res.exact
    ok &= res.radius == brute_force_pack2(dist48, mask48.inside)
    # (c) p = 2 eigenvalue vs linear sparse eigensolver
    grid, mask, dist = disk_setup(1 / 40)
    w = uniform_weight(grid, mask)
    res2 = solve_lambda1(w, 2.0, opts=SolverOpts(tol=1e-5), dist=dist)
    oracle = eigsh_lambda2_oracle(w)
    ok &= abs(res2.lambda_root ** 2 - oracle) / oracle <= 1e-6
    report(capfd, 5, "independent oracles: distance, packing, p=2 eigenvalue", ok)


def test_6_gradient_checks(capfd):
    grid, mask, dist = disk_setup(1 / 24)
    rng = np.random.default_rng(7)
    c = (grid.nx // 2, grid.ny // 2)
    X, Y = grid.coords()
    cone = cone_field(c, 0.8, grid, dist).u
    vals_e = np.where(mask.inside,
                      cone * (1 + 0.05 * np.sin(3 * X + 1) * np.sin(2 * Y - 1)),
                      0.0)
    w = example1_weight(grid, mask, delta=0.4)
    vals_g = np.where(mask.inside,
                      0.9 + 0.2 * rng.random((grid.nx, grid.ny)), 0.0)
    ok = True
    for p in (2.0, 6.0, 17.0):
        gE = dirichlet_energy_grad(ScalarField(grid, vals_e), p)
        gG = weighted_mass_grad(ScalarField(grid, vals_g), w, p)
        nodes_e = np.argwhere(mask.inside & (cone > 0.1))
        picks_e = nodes_e[rng.choice(len(nodes_e), size=50, replace=False)]
        nodes_g = np.argwhere(mask.inside)
        picks_g = nodes_g[rng.choice(len(nodes_g), size=50, replace=False)]
        for i, j in picks_e:
            eps = 1e-6
            up = vals_e.copy(); up[i, j] += eps
            um = vals_e.copy(); um[i, j] -= eps
            fd = (dirichlet_energy_p(ScalarField(grid, up), p)[0]
                  - dirichlet_energy_p(ScalarField(grid, um), p)[0]) / (2 * eps)
            ok &= abs(gE[i, j] - fd) <= 1e-5 * abs(fd) + 1e-12
        for i, j in picks_g:
            eps = 1e-4
            up = vals_g.copy(); up[i, j] += eps
            um = vals_g.copy(); um[i, j] -= eps
            fd = (weighted_mass_p(ScalarField(grid, up), w, p)
                  - weighted_mass_p(ScalarField(grid, um), w, p)) / (2 * eps)
            ok &= abs(gG[i, j] - fd) <= 1e-5 * abs(fd) + 1e-12
    report(capfd, 6, "analytic gradients vs central differences", ok)


def test_7_viscosity_proxy(capfd):
    maxres = []
    ok = True
    for h in (1 / 64, 1 / 128, 1 / 256):
        grid, mask, dist = disk_setup(h)
        w = uniform_weight(grid, mask)
        u = cone_field((grid.nx // 2, grid.ny // 2), 1.0, grid)
        rep = check(u, 1.0, w)
        maxres.append(rep.max_residual["pos"])
        if h >= 1 / 128:
            ok &= rep.passes["pos"]
            ok &= rep.max_residual["pos"] <= 4 * h
    order = math.log(maxres[0] / maxres[-1]) / math.log(4)
    ok &= order >= 0.8
    report(capfd, 7, "distance-cone residual O(h), order >= 0.8", ok)


def test_8_duality_and_symmetry(capfd):
    grid, mask, dist = disk_setup(1 / 32)
    w = example1_weight(grid, mask, delta=0.4)
    res_neg = mu1(w, 3.0, dist=dist)
    res_pos = solve_lambda1(negate(w), 3.0, dist=dist)
    ok = res_neg.lambda_root == -res_pos.lambda_root
    # 90-degree rotation: all geometric limit scalars invariant to 1e-12
    grid, mask, dist = disk_setup(1 / 64)
    w = example3_weight(grid, mask, delta=0.1)
    lim = compute_limits(dist, w)
    mask_r = DomainMask(grid, np.rot90(mask.inside).copy())
    w_r = WeightField(grid, mask_r, np.rot90(w.m).copy())
    lim_r = compute_limits(edt(mask_r), w_r)
    for a, b in ((lim.r_plus, lim_r.r_plus),
                 (lim.r2_plus, lim_r.r2_plus),
                 (lim.r_minus, lim_r.r_minus),
                 (lim.lambda1_inf, lim_r.lambda1_inf),
                 (lim.lambda2_inf, lim_r.lambda2_inf),
                 (lim.mu1_inf, lim_r.mu1_inf),
                 (lim.lambda1_inf_C, lim_r.lambda1_inf_C)):
        ok &= abs(a - b) <= 1e-12 * max(abs(a), 1.0)
    report(capfd, 8, "weight-negation duality and rotation invariance", ok)


# per-p roots of the example-1 sweep from the earlier projected-gradient
# solver, and the same roots polished by L-BFGS-B (bench/refs.json)
PGD_ROOTS = (3.0198296, 1.6987002, 1.3574523, 1.2065970)
POLISHED_ROOTS = (2.9490684, 1.6984866, 1.3573886, 1.2065212)


def test_sweep_roots_match_polished():
    recs = example1_sweep()["results"]
    for rec, pgd, ref in zip(recs, PGD_ROOTS, POLISHED_ROOTS):
        assert rec.converged
        assert rec.lambda_root <= pgd
        assert abs(rec.lambda_root - ref) <= 1e-5 * ref


def test_ex1_sweep_iteration_budget():
    # the two-grid cycle certifies the 96x96 sweep in ~150 iterations (~200
    # with one damped Jacobi step per side), the additive two-level initial
    # Hessian took ~290, the one-level Chebyshev-Jacobi one ~530 and the
    # diagonal one 863; the bound leaves room for the +-20 % that last-bit
    # changes move the counts
    recs = example1_sweep()["results"]
    assert all(rec.converged for rec in recs)
    assert sum(rec.iterations for rec in recs) <= 250


# the example-1 roots at 96 x 96 with one coarse factor per 15 accepted
# iterations, before the front-loaded refreshes
EX1_96_ROOTS = (2.9490683723575488, 1.698486553704021, 1.3573886239967412,
                1.2065212083114423)


def test_ex1_sweep_front_loaded_refreshes():
    # a coarse factor built as soon as the whole box admits one and
    # refreshed at its ages 3, 7 and every 15 follows |grad u|^(p-2) where
    # it moves fastest, at the start of each solve: the 96x96 sweep
    # certifies in 115 iterations, against 123 with the refreshes counted
    # from each solve's start and 146 at one refresh per 15, with the same
    # roots
    recs = example1_sweep()["results"]
    assert all(rec.converged for rec in recs)
    assert sum(rec.iterations for rec in recs) <= 119
    for rec, ref in zip(recs, EX1_96_ROOTS):
        assert abs(rec.lambda_root - ref) <= 1e-8 * ref


def test_ex1_iterations_flat_in_grid():
    # the coarse term removes the h^-2 spread of A(u) that one local
    # smoothing step leaves: the one-level H0 took 2.4-2.55x the
    # iterations from n = 96 to n = 192, the two-level one ~1.3x
    totals = []
    for n in (96, 192):
        recs = example1_sweep(n)["results"]
        assert all(rec.converged for rec in recs)
        totals.append(sum(rec.iterations for rec in recs))
    assert totals[1] <= 1.6 * totals[0]


def strip_sweep(n, p_list=(16, 64)):
    """Boundary-strip weight (m = +1 for r > 0.8) with C = 1 on an n x n
    grid, swept over p_list; at p = 16, 64 the configuration of the strip
    benchmark. Returns the solver's results."""
    from infeig import Disk, rasterize, regions_weight
    grid = Grid(n, n, 2.1 / (n - 1), (-1.05, -1.05))
    mask = rasterize([Disk((0.0, 0.0), 1.0)], grid)
    w = regions_weight(1.0, [(Disk((0.0, 0.0), 0.8), -1.0)], grid, mask)
    C = ScalarField(grid, np.ones(grid.shape))
    return sweep(w, p_list, C=C, dist=edt(mask))[1]


# bench/refs.json: the strip sweep's roots polished by L-BFGS-B
STRIP_POLISHED_ROOTS = (5.3793042, 4.5140903)


def test_strip_sweep_roots_match_polished():
    # a certified KKT point need not be the principal one: started cold at
    # p = 2, a p-continuation certifies 5.5157 at p = 16 and 4.8429 at p = 64
    for rec, ref in zip(strip_sweep(64), STRIP_POLISHED_ROOTS):
        assert rec.converged
        assert abs(rec.lambda_root - ref) <= 1e-5 * ref


def test_coarse_factor_only_where_few_nodes_are_floored(monkeypatch):
    # the strip's solves never factor a coarse matrix: its windows never
    # reach the whole box, the only one the solver refreshes, and 92-99 %
    # of its inside nodes are floored, more than a share _FRINGE; ex1's
    # seed cone floors ~34 % and its later iterates ~1 %
    from infeig import eigen
    ex1 = example1_sweep()
    factors = []
    coarsen = eigen._Stiffness._coarsen

    def record(self, floored, lifted):
        coarsen(self, floored, lifted)
        factors.append(self.W is not None)

    monkeypatch.setattr(eigen._Stiffness, "_coarsen", record)
    strip_sweep(64)
    assert not any(factors)
    factors.clear()
    solve_lambda1(ex1["w"], 4.0, dist=ex1["dist"])
    assert any(factors)


def test_two_grid_cycle_with_zero_order_term(monkeypatch):
    # ex1 with C = 1: the two-grid cycle together with a zero-order term,
    # which neither benchmark sweep runs (the strip never has a factor)
    from infeig import Disk, eigen, rasterize, regions_weight
    grid = Grid(48, 48, 2.1 / 47, (-1.05, -1.05))
    mask = rasterize([Disk((0.0, 0.0), 1.0)], grid)
    w = regions_weight(-1.0, [(Disk((0.0, 0.0), 0.25), 1.0)], grid, mask)
    C = ScalarField(grid, np.ones(grid.shape))
    factors = []
    coarsen = eigen._Stiffness._coarsen

    def record(self, floored, lifted):
        coarsen(self, floored, lifted)
        factors.append(self.W is not None)

    monkeypatch.setattr(eigen._Stiffness, "_coarsen", record)
    results = sweep(w, [4, 16], C=C, dist=edt(mask))[1]
    assert any(factors)
    assert all(rec.converged for rec in results)


def test_strip_sweep_certifies_at_192():
    # the finest grid has the widest |grad u|^(p-2) contrast at p = 16;
    # every row must still certify within the default max_iter
    assert all(rec.converged for rec in strip_sweep(192))


def _assert_certified_and_finite(results):
    assert [rec.stop for rec in results] == ["tol"] * len(results)
    roots = [rec.lambda_root for rec in results]
    assert all(a > b for a, b in zip(roots, roots[1:]))
    for rec in results:
        assert all(math.isfinite(x) for x in (
            rec.p, rec.lambda_root, rec.iterations, rec.final_step,
            rec.residual))
        assert np.isfinite(rec.field.u).all()


def test_sweep_certifies_far_past_p_64():
    # log space keeps every power finite (RuntimeWarnings are errors in
    # this suite), so a warm-started p list certifies at p = 16384; the
    # iteration counts at large p move with the BLAS thread count, so
    # none is asserted
    from infeig import Disk, rasterize
    grid = Grid(48, 48, 2.1 / 47, (-1.05, -1.05))
    mask = rasterize([Disk((0.0, 0.0), 1.0)], grid)
    _assert_certified_and_finite(sweep(example1_weight(grid, mask),
                                       [4, 64, 1024, 16384],
                                       dist=edt(mask))[1])
    _assert_certified_and_finite(strip_sweep(64, [16, 64, 1024, 16384]))
