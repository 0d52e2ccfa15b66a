import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import disk_setup, example1_weight, uniform_weight
from infeig import (ScalarField, SolverOpts, cone_field, dirichlet_energy_p,
                    mu1, negate, solve_lambda1, sweep, two_cone_upper_bound,
                    weighted_mass_p)
from infeig.eigen import (_MEMORY, SweepRecord, _Memory, cone_rayleigh_root,
                          dirichlet_energy_grad, rayleigh, seed_cone,
                          weighted_mass_grad)
from infeig.errors import NoNegativeRegionError
from infeig.geometry import r_plus


def eigsh_lambda2_oracle(w):
    """Smallest generalized eigenvalue of the 5-point quadratic form matching
    the forward-difference energy, for constant positive weight masks."""
    inside = w.mask.inside
    h = w.grid.h
    idx = np.flatnonzero(inside.ravel())
    N = idx.size
    g2l = -np.ones(inside.size, dtype=int)
    g2l[idx] = np.arange(N)
    rows, cols, vals = [], [], []
    nn = inside.shape[1]
    for off in (1, nn):
        b = idx + off
        ok = g2l[b] >= 0
        A_, B_ = idx[ok], b[ok]
        rows += [g2l[A_], g2l[B_], g2l[A_], g2l[B_]]
        cols += [g2l[A_], g2l[B_], g2l[B_], g2l[A_]]
        vals += [np.ones(ok.sum()), np.ones(ok.sum()),
                 -np.ones(ok.sum()), -np.ones(ok.sum())]
        A2_ = idx[~ok]
        rows += [g2l[A2_]]
        cols += [g2l[A2_]]
        vals += [np.ones((~ok).sum())]
        b2 = idx - off
        ok2 = g2l[b2] < 0
        A3_ = idx[ok2]
        rows += [g2l[A3_]]
        cols += [g2l[A3_]]
        vals += [np.ones(ok2.sum())]
    A = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(N, N))
    mvals = w.m.ravel()[idx]
    M = sp.diags(mvals * h * h).tocsc()
    vals_, _ = spla.eigsh(A, k=1, M=M, sigma=0, which="LM")
    return float(vals_[0])


def projected_kkt(res, w, C=None):
    """Relative projected KKT residual of a returned eigenpair from the public
    gradients: max|P(dE - lam dG)| / max|dE| over inside nodes, where P drops
    positive components at nodes with u = 0."""
    gE = dirichlet_energy_grad(res.field, res.p, C)
    r = gE - res.lam * weighted_mass_grad(res.field, w, res.p)
    r = np.where((res.field.u == 0.0) & (r > 0.0), 0.0, r)
    inside = w.mask.inside
    return np.abs(r[inside]).max() / np.abs(gE[inside]).max()


class TestEnergyAndMass:
    def test_zero_field(self):
        grid, mask, _ = disk_setup(1 / 32)
        z = ScalarField(grid, np.zeros((grid.nx, grid.ny)))
        val, log = dirichlet_energy_p(z, 4.0)
        assert val == 0.0 and log == -math.inf
        w = uniform_weight(grid, mask)
        assert weighted_mass_p(z, w, 4.0) == 0.0

    def test_cone_p2_energy(self):
        # |grad| = 1 a.e. on the ball, so the 2-energy tends to pi r^2
        grid, mask, dist = disk_setup(1 / 128)
        c = (grid.nx // 2, grid.ny // 2)
        u = cone_field(c, 0.8, grid, dist)
        val, _ = dirichlet_energy_p(u, 2.0)
        assert val == pytest.approx(np.pi * 0.64, rel=0.05)

    def test_energy_homogeneity(self):
        grid, mask, dist = disk_setup(1 / 64)
        c = (grid.nx // 2, grid.ny // 2)
        u = cone_field(c, 0.5, grid, dist)
        u2 = ScalarField(grid, 2.0 * u.u)
        for p in (2.0, 7.0, 33.0):
            e1, l1 = dirichlet_energy_p(u, p)
            e2, l2 = dirichlet_energy_p(u2, p)
            assert l2 - l1 == pytest.approx(p * math.log(2.0), rel=1e-12)
            if math.isfinite(e2):
                assert e2 == pytest.approx(2 ** p * e1, rel=1e-12)

    def test_mass_root_approaches_apex_height(self):
        # (int |u|^p)^(1/p) -> max u = r as p grows
        grid, mask, dist = disk_setup(1 / 64)
        c = (grid.nx // 2, grid.ny // 2)
        u = cone_field(c, 0.5, grid, dist)
        w = uniform_weight(grid, mask)
        roots = [weighted_mass_p(u, w, p) ** (1 / p) for p in (2, 8, 32)]
        assert roots[0] < roots[1] < roots[2] < 0.5

    def test_mass_odd_symmetry_cancellation(self):
        grid, mask, _ = disk_setup(1 / 32)
        from infeig import build_weight
        w = build_weight(lambda X, Y: X, grid, mask)
        X, _ = grid.coords()
        u = ScalarField(grid, np.where(mask.inside, np.abs(X), 0.0))
        # |x| is even, m = x is odd: exact cancellation on the symmetric grid
        assert abs(weighted_mass_p(u, w, 4.0)) <= 1e-12

    def test_zero_order_term(self):
        grid, mask, dist = disk_setup(1 / 64)
        c = (grid.nx // 2, grid.ny // 2)
        u = cone_field(c, 0.5, grid, dist)
        Cf = ScalarField(grid, np.full((grid.nx, grid.ny), 2.0))
        e0, _ = dirichlet_energy_p(u, 3.0)
        w = uniform_weight(grid, mask)
        m_abs = weighted_mass_p(u, w, 3.0)
        eC, _ = dirichlet_energy_p(u, 3.0, Cf)
        assert eC == pytest.approx(e0 + 2.0 * m_abs, rel=1e-12)


class TestGradients:
    @pytest.mark.parametrize("p", [2.0, 6.0, 17.0])
    def test_energy_gradient_fd(self, p):
        # modulated cone: every cell's gradient magnitude is O(1), so the
        # central difference is well conditioned even at p = 17
        grid, mask, dist = disk_setup(1 / 24)
        rng = np.random.default_rng(42)
        c = (grid.nx // 2, grid.ny // 2)
        X, Y = grid.coords()
        cone = cone_field(c, 0.8, grid, dist).u
        vals = np.where(mask.inside,
                        cone * (1 + 0.05 * np.sin(3 * X + 1) * np.sin(2 * Y - 1)),
                        0.0)
        u = ScalarField(grid, vals)
        g = dirichlet_energy_grad(u, p)
        nodes = np.argwhere(mask.inside & (cone > 0.1))
        picks = nodes[rng.choice(len(nodes), size=50, replace=False)]
        # nodal steps scale by 1/h inside the cell gradients, so keep eps small
        eps = 1e-6
        for i, j in picks:
            up = vals.copy(); up[i, j] += eps
            um = vals.copy(); um[i, j] -= eps
            fd = (dirichlet_energy_p(ScalarField(grid, up), p)[0]
                  - dirichlet_energy_p(ScalarField(grid, um), p)[0]) / (2 * eps)
            assert g[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-10)

    @pytest.mark.parametrize("p", [2.0, 6.0, 17.0])
    def test_mass_gradient_fd(self, p):
        grid, mask, _ = disk_setup(1 / 24)
        w = example1_weight(grid, mask, delta=0.4)
        rng = np.random.default_rng(3)
        # values near 1 keep all nodal terms comparable in magnitude
        vals = np.where(mask.inside,
                        0.9 + 0.2 * rng.random((grid.nx, grid.ny)), 0.0)
        u = ScalarField(grid, vals)
        g = weighted_mass_grad(u, w, p)
        nodes = np.argwhere(mask.inside)
        picks = nodes[rng.choice(len(nodes), size=50, replace=False)]
        eps = 1e-4
        for i, j in picks:
            up = vals.copy(); up[i, j] += eps
            um = vals.copy(); um[i, j] -= eps
            fd = (weighted_mass_p(ScalarField(grid, up), w, p)
                  - weighted_mass_p(ScalarField(grid, um), w, p)) / (2 * eps)
            assert g[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_zero_order_gradient_fd(self):
        grid, mask, _ = disk_setup(1 / 24)
        Cf = ScalarField(grid, np.full((grid.nx, grid.ny), 1.5))
        rng = np.random.default_rng(8)
        vals = np.where(mask.inside, 0.5 + rng.random((grid.nx, grid.ny)), 0.0)
        g = dirichlet_energy_grad(ScalarField(grid, vals), 3.0, Cf)
        nodes = np.argwhere(mask.inside)
        picks = nodes[rng.choice(len(nodes), size=20, replace=False)]
        eps = 1e-6
        for i, j in picks:
            up = vals.copy(); up[i, j] += eps
            um = vals.copy(); um[i, j] -= eps
            fd = (dirichlet_energy_p(ScalarField(grid, up), 3.0, Cf)[0]
                  - dirichlet_energy_p(ScalarField(grid, um), 3.0, Cf)[0]) / (2 * eps)
            assert g[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-10)


class TestRayleigh:
    def test_zero_homogeneity(self):
        # at p = 64 both sums of the scaled field over- or underflow
        grid, mask, dist = disk_setup(1 / 64)
        w = uniform_weight(grid, mask)
        c = (grid.nx // 2, grid.ny // 2)
        u = cone_field(c, 0.5, grid, dist)
        for p, ts in ((5.0, (0.5, 3.0)), (64.0, (1e-6, 1e6))):
            base = rayleigh(u, w, p)
            for t in ts:
                ut = ScalarField(grid, t * u.u)
                assert rayleigh(ut, w, p) == pytest.approx(base, rel=1e-12)

    def test_nonpositive_mass_is_inf(self):
        grid, mask, dist = disk_setup(1 / 32)
        zero = ScalarField(grid, np.zeros((grid.nx, grid.ny)))
        assert rayleigh(zero, uniform_weight(grid, mask), 4.0) == math.inf
        # m = -1 outside r < 0.25, so this cone on [0.3, 0.9] x [-0.3, 0.3]
        # has negative mass
        w = example1_weight(grid, mask)
        cone = cone_field((grid.nx // 2 + 19, grid.ny // 2), 0.3, grid, dist)
        assert weighted_mass_p(cone, w, 4.0) < 0
        assert rayleigh(cone, w, 4.0) == math.inf


class TestSolver:
    def test_p2_matches_eigsh(self):
        grid, mask, dist = disk_setup(1 / 40)
        w = uniform_weight(grid, mask)
        res = solve_lambda1(w, 2.0, opts=SolverOpts(tol=1e-5), dist=dist)
        oracle = eigsh_lambda2_oracle(w)
        assert res.converged
        assert res.lam == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("case,p", [("uniform", 4.0), ("example1", 6.0),
                                        ("zero_order", 4.0)])
    def test_converged_certifies_kkt(self, case, p):
        grid, mask, dist = disk_setup(1 / 32)
        w = (example1_weight(grid, mask, delta=0.4) if case == "example1"
             else uniform_weight(grid, mask))
        C = (ScalarField(grid, np.full((grid.nx, grid.ny), 1.0))
             if case == "zero_order" else None)
        tol = SolverOpts().tol
        res = solve_lambda1(w, p, C=C, dist=dist)
        assert res.converged and res.stop == "tol"
        assert res.residual <= tol
        assert projected_kkt(res, w, C) <= tol

    @pytest.mark.parametrize("zero_order", [False, True])
    @pytest.mark.parametrize("p", [2.0, 4.0, 64.0])
    def test_residual_matches_public_kernels(self, zero_order, p):
        # the solver's gradient reuses each trial's cached powers; the
        # residual it reports must equal the one the public kernels give
        grid, mask, dist = disk_setup(1 / 32)
        w = example1_weight(grid, mask, delta=0.4)
        C = (ScalarField(grid, np.full((grid.nx, grid.ny), 1.0))
             if zero_order else None)
        res = solve_lambda1(w, p, C=C, opts=SolverOpts(max_iter=40), dist=dist)
        assert res.residual == pytest.approx(projected_kkt(res, w, C), rel=1e-6)

    def test_stall_is_not_converged(self):
        # tol 1e-12 lies below the floating-point floor of the residual
        grid, mask, dist = disk_setup(1 / 40)
        w = uniform_weight(grid, mask)
        res = solve_lambda1(w, 2.0, opts=SolverOpts(tol=1e-12), dist=dist)
        assert not res.converged and res.stop == "line_search"
        assert res.residual > 1e-12
        assert res.lam == pytest.approx(eigsh_lambda2_oracle(w), rel=1e-6)

    def test_lambda_equals_rayleigh_of_field(self):
        grid, mask, dist = disk_setup(1 / 32)
        w = example1_weight(grid, mask, delta=0.4)
        res = solve_lambda1(w, 4.0, dist=dist)
        assert res.lam == pytest.approx(rayleigh(res.field, w, 4.0), rel=1e-10)

    def test_descent_monotone(self):
        grid, mask, dist = disk_setup(1 / 32)
        w = uniform_weight(grid, mask)
        seen = []
        solve_lambda1(w, 6.0, dist=dist, callback=seen.append)
        assert all(b < a for a, b in zip(seen, seen[1:]))

    def test_field_nonnegative_inside_zero_outside(self):
        grid, mask, dist = disk_setup(1 / 32)
        w = example1_weight(grid, mask, delta=0.4)
        res = solve_lambda1(w, 3.0, dist=dist)
        assert (res.field.u >= 0).all()
        assert (res.field.u[~mask.inside] == 0).all()

    def test_cone_bound_inequality(self):
        # every admissible cone's Rayleigh root bounds lambda_root from above
        grid, mask, dist = disk_setup(1 / 32)
        w = uniform_weight(grid, mask)
        p = 6.0
        res = solve_lambda1(w, p, opts=SolverOpts(tol=1e-5), dist=dist)
        rng = np.random.default_rng(17)
        nodes = np.argwhere(mask.inside)
        checked = 0
        while checked < 20:
            i, j = nodes[rng.integers(len(nodes))]
            r = dist.d[i, j] * rng.uniform(0.3, 1.0)
            if r < 2 * grid.h:
                continue
            u = cone_field((int(i), int(j)), float(r), grid, dist)
            uu = ScalarField(grid, np.where(mask.inside, u.u, 0.0))
            q = rayleigh(uu, w, p)
            assert q ** (1 / p) >= res.lambda_root - 1e-10
            checked += 1

    def test_monotone_in_weight(self):
        # enlarging m decreases the discrete eigenvalue
        grid, mask, dist = disk_setup(1 / 32)
        w_small = example1_weight(grid, mask, delta=0.5)
        w_big = uniform_weight(grid, mask)
        opts = SolverOpts(tol=1e-5)
        a = solve_lambda1(w_small, 4.0, opts=opts, dist=dist)
        b = solve_lambda1(w_big, 4.0, opts=opts, dist=dist)
        assert b.lam <= a.lam + 1e-10

    def test_mu1_duality_exact(self):
        grid, mask, dist = disk_setup(1 / 32)
        w = example1_weight(grid, mask, delta=0.4)
        res_neg = mu1(w, 3.0, dist=dist)
        res_pos = solve_lambda1(negate(w), 3.0, dist=dist)
        assert res_neg.lam == -res_pos.lam
        assert res_neg.lambda_root == -res_pos.lambda_root

    def test_mu1_requires_negative_region(self):
        grid, mask, dist = disk_setup(1 / 32)
        w = uniform_weight(grid, mask)
        with pytest.raises(NoNegativeRegionError):
            mu1(w, 3.0, dist=dist)

    def test_p64_stays_finite(self):
        grid, mask, dist = disk_setup(1 / 64)
        w = uniform_weight(grid, mask)
        res = solve_lambda1(w, 64.0, opts=SolverOpts(max_iter=200), dist=dist)
        assert math.isfinite(res.lambda_root)
        assert np.isfinite(res.field.u).all()
        assert 0.5 < res.lambda_root < 3.0

    def test_p_out_of_range(self):
        grid, mask, dist = disk_setup(1 / 16)
        w = uniform_weight(grid, mask)
        for bad in (1.5, 65.0):
            with pytest.raises(ValueError):
                solve_lambda1(w, bad, dist=dist)

    def test_zero_order_raises_eigenvalue(self):
        grid, mask, dist = disk_setup(1 / 32)
        w = uniform_weight(grid, mask)
        opts = SolverOpts(tol=1e-5)
        plain = solve_lambda1(w, 4.0, opts=opts, dist=dist)
        Cf = ScalarField(grid, np.full((grid.nx, grid.ny), 1.0))
        with_C = solve_lambda1(w, 4.0, C=Cf, opts=opts, dist=dist)
        assert with_C.lam > plain.lam


def two_loop_reference(g, pairs, free, D):
    """-H g by the plain two-loop recursion over (s, y) pairs (oldest first)
    with the initial Hessian gamma diag(D), gamma = s . y / y . D y of the
    newest kept pair, restricted to the free variables; pairs with s . y <= 0
    there are skipped."""
    sel = slice(None) if free.all() else free
    q, D = g[sel], D[sel]
    hist = []
    for s, y in pairs:
        s, y = s[sel], y[sel]
        sy = s @ y
        if sy > 0.0:
            hist.append((s, y, sy))
    alphas = []
    for s, y, sy in reversed(hist):
        a = (s @ q) / sy
        q = q - a * y
        alphas.append(a)
    gamma = 1.0
    if hist:
        s, y, sy = hist[-1]
        gamma = sy / (y @ (D * y))
    q = gamma * D * q
    for (s, y, sy), a in zip(hist, reversed(alphas)):
        q = q + (a - (y @ q) / sy) * s
    d = np.zeros_like(g)
    d[sel] = -q
    return d


class TestLbfgsMemory:
    @pytest.mark.parametrize("bound_share", [0.0, 0.1])
    def test_gram_direction_matches_two_loop(self, bound_share):
        rng = np.random.default_rng(23)
        n = 400
        free = rng.random(n) >= bound_share
        pairs = []
        for k in range(_MEMORY + 3):  # wraps the ring
            s = rng.standard_normal(n)
            y = s * rng.uniform(0.5, 2.0, n) + 0.1 * rng.standard_normal(n)
            if k == 7:
                # s . y < 0 on the free set (and overall when all are free)
                y = np.where(free, -s, 50.0 * s)
            pairs.append((s, y))
        if bound_share:
            s, y = pairs[7]
            assert s @ y > 0.0 and s[free] @ y[free] <= 0.0
        mem = _Memory(n)
        for s, y in pairs:
            mem.push(s, y)
        assert len(mem) == _MEMORY

        def check(g, pairs, D):
            d = mem.direction(g, free, D)
            ref = two_loop_reference(g, pairs, free, D)
            assert np.abs(d - ref).max() <= 1e-10 * np.abs(ref).max()
            assert (d[~free] == 0.0).all()

        for k in range(3):
            # a diagonal spanning decades, different at every call, and
            # the identity (the plain gamma I scaling)
            D = 10.0 ** rng.uniform(-3.0, 0.0, n) if k < 2 else np.ones(n)
            check(rng.standard_normal(n), pairs[-_MEMORY:], D)
        mem.clear()
        mem.push(*pairs[0])
        check(rng.standard_normal(n), pairs[:1], 10.0 ** rng.uniform(-3.0, 0.0, n))


class TestTwoConeBound:
    def _setup(self):
        grid, mask, dist = disk_setup(1 / 64)
        n2 = grid.nx // 2
        off = int(0.5 / grid.h)
        return grid, mask, dist, (n2 - off, n2), (n2 + off, n2)

    def test_bound_dominates_lambda1(self):
        grid, mask, dist, c1, c2 = self._setup()
        w = uniform_weight(grid, mask)
        p = 5.0
        res = solve_lambda1(w, p, opts=SolverOpts(tol=1e-5), dist=dist)
        bound = two_cone_upper_bound(p, c1, c2, 0.3, w, dist)
        assert bound >= res.lambda_root

    def test_symmetry_in_centers(self):
        grid, mask, dist, c1, c2 = self._setup()
        w = uniform_weight(grid, mask)
        b1 = two_cone_upper_bound(4.0, c1, c2, 0.3, w, dist)
        b2 = two_cone_upper_bound(4.0, c2, c1, 0.3, w, dist)
        assert b1 == pytest.approx(b2, rel=1e-9)

    def test_matches_single_cone_endpoints(self):
        grid, mask, dist, c1, c2 = self._setup()
        w = uniform_weight(grid, mask)
        for p in (4.0, 8.0, 16.0, 32.0, 64.0):
            bound = two_cone_upper_bound(p, c1, c2, 0.3, w, dist)
            singles = []
            for c in (c1, c2):
                u = cone_field(c, 0.3, grid, dist)
                uu = ScalarField(grid, np.where(mask.inside, u.u, 0.0))
                singles.append(rayleigh(uu, w, p) ** (1 / p))
            assert bound == pytest.approx(max(singles), rel=1e-12)

    def test_inf_when_cones_have_negative_mass(self):
        grid, mask, dist, c1, c2 = self._setup()
        w = example1_weight(grid, mask)  # m = -1 outside r < 0.25
        assert two_cone_upper_bound(8.0, c1, c2, 0.2, w, dist) == math.inf


class TestSweep:
    def test_requires_sorted(self):
        grid, mask, dist = disk_setup(1 / 16)
        w = uniform_weight(grid, mask)
        with pytest.raises(ValueError):
            sweep(w, [8, 4], dist=dist)
        with pytest.raises(ValueError):
            sweep(w, [4, 4], dist=dist)

    def test_records_and_warm_start(self):
        grid, mask, dist = disk_setup(1 / 32)
        w = uniform_weight(grid, mask)
        recs, fields = sweep(w, [2, 4, 8], opts=SolverOpts(tol=1e-5),
                             dist=dist)
        assert [r.p for r in recs] == [2.0, 4.0, 8.0]
        assert len(fields) == 3
        for r in recs:
            assert r.converged
            assert r.target == pytest.approx(1.0 / dist.d.max(), rel=1e-12)
            assert r.deviation == abs(r.lambda_root - r.target)
            assert r.cone_bound >= r.lambda_root - 1e-9
        # lambda_root drifts toward the geometric target as p grows
        assert recs[-1].deviation < recs[0].deviation

    def test_matches_public_call_chain(self):
        # the chain bench/traced.py replays: warm-started solves from a cold
        # first one, and the public cone bound per p
        grid, mask, dist = disk_setup(1 / 16)
        w = example1_weight(grid, mask, delta=0.5)
        Cf = ScalarField(grid, np.full((grid.nx, grid.ny), 1.0))
        opts = SolverOpts(tol=1e-5)
        recs, fields = sweep(w, [4, 8, 16], C=Cf, opts=opts, dist=dist)
        target = max(1.0 / r_plus(dist, w.plus)[0], 1.0)
        prev = None
        for p, rec, field in zip((4.0, 8.0, 16.0), recs, fields, strict=True):
            res = solve_lambda1(w, p, C=Cf, opts=opts, dist=dist, u0=prev)
            prev = res.field
            assert rec == SweepRecord(
                p=p, lambda_root=res.lambda_root, target=target,
                deviation=abs(res.lambda_root - target),
                cone_bound=cone_rayleigh_root(w, p, dist, Cf),
                iterations=res.iterations, converged=res.converged)
            assert (field.u == res.field.u).all()

    def test_zero_order_target(self):
        grid, mask, dist = disk_setup(1 / 32, radius=0.5)
        w = uniform_weight(grid, mask)
        Cf = ScalarField(grid, np.full((grid.nx, grid.ny), 1.0))
        recs, _ = sweep(w, [4], C=Cf, opts=SolverOpts(tol=1e-5), dist=dist)
        # R+ < 1 here, so the zero-order target is 1/R+ as well
        assert recs[0].target == pytest.approx(1.0 / dist.d.max(), rel=1e-12)
