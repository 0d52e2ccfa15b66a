import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import (disk_setup, example1_weight, example2_weight,
                      uniform_weight)
from infeig import (Disk, DomainMask, Grid, ScalarField, SolverOpts,
                    WeightField, cone_field, dirichlet_energy_p, edt, eigen,
                    mu1, negate, rasterize, regions_weight, solve_lambda1,
                    sweep, two_cone_upper_bound, weighted_mass_p)
from infeig.eigen import (_COARSE, _FRINGE, _MARGIN, _MEMORY, _REFRESH,
                          _Memory, _Stiffness, _invert_lower, _power,
                          _underflow_cut, _window,
                          cone_rayleigh_root, dirichlet_energy_grad,
                          rayleigh_root, seed_cone, weighted_mass_grad)
from infeig.errors import NoNegativeRegionError
from infeig.geometry import r_plus
from infeig.grid import index_box


def eigsh_lambda2_oracle(w, C=0.0):
    """Smallest generalized eigenvalue of the 5-point quadratic form matching
    the forward-difference energy, for constant positive weight masks; a
    constant zero-order term C adds C h^2 to the form's diagonal."""
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
                      shape=(N, N)) + sp.eye(N) * (C * h * h)
    mvals = w.m.ravel()[idx]
    M = sp.diags(mvals * h * h).tocsc()
    vals_, _ = spla.eigsh(A, k=1, M=M, sigma=0, which="LM")
    return float(vals_[0])


def projected_kkt(res, w, C=None):
    """Relative projected KKT residual of a returned eigenpair from the public
    gradients: max|P(dE - lam dG)| / max|dE| over inside nodes, where P drops
    positive components at nodes with u = 0."""
    gE = dirichlet_energy_grad(res.field, res.p, C)
    r = gE - res.lambda_root ** res.p * weighted_mass_grad(res.field, w, res.p)
    r = np.where((res.field.u == 0.0) & (r > 0.0), 0.0, r)
    inside = w.mask.inside
    return np.abs(r[inside]).max() / np.abs(gE[inside]).max()


TINY = np.finfo(float).tiny


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestPower:
    @pytest.mark.parametrize("e", [0.0, 0.25, 1.0, 3.0, 7.0, 31.0, 63.0])
    def test_flushes_exactly_the_subnormal_powers(self, e):
        table = [0.0, 1e-310, 1e-5, 0.5, 1.0]
        if e > 0:
            cut = TINY ** (1 / e)
            table += [np.nextafter(cut, 0.0), cut, np.nextafter(cut, 1.0)]
        # and a long array, so numpy's vector loops run with a mask
        rng = np.random.default_rng(17)
        spread = 10.0 ** rng.uniform(-20, 0, 1000)
        spread[rng.random(1000) < 0.3] = 0.0
        for a in (np.array(table), spread):
            plain = a ** e
            want = np.where(plain >= TINY, plain, 0.0) if e > 1 else plain
            assert (bits(_power(a, e)) == bits(want)).all()
        if e == 0:
            assert (_power(spread, e) == 1.0).all()

    def test_cut_is_the_last_flushed_base(self):
        for e in (1.5, 2.0, 3.0, 15.0, 31.0, 63.0, 64.0):
            cut = np.array([_underflow_cut(e)])
            assert (cut ** e < TINY).all()
            assert (np.nextafter(cut, 1.0) ** e >= TINY).all()

    def test_p64_kernels_match_plain_powers(self, monkeypatch):
        # the flush drops only subnormal terms, below the last bit of each
        # sum. The field sits on the strip weight (m = +1 for 0.8 < r < 1):
        # exact zeros inside r < 0.8 and values rising as the 8th power of
        # the distance from the strip's edges, so many powers underflow
        grid, mask, _ = disk_setup(1 / 32)
        w = example2_weight(grid, mask)
        X, Y = grid.coords()
        r = np.hypot(X, Y)
        ring = np.where(mask.inside,
                        np.clip(np.minimum(r - 0.8, 1 - r), 0, None), 0.0)
        u = ScalarField(grid, (ring / ring.max()) ** 8)
        C = ScalarField(grid, np.full(u.u.shape, 2.0))
        p = 64.0
        ux = np.diff(u.u, axis=0)[:, :-1] / grid.h
        uy = np.diff(u.u, axis=1)[:-1, :] / grid.h
        g = ux * ux + uy * uy
        for a, e in ((u.u / u.u.max(), p), (u.u, p - 1), (g, p / 2 - 1)):
            assert (a == 0).any() and ((a > 0) & (a <= _underflow_cut(e))).any()

        def kernels():
            return [weighted_mass_p(u, w, p), *dirichlet_energy_p(u, p),
                    *dirichlet_energy_p(u, p, C), rayleigh_root(u, w, p) ** p,
                    rayleigh_root(u, w, p, C) ** p], [
                    weighted_mass_grad(u, w, p), dirichlet_energy_grad(u, p),
                    dirichlet_energy_grad(u, p, C)]

        values, grads = kernels()
        monkeypatch.setattr(eigen, "_power", lambda a, e: a ** e)
        plain_values, plain_grads = kernels()
        assert values == pytest.approx(plain_values, rel=1e-15)
        for got, plain in zip(grads, plain_grads, strict=True):
            np.testing.assert_allclose(got, plain, rtol=1e-15, atol=1e-300)


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

    @pytest.mark.parametrize("top", [1.0, 1e5, 1e12])
    def test_mass_overflow_keeps_its_sign(self, top):
        # a weight of one sign on every node: the mass is the same number
        # with that sign, +-inf alike once top^64 overflows
        grid, mask, dist = disk_setup(1 / 16)
        u = cone_field((grid.nx // 2, grid.ny // 2), 1.0, grid, dist)
        u = ScalarField(grid, np.where(mask.inside, top * u.u, 0.0))
        plus = uniform_weight(grid, mask)
        pos = weighted_mass_p(u, plus, 64.0)
        neg = weighted_mass_p(u, negate(plus), 64.0)
        assert neg == -pos
        assert math.isinf(pos) == (top > 1.0)

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

    @pytest.mark.parametrize("zero_order", [False, True])
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 16.0, 64.0])
    def test_no_positive_component_at_zero_nodes(self, p, zero_order):
        # the solver keeps no bound set because of this: on a nonnegative
        # field the gradient of E is <= 0 at every zero node (each cell term
        # there is -pg (ux + uy) with ux, uy >= 0, or pg (0 - u_base)), and
        # the mass and C parts carry 0^(p-1) = 0; a floating-point sum of
        # nonpositive terms is never positive
        rng = np.random.default_rng(int(p) + 100 * zero_order)
        grid, mask, _ = disk_setup(1 / 10)
        shape = grid.shape
        Cf = (ScalarField(grid, 10.0 ** rng.uniform(-1.0, 1.0, shape))
              if zero_order else None)
        for _ in range(20):
            m = rng.standard_normal(shape)
            w = WeightField(grid, mask, m)
            assert w.sign_changing
            # magnitudes over eight decades, a few underflowing ones, and
            # 30-70 % of the inside nodes exactly zero
            vals = 10.0 ** rng.uniform(-8.0, 0.0, shape)
            tiny = rng.random(shape) < 0.05
            vals[tiny] = 10.0 ** rng.uniform(-300.0, -100.0, tiny.sum())
            nodes = np.flatnonzero(mask.inside)
            off = rng.choice(nodes, int(rng.uniform(0.3, 0.7) * nodes.size),
                             replace=False)
            vals.flat[off] = 0.0
            vals[~mask.inside] = 0.0
            u = ScalarField(grid, vals)
            zero = vals == 0.0
            gE = dirichlet_energy_grad(u, p)
            assert (gE[zero] <= 0.0).all()
            assert (gE[zero] < 0.0).any()
            assert (weighted_mass_grad(u, w, p)[zero] == 0.0).all()
            if zero_order:
                # the C term leaves every zero node's component as it was
                gC = dirichlet_energy_grad(u, p, Cf)
                assert np.array_equal(gC[zero], gE[zero])


class TestRayleigh:
    def test_zero_homogeneity(self):
        # at p = 64 both sums of the scaled field over- or underflow
        grid, mask, dist = disk_setup(1 / 64)
        w = uniform_weight(grid, mask)
        c = (grid.nx // 2, grid.ny // 2)
        u = cone_field(c, 0.5, grid, dist)
        for p, ts in ((5.0, (0.5, 3.0)), (64.0, (1e-6, 1e6))):
            base = rayleigh_root(u, w, p) ** p
            for t in ts:
                ut = ScalarField(grid, t * u.u)
                assert rayleigh_root(ut, w, p) ** p == pytest.approx(
                    base, rel=1e-12)

    def test_nonpositive_mass_is_inf(self):
        grid, mask, dist = disk_setup(1 / 32)
        zero = ScalarField(grid, np.zeros((grid.nx, grid.ny)))
        assert rayleigh_root(zero, uniform_weight(grid, mask), 4.0) == math.inf
        # m = -1 outside r < 0.25, so this cone on [0.3, 0.9] x [-0.3, 0.3]
        # has negative mass
        w = example1_weight(grid, mask)
        cone = cone_field((grid.nx // 2 + 19, grid.ny // 2), 0.3, grid, dist)
        assert weighted_mass_p(cone, w, 4.0) < 0
        assert rayleigh_root(cone, w, 4.0) == math.inf


class TestSolver:
    def test_p2_matches_eigsh(self):
        grid, mask, dist = disk_setup(1 / 40)
        w = uniform_weight(grid, mask)
        res = solve_lambda1(w, 2.0, opts=SolverOpts(tol=1e-5), dist=dist)
        oracle = eigsh_lambda2_oracle(w)
        assert res.converged
        assert res.lambda_root ** 2 == pytest.approx(oracle, rel=1e-6)

    def test_p2_zero_order_two_grid_matches_eigsh(self, monkeypatch):
        # C = 1 shifts the uniform disk's eigenvalue by 1, and every coarse
        # refresh of the solve builds the two-grid cycle's factor
        grid, mask, dist = disk_setup(1 / 40)
        w = uniform_weight(grid, mask)
        Cf = ScalarField(grid, np.ones(grid.shape))
        built = []
        coarsen = _Stiffness._coarsen

        def recording(stiff, *args):
            coarsen(stiff, *args)
            built.append(stiff.W is not None)

        monkeypatch.setattr(_Stiffness, "_coarsen", recording)
        res = solve_lambda1(w, 2.0, C=Cf, opts=SolverOpts(tol=1e-5), dist=dist)
        assert built and all(built)
        assert res.converged
        assert res.lambda_root ** 2 == pytest.approx(
            eigsh_lambda2_oracle(w, C=1.0), rel=1e-6)

    @pytest.mark.parametrize("a,b,nx,ny", [(17, 9, 23, 14), (9, 17, 14, 23)])
    def test_block_matches_closed_form(self, a, b, nx, ny):
        # an a x b block of inside nodes on a non-square grid: at p = 2 the
        # cell energy is the 5-point form, whose first Dirichlet eigenvalue
        # is (4/h^2)(sin^2(pi/(2(a+1))) + sin^2(pi/(2(b+1)))); a row stride
        # of nx in place of ny cannot reproduce it
        h = 0.1
        grid = Grid(nx, ny, h)
        inside = np.zeros((nx, ny), dtype=bool)
        inside[2:2 + a, 3:3 + b] = True
        w = uniform_weight(grid, DomainMask(grid, inside))
        exact = 4 / h ** 2 * (math.sin(math.pi / (2 * (a + 1))) ** 2
                              + math.sin(math.pi / (2 * (b + 1))) ** 2)
        # tol 1e-9 is below the floating-point floor: it ends on line_search
        res = solve_lambda1(w, 2.0, opts=SolverOpts(tol=1e-9))
        assert res.lambda_root ** 2 == pytest.approx(exact, rel=1e-13, abs=0.0)
        res = solve_lambda1(w, 2.0, opts=SolverOpts(tol=1e-6))
        assert res.converged and res.stop == "tol"
        assert res.lambda_root ** 2 == pytest.approx(exact, rel=1e-12, abs=0.0)
        res = solve_lambda1(w, 8.0)
        assert res.converged
        assert res.lambda_root == pytest.approx(
            rayleigh_root(res.field, w, 8.0), rel=1e-12, abs=0.0)

    def test_rejects_fields_on_another_grid(self):
        grid, mask, dist = disk_setup(1 / 8)
        w = uniform_weight(grid, mask)
        wider = Grid(grid.nx + 1, grid.ny, grid.h, grid.origin)
        finer = Grid(grid.nx, grid.ny, grid.h / 2, grid.origin)
        for other in (wider, finer):
            f = ScalarField(other, np.ones(other.shape))
            with pytest.raises(ValueError, match="u0 grid .* is not"):
                solve_lambda1(w, 4.0, dist=dist, u0=f)
            with pytest.raises(ValueError, match="C grid .* is not"):
                solve_lambda1(w, 4.0, C=f, dist=dist)

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

    @pytest.mark.parametrize("zero_order", [False, True])
    @pytest.mark.parametrize("max_iter", [0, 1, 2, 5])
    @pytest.mark.parametrize("spikes", [False, True])
    def test_zero_nodes_leave_kkt_unprojected(self, spikes, max_iter,
                                              zero_order):
        # from a small off-centre ball most inside nodes start at zero;
        # with spikes on 10 % of the nodes the line search also clips
        # nodes to zero by the fifth step. The projection in the KKT
        # residual drops nothing, so the plain residual is the projected one
        grid, mask, dist = disk_setup(1 / 24)
        w = example1_weight(grid, mask, delta=0.4)
        C = (ScalarField(grid, np.full(grid.shape, 1.0)) if zero_order
             else None)
        u0 = cone_field((grid.nx // 2 + 5, grid.ny // 2 - 3), 0.15, grid)
        if spikes:
            rng = np.random.default_rng(3)
            u0 = ScalarField(grid, u0.u + 0.02 * (rng.random(grid.shape) < 0.1))
        res = solve_lambda1(w, 8.0, C=C, opts=SolverOpts(max_iter=max_iter),
                            dist=dist, u0=u0)
        assert res.iterations == max_iter
        assert (res.field.u >= 0.0).all()
        inside = mask.inside
        zero = res.field.u == 0.0
        assert zero[inside].sum() >= (0.05 if spikes else 0.9) * inside.sum()
        gE = dirichlet_energy_grad(res.field, res.p, C)
        r = gE - res.lambda_root ** res.p * weighted_mass_grad(res.field, w,
                                                               res.p)
        assert (r[zero] <= 0.0).all()
        plain = np.abs(r[inside]).max() / np.abs(gE[inside]).max()
        assert projected_kkt(res, w, C) == plain
        assert res.residual == pytest.approx(plain, rel=1e-6)

    def test_stall_is_not_converged(self):
        # tol 1e-12 lies below the floating-point floor of the residual
        grid, mask, dist = disk_setup(1 / 40)
        w = uniform_weight(grid, mask)
        res = solve_lambda1(w, 2.0, opts=SolverOpts(tol=1e-12), dist=dist)
        assert not res.converged and res.stop == "line_search"
        assert res.residual > 1e-12
        assert res.lambda_root ** 2 == pytest.approx(eigsh_lambda2_oracle(w),
                                                     rel=1e-6)

    def test_lambda_equals_rayleigh_of_field(self):
        grid, mask, dist = disk_setup(1 / 32)
        w = example1_weight(grid, mask, delta=0.4)
        res = solve_lambda1(w, 4.0, dist=dist)
        assert res.lambda_root ** 4 == pytest.approx(
            rayleigh_root(res.field, w, 4.0) ** 4, rel=1e-10)

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
            assert rayleigh_root(uu, w, p) >= res.lambda_root - 1e-10
            checked += 1

    def test_monotone_in_weight(self):
        # enlarging m decreases the discrete eigenvalue
        grid, mask, dist = disk_setup(1 / 32)
        w_small = example1_weight(grid, mask, delta=0.5)
        w_big = uniform_weight(grid, mask)
        opts = SolverOpts(tol=1e-5)
        a = solve_lambda1(w_small, 4.0, opts=opts, dist=dist)
        b = solve_lambda1(w_big, 4.0, opts=opts, dist=dist)
        assert b.lambda_root ** 4 <= a.lambda_root ** 4 + 1e-10

    def test_mu1_duality_exact(self):
        grid, mask, dist = disk_setup(1 / 32)
        w = example1_weight(grid, mask, delta=0.4)
        res_neg = mu1(w, 3.0, dist=dist)
        res_pos = solve_lambda1(negate(w), 3.0, dist=dist)
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

    def test_two_level_peak_memory(self):
        # P is kept as two 1-D hat matrices and Ac^-1 as one dense factor:
        # a stored P (inside nodes x 484 coarse nodes) alone would add
        # ~100 MB here. The one-level solver (H0 = D - 0.4 D A D) peaked at
        # 11.28 MB on this solve, whether capped at 60 iterations or not
        grid = Grid(192, 192, 2.1 / 191, (-1.05, -1.05))
        mask = rasterize([Disk((0.0, 0.0), 1.0)], grid)
        w = example1_weight(grid, mask)
        dist = edt(mask)
        tracemalloc.start()
        try:
            solve_lambda1(w, 4.0, opts=SolverOpts(max_iter=60), dist=dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 11.28e6

    def test_p_out_of_range(self):
        grid, mask, dist = disk_setup(1 / 16)
        w = uniform_weight(grid, mask)
        # nan passes a lone p < 2 test; inf leaves no finite log
        for bad in (1.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                solve_lambda1(w, bad, dist=dist)

    def test_zero_order_raises_eigenvalue(self):
        grid, mask, dist = disk_setup(1 / 32)
        w = uniform_weight(grid, mask)
        opts = SolverOpts(tol=1e-5)
        plain = solve_lambda1(w, 4.0, opts=opts, dist=dist)
        Cf = ScalarField(grid, np.full((grid.nx, grid.ny), 1.0))
        with_C = solve_lambda1(w, 4.0, C=Cf, opts=opts, dist=dist)
        assert with_C.lambda_root > plain.lambda_root


def dense_stiffness(pg, inside):
    """Dense lagged-diffusivity stiffness on the inside nodes (row-major
    order), cell by cell: each cell's x and y edges from its base corner add
    pg to both end nodes' diagonals and -pg off the diagonal; an edge end
    outside the mask is dropped, as the field is zero there."""
    index = -np.ones(inside.shape, dtype=int)
    index[inside] = np.arange(inside.sum())
    A = np.zeros((inside.sum(), inside.sum()))
    for i in range(inside.shape[0] - 1):
        for j in range(inside.shape[1] - 1):
            base = index[i, j]
            for other in (index[i + 1, j], index[i, j + 1]):
                if base >= 0:
                    A[base, base] += pg[i, j]
                if other >= 0:
                    A[other, other] += pg[i, j]
                if base >= 0 and other >= 0:
                    A[base, other] -= pg[i, j]
                    A[other, base] -= pg[i, j]
    return A


def dense_prolongation(inside):
    """Bilinear hats of the coarse nodes _COARSE apart, anchored at the
    collar row and column before the first inside node, on the inside nodes
    (row-major), one column per coarse node (row-major) whose hat covers an
    inside node."""
    f = _COARSE
    hats = []
    for axis, n in enumerate(inside.shape):
        first = np.flatnonzero(inside.any(axis=1 - axis))[0] - 1
        nodes = np.arange(n)[:, None]
        coarse = first + f * np.arange(-2, n // f + 3)[None, :]
        hats.append(np.maximum(1.0 - np.abs(nodes - coarse) / f, 0.0))
    P = np.einsum("iI,jJ->ijIJ", *hats)[inside]
    P = P.reshape(P.shape[0], -1)
    return P[:, P.sum(axis=0) > 0]


def chebyshev(lo, hi):
    """(s, c) of the polynomial p(x) = s (1 - c x) whose residual
    1 - x p(x) is the degree-2 Chebyshev polynomial on [lo, hi], scaled to
    1 at 0: its roots are (lo + hi) / 2 +- (hi - lo) / (2 sqrt 2), whose
    sum is 1 / c and product 1 / (s c)."""
    total = lo + hi
    product = (total * total - (hi - lo) ** 2 / 2) / 4
    return total / product, 1 / total


SMOOTHER = chebyshev(1 / 15, 2.0)  # the two-grid cycle's S = s (D - c D A D)


def smoother_floor(lo, hi):
    """min over x in [0, hi] of p(x) (2 - x p(x)), p the polynomial of
    ``chebyshev(lo, hi)``: 2 S - S A S is at least that times D, as D A
    has its spectrum in [0, hi]. The minimum is at an end or a root of the
    quadratic derivative."""
    s, c = chebyshev(lo, hi)
    poly = np.polynomial.Polynomial
    p = poly([s, -s * c])
    f = 2 * p - poly([0.0, 1.0]) * p * p
    crit = [x.real for x in f.deriv().roots()
            if abs(x.imag) == 0.0 and 0.0 <= x.real <= hi]
    return min(f(x) for x in [0.0, hi, *crit])


FLOOR = smoother_floor(1 / 15, 2.0)  # 0.197, at x = 2


def dense_h0(pg, inside):
    """(B, D, P, G): the initial Hessian B, D = 1 / diag A floored at 1e-3
    of its max, the hats P of the coarse term and the matrix G of gamma's
    quadratic form. P holds the hats with at most a share _FRINGE of their
    weight on floored nodes, none when more than a share _FRINGE of the
    nodes is floored. Without P, B = G = D - 0.4 D A D. With it, C =
    P (P^T Abar P)^-1 P^T, Abar = A with the floored diagonal, and B is the
    symmetric two-grid cycle 2 S - S A S + (I - S A) C (I - A S) with the
    smoother S = s (D - c D A D) of ``SMOOTHER``, while
    G = D - 0.4 D A D + C."""
    A = dense_stiffness(pg, inside)
    diag = np.diag(A)
    floored = np.maximum(diag, 1e-3 * diag.max())
    D = 1.0 / floored
    G = np.diag(D) - 0.4 * D[:, None] * A * D[None, :]
    lifted = floored > diag
    P = dense_prolongation(inside)
    P = P[:, (lifted @ P <= _FRINGE * P.sum(axis=0))
          & (lifted.mean() <= _FRINGE)]
    if not P.shape[1]:
        return G, D, P, G
    C = P @ np.linalg.inv(P.T @ (A + np.diag(floored - diag)) @ P) @ P.T
    s, c = SMOOTHER
    S = s * (np.diag(D) - c * D[:, None] * A * D[None, :])
    E = np.eye(D.size) - S @ A
    return 2 * S - S @ A @ S + E @ C @ E.T, D, P, G + C


def two_loop_reference(g, pairs, H0, G):
    """-H g by the textbook two-loop recursion over (s, y) pairs (oldest
    first) with the dense initial Hessian gamma H0, gamma = s . y / y . G y
    of the newest kept pair; pairs with s . y <= 0 are skipped."""
    q = g
    hist = []
    for s, y in pairs:
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
        gamma = sy / (y @ G @ y)
    q = gamma * (H0 @ q)
    for (s, y, sy), a in zip(hist, reversed(alphas)):
        q = q + (a - (y @ q) / sy) * s
    return -q


def box_layout(inside):
    """(r0, c0, bx, by) of the solver's box: from the collar row and column
    before the first inside node to those after the last, bx x by nodes,
    based at grid node (r0, c0)."""
    rows = [i for i in range(inside.shape[0]) if inside[i].any()]
    cols = [j for j in range(inside.shape[1]) if inside[:, j].any()]
    r0, c0 = rows[0] - 1, cols[0] - 1
    return r0, c0, rows[-1] + 2 - r0, cols[-1] + 2 - c0


def to_box(pg, inside, fill):
    """The solver's cell array of the 2-D cell values pg: box cell (i, j),
    based at box node (i, j), is 2-D cell (i + r0, j + c0) for j < by - 1,
    and the wrap column j = by - 1 keeps the values of ``fill``."""
    r0, c0, bx, by = box_layout(inside)
    cells = np.array(fill, dtype=float).reshape(bx - 1, by)
    cells[:, :-1] = pg[r0:r0 + bx - 1, c0:c0 + by - 1]
    return cells.ravel()


def cell_count(inside):
    """L, the number of the solver's cells."""
    _, _, bx, by = box_layout(inside)
    return (bx - 1) * by


def disk_inside():
    return disk_setup(0.1)[1].inside


def offset_inside():
    """Off-centre ellipse on a 15 x 10 grid: nx != ny, so a row stride of
    nx in place of ny cannot pass."""
    i, j = np.mgrid[:15, :10]
    inside = (i - 8.5) ** 2 / 20 + (j - 3.7) ** 2 / 6 < 1
    assert not (inside[[0, -1]].any() or inside[:, [0, -1]].any())
    return inside


def random_stiffness(rng, decades, inside, flushed=None):
    """(stiffness, pg) on the inside nodes, pg log-uniform over the given
    number of decades on every 2-D cell, also those with no inside corner,
    and random on the box's wrap column, which must change nothing; pg is
    exactly 0 on the cells where ``flushed`` is set, as where large p
    flushes |grad u|^(p-2)."""
    pg = 10.0 ** rng.uniform(-decades, 0.0, (inside.shape[0] - 1,
                                             inside.shape[1] - 1))
    if flushed is not None:
        pg[flushed] = 0.0
    stiff = _Stiffness(inside)
    stiff.update(to_box(pg, inside, rng.random(cell_count(inside))))
    return stiff, pg


def push(mem, s, y):
    """mem.push with the pair's s . y."""
    mem.push(s, y, s @ y)


def check_gram_direction(rng, inside):
    """_Memory.direction against the dense two-loop oracle in both
    precisions: with a coarse factor (float32, from the first pair) and on
    a one-level stiffness (float64)."""
    assert check_gram_pass(rng, inside, 3.0)
    assert not check_gram_pass(rng, inside, 10.0)


def check_gram_pass(rng, inside, decades):
    """One pass of ``check_gram_direction`` through a wrap of the ring, a
    pair with s . y <= 0 and a single pair, on a stiffness with pg over
    ``decades``; returns whether it has a coarse factor. The memory is
    built in the stiffness's precision and stores every pair there, and
    the direction matches to 1e-5 in float32, 1e-10 in float64."""
    stiff, pg = random_stiffness(rng, decades, inside)
    H0, D, P, G = dense_h0(pg, inside)
    assert np.allclose(stiff.D, D, rtol=1e-14, atol=0.0)
    single = stiff.W is not None
    assert (P.shape[1] > 0) == single
    dtype, tol = (np.float32, 1e-5) if single else (np.float64, 1e-10)
    n = D.size
    pairs = []
    for k in range(_MEMORY + 3):  # wraps the ring
        s = rng.standard_normal(n)
        y = s * rng.uniform(0.5, 2.0, n) + 0.1 * rng.standard_normal(n)
        if k == 7:
            y = -s  # s . y < 0: skipped, though still in the ring
        pairs.append((s, y))
    mem = _Memory(n, single)

    def check(g, pairs):
        d = mem.direction(g, stiff)
        assert mem.S.dtype == mem.Y.dtype == dtype
        assert d.dtype == np.float64
        ref = two_loop_reference(g, pairs, H0, G)
        assert np.abs(d - ref).max() <= tol * np.abs(ref).max()

    for s, y in pairs[:3]:
        push(mem, s, y)
    assert mem.S.dtype == mem.Y.dtype == dtype
    check(rng.standard_normal(n), pairs[:3])
    for s, y in pairs[3:]:
        push(mem, s, y)
    assert len(mem) == _MEMORY
    for _ in range(3):
        check(rng.standard_normal(n), pairs[-_MEMORY:])
    mem.clear()
    push(mem, *pairs[0])
    check(rng.standard_normal(n), pairs[:1])
    return single


def check_h0(rng, inside, decades, flushed=None):
    """stiff.h0 column by column against the dense B on all inside nodes,
    symmetric and >= FLOOR D, and stiff.h0_quad against gamma's dense form
    G; returns the number of coarse nodes the coarse term uses. The
    one-level step runs in float64 and matches to 1e-12; the cycle runs in
    float32, so it matches to 1e-5 of B's largest entry (1e-7 to 1e-6
    seen), is symmetric to that bound and >= FLOOR D less it."""
    stiff, pg = random_stiffness(rng, decades, inside, flushed)
    ref, D, P, G = dense_h0(pg, inside)
    assert np.allclose(stiff.D, D, rtol=1e-14, atol=0.0)
    assert (stiff.W is None if P.shape[1] == 0
            else stiff.W.shape[0] == P.shape[1])
    single = stiff.W is not None
    dtype, tol = (np.float32, 1e-5) if single else (np.float64, 1e-12)
    H0 = np.column_stack([stiff.h0(e) for e in np.eye(D.size, dtype=dtype)])
    assert H0.dtype == dtype
    H0 = H0.astype(float)
    scale = np.abs(ref).max()
    assert np.abs(H0 - ref).max() <= tol * scale
    assert np.abs(H0 - H0.T).max() <= tol * scale
    q1, q2 = rng.standard_normal((2, D.size)).astype(dtype)
    assert abs(float(q1 @ stiff.h0(q2)) - float(q2 @ stiff.h0(q1))) <= (
        tol * scale * np.linalg.norm(q1) * np.linalg.norm(q2))
    # 2 S - S A S >= FLOOR D and the one-level step >= 0.2 D, as D A has
    # its spectrum in [0, 2] (Gershgorin), and the coarse term is positive
    # semidefinite
    slack = tol * scale if single else 0.0
    assert np.linalg.eigvalsh(H0).min() >= FLOOR * D.min() - slack
    scaled = H0 / np.sqrt(np.outer(D, D))
    assert np.linalg.eigvalsh(scaled).min() >= FLOOR - (
        tol * np.abs(scaled).max() if single else 1e-9)
    for _ in range(3):
        y = rng.standard_normal(D.size).astype(dtype)
        assert stiff.h0_quad(y) == pytest.approx(
            y.astype(float) @ G @ y, rel=1e-5 if single else 1e-12)
    return P.shape[1]


def flushed_cells(inside, cols):
    """Cells of the first ``cols`` columns, on which pg is exactly 0."""
    flushed = np.zeros((inside.shape[0] - 1, inside.shape[1] - 1), bool)
    flushed[:, :cols] = True
    return flushed


class TestLbfgsMemory:
    def test_gram_direction_matches_two_loop(self):
        check_gram_direction(np.random.default_rng(23), disk_inside())

    def test_h0_positive_definite(self):
        # >= FLOOR D whatever the contrast of pg; ten decades floor more than
        # a share _FRINGE of the nodes, so H0 is the one-level step there,
        # and four decades keep the cycle
        rng = np.random.default_rng(5)
        assert check_h0(rng, disk_inside(), 10.0) == 0
        assert check_h0(rng, disk_inside(), 4.0) > 0

    def test_h0_every_coarse_node_active(self):
        # two decades of pg floor no node: the coarse term spans every hat
        inside = disk_inside()
        used = check_h0(np.random.default_rng(7), inside, 2.0)
        assert used == dense_prolongation(inside).shape[1]

    def test_h0_flushed_region_matches_dense(self):
        # pg exactly 0 on the cells left of the centre line, as large p
        # flushes it: half the nodes are floored, more than a share
        # _FRINGE, so no coarse matrix is built and H0 is one-level
        inside = disk_inside()
        flushed = flushed_cells(inside, inside.shape[1] // 2)
        assert check_h0(np.random.default_rng(11), inside, 2.0, flushed) == 0

    def test_h0_flushed_fringe_matches_dense(self):
        # a flushed band floors a few nodes, at most a share _FRINGE: the
        # hats with more than a share _FRINGE of their weight on them leave
        # the coarse term, and Abar's floor keeps the coarse matrix of the
        # others definite, while the cycle's residuals use A itself
        inside = disk_inside()
        used = check_h0(np.random.default_rng(13), inside, 2.0,
                        flushed_cells(inside, 5))
        assert 0 < used < dense_prolongation(inside).shape[1]

    @pytest.mark.parametrize("n", [1, 40, 150, 484])
    def test_invert_lower_matches_inverse(self, n):
        # past 64 rows it recurses by halves; the coarse matrix has ~150
        # nodes at 96 x 96 and 484 at 192 x 192
        rng = np.random.default_rng(n)
        B = rng.standard_normal((n, n))
        L = np.linalg.cholesky(B @ B.T + n * np.eye(n))
        W = _invert_lower(L.copy())
        assert not np.triu(W, 1).any()
        ref = np.linalg.inv(L)
        assert np.abs(W - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_nonsquare_offset_mask_matches_dense(self):
        rng = np.random.default_rng(37)
        check_gram_direction(rng, offset_inside())
        check_h0(rng, offset_inside(), 10.0)
        assert check_h0(rng, offset_inside(), 2.0) > 0

    @pytest.mark.parametrize("make_inside", [disk_inside, offset_inside])
    def test_cells_without_inside_corner_change_nothing(self, make_inside):
        # random pg on the wrap column and on the cells with no inside
        # corner, against zero there: D, H0 and y . H0 y bit for bit
        rng = np.random.default_rng(41)
        inside = make_inside()
        L = cell_count(inside)
        pg = 10.0 ** rng.uniform(-3.0, 0.0, (inside.shape[0] - 1,
                                             inside.shape[1] - 1))
        touched = inside[:-1, :-1] | inside[1:, :-1] | inside[:-1, 1:]
        assert not touched.all()
        junk, clean = _Stiffness(inside), _Stiffness(inside)
        junk.update(to_box(pg, inside, 10.0 ** rng.uniform(-3.0, 3.0, L)))
        clean.update(to_box(np.where(touched, pg, 0.0), inside,
                            np.zeros(L)))
        assert np.array_equal(junk.D, clean.D)
        assert np.array_equal(junk.W, clean.W)
        assert junk.W is not None
        q = rng.standard_normal(junk.D.size)
        assert np.array_equal(junk.h0(q), clean.h0(q))
        assert junk.h0_quad(q) == clean.h0_quad(q)

    def test_memory_scales_with_the_box_not_the_grid(self):
        # a small off-centre disk in a wide grid: building the stiffness,
        # its first update (which builds the coarse matrix) and one H0 q
        # allocate what they do on a grid cropped close to the disk. A
        # layout spanning the full grid width allocated ~6x as much here
        grid = Grid(60, 600, 0.05, (0.0, 0.0))
        wide = rasterize([Disk((1.5, 15.0), 1.2)], grid).inside
        cols = np.flatnonzero(wide.any(axis=0))
        tight = wide[:, cols[0] - 3:cols[-1] + 4].copy()
        rng = np.random.default_rng(43)
        peaks = []
        for inside in (wide, tight):
            warm = _Stiffness(inside)  # numpy.linalg's first use is not counted
            pg = 10.0 ** rng.uniform(-2.0, 0.0, warm.L)
            warm.update(pg)
            q = rng.standard_normal(int(inside.sum()))
            tracemalloc.start()
            try:
                stiff = _Stiffness(inside)
                stiff.update(pg)
                stiff.h0(q)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert stiff.W is not None
        assert peaks[0] <= 1.1 * peaks[1]


@pytest.fixture
def regimes(monkeypatch):
    """The solver's precision events in order: ("refresh", whether it built
    a coarse factor), ("memory", the dtype of the rows of a memory built or
    emptied) and ("direction", the dtype of the memory rows and the number
    of live pairs after the ``_Memory.direction`` call)."""
    events = []
    update, build, direction = (_Stiffness.update, _Memory.__init__,
                                _Memory.direction)

    def record_update(stiff, pg):
        update(stiff, pg)
        events.append(("refresh", stiff.W is not None))

    def record_build(mem, *args):
        build(mem, *args)
        events.append(("memory", mem.S.dtype))

    def record_direction(mem, *args):
        d = direction(mem, *args)
        assert d.dtype == np.float64
        events.append(("direction", mem.S.dtype, len(mem)))
        return d

    monkeypatch.setattr(_Stiffness, "update", record_update)
    monkeypatch.setattr(_Memory, "__init__", record_build)
    monkeypatch.setattr(_Memory, "direction", record_direction)
    return events


def directions(events):
    """The memory dtypes of the ``regimes`` direction events."""
    return [e[1] for e in events if e[0] == "direction"]


class TestPrecision:
    def test_direction_precision_follows_the_coarse_factor(self, regimes):
        # ex1 at 96 x 96: every solve builds a factor and keeps it, so each
        # direction before a solve's first factor runs in float64 and each
        # after it in float32; only the p = 4 solve, which starts on
        # windows, has directions before it. Each solve builds its memory
        # in the precision of its first direction: float32 from the first
        # pair for p >= 8, while p = 4 restarts the memory at its first
        # factor, and its first float32 direction sees it empty. The
        # strip's windows never get a factor: float64 throughout
        grid, mask, dist = benchmark_grid(96)
        w = example1_weight(grid, mask)
        prev = None
        for p in (4.0, 8.0, 16.0, 32.0):
            regimes.clear()
            res = solve_lambda1(w, p, dist=dist, u0=prev)
            assert res.converged
            prev = res.field
            first = regimes.index(("refresh", True))
            before = directions(regimes[:first])
            after = directions(regimes[first:])
            assert all(d == np.float64 for d in before)
            assert after and all(d == np.float32 for d in after)
            assert bool(before) == (p == 4.0)
            # the memory is built for the first direction
            moves = [e for e in regimes if e[0] != "refresh"]
            assert moves[0] == ("memory", moves[1][1])
            built = [e[1] for e in moves if e[0] == "memory"]
            empty = [i for i, e in enumerate(regimes)
                     if e[0] == "direction" and e[2] == 0]
            single = next(i for i, e in enumerate(regimes)
                          if e[0] == "direction" and e[1] == np.float32)
            if p == 4.0:
                assert built == [np.float64, np.float32]
                assert empty == [single]
            else:
                assert built == [np.float32] and not empty
        regimes.clear()
        prev = None
        for p in (16.0, 64.0):
            prev = strip_solve(p, u0=prev).field
        strip = directions(regimes)
        assert strip and all(d == np.float64 for d in strip)

    def test_h0_single_arrays_are_float32(self, monkeypatch):
        # with a factor, every array h0 and h0_quad pass through the
        # stiffness's helpers is float32, and so is h0's output: no float64
        # scalar or operand promotes the cycle
        stiff, _ = random_stiffness(np.random.default_rng(3), 2.0,
                                    disk_inside())
        assert stiff.W is not None
        seen = []
        for name in ("smooth", "differences", "matvec", "restrict",
                     "_spread"):
            def recording(*args, _f=getattr(_Stiffness, name), **kwargs):
                out = _f(*args, **kwargs)
                seen.extend(a.dtype for a in (*args[1:], *np.atleast_1d(out))
                            if isinstance(a, np.ndarray))
                return out
            monkeypatch.setattr(_Stiffness, name, recording)
        q = np.random.default_rng(4).standard_normal(stiff.D.size)
        out = stiff.h0(q.astype(np.float32))
        quad = stiff.h0_quad(q.astype(np.float32))
        assert out.dtype == np.float32 and isinstance(quad, float)
        assert seen and all(d == np.float32 for d in seen)
        assert all(a.dtype == np.float32 for a in (
            stiff.W, *vars(stiff.f32).values()))
        assert stiff.pg.dtype == stiff.D.dtype == np.float64

    def test_memory_units_and_restarts(self):
        # the first pair of a float32 generation sets its units: pairs
        # 1e-12 to 1e12 times it keep finite rows, and the direction, which
        # rescaling a pair leaves as it is, matches the dense oracle; after
        # clear() a pair whose s is 1e200 larger sets new units. A
        # direction with a stiffness of the other precision empties the
        # memory into that precision (zero rows, zero Gram matrix) and is
        # -H0 g with gamma = 1, both ways, at |g| ~ 1e-50 and 1e50
        rng = np.random.default_rng(29)
        inside = disk_inside()
        flat, flat_pg = random_stiffness(rng, 10.0, inside)
        cycle, cycle_pg = random_stiffness(rng, 2.0, inside)
        assert flat.W is None and cycle.W is not None
        n = flat.D.size
        mem = _Memory(n, True)
        pairs = []
        for e in (0, 12, -12, 6, -6):
            s = rng.standard_normal(n)
            y = s * rng.uniform(0.5, 2.0, n) + 0.1 * rng.standard_normal(n)
            pairs.append((s * 10.0 ** e, y * 10.0 ** e))
            push(mem, *pairs[-1])
        assert np.isfinite(mem.S).all() and np.isfinite(mem.Y).all()
        assert 1e11 < np.abs(mem.S).max() < 1e13
        g = rng.standard_normal(n)
        H0, _, _, G = dense_h0(cycle_pg, inside)
        ref = two_loop_reference(g, pairs, H0, G)
        d = mem.direction(g, cycle)
        assert np.abs(d - ref).max() <= 1e-5 * np.abs(ref).max()
        mem.clear()
        push(mem, s * 1e200, y)
        (slot,) = mem.order
        assert np.abs(mem.S[slot]).max() <= 1.0
        assert np.abs(mem.Y[slot]).max() <= 1.0
        for single, stiff, pg in ((True, flat, flat_pg),
                                  (False, cycle, cycle_pg)):
            for scale in (1e-50, 1e50):
                mem = _Memory(n, single)
                push(mem, s * scale, y * scale)
                g = rng.standard_normal(n) * scale
                d = mem.direction(g, stiff)
                assert len(mem) == 0
                assert mem.S.dtype == mem.Y.dtype == (
                    np.float64 if single else np.float32)
                assert not (mem.S.any() or mem.Y.any() or mem.SY.any())
                ref = -dense_h0(pg, inside)[0] @ g
                tol = 1e-12 if single else 1e-5
                assert np.abs(d - ref).max() <= tol * np.abs(ref).max()


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
                singles.append(rayleigh_root(uu, w, p))
            assert bound == pytest.approx(max(singles), rel=1e-12)

    def test_inf_when_cones_have_negative_mass(self):
        grid, mask, dist, c1, c2 = self._setup()
        w = example1_weight(grid, mask)  # m = -1 outside r < 0.25
        assert two_cone_upper_bound(8.0, c1, c2, 0.2, w, dist) == math.inf


def benchmark_grid(n):
    """n x n grid on [-1.05, 1.05]^2 with its unit disk and distance field,
    the benchmark's setup."""
    grid = Grid(n, n, 2.1 / (n - 1), (-1.05, -1.05))
    mask = rasterize([Disk((0.0, 0.0), 1.0)], grid)
    return grid, mask, edt(mask)


def scaled_ex1_sweep(s):
    """(w, dist, results, bounds) of the sweep p = 4, 16, 64 on the 33 x 33
    ex1 disk (m = 1 for r < 1/2, else -1) scaled by s."""
    grid = Grid(33, 33, 2.1 * s / 32, (-1.05 * s, -1.05 * s))
    mask = rasterize([Disk((0.0, 0.0), s)], grid)
    w = regions_weight(-1.0, [(Disk((0.0, 0.0), 0.5 * s), 1.0)], grid, mask)
    dist = edt(mask)
    return w, dist, *sweep(w, [4, 16, 64], dist=dist)[1:]


def strip_solve(p, u0=None, callback=None):
    """The 64 x 64 boundary strip with C = 1, the strip benchmark's setup,
    solved at p from the seed cone or from u0."""
    grid, mask, dist = benchmark_grid(64)
    w = example2_weight(grid, mask)
    Cf = ScalarField(grid, np.ones(grid.shape))
    return solve_lambda1(w, p, C=Cf, dist=dist, u0=u0, callback=callback)


@pytest.fixture
def windows(monkeypatch):
    """The boxes ``_window`` returns, in order, as (grown, box) with grown
    True for a box united with an earlier one, and the node counts and node
    masks the solver builds its stiffness on."""
    calls, counts, masks = [], [], []

    def record_window(inside, support, whole, total, box=None):
        calls.append((box is not None,
                      _window(inside, support, whole, total, box)))
        return calls[-1][1]

    class Recording(_Stiffness):
        def __init__(self, inside):
            counts.append(int(np.count_nonzero(inside)))
            masks.append(inside.copy())
            super().__init__(inside)

    monkeypatch.setattr(eigen, "_window", record_window)
    monkeypatch.setattr(eigen, "_Stiffness", Recording)
    return calls, counts, masks


def whole_box(monkeypatch):
    monkeypatch.setattr(eigen, "_window",
                        lambda inside, *args: index_box(inside))


class TestWindow:
    def test_box_and_whole_box_share(self):
        # the margin-widened box of the support, united with the old box and
        # clipped to the inside nodes' box; that whole box once at most a
        # share _FRINGE of the inside nodes would lie outside
        _, mask, _ = benchmark_grid(64)
        inside = mask.inside
        whole = index_box(inside)
        total = inside.sum()
        support = np.zeros_like(inside)
        support[30, 40] = True
        box = _window(inside, support, whole, total)
        assert box == (30 - _MARGIN, 31 + _MARGIN, 40 - _MARGIN, 41 + _MARGIN)
        assert _window(inside, support, whole, total,
                       (10, 20, 5, 60)) == (10, 35, 5, 60)
        rows = np.flatnonzero(inside.any(axis=1))
        support[rows[0] + 1] = True
        assert _window(inside, support, whole, total)[:2] == (rows[0], 35)
        for half in range(1, 32):
            support[:] = False
            support[32 - half:32 + half, 32 - half:32 + half] = True
            box = _window(inside, support, whole, total)
            lo, hi = 32 - half - _MARGIN, 32 + half + _MARGIN
            outside = total - inside[max(lo, 0):hi, max(lo, 0):hi].sum()
            assert (box == whole) == (outside / total <= _FRINGE)
        assert _window(inside, inside, whole, total) == whole

    def test_ex1_sweep_matches_whole_box(self, monkeypatch, windows):
        # ex1 at 96 x 96 (at 48 x 48 its seed cone's window would already
        # leave out at most a share _FRINGE): a smooth case, so the window
        # changes only the order of sums
        calls, counts, _ = windows
        grid, mask, dist = benchmark_grid(96)
        w = example1_weight(grid, mask)
        _, got, _ = sweep(w, [4, 8, 16, 32], dist=dist)
        assert calls[0][1] != index_box(mask.inside)
        assert counts[0] < mask.inside.sum()
        whole_box(monkeypatch)
        _, ref, _ = sweep(w, [4, 8, 16, 32], dist=dist)
        # the float32 direction of the coarse factor's iterations moves the
        # fields apart by ~4e-9
        for a, b in zip(got, ref, strict=True):
            assert a.converged and b.converged
            assert a.iterations == b.iterations
            assert a.lambda_root == pytest.approx(b.lambda_root, rel=1e-12)
            assert np.abs(a.field.u - b.field.u).max() <= 1e-7

    def test_strip_cold_solve_grows_exactly(self, monkeypatch, windows):
        # the strip's p = 16 cone grows its window three times and never
        # reaches the whole box; log lambda follows the whole-box solve's
        # through the first growth, after the 7th step, until the strip's
        # chaos amplifies the order of the sums
        calls, _, _ = windows
        whole = index_box(benchmark_grid(64)[1].inside)
        got = []
        res = strip_solve(16.0, callback=lambda v: got.append((v, len(calls))))
        assert res.converged
        assert not calls[0][0] and all(grown for grown, _ in calls[1:])
        assert len(calls) > 1 and all(box != whole for _, box in calls)
        before = sum(n == 1 for _, n in got)  # steps before the first growth
        assert before < 9
        whole_box(monkeypatch)
        ref = []
        strip_solve(16.0, callback=ref.append)
        assert [v for v, _ in got[:9]] == pytest.approx(ref[:9], rel=1e-12)

    def test_strip_warm_solve_is_zero_outside_its_window(self, monkeypatch,
                                                          windows):
        calls, _, _ = windows
        cold = strip_solve(16.0)
        calls.clear()
        got = []
        res = strip_solve(64.0, u0=cold.field, callback=got.append)
        assert res.converged
        r0, r1, c0, c1 = calls[-1][1]
        outside = np.ones(res.field.u.shape, bool)
        outside[r0:r1, c0:c1] = False
        assert (res.field.u[outside] == 0.0).all()
        whole_box(monkeypatch)
        ref = []
        strip_solve(64.0, u0=cold.field, callback=ref.append)
        assert got[:4] == pytest.approx(ref[:4], rel=1e-13)

    def test_p2_runs_on_the_whole_box(self, windows):
        # pg = gn^0 = 1 on cells with zero differences: a zero node moves
        calls, counts, masks = windows
        inside = benchmark_grid(64)[1].inside
        res = strip_solve(2.0)
        assert res.converged
        assert not calls
        assert counts == [inside.sum()]
        assert index_box(masks[0]) == index_box(inside)
        assert np.array_equal(masks[0], inside)

    def test_coarse_factor_only_on_the_whole_box_every_refresh(
            self, monkeypatch):
        # the solver alone schedules the coarse factor: ``_coarsen`` runs
        # only on the whole box, every _REFRESH accepted iterations. ex1
        # starts on windows and reaches the whole box; the strip's windows
        # never do, so its solves assemble no coarse matrix
        calls, steps = [], [0]
        coarsen = _Stiffness._coarsen

        def recording(stiff, floored, lifted):
            calls.append((floored.size, steps[0]))
            coarsen(stiff, floored, lifted)

        def count(_):
            steps[0] += 1

        monkeypatch.setattr(_Stiffness, "_coarsen", recording)
        grid, mask, dist = benchmark_grid(96)
        w = example1_weight(grid, mask)
        prev = None
        for p in (4.0, 8.0, 16.0, 32.0):
            steps[0] = 0
            prev = solve_lambda1(w, p, dist=dist, u0=prev,
                                 callback=count).field
        total = mask.inside.sum()
        assert calls and all(n == total and it % _REFRESH == 0
                             for n, it in calls)
        calls.clear()
        prev = None
        for p in (16.0, 64.0):
            prev = strip_solve(p, u0=prev, callback=count).field
        assert not calls

    def test_window_holding_most_nodes_runs_on_the_whole_box(self, windows):
        # ex1's 48 x 48 seed cone: its widened box leaves out at most a
        # share _FRINGE of the inside nodes
        calls, counts, masks = windows
        grid, mask, dist = benchmark_grid(48)
        res = solve_lambda1(example1_weight(grid, mask), 4.0, dist=dist)
        assert res.converged
        assert calls == [(False, index_box(mask.inside))]
        assert counts == [mask.inside.sum()]
        assert np.array_equal(masks[0], mask.inside)


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
        target, results, bounds = sweep(w, [2, 4, 8],
                                        opts=SolverOpts(tol=1e-5), dist=dist)
        assert [r.p for r in results] == [2.0, 4.0, 8.0]
        assert len(bounds) == 3
        assert target == pytest.approx(1.0 / dist.d.max(), rel=1e-12)
        for r, bound in zip(results, bounds):
            assert r.converged
            assert bound >= r.lambda_root - 1e-9
        # lambda_root drifts toward the geometric target as p grows
        deviations = [abs(r.lambda_root - target) for r in results]
        assert deviations[-1] < deviations[0]

    def test_matches_public_call_chain(self):
        # the chain bench/traced.py replays: warm-started solves from a cold
        # first one, and the public cone bound per p
        grid, mask, dist = disk_setup(1 / 16)
        w = example1_weight(grid, mask, delta=0.5)
        Cf = ScalarField(grid, np.full((grid.nx, grid.ny), 1.0))
        opts = SolverOpts(tol=1e-5)
        target, results, bounds = sweep(w, [4, 8, 16], C=Cf, opts=opts,
                                        dist=dist)
        assert target == max(1.0 / r_plus(dist, w.plus)[0], 1.0)
        prev = None
        for p, got, bound in zip((4.0, 8.0, 16.0), results, bounds,
                                 strict=True):
            res = solve_lambda1(w, p, C=Cf, opts=opts, dist=dist, u0=prev)
            prev = res.field
            assert replace(got, field=None) == replace(res, field=None)
            assert (got.field.u == res.field.u).all()
            assert bound == cone_rayleigh_root(w, p, dist, Cf)

    @pytest.mark.parametrize("s", [1e-5, 1e-6])
    def test_small_geometry_seeds_at_p64(self, s):
        # the ex1 disk scaled by s: at p = 64 the seed cone's plain weighted
        # mass underflows to 0 while its log is finite, and every root
        # scales as 1/s
        w, dist, results, bounds = scaled_ex1_sweep(s)
        assert weighted_mass_p(seed_cone(w, 64.0, dist), w, 64.0) == 0.0
        _, _, refs, ref_bounds = scaled_ex1_sweep(1.0)
        for res, bound, ref, ref_bound in zip(results, bounds, refs,
                                              ref_bounds, strict=True):
            assert res.converged
            assert res.lambda_root * s == pytest.approx(ref.lambda_root, rel=1e-6)
            assert bound * s == pytest.approx(ref_bound, rel=1e-12)
            # log lambda reaches 743.7 at s = 1e-5 and p = 64: lambda itself
            # overflows, its root does not
            for f in fields(res):
                value = getattr(res, f.name)
                if isinstance(value, (int, float)):
                    assert math.isfinite(value), f.name
            assert np.isfinite(res.field.u).all()
            assert rayleigh_root(res.field, w, res.p) == pytest.approx(
                res.lambda_root, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("s", [1e-148, 1e148])
    def test_geometry_scale_at_the_length_bound(self, s):
        # the same disk at the ends of the lengths a config admits (h from
        # 1e-150, coordinates to 1e150): every solve certifies, and every
        # root scales as 1/s
        refs = scaled_ex1_sweep(1.0)[2]
        for res, ref in zip(scaled_ex1_sweep(s)[2], refs, strict=True):
            assert res.stop == "tol"
            assert res.lambda_root * s == pytest.approx(ref.lambda_root,
                                                        rel=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1e-300, 1e-250, 1e-100, 1e100, 1e250,
                                   1e300, 1e308])
    def test_roots_covariant_under_weight_scale(self, c, regimes):
        # lambda(c m) = lambda(m) / c, so each root is the c = 1 root times
        # c^(-1/p), at both ends of the double range: the solver and the
        # seed cone's mass sum run on m / max|m|. A warm start has unit
        # mass, so its values scale as c^(-1/p), and the scale-free
        # curvature test keeps the pairs of such tiny or huge iterates. The
        # p = 4 solve gets a coarse factor, so its float32 directions must
        # be scale-safe too
        grid = Grid(21, 21, 0.1, (-1.0, -1.0))
        mask = rasterize([Disk((0.0, 0.0), 0.9)], grid)
        dist = edt(mask)

        def solve(c):
            w = regions_weight(-c, [(Disk((0.0, 0.0), 0.4), c)], grid, mask)
            results = sweep(w, [4, 64], dist=dist)[1]
            assert [r.stop for r in results] == ["tol", "tol"]
            return ([r.lambda_root * c ** (1 / r.p) for r in results],
                    sum(r.iterations for r in results))

        roots, iterations = solve(c)
        assert np.float32 in directions(regimes)
        ref, ref_iterations = solve(1.0)
        assert roots == pytest.approx(ref, rel=1e-6)
        assert iterations <= 2 * ref_iterations

    def test_ex1_sweep_iterations(self):
        # the two-grid cycle's Chebyshev smoother damps the middle of D A's
        # spectrum, which its coarse space cannot reach: ex1 at 48 x 48
        # takes 121 iterations over p = 4, 8, 16, 32, and 155 with one
        # damped Jacobi step per side; the count holds with the direction
        # scaled by 1 +- 1e-15, 1 + 1e-14 or 1 + 1e-7. The roots are those
        # of the Jacobi-smoothed solves, up to the tolerance
        grid, mask, dist = benchmark_grid(48)
        w = example1_weight(grid, mask)
        _, results, _ = sweep(w, [4, 8, 16, 32], dist=dist)
        assert all(r.converged for r in results)
        assert sum(r.iterations for r in results) <= 135
        assert [r.lambda_root for r in results] == pytest.approx(
            [2.9427265037, 1.6874673277, 1.3473413688, 1.1978391246], rel=1e-7)

    def test_zero_order_target(self):
        grid, mask, dist = disk_setup(1 / 32, radius=0.5)
        w = uniform_weight(grid, mask)
        Cf = ScalarField(grid, np.full((grid.nx, grid.ny), 1.0))
        target, _, _ = sweep(w, [4], C=Cf, opts=SolverOpts(tol=1e-5),
                             dist=dist)
        # R+ < 1 here, so the zero-order target is 1/R+ as well
        assert target == pytest.approx(1.0 / dist.d.max(), rel=1e-12)
