from functools import partial

import numpy as np
import pytest

from conftest import (disk_setup, example1_weight, example2_weight,
                      example3_weight, random_mask, uniform_weight)
from infeig import (Disk, DomainMask, Grid, cone_field, compute_limits, edt,
                    pack, r_plus, rasterize, two_cone_field)
from infeig.errors import (GeometryError, InfeasiblePackingError,
                           NoPositiveRegionError)
from infeig.eigen import dirichlet_energy_p


def brute_force_pack2(dist, plus_mask):
    pts = np.argwhere(plus_mask)
    d = dist.d
    h = dist.grid.h
    best = -np.inf
    for a in range(len(pts)):
        da = d[pts[a, 0], pts[a, 1]]
        sep = 0.5 * h * np.hypot(pts[:, 0] - pts[a, 0], pts[:, 1] - pts[a, 1])
        obj = np.minimum(np.minimum(d[pts[:, 0], pts[:, 1]], da), sep)
        best = max(best, obj.max())
    return best


def disk_h23():
    grid, mask, dist = disk_setup(1 / 23)
    return dist, uniform_weight(grid, mask).plus


def sweep_grid_disk():
    # the 96x96 acceptance sweep grid: 6408 plus nodes
    grid = Grid(96, 96, 2.1 / 95, (-1.05, -1.05))
    mask = rasterize([Disk((0.0, 0.0), 1.0)], grid)
    return edt(mask), mask.inside


def random_plus(seed):
    rng = np.random.default_rng(seed)
    inside = random_mask(rng)
    dist = edt(DomainMask(Grid(32, 32, 0.41), inside))
    while True:
        plus = inside & (rng.random(inside.shape) < rng.uniform(0.02, 1.0))
        if plus.sum() >= 2:
            return dist, plus


PACK2_CASES = {"disk_h23": disk_h23, "sweep_grid_disk_96": sweep_grid_disk,
               **{f"random_{s}": partial(random_plus, s) for s in range(6)}}


class TestRPlus:
    def test_unit_disk(self):
        grid, mask, dist = disk_setup(1 / 128)
        w = uniform_weight(grid, mask)
        rp, center = r_plus(dist, w.plus)
        assert abs(rp - 1.0) <= 2 / 128
        assert center == (128 + 2, 128 + 2)  # origin node

    def test_example1(self):
        grid, mask, dist = disk_setup(1 / 128)
        w = example1_weight(grid, mask, delta=0.25)
        rp, _ = r_plus(dist, w.plus)
        assert abs(rp - 1.0) <= 2 / 128

    def test_example3(self):
        grid, mask, dist = disk_setup(1 / 128)
        w = example3_weight(grid, mask, delta=0.1)
        rp, _ = r_plus(dist, w.plus)
        assert abs(rp - 0.6) <= 2 / 128

    def test_empty_plus(self):
        grid, mask, dist = disk_setup(1 / 32)
        w = uniform_weight(grid, mask)
        with pytest.raises(NoPositiveRegionError):
            r_plus(dist, np.zeros_like(w.plus))

    def test_tie_break_lexicographic(self):
        g = Grid(9, 9, 1.0)
        inside = np.zeros((9, 9), dtype=bool)
        inside[1:-1, 1:-1] = True
        dist = edt(DomainMask(g, inside))
        _, center = r_plus(dist, inside)
        ties = np.argwhere(dist.d == dist.d.max())
        assert center == tuple(ties[0])


class TestPack:
    def test_pack1_equals_r_plus(self):
        grid, mask, dist = disk_setup(1 / 64)
        w = uniform_weight(grid, mask)
        rp, _ = r_plus(dist, w.plus)
        res = pack(1, dist, w.plus)
        assert res.radius == rp and res.exact

    def test_pack2_unit_disk(self):
        grid, mask, dist = disk_setup(1 / 128)
        w = uniform_weight(grid, mask)
        res = pack(2, dist, w.plus)
        assert abs(res.radius - 0.5) <= 2 / 128

    def test_pack2_example1(self):
        grid, mask, dist = disk_setup(1 / 128)
        w = example1_weight(grid, mask, delta=0.25)
        res = pack(2, dist, w.plus)
        assert abs(res.radius - 0.25) <= 2 / 128

    def test_pack2_example3(self):
        grid, mask, dist = disk_setup(1 / 128)
        w = example3_weight(grid, mask, delta=0.1)
        res = pack(2, dist, w.plus)
        assert abs(res.radius - 0.5) <= 2 / 128

    @pytest.mark.parametrize("case", sorted(PACK2_CASES))
    def test_pack2_exact_matches_brute_force(self, case):
        dist, plus = PACK2_CASES[case]()
        res = pack(2, dist, plus)
        assert res.exact
        assert res.radius == brute_force_pack2(dist, plus)

    def test_pack_validity(self):
        grid, mask, dist = disk_setup(1 / 64)
        w = example1_weight(grid, mask, delta=0.25)
        for k in (2, 3, 4):
            res = pack(k, dist, w.plus, rng=np.random.default_rng(1))
            assert res.exact == (k <= 2)
            cents = np.array(res.centers)
            assert all(w.plus[c[0], c[1]] for c in res.centers)
            for c in res.centers:
                assert res.radius <= dist.d[c] + 1e-12
            for a in range(k):
                for b in range(a + 1, k):
                    sep = grid.h * np.hypot(*(cents[a] - cents[b]))
                    assert sep >= 2 * res.radius - 1e-12

    def test_pack_monotone_in_k(self):
        grid, mask, dist = disk_setup(1 / 48)
        w = uniform_weight(grid, mask)
        radii = [pack(k, dist, w.plus, rng=np.random.default_rng(0)).radius
                 for k in (1, 2, 3, 4)]
        assert all(radii[i] >= radii[i + 1] - 1e-12 for i in range(3))

    def test_monotone_in_mask(self):
        grid, mask, dist = disk_setup(1 / 48)
        w = uniform_weight(grid, mask)
        sub = example1_weight(grid, mask, delta=0.3)
        assert r_plus(dist, sub.plus)[0] <= r_plus(dist, w.plus)[0]
        assert (pack(2, dist, sub.plus).radius
                <= pack(2, dist, w.plus).radius + 1e-12)

    @pytest.mark.parametrize("restarts", [0, 2.5, "abc"])
    def test_restarts_must_be_positive_integer(self, restarts):
        grid, mask, dist = disk_setup(1 / 16)
        w = uniform_weight(grid, mask)
        with pytest.raises(ValueError):
            pack(3, dist, w.plus, restarts=restarts)

    def test_infeasible(self):
        grid, mask, dist = disk_setup(1 / 16)
        w = uniform_weight(grid, mask)
        one = np.zeros_like(w.plus)
        one[grid.nx // 2, grid.ny // 2] = True
        with pytest.raises(InfeasiblePackingError):
            pack(2, dist, one)

    def test_scale_covariance(self):
        grid, mask, dist = disk_setup(1 / 48)
        w = uniform_weight(grid, mask)
        t = 3.5
        g2 = grid.scaled(t)
        mask2 = DomainMask(g2, mask.inside)
        dist2 = edt(mask2)
        lim1 = compute_limits(dist, w)
        from infeig import regions_weight
        w2 = regions_weight(1.0, [], g2, mask2)
        lim2 = compute_limits(dist2, w2)
        assert lim2.r_plus == pytest.approx(t * lim1.r_plus, rel=1e-12)
        assert lim2.r2_plus == pytest.approx(t * lim1.r2_plus, rel=1e-12)
        assert lim2.lambda1_inf == pytest.approx(lim1.lambda1_inf / t, rel=1e-12)
        assert lim2.lambda2_inf == pytest.approx(lim1.lambda2_inf / t, rel=1e-12)


class TestConeFields:
    def test_apex_value_and_truncation(self):
        grid, mask, dist = disk_setup(1 / 64)
        c = (grid.nx // 2, grid.ny // 2)
        u = cone_field(c, 0.5, grid, dist)
        assert u.u[c] == 0.5
        X, Y = grid.coords()
        far = np.hypot(X, Y) >= 0.5
        assert (u.u[far] == 0).all()

    def test_containment_check(self):
        grid, mask, dist = disk_setup(1 / 64)
        c = (grid.nx // 2, grid.ny // 2)
        with pytest.raises(GeometryError):
            cone_field(c, 1.5, grid, dist)

    def test_cone_gradient_sup(self):
        grid, mask, dist = disk_setup(1 / 64)
        c = (grid.nx // 2, grid.ny // 2)
        u = cone_field(c, 0.5, grid, dist)
        h = grid.h
        ux = (u.u[1:, :-1] - u.u[:-1, :-1]) / h
        uy = (u.u[:-1, 1:] - u.u[:-1, :-1]) / h
        g = np.sqrt(ux ** 2 + uy ** 2)
        # forward differences reach sqrt(2) only right at the apex; away from
        # the apex and the rim the slope is 1 up to O(h / rho)
        assert g.max() <= np.sqrt(2) + 1e-12
        X, Y = grid.coords()
        rho = np.hypot(X, Y)[:-1, :-1]
        annulus = (rho > 0.2) & (rho < 0.5 - 2 * h)
        assert np.abs(g[annulus] - 1.0).max() <= 0.1

    def test_two_cone_degenerate(self):
        grid, mask, dist = disk_setup(1 / 64)
        n2 = grid.nx // 2
        off = int(0.5 / grid.h)
        c1, c2 = (n2 - off, n2), (n2 + off, n2)
        v = two_cone_field(1.0, 0.0, c1, c2, 0.3, grid, dist)
        assert np.array_equal(v.u, cone_field(c1, 0.3, grid, dist).u)

    def test_two_cone_antisymmetry(self):
        grid, mask, dist = disk_setup(1 / 64)
        n2 = grid.nx // 2
        off = int(0.5 / grid.h)
        c1, c2 = (n2 - off, n2), (n2 + off, n2)
        v = two_cone_field(1.0, -1.0, c1, c2, 0.3, grid, dist)
        vswap = two_cone_field(1.0, -1.0, c2, c1, 0.3, grid, dist)
        assert np.allclose(v.u, -vswap.u)

    def test_two_cone_overlap_rejected(self):
        grid, mask, dist = disk_setup(1 / 64)
        n2 = grid.nx // 2
        with pytest.raises(GeometryError):
            two_cone_field(1.0, 1.0, (n2 - 3, n2), (n2 + 3, n2), 0.3, grid,
                           dist)

    @pytest.mark.parametrize("p", [3.0, 8.0])
    def test_two_cone_energy_additivity(self, p):
        grid, mask, dist = disk_setup(1 / 64)
        n2 = grid.nx // 2
        off = int(0.5 / grid.h)
        c1, c2 = (n2 - off, n2), (n2 + off, n2)
        alpha, beta = 0.7, -1.3
        v = two_cone_field(alpha, beta, c1, c2, 0.3, grid, dist)
        ev, _ = dirichlet_energy_p(v, p)
        e1, _ = dirichlet_energy_p(cone_field(c1, 0.3, grid, dist), p)
        assert ev == pytest.approx((abs(alpha) ** p + abs(beta) ** p) * e1,
                                   rel=1e-8)


class TestComputeLimits:
    def test_example2_limits(self):
        grid, mask, dist = disk_setup(1 / 128)
        w = example2_weight(grid, mask, delta=0.2)
        lim = compute_limits(dist, w)
        assert lim.lambda1_inf == pytest.approx(5.0, rel=0.03)
        assert lim.lambda2_inf == pytest.approx(5.0, rel=0.03)
        assert lim.r2_plus <= lim.r_plus + 1e-15
        # a ball centered in the negative core can fill the whole disk, so
        # R- = 1 and mu1_inf = -1 up to O(h)
        assert lim.mu1_inf == pytest.approx(-1.0, rel=0.03)
        assert lim.lambda1_inf_C == max(lim.lambda1_inf, 1.0)

    def test_rotation_invariance(self):
        grid, mask, dist = disk_setup(1 / 64)
        w = example3_weight(grid, mask, delta=0.1)
        lim = compute_limits(dist, w)
        inside_r = np.rot90(mask.inside).copy()
        mask_r = DomainMask(grid, inside_r)
        dist_r = edt(mask_r)
        from infeig.weight import WeightField
        w_r = WeightField(grid, mask_r, np.rot90(w.m).copy())
        lim_r = compute_limits(dist_r, w_r)
        assert lim_r.r_plus == lim.r_plus
        assert lim_r.r2_plus == lim.r2_plus
        assert lim_r.lambda1_inf == lim.lambda1_inf
        assert lim_r.lambda2_inf == lim.lambda2_inf
