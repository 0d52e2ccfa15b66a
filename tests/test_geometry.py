from functools import partial

import numpy as np
import pytest

from conftest import (disk_setup, example1_weight, example2_weight,
                      example3_weight, random_mask, uniform_weight)
from infeig import (Disk, DomainMask, Grid, cone_field, compute_limits, edt,
                    geometry, pack, r_plus, rasterize, two_cone_field)
from infeig.errors import (GeometryError, InfeasiblePackingError,
                           NoPositiveRegionError)
from infeig.eigen import dirichlet_energy_p
from infeig.geometry import _chain, _farthest_pair, _search_pack, _witness


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


def brute_force_pack3(dist, plus_mask):
    """Exhaustive max over node triples of the packing value, from the pair
    values V[i, j] = min(d_i, d_j, |x_i - x_j| / 2)."""
    pts = np.argwhere(plus_mask)
    dv = dist.d[pts[:, 0], pts[:, 1]]
    sep = 0.5 * dist.grid.h * np.hypot(pts[:, None, 0] - pts[None, :, 0],
                                       pts[:, None, 1] - pts[None, :, 1])
    V = np.minimum(np.minimum(dv[:, None], dv[None, :]), sep)
    np.fill_diagonal(V, -np.inf)
    return max(np.minimum(np.minimum(V[i][:, None], V[i][None, :]), V).max()
               for i in range(len(pts)))


def all_ends_farthest_pair(sel, h):
    """Half the diameter over every first and last node of a row, compared
    all against all; ties to the first maximum over [firsts, lasts]."""
    rows = np.flatnonzero(sel.any(axis=1))
    first = np.argmax(sel[rows], axis=1)
    last = sel.shape[1] - 1 - np.argmax(sel[rows, ::-1], axis=1)
    ends = np.column_stack([np.tile(rows, 2), np.concatenate([first, last])])
    half = 0.5 * h * np.hypot(ends[:, None, 0] - ends[None, :, 0],
                              ends[:, None, 1] - ends[None, :, 1])
    a, b = np.unravel_index(int(np.argmax(half)), half.shape)
    return float(half[a, b]), tuple(map(tuple, ends[[a, b]].tolist()))


def sequential_chain(pts):
    """Andrew's monotone chain over (i, j) points in row order, one point at
    a time: pop the last point kept while it makes no strict left turn."""
    keep = []
    for n, (i, j) in enumerate(pts):
        while len(keep) >= 2:
            (i0, j0), (i1, j1) = pts[keep[-2]], pts[keep[-1]]
            if (i1 - i0) * (j - j0) - (j1 - j0) * (i - i0) > 0:
                break
            keep.pop()
        keep.append(n)
    return keep


def chain(pts):
    i, j = np.array(pts).reshape(-1, 2).T
    return _chain(i, j).tolist()


def float_greedy_witness(sel, k, h):
    """The farthest pair, then k - 2 times the node of `sel` with the largest
    float distance np.hypot to the chosen nodes, first maximum in row-major
    order, over every node of `sel`."""
    half, centers = _farthest_pair(sel, h)
    if k > 2:
        pts = np.argwhere(sel)
        near = np.min([np.hypot(pts[:, 0] - i, pts[:, 1] - j)
                       for i, j in centers], axis=0)
        for _ in range(k - 2):
            a = int(np.argmax(near))
            half = min(half, 0.5 * h * float(near[a]))
            centers += (tuple(pts[a].tolist()),)
            near = np.minimum(near, np.hypot(pts[:, 0] - pts[a, 0],
                                             pts[:, 1] - pts[a, 1]))
    return half, centers


def uncropped_bisect_pack(d, plus_mask, h, k):
    """The packing bisection with every level built on the whole grid."""
    levels = np.unique(d[plus_mask])
    lo, hi = 0, len(levels)
    below = above = None
    while lo < hi:
        mid = (lo + hi) // 2
        half, centers = geometry._witness(plus_mask & (d >= levels[mid]),
                                          k, h)
        if levels[mid] <= half:
            lo, below = mid + 1, (float(levels[mid]), centers)
        else:
            hi, above = mid, (half, centers)
    return max((c for c in (below, above) if c is not None),
               key=lambda c: c[0])


def bisect_pack(d, plus_mask, h, k):
    """The packing bisection on the bounding box of the plus set: the search
    `pack` ran before its end probes and false position."""
    rows = np.flatnonzero(plus_mask.any(axis=1))
    cols = np.flatnonzero(plus_mask.any(axis=0))
    box = np.s_[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    radius, centers = uncropped_bisect_pack(d[box], plus_mask[box], h, k)
    return radius, tuple((i + int(rows[0]), j + int(cols[0]))
                         for i, j in centers)


def count_witness_calls(monkeypatch):
    """Wraps geometry._witness; returns the list its calls are appended to."""
    calls = []
    witness = geometry._witness

    def counted(sel, k, h):
        calls.append(k)
        return witness(sel, k, h)
    monkeypatch.setattr(geometry, "_witness", counted)
    return calls


def symmetric_masks():
    """Tie-heavy masks: squares, diamonds, disks and annuli, centred and
    off-centre in their box."""
    i, j = np.mgrid[:41, :47]
    masks = []
    for ci, cj in ((20, 23), (17, 26)):
        di, dj = np.abs(i - ci), np.abs(j - cj)
        rho2 = di ** 2 + dj ** 2
        for r in (3, 8, 15):
            masks += [(di <= r) & (dj <= r), di + dj <= r, rho2 <= r * r,
                      (rho2 <= r * r) & (rho2 >= (r // 2) ** 2)]
    return masks


def farthest_pair_masks():
    rng = np.random.default_rng(7)
    masks = [rng.random(rng.integers(1, 24, 2)) < rng.uniform(0.02, 1.0)
             for _ in range(400)]
    for n in (1, 2, 3, 9):
        one_per_row = np.zeros((n, 12), bool)
        one_per_row[np.arange(n), rng.integers(0, 12, n)] = True
        masks += [one_per_row, np.ones((1, n), bool), np.ones((n, 1), bool),
                  np.eye(n, dtype=bool), np.eye(n, dtype=bool)[::-1],
                  np.ones((n, n), bool)]
    i, j = np.mgrid[:33, :33]
    rho = np.hypot(i - 16, j - 16)
    masks += [(rho <= 16) & (rho >= 9), np.abs(i - 16) + np.abs(j - 16) <= 12]
    return [m for m in masks if m.any()]


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


def disk_plus(h, make_weight):
    grid, mask, dist = disk_setup(h)
    return dist, make_weight(grid, mask).plus


# small enough for the exhaustive triple search
PACK3_CASES = {"disk_h10": partial(disk_plus, 1 / 10, uniform_weight),
               "two_balls_h14": partial(disk_plus, 1 / 14, partial(
                   example3_weight, delta=0.3)),
               **{f"random_{s}": partial(random_plus, s) for s in range(3)}}


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

    def test_farthest_pair_matches_all_ends_oracle(self):
        for sel in farthest_pair_masks():
            for h in (1.0, 1 / 256):
                assert _farthest_pair(sel, h) == all_ends_farthest_pair(sel, h)

    def test_chain_keeps_strict_vertices_only(self):
        assert chain([(i, 0) for i in range(5)]) == [0, 4]
        assert chain([(0, 2), (1, 0), (2, 2)]) == [0, 1, 2]
        assert chain([(0, 0), (1, 2), (2, 0)]) == [0, 2]
        assert chain([(0, 3), (1, 1), (2, 0), (3, 0), (4, 1)]) == [0, 1, 2, 3, 4]
        assert chain([(0, 4), (1, 2), (2, 0), (3, 1), (4, 2)]) == [0, 2, 4]

    def test_chain_matches_sequential_oracle(self):
        rng = np.random.default_rng(11)
        cases = []
        for _ in range(500):
            n = int(rng.integers(0, 80))
            i = np.sort(rng.choice(400, n, replace=False))
            j = rng.integers(0, rng.integers(1, 120), n)
            cases += [(i, j), (i[::-1], j[::-1])]
        # a strict convex arc that one far point cuts one vertex per pass
        i = np.arange(31)
        cases.append((np.append(i, 400), np.append(i * (i - 1) // 2, -10 ** 6)))
        for i, j in cases:
            assert _chain(i, j).tolist() == sequential_chain(
                list(zip(i.tolist(), j.tolist())))

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_witness_matches_float_greedy_oracle(self, k):
        # the integer d^2 argmax with hypot among its ties picks the node
        # the float greedy picks, and the same half-distance, bit for bit
        rng = np.random.default_rng(k)
        masks = [rng.random(rng.integers(1, 40, 2)) < rng.uniform(0.02, 1.0)
                 for _ in range(150)]
        masks += symmetric_masks()
        for sel in masks:
            if sel.any():
                for h in (1.0, 1 / 256):
                    assert _witness(sel, k, h) == float_greedy_witness(sel, k, h)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_pack_on_bounding_box_matches_whole_grid(self, k):
        # plus sets inside random windows, so the crop cuts rows and columns
        rng = np.random.default_rng(60 + k)
        for _ in range(40):
            n = int(rng.integers(8, 48))
            inside = random_mask(rng, n, rng.uniform(0.4, 1.0))
            dist = edt(DomainMask(Grid(n, n, float(rng.uniform(0.01, 0.5))),
                                  inside))
            i0, j0 = rng.integers(0, n, 2)
            window = np.zeros_like(inside)
            window[i0:i0 + rng.integers(1, n), j0:j0 + rng.integers(1, n)] = True
            plus = inside & window & (rng.random(inside.shape) < rng.uniform(0.1, 1))
            if plus.sum() < k:
                continue
            # the search ends on bisection's crossing: for k = 2 it is
            # unique; for k >= 3 it need not be, but both end on the same
            # one on these masks
            got = pack(k, dist, plus)
            assert (got.radius, got.centers) == bisect_pack(
                dist.d, plus, dist.grid.h, k) == uncropped_bisect_pack(
                dist.d, plus, dist.grid.h, k)

    @pytest.mark.parametrize("make_weight", [
        uniform_weight, example1_weight, example2_weight, example3_weight])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_search_matches_bisection_on_acceptance_weights(self, make_weight,
                                                            k):
        grid, mask, dist = disk_setup(1 / 64)
        plus = make_weight(grid, mask).plus
        got = pack(k, dist, plus)
        assert (got.radius, got.centers) == bisect_pack(dist.d, plus, grid.h, k)

    def test_search_strip_crossing_is_one_call(self, monkeypatch):
        # the boundary strip passes r <= D(r) at its top level, which is
        # then the radius
        grid, mask, dist = disk_setup(1 / 64)
        plus = example2_weight(grid, mask).plus
        calls = count_witness_calls(monkeypatch)
        radius, _ = _search_pack(dist.d, plus, grid.h, 2)
        assert len(calls) == 1 and radius == dist.d[plus].max()

    def test_search_centre_ball_crossing_is_at_most_two_calls(self, monkeypatch):
        # the centre ball fails r <= D(r) at its bottom level, whose
        # half-diameter D is then the radius
        grid, mask, dist = disk_setup(1 / 64)
        plus = example1_weight(grid, mask).plus
        calls = count_witness_calls(monkeypatch)
        radius, _ = _search_pack(dist.d, plus, grid.h, 2)
        assert len(calls) <= 2 and radius < dist.d[plus].min()

    def test_search_call_bound_on_adversarial_levels(self, monkeypatch):
        # levels 1..n on one row, and a stand-in witness with a given
        # f(r) = r - D(r): f that jumps at the crossing c makes false
        # position crawl one level per probe from the flat side. A monotone
        # f has one crossing, which the search must find as bisection does;
        # any f, monotone or not, must take at most 3 ceil(log2(n + 1)) + 2
        # calls, and n.bit_length() is ceil(log2(n + 1))
        calls = []

        def witness(sel, k, h):
            calls.append(k)
            i = int(d[sel].min()) - 1
            return float(i + 1 - f[i]), ((0, i), (0, i))
        monkeypatch.setattr(geometry, "_witness", witness)
        rng = np.random.default_rng(5)
        for n in [*range(1, 34), 100, 257, 1000]:
            d = np.arange(1.0, n + 1)[None, :]
            plus = np.ones_like(d, dtype=bool)
            for c in {0, 1, n // 3, n // 2, n - 1, n,
                      *rng.integers(0, n + 1, 3).tolist()}:
                flat = np.r_[np.full(c, -1e-9), np.full(n - c, 1e9)]
                steep = np.r_[np.full(c, -1e9), np.full(n - c, 1e-9)]
                ramp = np.sort(rng.standard_normal(n) ** 3)
                ramp -= ramp[c - 1] if c else ramp[0] - 1.0
                rough = rng.standard_normal(n)
                for f, monotone in ((flat, True), (steep, True),
                                    (ramp, True), (rough, False)):
                    if monotone:
                        expected = uncropped_bisect_pack(d, plus, 1.0, 2)
                    calls.clear()
                    got = _search_pack(d, plus, 1.0, 2)
                    assert len(calls) <= 3 * n.bit_length() + 2
                    if monotone:
                        assert got == expected

    def test_witness_breaks_d2_ties_by_hypot(self):
        # 17^2 + 52^2 = 28^2 + 47^2 = 2993, and np.hypot may round the two
        # a unit in the last place apart; the farthest pair is A, B, and the
        # third centre is P or Q, at squared distance 2993 from A
        sel = np.zeros((53, 201), dtype=bool)
        A, B, P, Q = (0, 0), (0, 200), (52, 17), (47, 28)
        for node in (A, B, P, Q):
            sel[node] = True
        half, centers = _witness(sel, 3, 1.0)
        assert (half, centers) == float_greedy_witness(sel, 3, 1.0)
        # Q comes first in row-major order, so it wins only a real tie
        assert centers[2] == (P if np.hypot(52, 17) > np.hypot(47, 28) else Q)
        assert half == 0.5 * np.hypot(*centers[2])

    def test_witness_on_levels_with_fewer_than_k_nodes(self):
        # the top distance levels of a disk hold 1, 5, ... nodes: once every
        # node is a centre the greedy repeats nodes at distance 0
        dist, plus = disk_h23()
        levels = np.unique(dist.d[plus])[::-1]
        for level in levels[:3]:
            sel = plus & (dist.d >= level)
            for k in range(3, 8):
                assert _witness(sel, k, 1 / 23) == float_greedy_witness(
                    sel, k, 1 / 23)
        sel = plus & (dist.d >= levels[0])
        assert sel.sum() < 3 and _witness(sel, 3, 1 / 23)[0] == 0.0

    @pytest.mark.parametrize("make_weight, k, radius, centers", [
        (uniform_weight, 2, 0.5002440810494413, ((35, 58), (97, 74))),
        (uniform_weight, 3, 0.4151665704870757,
         ((32, 50), (100, 82), (50, 100))),
        (example3_weight, 2, 0.5, ((34, 62), (98, 70))),
        (example3_weight, 3, 0.09882117688026186,
         ((28, 64), (104, 68), (40, 68))),
    ])
    def test_pack_golden_disk_h64(self, make_weight, k, radius, centers):
        # radius and centres of the all-row-ends diameter search, recorded;
        # example3_weight is the benchmark's two_balls weight
        grid, mask, dist = disk_setup(1 / 64)
        res = pack(k, dist, make_weight(grid, mask).plus)
        assert (res.radius, res.centers) == (radius, centers)

    @pytest.mark.parametrize("case", sorted(PACK2_CASES))
    def test_pack2_exact_matches_brute_force(self, case):
        dist, plus = PACK2_CASES[case]()
        res = pack(2, dist, plus)
        assert res.exact
        assert res.radius == brute_force_pack2(dist, plus)

    @pytest.mark.parametrize("case", sorted(PACK3_CASES))
    def test_pack3_lower_bound_of_brute_force(self, case):
        dist, plus = PACK3_CASES[case]()
        res = pack(3, dist, plus)
        assert not res.exact
        assert 0 < res.radius <= brute_force_pack3(dist, plus)

    def test_pack_validity(self):
        grid, mask, dist = disk_setup(1 / 64)
        w = example1_weight(grid, mask, delta=0.25)
        for k in (2, 3, 4, 7):
            res = pack(k, dist, w.plus)
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
        radii = [pack(k, dist, w.plus).radius for k in (1, 2, 3, 4)]
        assert all(radii[i] >= radii[i + 1] - 1e-12 for i in range(3))

    def test_monotone_in_mask(self):
        grid, mask, dist = disk_setup(1 / 48)
        w = uniform_weight(grid, mask)
        sub = example1_weight(grid, mask, delta=0.3)
        assert r_plus(dist, sub.plus)[0] <= r_plus(dist, w.plus)[0]
        assert (pack(2, dist, sub.plus).radius
                <= pack(2, dist, w.plus).radius + 1e-12)

    def test_pack4_unit_disk(self):
        # four balls in the unit disk: the optimum radius is 1 / (1 + sqrt 2)
        grid, mask, dist = disk_setup(1 / 64)
        w = uniform_weight(grid, mask)
        res = pack(4, dist, w.plus)
        assert abs(res.radius - 1 / (1 + np.sqrt(2))) <= 2 / 64

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

    def test_cone_matches_meshgrid_reference(self):
        # the broadcast index ranges give the meshgrid cone bit for bit
        I, J = np.meshgrid(np.arange(41), np.arange(29), indexing="ij")
        for c, radius in (((7, 30), 0.9), ((0, 40), 2.5), ((40, 0), 0.3)):
            rho = 0.07 * np.hypot(I - c[0], J - c[1])
            u = cone_field(c, radius, Grid(41, 29, 0.07))
            assert (u.u.view(np.int64)
                    == np.maximum(radius - rho, 0.0).view(np.int64)).all()

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
