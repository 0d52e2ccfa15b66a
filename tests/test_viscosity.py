import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import binary_erosion

from conftest import disk_setup, example1_weight, uniform_weight
from infeig import (CheckOpts, Disk, DomainMask, Grid, ScalarField,
                    WeightField, check, cone_field, inf_laplacian, rasterize,
                    regions_weight, viscosity)
from infeig.viscosity import (EXCLUDED, NEG, POS, ZERO, ViscosityReport, erode,
                              excluded_nodes, regime_labels)


def interior(mask):
    core = mask.inside.copy()
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            core[1:-1, 1:-1] &= mask.inside[1 + dx:mask.inside.shape[0] - 1 + dx,
                                            1 + dy:mask.inside.shape[1] - 1 + dy]
    out = np.zeros_like(core)
    out[1:-1, 1:-1] = core[1:-1, 1:-1]
    return out


class TestInfLaplacian:
    def test_affine_is_zero(self):
        grid, mask, _ = disk_setup(1 / 32)
        X, Y = grid.coords()
        u = ScalarField(grid, 0.7 * X - 1.3 * Y + 0.2)
        d = inf_laplacian(u).u
        assert np.abs(d[interior(mask)]).max() <= 1e-10

    def test_quadratic_exact(self):
        # u = x^2: grad = (2x, 0), D2 = diag(2, 0), operator value 8x^2
        grid, mask, _ = disk_setup(1 / 32)
        X, _ = grid.coords()
        u = ScalarField(grid, X ** 2)
        d = inf_laplacian(u).u
        core = interior(mask)
        assert np.abs(d[core] - 8 * X[core] ** 2).max() <= 1e-9

    def test_cone_nearly_harmonic(self):
        # |x - c| is infinity-harmonic away from the apex
        grid, mask, dist = disk_setup(1 / 64)
        X, Y = grid.coords()
        rho = np.hypot(X, Y)
        u = ScalarField(grid, rho)
        d = inf_laplacian(u).u
        away = interior(mask) & (rho > 0.1)
        assert np.abs(d[away]).max() <= 10 * grid.h


class TestExcludedNodes:
    def test_smooth_field_keeps_everything(self):
        grid, mask, _ = disk_setup(1 / 32)
        X, Y = grid.coords()
        kinks = excluded_nodes(0.3 * X + 0.1 * Y, grid.h, 0.05)
        # the index rim has zero-padded one-sided differences; ignore it
        assert not kinks[1:-1, 1:-1].any()

    def test_ridge_detected(self):
        grid, mask, _ = disk_setup(1 / 32)
        X, _ = grid.coords()
        # the slope jumps from -1 to 1 across the ridge only
        kinks = excluded_nodes(np.abs(X), grid.h, 0.2)
        n2 = grid.nx // 2
        assert kinks[n2, :].all()
        assert not kinks[n2 + 4, :].any()

    def test_threshold_is_required(self):
        # the caller's threshold is the only one: no default from the field
        grid, _, _ = disk_setup(1 / 32)
        X, _ = grid.coords()
        with pytest.raises(TypeError):
            excluded_nodes(np.abs(X), grid.h)


class TestRegimes:
    def test_partition_covers_inside_once(self):
        grid, mask, dist = disk_setup(1 / 32)
        w = example1_weight(grid, mask, delta=0.4)
        c = (grid.nx // 2, grid.ny // 2)
        u = cone_field(c, 0.8, grid, dist)
        labels = regime_labels(u, w)
        assert set(np.unique(labels)) <= {POS, NEG, ZERO, EXCLUDED}
        assert (labels[~mask.inside] == EXCLUDED).all()
        n_labeled = sum(int((labels == lab).sum())
                        for lab in (POS, NEG, ZERO))
        n_excl = int(((labels == EXCLUDED) & mask.inside).sum())
        assert n_labeled + n_excl == int(mask.inside.sum())

    def test_sign_regions(self):
        grid, mask, dist = disk_setup(1 / 32)
        c = (grid.nx // 2, grid.ny // 2)
        u = cone_field(c, 0.8, grid, dist)
        mid = c[0] + int(0.6 / grid.h)  # past the apex exclusion zone
        # m > 0 and u > 0 there: POS
        w_pos = uniform_weight(grid, mask)
        assert regime_labels(u, w_pos)[mid, c[1]] == POS
        # m < 0 and u > 0 there: NEG
        w_neg = example1_weight(grid, mask, delta=0.4)
        assert regime_labels(u, w_neg)[mid, c[1]] == NEG

    def test_zero_field_is_all_zero_regime(self):
        grid, mask, _ = disk_setup(1 / 32)
        w = uniform_weight(grid, mask)
        u = ScalarField(grid, np.zeros((grid.nx, grid.ny)))
        labels = regime_labels(u, w)
        assert ((labels == ZERO) == interior(mask)).all()


class TestCheck:
    def test_lambda_must_be_positive(self):
        grid, mask, dist = disk_setup(1 / 32)
        w = uniform_weight(grid, mask)
        u = cone_field((grid.nx // 2, grid.ny // 2), 0.5, grid, dist)
        with pytest.raises(ValueError):
            check(u, 0.0, w)

    def test_distance_cone_pos_regime(self):
        # u = (1 - |x|)^+ with lambda = 1 solves the positive-regime equation
        grid, mask, dist = disk_setup(1 / 64)
        w = uniform_weight(grid, mask)
        c = (grid.nx // 2, grid.ny // 2)
        u = cone_field(c, 1.0, grid)
        rep = check(u, 1.0, w)
        assert rep.counts["pos"] > 0
        assert rep.passes["pos"]
        assert rep.max_residual["pos"] <= 4 * grid.h
        assert rep.boundary_max <= 1e-12 + grid.h  # cone tail past the rim

    def test_convergence_order(self):
        maxres = []
        hs = [1 / 64, 1 / 128, 1 / 256]
        for h in hs:
            grid, mask, dist = disk_setup(h)
            w = uniform_weight(grid, mask)
            u = cone_field((grid.nx // 2, grid.ny // 2), 1.0, grid)
            rep = check(u, 1.0, w)
            maxres.append(rep.max_residual["pos"])
        order = np.log(maxres[0] / maxres[-1]) / np.log(hs[-1] / hs[0] * 0 + 4)
        assert order >= 0.8

    def test_explicit_kink_tol_respected(self):
        grid, mask, dist = disk_setup(1 / 64)
        w = uniform_weight(grid, mask)
        u = cone_field((grid.nx // 2, grid.ny // 2), 1.0, grid)
        strict = check(u, 1.0, w, CheckOpts(kink_tol=1e30))
        # an unreachable threshold keeps the apex in, residual blows past tol
        assert not strict.passes["pos"]

    def test_outside_values_reach_only_boundary_max(self):
        # the ex1 cone on a 65² grid: read by the thresholds, 3 on every
        # outside node would lift the kink threshold past the apex's slope
        # jumps and label 161 POS nodes at residual 1.0, where the zeroed
        # field labels none
        grid = Grid(65, 65, 2.25 / 64, (-1.125, -1.125))
        mask = rasterize([Disk((0.0, 0.0), 1.0)], grid)
        w = regions_weight(-1.0, [(Disk((0.0, 0.0), 0.25), 1.0)], grid, mask)
        u = cone_field((32, 32), 1.0, grid).u
        fields = [ScalarField(grid, np.where(mask.inside, u, outside))
                  for outside in (3.0, 0.0)]
        three, zero = (check(f, 1.0, w).to_record() for f in fields)
        assert three.pop("boundary_max") == 3.0
        assert zero.pop("boundary_max") == 0.0
        assert three == zero
        assert np.array_equal(*(regime_labels(f, w) for f in fields))


def test_erode_matches_scipy():
    # masks that touch the array edge included: beyond it counts as unset
    rng = np.random.default_rng(17)
    nbhd = np.ones((3, 3), dtype=bool)
    for _ in range(200):
        nx, ny = rng.integers(1, 40, size=2)
        a = rng.random((nx, ny)) < rng.uniform(0.5, 1.0)
        assert np.array_equal(erode(a), binary_erosion(a, nbhd))
    full = np.ones((6, 7), dtype=bool)
    assert np.array_equal(erode(full), binary_erosion(full, nbhd))


def stencils_by_expression(u, h):
    """The stencils as whole-array expressions into zero-filled outputs."""
    ux, uy, uxx, uyy, uxy = (np.zeros_like(u) for _ in range(5))
    ux[1:-1, :] = (u[2:, :] - u[:-2, :]) / (2 * h)
    uy[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2 * h)
    uxx[1:-1, :] = (u[2:, :] - 2 * u[1:-1, :] + u[:-2, :]) / h ** 2
    uyy[:, 1:-1] = (u[:, 2:] - 2 * u[:, 1:-1] + u[:, :-2]) / h ** 2
    uxy[1:-1, 1:-1] = (u[2:, 2:] - u[2:, :-2] - u[:-2, 2:] + u[:-2, :-2]) / (4 * h ** 2)
    return ux, uy, uxx, uyy, uxy


def excluded_by_expression(u, h, kink_tol):
    """The kink test on four zero-padded one-sided difference arrays."""
    fx, bx, fy, by = (np.zeros_like(u) for _ in range(4))
    fx[:-1, :] = (u[1:, :] - u[:-1, :]) / h
    bx[1:, :] = (u[1:, :] - u[:-1, :]) / h
    fy[:, :-1] = (u[:, 1:] - u[:, :-1]) / h
    by[:, 1:] = (u[:, 1:] - u[:, :-1]) / h
    return (np.abs(fx - bx) > kink_tol) | (np.abs(fy - by) > kink_tol)


def test_stencils_and_kinks_match_expressions_bitwise():
    rng = np.random.default_rng(29)
    for _ in range(60):
        nx, ny = rng.integers(2, 40, size=2)
        h = float(rng.uniform(1e-3, 0.5))
        u = rng.normal(size=(nx, ny)) * 10.0 ** rng.uniform(-8, 8)
        u[rng.random((nx, ny)) < 0.3] = 0.0
        for got, want in zip(viscosity._stencils(u, h),
                             stencils_by_expression(u, h), strict=True):
            assert (got.view(np.int64) == want.view(np.int64)).all()
        tol = float(np.abs(u).max() / h * rng.uniform(0.01, 2.0))
        assert np.array_equal(excluded_nodes(u, h, tol),
                              excluded_by_expression(u, h, tol))
    # the automatic threshold from the Lipschitz bound and height of the
    # cone zeroed outside
    grid, mask, dist = disk_setup(1 / 32)
    u = cone_field((grid.nx // 2, grid.ny // 2), 0.7, grid, dist)
    _, tol, _ = viscosity._thresholds(u.u, uniform_weight(grid, mask),
                                      grid.h, CheckOpts())
    assert tol == kink_tol_by_expression(np.where(mask.inside, u.u, 0.0),
                                         grid.h)


def kink_tol_by_expression(u, h):
    """The automatic kink threshold of the whole-grid field u: a fraction of
    its Lipschitz bound, smaller for a short natural length height / lip;
    infinite for a flat field."""
    lip = max(np.abs(np.diff(u, axis=0)).max(initial=0.0) / h,
              np.abs(np.diff(u, axis=1)).max(initial=0.0) / h)
    if lip == 0.0:
        return np.inf
    scale = np.abs(u).max() / lip
    return min(0.2, 0.5 * (h / scale) ** (2 / 3)) * lip


def whole_grid_labels(u, w, opts):
    """regime_labels as one whole-grid computation on u zeroed outside the
    domain: the slab oracle."""
    inside = w.mask.inside
    core = erode(inside)
    mu = w.m * u.u
    eps = opts.eps_regime
    if eps is None:
        eps = 1e-12 * max(np.abs(mu).max(), 1.0)
    small = np.abs(mu) <= eps
    labels = np.full(u.u.shape, EXCLUDED, dtype=int)
    labels[core & (mu > eps)] = POS
    labels[core & (mu < -eps)] = NEG
    labels[core & erode(small)] = ZERO
    zeroed = np.where(inside, u.u, 0.0)
    kink_tol = opts.kink_tol
    if kink_tol is None:
        kink_tol = kink_tol_by_expression(zeroed, u.grid.h)
    labels[excluded_nodes(zeroed, u.grid.h, kink_tol)] = EXCLUDED
    labels[~core] = EXCLUDED
    return labels


def whole_grid_check(u, lam, w, opts):
    """check as one whole-grid computation: the slab oracle."""
    h = u.grid.h
    labels = whole_grid_labels(u, w, opts)
    ux, uy, *second = viscosity._stencils(u.u, h)
    dinf = viscosity._inf_lap(ux, uy, *second)
    gn = np.hypot(ux, uy)
    res_pos = np.abs(np.minimum(-dinf, gn - lam * u.u))
    res_neg = np.abs(np.maximum(-dinf, -gn - lam * u.u))
    res_zero = np.abs(dinf)
    tol = opts.c_tol * h
    max_residual, counts, passes = {}, {}, {}
    for name, lab, res in (("pos", POS, res_pos),
                           ("neg", NEG, res_neg),
                           ("zero", ZERO, res_zero)):
        sel = labels == lab
        counts[name] = int(sel.sum())
        mx = float(res[sel].max()) if sel.any() else 0.0
        max_residual[name] = mx
        passes[name] = bool(mx <= tol)
    excluded = int(((labels == EXCLUDED) & w.mask.inside).sum())
    boundary_max = float(np.abs(u.u[~w.mask.inside]).max())
    return ViscosityReport(max_residual=max_residual, counts=counts,
                           excluded=excluded, tolerance=tol, passes=passes,
                           boundary_max=boundary_max)


def blocky(rng, shape, scale):
    """Random values constant on random-sized blocks, so that whole 3x3
    neighbourhoods share a sign or vanish."""
    b = int(rng.integers(1, 5))
    coarse = rng.normal(size=(-(-shape[0] // b), -(-shape[1] // b))) * scale
    return np.kron(coarse, np.ones((b, b)))[:shape[0], :shape[1]]


def random_check_case(rng):
    nx, ny = (int(v) for v in rng.integers(3, 36, size=2))
    grid = Grid(nx, ny, float(rng.uniform(0.01, 0.3)))
    while True:
        inside = rng.random((nx, ny)) < rng.uniform(0.3, 1.0)
        inside[0, :] = inside[-1, :] = False
        inside[:, 0] = inside[:, -1] = False
        if inside.any():
            break
    mask = DomainMask(grid, inside)
    m = blocky(rng, grid.shape, 1.0)  # sign-changing
    m[rng.random(grid.shape) < 0.2] = 0.0
    w = WeightField(grid, mask, m)
    X, Y = grid.coords()
    smooth = np.sin(3 * X + rng.uniform(0, 3)) * np.cos(2 * Y)
    u = smooth + blocky(rng, grid.shape, 0.1) * (rng.random() < 0.5)
    u[blocky(rng, grid.shape, 1.0) > 0.8] = 0.0
    if rng.random() < 0.5:
        u[~inside] = 0.0
    if rng.random() < 0.05:
        u[...] = 0.0
    opts = CheckOpts(
        kink_tol=None if rng.random() < 0.7 else float(rng.uniform(0.1, 10)),
        eps_regime=None if rng.random() < 0.7 else float(rng.uniform(0, 0.1)))
    return ScalarField(grid, u), float(rng.uniform(0.1, 5)), w, opts


def test_check_slabs_match_whole_grid(monkeypatch):
    # every slab height from one row to the whole grid gives the report of
    # the whole-grid computation, bit for bit
    rng = np.random.default_rng(41)
    regimes = np.zeros(3, dtype=int)
    for _ in range(300):
        u, lam, w, opts = random_check_case(rng)
        want = whole_grid_check(u, lam, w, opts).to_record()
        nx, ny = u.grid.shape
        for rows in {1, 2, int(rng.integers(1, nx + 1)), nx}:
            monkeypatch.setattr(viscosity, "SLAB_NODES", rows * ny)
            assert check(u, lam, w, opts).to_record() == want
        assert np.array_equal(regime_labels(u, w, opts),
                              whole_grid_labels(u, w, opts))
        regimes += [want["counts"][k] > 0 for k in ("pos", "neg", "zero")]
    assert (regimes > 30).all()  # the cases reach every regime


def test_check_streams_in_a_few_grids_of_memory():
    # the h = 1/256 cone: the whole-grid computation peaks at ~12 grids
    grid, mask, _ = disk_setup(1 / 256)
    w = example1_weight(grid, mask)
    u = cone_field((grid.nx // 2, grid.ny // 2), 1.0, grid)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = check(u, 1.0, w)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rep.counts["pos"] > 0 and rep.counts["neg"] > 0
    assert peak <= 3 * u.u.nbytes
