import numpy as np
import pytest
from scipy.ndimage import binary_erosion

from conftest import disk_setup, example1_weight, uniform_weight
from infeig import (CheckOpts, ScalarField, check, cone_field, inf_laplacian,
                    viscosity)
from infeig.viscosity import (EXCLUDED, NEG, POS, ZERO, erode, excluded_nodes,
                              regime_labels)


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
        kinks = excluded_nodes(0.3 * X + 0.1 * Y, grid.h)
        # the index rim has zero-padded one-sided differences; ignore it
        assert not kinks[1:-1, 1:-1].any()

    def test_ridge_detected(self):
        grid, mask, _ = disk_setup(1 / 32)
        X, _ = grid.coords()
        kinks = excluded_nodes(np.abs(X), grid.h)
        n2 = grid.nx // 2
        assert kinks[n2, :].all()
        assert not kinks[n2 + 4, :].any()


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
    # the automatic threshold reads the same Lipschitz bound
    grid, mask, dist = disk_setup(1 / 32)
    u = cone_field((grid.nx // 2, grid.ny // 2), 0.7, grid, dist).u
    lip = np.abs(np.diff(u, axis=0)).max() / grid.h
    lip = max(lip, np.abs(np.diff(u, axis=1)).max() / grid.h)
    scale = np.abs(u).max() / lip
    tol = min(0.2, 0.5 * (grid.h / scale) ** (2 / 3)) * lip
    assert np.array_equal(excluded_nodes(u, grid.h),
                          excluded_by_expression(u, grid.h, tol))
