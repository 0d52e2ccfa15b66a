import numpy as np
import pytest

from conftest import (MIXED_GRID, MIXED_SHAPES, disk_setup, example1_weight,
                      meshgrid_coords, uniform_weight)
from infeig import WeightField, build_weight, negate, rasterize, regions_weight


def test_constant_weight_masks():
    grid, mask, _ = disk_setup(1 / 32)
    w = uniform_weight(grid, mask)
    assert np.array_equal(w.plus, mask.inside)
    assert not w.minus.any()
    assert not w.sign_changing


def test_example1_plus_area():
    grid, mask, _ = disk_setup(1 / 64)
    w = example1_weight(grid, mask, delta=0.25)
    count = w.plus.sum()
    expected = np.pi * 0.25 ** 2 / (1 / 64) ** 2
    assert abs(count - expected) / expected < 0.05
    assert w.sign_changing


def test_affine_weight_mirror_symmetry():
    grid, mask, _ = disk_setup(1 / 32)
    w = build_weight(lambda X, Y: X, grid, mask)
    # x -> -x flips index i on the origin-centered grid
    assert np.array_equal(w.plus, w.minus[::-1, :])


def test_partition():
    grid, mask, _ = disk_setup(1 / 32)
    w = build_weight(lambda X, Y: X, grid, mask)
    assert np.array_equal(w.plus | w.minus | w.zero, mask.inside)
    assert not (w.plus & w.minus).any()
    assert not (w.plus & w.zero).any()
    assert not (w.minus & w.zero).any()


def test_negate_involution():
    grid, mask, _ = disk_setup(1 / 32)
    w = example1_weight(grid, mask)
    ww = negate(negate(w))
    assert np.array_equal(ww.m, w.m)
    assert ww.eps_zero == w.eps_zero


def test_negate_swaps_masks():
    grid, mask, _ = disk_setup(1 / 32)
    w = example1_weight(grid, mask)
    wn = negate(w)
    assert np.array_equal(wn.plus, w.minus)
    assert np.array_equal(wn.minus, w.plus)
    assert wn.plus.sum() == w.minus.sum()


def test_eps_zero_scale_invariant():
    grid, mask, _ = disk_setup(1 / 32)
    w1 = build_weight(lambda X, Y: X, grid, mask)
    w2 = build_weight(lambda X, Y: 1e6 * X, grid, mask)
    assert np.array_equal(w1.plus, w2.plus)
    assert np.array_equal(w1.zero, w2.zero)


def test_one_signed_allowed():
    grid, mask, _ = disk_setup(1 / 32)
    w = regions_weight(-2.0, [], grid, mask)
    assert not w.sign_changing
    assert np.array_equal(w.minus, mask.inside)


@pytest.mark.parametrize("kind", [*sorted(MIXED_SHAPES), "all"])
def test_regions_weight_matches_meshgrid_reference(kind):
    shapes = (sum(MIXED_SHAPES.values(), ()) if kind == "all"
              else MIXED_SHAPES[kind])
    regions = [(shape, v) for shape, v in zip(shapes, (2.0, -3.0, 0.5, -1.5,
                                                       4.0, -0.25))]
    mask = rasterize([MIXED_SHAPES["rect"][0]], MIXED_GRID)
    X, Y = meshgrid_coords(MIXED_GRID)
    ref = np.full(MIXED_GRID.shape, -1.0)
    for shape, v in regions:
        ref[shape.contains(X, Y)] = v
    ref[~mask.inside] = 0.0
    w = regions_weight(-1.0, regions, MIXED_GRID, mask)
    assert len(np.unique(ref)) > 2
    assert np.array_equal(w.m, ref)


def test_weight_build_matches_masked_copy():
    # zeroing by np.where and the norm as max(max m, -min m) give the
    # masked copy and np.abs(m).max() bit for bit
    grid, mask, _ = disk_setup(1 / 16)
    rng = np.random.default_rng(5)
    for scale in (1.0, 1e-300, 1e300):
        m = rng.normal(size=grid.shape) * scale
        m[rng.random(grid.shape) < 0.2] = 0.0
        for mm in (m, -m, np.abs(m), -np.abs(m)):
            ref = mm.copy()
            ref[~mask.inside] = 0.0
            w = WeightField(grid, mask, mm)
            assert (w.m.view(np.int64) == ref.view(np.int64)).all()
            assert w.eps_zero == 1e-12 * np.abs(ref).max()
