import warnings

import numpy as np
import pytest
from scipy.ndimage import distance_transform_edt

from conftest import (MIXED_GRID, MIXED_SHAPES, brute_force_edt, disk_setup,
                      meshgrid_coords, random_mask)
from infeig import Disk, DomainMask, Grid, Rect, Polygon, edt, rasterize
from infeig.errors import ConfigError, DegenerateDomainError
from infeig import fieldio
from infeig.grid import index_box, squared_edt


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid(2, 10, 0.1)
    with pytest.raises(ValueError):
        Grid(10, 10, 0.0)
    g = Grid(5, 7, 0.5, (1.0, 2.0))
    X, Y = g.coords()
    assert X[3, 0] == 1.0 + 3 * 0.5
    assert Y[0, 4] == 2.0 + 4 * 0.5


def test_rasterize_disk_area():
    grid, mask, _ = disk_setup(1 / 64)
    count = mask.inside.sum()
    expected = np.pi / (1 / 64) ** 2
    assert abs(count - expected) / expected < 0.02


def test_rasterize_degenerate():
    g = Grid(33, 33, 1 / 16, (-1.0, -1.0))
    with pytest.raises(DegenerateDomainError):
        rasterize([Disk((0.0, 0.0), 0.0)], g)


def test_disk_radius_must_be_nonnegative():
    with pytest.raises(ValueError):
        Disk((0.0, 0.0), -0.9)
    Disk((0.0, 0.0), 0.0)  # legal; rasterizes to an empty domain, above


def test_polygon_needs_three_vertices():
    for verts in ((), ((0.0, 0.0), (0.5, 0.5))):
        with pytest.raises(ValueError):
            Polygon(verts, "difference")
    Polygon(((0.0, 0.0), (0.5, 0.5), (0.0, 0.5)))


def test_rasterize_difference():
    g = Grid(65, 65, 1 / 64, (0.0, 0.0))
    mask = rasterize([Rect((0.0, 0.0), (1.0, 1.0)),
                      Disk((0.5, 0.5), 0.2, op="difference")], g)
    X, Y = g.coords()
    hole = np.hypot(X - 0.5, Y - 0.5) < 0.2
    assert not (mask.inside & hole).any()


def test_rasterize_polygon_even_odd():
    g = Grid(41, 41, 0.05, (-1.0, -1.0))
    square = Polygon(((-0.8, -0.8), (0.8, -0.8), (0.8, 0.8), (-0.8, 0.8)))
    mask = rasterize([square], g)
    X, Y = g.coords()
    assert mask.inside[(np.abs(X) < 0.7) & (np.abs(Y) < 0.7)].all()
    assert not mask.inside[(np.abs(X) > 0.9) | (np.abs(Y) > 0.9)].any()


@pytest.mark.parametrize("kind", [*sorted(MIXED_SHAPES), "all"])
def test_rasterize_matches_meshgrid_reference(kind):
    # the shapes see an (nx, 1) column and a (1, ny) row; each node goes
    # through the same elementwise operations as on full coordinate arrays
    prims = (sum(MIXED_SHAPES.values(), ()) if kind == "all"
             else MIXED_SHAPES[kind])
    X, Y = meshgrid_coords(MIXED_GRID)
    ref = np.zeros(MIXED_GRID.shape, dtype=bool)
    for prim in prims:
        hit = prim.contains(X, Y)
        ref = ref | hit if prim.op == "union" else ref & ~hit
    ref[[0, -1], :] = ref[:, [0, -1]] = False
    inside = rasterize(prims, MIXED_GRID).inside
    assert ref.any() and not ref.all()
    assert np.array_equal(inside, ref)


def test_collar_enforced():
    g = Grid(9, 9, 1.0, (0.0, 0.0))
    mask = rasterize([Rect((-1.0, -1.0), (9.0, 9.0))], g)
    assert not mask.inside[0, :].any() and not mask.inside[:, -1].any()


def argwhere_box(mask):
    """The index box from the coordinates of every set node."""
    ij = np.argwhere(mask)
    (r0, c0), (r1, c1) = ij.min(axis=0), ij.max(axis=0) + 1
    return int(r0), int(r1), int(c0), int(c1)


def test_index_box_matches_argwhere():
    rng = np.random.default_rng(11)
    for fill in (0.002, 0.05, 0.45):
        for _ in range(40):
            mask = random_mask(rng, n=int(rng.integers(3, 40)), fill=fill)
            assert index_box(mask) == argwhere_box(mask)
    one = np.zeros((9, 13), bool)
    one[4, 7] = True
    assert index_box(one) == argwhere_box(one) == (4, 5, 7, 8)
    # set nodes on the first and last rows and columns, where the
    # collar of a domain mask is
    edge = np.zeros((9, 13), bool)
    edge[0, 3] = edge[8, 5] = edge[2, 0] = edge[6, 12] = True
    assert index_box(edge) == argwhere_box(edge) == (0, 9, 0, 13)
    # Python ints, so that offsets added to them stay Python ints
    assert all(type(e) is int for e in index_box(edge))


def test_edt_center_of_block():
    # 3x3 block: the collar leaves only the center inside
    g = Grid(3, 3, 1.0)
    inside = np.zeros((3, 3), dtype=bool)
    inside[1, 1] = True
    d = edt(DomainMask(g, inside))
    assert d.d[1, 1] == 1.0
    assert (d.d[~inside] == 0).all()


def test_edt_disk_inradius():
    _, mask, dist = disk_setup(1 / 128)
    assert abs(dist.d.max() - 1.0) <= 2 / 128


def test_edt_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(5):
        inside = random_mask(rng)
        g = Grid(32, 32, 0.37)
        d = edt(DomainMask(g, inside)).d
        assert np.array_equal(d, brute_force_edt(inside, 0.37))


def test_edt_lipschitz():
    rng = np.random.default_rng(3)
    inside = random_mask(rng, n=48)
    g = Grid(48, 48, 0.25)
    d = edt(DomainMask(g, inside)).d
    assert np.abs(np.diff(d, axis=0)).max() <= g.h + 1e-12
    assert np.abs(np.diff(d, axis=1)).max() <= g.h + 1e-12


def test_edt_symmetry():
    rng = np.random.default_rng(11)
    inside = random_mask(rng)
    g = Grid(32, 32, 1.0)
    d = edt(DomainMask(g, inside)).d
    assert np.array_equal(edt(DomainMask(g, inside.T)).d, d.T)
    assert np.array_equal(edt(DomainMask(g, np.rot90(inside).copy())).d,
                          np.rot90(d))


def _scipy_oracle_masks(seed=2024, count=320):
    """Seeded masks 3-60 nodes per side: random fills, and 1-node-thick
    rows and columns laid over a random or a full background."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        nx, ny = rng.integers(3, 61, size=2)
        kind = i % 4
        if kind == 0:
            inside = rng.random((nx, ny)) < rng.random()
        elif kind == 1:
            inside = rng.random((nx, ny)) < 0.97  # few, scattered outside nodes
        else:
            # thin inside lines on an outside background, or thin outside
            # lines cutting a full inside
            inside = np.zeros((nx, ny), dtype=bool)
            inside[rng.integers(0, nx, size=3), :] = True
            inside[:, rng.integers(0, ny, size=2)] = True
            if kind == 3:
                inside = ~inside
        if inside.all():
            inside[rng.integers(nx), rng.integers(ny)] = False
        yield inside


def test_squared_edt_matches_scipy_on_random_masks():
    masks = list(_scipy_oracle_masks())
    assert len(masks) >= 300
    for inside in masks:
        d = np.sqrt(squared_edt(inside), dtype=np.float64)
        assert np.array_equal(d, distance_transform_edt(inside)), inside.shape


def _sweep_disk():
    # the unit disk on the 96^2 sweep grid
    g = Grid(96, 96, 2.1 / 95, (-1.05, -1.05))
    return g, rasterize([Disk((0.0, 0.0), 1.0)], g)


def _geometry_disk():
    # the unit disk on the 517^2 grid at h = 1/256
    grid, mask, _ = disk_setup(1 / 256)
    return grid, mask


@pytest.mark.parametrize("build", [_sweep_disk, _geometry_disk])
def test_edt_matches_scipy_on_workload_disks(build):
    grid, mask = build()
    assert np.array_equal(edt(mask).d,
                          distance_transform_edt(mask.inside) * grid.h)


def test_edt_matches_scipy_on_annulus():
    g = Grid(161, 161, 1 / 64, (-1.25, -1.25))
    mask = rasterize([Disk((0.0, 0.0), 1.2),
                      Disk((0.1, 0.0), 0.45, op="difference")], g)
    assert np.array_equal(edt(mask).d,
                          distance_transform_edt(mask.inside) * g.h)


def test_squared_edt_wide_array_takes_int64():
    # nx + ny past ~32k no longer fits the scan's sums in int32
    inside = np.ones((3, 33000), dtype=bool)
    inside[1, [17, 20000]] = False
    d2 = squared_edt(inside)
    assert d2.dtype == np.int64
    assert np.array_equal(np.sqrt(d2, dtype=np.float64),
                          distance_transform_edt(inside))


def test_squared_edt_needs_an_outside_node():
    with pytest.raises(ValueError):
        squared_edt(np.ones((4, 5), dtype=bool))


@pytest.mark.parametrize("kind", ["mask", "scalar"])
def test_serialization_round_trip(tmp_path, kind):
    # scalar fields round-trip; "mask" is no field kind on either side
    rng = np.random.default_rng(5)
    g = Grid(17, 13, 0.1, (-0.3, 0.7))
    values = rng.standard_normal((17, 13)) * np.pi
    path = tmp_path / "field.csv"
    if kind == "mask":
        with pytest.raises(ValueError):
            fieldio.save_array(path, g, values > 0, kind)
        fieldio.save_array(path, g, values, "scalar")
        path.write_text(path.read_text().replace('"kind": "scalar"',
                                                 '"kind": "mask"'))
        with pytest.raises(ConfigError, match="unknown field kind 'mask'"):
            fieldio.load_array(path)
        return
    fieldio.save_array(path, g, values, kind)
    g2, v2, k2 = fieldio.load_array(path)
    assert g2 == g and k2 == kind
    assert np.array_equal(values, v2)


def test_serialization_bytes(tmp_path):
    # %.17g per float; the layout other tools read
    g = Grid(3, 3, 0.5, (-1.0, 0.25))
    path = tmp_path / "scalar.csv"
    fieldio.save_array(path, g, np.array([[0.1, -0.0, 7.0],
                                          [np.pi, 1e-300, 5e-324],
                                          [3.0, -2.5e20, 1.0 / 3.0]]),
                       "scalar")
    assert path.read_bytes() == (
        '{"h": 0.5, "kind": "scalar", "nx": 3, "ny": 3, '
        '"origin": [-1.0, 0.25]}\n'
        + "0.10000000000000001,-0,7\n"
        + "3.1415926535897931,1e-300,4.9406564584124654e-324\n"
        + "3,-2.5e+20,0.33333333333333331\n").encode()


@pytest.mark.parametrize("body, error", [
    pytest.param("1,2,3\n\n4,5,6\n   \n7,8,9\n\n", None, id="blank_lines"),
    pytest.param("1,2,3\n4,5,6\n", "body does not match 3x3 header",
                 id="short"),
    pytest.param("1,2,3\n4,5\n7,8,9\n", "body does not match 3x3 header",
                 id="ragged"),
    pytest.param("1,2,3,0\n4,5,6,0\n7,8,9,0\n",
                 "body does not match 3x3 header", id="wide"),
    pytest.param("", "body does not match 3x3 header", id="empty"),
    pytest.param("1,x,3\n4,5,6\n7,8,9\n", "bad field value", id="bad_cell"),
    pytest.param("1,2,3\n4,5,6\n7,8,nan\n", "non-finite field value",
                 id="nan"),
    pytest.param("1,2,3\n-inf,5,6\n7,8,9\n", "non-finite field value",
                 id="inf"),
])
def test_load_array_outcomes(tmp_path, body, error):
    path = tmp_path / "field.csv"
    fieldio.save_array(path, Grid(3, 3, 0.5), np.zeros((3, 3)), "scalar")
    path.write_text(path.read_text().splitlines()[0] + "\n" + body)
    if error is None:
        _, values, _ = fieldio.load_array(path)
        assert np.array_equal(values, np.arange(1.0, 10.0).reshape(3, 3))
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty body must not warn either
        with pytest.raises(ConfigError, match=error):
            fieldio.load_array(path)
