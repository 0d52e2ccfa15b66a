"""Uniform 2D grid, domain rasterization, and the exact Euclidean distance
transform to the discrete domain complement.

Distance is node-to-node: d(node) is the exact Euclidean distance from an
inside node to the nearest outside node. This carries an O(h) bias relative
to the true distance to the continuum boundary, which downstream tolerances
absorb.

The transform is the two-pass separable algorithm of Meijster, Roerdink and
Hesselink (2000) and Felzenszwalb and Huttenlocher ("Distance transforms of
sampled functions", 2012), in plain numpy: squared distances along each row,
then the lower envelope of parabolas down each column, all in integers, so
d = h * sqrt(integer) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDomainError


@dataclass(frozen=True)
class Grid:
    """Uniform lattice: node (i, j) sits at (x0 + i*h, y0 + j*h)."""

    nx: int
    ny: int
    h: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ValueError(f"grid needs nx, ny >= 3, got {self.nx}x{self.ny}")
        if not self.h > 0:
            raise ValueError(f"grid spacing must be positive, got {self.h}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Node x coordinates as an (nx, 1) column and y coordinates as a
        (1, ny) row; they broadcast to the grid."""
        x = self.origin[0] + self.h * np.arange(self.nx)
        y = self.origin[1] + self.h * np.arange(self.ny)
        return x[:, None], y[None, :]

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """World coordinates of every node as two (nx, ny) arrays."""
        return tuple(np.broadcast_to(a, self.shape).copy() for a in self.axes())

    def scaled(self, t: float) -> "Grid":
        """Same lattice with spacing and origin scaled by t."""
        return Grid(self.nx, self.ny, self.h * t,
                    (self.origin[0] * t, self.origin[1] * t))


@dataclass(frozen=True)
class DomainMask:
    """Inside/outside indicator with a guaranteed one-node outside collar."""

    grid: Grid
    inside: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.inside.shape != self.grid.shape:
            raise ValueError("mask shape does not match grid")
        if self.inside.dtype != np.bool_:
            object.__setattr__(self, "inside", self.inside.astype(bool))
        if not self.inside.any():
            raise DegenerateDomainError("degenerate domain: empty interior")
        edge = (self.inside[0, :].any() or self.inside[-1, :].any()
                or self.inside[:, 0].any() or self.inside[:, -1].any())
        if edge:
            raise ValueError("mask violates the one-node outside collar")


def index_box(mask: np.ndarray) -> tuple[int, int, int, int]:
    """Half-open box (r0, r1, c0, c1) of a nonempty mask's set nodes."""
    rows, cols = (np.flatnonzero(mask.any(axis=a)) for a in (1, 0))
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


@dataclass(frozen=True)
class DistanceField:
    """Exact node-to-node Euclidean distance to the outside set."""

    grid: Grid
    d: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class ScalarField:
    """Nodal scalar values, zero outside the domain in the solver's fields;
    `check` reads any outside values only for `boundary_max`."""

    grid: Grid
    u: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.u.shape != self.grid.shape:
            raise ValueError("field shape does not match grid")


# --- rasterization primitives -------------------------------------------------

@dataclass(frozen=True)
class Disk:
    center: tuple[float, float]
    radius: float
    op: str = "union"

    def __post_init__(self):
        # contains squares the radius, so a negative one would act as |r|
        if not (self.radius >= 0 and self.radius * self.radius < math.inf):
            raise ValueError(f"disk radius must be >= 0 with a finite "
                             f"square, got {self.radius}")

    def contains(self, X, Y):
        return (X - self.center[0]) ** 2 + (Y - self.center[1]) ** 2 < self.radius ** 2


@dataclass(frozen=True)
class Rect:
    lo: tuple[float, float]
    hi: tuple[float, float]
    op: str = "union"

    def contains(self, X, Y):
        return ((X > self.lo[0]) & (X < self.hi[0])
                & (Y > self.lo[1]) & (Y < self.hi[1]))


@dataclass(frozen=True)
class Polygon:
    """Simple polygon, membership by the even-odd rule at node centers."""

    vertices: tuple[tuple[float, float], ...]
    op: str = "union"

    def __post_init__(self):
        # fewer vertices enclose no area, so the shape would cover no node
        if len(self.vertices) < 3:
            raise ValueError(f"a polygon needs 3 or more vertices, got "
                             f"{len(self.vertices)}")

    def contains(self, X, Y):
        vx = np.array([v[0] for v in self.vertices])
        vy = np.array([v[1] for v in self.vertices])
        n = len(vx)
        out = np.zeros(np.broadcast_shapes(X.shape, Y.shape), dtype=bool)
        j = n - 1
        for i in range(n):
            crosses = ((vy[i] > Y) != (vy[j] > Y))
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = vx[i] + (Y - vy[i]) * (vx[j] - vx[i]) / (vy[j] - vy[i])
            out ^= crosses & (X < xint)
            j = i
        return out


def rasterize(primitives, grid: Grid) -> DomainMask:
    """Compose signed shapes into an inside mask, clearing the boundary collar.

    Shapes are applied in order: "union" adds, "difference" subtracts. Each
    shape tests the separable coordinates of `Grid.axes`, which it
    broadcasts to the grid.
    """
    if not primitives:
        raise ValueError("primitive list is empty")
    x, y = grid.axes()
    inside = np.zeros(grid.shape, dtype=bool)
    for prim in primitives:
        hit = prim.contains(x, y)
        if prim.op == "union":
            inside |= hit
        elif prim.op == "difference":
            inside &= ~hit
        else:
            raise ValueError(f"unknown shape op {prim.op!r}")
    inside[0, :] = inside[-1, :] = False
    inside[:, 0] = inside[:, -1] = False
    return DomainMask(grid, inside)


# --- exact Euclidean distance transform --------------------------------------

def _row_sq_dist(inside, big, it):
    """Squared distance along axis 1 to the nearest False node in the same
    row; big**2 in rows that have none."""
    n = inside.shape[1]
    idx = np.arange(n, dtype=it)
    left = np.where(inside, it(-big), idx)
    np.maximum.accumulate(left, axis=1, out=left)
    right = np.where(inside[:, ::-1], it(n + big), idx[::-1])
    np.minimum.accumulate(right, axis=1, out=right)
    right -= idx[::-1]
    g = np.subtract(idx, left, out=left)
    np.minimum(g, right[:, ::-1], out=g)
    np.minimum(g, big, out=g)
    g *= g
    return g


def _envelope_scan(C):
    """Meijster's lower-envelope scan down axis 0, in every column at once.

    Row r of C holds site k = r - 1 as G[k] + k^2, the parabola
    x -> (x - k)^2 + G[k]; row 0 is a virtual site at -1 that never wins
    and is never popped. Every site is pushed, so the entry under the new
    one is by default the site pushed just before it, and a step that pops
    nothing costs four numpy calls. Returns T and P: T[r] is the first x
    where site r - 1 is lowest once pushed, P[r] the row under it on the
    stack.
    """
    rows, lanes = C.shape
    it = C.dtype.type
    T = np.empty_like(C)
    T[0] = -(2 ** 30)
    T[1] = 0
    # where each site starts on top of its predecessor: 1 + floor(dC / 2)
    np.subtract(C[2:], C[1:-1], out=T[2:])
    T[2:] >>= 1
    T[2:] += 1
    P = np.empty_like(C)
    P[:] = np.arange(-1, rows - 1, dtype=it)[:, None]
    Cf, Tf, Pf = C.ravel(), T.ravel(), P.ravel()
    tb, cb = T[0].copy(), C[0].copy()  # T and C of the entry under the top
    w = np.empty(lanes, dtype=it)
    span = np.empty(lanes, dtype=it)
    flat = np.empty(lanes, dtype=np.intp)
    col = np.arange(lanes)
    stay = np.empty(lanes, dtype=bool)
    pop = np.empty(lanes, dtype=bool)
    deep = np.empty(lanes, dtype=bool)

    def start_on(r, s, cs):
        # w = the first x where site r - 1 is lower than the entry in row s
        np.subtract(r, s, out=span)
        np.add(span, span, out=span)
        np.subtract(C[r], cs, out=w)
        np.floor_divide(w, span, out=w)
        np.add(w, 1, out=w)
        np.maximum(w, 0, out=w)  # on the virtual site: from x = 0

    for r in range(2, rows):
        np.greater(T[r], T[r - 1], out=stay)
        if stay.all():
            np.copyto(tb, T[r - 1])
            np.copyto(cb, C[r - 1])
            continue
        # where the new site is lower at the top's start the top is popped,
        # and the new site starts on the entry under it instead
        s = P[r - 1]
        start_on(r, s, cb)
        np.logical_not(stay, out=pop)
        np.copyto(T[r], w, where=pop)
        np.copyto(P[r], s, where=pop)
        np.copyto(tb, T[r - 1], where=stay)
        np.copyto(cb, C[r - 1], where=stay)
        np.less_equal(T[r], tb, out=deep)
        while deep.any():
            # that entry goes too: move down one more in those columns
            np.multiply(P[r], lanes, out=flat)
            flat += col
            s = Pf.take(flat)
            np.multiply(s, lanes, out=flat)
            flat += col
            ts, cs = Tf.take(flat), Cf.take(flat)
            start_on(r, s, cs)
            np.copyto(T[r], w, where=deep)
            np.copyto(P[r], s, where=deep)
            np.copyto(tb, ts, where=deep)
            np.copyto(cb, cs, where=deep)
            np.less_equal(w, ts, out=pop)
            deep &= pop
    return T, P


def _merge_halves(T, P, H, m):
    """Join, per column of the domain, its forward envelope (scan column j)
    and its mirrored one (scan column n + j).

    The joint envelope is a bottom part of the forward stack and a bottom
    part of the mirrored stack. Pop the forward top a while the mirrored top
    b is lower on all of a's remaining interval, and b while a is lower on
    all of b's; an entry whose interval starts at m goes as well. Returns a
    and b (-1 when a stack empties) and c, the first x taken by b.
    """
    h, w2 = T.shape
    n = w2 // 2
    Tf, Pf, Hf = T.ravel(), P.ravel(), H.ravel()
    col = np.arange(n)
    a = np.full(n, h - 1, dtype=T.dtype)
    b = np.full(n, h - 1, dtype=T.dtype)
    while True:
        ea, eb = a >= 0, b >= 0
        fa = np.where(ea, a, 0) * w2 + col
        fb = np.where(eb, b, 0) * w2 + n + col
        ta, ga, tb, gb = Tf[fa], Hf[fa], Tf[fb], Hf[fb]
        bx = (m - 1) - b   # b's site and the last x of its interval
        tbx = (m - 1) - tb
        pop_a = ea & ((ta >= m) | eb & ((ta - bx) ** 2 + gb < (ta - a) ** 2 + ga))
        pop_b = eb & ((tb >= m) | ea & ((tbx - a) ** 2 + ga < (tbx - bx) ** 2 + gb))
        if not (pop_a.any() or pop_b.any()):
            break
        a = np.where(pop_a, Pf[fa] - 1, a)
        b = np.where(pop_b, Pf[fb] - 1, b)
    c = np.where(ea, m, 0).astype(T.dtype)
    both = ea & eb
    c[both] = 1 + ((bx * bx - a * a + gb - ga) // (2 * (bx - a)))[both]
    return a, b, c


def squared_edt(inside: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distance, in node units, from every node of a
    2-D boolean array to the nearest False node; an integer array.

    The lower envelope down each column is scanned from both ends at once,
    the top half forward and the bottom half mirrored, as 2n columns of
    half the length; the two halves are then merged per column.
    """
    inside = np.asarray(inside, dtype=bool)
    if inside.ndim != 2 or inside.all():
        raise ValueError("squared_edt needs a 2-D array with a False node")
    m, n = inside.shape
    big = m + n + 1  # a row distance no real one reaches
    # int32 holds every sum of the scan and, at this size, every readout
    # key site << shift | G[site] below
    shift = (big * big).bit_length()
    it = np.int32 if 2 * big * big < 2 ** 31 and m << shift < 2 ** 31 else np.int64
    G = _row_sq_dist(inside, big, it)
    h = (m + 1) // 2
    w2 = 2 * n
    C = np.empty((h + 1, w2), dtype=it)
    C[0] = big * big + 1
    C[1:, :n] = G[:h]
    C[1:m - h + 1, n:] = G[:h - 1:-1]
    C[m - h + 1:, n:] = big * big  # odd m: a padding site that never wins
    del G
    sq = (np.arange(h, dtype=it) ** 2)[:, None]
    C[1:] += sq
    T, P = _envelope_scan(C)
    T, P, H = T[1:], P[1:], C[1:]
    np.minimum(T, m, out=T)
    H -= sq
    a, b, c = _merge_halves(T, P, H, m)

    # A site survived its scan iff no later site was pushed onto a row
    # below its own; keep the survivors of the merged bottom parts. A
    # mirrored survivor marks where the site under it starts.
    low = np.minimum.accumulate(P[::-1], axis=0)[::-1]
    k = np.arange(h, dtype=it)[:, None]
    fwd = np.empty((h, w2), dtype=bool)
    fwd[-1] = True
    np.greater(low[1:], k[:-1], out=fwd[:-1])
    del low
    mir = fwd.copy()
    fwd[:, :n] &= k <= a
    fwd[:, n:] = False
    mir[:, :n] = False
    mir[:, n:] &= (k <= b) & (P[:, n:] > 0)

    # In place: T becomes the flat index in the output of the first x of
    # each entry (T forward, m - T mirrored), H the key site << shift |
    # G[site], and P, mirrored, the flat index of the key of the site under.
    col = np.arange(n, dtype=it)
    T[:, :n] *= n
    T[:, :n] += col
    np.subtract(m, T[:, n:], out=T[:, n:])
    T[:, n:] *= n
    T[:, n:] += col
    H[:, :n] |= k << shift
    H[:, n:] |= (m - 1 - k) << shift
    P[:, n:] -= 1
    P[:, n:] *= w2
    P[:, n:] += n + col
    # Write each key at its first x, carry it down each column with a
    # running max, then evaluate the parabola of its site.
    out = np.zeros((m, n), dtype=it)
    hit = (b >= 0) & (c < m)
    out[c[hit], col[hit]] = H[b[hit], n + col[hit]]
    of, Tf, Hf = out.ravel(), T.ravel(), H.ravel()
    sel = np.flatnonzero(fwd)
    of[Tf.take(sel)] = Hf.take(sel)
    sel = np.flatnonzero(mir)
    of[Tf.take(sel)] = Hf.take(P.ravel().take(sel))
    np.maximum.accumulate(out, axis=0, out=out)
    d2 = out & ((1 << shift) - 1)
    out >>= shift
    out -= np.arange(m, dtype=it)[:, None]
    out *= out
    d2 += out
    return d2


def edt(mask: DomainMask) -> DistanceField:
    """Exact Euclidean distance from each inside node to the nearest outside
    node, in world units. Outside nodes get 0."""
    # unit sampling, then scale: d is exactly h * sqrt(integer), matching any
    # brute-force oracle bit for bit
    d = np.sqrt(squared_edt(mask.inside), dtype=np.float64)
    d *= mask.grid.h
    return DistanceField(mask.grid, d)
