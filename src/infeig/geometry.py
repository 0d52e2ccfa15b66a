"""Geometric limit quantities: inscribed-ball radii over the positive set,
disjoint-ball packings, and the cone test fields built from them.

Ball containment is always tested through the distance field
(radius <= d(center)), never by re-rasterizing balls.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import GeometryError, InfeasiblePackingError, NoPositiveRegionError
from .grid import DistanceField, Grid, ScalarField, index_box
from .weight import WeightField

@dataclass(frozen=True)
class PackingResult:
    k: int
    radius: float
    centers: tuple[tuple[int, int], ...]
    exact: bool


@dataclass(frozen=True)
class GeoLimits:
    r_plus: float
    center_plus: tuple[int, int]
    r_minus: float | None
    r2_plus: float
    centers2: tuple[tuple[int, int], ...]
    lambda1_inf: float
    lambda2_inf: float
    mu1_inf: float | None
    lambda1_inf_C: float

    def to_record(self) -> dict:
        return asdict(self)


def r_plus(dist: DistanceField, plus_mask: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Largest distance-to-boundary over the plus mask and its argmax node.

    Ties break to the lowest (i, j) in lexicographic order.
    """
    if not plus_mask.any():
        raise NoPositiveRegionError("no positive region")
    masked = np.where(plus_mask, dist.d, -np.inf)
    flat = int(np.argmax(masked))  # C order == lexicographic (i, j)
    ij = np.unravel_index(flat, masked.shape)
    return float(dist.d[ij]), (int(ij[0]), int(ij[1]))


def _chain(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Indices of the strict convex chain of the points (i, j), i strictly
    monotone: the points Andrew's monotone chain keeps when it pops every
    point that does not make a strict left turn, collinear ones included.

    Each pass drops every point that makes no strict left turn with its
    current neighbours, until none is left. Dropping them all at once is
    safe: each such point lies on or beyond the segment between two other
    points of the set, so it is no strict vertex of the chain. On the row
    ends of every level of the four example weights on the h = 1/256 disk
    this takes at most 9 passes, and 37 when a lone node in a far corner
    cuts the unit disk's rim arc one vertex per pass.
    """
    keep = np.arange(len(i))
    while len(keep) > 2:
        a, b, c = keep[:-2], keep[1:-1], keep[2:]
        left = (i[b] - i[a]) * (j[c] - j[a]) - (j[b] - j[a]) * (i[c] - i[a]) > 0
        if left.all():
            break
        keep = np.concatenate([keep[:1], b[left], keep[-1:]])
    return keep


def _farthest_pair(sel: np.ndarray, h: float):
    """Half the diameter of the nodes in the mask `sel` and a pair of nodes
    at that distance.

    A node that is not a strict convex-hull vertex is a convex combination
    of other nodes, so any node lies strictly closer to it than to one of
    those: a diameter pair is a pair of strict hull vertices. Every hull
    vertex is the first or last node of its row, so the strict convex chain
    (`_chain`) runs once over the first ends in row order and once over the
    last ends in reverse row order, and only the vertices kept are
    compared: ~140 of 1022 row ends on the h = 1/256 unit disk.

    Ties go to the first maximum over ordered pairs of the row ends listed
    as [firsts by row, lasts by row]. A node alone in its row is listed
    twice and counts at its first place; the kept places are compared in
    that order.
    """
    rows = np.flatnonzero(sel.any(axis=1))
    first = np.argmax(sel[rows], axis=1)
    last = sel.shape[1] - 1 - np.argmax(sel[rows, ::-1], axis=1)
    ends = np.column_stack([np.tile(rows, 2), np.concatenate([first, last])])
    lower = _chain(rows, first)
    upper = len(rows) - 1 - _chain(rows[::-1], last[::-1])
    upper = np.where(first[upper] == last[upper], upper, len(rows) + upper)
    ends = ends[np.unique(np.concatenate([lower, upper]))]
    half = 0.5 * h * np.hypot(ends[:, None, 0] - ends[None, :, 0],
                              ends[:, None, 1] - ends[None, :, 1])
    a, b = np.unravel_index(int(np.argmax(half)), half.shape)
    return float(half[a, b]), tuple(map(tuple, ends[[a, b]].tolist()))


def _witness(sel: np.ndarray, k: int, h: float):
    """k nodes of the mask `sel` and half their smallest pairwise distance:
    the farthest pair, then k - 2 times the node of `sel` farthest from the
    nodes already chosen (farthest-point greedy; Gonzalez, TCS 1985). For
    k = 2 this is exactly `_farthest_pair`.

    The greedy keeps D, the integer squared distance to the nearest chosen
    node, on the bounding box of `sel` (-1 off the mask): each centre costs
    one broadcast sum of two squared index ranges and one minimum. Each
    pick is among the nodes at the largest D, ties broken by the float
    distance, the min over centres of np.hypot, first maximum in row-major
    order. That is the node and value of the float greedy that takes the
    first maximum of the np.hypot distance over every node of `sel`:
    hypot is not correctly rounded, so two nodes at the same D can get
    values an ulp apart, but it is within 1 ulp, and for integers
    n < m < 2**49 (D stays far below on any grid that fits in memory),
    sqrt(m) - sqrt(n) > 1 / (2 sqrt(m)) > 2 ulp(sqrt(m)).
    So hypot strictly increases across distinct D, the float distance of a
    node is that of a centre at its D, and the float maximum lies among
    the nodes at the largest D, in the same row-major order.
    """
    half, centers = _farthest_pair(sel, h)
    if k == 2:
        return half, centers
    r0, r1, c0, c1 = index_box(sel)
    box = sel[r0:r1, c0:c1]
    I, J = np.arange(r0, r1), np.arange(c0, c1)

    def sq(c):
        return ((I - c[0]) ** 2)[:, None] + ((J - c[1]) ** 2)[None, :]

    d2 = sq(centers[0])
    d2[~box] = -1
    np.minimum(d2, sq(centers[1]), out=d2)
    for step in range(k - 2):
        # flat indices: np.nonzero on the 2-D array costs ~6x more
        ti, tj = np.divmod(np.flatnonzero(d2 == d2.max()), box.shape[1])
        ti += r0
        tj += c0
        near = np.min([np.hypot(ti - i, tj - j) for i, j in centers], axis=0)
        a = int(np.argmax(near))
        half = min(half, 0.5 * h * float(near[a]))
        centers += ((int(ti[a]), int(tj[a])),)
        if step < k - 3:  # the last pick reads no update
            np.minimum(d2, sq(centers[-1]), out=d2)
    return half, centers


def _search_pack(d: np.ndarray, plus_mask: np.ndarray, h: float, k: int):
    """Bracketed search over the distance levels of d for k disjoint balls.

    With S_r the plus nodes where d >= r and D(r) the value of the witness
    on S_r (`_witness`), every level r gives the packing value
    min(r, D(r)), witnessed by valid centres. The search brackets the
    crossing of f(r) = r - D(r): the last level with r <= D(r) and the
    first level above it. It probes the top level, then the bottom one, so
    a crossing at an end level (a boundary strip weight: the top; a small
    centre ball: the bottom) costs one or two witness calls. Each further
    probe is the first level above the false-position root of f between
    the bracket ends (`np.searchsorted`); once two probes in a row have not
    halved the bracket, the next one is its midpoint. So at least every
    third probe halves it, and n levels take at most
    3 ceil(log2(n + 1)) + 2 calls. On the unit disk at h = 1/256 the
    uniform, centre-ball, strip and two-ball weights take 6, 2, 1 and 4
    calls for k = 2 and the uniform one 5 for k = 3, where bisection took
    13, 11, 9, 9 and 14.

    For k = 2, D(r) is half the diameter of S_r, so along the sorted levels
    r grows and D(r) shrinks: the crossing is unique, and the exact pair
    optimum max over node pairs of min(d_i, d_j, |x_i - x_j| / 2) is r at
    the last level below it or D(r) at the first level above. For k >= 3
    the greedy D(r) need not shrink, so the crossing found is one of
    possibly several and its value a lower bound. Returns (radius,
    centers).

    The levels are built and scanned on the bounding box of the plus set
    only: the witness reads index differences and row order, which the
    crop keeps, so radius and centres are those of the whole grid.
    """
    top, bottom, left, right = index_box(plus_mask)
    box = np.s_[top:bottom, left:right]
    d, plus_mask = d[box], plus_mask[box]
    levels = np.unique(d[plus_mask])
    lo, hi = 0, len(levels)
    # (value, centers, f) at the bracket ends, levels lo - 1 and hi
    below = above = None
    misses = 0  # interior probes in a row that did not halve hi - lo
    while lo < hi:
        width, interior = hi - lo, below is not None and above is not None
        if above is None:
            j = hi - 1
        elif below is None:
            j = lo
        elif misses == 2:
            j = (lo + hi) // 2
        else:
            r0, r1 = levels[lo - 1], levels[hi]
            root = r0 - below[2] * (r1 - r0) / (above[2] - below[2])
            j = min(max(int(np.searchsorted(levels, root, "right")), lo),
                    hi - 1)
        half, centers = _witness(plus_mask & (d >= levels[j]), k, h)
        f = levels[j] - half
        if f <= 0:
            lo, below = j + 1, (float(levels[j]), centers, f)
        else:
            hi, above = j, (half, centers, f)
        if interior:
            misses = 0 if hi - lo <= width // 2 else misses + 1
    radius, centers, _ = max((c for c in (below, above) if c is not None),
                             key=lambda c: c[0])
    return radius, tuple((i + top, j + left) for i, j in centers)


def pack(k: int, dist: DistanceField, plus_mask: np.ndarray,
         rng=None, restarts=None, max_candidates=None) -> PackingResult:
    """Largest common radius of k disjoint balls inside the domain with
    centers on the plus mask.

    k = 1 reduces to the inscribed-ball maximum. Every k >= 2 runs one
    deterministic search over the distance levels, by end probes, false
    position and a midpoint fallback (see `_search_pack`): exact for k = 2
    at every grid size (exact=True), and for k >= 3 a certified LOWER
    bound whose centres are valid (exact=False).
    """
    # rng, restarts and max_candidates are ignored; bench/traced.py still
    # passes them
    if k < 1:
        raise ValueError("k must be >= 1")
    if not plus_mask.any():
        raise NoPositiveRegionError("no positive region")
    n = int(np.count_nonzero(plus_mask))
    if n < k:
        raise InfeasiblePackingError(
            f"infeasible packing: {n} candidate nodes for k={k}")
    if k == 1:
        val, ij = r_plus(dist, plus_mask)
        return PackingResult(1, val, (ij,), exact=True)
    radius, centers = _search_pack(dist.d, plus_mask, dist.grid.h, k)
    return PackingResult(k, radius, centers, exact=k == 2)


def cone_field(center: tuple[int, int], radius: float, grid: Grid,
               dist: DistanceField | None = None) -> ScalarField:
    """Nodal samples of the cone (radius - |x - center|)^+.

    When a distance field is supplied, containment of the ball in the domain
    is checked via radius <= d(center).
    """
    if dist is not None and radius > dist.d[center] + 1e-12:
        raise GeometryError(
            f"ball of radius {radius} at {center} exits the domain "
            f"(d = {dist.d[center]})")
    # one grid-sized array: the broadcast index ranges, then in place the
    # operations of np.maximum(radius - h * rho, 0.0)
    u = np.hypot((np.arange(grid.nx) - center[0])[:, None],
                 (np.arange(grid.ny) - center[1])[None, :])
    u *= grid.h
    np.subtract(radius, u, out=u)
    return ScalarField(grid, np.maximum(u, 0.0, out=u))


def two_cone_field(alpha: float, beta: float, c1, c2, radius: float,
                   grid: Grid, dist: DistanceField | None = None) -> ScalarField:
    """alpha*C1 + beta*C2 for two disjoint cones of common radius."""
    sep = grid.h * np.hypot(c1[0] - c2[0], c1[1] - c2[1])
    if sep < 2 * radius:
        raise GeometryError(
            f"balls of radius {radius} at {c1}, {c2} overlap (separation {sep})")
    u1 = cone_field(c1, radius, grid, dist).u
    u2 = cone_field(c2, radius, grid, dist).u
    return ScalarField(grid, alpha * u1 + beta * u2)


def lambda1_limit(rp: float, zero_order: bool = False) -> float:
    """lambda1_inf = 1 / R+, or max{1 / R+, 1} with a zero-order term."""
    return max(1.0 / rp, 1.0) if zero_order else 1.0 / rp


def compute_limits(dist: DistanceField, w: WeightField) -> GeoLimits:
    """All scalar limit quantities derived from the domain geometry and the
    sign partition of the weight; R2+ is the exact k = 2 packing."""
    rp, cp = r_plus(dist, w.plus)
    p2 = pack(2, dist, w.plus)
    rm = r_plus(dist, w.minus)[0] if w.minus.any() else None
    return GeoLimits(
        r_plus=rp,
        center_plus=cp,
        r_minus=rm,
        r2_plus=p2.radius,
        centers2=p2.centers,
        lambda1_inf=lambda1_limit(rp),
        lambda2_inf=1.0 / p2.radius,
        mu1_inf=None if rm is None else -1.0 / rm,
        lambda1_inf_C=lambda1_limit(rp, zero_order=True),
    )
