"""Geometric limit quantities: inscribed-ball radii over the positive set,
disjoint-ball packings, and the cone test fields built from them.

Ball containment is always tested through the distance field
(radius <= d(center)), never by re-rasterizing balls.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import GeometryError, InfeasiblePackingError, NoPositiveRegionError
from .grid import DistanceField, Grid, ScalarField
from .weight import WeightField

PAIR_SEARCH_MAX_CANDIDATES = 4000


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


def _pair_objective(d, pts, h):
    """Objective matrix min(d_i, d_j, |x_i - x_j|/2) for all candidate pairs."""
    dv = d[pts[:, 0], pts[:, 1]]
    # chunk the pairwise pass to bound memory on large candidate sets
    n = len(pts)
    best = -np.inf
    best_pair = (0, 0)
    xy = pts * h
    for lo in range(0, n, 512):
        hi = min(lo + 512, n)
        dx = xy[lo:hi, None, 0] - xy[None, :, 0]
        dy = xy[lo:hi, None, 1] - xy[None, :, 1]
        sep = 0.5 * np.hypot(dx, dy)
        obj = np.minimum(np.minimum(dv[lo:hi, None], dv[None, :]), sep)
        k = int(np.argmax(obj))
        i, j = divmod(k, n)
        if obj[i, j] > best:
            best = float(obj[i, j])
            best_pair = (lo + i, j)
    return best, best_pair


def _best_partner(d, pts, h, fixed_ij):
    """Best second center over all candidates, first fixed. Returns (value, idx)."""
    dv = d[pts[:, 0], pts[:, 1]]
    dfix = d[fixed_ij[0], fixed_ij[1]]
    sep = 0.5 * h * np.hypot(pts[:, 0] - fixed_ij[0], pts[:, 1] - fixed_ij[1])
    obj = np.minimum(np.minimum(dv, dfix), sep)
    k = int(np.argmax(obj))
    return float(obj[k]), k


def pack(k: int, dist: DistanceField, plus_mask: np.ndarray,
         max_candidates: int = PAIR_SEARCH_MAX_CANDIDATES,
         rng: np.random.Generator | None = None,
         restarts: int = 4) -> PackingResult:
    """Largest common radius of k disjoint balls inside the domain with
    centers on the plus mask.

    k = 1 reduces to the inscribed-ball maximum. k = 2 is an exhaustive pair
    search (exact when no candidate coarsening kicks in; coarsened runs are
    refined by alternating full-grid sweeps). k >= 3 uses farthest-point
    seeding plus coordinate descent and is a LOWER bound on the true radius,
    reported with exact=False.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not plus_mask.any():
        raise NoPositiveRegionError("no positive region")
    pts = np.argwhere(plus_mask)
    if len(pts) < k:
        raise InfeasiblePackingError(
            f"infeasible packing: {len(pts)} candidate nodes for k={k}")
    d = dist.d
    h = dist.grid.h

    if k == 1:
        val, ij = r_plus(dist, plus_mask)
        return PackingResult(1, val, (ij,), exact=True)

    if k == 2:
        coarsened = len(pts) > max_candidates
        cand = pts
        if coarsened:
            stride = int(np.ceil(len(pts) / max_candidates))
            cand = pts[::stride]
        best, (a, b) = _pair_objective(d, cand, h)
        c1 = (int(cand[a, 0]), int(cand[a, 1]))
        c2 = (int(cand[b, 0]), int(cand[b, 1]))
        if coarsened:
            # alternating full-resolution sweeps until stationary
            for _ in range(32):
                v1, kk = _best_partner(d, pts, h, c1)
                nc2 = (int(pts[kk, 0]), int(pts[kk, 1]))
                v2, kk = _best_partner(d, pts, h, nc2)
                nc1 = (int(pts[kk, 0]), int(pts[kk, 1]))
                if max(v1, v2) <= best:
                    break
                best = max(v1, v2)
                c1, c2 = nc1, nc2
        return PackingResult(2, best, (c1, c2), exact=not coarsened)

    # k >= 3: greedy farthest-point seeding + coordinate descent, with a few
    # randomized restarts.
    if rng is None:
        rng = np.random.default_rng(0)
    dv = d[pts[:, 0], pts[:, 1]]
    xy = pts * h

    def packing_value(sel):
        vals = dv[sel].min()
        pxy = xy[sel]
        dd = np.hypot(pxy[:, None, 0] - pxy[None, :, 0],
                      pxy[:, None, 1] - pxy[None, :, 1])
        np.fill_diagonal(dd, np.inf)
        return min(vals, 0.5 * dd.min())

    def descend(sel):
        val = packing_value(sel)
        improved = True
        while improved:
            improved = False
            for slot in range(k):
                others = [s for t, s in enumerate(sel) if t != slot]
                oxy = xy[others]
                sep = 0.5 * np.min(np.hypot(xy[:, None, 0] - oxy[None, :, 0],
                                            xy[:, None, 1] - oxy[None, :, 1]),
                                   axis=1)
                odd = np.hypot(oxy[:, None, 0] - oxy[None, :, 0],
                               oxy[:, None, 1] - oxy[None, :, 1])
                np.fill_diagonal(odd, np.inf)
                # cap by the unmoved centers' own distances and separations so
                # obj equals the packing value of the candidate selection
                cap = min(dv[others].min(), 0.5 * odd.min())
                obj = np.minimum(np.minimum(dv, cap), sep)
                cand_idx = int(np.argmax(obj))
                if obj[cand_idx] > val + 1e-15 and cand_idx not in others:
                    sel[slot] = cand_idx
                    val = obj[cand_idx]
                    improved = True
        return val, sel

    best_val = -np.inf
    best_sel = None
    for trial in range(restarts):
        if trial == 0:
            seed = int(np.argmax(dv))
        else:
            seed = int(rng.integers(len(pts)))
        sel = [seed]
        while len(sel) < k:
            oxy = xy[sel]
            sep = 0.5 * np.min(np.hypot(xy[:, None, 0] - oxy[None, :, 0],
                                        xy[:, None, 1] - oxy[None, :, 1]),
                               axis=1)
            obj = np.minimum(dv, sep)
            obj[sel] = -np.inf
            sel.append(int(np.argmax(obj)))
        val, sel = descend(sel)
        if val > best_val:
            best_val, best_sel = val, list(sel)
    centers = tuple((int(pts[s, 0]), int(pts[s, 1])) for s in best_sel)
    return PackingResult(k, float(best_val), centers, exact=False)


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
    I, J = np.meshgrid(np.arange(grid.nx), np.arange(grid.ny), indexing="ij")
    rho = grid.h * np.hypot(I - center[0], J - center[1])
    return ScalarField(grid, np.maximum(radius - rho, 0.0))


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


def compute_limits(dist: DistanceField, w: WeightField,
                   max_candidates: int = PAIR_SEARCH_MAX_CANDIDATES,
                   rng: np.random.Generator | None = None) -> GeoLimits:
    """All scalar limit quantities derived from the domain geometry and the
    sign partition of the weight."""
    rp, cp = r_plus(dist, w.plus)
    p2 = pack(2, dist, w.plus, max_candidates=max_candidates, rng=rng)
    if w.minus.any():
        rm, _ = r_plus(dist, w.minus)
        mu1_inf = -1.0 / rm
    else:
        rm = None
        mu1_inf = None
    return GeoLimits(
        r_plus=rp,
        center_plus=cp,
        r_minus=rm,
        r2_plus=p2.radius,
        centers2=p2.centers,
        lambda1_inf=1.0 / rp,
        lambda2_inf=1.0 / p2.radius,
        mu1_inf=mu1_inf,
        lambda1_inf_C=max(1.0 / rp, 1.0),
    )
