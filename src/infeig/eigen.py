"""Discrete weighted p-Dirichlet eigenproblem.

Energy uses per-cell forward differences from each cell's base corner, so
both the energy and the mass have exact analytic gradients. The principal
eigenvalue is found by L-BFGS on log E - log G over nonnegative fields,
kept nonnegative by the projected line search max(x + tau d, 0). No bound
is ever active: at a zero node the mass and C parts of the gradient carry
t^(p-1) = 0 and every energy cell term is -pg (ux + uy) with ux, uy >= 0
or pg (0 - x_base) with x_base >= 0, so the gradient there is a sum of
nonpositive terms, and an L-BFGS-B free set would hold every node; the
solver keeps none. Its initial Hessian is a symmetric two-grid cycle on
the lagged-diffusivity (Kacanov) stiffness A(u): a Chebyshev smoothing step
in D A with D = 1 / diag A, so the contrast of |grad u|^(p-2) at large p
does not set the iteration count, a Galerkin coarse solve of its residual
on a grid 8 times coarser, so the count grows ~1.2x, not ~2.4x, per
doubling of the grid, and a second smoothing step; the solver builds the
coarse factor only on the whole box (below), at every gradient that finds
none, and rebuilds it when it is 3, 7 or a multiple of 15 accepted
iterations old. Exactly while a factor exists the L-BFGS direction (the
cycle, gamma's quadratic form and the memory rows) runs in float32, in
power-of-two units the memory sets at each restart, so that no weight
scale over- or underflows its rows; the memory is built in that precision
and restarts empty in the other when a build gains or a refresh loses
the factor, so no pair changes precision. The iterate, the sums, the
gradient, the line search and the KKT residual stay float64, and L-BFGS
admits any positive definite H0, so a rounded direction can cost
iterations but never certifies a wrong point.
A solve is converged only when its relative KKT
residual is below the tolerance, and the returned field has unit weighted
p-mass. All p-th roots and normalizations go through log space, so they
stay finite at every finite p, and every power of a nonnegative array goes
through ``_power``, which flushes results below the smallest normal double
to exactly 0: at large p most bases are zero or underflow, numpy's pow is
slow on both, and a flushed term is below the last bit of any sum. The
weight m and the zero-order C enter every p-sum scaled to unit max, with
the logs of the scales added back, so the roots are covariant under
m -> c m at every c in the double range: lambda(c m) = lambda(m) / c.

The solver does not call the public kernels: it evaluates each trial in
one private pass whose power arrays the gradient and A(u) at the accepted
trial reuse, and keeps its L-BFGS memory with the pairs' Gram matrix, so a
direction applies H0 once; the public kernels, on the 2-D grid, are the
reference the tests hold it to.

It iterates on the inside nodes of a window, an index box that only grows;
the whole box, the ``index_box`` of the inside nodes, is the window over
all of them. The node and cell arrays live on the row-major box of the
window's nodes, collar included (``_Stiffness``), so the cell differences
and the stiffness scatter are contiguous 1-D slices, not strided 2-D
views, and they scale with the window, not with the grid. At p > 2 a solve
starts on its starting field's support box, _MARGIN nodes wider, unless
that leaves out at most a share _FRINGE of the nodes. A node that has
never been nonzero and whose cell neighbours are 0 has df = 0, zero rows
in the L-BFGS memory and pg = 0 on its cells, so the direction is 0 there
and it stays exactly 0; the window grows whenever an accepted step leaves
the iterate nonzero on its two outer rows or columns, so every node
outside it is such a node, and the result is the whole box's up to the
order of floating-point sums. As p grows the eigenfunctions concentrate
and ``_power`` flushes their tails to 0: the 64 x 64 boundary strip's
certified fields are 0 on 81 % of the inside nodes, and its windows hold
12-31 % of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import mul
from types import SimpleNamespace

import numpy as np

from .errors import NoNegativeRegionError, SeedMassError
from .geometry import cone_field, lambda1_limit, r_plus, two_cone_field
from .grid import DistanceField, ScalarField, edt, index_box
from .weight import WeightField, negate

_MEMORY = 10    # L-BFGS curvature pairs kept
_ARMIJO = 1e-4  # sufficient-decrease constant of the line search
_CURV = np.finfo(float).eps  # a pair is kept when s.y > _CURV |s| |y|
_EPS_D = 1e-3   # floor of the stiffness diagonal, relative to its max
_CHEB = 0.4     # H0 = D - _CHEB D A D: the degree-1 Chebyshev polynomial
                # in D A for a Jacobi-scaled spectrum on [1/2, 2]
# the two-grid cycle's smoother _SCALE (D - _SMOOTH D A D): the polynomial in
# D A whose residual is the degree-2 Chebyshev polynomial on [_LO, 2], at most
# 0.778 there
_LO = 1 / 15
_SMOOTH = 1 / (2 + _LO)
_SCALE = 8 * (2 + _LO) / (4 + 12 * _LO + _LO * _LO)
_COARSE = 8     # node spacing of H0's coarse grid, in fine nodes
_REFRESH = 15   # most accepted iterations between builds of the coarse factor
_FRINGE = 0.1   # largest share of a coarse hat's weight on floored nodes
_SHRINK = 0.8   # seed-cone radius factor per try until its mass is positive
_MARGIN = 4     # nodes between the support's box and a solve window's edge
_TINY = np.finfo(float).tiny  # smallest normal double


@dataclass(frozen=True)
class SolverOpts:
    tol: float = 1e-4  # relative KKT residual that certifies convergence
    max_iter: int = 20000


@dataclass(frozen=True)
class EigenResult:
    p: float
    lambda_root: float  # lambda^(1/p), from log lambda
    field: ScalarField
    iterations: int
    final_step: float
    residual: float  # relative KKT residual at the returned field
    stop: str  # "tol", "max_iter", "line_search" or "nonfinite"

    @property
    def converged(self) -> bool:  # the KKT residual reached the tolerance
        return self.stop == "tol"


def _check_p(p: float) -> None:
    """p >= 2 and finite; log space keeps every finite p's powers finite."""
    if not (2 <= p < math.inf):
        raise ValueError(f"p must be finite and >= 2, got {p}")


def _cell_gradients(u: np.ndarray, h: float):
    ux = (u[1:, :-1] - u[:-1, :-1]) / h
    uy = (u[:-1, 1:] - u[:-1, :-1]) / h
    return ux, uy


@lru_cache
def _underflow_cut(e: float) -> float:
    """Largest base whose e-th power (numpy's pow) is below _TINY."""
    b = np.array([_TINY ** (1 / e)])
    while b ** e >= _TINY:
        b = np.nextafter(b, 0.0)
    while np.nextafter(b, 1.0) ** e < _TINY:
        b = np.nextafter(b, 1.0)
    return float(b[0])


def _power(a: np.ndarray, e: float) -> np.ndarray:
    """a ** e for a >= 0, with every power below the smallest normal double
    flushed to exactly 0, zero bases included. numpy's pow is several times
    slower on zero bases and on underflowing results, and at large p most
    bases are one or the other; a flushed term is below the last bit of any
    sum it enters. For e <= 1 no normal base underflows, so it is plain
    a ** e and 0 ** 0 = 1."""
    if e > 1:
        keep = a > _underflow_cut(e)
        if not keep.all():
            return np.power(a, e, out=np.zeros_like(a), where=keep)
    return a ** e


def _log_power_sum(a: np.ndarray, coef, p: float, h: float):
    """(value, log) of h^2 * sum(coef * a^p) for a >= 0 (coef None means 1),
    by max rescaling of a and of |coef|, so the log stays finite when the
    value over- or underflows, whatever the scale of either; log is None
    when the sum is zero or negative. The value is +-inf once the log of its
    magnitude reaches 700, whatever its sign."""
    M = a.max()
    K = 1.0 if coef is None else np.abs(coef).max()
    if M == 0.0 or K == 0.0:
        return 0.0, None
    r = _power(a / M, p)
    s = float(np.sum(r if coef is None else (coef / K) * r))
    if s == 0.0:
        return 0.0, None
    log = 2 * math.log(h) + p * math.log(M) + math.log(abs(s)) + math.log(K)
    value = math.exp(log) if log < 700 else math.inf
    return (value, log) if s > 0.0 else (-value, None)


def _power_grad(u: np.ndarray, coef, p: float, h: float) -> np.ndarray:
    """Gradient of h^2 * sum(coef * |u|^p) with respect to nodal values."""
    return h * h * p * coef * _power(np.abs(u), p - 1) * np.sign(u)


def dirichlet_energy_p(u: ScalarField, p: float, C: ScalarField | None = None
                       ) -> tuple[float, float]:
    """p-Dirichlet energy (plus optional zero-order term with C > 0), and its
    log.

    The log is computed with max-rescaled summation so it stays finite even
    when the plain value overflows.
    """
    _check_p(p)
    h = u.grid.h
    ux, uy = _cell_gradients(u.u, h)
    grad_val, grad_log = _log_power_sum(np.sqrt(ux * ux + uy * uy), None, p, h)
    if grad_log is None:
        grad_log = -math.inf
    if C is None:
        return grad_val, grad_log
    c_val, c_log = _log_power_sum(np.abs(u.u), C.u, p, h)
    if c_log is None:
        if c_val != 0.0:
            raise ValueError("zero-order coefficient must be positive")
        return grad_val, grad_log
    total_log = np.logaddexp(grad_log, c_log)
    total_val = math.exp(total_log) if total_log < 700 else math.inf
    return total_val, float(total_log)


def dirichlet_energy_grad(u: ScalarField, p: float,
                          C: ScalarField | None = None) -> np.ndarray:
    """Analytic gradient of the p-Dirichlet energy with respect to nodal values."""
    _check_p(p)
    h = u.grid.h
    ux, uy = _cell_gradients(u.u, h)
    g = ux * ux + uy * uy
    P = p * _power(g, p / 2 - 1)
    Sx = h * P * ux  # = h^2 * P * ux * (1/h)
    Sy = h * P * uy
    out = np.zeros_like(u.u)
    out[:-1, :-1] -= Sx + Sy
    out[1:, :-1] += Sx
    out[:-1, 1:] += Sy
    if C is not None:
        out += _power_grad(u.u, C.u, p, h)
    return out


def weighted_mass_p(u: ScalarField, w: WeightField, p: float) -> float:
    """Nodal quadrature of m |u|^p, negative or zero for some sign-changing
    weights. The plain mass underflows to 0.0 for positive masses on small
    geometries at large p; `rayleigh_root` is the log-safe quantity."""
    _check_p(p)
    return _log_power_sum(np.abs(u.u), w.m, p, u.grid.h)[0]


def weighted_mass_grad(u: ScalarField, w: WeightField, p: float) -> np.ndarray:
    _check_p(p)
    return _power_grad(u.u, w.m, p, u.grid.h)


def rayleigh_root(u: ScalarField, w: WeightField, p: float,
                  C: ScalarField | None = None) -> float:
    """(E(u) / G(u))^(1/p) from the logs of both sums, so the quotient's
    zero homogeneity survives over- and underflow of either; inf only when
    the weighted mass is not positive."""
    _check_p(p)
    _, logG = _log_power_sum(np.abs(u.u), w.m, p, w.grid.h)
    if logG is None:
        return math.inf
    return math.exp((dirichlet_energy_p(u, p, C)[1] - logG) / p)


def seed_cone(w: WeightField, p: float,
              dist: DistanceField | None = None) -> ScalarField:
    """Cone at the inscribed-ball argmax of the plus set, radius shrunk until
    its weighted p-mass is positive."""
    if dist is None:
        dist = edt(w.mask)
    radius, center = r_plus(dist, w.plus)
    h = w.grid.h
    while radius >= 0.5 * h:
        u = cone_field(center, radius, w.grid)
        uu = np.where(w.mask.inside, u.u, 0.0)
        if _log_power_sum(np.abs(uu), w.m, p, h)[1] is not None:
            return ScalarField(w.grid, uu)
        radius *= _SHRINK
    raise SeedMassError("cannot seed positive mass")


def _hats(n: int) -> np.ndarray:
    """n x nc values of the 1-D bilinear hats of coarse nodes 0, f, 2f, ...
    (f = _COARSE, the last at or past n - 1) on nodes 0 .. n - 1."""
    nc = -(-(n - 1) // _COARSE) + 1
    return np.maximum(
        1.0 - np.abs(np.arange(n)[:, None] / _COARSE - np.arange(nc)), 0.0)


def _inverse_factor(Ac: np.ndarray, active: np.ndarray) -> np.ndarray:
    """W = L^-1 for the Cholesky factor L of the block-tridiagonal matrix
    on the ``active`` nodes (sorted) of a coarse grid numbered row-major,
    its rows of ncy nodes the blocks: Ac[I, d] is the ncy x ncy block
    between coarse rows I and I + d - 1 over all nodes, of which d = 0, 1
    are read. W's columns run over every node, zero off the active ones.
    Block by block (Golub & Van Loan, Matrix Computations, 4.5), with C
    the sub-diagonal block of L: C = A_{k,k-1} W_{k-1,k-1}^T, W_kk =
    cholesky(A_kk - C C^T)^-1 and W's rows W_k = -W_kk C W_{k-1} off
    the diagonal block; a coarse row with no active node is an empty
    block, which cuts the coupling. Runs in Ac's precision; raises
    LinAlgError when a Schur complement is not positive definite."""
    ncx, _, ncy, _ = Ac.shape
    # block I is active[ends[I + 1]:ends[I + 2]], on coarse row I
    ends = np.searchsorted(active, np.arange(-1, ncx + 1) * ncy).tolist()
    cols = active % ncy
    W = np.zeros((active.size, ncx * ncy), Ac.dtype)
    Wkk = W[:0, :0]
    for I in range(ncx):
        a, b, c = ends[I:I + 3]
        J = cols[b:c, None]
        C = Ac[I, 0][J, cols[a:b]] @ Wkk.T
        Wkk = np.linalg.inv(np.linalg.cholesky(Ac[I, 1][J, J.T] - C @ C.T))
        W[b:c] = -(Wkk @ C) @ W[a:b]
        W[b:c, active[b:c]] = Wkk
    return W


def _hat_pairs(hats: np.ndarray):
    """(pairs, Q, Dq) for the 1-D hat matrix h: the pairs k = (I, I') of
    overlapping hats, |I - I'| <= 1, with Q[i, k] = h[i, I] h[i, I'] and
    Dq[i, k] = h[i + 1, I] h[i, I'] + h[i, I] h[i + 1, I'] for the first
    n - 1 nodes."""
    nc = hats.shape[1]
    pairs = np.array([(I, I + d) for I in range(nc) for d in (-1, 0, 1)
                      if 0 <= I + d < nc])
    a, b = hats[:, pairs[:, 0]], hats[:, pairs[:, 1]]
    return pairs, a * b, a[1:] * b[:-1] + a[:-1] * b[1:]


def _window(inside: np.ndarray, support: np.ndarray, whole, total, box=None):
    """Half-open index box (r0, r1, c0, c1) of a solve's window: the box of
    the nonempty grid mask ``support`` widened by _MARGIN nodes, united
    with ``box`` and clipped to ``whole``, the ``index_box`` of the
    ``total`` inside nodes, which it is unless more than a share _FRINGE
    of them lies outside it: a window holding all but at most that share
    saves little work, and only the whole box gets a coarse factor."""
    r0, r1, c0, c1 = index_box(support)
    r0, r1, c0, c1 = r0 - _MARGIN, r1 + _MARGIN, c0 - _MARGIN, c1 + _MARGIN
    if box is not None:
        r0, r1 = min(r0, box[0]), max(r1, box[1])
        c0, c1 = min(c0, box[2]), max(c1, box[3])
    r0, r1 = max(r0, whole[0]), min(r1, whole[1])
    c0, c1 = max(c0, whole[2]), min(c1, whole[3])
    outside = total - np.count_nonzero(inside[r0:r1, c0:c1])
    return (r0, r1, c0, c1) if outside / total > _FRINGE else whole


class _Stiffness:
    """The lagged-diffusivity cell stiffness A(u) on the node set ``inside``
    (a solve window's) and the L-BFGS initial Hessian built on it: the
    symmetric two-grid cycle
    x = S q, x += P Ac^-1 P^T (q - A x), x += S (q - A x), with the smoother
    S = _SCALE (D - _SMOOTH D A D) (``smooth``) and Ac = P^T Abar P, while a
    coarse factor exists, else the one-level step D - _CHEB D A D: the same
    polynomial on [1/2, 2], _CHEB = 1 / (1/2 + 2), its scale left to gamma.
    As an operator the cycle is
    H0 = 2 S - S A S + (I - S A) P Ac^-1 P^T (I - A S).

    A's quadratic form is v . A v = sum over cells of pg ((dx v)^2 +
    (dy v)^2), with dx, dy the differences from each cell's base corner and
    v zero outside, and D = 1 / diag A floored at _EPS_D of its max. By
    Gershgorin the spectrum of D A lies in [0, 2]. S is p(D A) D with
    p(x) = _SCALE (1 - _SMOOTH x), so on all inside nodes 2 S - S A S >=
    min over x in [0, 2] of p(x) (2 - x p(x)) D = 0.197 D, at x = 2, and the
    one-level step is >= (1 - 2 _CHEB) D = 0.2 D; the coarse term is
    positive semidefinite, so H0 is positive definite either way. The
    smoothing steps cannot remove the h^-2 spread of A; the coarse solve
    does (two-grid method, Xu, SIAM Review 1992). Nor can the coarse space
    reach the middle of D A's spectrum, which S damps by at most 0.778 on
    [_LO, 2] for one stiffness product (polynomial smoothing, Adams,
    Brezina, Hu & Tuminaro, J. Comput. Phys. 188, 2003).

    The coarse nodes lie _COARSE fine nodes apart, anchored at the collar
    row and column before the first inside node, and are numbered
    row-major over the box. P is never stored: on the box the bilinear
    prolongation is the tensor product of the 1-D hat matrices px and py,
    so P^T v = px^T V py and P z = px Z py^T at the inside nodes. Abar is
    A with its diagonal floored as D floors it, which keeps Ac definite
    where large p flushes pg to 0. P's columns are the hats of the active
    coarse nodes: those whose hat covers inside nodes, at most a share
    _FRINGE of its weight on floored ones, where A is nearly flat and the
    coarse solve of a far-reaching hat amplifies the correction by up to
    1 / _EPS_D. Each ``update`` assembles Ac in three matrix products
    (``_coarsen``) and keeps it as W = L^-1 of its Cholesky factor L, so
    Ac^-1 = W^T W. Ac is block-tridiagonal in the coarse rows, and W is
    built block by block over them (``_inverse_factor``); its columns run
    over every coarse node of the box, zero off the active ones; ``lag``
    moves A and D and keeps W. The solver calls ``update`` only on the
    whole box: at every gradient that finds no factor, and when the factor
    is 3, 7 or a multiple of ``_REFRESH`` accepted iterations old. No
    factor is built while more than a share _FRINGE of the nodes is
    floored (92-99 % on the boundary strip, whose one or two active hats
    cost the cycle iterations), with no active node, or when the
    factorization fails. ``h0_quad`` is the additive two-level form
    y . (D - _CHEB D A D) y + |W P^T y|^2, which scales H0 in the two-loop
    recursion.

    The cycle and ``h0_quad`` with a factor run in float32 on float32
    input: Ac is assembled in float64, then factored and inverted in
    float32, and there is no float64 W; ``lag`` keeps float32 copies of pg
    and D (``_narrow``) while a factor exists, ``smooth`` runs on them, and
    the cycle's differences, products and restriction take ``single`` and
    then use ``f32``: float32 operands under the float64 ones' names (box
    and scatter buffers, hats, pg and D), made with the first factor. The
    one-level step, ``matvec`` for the gradient and D for the solver's
    restart are float64.

    Every cell array lives on the ``index_box`` of the nodes, collar row
    and column included, in row-major order: with bx x by box nodes there are
    L = (bx - 1) by cells, cell k based at box node k with its +x corner
    at k + by and its +y corner at k + 1. The differences and the scatter
    are then contiguous 1-D slices, and every array scales with the box,
    not with the grid. The box holds every cell with an inside corner; the
    cells based in its last column wrap into the next row, but the box's
    first and last columns are collar, so their differences are 0 and
    they scatter only to outside nodes, which the gather drops. The box
    and scatter buffers are reused."""

    def __init__(self, inside: np.ndarray):
        r0, r1, c0, c1 = index_box(inside)
        # a contiguous copy, so that its ravel() in the gather is a view
        self.box_inside = inside[r0 - 1:r1 + 1, c0 - 1:c1 + 1].copy()
        bx, by = self.box_inside.shape
        self.by, self.L = by, (bx - 1) * by
        self.box = np.zeros((bx, by))  # zero outside the inside nodes
        self.cells = np.zeros(bx * by)  # scatter buffer
        self.pg = self.D = self.W = None
        self.f32 = None  # the cycle's float32 operands, from the first factor
        # edges with both ends inside, by their base node
        self.x_edges = self.box_inside[:-1] & self.box_inside[1:]
        self.y_edges = self.box_inside[:-1, :-1] & self.box_inside[:-1, 1:]
        self.px, self.py = _hats(bx), _hats(by)
        self.weight = self.restrict(1.0)
        # Ac[I, I' - I + 1, J, J'] = Ax[(I, I'), (J, J')] over the pairs of
        # overlapping 1-D hats, |I - I'| <= 1 and |J - J'| <= 1: the blocks
        # of ``_inverse_factor`` between coarse rows I and I'
        xpairs, self.qx, self.dx = _hat_pairs(self.px)
        ypairs, self.qy, self.dy = _hat_pairs(self.py)
        self.entries = (xpairs[:, :1], xpairs[:, 1:] - xpairs[:, :1] + 1,
                        ypairs[:, 0], ypairs[:, 1])

    def update(self, pg: np.ndarray) -> None:
        """``lag`` to pg, then rebuild the coarse factor. The old factor
        goes first, so at most two coarse matrices are alive at once."""
        self.W = None
        diag, floored = self.lag(pg)
        self._coarsen(floored, floored > diag)
        if self.W is not None:
            self._narrow()

    def lag(self, pg: np.ndarray):
        """Move A to the cell diffusivity pg and D to its floored diagonal,
        with their float32 copies while a factor exists; returns the
        diagonal and the floored diagonal."""
        self.pg = pg
        # 2 pg of the node's own cell plus pg of its -x and -y cells
        diag = self._spread(2.0 * pg, pg, pg)
        floored = np.maximum(diag, _EPS_D * diag.max())
        self.D = 1.0 / floored
        if self.W is not None:
            self._narrow()
        return diag, floored

    def _narrow(self) -> None:
        """The cycle's float32 pg and D."""
        f32 = self.f32
        f32.pg = self.pg.astype(np.float32)
        f32.D = self.D.astype(np.float32)

    def _coarsen(self, floored: np.ndarray, lifted: np.ndarray) -> None:
        """Build W from Ac on the active coarse nodes, those whose hat
        covers inside nodes with at most a share _FRINGE of its weight on
        ``lifted`` ones. Abar's diagonal is ``floored`` and its
        off-diagonal -pg on each edge with both ends inside, so with
        Qx[i, (I, I')] = px[i, I] px[i, I'] and Dx[i, (I, I')] =
        px[i + 1, I] px[i, I'] + px[i, I] px[i + 1, I'] (and Qy, Dy from
        py), the entry of P^T Abar P between hats (I, J) and (I', J') is
        Ax[(I, I'), (J, J')] with Ax = Qx^T F Qy - Dx^T Ex Qy - Qx^T Ey Dy,
        where F is the floored diagonal and Ex, Ey are pg on the x and y
        edges, all on the box. Ac is assembled in float64 by coarse rows,
        then factored and inverted in float32, the precision of the cycle,
        its only reader; a Schur complement that is not positive definite
        leaves no factor."""
        if np.count_nonzero(lifted) / lifted.size > _FRINGE:
            return
        active = np.flatnonzero((self.weight > 0.0) & (
            self.restrict(lifted.astype(float)) <= _FRINGE * self.weight))
        if not active.size:
            return
        Ac = np.zeros((self.px.shape[1], 3, self.py.shape[1],
                       self.py.shape[1]), np.float32)
        Ac[self.entries] = self._galerkin(floored)
        try:
            self.W = _inverse_factor(Ac, active)
        except np.linalg.LinAlgError:
            return
        if self.f32 is None:  # box and scatter buffers and hats
            self.f32 = SimpleNamespace(
                box=np.zeros(self.box.shape, np.float32),
                cells=np.zeros(self.cells.shape, np.float32),
                px=self.px.astype(np.float32), py=self.py.astype(np.float32))

    def _galerkin(self, floored: np.ndarray) -> np.ndarray:
        """Ax of ``_coarsen``, in a call of its own so that its box-sized
        temporaries are freed before Ac is allocated."""
        pg = self.pg.reshape(self.x_edges.shape)
        ex = np.where(self.x_edges, pg, 0.0)
        ey = np.where(self.y_edges, pg[:, :-1], 0.0)
        self.box[self.box_inside] = floored
        return ((self.qx.T @ self.box - self.dx.T @ ex) @ self.qy
                - (self.qx[:-1].T @ ey) @ self.dy)

    def restrict(self, v, single: bool = False) -> np.ndarray:
        """P^T v on every coarse node, row-major, on ``f32`` if ``single``."""
        ops = self.f32 if single else self
        ops.box[self.box_inside] = v
        return (ops.px.T @ ops.box @ ops.py).ravel()

    def _spread(self, base, sx, sy, single: bool = False) -> np.ndarray:
        """Inside values of the nodal sums of the cell terms: base at each
        cell's base corner, sx at its +x and sy at its +y corner."""
        cells, L = (self.f32 if single else self).cells, self.L
        cells[:L] = base
        cells[L:] = 0.0
        cells[self.by:] += sx
        cells[1:L + 1] += sy
        return cells[self.box_inside.ravel()]

    def matvec(self, vx: np.ndarray, vy: np.ndarray,
               single: bool = False) -> np.ndarray:
        """A v on the inside nodes from the cell differences vx, vy of v."""
        pg = (self.f32 if single else self).pg
        sx, sy = pg * vx, pg * vy
        return self._spread(-(sx + sy), sx, sy, single)

    def differences(self, v: np.ndarray, single: bool = False):
        """Cell differences (dx v, dy v) of the inside values v."""
        box = (self.f32 if single else self).box
        box[self.box_inside] = v
        nodes, L = box.ravel(), self.L
        return nodes[self.by:] - nodes[:L], nodes[1:L + 1] - nodes[:L]

    def smooth(self, q: np.ndarray) -> np.ndarray:
        """S q, the cycle's smoothing step on ``f32``: _SCALE (v - (_SMOOTH
        D) A v) with v = D q, the one-level step's form."""
        D = self.f32.D
        v = D * q
        return _SCALE * (v - (_SMOOTH * D) * self.matvec(
            *self.differences(v, single=True), single=True))

    def h0(self, q: np.ndarray) -> np.ndarray:
        """H0 q: the two-grid cycle in float32 with a coarse factor, else
        one step in float64; q comes in that precision."""
        if self.W is None:
            v = self.D * q
            return v - (_CHEB * self.D) * self.matvec(*self.differences(v))
        x = self.smooth(q)
        r = q - self.matvec(*self.differences(x, single=True), single=True)
        z = ((self.W @ self.restrict(r, single=True)) @ self.W).reshape(
            self.px.shape[1], -1)
        x += (self.f32.px @ z @ self.f32.py.T)[self.box_inside]
        x += self.smooth(q - self.matvec(*self.differences(x, single=True),
                                         single=True))
        return x

    def h0_quad(self, y: np.ndarray) -> float:
        """y . (D - _CHEB D A D) y + |W P^T y|^2, no scatter: the additive
        two-level form, whose ratio to s . y scales H0; in float32 with a
        coarse factor, as ``h0``."""
        single = self.W is not None
        ops = self.f32 if single else self
        v = ops.D * y
        vx, vy = self.differences(v, single)
        quad = float(y @ v) - _CHEB * float(np.vdot(ops.pg, vx * vx + vy * vy))
        if single:
            wy = self.W @ self.restrict(y, single)
            quad += float(wy @ wy)
        return quad


def _pow2(v: float) -> float:
    """The least power of two above v > 0 (1 for 0, inf or nan), capped at
    2^1023: dividing by it is exact."""
    return math.ldexp(1.0, min(math.frexp(v)[1], 1023))


class _Memory:
    """The last ``_MEMORY`` curvature pairs (s, y), as rows of S and Y, with
    their Gram matrix SY[i, j] = s_i . y_j, so that both loops of the
    two-loop recursion run on m x m scalars around one application of the
    initial Hessian. ``order`` lists the live slots oldest first; the
    other rows hold zeros or old pairs and get zero coefficients.

    The rows are in H0's precision: float32 if ``single``, as while the
    stiffness holds a coarse factor, else float64. In float32 they are
    s / sigma and y / tau in the units of their generation (the pairs
    pushed since the memory was last empty), sigma and tau the least
    powers of two above max |s| and max |y| of its first pair, so no row
    over- or underflows whatever the weight's scale, and SY, kept in
    float64 with every loop scalar, is the rows' Gram matrix. The
    precision never changes under live pairs: when the stiffness has
    gained or lost its factor, ``direction`` empties the memory into H0's
    new precision first."""

    def __init__(self, n: int, single: bool):
        dtype = np.float32 if single else np.float64
        self.S = np.zeros((_MEMORY, n), dtype)
        self.Y = np.zeros((_MEMORY, n), dtype)
        self.SY = np.zeros((_MEMORY, _MEMORY))
        self.order = []
        self.single = single
        self.units = (1.0, 1.0)  # (sigma, tau) of the float32 rows

    def __len__(self) -> int:
        return len(self.order)

    def clear(self) -> None:
        self.order.clear()

    def embed(self, pos: np.ndarray, n: int) -> None:
        """Move the pairs onto n nodes, old node i to node pos[i], with zeros
        on the others, which leaves SY as it is. One of S and Y is moved at
        a time, so the old one is freed before the next new one exists."""
        for name in ("S", "Y"):
            rows = np.zeros((_MEMORY, n))
            rows[:, pos] = getattr(self, name)
            setattr(self, name, rows)

    def push(self, s: np.ndarray, y: np.ndarray, sy: float) -> None:
        """Store a pair of finite vectors with s . y = sy, replacing the
        oldest when full; the first of a float32 generation sets its units.
        In float32 the Gram diagonal is sy, as a float32 dot cannot resolve
        a small s . y."""
        if self.single:
            if not self.order:
                self.units = (_pow2(np.abs(s).max()), _pow2(np.abs(y).max()))
            sigma, tau = self.units
            s, y = s * (1.0 / sigma), y * (1.0 / tau)
        slot = self.order.pop(0) if len(self.order) == _MEMORY else len(self.order)
        self.S[slot], self.Y[slot] = s, y
        self.SY[slot, :] = self.Y @ self.S[slot]
        self.SY[:, slot] = self.S @ self.Y[slot]
        if self.single:
            self.SY[slot, slot] = sy / (sigma * tau)
        self.order.append(slot)

    def direction(self, g: np.ndarray, stiff: _Stiffness) -> np.ndarray:
        """-H g by the two-loop recursion over the stored pairs with the
        initial Hessian gamma H0 of ``stiff``. Pairs with s . y <= 0 are
        skipped, and gamma = s . y / ``h0_quad(y)`` of the newest kept pair.
        In float32 it runs on g / tau and returns sigma times the result, in
        float64: the recursion commutes with a power of two common to all
        pairs. When the stiffness has gained or lost its factor since the
        last call, the memory restarts empty in H0's new precision, with
        sigma = tau the least power of two above max |g|, and the direction
        is -H0 g."""
        if (stiff.W is not None) != self.single:
            self.__init__(self.S.shape[1], stiff.W is not None)
            self.units = (_pow2(np.abs(g).max()),) * 2
        dtype = self.S.dtype
        if self.single:
            sigma, tau = self.units
            g = (g * (1.0 / tau)).astype(dtype)
        sg = (self.S @ g).tolist()
        sy, ys = self.SY.tolist(), self.SY.T.tolist()
        hist = [i for i in self.order if sy[i][i] > 0.0]
        # -d = r + c S with r = gamma H0 (g - a Y): a_i = s_i . q / s_i . y_i
        # newest first, then c_i = a_i - y_i . (r + c S) / s_i . y_i oldest
        # first, where q is the first loop's vector at that point
        a = [0.0] * _MEMORY
        for i in reversed(hist):
            a[i] = (sg[i] - sum(map(mul, a, sy[i]))) / sy[i][i]
        gamma = 1.0
        if hist:
            new = hist[-1]
            gamma = sy[new][new] / stiff.h0_quad(self.Y[new])
        r = stiff.h0(g - np.array(a, dtype) @ self.Y)
        r *= gamma
        yr = (self.Y @ r).tolist()
        c = [0.0] * _MEMORY
        for i in hist:
            c[i] = a[i] - (yr[i] + sum(map(mul, c, ys[i]))) / sy[i][i]
        d = r + np.array(c, dtype) @ self.S
        if not self.single:
            return -d
        d = d.astype(np.float64)
        d *= -sigma
        return d


def solve_lambda1(w: WeightField, p: float, C: ScalarField | None = None,
                  opts: SolverOpts | None = None,
                  dist: DistanceField | None = None,
                  u0: ScalarField | None = None,
                  callback=None) -> EigenResult:
    """Principal eigenpair by L-BFGS on f = log E - log G over nonnegative
    inside values, with a projected line search.

    The direction is the two-loop recursion on the inside nodes of the
    window (below), all of them at p = 2: the iterates stay nonnegative
    and df <= 0 wherever u = 0 (module docstring), so no bound constraint
    is active and no free set is kept.
    It runs on the Gram matrix of the stored pairs around one application
    of the initial Hessian gamma H0 (Nocedal-Wright 7.2, which allows any
    positive definite H0 at each step). H0 is the symmetric two-grid cycle
    of ``_Stiffness`` on A = A(u), the cell stiffness at the current
    iterate weighted by the lagged diffusivity |grad u|^(p-2): a Chebyshev
    smoothing step, a Galerkin coarse solve from a grid ``_COARSE`` times
    coarser, and a second smoothing step. The coarse factor is built only
    while the window is the whole box: at every gradient that finds none,
    and again when it is 3, 7 or a multiple of ``_REFRESH`` accepted
    iterations old, its age counted from the build that gained it, so a
    refresh that loses it restarts the count at the next build. A moves
    fastest at the start of a solve, most of all on a warm start after p
    changes, and the front-loaded builds take the ex1 sweep p = 4, 8, 16,
    32 at 96 x 96 from 146 iterations, at one build per ``_REFRESH``, to
    115; its p = 4 solve reaches the whole box after 3 steps and builds
    at 8, the gate rejecting its tries at 4 to 7. A windowed solve (below)
    holds no factor, and neither does the whole-box solve at the same
    iterations: more than a share _FRINGE of the inside nodes lie outside
    the window, where the iterate and pg are 0, so they are floored.
    The direction is reset to -D df, D = 1 / diag A floored at ``_EPS_D``
    of its max, when it is not a descent direction.
    The direction runs in float32 exactly while the stiffness holds a
    coarse factor, else in float64 (``_Memory``): only the whole box,
    with at most a share _FRINGE of its nodes floored, has one, so every
    window keeps float64, and so does ex1 at 96 x 96 from p = 256 on,
    where more of its nodes are floored. The memory is built in the
    precision of the stiffness after the first gradient; when a refresh
    gains or loses the factor, the next direction empties it into the new
    precision and is -H0 df, tried at step 1. The float32 units are powers
    of two the memory sets from its first pair after each restart
    (``_Memory``). The iterate, the sums, df, the line search and the KKT
    residual stay float64, so ``converged`` certifies what it did and the
    roots move only within the tolerance, by at most 4e-13 relative on ex1
    at 48 x 48 to 192 x 192 against the same direction in float64.
    The line search backtracks on the projected arc max(u + tau d, 0) and
    accepts only a strict Armijo decrease with positive weighted mass, so
    each accepted step (one iteration, one ``callback(loglam)``) strictly decreases
    lambda. Each trial is evaluated in one pass that keeps its powers, and
    the gradient at an accepted trial reuses them. ``converged`` certifies
    a stationary point, not the principal eigenvalue: the relative KKT
    residual max|dE - lam dG| / max|dE| over inside nodes is at most
    ``opts.tol``, and another seed may certify a lower root (``sweep``
    has an example). The residual equals the projected one, as df has no
    positive component where u = 0. ``stop`` says why the solve ended:
    "tol", "max_iter", "line_search" (no trial decreases lambda, the
    floating-point floor) or "nonfinite". A warm start ``u0`` enters as
    |u0|; without one, or when its weighted mass is not positive, the seed
    cone is used; a ``u0`` or ``C`` on another grid than ``w``'s is a
    ValueError, as is a p below 2 or not finite. The field is normalized to
    unit weighted p-mass, and ``lambda_root`` is exp(log lambda / p),
    finite where lambda overflows. m and C enter scaled to unit max over
    the inside nodes, with the logs of the scales in log G and log E, so
    lambda(c m) = lambda(m) / c at every c in the double range.

    The window is an index box; the whole box, ``index_box`` of the inside
    nodes, is the window over all of them and the one used at p = 2, where
    pg = 1 on cells with zero differences. At p > 2 the window starts as
    the starting field's support box widened by ``_MARGIN`` nodes
    (``_window``), and grows to the union with the new such box after each
    accepted step that leaves the iterate nonzero on its two outer rows or
    columns of a side strictly inside the whole box. The iterate, gradient
    and memory pairs are padded with zeros, which leaves their Gram matrix
    as it is, and the stiffness is rebuilt at the iterate. Once at most a
    share ``_FRINGE`` of the inside nodes would lie outside, the window is
    the whole box. Outside it the iterate, df, the memory pairs
    and pg stay exactly 0 (module docstring), so the field is the whole-box
    solve's up to the order of floating-point sums; on a solve as chaotic
    as the strip's, that order moves the iteration count and the 7th digit.
    """
    _check_p(p)
    for name, f in (("u0", u0), ("C", C)):
        if f is not None and f.grid != w.grid:
            raise ValueError(f"{name} grid {f.grid} is not the weight's grid "
                             f"{w.grid}")
    if C is not None and np.any(C.u[w.mask.inside] <= 0):
        raise ValueError("zero-order coefficient must be positive on inside nodes")
    opts = opts or SolverOpts()
    grid = w.grid
    inside = w.mask.inside
    total = np.count_nonzero(inside)
    whole = index_box(inside)  # the window over every inside node
    h = grid.h
    log_h = math.log(h)
    # the scales of m and C, so that no sum over- or underflows with them
    m_max = np.abs(w.m).max() or 1.0  # w.m is 0 outside
    c_max = 1.0 if C is None else np.abs(C.u[inside]).max()
    log_m, log_C = math.log(m_max), math.log(c_max)
    # the window's box, its inside nodes, the positions among them of those
    # on the two outer rows or columns of a side it can grow across, and
    # the arrays on its nodes; set by ``enter``
    box = nodes = rim = m = c_in = stiff = None

    def enter(new_box):
        """Move the solve onto the inside nodes of ``new_box``, with a
        stiffness built for them after the old one is freed."""
        nonlocal box, nodes, rim, m, c_in, stiff
        box = r0, r1, c0, c1 = new_box
        nodes = np.zeros_like(inside)
        nodes[r0:r1, c0:c1] = inside[r0:r1, c0:c1]
        # the box less two rows or columns on each side inside the whole box
        inner = np.zeros_like(inside)
        inner[r0 + 2 * (r0 > whole[0]):r1 - 2 * (r1 < whole[1]),
              c0 + 2 * (c0 > whole[2]):c1 - 2 * (c1 < whole[3])] = True
        rim = np.flatnonzero(~inner[nodes])
        m = w.m[nodes] / m_max
        c_in = None if C is None else C.u[nodes] / c_max
        stiff = None
        stiff = _Stiffness(nodes)

    def diffusivity(x):
        """(ux, uy, gn, gmax, pg) at x: the box cell differences (not
        divided by h), gmax = max(ux^2 + uy^2), gn = (ux^2 + uy^2) / gmax
        and the lagged diffusivity pg = gn^(p/2-1) of A(x)."""
        ux, uy = stiff.differences(x)
        gn = ux * ux + uy * uy
        gmax = gn.max()  # > 0: the outside collar is zero and max x > 0
        gn /= gmax
        return ux, uy, gn, gmax, _power(gn, p / 2 - 1)

    def evaluate(x):
        """One pass at x >= 0: (log lambda, log G, cache), or None when the
        weighted mass is not positive. With M = max x and t = x / M, the
        cache keeps t^(p-1) and the ``diffusivity`` arrays, from which the
        p-th powers of the sums are one product away."""
        M = x.max()
        if M == 0.0:
            return None
        t = x / M
        tp1 = _power(t, p - 1)
        r = tp1 * t
        sm = float(m @ r)
        if sm <= 0.0:
            return None
        ux, uy, gn, gmax, pg = diffusivity(x)
        log_M = math.log(M)
        log_g2max = math.log(gmax) - 2 * log_h  # log max |grad u|^2
        logG = 2 * log_h + p * log_M + math.log(sm) + log_m
        logE = 2 * log_h + p / 2 * log_g2max + math.log(float(np.vdot(pg, gn)))
        if C is not None:
            logE = float(np.logaddexp(logE, 2 * log_h + p * log_M
                                      + math.log(float(c_in @ r)) + log_C))
        return logE - logG, logG, (tp1, sm, ux, uy, pg, log_g2max)

    def gradient(x, loglam, logG, cache):
        """(df, relative KKT residual) at the accepted trial x from its
        cache, and ``stiff`` moved to x's pg. On the unit-mass
        rescaling uh = c u, f's gradient is c (dE - lam dG) / lam; dE's cell
        part is kg * A(x) x and the mass and C parts km * coef * t^(p-1),
        with kg and km in logs. Only the shape of A matters to H0, since the
        L-BFGS scaling gamma absorbs the constant."""
        nonlocal born
        tp1, sm, ux, uy, pg, log_g2max = cache
        log_c = -logG / p
        log_p = math.log(p)
        log_kg = log_p + log_c + (p / 2 - 1) * (2 * log_c + log_g2max)
        log_km = 2 * log_h + log_p - (p - 1) / p * (
            2 * log_h + math.log(sm) + log_m)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # everything below is divided by kg, which the KKT ratio ignores
            if box == whole and (stiff.W is None or it - born in (3, 7)
                                 or (it - born) % _REFRESH == 0):
                if stiff.W is None:
                    born = it
                stiff.update(pg)
            else:
                stiff.lag(pg)
            gE = stiff.matvec(ux, uy)
            if C is not None:
                gE += (np.exp(log_km - log_kg + log_C) * c_in) * tp1
            r = gE - (np.exp(log_km - log_kg + loglam + log_m) * m) * tp1
            kkt = np.abs(r).max()
            r *= np.exp(log_kg + log_c - loglam)
            return r, float(kkt / np.abs(gE).max())

    def line_search(x, g, d, loglam, tau):
        """(x, evaluation, tau) at the first of tau, tau/2, ... on the
        projected arc with positive mass and a strict Armijo decrease, or
        None."""
        for _ in range(60):
            xt = np.maximum(x + tau * d, 0.0)
            ev = evaluate(xt)
            if ev is not None and ev[0] < loglam and (
                    ev[0] <= loglam + _ARMIJO * (g @ (xt - x))):
                return xt, ev, tau
            tau *= 0.5
        return None

    def start(u):
        """(x, evaluation) at the grid field u >= 0, zero outside, on the
        window of its support (the whole box at p = 2 or for u = 0)."""
        enter(_window(inside, u > 0, whole, total)
              if p > 2 and u.any() else whole)
        x = u[nodes]
        return x, evaluate(x)

    def grow(x, g):
        """(x, g) on the window grown over x's support, with the memory
        pairs moved and the stiffness rebuilt at x, with no coarse factor
        before the next gradient; every new node is 0 in all of them."""
        old = nodes
        u = np.zeros(inside.shape)
        u[nodes] = x
        enter(_window(inside, u > 0, whole, total, box))
        pos = np.flatnonzero(old[nodes])
        memory.embed(pos, m.size)
        moved = np.zeros((2, m.size))
        moved[:, pos] = x, g
        stiff.lag(diffusivity(moved[0])[4])
        return moved

    it = 0  # accepted iterations
    born = 0  # the iteration of the build that started the factor's age
    ev = None
    if u0 is not None:
        x, ev = start(np.where(inside, np.abs(u0.u), 0.0))
    if ev is None:
        x, ev = start(seed_cone(w, p, dist).u)
    loglam, logG, cache = ev
    g, kkt = gradient(x, loglam, logG, cache)
    del ev, cache  # a trial's powers are spent once its gradient is taken
    memory = _Memory(x.size, stiff.W is not None)
    tau = 0.0
    while True:
        if not (math.isfinite(kkt) and np.isfinite(g).all()):
            stop = "nonfinite"
            break
        if kkt <= opts.tol:
            stop = "tol"
            break
        if it >= opts.max_iter:
            stop = "max_iter"
            break
        step = None
        if memory:
            d = memory.direction(g, stiff)
            if g @ d < 0.0:
                step = line_search(x, g, d, loglam, 1.0)
        if step is None:
            # no memory, no descent direction or no decrease along it:
            # restart along -D df with a first step of 1% of max u
            memory.clear()
            d = -stiff.D * g
            step = line_search(x, g, d, loglam,
                               0.01 * x.max() / np.abs(d).max())
        if step is None:
            stop = "line_search"
            break
        it += 1
        xt, (loglam, logG, cache), tau = step
        if callback is not None:
            callback(loglam)
        gt, kkt = gradient(xt, loglam, logG, cache)
        del step, cache
        s, y = xt - x, gt - g
        sy = s @ y
        if sy > _CURV * math.sqrt(s @ s) * math.sqrt(y @ y):
            memory.push(s, y, float(sy))
        x, g = xt, gt
        if x[rim].any():
            x, g = grow(x, g)

    u = np.zeros(inside.shape)
    u[nodes] = x
    u *= math.exp(-logG / p)
    return EigenResult(p=p, lambda_root=math.exp(loglam / p),
                       field=ScalarField(grid, u), iterations=it,
                       final_step=tau, residual=kkt, stop=stop)


def mu1(w: WeightField, p: float, opts: SolverOpts | None = None,
        dist: DistanceField | None = None,
        u0: ScalarField | None = None) -> EigenResult:
    """First negative eigenvalue: minus the principal eigenvalue of the
    negated weight."""
    if not w.minus.any():
        raise NoNegativeRegionError("no negative region")
    res = solve_lambda1(negate(w), p, opts=opts, dist=dist, u0=u0)
    return replace(res, lambda_root=-res.lambda_root)


def two_cone_upper_bound(p: float, c1, c2, radius: float, w: WeightField,
                         dist: DistanceField | None = None) -> float:
    """p-th root of the supremum of the Rayleigh quotient over the two-cone
    family |alpha|^p + |beta|^p = 1, in closed form.

    Disjoint supports make both energy and mass affine in s = |alpha|^p, so
    the quotient is linear-fractional in s and its sup over [0, 1] is the
    larger single-cone quotient (s = 0 or 1). Returns inf when either cone
    has nonpositive weighted mass.
    """
    _check_p(p)
    # validates disjointness and containment
    two_cone_field(1.0, 1.0, c1, c2, radius, w.grid, dist)
    cones = (cone_field(c, radius, w.grid).u * w.mask.inside for c in (c1, c2))
    return max(rayleigh_root(ScalarField(w.grid, u), w, p) for u in cones)


def cone_rayleigh_root(w: WeightField, p: float,
                       dist: DistanceField | None = None,
                       C: ScalarField | None = None) -> float:
    """p-th root of the Rayleigh quotient of the admissible seed cone; a
    rigorous discrete upper bound on lambda_root."""
    return rayleigh_root(seed_cone(w, p, dist), w, p, C)


def sweep(w: WeightField, p_list, C: ScalarField | None = None,
          opts: SolverOpts | None = None,
          dist: DistanceField | None = None):
    """Warm-started principal-eigenvalue solves over strictly increasing p,
    the first from the seed cone. Returns (target, results, bounds): the
    geometric limit of the roots, the solver's result per p and that p's
    cone bound. Warm starts carry p far past 64: a doubling list certifies
    p = 16384 on ex1 at 96 x 96; a cold start at 48 x 48 hits "max_iter". As
    in ``solve_lambda1``, a converged result certifies a stationary point
    (relative KKT residual <= tol), not the principal eigenvalue: on the
    64 x 64 boundary strip (m = 1 for r > 0.8, else -1) with C = 1 and
    p = 16, 64, every solve stops on "tol", and this sweep certifies the
    roots 5.3793062 and 4.5140908, while the same sweep seeded with the
    distance transform of the plus set certifies 5.5157237 and 4.8428960."""
    p_list = [float(p) for p in p_list]
    if any(b <= a for a, b in zip(p_list, p_list[1:])):
        raise ValueError("p_list must be strictly increasing")
    if dist is None:
        dist = edt(w.mask)
    rp, _ = r_plus(dist, w.plus)
    results, bounds, prev = [], [], None
    for p in p_list:
        results.append(solve_lambda1(w, p, C=C, opts=opts, dist=dist, u0=prev))
        prev = results[-1].field
        bounds.append(cone_rayleigh_root(w, p, dist, C))
    return lambda1_limit(rp, zero_order=C is not None), results, bounds
