"""Pointwise residuals of the limit eigenvalue PDE on the sign-regime
partition of m*u.

Sign convention: inf_laplacian computes <D^2u grad u, grad u>, so the
residual expressions use -inf_laplacian directly. Nodes where centered
stencils straddle a ridge or an unresolved curvature spike are EXCLUDED;
viscosity residuals are only meaningful where a smooth test function could
touch the field.

Every label and residual reads only a node's 3x3 neighbourhood, so `check`
streams over row slabs: one pass for the whole-grid maxima behind its
thresholds, one for the labels and residuals of each slab widened by a halo
row. Its working set is a few slabs of SLAB_NODES nodes, not the dozen
full-grid arrays of the same computation done on the whole grid at once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .grid import ScalarField
from .weight import WeightField

POS, NEG, ZERO, EXCLUDED = 1, -1, 0, 9

# Fixed slope-jump threshold fraction for genuine ridges, and the
# h-dependent curvature guard constant (h^{2/3} scaling keeps the surviving
# stencil error at O(h); a fixed fraction stalls at O(sqrt(h)) near conical
# apexes).
KINK_FRACTION = 0.2
CURVATURE_GUARD = 0.5
DEFAULT_C_TOL = 4.0
# nodes per row slab of `check`; a slab is at least one row
SLAB_NODES = 2 ** 15


@dataclass(frozen=True)
class CheckOpts:
    kink_tol: float | None = None   # absolute slope-jump threshold; None = auto
    c_tol: float = DEFAULT_C_TOL    # regime tolerance is c_tol * h
    eps_regime: float | None = None  # |m u| threshold; None = auto


@dataclass(frozen=True)
class ViscosityReport:
    max_residual: dict
    counts: dict
    excluded: int
    tolerance: float
    passes: dict
    boundary_max: float

    def to_record(self) -> dict:
        return asdict(self)


def _stencils(u: np.ndarray, h: float):
    ux, uy, uxx, uyy, uxy = (np.zeros_like(u) for _ in range(5))
    ux[1:-1, :] = (u[2:, :] - u[:-2, :]) / (2 * h)
    uy[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2 * h)
    uxx[1:-1, :] = (u[2:, :] - 2 * u[1:-1, :] + u[:-2, :]) / h ** 2
    uyy[:, 1:-1] = (u[:, 2:] - 2 * u[:, 1:-1] + u[:, :-2]) / h ** 2
    uxy[1:-1, 1:-1] = (u[2:, 2:] - u[2:, :-2] - u[:-2, 2:] + u[:-2, :-2]) / (4 * h ** 2)
    return ux, uy, uxx, uyy, uxy


def _inf_lap(ux, uy, uxx, uyy, uxy) -> np.ndarray:
    out = ux * ux * uxx + 2 * ux * uy * uxy + uy * uy * uyy
    out[0, :] = out[-1, :] = 0.0
    out[:, 0] = out[:, -1] = 0.0
    return out


def inf_laplacian(u: ScalarField) -> ScalarField:
    """<D^2u grad u, grad u> by centered 3x3 stencils; zero on the index rim."""
    return ScalarField(u.grid, _inf_lap(*_stencils(u.u, u.grid.h)))


def erode(a: np.ndarray) -> np.ndarray:
    """3x3 binary erosion: a node stays set iff it and its 8 neighbours are
    set. Nodes beyond the array edge count as unset, so the rim clears."""
    out = np.zeros(a.shape, dtype=bool)
    m, n = a.shape
    core = out[1:-1, 1:-1]
    core[...] = True
    for di in range(3):
        for dj in range(3):
            core &= a[di:di + m - 2, dj:dj + n - 2]
    return out


def _kink_tol(lip, height, h: float):
    """The automatic slope-jump threshold from the field's Lipschitz bound
    and height; infinite for a flat field, which has no kinks."""
    if lip == 0.0:
        return np.inf
    scale = height / lip  # natural length of the field
    return min(KINK_FRACTION, CURVATURE_GUARD * (h / scale) ** (2 / 3)) * lip


def excluded_nodes(u: np.ndarray, h: float, kink_tol: float) -> np.ndarray:
    """Ridge/kink detector: one-sided first differences disagreeing by more
    than the caller's kink_tol in either axis mark the node as excluded."""
    m, n = u.shape
    # one zero-padded difference array per axis: the forward difference at
    # node i is dx[i + 1] and the backward one dx[i], zero past the rim
    dx = np.zeros((m + 1, n))
    dy = np.zeros((m, n + 1))
    np.subtract(u[1:, :], u[:-1, :], out=dx[1:-1, :])
    dx /= h
    np.subtract(u[:, 1:], u[:, :-1], out=dy[:, 1:-1])
    dy /= h
    return ((np.abs(dx[1:, :] - dx[:-1, :]) > kink_tol)
            | (np.abs(dy[:, 1:] - dy[:, :-1]) > kink_tol))


def _slabs(nx: int, ny: int):
    """Row ranges [r0, r1) of about SLAB_NODES nodes each, covering nx rows
    of ny nodes."""
    rows = max(1, SLAB_NODES // ny)
    for r0 in range(0, nx, rows):
        yield r0, min(r0 + rows, nx)


def _thresholds(u: np.ndarray, w: WeightField, h: float, opts: CheckOpts):
    """Pass 1: eps and the kink threshold from the whole-grid maxima of u
    zeroed outside the domain, and the largest |u| outside, slab by slab."""
    inside = w.mask.inside
    top = np.zeros(5)  # max |m u|, max |u|, max |x diff|, max |y diff|, boundary
    for r0, r1 in _slabs(*u.shape):
        # the slab zeroed outside, with the next row its x differences reach
        zs = np.where(inside[r0:r1 + 1], u[r0:r1 + 1], 0.0)
        us = zs[:r1 - r0]
        np.maximum(top, [np.abs(w.m[r0:r1] * us).max(),
                         np.abs(us).max(),
                         np.abs(np.diff(zs, axis=0)).max(initial=0.0),
                         np.abs(np.diff(us, axis=1)).max(),
                         np.abs(u[r0:r1][~inside[r0:r1]]).max(initial=0.0)],
                   out=top)
    mu_max, height, dx_max, dy_max, boundary_max = top
    eps = opts.eps_regime
    if eps is None:
        eps = 1e-12 * max(mu_max, 1.0)
    kink_tol = opts.kink_tol
    if kink_tol is None:
        # compared with excluded_nodes' quotients diff / h, whose max is
        # max |diff| / h as division by h > 0 rounds monotonically
        kink_tol = _kink_tol(max(dx_max / h, dy_max / h), height, h)
    return eps, kink_tol, float(boundary_max)


def _labels(u: np.ndarray, m: np.ndarray, inside: np.ndarray, h: float,
            eps: float, kink_tol: float) -> np.ndarray:
    """POS/NEG/ZERO/EXCLUDED on a block of rows, node by node from the
    block's own 3x3 neighbourhoods."""
    # centered 3x3 stencils are only meaningful where the full neighborhood
    # is inside; rim-adjacent nodes read Dirichlet-truncated values
    core = erode(inside)
    mu = m * u
    labels = np.full(u.shape, EXCLUDED, dtype=int)
    labels[core & (mu > eps)] = POS
    labels[core & (mu < -eps)] = NEG
    labels[core & erode(np.abs(mu) <= eps)] = ZERO
    labels[excluded_nodes(u, h, kink_tol)] = EXCLUDED
    labels[~core] = EXCLUDED
    return labels


def regime_labels(u: ScalarField, w: WeightField,
                  opts: CheckOpts | None = None) -> np.ndarray:
    """Per-node labels over the inside set: POS/NEG/ZERO/EXCLUDED.

    ZERO requires the node and its full 8-neighborhood to have |m u| under
    the threshold (interior-of-set approximation); borderline nodes that
    fail that test are excluded, as are ridge nodes. Only inside values of
    u are read: the labels are those of u zeroed outside.
    """
    opts = opts or CheckOpts()
    h = u.grid.h
    eps, kink_tol, _ = _thresholds(u.u, w, h, opts)
    return _labels(u.u, w.m, w.mask.inside, h, eps, kink_tol)


def check(u: ScalarField, lam: float, w: WeightField,
          opts: CheckOpts | None = None) -> ViscosityReport:
    """Sup of the applicable residual per regime, against tolerance c_tol*h.

    POS:  |min(-D_inf u, |grad u| - lam*u)|
    NEG:  |max(-D_inf u, -|grad u| - lam*u)|
    ZERO: |D_inf u|

    Two passes over row slabs of about SLAB_NODES nodes. Pass 1 takes the
    whole-grid maxima behind the thresholds; pass 2 labels each slab and
    takes its residuals with one halo row on each side, so every kept row
    sees its true neighbours, and adds up the counts and maxima. The report
    is that of the whole-grid computation bit for bit; the working set is
    a few slabs instead of a dozen full grids.
    Thresholds, labels and residuals read u only inside the domain, as for
    u zeroed outside; `boundary_max`, the largest |u| outside, only there.
    """
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    opts = opts or CheckOpts()
    h = u.grid.h
    inside = w.mask.inside
    eps, kink_tol, boundary_max = _thresholds(u.u, w, h, opts)
    nx = u.u.shape[0]
    counts = {"pos": 0, "neg": 0, "zero": 0}
    max_residual = {"pos": 0.0, "neg": 0.0, "zero": 0.0}
    excluded = 0
    for r0, r1 in _slabs(*u.u.shape):
        a, b = max(r0 - 1, 0), min(r1 + 1, nx)  # the slab and its halo
        keep = slice(r0 - a, r1 - a)
        us = u.u[a:b]
        labels = _labels(us, w.m[a:b], inside[a:b], h, eps, kink_tol)[keep]
        ux, uy, *second = _stencils(us, h)
        dinf = _inf_lap(ux, uy, *second)[keep]
        gn = np.hypot(ux[keep], uy[keep])
        lu = lam * us[keep]
        for name, lab, res in (("pos", POS, np.abs(np.minimum(-dinf, gn - lu))),
                               ("neg", NEG, np.abs(np.maximum(-dinf, -gn - lu))),
                               ("zero", ZERO, np.abs(dinf))):
            sel = labels == lab
            counts[name] += int(np.count_nonzero(sel))
            # np.maximum, unlike max(), keeps a nan on either side
            max_residual[name] = float(np.maximum(max_residual[name],
                                                  res[sel].max(initial=0.0)))
        excluded += int(np.count_nonzero((labels == EXCLUDED) & inside[r0:r1]))
    tol = opts.c_tol * h
    passes = {name: mx <= tol for name, mx in max_residual.items()}
    return ViscosityReport(max_residual=max_residual, counts=counts,
                           excluded=excluded, tolerance=tol, passes=passes,
                           boundary_max=boundary_max)
