"""Pointwise residuals of the limit eigenvalue PDE on the sign-regime
partition of m*u.

Sign convention: inf_laplacian computes <D^2u grad u, grad u>, so the
residual expressions use -inf_laplacian directly. Nodes where centered
stencils straddle a ridge or an unresolved curvature spike are EXCLUDED;
viscosity residuals are only meaningful where a smooth test function could
touch the field.
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
    ux = np.zeros_like(u)
    uy = np.zeros_like(u)
    uxx = np.zeros_like(u)
    uyy = np.zeros_like(u)
    uxy = np.zeros_like(u)
    # each stencil is built in place in its output's interior, with no
    # full-size temporaries, and in the operation order of the plain
    # expression (u[2:] - u[:-2]) / (2 h) and its kin, so bit for bit alike
    out = ux[1:-1, :]
    np.subtract(u[2:, :], u[:-2, :], out=out)
    out /= 2 * h
    out = uy[:, 1:-1]
    np.subtract(u[:, 2:], u[:, :-2], out=out)
    out /= 2 * h
    out = uxx[1:-1, :]
    np.multiply(2, u[1:-1, :], out=out)
    np.subtract(u[2:, :], out, out=out)
    out += u[:-2, :]
    out /= h ** 2
    out = uyy[:, 1:-1]
    np.multiply(2, u[:, 1:-1], out=out)
    np.subtract(u[:, 2:], out, out=out)
    out += u[:, :-2]
    out /= h ** 2
    out = uxy[1:-1, 1:-1]
    np.subtract(u[2:, 2:], u[2:, :-2], out=out)
    out -= u[:-2, 2:]
    out += u[:-2, :-2]
    out /= 4 * h ** 2
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


def excluded_nodes(u: np.ndarray, h: float, kink_tol: float | None = None) -> np.ndarray:
    """Ridge/kink detector: one-sided first differences disagreeing by more
    than the threshold in either axis mark the node as excluded."""
    m, n = u.shape
    # one zero-padded difference array per axis: the forward difference at
    # node i is dx[i + 1] and the backward one dx[i], zero past the rim
    dx = np.zeros((m + 1, n))
    dy = np.zeros((m, n + 1))
    np.subtract(u[1:, :], u[:-1, :], out=dx[1:-1, :])
    dx /= h
    np.subtract(u[:, 1:], u[:, :-1], out=dy[:, 1:-1])
    dy /= h
    lip = max(np.abs(dx).max(), np.abs(dy).max())
    if kink_tol is None:
        if lip == 0.0:
            return np.zeros(u.shape, dtype=bool)
        height = np.abs(u).max()
        scale = height / lip  # natural length of the field
        kink_tol = min(KINK_FRACTION, CURVATURE_GUARD * (h / scale) ** (2 / 3)) * lip
    return ((np.abs(dx[1:, :] - dx[:-1, :]) > kink_tol)
            | (np.abs(dy[:, 1:] - dy[:, :-1]) > kink_tol))


def regime_labels(u: ScalarField, w: WeightField,
                  opts: CheckOpts | None = None) -> np.ndarray:
    """Per-node labels over the inside set: POS/NEG/ZERO/EXCLUDED.

    ZERO requires the node and its full 8-neighborhood to have |m u| under
    the threshold (interior-of-set approximation); borderline nodes that
    fail that test are excluded, as are ridge nodes.
    """
    opts = opts or CheckOpts()
    inside = w.mask.inside
    h = u.grid.h
    # centered 3x3 stencils are only meaningful where the full neighborhood
    # is inside; rim-adjacent nodes read Dirichlet-truncated values
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
    kink = excluded_nodes(u.u, h, opts.kink_tol)
    labels[kink] = EXCLUDED
    labels[~core] = EXCLUDED
    return labels


def check(u: ScalarField, lam: float, w: WeightField,
          opts: CheckOpts | None = None) -> ViscosityReport:
    """Sup of the applicable residual per regime, against tolerance c_tol*h.

    POS:  |min(-D_inf u, |grad u| - lam*u)|
    NEG:  |max(-D_inf u, -|grad u| - lam*u)|
    ZERO: |D_inf u|
    """
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    opts = opts or CheckOpts()
    h = u.grid.h
    labels = regime_labels(u, w, opts)
    ux, uy, *second = _stencils(u.u, h)
    dinf = _inf_lap(ux, uy, *second)
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
