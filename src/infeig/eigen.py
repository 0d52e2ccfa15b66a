"""Discrete weighted p-Dirichlet eigenproblem.

Energy uses per-cell forward differences from each cell's base corner, so
both the energy and the mass have exact analytic gradients. The principal
eigenvalue is found by projected gradient descent on the Rayleigh quotient
over nonnegative fields, normalized to unit weighted p-mass. All p-th roots
and normalizations go through log space so p = 64 stays finite in doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoNegativeRegionError, SeedMassError
from .geometry import cone_field, r_plus, two_cone_field
from .grid import DistanceField, ScalarField, edt
from .weight import WeightField, negate

P_MAX = 64.0


@dataclass(frozen=True)
class SolverOpts:
    tol: float = 1e-8
    max_iter: int = 20000
    tau0: float = 1.0
    seed_shrink: float = 0.8


@dataclass(frozen=True)
class EigenResult:
    p: float
    lam: float
    lambda_root: float
    field: ScalarField
    iterations: int
    final_step: float
    converged: bool
    residual: float


@dataclass(frozen=True)
class SweepRecord:
    p: float
    lambda_root: float
    target: float
    deviation: float
    cone_bound: float
    iterations: int
    converged: bool


def _check_p(p: float) -> None:
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if p > P_MAX:
        raise ValueError(f"p capped at {P_MAX} in double precision, got {p}")


def _cell_gradients(u: np.ndarray, h: float):
    ux = (u[1:, :-1] - u[:-1, :-1]) / h
    uy = (u[:-1, 1:] - u[:-1, :-1]) / h
    return ux, uy


def _log_power_sum(a: np.ndarray, coef, p: float, h: float):
    """(value, log) of h^2 * sum(coef * a^p) for a >= 0 (coef None means 1),
    by max rescaling so the log stays finite when the value overflows; log is
    None when the sum is zero or negative."""
    M = a.max()
    if M == 0.0:
        return 0.0, None
    r = (a / M) ** p
    s = float(np.sum(r if coef is None else coef * r))
    if s <= 0.0:
        # rescaled sum is O(N); the plain value is s * M^p * h^2
        return s * math.exp(min(p * math.log(M) + 2 * math.log(h), 700)), None
    log = 2 * math.log(h) + p * math.log(M) + math.log(s)
    return (math.exp(log) if log < 700 else math.inf), log


def _power_grad(u: np.ndarray, coef, p: float, h: float) -> np.ndarray:
    """Gradient of h^2 * sum(coef * |u|^p) with respect to nodal values."""
    return h * h * p * coef * np.abs(u) ** (p - 1) * np.sign(u)


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
    P = p * g ** (p / 2 - 1)
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
    """Nodal quadrature of m |u|^p; sign-changing weights may make it
    negative or zero."""
    _check_p(p)
    return _log_power_sum(np.abs(u.u), w.m, p, u.grid.h)[0]


def weighted_mass_grad(u: ScalarField, w: WeightField, p: float) -> np.ndarray:
    _check_p(p)
    return _power_grad(u.u, w.m, p, u.grid.h)


def rayleigh(u: ScalarField, w: WeightField, p: float,
             C: ScalarField | None = None) -> float:
    e, _ = dirichlet_energy_p(u, p, C)
    g = weighted_mass_p(u, w, p)
    return e / g


def _log_rayleigh(u: np.ndarray, w: WeightField, p: float,
                  C: ScalarField | None):
    """log of the Rayleigh quotient, or None when the mass is nonpositive."""
    _, logE = dirichlet_energy_p(ScalarField(w.grid, u), p, C)
    _, logG = _log_power_sum(np.abs(u), w.m, p, w.grid.h)
    if logG is None:
        return None
    return logE - logG


def seed_cone(w: WeightField, p: float,
              dist: DistanceField | None = None,
              shrink: float = 0.8) -> ScalarField:
    """Cone at the inscribed-ball argmax of the plus set, radius shrunk until
    its weighted p-mass is positive."""
    if dist is None:
        dist = edt(w.mask)
    _, center = r_plus(dist, w.plus)
    radius = dist.d[center]
    h = w.grid.h
    while radius >= 0.5 * h:
        u = cone_field(center, radius, w.grid)
        uu = np.where(w.mask.inside, u.u, 0.0)
        if _log_power_sum(np.abs(uu), w.m, p, h)[0] > 0:
            return ScalarField(w.grid, uu)
        radius *= shrink
    raise SeedMassError("cannot seed positive mass")


def solve_lambda1(w: WeightField, p: float, C: ScalarField | None = None,
                  opts: SolverOpts | None = None,
                  dist: DistanceField | None = None,
                  u0: ScalarField | None = None,
                  callback=None) -> EigenResult:
    """Principal eigenpair by projected gradient descent with backtracking.

    Each accepted step strictly decreases lambda; the iterate is clamped to
    be nonnegative and renormalized to unit weighted p-mass.
    """
    _check_p(p)
    if C is not None and np.any(C.u[w.mask.inside] <= 0):
        raise ValueError("zero-order coefficient must be positive on inside nodes")
    opts = opts or SolverOpts()
    grid = w.grid
    inside = w.mask.inside
    h = grid.h

    u = None if u0 is None else np.where(inside, u0.u, 0.0)
    if u is None or _log_power_sum(np.abs(u), w.m, p, h)[0] <= 0:
        u = seed_cone(w, p, dist, opts.seed_shrink).u

    _, logG = _log_power_sum(np.abs(u), w.m, p, h)
    u = u * math.exp(-logG / p)
    loglam = _log_rayleigh(u, w, p, C)
    lam = math.exp(loglam) if loglam < 700 else math.inf

    tau = opts.tau0
    it = 0
    rel = math.inf
    converged = False
    while it < opts.max_iter:
        it += 1
        sf = ScalarField(grid, u)
        gE = dirichlet_energy_grad(sf, p, C)
        gG = weighted_mass_grad(sf, w, p)
        direction = gE - lam * gG
        dmax = np.abs(direction).max()
        if dmax == 0.0 or not np.isfinite(dmax):
            break
        direction /= dmax
        accepted = False
        for _ in range(60):
            un = np.maximum(u - tau * direction, 0.0)
            un[~inside] = 0.0
            _, logGn = _log_power_sum(np.abs(un), w.m, p, h)
            if logGn is not None:
                un = un * math.exp(-logGn / p)
                loglam_n = _log_rayleigh(un, w, p, C)
                if loglam_n is not None and loglam_n < loglam:
                    accepted = True
                    break
            tau *= 0.5
        if not accepted:
            break
        rel = -math.expm1(loglam_n - loglam)  # (lam - lam_n)/lam
        u = un
        loglam = loglam_n
        lam = math.exp(loglam) if loglam < 700 else math.inf
        if callback is not None:
            callback(loglam)
        tau *= 1.25
        if rel < opts.tol:
            converged = True
            break

    lambda_root = math.exp(loglam / p)
    return EigenResult(p=p, lam=lam, lambda_root=lambda_root,
                       field=ScalarField(grid, u), iterations=it,
                       final_step=tau, converged=converged, residual=rel)


def mu1(w: WeightField, p: float, opts: SolverOpts | None = None,
        dist: DistanceField | None = None,
        u0: ScalarField | None = None) -> EigenResult:
    """First negative eigenvalue: minus the principal eigenvalue of the
    negated weight."""
    if not w.minus.any():
        raise NoNegativeRegionError("no negative region")
    res = solve_lambda1(negate(w), p, opts=opts, dist=dist, u0=u0)
    return replace(res, lam=-res.lam, lambda_root=-res.lambda_root)


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
    logs = [_log_rayleigh(cone_field(c, radius, w.grid).u * w.mask.inside,
                          w, p, None) for c in (c1, c2)]
    if None in logs:
        return math.inf
    return math.exp(max(logs) / p)


def cone_rayleigh_root(w: WeightField, p: float,
                       dist: DistanceField | None = None,
                       C: ScalarField | None = None) -> float:
    """p-th root of the Rayleigh quotient of the admissible seed cone; a
    rigorous discrete upper bound on lambda_root."""
    u = seed_cone(w, p, dist)
    return math.exp(_log_rayleigh(u.u, w, p, C) / p)


def sweep(w: WeightField, p_list, C: ScalarField | None = None,
          opts: SolverOpts | None = None,
          dist: DistanceField | None = None,
          return_fields: bool = False):
    """Principal-eigenvalue solves over an increasing p list, warm-started,
    with the geometric target and the discrete cone bound per entry."""
    if list(p_list) != sorted(p_list):
        raise ValueError("p_list must be increasing")
    if dist is None:
        dist = edt(w.mask)
    rp, _ = r_plus(dist, w.plus)
    target = max(1.0 / rp, 1.0) if C is not None else 1.0 / rp
    records = []
    fields = []
    prev = None
    for p in p_list:
        res = solve_lambda1(w, float(p), C=C, opts=opts, dist=dist, u0=prev)
        prev = res.field
        fields.append(res.field)
        bound = cone_rayleigh_root(w, float(p), dist, C)
        records.append(SweepRecord(
            p=float(p), lambda_root=res.lambda_root, target=target,
            deviation=abs(res.lambda_root - target), cone_bound=bound,
            iterations=res.iterations, converged=res.converged))
    if return_fields:
        return records, fields
    return records
