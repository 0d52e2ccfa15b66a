"""Discrete weighted p-Dirichlet eigenproblem.

Energy uses per-cell forward differences from each cell's base corner, so
both the energy and the mass have exact analytic gradients. The principal
eigenvalue is found by projected L-BFGS on log E - log G over nonnegative
fields; a solve is converged only when its relative KKT residual is below
the tolerance, and the returned field has unit weighted p-mass. All p-th
roots and normalizations go through log space so p = 64 stays finite in
doubles.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoNegativeRegionError, SeedMassError
from .geometry import cone_field, r_plus, two_cone_field
from .grid import DistanceField, ScalarField, edt
from .weight import WeightField, negate

P_MAX = 64.0
_MEMORY = 10    # L-BFGS curvature pairs kept
_ARMIJO = 1e-4  # sufficient-decrease constant of the line search


@dataclass(frozen=True)
class SolverOpts:
    tol: float = 1e-4  # relative KKT residual that certifies convergence
    max_iter: int = 20000
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
    residual: float  # relative KKT residual at the returned field
    stop: str  # "tol", "max_iter", "line_search" or "nonfinite"


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
    """(log of the Rayleigh quotient, log of the weighted mass), or None when
    the mass is nonpositive."""
    _, logG = _log_power_sum(np.abs(u), w.m, p, w.grid.h)
    if logG is None:
        return None
    _, logE = dirichlet_energy_p(ScalarField(w.grid, u), p, C)
    return logE - logG, logG


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


def _lbfgs_direction(g: np.ndarray, pairs, free: np.ndarray) -> np.ndarray:
    """-H g by the two-loop recursion over the stored (s, y) pairs, with every
    vector restricted to the free variables; zero on the bound ones."""
    sel = slice(None) if free.all() else free
    q = g[sel]
    hist = []
    for s, y in pairs:
        s, y = s[sel], y[sel]
        sy = s @ y
        if sy > 0.0:
            hist.append((s, y, sy))
    alphas = []
    for s, y, sy in reversed(hist):
        a = (s @ q) / sy
        q = q - a * y
        alphas.append(a)
    if hist:
        s, y, sy = hist[-1]
        q = q * (sy / (y @ y))
    for (s, y, sy), a in zip(hist, reversed(alphas)):
        q = q + (a - (y @ q) / sy) * s
    d = np.zeros_like(g)
    d[sel] = -q
    return d


def solve_lambda1(w: WeightField, p: float, C: ScalarField | None = None,
                  opts: SolverOpts | None = None,
                  dist: DistanceField | None = None,
                  u0: ScalarField | None = None,
                  callback=None) -> EigenResult:
    """Principal eigenpair by projected L-BFGS on f = log E - log G over
    nonnegative inside values (Byrd-Lu-Nocedal-Zhu 1995, without the
    Cauchy point).

    The direction is the two-loop recursion on the free variables (not
    u = 0 with df > 0), reset to -df when it is not a descent direction. The
    line search backtracks on the projected arc max(u + tau d, 0) and accepts
    only a strict Armijo decrease with positive weighted mass, so each
    accepted step (one iteration, one ``callback(loglam)``) strictly
    decreases lambda. ``converged`` certifies stationarity: the relative KKT
    residual max|P(dE - lam dG)| / max|dE| over inside nodes, with P dropping
    positive components where u = 0, is at most ``opts.tol``. ``stop`` says
    why the solve ended: "tol", "max_iter", "line_search" (no trial
    decreases lambda, the floating-point floor) or "nonfinite". The field is
    normalized to unit weighted p-mass.
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

    def gradient(x, loglam, logG):
        """(df, relative KKT residual) at x. The kernels run on the unit-mass
        rescaling uh = c u, where f's gradient is c (dE - lam dG) / lam."""
        c = math.exp(-logG / p)
        u[inside] = x
        uh = ScalarField(grid, u * c)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            lam = np.exp(loglam)
            gE = dirichlet_energy_grad(uh, p, C)[inside]
            r = gE - lam * weighted_mass_grad(uh, w, p)[inside]
            kkt = np.abs(np.where((x == 0.0) & (r > 0.0), 0.0, r)).max()
            return r * (c / lam), float(kkt / np.abs(gE).max())

    def line_search(x, g, d, loglam, tau):
        """(x, (log lambda, log G), tau) at the first of tau, tau/2, ... on
        the projected arc with positive mass and a strict Armijo decrease,
        or None."""
        for _ in range(60):
            xt = np.maximum(x + tau * d, 0.0)
            u[inside] = xt
            ev = _log_rayleigh(u, w, p, C)
            if ev is not None and ev[0] < loglam and (
                    ev[0] <= loglam + _ARMIJO * (g @ (xt - x))):
                return xt, ev, tau
            tau *= 0.5
        return None

    x = u[inside]
    loglam, logG = _log_rayleigh(u, w, p, C)
    g, kkt = gradient(x, loglam, logG)
    pairs = deque(maxlen=_MEMORY)
    it = 0
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
        free = ~((x == 0.0) & (g > 0.0))
        step = None
        if pairs:
            d = _lbfgs_direction(g, pairs, free)
            if g @ d < 0.0:
                step = line_search(x, g, d, loglam, 1.0)
        if step is None:
            # no memory, no descent direction or no decrease along it:
            # restart along -df with a first step of 1% of max u
            pairs.clear()
            d = np.where(free, -g, 0.0)
            step = line_search(x, g, d, loglam,
                               0.01 * x.max() / np.abs(d).max())
        if step is None:
            stop = "line_search"
            break
        it += 1
        xt, (loglam, logG), tau = step
        if callback is not None:
            callback(loglam)
        gt, kkt = gradient(xt, loglam, logG)
        s, y = xt - x, gt - g
        if s @ y > np.finfo(float).eps * (y @ y):
            pairs.append((s, y))
        x, g = xt, gt

    u[inside] = x
    u *= math.exp(-logG / p)
    return EigenResult(p=p, lam=math.exp(loglam) if loglam < 700 else math.inf,
                       lambda_root=math.exp(loglam / p),
                       field=ScalarField(grid, u), iterations=it,
                       final_step=tau, converged=stop == "tol", residual=kkt,
                       stop=stop)


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
    return math.exp(max(log[0] for log in logs) / p)


def cone_rayleigh_root(w: WeightField, p: float,
                       dist: DistanceField | None = None,
                       C: ScalarField | None = None) -> float:
    """p-th root of the Rayleigh quotient of the admissible seed cone; a
    rigorous discrete upper bound on lambda_root."""
    u = seed_cone(w, p, dist)
    return math.exp(_log_rayleigh(u.u, w, p, C)[0] / p)


def sweep(w: WeightField, p_list, C: ScalarField | None = None,
          opts: SolverOpts | None = None,
          dist: DistanceField | None = None,
          return_fields: bool = False):
    """Warm-started principal-eigenvalue solves over strictly increasing p,
    with the geometric target and the discrete cone bound per entry."""
    if any(b <= a for a, b in zip(p_list, list(p_list)[1:])):
        raise ValueError("p_list must be strictly increasing")
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
