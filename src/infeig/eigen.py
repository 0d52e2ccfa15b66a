"""Discrete weighted p-Dirichlet eigenproblem.

Energy uses per-cell forward differences from each cell's base corner, so
both the energy and the mass have exact analytic gradients. The principal
eigenvalue is found by projected L-BFGS on log E - log G over nonnegative
fields, with the inverse diagonal of the lagged-diffusivity (Kacanov)
stiffness as the initial Hessian, so the contrast of |grad u|^(p-2) at
large p does not set the iteration count; a solve is converged only when
its relative KKT residual is below the tolerance, and the returned field
has unit weighted p-mass. All p-th roots and normalizations go through log
space so p = 64 stays finite in doubles.

The solver does not call the public kernels: it evaluates each trial in
one private pass whose power arrays the gradient and the diagonal at the
accepted trial reuse, and keeps its L-BFGS memory with the pairs' Gram
matrix. The public kernels are the reference the tests hold the solver to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import mul

import numpy as np

from .errors import NoNegativeRegionError, SeedMassError
from .geometry import cone_field, r_plus, two_cone_field
from .grid import DistanceField, ScalarField, edt
from .weight import WeightField, negate

P_MAX = 64.0
_MEMORY = 10    # L-BFGS curvature pairs kept
_ARMIJO = 1e-4  # sufficient-decrease constant of the line search
_EPS_D = 1e-3   # floor of the stiffness diagonal, relative to its max
_SHRINK = 0.8   # seed-cone radius factor per try until its mass is positive


@dataclass(frozen=True)
class SolverOpts:
    tol: float = 1e-4  # relative KKT residual that certifies convergence
    max_iter: int = 20000


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
    """E(u) / G(u) through log space, so the quotient's zero homogeneity
    survives over- and underflow of both sums; inf when the weighted mass is
    not positive."""
    _check_p(p)
    loglam = _log_rayleigh(u.u, w, p, C)
    if loglam is None or loglam >= 700:
        return math.inf
    return math.exp(loglam)


def _log_rayleigh(u: np.ndarray, w: WeightField, p: float,
                  C: ScalarField | None):
    """Log of the Rayleigh quotient, or None when the weighted mass is
    nonpositive."""
    _, logG = _log_power_sum(np.abs(u), w.m, p, w.grid.h)
    if logG is None:
        return None
    return dirichlet_energy_p(ScalarField(w.grid, u), p, C)[1] - logG


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
        if _log_power_sum(np.abs(uu), w.m, p, h)[0] > 0:
            return ScalarField(w.grid, uu)
        radius *= _SHRINK
    raise SeedMassError("cannot seed positive mass")


class _Memory:
    """The last ``_MEMORY`` curvature pairs (s, y), as rows of S and Y, with
    their Gram matrix SY[i, j] = s_i . y_j, so that the two-loop recursion
    runs on m x m scalars. ``order`` lists the live slots oldest first; the
    other rows hold zeros or old pairs and get zero coefficients."""

    def __init__(self, n: int):
        self.S = np.zeros((_MEMORY, n))
        self.Y = np.zeros((_MEMORY, n))
        self.YD = np.empty((_MEMORY, n))  # Y * D, refilled by direction
        self.SY = np.zeros((_MEMORY, _MEMORY))
        self.order = []

    def __len__(self) -> int:
        return len(self.order)

    def clear(self) -> None:
        self.order.clear()

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        """Store a pair of finite vectors, replacing the oldest when full."""
        slot = self.order.pop(0) if len(self.order) == _MEMORY else len(self.order)
        self.S[slot], self.Y[slot] = s, y
        self.SY[slot, :] = self.Y @ s
        self.SY[:, slot] = self.S @ y
        self.order.append(slot)

    def direction(self, g: np.ndarray, free: np.ndarray,
                  D: np.ndarray) -> np.ndarray:
        """-H g by the two-loop recursion over the stored pairs with the
        initial Hessian gamma diag(D), every vector restricted to the free
        variables; zero on the bound ones. Pairs with s . y <= 0 on the free
        set are skipped, and gamma = s . y / y . D y of the newest kept
        pair."""
        SY = self.SY
        bound = ~free
        has_bound = bound.any()
        if has_bound:
            # free-set Gram = full Gram minus the bound columns' products
            SY = SY - self.S[:, bound] @ self.Y[:, bound].T
            g = np.where(free, g, 0.0)
            D = np.where(free, D, 0.0)
        YD = np.multiply(self.Y, D, out=self.YD)
        sg, ydg = (self.S @ g).tolist(), (YD @ g).tolist()
        sy, ys, ydy = SY.tolist(), SY.T.tolist(), (YD @ self.Y.T).tolist()
        hist = [i for i in self.order if sy[i][i] > 0.0]
        # -d = gamma D (g - a Y) + c S: a_i = s_i . q / s_i . y_i newest
        # first, then c_i = a_i - y_i . r / s_i . y_i oldest first, where q
        # and r are the two-loop vectors at that point
        a = [0.0] * _MEMORY
        for i in reversed(hist):
            a[i] = (sg[i] - sum(map(mul, a, sy[i]))) / sy[i][i]
        gamma = sy[hist[-1]][hist[-1]] / ydy[hist[-1]][hist[-1]] if hist else 1.0
        c = [0.0] * _MEMORY
        for i in hist:
            yr = (gamma * (ydg[i] - sum(map(mul, a, ydy[i])))
                  + sum(map(mul, c, ys[i])))
            c[i] = a[i] - yr / sy[i][i]
        d = (gamma * D) * (np.array(a) @ self.Y - g)
        d -= np.array(c) @ self.S
        if has_bound:
            d[bound] = 0.0
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
    u = 0 with df > 0), run on the Gram matrix of the stored pairs, with the
    initial Hessian gamma D (Nocedal-Wright 7.2): D = 1 / diag A(u) at the
    current iterate, A(u) the cell stiffness weighted by the lagged
    diffusivity |grad u|^(p-2), floored at ``_EPS_D`` of its max. It is
    reset to -D df when it is not a descent direction. The line search
    backtracks on the projected arc max(u + tau d, 0) and accepts only a
    strict Armijo decrease with positive weighted mass, so each accepted
    step (one iteration, one ``callback(loglam)``) strictly decreases
    lambda. Each trial is evaluated in one pass that keeps its powers, and
    the gradient at an accepted trial reuses them. ``converged`` certifies
    stationarity: the relative KKT residual max|P(dE - lam dG)| / max|dE|
    over inside nodes, with P dropping positive components where u = 0, is
    at most ``opts.tol``. ``stop`` says why the solve ended: "tol",
    "max_iter", "line_search" (no trial decreases lambda, the floating-point
    floor) or "nonfinite". A warm start ``u0`` enters as |u0|; without one,
    or when its weighted mass is not positive, the seed cone is used. The
    field is normalized to unit weighted p-mass.
    """
    _check_p(p)
    if C is not None and np.any(C.u[w.mask.inside] <= 0):
        raise ValueError("zero-order coefficient must be positive on inside nodes")
    opts = opts or SolverOpts()
    grid = w.grid
    inside = w.mask.inside
    h = grid.h
    log_h = math.log(h)
    m = w.m[inside]
    c_in = None if C is None else C.u[inside]
    u = np.zeros(inside.shape)
    cells = np.zeros(inside.shape)  # scatter buffer of the energy gradient

    def evaluate(x):
        """One pass at x >= 0: (log lambda, log G, cache), or None when the
        weighted mass is not positive. With M = max x, t = x / M and the
        cell differences ux, uy (not divided by h), gn = (ux^2 + uy^2) /
        max(ux^2 + uy^2); the cache keeps t^(p-1) and gn^(p/2-1), from which
        the p-th powers of the sums are one product away."""
        M = x.max()
        if M == 0.0:
            return None
        t = x / M
        tp1 = t ** (p - 1)
        r = tp1 * t
        sm = float(m @ r)
        if sm <= 0.0:
            return None
        u[inside] = x
        ux = u[1:, :-1] - u[:-1, :-1]
        uy = u[:-1, 1:] - u[:-1, :-1]
        gn = ux * ux + uy * uy
        gmax = gn.max()  # > 0: the outside collar is zero and M > 0
        gn /= gmax
        pg = gn ** (p / 2 - 1)
        log_M = math.log(M)
        log_g2max = math.log(gmax) - 2 * log_h  # log max |grad u|^2
        logG = 2 * log_h + p * log_M + math.log(sm)
        logE = 2 * log_h + p / 2 * log_g2max + math.log(float(np.vdot(pg, gn)))
        if C is not None:
            logE = float(np.logaddexp(
                logE, 2 * log_h + p * log_M + math.log(float(c_in @ r))))
        return logE - logG, logG, (tp1, sm, ux, uy, pg, log_g2max)

    def gradient(x, loglam, logG, cache):
        """(df, relative KKT residual, D) at the accepted trial x from its
        cache. On the unit-mass rescaling uh = c u, f's gradient is
        c (dE - lam dG) / lam; dE's cell part is kg * sum(pg (ux, uy)) and
        the mass and C parts km * coef * t^(p-1), with kg and km in logs.
        D is the inverse diagonal of the lagged-diffusivity stiffness
        sum(pg |grad u|^2), floored at _EPS_D of its max; only its shape
        matters, since the L-BFGS scaling gamma absorbs the constant."""
        tp1, sm, ux, uy, pg, log_g2max = cache
        log_c = -logG / p
        log_p = math.log(p)
        log_kg = log_p + log_c + (p / 2 - 1) * (2 * log_c + log_g2max)
        log_km = 2 * log_h + log_p - (p - 1) / p * (2 * log_h + math.log(sm))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # everything below is divided by kg, which the KKT ratio ignores
            sx, sy = pg * ux, pg * uy
            cells[:-1, :-1] = -(sx + sy)
            cells[-1, :] = 0.0
            cells[:-1, -1] = 0.0
            cells[1:, :-1] += sx
            cells[:-1, 1:] += sy
            gE = cells[inside]
            # 2 pg of the node's own cell plus pg of its -x and -y cells
            cells[:-1, :-1] = 2.0 * pg
            cells[1:, :-1] += pg
            cells[:-1, 1:] += pg
            diag = cells[inside]
            D = 1.0 / np.maximum(diag, _EPS_D * diag.max())
            if C is not None:
                gE += (np.exp(log_km - log_kg) * c_in) * tp1
            r = gE - (np.exp(log_km - log_kg + loglam) * m) * tp1
            kkt = np.abs(np.where((x == 0.0) & (r > 0.0), 0.0, r)).max()
            r *= np.exp(log_kg + log_c - loglam)
            return r, float(kkt / np.abs(gE).max()), D

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

    ev = None
    if u0 is not None:
        x = np.abs(u0.u[inside])
        ev = evaluate(x)
    if ev is None:
        x = seed_cone(w, p, dist).u[inside]
        ev = evaluate(x)
    loglam, logG, cache = ev
    g, kkt, D = gradient(x, loglam, logG, cache)
    memory = _Memory(x.size)
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
        if memory:
            d = memory.direction(g, free, D)
            if g @ d < 0.0:
                step = line_search(x, g, d, loglam, 1.0)
        if step is None:
            # no memory, no descent direction or no decrease along it:
            # restart along -D df with a first step of 1% of max u
            memory.clear()
            d = np.where(free, -D * g, 0.0)
            step = line_search(x, g, d, loglam,
                               0.01 * x.max() / np.abs(d).max())
        if step is None:
            stop = "line_search"
            break
        it += 1
        xt, (loglam, logG, cache), tau = step
        if callback is not None:
            callback(loglam)
        gt, kkt, D = gradient(xt, loglam, logG, cache)
        s, y = xt - x, gt - g
        if s @ y > np.finfo(float).eps * (y @ y):
            memory.push(s, y)
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
    return math.exp(max(logs) / p)


def cone_rayleigh_root(w: WeightField, p: float,
                       dist: DistanceField | None = None,
                       C: ScalarField | None = None) -> float:
    """p-th root of the Rayleigh quotient of the admissible seed cone; a
    rigorous discrete upper bound on lambda_root."""
    return math.exp(_log_rayleigh(seed_cone(w, p, dist).u, w, p, C) / p)


def sweep(w: WeightField, p_list, C: ScalarField | None = None,
          opts: SolverOpts | None = None,
          dist: DistanceField | None = None):
    """Warm-started principal-eigenvalue solves over strictly increasing p,
    the first from the seed cone, with the geometric target and the discrete
    cone bound per entry. Returns (records, fields), one solved field per
    record."""
    p_list = [float(p) for p in p_list]
    if any(b <= a for a, b in zip(p_list, p_list[1:])):
        raise ValueError("p_list must be strictly increasing")
    if dist is None:
        dist = edt(w.mask)
    rp, _ = r_plus(dist, w.plus)
    target = max(1.0 / rp, 1.0) if C is not None else 1.0 / rp
    records, fields, prev = [], [], None
    for p in p_list:
        res = solve_lambda1(w, p, C=C, opts=opts, dist=dist, u0=prev)
        prev = res.field
        fields.append(res.field)
        records.append(SweepRecord(
            p=p, lambda_root=res.lambda_root, target=target,
            deviation=abs(res.lambda_root - target),
            cone_bound=cone_rayleigh_root(w, p, dist, C),
            iterations=res.iterations, converged=res.converged))
    return records, fields
