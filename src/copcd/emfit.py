"""EM estimation of the copula-mixture parameters (rho, theta, w) from
oriented pseudo-observations.

The M-step maximizes each weighted component log-likelihood exactly: rho in
closed form, as the best of the interval bounds and the roots of the
stationarity cubic, and theta by Brent's bounded search (golden section with
parabolic steps; Brent, "Algorithms for Minimization without Derivatives",
1973, ch. 5). The current value of each parameter competes with its update,
so the observed log-likelihood is non-decreasing by the usual EM argument.
One evaluation of each component density gives both the log-likelihood and
the next responsibilities.

rho stays in [0.01, 0.99] and theta in (0, theta_max], the intervals of the
grids this search replaced: on the 256 x 256 acceptance scene with seed 1 an
unconstrained rho fits 0.9973, and KC falls from 0.94 to 0.65.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .copula import LOG_FLOOR, gaussian_logpdf, log_expm1, tail_logpdf
from .dependence import TAIL_CLAYTON, TAIL_CLAYTON_SURVIVAL

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"

RHO_MIN, RHO_MAX = 0.01, 0.99
THETA_MIN_DIVISOR = 200  # theta is searched on [theta_max / 200, theta_max]
THETA_XTOL = 1e-6  # absolute part of the search tolerance, times theta_max
_GOLDEN = (3.0 - 5.0 ** 0.5) / 2.0
_SQRT_EPS = float(np.finfo(np.float64).eps) ** 0.5


@dataclass(frozen=True)
class EmConfig:
    rho0: float = 0.5
    theta0: float = 0.5
    w0: float = 0.5
    eps: float = 0.01
    theta_max: float = 20.0
    max_iters: int = 200

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be > 0")
        if self.theta_max <= 0:
            raise ValueError("theta_max must be > 0")


@dataclass
class EmTrace:
    """Per-iteration log-likelihood, parameters, and mean responsibility."""

    rows: list = field(default_factory=list)  # (iter, l, rho, theta, w, mean_gamma1)
    status: str = STATUS_MAX_ITERS

    def log_likelihoods(self) -> np.ndarray:
        return np.array([r[1] for r in self.rows])


def _validate_data(u, v):
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1 or len(u) == 0:
        raise ValueError("need matching nonempty pseudo-observation vectors")
    if (u <= 0).any() or (u >= 1).any() or (v <= 0).any() or (v >= 1).any():
        raise ValueError("pseudo-observations must lie strictly inside (0, 1)")
    return u, v


def _loglik_and_gamma(u, v, rho: float, theta: float, w: float, tail_mode: str):
    """Mean log mixture density and Gaussian-component responsibilities
    gamma_1, from one evaluation of each component density."""
    if w >= 1.0:
        return float(np.mean(gaussian_logpdf(u, v, rho))), np.ones_like(u)
    if w <= 0.0:
        return float(np.mean(tail_logpdf(u, v, theta, tail_mode))), np.zeros_like(u)
    lg = gaussian_logpdf(u, v, rho)
    lc = tail_logpdf(u, v, theta, tail_mode)
    ll = float(np.mean(np.logaddexp(np.log(w) + lg, np.log1p(-w) + lc)))
    fg = w * np.exp(lg)
    fc = (1 - w) * np.exp(lc)
    denom = np.maximum(fg + fc, LOG_FLOOR)
    return ll, np.clip(fg / denom, 0.0, 1.0)


def log_likelihood(u, v, rho: float, theta: float, w: float, tail_mode: str) -> float:
    """Mean log mixture density over the sample."""
    u, v = _validate_data(u, v)
    return _loglik_and_gamma(u, v, rho, theta, w, tail_mode)[0]


def e_step(u, v, rho: float, theta: float, w: float, tail_mode: str) -> np.ndarray:
    """Gaussian-component responsibilities gamma_1 in [0, 1]."""
    u, v = _validate_data(u, v)
    return _loglik_and_gamma(u, v, rho, theta, w, tail_mode)[1]


def _best(objective, candidates) -> float:
    """The candidate of largest objective; NaN ranks last and ties go to the
    smallest candidate."""
    cand = np.unique(candidates)
    vals = np.array([objective(c) for c in cand])
    return float(cand[int(np.argmax(np.where(np.isnan(vals), -np.inf, vals)))])


def _brent_max(f, a: float, b: float, xtol: float) -> float:
    """Brent's bounded maximization of f on [a, b]: a local maximum.

    Golden-section steps, with a parabola through the three best points
    (x, x2, x3) taken instead when it falls well inside the bracket and
    shrinks the step. Stops once the bracket around the best point x is
    within 2 * tol of it, tol = sqrt(eps) * |x| + xtol. The bounds
    themselves are never evaluated. A NaN value ranks below every number.
    """
    x = x2 = x3 = a + _GOLDEN * (b - a)
    fx = f2 = f3 = f(x)
    step = prev = 0.0  # the last two steps; a parabola must beat half of prev
    while True:
        mid = a + 0.5 * (b - a)  # a + b can overflow near the float maximum
        tol = _SQRT_EPS * abs(x) + xtol
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            return x
        parabolic = False
        if abs(prev) > tol:
            # Offset p / q of the vertex of the parabola through the three.
            r = (x - x2) * (fx - f3)
            q = (x - x3) * (fx - f2)
            p = (x - x3) * q - (x - x2) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            limit, prev = prev, step
            if abs(p) < abs(0.5 * q * limit) and q * (a - x) < p < q * (b - x):
                parabolic = True
                step = p / q
                if x + step - a < 2.0 * tol or b - (x + step) < 2.0 * tol:
                    step = tol if x < mid else -tol
        if not parabolic:
            prev = (b - x) if x < mid else (a - x)
            step = _GOLDEN * prev
        x_new = x + (step if abs(step) >= tol else (tol if step > 0 else -tol))
        f_new = f(x_new)
        if f_new >= fx:
            if x_new < x:
                b = x
            else:
                a = x
            x3, f3, x2, f2, x, fx = x2, f2, x, fx, x_new, f_new
        else:
            if x_new < x:
                a = x_new
            else:
                b = x_new
            if f_new >= f2 or x2 == x:
                x3, f3, x2, f2 = x2, f2, x_new, f_new
            elif f_new >= f3 or x3 == x or x3 == x2:
                x3, f3 = x_new, f_new


def m_step(u, v, gamma1: np.ndarray, tail_mode: str, config: EmConfig,
           rho_cur: float, theta_cur: float):
    """Weight update plus exact maximization of each component term.

    rho is the best of rho_cur, RHO_MIN, RHO_MAX and the cubic's roots in
    between; theta the best of theta_cur, the bounds theta_max / 200 and
    theta_max, and Brent's search between them. The search finds a local
    maximum, and the objective can also peak at a bound, as theta -> 0
    approaches the independence copula. Ties go to the smaller value.
    """
    u, v = _validate_data(u, v)
    gamma1 = np.asarray(gamma1, dtype=np.float64)
    w_new = float(np.mean(gamma1))
    gamma2 = 1.0 - gamma1

    x1 = ndtri(u)
    x2 = ndtri(v)
    g_sq = float(np.mean(gamma1 * (x1 * x1 + x2 * x2)))
    g_cross = float(np.mean(gamma1 * x1 * x2))
    g_mass = float(np.mean(gamma1))

    def rho_obj(rho):
        r2 = rho * rho
        return -0.5 * np.log1p(-r2) * g_mass - (r2 * g_sq - 2 * rho * g_cross) / (
            2 * (1 - r2)
        )

    if tail_mode == TAIL_CLAYTON:
        t1, t2 = np.log(u), np.log(v)
    else:
        t1, t2 = np.log(1.0 - u), np.log(1.0 - v)
    c_logsum = float(np.mean(gamma2 * (t1 + t2)))
    c_mass = float(np.mean(gamma2))

    # logaddexp(-theta t1, -theta t2), expanded around the larger term:
    # four vectorized passes per theta where np.logaddexp takes twice as long.
    t_hi = -np.minimum(t1, t2)
    t_gap = np.abs(t1 - t2)

    def theta_obj(theta):
        log_s = log_expm1(theta * t_hi + np.log1p(np.exp(-theta * t_gap)))
        return (
            np.log1p(theta) * c_mass
            + (-1 - theta) * c_logsum
            + (-1 / theta - 2) * float(np.mean(gamma2 * log_s))
        )

    # Stationary points of rho_obj: m rho^3 - C rho^2 + (S - m) rho - C = 0.
    # A near-double root can come back as a complex pair; its real part is
    # then one more candidate.
    roots = np.roots([g_mass, -g_cross, g_sq - g_mass, -g_cross]).real
    rho_new = _best(rho_obj, [rho_cur, RHO_MIN, RHO_MAX,
                              *roots[(roots >= RHO_MIN) & (roots <= RHO_MAX)]])
    lo, hi = config.theta_max / THETA_MIN_DIVISOR, config.theta_max
    theta_new = _best(theta_obj, [theta_cur, lo, hi,
                                  _brent_max(theta_obj, lo, hi, THETA_XTOL * hi)])
    return w_new, rho_new, theta_new


def fit(u, v, tail_mode: str, config: EmConfig | None = None):
    """Iterate E/M until the log-likelihood change drops below eps.

    Returns ((rho, theta, w), EmTrace). Deterministic given data and config.
    theta starts at min(theta0, theta_max). Overflow in the densities shows
    as a non-finite log-likelihood, which raises ArithmeticError.
    """
    if tail_mode not in (TAIL_CLAYTON, TAIL_CLAYTON_SURVIVAL):
        raise ValueError(f"unknown tail_mode {tail_mode!r}")
    config = config or EmConfig()
    u, v = _validate_data(u, v)
    if len(u) < 10:
        raise ValueError("need at least 10 data pairs to fit")

    def evaluate(rho, theta, w):
        ll, gamma1 = _loglik_and_gamma(u, v, rho, theta, w, tail_mode)
        if not np.isfinite(ll):
            raise ArithmeticError(f"EM log-likelihood is not finite at theta={theta!r} "
                                  f"(theta_max={config.theta_max!r})")
        return ll, gamma1

    rho, theta, w = config.rho0, min(config.theta0, config.theta_max), config.w0
    trace = EmTrace()
    with np.errstate(all="ignore"):
        l_prev, gamma1 = evaluate(rho, theta, w)
        trace.rows.append((0, l_prev, rho, theta, w, float(np.mean(gamma1))))
        for q in range(1, config.max_iters + 1):
            w, rho, theta = m_step(u, v, gamma1, tail_mode, config, rho, theta)
            l_new, gamma1 = evaluate(rho, theta, w)
            trace.rows.append((q, l_new, rho, theta, w, float(np.mean(gamma1))))
            if abs(l_new - l_prev) < config.eps:
                trace.status = STATUS_CONVERGED
                break
            l_prev = l_new
    return (rho, theta, w), trace
