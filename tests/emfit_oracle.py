"""The grid-search EM M-step that `copcd.emfit.m_step` replaced, kept as the
reference for its exact maximization, and the Brent search that came
between them.

`m_step` is the old code with the top of its theta grid passed as `theta_max`.
It takes (u, v) and computes their normal scores and tail logs on each call.
`component_objectives` returns the same two weighted objectives, so a test
can score any (rho, theta) against them. `brent_theta` is the theta update
by Brent's bounded search that the safeguarded Newton step replaced.
"""

import numpy as np
from scipy.special import ndtri

from copcd.dependence import TAIL_CLAYTON
from copcd.emfit import THETA_MAX, THETA_MIN, THETA_XTOL, _best

GRID_RHO = 99
GRID_THETA = 200
_GOLDEN = (3.0 - 5.0 ** 0.5) / 2.0
_SQRT_EPS = float(np.finfo(np.float64).eps) ** 0.5


def rho_grid() -> np.ndarray:
    g = GRID_RHO
    return np.linspace(1.0 / (g + 1), g / (g + 1.0), g)


def theta_grid(theta_max: float) -> np.ndarray:
    return np.linspace(theta_max / GRID_THETA, theta_max, GRID_THETA)


def _grid_argmax(objective, grid: np.ndarray, current: float) -> float:
    """Maximize over the grid plus the current value; ties go to the
    smallest parameter (candidates are sorted ascending)."""
    cand = np.unique(np.append(grid, current))
    vals = np.array([objective(c) for c in cand])
    return float(cand[int(np.argmax(vals))])


def component_objectives(u, v, gamma1, tail_mode: str):
    """(w_new, rho_obj, theta_obj): the weight update and the weighted
    Gaussian and tail log-likelihood terms the M-step maximizes."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    gamma1 = np.asarray(gamma1, dtype=np.float64)
    w_new = float(np.mean(gamma1))
    gamma2 = 1.0 - gamma1

    # Precompute sufficient statistics so the grids reuse them.
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

    def theta_obj(theta):
        log_s = np.log(np.expm1(np.logaddexp(-theta * t1, -theta * t2)))
        return (
            np.log1p(theta) * c_mass
            + (-1 - theta) * c_logsum
            + (-1 / theta - 2) * float(np.mean(gamma2 * log_s))
        )

    return w_new, rho_obj, theta_obj


def m_step(u, v, gamma1, tail_mode: str, theta_max: float, rho_cur: float,
           theta_cur: float):
    """Weight update plus grid-search maximization of each component term."""
    w_new, rho_obj, theta_obj = component_objectives(u, v, gamma1, tail_mode)
    rho_new = _grid_argmax(rho_obj, rho_grid(), rho_cur)
    theta_new = _grid_argmax(theta_obj, theta_grid(theta_max), theta_cur)
    return w_new, rho_new, theta_new


def brent_max(f, a: float, b: float, xtol: float) -> float:
    """Brent's bounded maximization of f on [a, b]: a local maximum.

    Golden-section steps, with a parabola through the three best points
    (x, x2, x3) taken instead when it falls well inside the bracket and
    shrinks the step. Stops once the bracket around the best point x is
    within 2 * tol of it, tol = sqrt(eps) * |x| + xtol. The bounds
    themselves are never evaluated. A NaN value ranks below every number.
    (Brent, "Algorithms for Minimization without Derivatives", 1973, ch. 5.)
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


def brent_theta(theta_obj, theta_cur: float) -> float:
    """The theta update by Brent's search: the best of theta_cur, the bounds
    and the search's maximum of ``theta_obj`` between them."""
    return _best(theta_obj, [theta_cur, THETA_MIN, THETA_MAX,
                             brent_max(theta_obj, THETA_MIN, THETA_MAX,
                                       THETA_XTOL * THETA_MAX)])
