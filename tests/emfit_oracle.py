"""The grid-search EM M-step that `copcd.emfit.m_step` replaced, kept as the
reference for its exact maximization.

`m_step` is the old code with the top of its theta grid passed as `theta_max`.
It takes (u, v) and computes their normal scores and tail logs on each call.
`component_objectives` returns the same two weighted objectives, so a test
can score any (rho, theta) against them.
"""

import numpy as np
from scipy.special import ndtri

from copcd.dependence import TAIL_CLAYTON

GRID_RHO = 99
GRID_THETA = 200


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
