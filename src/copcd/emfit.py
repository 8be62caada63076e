"""EM estimation of the copula-mixture parameters (rho, theta, w) from
oriented pseudo-observations.

The M-step maximizes each weighted component log-likelihood by grid search;
the current parameter value is always included among the candidates so the
observed log-likelihood is non-decreasing by the usual EM argument. The tail
term log s(theta) of each candidate depends on the data but not on the
responsibilities, so `fit` computes it once per candidate and reuses it in
every iteration; each iteration then costs the same few weighted means, and
one evaluation of each component density gives both the log-likelihood and
the next responsibilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .copula import LOG_FLOOR, gaussian_logpdf, tail_logpdf
from .dependence import TAIL_CLAYTON, TAIL_CLAYTON_SURVIVAL

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class EmConfig:
    rho0: float = 0.5
    theta0: float = 0.5
    w0: float = 0.5
    eps: float = 0.01
    theta_max: float = 20.0
    grid_rho: int = 99
    grid_theta: int = 200
    max_iters: int = 200

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be > 0")
        if self.theta_max <= 0:
            raise ValueError("theta_max must be > 0")
        if self.grid_rho < 2 or self.grid_theta < 2:
            raise ValueError("grids need at least 2 points")

    def rho_grid(self) -> np.ndarray:
        g = self.grid_rho
        return np.linspace(1.0 / (g + 1), g / (g + 1.0), g)

    def theta_grid(self) -> np.ndarray:
        return np.linspace(self.theta_max / self.grid_theta, self.theta_max,
                           self.grid_theta)


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


def _grid_argmax(objective, grid: np.ndarray, current: float) -> float:
    """Maximize over the grid plus the current value; ties go to the
    smallest parameter (candidates are sorted ascending)."""
    cand = np.unique(np.append(grid, current))
    vals = np.array([objective(c) for c in cand])
    return float(cand[int(np.argmax(vals))])


def m_step(u, v, gamma1: np.ndarray, tail_mode: str, config: EmConfig,
           rho_cur: float, theta_cur: float, log_s_cache: dict | None = None):
    """Weight update plus grid-search maximization of each component term.

    `log_s_cache` maps theta to its tail term log s(theta) for these u, v and
    tail_mode; it is filled on a miss, so passing the same dict to every
    M-step of one fit computes each candidate's term once.
    """
    u, v = _validate_data(u, v)
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

    cache = {} if log_s_cache is None else log_s_cache

    def theta_obj(theta):
        log_s = cache.get(theta)
        if log_s is None:
            log_s = np.log(np.expm1(np.logaddexp(-theta * t1, -theta * t2)))
            cache[theta] = log_s
        return (
            np.log1p(theta) * c_mass
            + (-1 - theta) * c_logsum
            + (-1 / theta - 2) * float(np.mean(gamma2 * log_s))
        )

    rho_new = _grid_argmax(rho_obj, config.rho_grid(), rho_cur)
    theta_new = _grid_argmax(theta_obj, config.theta_grid(), theta_cur)
    return w_new, rho_new, theta_new


def fit(u, v, tail_mode: str, config: EmConfig | None = None):
    """Iterate E/M until the log-likelihood change drops below eps.

    Returns ((rho, theta, w), EmTrace). Deterministic given data and config.
    """
    if tail_mode not in (TAIL_CLAYTON, TAIL_CLAYTON_SURVIVAL):
        raise ValueError(f"unknown tail_mode {tail_mode!r}")
    config = config or EmConfig()
    u, v = _validate_data(u, v)
    if len(u) < 10:
        raise ValueError("need at least 10 data pairs to fit")

    rho, theta, w = config.rho0, config.theta0, config.w0
    log_s_cache = {}
    trace = EmTrace()
    l_prev, gamma1 = _loglik_and_gamma(u, v, rho, theta, w, tail_mode)
    trace.rows.append((0, l_prev, rho, theta, w, float(np.mean(gamma1))))

    for q in range(1, config.max_iters + 1):
        w, rho, theta = m_step(u, v, gamma1, tail_mode, config, rho, theta,
                               log_s_cache)
        l_new, gamma1 = _loglik_and_gamma(u, v, rho, theta, w, tail_mode)
        trace.rows.append((q, l_new, rho, theta, w, float(np.mean(gamma1))))
        if abs(l_new - l_prev) < config.eps:
            trace.status = STATUS_CONVERGED
            break
        l_prev = l_new
    return (rho, theta, w), trace
