"""Copula densities, CDFs and pair samplers: verification only, never called
by the pipeline.

The detector needs only the log densities in ``copcd.copula``, which take
the transforms of (u1, u2); the log densities here take (u1, u2) itself, the
densities are their exponentials, and the CDFs check them (the density is
the CDF's mixed derivative) and pin the boundary conditions.
``gaussian_cdf`` integrates by adaptive quadrature, which is why this
module, and not ``copcd``, imports ``scipy.integrate``. The two pair
samplers draw what ``copcd.copula.sample_mixture`` draws for one component,
from a caller's generator, and ``clamp_pseudo_obs`` is the clamp that
``copcd.copula.pseudo_obs`` applies to ECDF values, after any reflection.
``logaddexp_clayton_logpdf`` and ``logaddexp_mixture`` are the forms the
Clayton and mixture log densities had before they were written without
``np.logaddexp``.
"""

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from copcd.copula import (
    CopulaMixtureModel,
    _clayton_conditional_inverse,
    clayton_logpdf_at,
    gaussian_logpdf_at,
    log_expm1,
    mixture_logpdf_at,
    normal_scores,
    tail_logs,
)
from copcd.dependence import TAIL_CLAYTON, TAIL_CLAYTON_SURVIVAL

LOG_FLOOR = 1e-300  # the floor of logaddexp_mixture's responsibility denominator


def gaussian_logpdf(u1, u2, rho: float):
    return gaussian_logpdf_at(normal_scores(u1, u2), rho)


def tail_logpdf(u1, u2, theta: float, tail_mode: str):
    return clayton_logpdf_at(tail_logs(u1, u2, tail_mode), theta)


def gaussian_density(u1, u2, rho: float):
    return np.exp(gaussian_logpdf(u1, u2, rho))


def clayton_density(u1, u2, theta: float):
    return np.exp(tail_logpdf(u1, u2, theta, TAIL_CLAYTON))


def sclayton_density(u1, u2, theta: float):
    return np.exp(tail_logpdf(u1, u2, theta, TAIL_CLAYTON_SURVIVAL))


def mixture_logpdf_and_gamma(u1, u2, rho: float, theta: float, w: float, tail_mode: str):
    return mixture_logpdf_at(normal_scores(u1, u2), tail_logs(u1, u2, tail_mode),
                             rho, theta, w)


def mixture_density(u1, u2, model: CopulaMixtureModel):
    return np.exp(mixture_logpdf_and_gamma(u1, u2, model.rho, model.theta, model.w,
                                           model.tail_mode)[0])


def logaddexp_clayton_logpdf(u1, u2, theta: float, tail_mode: str):
    """The Clayton log density with log s = log(expm1(logaddexp(-theta l1,
    -theta l2))), l = log u (log(1 - u) for the survival copula), the
    logarithm taken past expm1's overflow by ``log_expm1``."""
    if tail_mode == TAIL_CLAYTON_SURVIVAL:
        u1, u2 = 1.0 - np.asarray(u1), 1.0 - np.asarray(u2)
    l1, l2 = np.log(u1), np.log(u2)
    return (np.log1p(theta) + (-1 - theta) * (l1 + l2)
            + (-1 / theta - 2) * log_expm1(np.logaddexp(-theta * l1, -theta * l2)))


def logaddexp_mixture(lg, lc, w: float):
    """(log f, gamma_1) of the mixture from its component log densities:
    log f by np.logaddexp and gamma_1 = w f_g / f, the denominator floored
    at LOG_FLOOR and the quotient clipped to [0, 1]."""
    if w >= 1.0:
        return lg, np.ones_like(lg)
    if w <= 0.0:
        return lc, np.zeros_like(lc)
    fg = w * np.exp(lg)
    fc = (1 - w) * np.exp(lc)
    return (np.logaddexp(np.log(w) + lg, np.log1p(-w) + lc),
            np.clip(fg / np.maximum(fg + fc, LOG_FLOOR), 0.0, 1.0))


def clamp_pseudo_obs(u, n_train: int):
    delta = 1.0 / (2.0 * n_train)
    return np.clip(u, delta, 1.0 - delta)


def sample_gaussian_pairs(rho: float, n: int, rng: np.random.Generator):
    z = rng.standard_normal((n, 2))
    x1 = z[:, 0]
    x2 = rho * z[:, 0] + np.sqrt(1 - rho * rho) * z[:, 1]
    return ndtr(x1), ndtr(x2)


def sample_clayton_pairs(theta: float, n: int, rng: np.random.Generator):
    """Conditional-inversion Clayton sampler, stable for small theta."""
    u = rng.random(n)
    return u, _clayton_conditional_inverse(u, rng.random(n), theta)


def _check_closed(u1, u2):
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    if not (((u1 >= 0) & (u1 <= 1)).all() and ((u2 >= 0) & (u2 <= 1)).all()):
        raise ValueError("copula CDF arguments must lie in [0, 1]")
    return u1, u2


def gaussian_cdf(u1: float, u2: float, rho: float) -> float:
    """Bivariate normal copula CDF via adaptive quadrature (<= 1e-6 abs)."""
    u1, u2 = _check_closed(u1, u2)
    if not -1 < rho < 1:
        raise ValueError("rho must lie in (-1, 1)")
    u1 = float(u1)
    u2 = float(u2)
    if u1 == 0.0 or u2 == 0.0:
        return 0.0
    if u1 == 1.0:
        return u2
    if u2 == 1.0:
        return u1
    a = ndtri(u1)
    b = ndtri(u2)
    denom = np.sqrt(1 - rho * rho)

    def integrand(x):
        return np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi) * ndtr((b - rho * x) / denom)

    val, _ = quad(integrand, -9.0, a, epsabs=1e-9, limit=200)
    return float(val)


def clayton_cdf(u1, u2, theta: float):
    u1, u2 = _check_closed(u1, u2)
    if theta <= 0:
        raise ValueError("theta must be > 0")
    with np.errstate(divide="ignore", over="ignore"):
        s = u1 ** (-theta) + u2 ** (-theta) - 1.0
        out = np.where((u1 > 0) & (u2 > 0), s ** (-1.0 / theta), 0.0)
    return float(out) if out.ndim == 0 else out


def sclayton_cdf(u1, u2, theta: float):
    u1, u2 = _check_closed(u1, u2)
    if theta <= 0:
        raise ValueError("theta must be > 0")
    with np.errstate(divide="ignore", over="ignore"):
        s = (1 - u1) ** (-theta) + (1 - u2) ** (-theta) - 1.0
        tail = np.where((u1 < 1) & (u2 < 1), s ** (-1.0 / theta), 0.0)
    out = np.maximum(u1 + u2 - 1.0 + tail, 0.0)
    return float(out) if out.ndim == 0 else out


def mixture_cdf(u1, u2, model: CopulaMixtureModel):
    """Mixture CDF; used for verification only, not in detection."""
    if model.tail_mode == TAIL_CLAYTON:
        tail = clayton_cdf(u1, u2, model.theta)
    else:
        tail = sclayton_cdf(u1, u2, model.theta)
    return model.w * gaussian_cdf(u1, u2, model.rho) + (1 - model.w) * tail
