"""EM estimation of the copula-mixture parameters (rho, theta, w) from
oriented pseudo-observations.

The M-step maximizes each weighted component log-likelihood exactly: rho in
closed form, as the best of the interval bounds and the roots of the
stationarity cubic, and theta by safeguarded Newton from its current value,
on the analytic first and second derivatives of its term, which come from
the arrays of ``copula.clayton_log_s`` that give the term itself. The
current value of each parameter and the bounds of its interval compete with
its update, so the observed log-likelihood is non-decreasing by the usual EM
argument.

The pseudo-observations stay fixed for the whole fit, as in the rank-based
pseudo-likelihood estimator of Genest, Ghoudi and Rivest (Biometrika 1995),
so ``fit_transforms`` computes their normal scores and tail logs, and log s
at both ends of theta's box, once per fit, and every M-step and E-step reads
them. The E-step is ``copula.mixture_logpdf_at``, the function detection
scores with: the log-likelihood and the next responsibilities come from one
evaluation of each component density.

A fit stops once the log-likelihood changes by less than ``EmConfig.eps``, or
after ``MAX_ITERS`` iterations, a constant: the benchmark's fits take 2 to 7.

rho stays in [0.01, 0.99] and theta in [0.1, 20] (``copula``'s box), the
intervals of the grids that exact maximization replaced: on the 256 x 256
acceptance scene with seed 1 an unconstrained rho fits 0.9973, and KC falls
from 0.94 to 0.65.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .copula import RHO_MAX, RHO_MIN, THETA_MAX, THETA_MIN
from .copula import clayton_log_s, mixture_logpdf_at, normal_scores, tail_logs

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"

MIN_PAIRS = 10  # the fewest data pairs EM fits
MAX_ITERS = 200  # EM iterations before a fit stops unconverged
THETA_XTOL = 1e-6  # absolute part of the search tolerance, times THETA_MAX
RHO_START, THETA_START, W_START = 0.5, 0.5, 0.5
_SQRT_EPS = float(np.finfo(np.float64).eps) ** 0.5


@dataclass(frozen=True)
class EmConfig:
    eps: float = 0.01

    def __post_init__(self):
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"config field 'eps' must be finite and > 0, got {self.eps!r}")


@dataclass
class EmTrace:
    """Per-iteration log-likelihood, parameters, and mean responsibility."""

    rows: list = field(default_factory=list)  # (iter, l, rho, theta, w, mean_gamma1)
    status: str = STATUS_MAX_ITERS


def log_likelihood(u, v, rho: float, theta: float, w: float, tail_mode: str) -> float:
    """Mean log mixture density over the sample."""
    u, v = _pseudo_obs_vectors(u, v)
    return float(np.mean(mixture_logpdf_at(normal_scores(u, v), tail_logs(u, v, tail_mode),
                                           rho, theta, w)[0]))


class FitTransforms(NamedTuple):
    """The transforms of one fit's fixed pseudo-observations (u, v)."""

    scores: tuple  # copula.normal_scores: x1, x2, x1 * x1 + x2 * x2
    logs: tuple  # copula.tail_logs of the fit's tail mode: t_hi, t_lo, their gap and sum
    log_s_ends: dict  # THETA_MIN and THETA_MAX -> copula.clayton_log_s's log s there


def _pseudo_obs_vectors(u, v):
    """(u, v) as float64 vectors of one nonempty length; ``copula``'s
    transforms check that they lie in (0, 1)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1 or len(u) == 0:
        raise ValueError("need matching nonempty pseudo-observation vectors")
    return u, v


def fit_transforms(u, v, tail_mode: str) -> FitTransforms:
    """The transforms of the pseudo-observations (u, v) that one fit reads."""
    u, v = _pseudo_obs_vectors(u, v)
    logs = tail_logs(u, v, tail_mode)
    return FitTransforms(normal_scores(u, v), logs,
                         {t: clayton_log_s(logs, t)[0] for t in (THETA_MIN, THETA_MAX)})


def _best(objective, candidates) -> float:
    """The candidate of largest objective; NaN ranks last and ties go to the
    smallest candidate."""
    cand = np.unique(candidates)
    vals = np.array([objective(c) for c in cand])
    return float(cand[int(np.argmax(np.where(np.isnan(vals), -np.inf, vals)))])


def _dot(a, b) -> float:
    """The sum of a * b, on the calling thread: np.dot hands vectors of a
    20,000-pair fit to the threaded BLAS, whose workers then compete with
    the fit's ufuncs for the cores."""
    return float(np.einsum("i,i->", a, b))


def _log_s_sums(tf: FitTransforms, gamma2, theta: float, derivatives: bool):
    """Sums over the points of gamma2 times log s and, with ``derivatives``,
    times its first two derivatives in theta, from ``clayton_log_s``'s p and q:
    (log s)' = (t_hi + p t_lo) / (1 + p q) and
    (log s)'' = (t_hi^2 + p t_lo^2) / (1 + p q) - (log s)'^2.
    log s at the ends of theta's box is the fit's, computed once."""
    if not derivatives and theta in tf.log_s_ends:
        return _dot(gamma2, tf.log_s_ends[theta]), 0.0, 0.0
    t_hi, t_lo, _, _ = tf.logs
    log_s, p, q = clayton_log_s(tf.logs, theta)
    s0 = _dot(gamma2, log_s)
    if not derivatives:
        return s0, 0.0, 0.0
    np.multiply(p, q, out=q)
    q += 1.0
    r = np.divide(gamma2, q, out=log_s)
    tmp = np.multiply(r, t_hi)
    b_hi = _dot(tmp, t_hi)
    np.multiply(p, t_lo, out=p)
    np.multiply(r, p, out=tmp)
    b_lo = _dot(tmp, t_lo)
    p += t_hi
    s1 = _dot(r, p)
    np.multiply(r, p, out=tmp)
    np.divide(p, q, out=q)
    return s0, s1, b_hi + b_lo - _dot(tmp, q)


def _newton_max(terms, x: float, a: float, b: float, xtol: float) -> float:
    """Safeguarded Newton ascent from x to a local maximum on [a, b], with
    ``terms(x)`` the objective and its first two derivatives at x.

    The points whose slope is positive bound the maximum from below and the
    others from above. A step that is not a Newton step of an ascent towards
    a concave peak inside that bracket goes instead to the end it heads for,
    if that is a bound of [a, b] not yet visited, and else bisects the
    bracket; so does a step that turns back towards a visited end and is
    not under half the step before last, which keeps Newton from circling.
    Stops at a bound of [a, b] whose slope points out of it, or once the step
    from x is within tol = sqrt(eps) * |x| + xtol. Then it returns x if the
    step's expected gain, half the slope times the step, does not change the
    objective's value at x, and the point the step reaches if it does.
    """
    lo, hi = a, b
    visited = set()
    step = prev = b - a
    while True:
        q, d1, d2 = terms(x)
        visited.add(x)
        if (x == a and d1 <= 0) or (x == b and d1 >= 0):
            return x
        if d1 > 0:
            lo = x
        else:
            hi = x
        x_new = x - d1 / d2 if d2 < 0 else np.nan
        end = hi if d1 > 0 else lo
        if not (lo < x_new < hi and ((x_new - x) * step > 0 or end not in visited
                                     or abs(x_new - x) <= 0.5 * abs(prev))):
            x_new = end if end not in visited else lo + 0.5 * (hi - lo)
        prev, step = step, x_new - x
        if abs(step) <= _SQRT_EPS * abs(x) + xtol:
            return x if q + 0.5 * d1 * step == q else x_new
        x = x_new


def m_step(tf: FitTransforms, gamma1: np.ndarray, rho_cur: float,
           theta_cur: float):
    """Weight update plus exact maximization of each component term, from
    the fit's transforms ``tf`` and the responsibilities ``gamma1``.

    rho is the best of rho_cur, RHO_MIN, RHO_MAX and the cubic's roots in
    between; theta the best of theta_cur, the bounds THETA_MIN and
    THETA_MAX, and the point safeguarded Newton reaches from theta_cur on the
    objective's analytic derivatives. Newton finds a local maximum, and the
    objective can also peak at a bound, as theta -> 0 approaches the
    independence copula. Each objective value is computed once. Ties go to
    the smaller value.
    """
    gamma1 = np.asarray(gamma1, dtype=np.float64)
    w_new = float(np.mean(gamma1))
    gamma2 = 1.0 - gamma1

    n = len(gamma1)
    x1, x2, x_sq = tf.scores
    g_sq = _dot(gamma1, x_sq) / n
    g_cross = _dot(gamma1 * x1, x2) / n

    def rho_obj(rho):
        r2 = rho * rho
        return -0.5 * np.log1p(-r2) * w_new - (r2 * g_sq - 2 * rho * g_cross) / (
            2 * (1 - r2)
        )

    # The tail term (1/n) sum gamma2 log c(theta), with
    # log c = log1p(theta) + (1 + theta) (t_hi + t_lo) + (-1/theta - 2) log s,
    # and its first two derivatives, from the sums of _log_s_sums.
    c_mass = float(np.mean(gamma2))
    c_tsum = _dot(gamma2, tf.logs[3]) / n
    theta_vals = {}

    def theta_terms(theta, derivatives=True):
        s0, s1, s2 = (s / n for s in _log_s_sums(tf, gamma2, theta, derivatives))
        k = -1 / theta - 2
        theta_vals[theta] = np.log1p(theta) * c_mass + (1 + theta) * c_tsum + k * s0
        return (theta_vals[theta],
                c_mass / (1 + theta) + c_tsum + s0 / theta ** 2 + k * s1,
                -c_mass / (1 + theta) ** 2 - 2 * s0 / theta ** 3 + 2 * s1 / theta ** 2
                + k * s2)

    def theta_obj(theta):
        if theta not in theta_vals:
            theta_terms(theta, derivatives=False)
        return theta_vals[theta]

    # Stationary points of rho_obj, with m = w_new the Gaussian mass:
    # m rho^3 - C rho^2 + (S - m) rho - C = 0.
    # A near-double root can come back as a complex pair; its real part is
    # then one more candidate.
    roots = np.roots([w_new, -g_cross, g_sq - w_new, -g_cross]).real
    rho_new = _best(rho_obj, [rho_cur, RHO_MIN, RHO_MAX,
                              *roots[(roots >= RHO_MIN) & (roots <= RHO_MAX)]])
    theta_start = min(max(theta_cur, THETA_MIN), THETA_MAX)
    theta_new = _best(theta_obj, [theta_cur, THETA_MIN, THETA_MAX,
                                  _newton_max(theta_terms, theta_start, THETA_MIN,
                                              THETA_MAX, THETA_XTOL * THETA_MAX)])
    return w_new, rho_new, theta_new


def fit(u, v, tail_mode: str, config: EmConfig | None = None):
    """Iterate E/M until the log-likelihood change drops below eps, at most MAX_ITERS times.

    Returns ((rho, theta, w), EmTrace). Deterministic given data and config.
    Overflow in the densities shows as a non-finite log-likelihood, which
    raises ArithmeticError.
    """
    config = config or EmConfig()
    tf = fit_transforms(u, v, tail_mode)
    if len(tf.logs[0]) < MIN_PAIRS:
        raise ValueError(f"need at least {MIN_PAIRS} data pairs to fit")

    def evaluate(rho, theta, w):
        logf, gamma1 = mixture_logpdf_at(tf.scores, tf.logs, rho, theta, w)
        ll = float(np.mean(logf))
        if not np.isfinite(ll):
            raise ArithmeticError(f"EM log-likelihood is not finite at theta={theta!r}")
        return ll, gamma1

    rho, theta, w = RHO_START, THETA_START, W_START
    trace = EmTrace()
    with np.errstate(all="ignore"):
        l_prev, gamma1 = evaluate(rho, theta, w)
        trace.rows.append((0, l_prev, rho, theta, w, float(np.mean(gamma1))))
        for q in range(1, MAX_ITERS + 1):
            w, rho, theta = m_step(tf, gamma1, rho, theta)
            l_new, gamma1 = evaluate(rho, theta, w)
            trace.rows.append((q, l_new, rho, theta, w, float(np.mean(gamma1))))
            if abs(l_new - l_prev) < config.eps:
                trace.status = STATUS_CONVERGED
                break
            l_prev = l_new
    return (rho, theta, w), trace
