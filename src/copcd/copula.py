"""Bivariate Gaussian / Clayton / Clayton-survival copulas, their mixture,
seeded samplers, and the model file (``model.json``) of a fitted model set.

Densities are evaluated in log space, each from the transforms of (u1, u2):
``normal_scores`` for the Gaussian and ``tail_logs`` for the tail copula,
whose survival form is the reflection f_clayton(1-u1, 1-u2) so it stays
consistent with its CDF. ``clayton_log_s`` is the one Clayton kernel: the
density reads it, and so do EM's theta term and its derivatives.
``mixture_logpdf_at`` combines the two components; EM and detection both
evaluate the mixture through it. The Clayton and mixture kernels run their
ufuncs in place on arrays of their own, and none calls np.logaddexp, which
takes about 20 times as long as np.exp. The CDFs and the plain densities
only verify the log densities and live in ``tests/copula_oracle.py``.
"""

from __future__ import annotations

import base64
import json
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.special import ndtr, ndtri

from .dependence import (
    ORIENT_IDENTITY,
    ORIENT_NEGATED,
    TAIL_CLAYTON,
    TAIL_CLAYTON_SURVIVAL,
    EmpiricalCdf,
)

MODEL_VERSION = 2
# The box EM fits (rho, theta) in, and every model record must lie in it.
RHO_MIN, RHO_MAX = 0.01, 0.99
THETA_MIN, THETA_MAX = 0.1, 20.0


def _check_interior(u1, u2):
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    # NaN fails every comparison, so it fails this check.
    if not (((u1 > 0) & (u1 < 1)).all() and ((u2 > 0) & (u2 < 1)).all()):
        raise ValueError("copula density arguments must lie in (0, 1)")
    return u1, u2


def normal_scores(u1, u2):
    """The Gaussian density's transforms of (u1, u2): the normal scores
    x1 = ndtri(u1) and x2 = ndtri(u2), and x1 * x1 + x2 * x2."""
    u1, u2 = _check_interior(u1, u2)
    x1 = ndtri(u1)
    x2 = ndtri(u2)
    return x1, x2, x1 * x1 + x2 * x2


def gaussian_logpdf_at(scores, rho: float):
    """Gaussian copula log density from ``normal_scores``. x1 * x2 is not
    among them: ``2 * rho * x1 * x2`` multiplies from the left."""
    if not -1 < rho < 1:
        raise ValueError("rho must lie in (-1, 1)")
    x1, x2, x_sq = scores
    r2 = rho * rho
    return -0.5 * np.log1p(-r2) - (r2 * x_sq - 2 * rho * x1 * x2) / (2 * (1 - r2))


def log_expm1(x):
    """log(e^x - 1) for x > 0, as log(expm1(x)); only where expm1 overflows
    is it x + log(-expm1(-x)), so every other value keeps its bits."""
    with np.errstate(over="ignore"):
        s = np.expm1(x)
    big = np.isinf(s)
    if not big.any():
        return np.log(s)
    return np.where(big, x + np.log(-np.expm1(-x)), np.log(s))


def tail_logs(u1, u2, tail_mode: str):
    """The tail density's transforms of (u1, u2): t_hi >= t_lo > 0, the larger
    and the smaller of t = -log u (t = -log(1 - u) for the survival copula),
    their gap t_hi - t_lo and their sum t_hi + t_lo."""
    if tail_mode not in (TAIL_CLAYTON, TAIL_CLAYTON_SURVIVAL):
        raise ValueError(f"unknown tail_mode {tail_mode!r}")
    u1, u2 = _check_interior(u1, u2)
    if tail_mode == TAIL_CLAYTON_SURVIVAL:
        u1, u2 = _check_interior(1.0 - u1, 1.0 - u2)
    l1 = np.log(u1)
    l2 = np.log(u2)
    t_hi = -np.minimum(l1, l2)
    t_lo = -np.maximum(l1, l2)
    return t_hi, t_lo, t_hi - t_lo, t_hi + t_lo


def clayton_log_s(logs, theta: float):
    """log s, s = u1^-theta + u2^-theta - 1, from ``tail_logs``, with its parts
    p = e^(-theta (t_hi - t_lo)) and q = -expm1(-theta t_lo). As
    s = e^(theta t_hi) (1 + p q) and p q lies in [0, 1), log s is
    theta t_hi + log1p(p q): three ufuncs that overflow at no theta."""
    if theta <= 0:
        raise ValueError("theta must be > 0")
    t_hi, t_lo, t_gap, _ = logs
    p = np.multiply(t_gap, -theta, out=np.empty_like(t_gap))
    np.exp(p, out=p)
    q = np.multiply(t_lo, -theta, out=np.empty_like(t_lo))
    np.expm1(q, out=q)
    np.negative(q, out=q)
    log_s = np.multiply(p, q, out=np.empty_like(p))
    np.log1p(log_s, out=log_s)
    log_s += theta * t_hi
    return log_s, p, q


def clayton_logpdf_at(logs, theta: float):
    """Clayton copula log density from ``tail_logs``:
    log1p(theta) + (1 + theta) (t_hi + t_lo) + (-1/theta - 2) log s."""
    log_s, _, _ = clayton_log_s(logs, theta)
    out = np.multiply(logs[3], 1 + theta, out=np.empty_like(log_s))
    out += np.log1p(theta)
    log_s *= -1 / theta - 2
    out += log_s
    return out


def mixture_logpdf_at(scores, logs, rho: float, theta: float, w: float):
    """Per point, log(w * f_gaussian + (1-w) * f_tail) and the Gaussian-component
    responsibility gamma_1, from ``normal_scores`` and ``tail_logs`` of the same
    (u1, u2). Each component density is evaluated once: the Gaussian only if
    w > 0, the tail only if w < 1. With a = log w + log f_gaussian and
    b = log(1-w) + log f_tail, log f = max(a, b) + log1p(e^-|a-b|) and
    gamma_1 = e^(a - log f)."""
    if w >= 1.0:
        lg = gaussian_logpdf_at(scores, rho)
        return lg, np.ones_like(lg)
    if w <= 0.0:
        lc = clayton_logpdf_at(logs, theta)
        return lc, np.zeros_like(lc)
    a = gaussian_logpdf_at(scores, rho) + np.log(w)
    b = clayton_logpdf_at(logs, theta)
    b += np.log1p(-w)
    log_f = np.maximum(a, b, out=np.empty_like(b))
    np.minimum(a, b, out=b)
    np.subtract(b, log_f, out=b)  # min(a, b) - max(a, b) = -|a - b|
    np.exp(b, out=b)
    np.log1p(b, out=b)
    log_f += b
    np.subtract(a, log_f, out=b)
    return log_f, np.exp(b, out=b)


@dataclass(frozen=True)
class CopulaMixtureModel:
    """Gaussian + (Clayton | Clayton-survival) mixture for one channel pair."""

    rho: float
    theta: float
    w: float
    tail_mode: str = field(default=TAIL_CLAYTON,
                           metadata={"help": f"{TAIL_CLAYTON} or {TAIL_CLAYTON_SURVIVAL}"})
    orientation: str = ORIENT_IDENTITY
    n_train: int = 0

    def __post_init__(self):
        for name in ("rho", "theta", "w"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 0 <= self.rho < 1:
            raise ValueError("rho must lie in [0, 1)")
        # Past theta ~ 1.8e16 Clayton's tau = theta/(theta+2) rounds to 1: the
        # copula is numerically comonotone, and near 1e308 the theta * log(u)
        # terms of its density overflow, as 1/theta does below theta ~ 5.6e-309.
        if not (self.theta > 0 and 1 / self.theta < np.inf and self.theta / (self.theta + 2) < 1):
            raise ValueError(f"theta must be > 0 with 1/theta finite and theta/(theta+2) < 1, "
                             f"got {self.theta!r}")
        if not 0 <= self.w <= 1:
            raise ValueError("w must lie in [0, 1]")
        if self.tail_mode not in (TAIL_CLAYTON, TAIL_CLAYTON_SURVIVAL):
            raise ValueError(f"unknown tail_mode {self.tail_mode!r}")
        if self.orientation not in (ORIENT_IDENTITY, ORIENT_NEGATED):
            raise ValueError(f"unknown orientation {self.orientation!r}")


def pseudo_obs(u, v, negated: bool, n_train: int):
    """Copula arguments of feature pairs from their values u and v under the
    training ECDFs, one rule for fitting and detection: v reflected to 1 - v
    for a negatively associated pair, both clamped into [delta, 1-delta],
    delta = 1/(2 n_train).
    """
    delta = 1.0 / (2.0 * n_train)
    if negated:
        v = 1.0 - v
    return np.clip(u, delta, 1.0 - delta), np.clip(v, delta, 1.0 - delta)


def joint_logpdf_superpixel(hx, hy, ecdf_x: EmpiricalCdf, ecdf_y: EmpiricalCdf,
                            model: CopulaMixtureModel):
    """Log copula density of a feature pair under a fitted model.

    Marginal pdf factors cancel in the detection statistic and are never
    estimated; only the copula factor appears here.
    """
    if model.n_train < 1:
        raise ValueError("model has no training-set size")
    u, v = pseudo_obs(ecdf_x(hx), ecdf_y(hy), model.orientation == ORIENT_NEGATED,
                      model.n_train)
    return mixture_logpdf_at(normal_scores(u, v), tail_logs(u, v, model.tail_mode),
                             model.rho, model.theta, model.w)[0]


def _clayton_conditional_inverse(u: np.ndarray, p: np.ndarray, theta: float):
    # v = (u^-t * (p^(-t/(1+t)) - 1) + 1)^(-1/t), stable for small t. Only
    # where u^-t * expm1(a) overflows is its log1p taken as a logaddexp, so
    # every other value keeps its bits.
    a = -theta / (1 + theta) * np.log(p)
    with np.errstate(over="ignore"):
        log1p_inner = np.log1p(np.exp(-theta * np.log(u)) * np.expm1(a))
    big = np.isinf(log1p_inner)
    if big.any():
        log1p_inner = np.where(big, np.logaddexp(0.0, -theta * np.log(u) + log_expm1(a)),
                               log1p_inner)
    return np.exp((-1.0 / theta) * log1p_inner)


def conditional_sample(model: CopulaMixtureModel, u: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """Draw v ~ mixture conditional on the first coordinate u.

    For uniform u this reproduces the joint mixture law; it lets callers
    control the spatial structure of u independently of the dependence.
    """
    u = np.asarray(u, dtype=np.float64)
    pick_gauss = rng.random(u.shape) < model.w
    z1 = rng.standard_normal(u.shape)
    vg = ndtr(model.rho * ndtri(u) + np.sqrt(1 - model.rho ** 2) * z1)
    p = rng.random(u.shape)
    if model.tail_mode == TAIL_CLAYTON_SURVIVAL:
        vc = 1.0 - _clayton_conditional_inverse(1.0 - u, p, model.theta)
    else:
        vc = _clayton_conditional_inverse(u, p, model.theta)
    v = np.where(pick_gauss, vg, vc)
    eps = np.finfo(np.float64).tiny
    return np.clip(v, eps, 1 - 1e-16)


def sample_mixture(model: CopulaMixtureModel, n: int, seed: int):
    """n i.i.d. draws from the mixture in (0,1)^2, deterministic per seed: the
    Gaussian pairs from correlated normals, the Clayton pairs by conditional
    inversion, stable for small theta."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    pick_gauss = rng.random(n) < model.w
    z = rng.standard_normal((n, 2))
    gu = ndtr(z[:, 0])
    gv = ndtr(model.rho * z[:, 0] + np.sqrt(1 - model.rho * model.rho) * z[:, 1])
    cu = rng.random(n)
    cv = _clayton_conditional_inverse(cu, rng.random(n), model.theta)
    if model.tail_mode == TAIL_CLAYTON_SURVIVAL:
        cu, cv = 1.0 - cu, 1.0 - cv
    u = np.where(pick_gauss, gu, cu)
    v = np.where(pick_gauss, gv, cv)
    eps = np.finfo(np.float64).tiny
    return np.clip(u, eps, 1 - 1e-16), np.clip(v, eps, 1 - 1e-16)


@dataclass(frozen=True)
class ChannelPairModels:
    """Complete grid of fitted models and their training marginals; the grid
    is cx x cy, the numbers of X's and of Y's ECDFs."""

    models: dict  # (c1, c2) 1-based -> CopulaMixtureModel
    ecdfs_x: tuple  # per channel of X
    ecdfs_y: tuple  # per channel of Y'

    @property
    def cx(self) -> int:
        return len(self.ecdfs_x)

    @property
    def cy(self) -> int:
        return len(self.ecdfs_y)

    def __post_init__(self):
        expect = {(c1, c2) for c1 in range(1, self.cx + 1) for c2 in range(1, self.cy + 1)}
        if set(self.models) != expect:
            raise ValueError(f"channel-pair model grid is not exactly {self.cx} x {self.cy}")

    def to_json(self) -> str:
        """The whole model: parameters per pair and each channel's sorted
        training column, so ``load_model_set`` needs no training data. A pair
        record holds the model's fields in field order."""
        recs = {f"{c1},{c2}": asdict(m) for (c1, c2), m in sorted(self.models.items())}
        return json.dumps({
            "version": MODEL_VERSION, "cx": self.cx, "cy": self.cy, "pairs": recs,
            "x": [encode_column(e.sorted) for e in self.ecdfs_x],
            "y": [encode_column(e.sorted) for e in self.ecdfs_y],
        }, indent=2)


def encode_column(values) -> str:
    """Base64 of the little-endian float64 bytes: exact, and far cheaper to
    write and parse than JSON floats at tens of thousands of values."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def decode_column(text) -> np.ndarray:
    """Inverse of ``encode_column``; ValueError on bad base64 or a byte count
    that is not a multiple of 8."""
    return np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8")


def _training_ecdfs(doc: dict, key: str, count_key: str) -> tuple:
    columns = doc.get(key)
    if not isinstance(columns, list) or len(columns) != doc.get(count_key):
        raise ValueError(f"model field {key!r} must list {count_key} = "
                         f"{doc.get(count_key)!r} training columns")
    try:
        return tuple(EmpiricalCdf(decode_column(text)) for text in columns)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model field {key!r}: {exc}") from None


def _pair_model(rec: dict, lengths: set) -> CopulaMixtureModel:
    n_train = rec["n_train"]
    if isinstance(n_train, bool) or not isinstance(n_train, int) or {n_train} != lengths:
        raise ValueError(f"n_train must be an integer equal to the length of every "
                         f"training column {sorted(lengths)}, got {n_train!r}")
    model = CopulaMixtureModel(**{f.name: rec[f.name] for f in fields(CopulaMixtureModel)})
    for name, lo, hi in (("rho", RHO_MIN, RHO_MAX), ("theta", THETA_MIN, THETA_MAX)):
        if not lo <= getattr(model, name) <= hi:
            raise ValueError(f"{name} must lie in [{lo}, {hi}], got {getattr(model, name)!r}")
    return model


def load_model_set(path: str) -> ChannelPairModels:
    """Read a model file written by ``ChannelPairModels.to_json``.

    A file of another version (a parameters-only file included), a cx or cy
    that is not a positive int, a column count that differs from cx/cy, a
    malformed column or record, an n_train other than the length of the
    training columns, a rho or theta outside the box EM fits in, or pair
    keys other than exactly the ``"c1,c2"`` spellings of the cx x cy grid
    raises ValueError naming the field.
    """
    with open(path) as fh:
        doc = json.load(fh)
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != MODEL_VERSION:
        raise ValueError(f"model field 'version' must be {MODEL_VERSION}, got {version!r}; "
                         "refit the model with this version of copcd")
    for key in ("cx", "cy"):
        value = doc.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"model field {key!r} must be a positive int, got {value!r}")
    ecdfs_x = _training_ecdfs(doc, "x", "cx")
    ecdfs_y = _training_ecdfs(doc, "y", "cy")
    lengths = {e.n for e in ecdfs_x + ecdfs_y}
    pairs = doc.get("pairs")
    if not isinstance(pairs, dict):
        raise ValueError("model field 'pairs' must be an object")
    grid = [(c1, c2) for c1 in range(1, doc["cx"] + 1) for c2 in range(1, doc["cy"] + 1)]
    keys = {f"{c1},{c2}" for c1, c2 in grid}
    if set(pairs) != keys:
        raise ValueError(f"model field 'pairs' must have the 'c1,c2' keys of the cx x cy grid: "
                         f"missing {sorted(keys - set(pairs))}, extra {sorted(set(pairs) - keys)}")
    try:
        models = {(c1, c2): _pair_model(pairs[f"{c1},{c2}"], lengths) for c1, c2 in grid}
        return ChannelPairModels(models, ecdfs_x, ecdfs_y)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"model field 'pairs': {exc}") from None
