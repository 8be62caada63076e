"""Bivariate Gaussian / Clayton / Clayton-survival copulas, their mixture,
seeded samplers, and the model file (``model.json``) of a fitted model set.

Densities are evaluated in log space; the Clayton-survival density is the
reflection f_clayton(1-u1, 1-u2) so it stays consistent with its CDF. The
CDFs only verify the densities and live in ``tests/copula_oracle.py``.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .dependence import (
    ORIENT_IDENTITY,
    ORIENT_NEGATED,
    TAIL_CLAYTON,
    TAIL_CLAYTON_SURVIVAL,
    EmpiricalCdf,
)

LOG_FLOOR = 1e-300
MODEL_VERSION = 2


def _check_interior(u1, u2):
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    if (u1 <= 0).any() or (u1 >= 1).any() or (u2 <= 0).any() or (u2 >= 1).any():
        raise ValueError("copula density arguments must lie in (0, 1)")
    return u1, u2


def gaussian_logpdf(u1, u2, rho: float):
    u1, u2 = _check_interior(u1, u2)
    if not -1 < rho < 1:
        raise ValueError("rho must lie in (-1, 1)")
    x1 = ndtri(u1)
    x2 = ndtri(u2)
    r2 = rho * rho
    return -0.5 * np.log1p(-r2) - (r2 * (x1 * x1 + x2 * x2) - 2 * rho * x1 * x2) / (
        2 * (1 - r2)
    )


def gaussian_density(u1, u2, rho: float):
    return np.exp(gaussian_logpdf(u1, u2, rho))


def log_expm1(x):
    """log(e^x - 1) for x > 0, as log(expm1(x)); only where expm1 overflows
    is it x + log(-expm1(-x)), so every other value keeps its bits."""
    with np.errstate(over="ignore"):
        s = np.expm1(x)
    big = np.isinf(s)
    if not big.any():
        return np.log(s)
    return np.where(big, x + np.log(-np.expm1(-x)), np.log(s))


def clayton_logpdf(u1, u2, theta: float):
    u1, u2 = _check_interior(u1, u2)
    if theta <= 0:
        raise ValueError("theta must be > 0")
    l1 = np.log(u1)
    l2 = np.log(u2)
    # s = u1^-t + u2^-t - 1, computed via log terms to survive small u.
    log_sum = log_expm1(np.logaddexp(-theta * l1, -theta * l2))
    return np.log1p(theta) + (-1 - theta) * (l1 + l2) + (-1 / theta - 2) * log_sum


def clayton_density(u1, u2, theta: float):
    return np.exp(clayton_logpdf(u1, u2, theta))


def sclayton_logpdf(u1, u2, theta: float):
    u1, u2 = _check_interior(u1, u2)
    return clayton_logpdf(1.0 - u1, 1.0 - u2, theta)


def sclayton_density(u1, u2, theta: float):
    return np.exp(sclayton_logpdf(u1, u2, theta))


@dataclass(frozen=True)
class CopulaMixtureModel:
    """Gaussian + (Clayton | Clayton-survival) mixture for one channel pair."""

    rho: float
    theta: float
    w: float
    tail_mode: str = TAIL_CLAYTON
    orientation: str = ORIENT_IDENTITY
    n_train: int = 0

    def __post_init__(self):
        if not 0 <= self.rho < 1:
            raise ValueError("rho must lie in [0, 1)")
        if self.theta <= 0:
            raise ValueError("theta must be > 0")
        if not 0 <= self.w <= 1:
            raise ValueError("w must lie in [0, 1]")
        if self.tail_mode not in (TAIL_CLAYTON, TAIL_CLAYTON_SURVIVAL):
            raise ValueError(f"unknown tail_mode {self.tail_mode!r}")
        if self.orientation not in (ORIENT_IDENTITY, ORIENT_NEGATED):
            raise ValueError(f"unknown orientation {self.orientation!r}")

    def to_record(self) -> dict:
        return {
            "rho": self.rho,
            "theta": self.theta,
            "w": self.w,
            "tail_mode": self.tail_mode,
            "orientation": self.orientation,
            "n_train": self.n_train,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "CopulaMixtureModel":
        return cls(**{k: rec[k] for k in
                      ("rho", "theta", "w", "tail_mode", "orientation", "n_train")})


def tail_logpdf(u1, u2, theta: float, tail_mode: str):
    if tail_mode == TAIL_CLAYTON:
        return clayton_logpdf(u1, u2, theta)
    if tail_mode == TAIL_CLAYTON_SURVIVAL:
        return sclayton_logpdf(u1, u2, theta)
    raise ValueError(f"unknown tail_mode {tail_mode!r}")


def mixture_logpdf_params(u1, u2, rho: float, theta: float, w: float, tail_mode: str):
    """log(w * f_gaussian + (1-w) * f_tail), stable in log space."""
    if w >= 1.0:
        return gaussian_logpdf(u1, u2, rho)
    if w <= 0.0:
        return tail_logpdf(u1, u2, theta, tail_mode)
    lg = gaussian_logpdf(u1, u2, rho)
    lc = tail_logpdf(u1, u2, theta, tail_mode)
    return np.logaddexp(np.log(w) + lg, np.log1p(-w) + lc)


def mixture_density(u1, u2, model: CopulaMixtureModel):
    return np.exp(mixture_logpdf_params(u1, u2, model.rho, model.theta, model.w,
                                        model.tail_mode))


def clamp_pseudo_obs(u, n_train: int):
    delta = 1.0 / (2.0 * n_train)
    return np.clip(u, delta, 1.0 - delta)


def joint_logpdf_superpixel(hx, hy, ecdf_x: EmpiricalCdf, ecdf_y: EmpiricalCdf,
                            model: CopulaMixtureModel):
    """Log copula density of a feature pair under a fitted model.

    Marginal pdf factors cancel in the detection statistic and are never
    estimated; only the copula factor appears here. Pseudo-observations are
    clamped into [delta, 1-delta] with delta = 1/(2 * n_train).
    """
    if model.n_train < 1:
        raise ValueError("model has no training-set size")
    u = clamp_pseudo_obs(np.asarray(ecdf_x(hx)), model.n_train)
    v = np.asarray(ecdf_y(hy))
    if model.orientation == ORIENT_NEGATED:
        v = 1.0 - v
    v = clamp_pseudo_obs(v, model.n_train)
    return mixture_logpdf_params(u, v, model.rho, model.theta, model.w, model.tail_mode)


def sample_gaussian_pairs(rho: float, n: int, rng: np.random.Generator):
    z = rng.standard_normal((n, 2))
    x1 = z[:, 0]
    x2 = rho * z[:, 0] + np.sqrt(1 - rho * rho) * z[:, 1]
    return ndtr(x1), ndtr(x2)


def sample_clayton_pairs(theta: float, n: int, rng: np.random.Generator):
    """Conditional-inversion Clayton sampler, stable for small theta."""
    u = rng.random(n)
    return u, _clayton_conditional_inverse(u, rng.random(n), theta)


def _clayton_conditional_inverse(u: np.ndarray, p: np.ndarray, theta: float):
    # v = (u^-t * (p^(-t/(1+t)) - 1) + 1)^(-1/t), stable for small t
    inner_m1 = np.exp(-theta * np.log(u)) * np.expm1(-theta / (1 + theta) * np.log(p))
    return np.exp((-1.0 / theta) * np.log1p(inner_m1))


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
    """n i.i.d. draws from the mixture in (0,1)^2, deterministic per seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    pick_gauss = rng.random(n) < model.w
    gu, gv = sample_gaussian_pairs(model.rho, n, rng)
    cu, cv = sample_clayton_pairs(model.theta, n, rng)
    if model.tail_mode == TAIL_CLAYTON_SURVIVAL:
        cu, cv = 1.0 - cu, 1.0 - cv
    u = np.where(pick_gauss, gu, cu)
    v = np.where(pick_gauss, gv, cv)
    eps = np.finfo(np.float64).tiny
    return np.clip(u, eps, 1 - 1e-16), np.clip(v, eps, 1 - 1e-16)


@dataclass(frozen=True)
class ChannelPairModels:
    """Complete grid of fitted models and their training marginals."""

    cx: int
    cy: int
    models: dict  # (c1, c2) 1-based -> CopulaMixtureModel
    ecdfs_x: tuple  # per channel of X
    ecdfs_y: tuple  # per channel of Y'

    def __post_init__(self):
        expect = {(c1, c2) for c1 in range(1, self.cx + 1) for c2 in range(1, self.cy + 1)}
        if set(self.models) != expect:
            raise ValueError(f"channel-pair model grid is not exactly {self.cx} x {self.cy}")

    def model(self, c1: int, c2: int) -> CopulaMixtureModel:
        return self.models[(c1, c2)]

    def to_json(self) -> str:
        """The whole model: parameters per pair and each channel's sorted
        training column, so ``load_model_set`` needs no training data."""
        recs = {f"{c1},{c2}": m.to_record() for (c1, c2), m in sorted(self.models.items())}
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


def load_model_set(path: str) -> ChannelPairModels:
    """Read a model file written by ``ChannelPairModels.to_json``.

    A file of another version (a parameters-only file included), a column
    count that differs from cx/cy, a malformed column or record, or a pair
    grid that is not exactly cx x cy raises ValueError naming the field.
    """
    with open(path) as fh:
        doc = json.load(fh)
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != MODEL_VERSION:
        raise ValueError(f"model field 'version' must be {MODEL_VERSION}, got {version!r}; "
                         "refit the model with this version of copcd")
    ecdfs_x = _training_ecdfs(doc, "x", "cx")
    ecdfs_y = _training_ecdfs(doc, "y", "cy")
    try:
        models = {tuple(int(t) for t in key.split(",")): CopulaMixtureModel.from_record(rec)
                  for key, rec in doc["pairs"].items()}
        return ChannelPairModels(cx=doc["cx"], cy=doc["cy"], models=models,
                                 ecdfs_x=ecdfs_x, ecdfs_y=ecdfs_y)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"model field 'pairs': {exc}") from None
