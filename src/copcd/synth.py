"""Synthetic heterogeneous image pairs with known dependence structure.

Each channel starts from a spatially smooth standardized Gaussian base
field. The pre-event latent is its uniform transform; the post-event latent
is drawn per pixel from the chosen copula mixture conditional on the base,
so every pixel pair follows the mixture law exactly while the conditional
noise stays white. Changed pixels redraw the post-event latent from an
independent base field, which keeps the marginals intact but destroys the
dependence. Both latent fields are smoothed with a 5x5 box filter for
superpixel coherence and pushed through fixed monotone warps, a different
one per modality, so the pair looks heterogeneous while the rank dependence
survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import uniform_filter
from scipy.special import ndtr

from .copula import CopulaMixtureModel, conditional_sample
from .raster import Raster

SHAPE_RECTANGLE = "rectangle"
SHAPE_BLOBS = "blobs"
_BOX = 5
_BASE_SCALE = 9
_CHANGE_DARKEN = 0.1
_BG_FLOOR = 0.4
# 255 * noise_sigma times a normal draw then stays far inside float32's range.
_NOISE_SIGMA_MAX = 1e30


@dataclass(frozen=True)
class SynthConfig:
    m: int = 128
    n: int = 128
    cx: int = 1
    cy: int = 1
    model: CopulaMixtureModel = field(
        default_factory=lambda: CopulaMixtureModel(rho=0.8, theta=1.0, w=1.0, n_train=1))
    change_fraction: float = 0.1
    change_shape: str = field(default=SHAPE_RECTANGLE,
                              metadata={"help": f"{SHAPE_RECTANGLE} or {SHAPE_BLOBS}"})
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("m", "n", "cx", "cy"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if not 0 <= self.change_fraction < 1:
            raise ValueError("change_fraction must lie in [0, 1)")
        if self.change_shape not in (SHAPE_RECTANGLE, SHAPE_BLOBS):
            raise ValueError(f"unknown change_shape {self.change_shape!r}")
        if not 0 <= self.noise_sigma <= _NOISE_SIGMA_MAX:
            raise ValueError(f"noise_sigma must be in [0, {_NOISE_SIGMA_MAX:g}], "
                             f"got {self.noise_sigma!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


def _change_mask(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    mask = np.zeros((cfg.m, cfg.n), dtype=bool)
    target = int(np.floor(cfg.change_fraction * cfg.m * cfg.n))
    if target == 0:
        return mask
    if cfg.change_shape == SHAPE_RECTANGLE:
        h = max(1, min(cfg.m, int(round(np.sqrt(target * cfg.m / cfg.n)))))
        w = max(1, min(cfg.n, int(round(target / h))))
        top = int(rng.integers(0, cfg.m - h + 1))
        left = int(rng.integers(0, cfg.n - w + 1))
        mask[top:top + h, left:left + w] = True
        return mask
    yy, xx = np.mgrid[0:cfg.m, 0:cfg.n]
    while mask.sum() < target:
        cy_ = rng.integers(0, cfg.m)
        cx_ = rng.integers(0, cfg.n)
        radius = rng.integers(3, max(4, min(cfg.m, cfg.n) // 6))
        mask |= (yy - cy_) ** 2 + (xx - cx_) ** 2 <= radius ** 2
    return mask


def _smooth_base(rng: np.random.Generator, shape) -> np.ndarray:
    """Spatially smooth field with (approximately) standard normal pixels."""
    smooth = uniform_filter(rng.standard_normal(shape), size=_BASE_SCALE,
                            mode="reflect")
    sd = smooth.std()
    if sd == 0:  # single-pixel image
        return np.zeros(shape)
    return (smooth - smooth.mean()) / sd


def latent_pair(model: CopulaMixtureModel, shape,
                rng: np.random.Generator):
    """Unchanged-law latent fields (u, v): per pixel, (u, v) ~ model."""
    base = _smooth_base(rng, shape)
    u = np.clip(ndtr(base), np.finfo(np.float64).tiny, 1 - 1e-16)
    v = conditional_sample(model, u, rng)
    return u, v


def _warp_x(u: np.ndarray) -> np.ndarray:
    return u * 255.0


def _warp_y(v: np.ndarray) -> np.ndarray:
    s = 1.0 / (1.0 + np.exp(-v))
    lo = 0.5  # sigmoid(0)
    hi = 1.0 / (1.0 + np.exp(-1.0))
    return (s - lo) / (hi - lo) * 255.0


def generate_pair(cfg: SynthConfig):
    """Returns (Raster X, Raster Y, ground-truth uint8 map), reproducible
    from cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    mask = _change_mask(cfg, rng)
    shape = (cfg.m, cfg.n)

    x_chans = []
    y_chans = []
    for ch in range(max(cfg.cx, cfg.cy)):
        rng_ch = np.random.default_rng(cfg.seed * 7919 + 31 * ch + 1)
        u, v = latent_pair(cfg.model, shape, rng_ch)
        # affine latent compression: copula and ranks untouched, but the
        # background occupies a mid-to-bright band distinct from changes
        u = _BG_FLOOR + (1 - _BG_FLOOR) * u
        v = _BG_FLOOR + (1 - _BG_FLOOR) * v
        # changed pixels: independent of u and radiometrically shifted, the
        # way real events (floods, burns) replace content rather than merely
        # reshuffling it
        _, v_indep = latent_pair(cfg.model, shape, rng_ch)
        v = np.where(mask, _CHANGE_DARKEN * v_indep, v)
        u_s = uniform_filter(u, size=_BOX, mode="reflect")
        v_s = uniform_filter(v, size=_BOX, mode="reflect")
        if ch < cfg.cx:
            x_chans.append(_warp_x(u_s))
        if ch < cfg.cy:
            y_chans.append(_warp_y(v_s))

    x = np.stack(x_chans, axis=2)
    y = np.stack(y_chans, axis=2)
    if cfg.noise_sigma > 0:
        x = x + rng.normal(0.0, cfg.noise_sigma * 255.0, x.shape)
        y = y + rng.normal(0.0, cfg.noise_sigma * 255.0, y.shape)
    gt = mask.astype(np.uint8)
    return (
        Raster(x.astype(np.float32)),
        Raster(y.astype(np.float32)),
        gt,
    )
