"""Deterministic baseline translation of the pre-event raster into the
post-event modality: per-channel histogram matching (default) or a
rank-aligned affine fit. A learned translator can replace this entirely by
supplying its output raster to the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import Raster

METHOD_HISTOGRAM = "histogram_match"
METHOD_LINEAR = "linear_regress"


@dataclass(frozen=True)
class TranslationSpec:
    method: str = METHOD_HISTOGRAM

    def __post_init__(self):
        if self.method not in (METHOD_HISTOGRAM, METHOD_LINEAR):
            raise ValueError(f"unknown translation method {self.method!r}")


def _match_channel(src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """Map src values onto tgt's empirical distribution by rank.

    Tied source values all receive the mean of their target slice, so the
    output depends only on values, not pixel order. A constant source maps
    to the target median.
    """
    flat = src.ravel()
    tgt_sorted = np.sort(tgt.ravel())
    if flat.min() == flat.max():
        return np.full_like(flat, np.median(tgt_sorted)).reshape(src.shape)
    order = np.argsort(flat, kind="stable")
    assigned = tgt_sorted.astype(np.float64).copy()
    sorted_src = flat[order]
    # Average target values over runs of tied source values.
    boundaries = np.flatnonzero(np.diff(sorted_src) != 0) + 1
    for a, b in zip(np.concatenate([[0], boundaries]),
                    np.concatenate([boundaries, [len(flat)]])):
        if b - a > 1:
            assigned[a:b] = assigned[a:b].mean()
    out = np.empty(len(flat), dtype=np.float64)
    out[order] = assigned
    return out.reshape(src.shape)


def _affine_channel(src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """Least-squares affine map of rank-aligned samples."""
    s = np.sort(src.ravel()).astype(np.float64)
    t = np.sort(tgt.ravel()).astype(np.float64)
    var = np.var(s)
    if var == 0:
        return np.full_like(src, t.mean(), dtype=np.float64)
    a = np.cov(s, t, bias=True)[0, 1] / var
    b = t.mean() - a * s.mean()
    return a * src.astype(np.float64) + b


def translate_baseline(x: Raster, y: Raster, spec: TranslationSpec | None = None) -> Raster:
    """Produce a translated-raster candidate with y's channel count and,
    per channel, y's marginal distribution. Output band c is translated from
    source band c % x.channels."""
    spec = spec or TranslationSpec()
    if (x.height, x.width) != (y.height, y.width):
        raise ValueError("raster dimensions differ")
    out = np.empty((x.height, x.width, y.channels), dtype=np.float64)
    for c2 in range(y.channels):
        src = x.data[:, :, c2 % x.channels]
        tgt = y.data[:, :, c2]
        if spec.method == METHOD_HISTOGRAM:
            out[:, :, c2] = _match_channel(src, tgt)
        else:
            out[:, :, c2] = _affine_channel(src, tgt)
    return Raster(x.height, x.width, y.channels, out.astype(np.float32))
