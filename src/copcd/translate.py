"""Deterministic baseline translation of the pre-event raster into the
post-event modality by per-channel histogram matching. It stands in for a
learned translator (COMIC's CycleGAN), whose output raster the pipeline
takes through ``--translated`` instead.
"""

from __future__ import annotations

import numpy as np

from .raster import Raster


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
    # Each source value's dense rank and the length of each rank's run of
    # ties; -0.0 and 0.0 are one run. A rank's value is the mean of the
    # target slice its run covers in sorted order. A run of one keeps its
    # value, so only the longer runs are summed, by one reduceat whose every
    # other result is a run's sum. ``ndarray.mean`` adds the pairwise sum of
    # a run to 0.0, but reduceat adds the pairwise sum of all but a
    # segment's first value to that value; so each run's segment starts at a
    # 0.0 put before the run. reduceat rejects a final edge equal to the
    # length; a last segment runs to the end.
    _, rank, lengths = np.unique(flat, return_inverse=True, return_counts=True)
    assigned = tgt_sorted.astype(np.float64)
    starts = np.cumsum(lengths) - lengths
    value = assigned[starts]
    tied = lengths > 1
    if tied.any():
        first, run = starts[tied], lengths[tied]
        padded = np.insert(assigned, first, 0.0)
        zero = first + np.arange(first.size)
        edges = np.column_stack([zero, zero + 1 + run]).ravel()
        if edges[-1] == padded.size:
            edges = edges[:-1]
        value[tied] = np.add.reduceat(padded, edges)[::2] / run
    return value[rank].reshape(src.shape)


def translate_baseline(x: Raster, y: Raster) -> Raster:
    """Produce a translated-raster candidate with y's channel count and,
    per channel, y's marginal distribution. Output band c is translated from
    x's band c modulo x's band count."""
    if x.data.shape[:2] != y.data.shape[:2]:
        raise ValueError("raster dimensions differ")
    cx = x.data.shape[2]
    out = np.empty(y.data.shape, dtype=np.float32)
    for c2 in range(out.shape[2]):
        out[:, :, c2] = _match_channel(x.data[:, :, c2 % cx], y.data[:, :, c2])
    return Raster(out)
