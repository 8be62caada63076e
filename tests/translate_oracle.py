"""Reference histogram matcher: the loop ``copcd.translate._match_channel``
replaced, which averages the target values of each run of tied source values
with ``ndarray.mean``, one run at a time. A run of one keeps its value (the
mean of a lone -0.0 would be 0.0)."""

import numpy as np


def match_channel(src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    flat = src.ravel()
    tgt_sorted = np.sort(tgt.ravel())
    if flat.min() == flat.max():
        return np.full_like(flat, np.median(tgt_sorted)).reshape(src.shape)
    order = np.argsort(flat, kind="stable")
    assigned = tgt_sorted.astype(np.float64)
    sorted_src = flat[order]
    boundaries = np.flatnonzero(np.diff(sorted_src) != 0) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(flat)]])
    tied = ends - starts > 1
    for a, b in zip(starts[tied].tolist(), ends[tied].tolist()):
        assigned[a:b] = assigned[a:b].mean()
    out = np.empty(len(flat), dtype=np.float64)
    out[order] = assigned
    return out.reshape(src.shape)
