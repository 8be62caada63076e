"""Rank-based dependence measures: Kendall's tau, empirical CDFs and
nonparametric tail-dependence estimates.
"""

from __future__ import annotations

import numpy as np

TAIL_CLAYTON = "clayton"
TAIL_CLAYTON_SURVIVAL = "clayton_survival"
ORIENT_IDENTITY = "identity"
ORIENT_NEGATED = "negated"


def _tied_pairs(counts) -> int:
    """Pairs inside tie groups of the given sizes: sum of t(t-1)/2."""
    return int((counts * (counts - 1) // 2).sum())


def _strict_inversions(r: np.ndarray) -> int:
    """Pairs i < j with r[i] > r[j], for integer ranks r in [0, n).

    Bottom-up merge sort: at block width w, ``cur`` is sorted within each
    w-block. Tagging a rank with its 2w-block as ``block * n + rank`` makes
    all left halves one sorted array, so each right-half element counts the
    larger ranks in its own left half with two binary searches.
    """
    n = len(r)
    pos = np.arange(n)
    cur = r.astype(np.int64)
    total = 0
    w = 1
    while w < n:
        offset = (pos // (2 * w)) * n
        keys = cur + offset
        left = (pos & w) == 0
        left_keys = keys[left]
        right_keys = keys[~left]
        block_ends = np.searchsorted(left_keys, offset[~left] + n)
        total += int((block_ends - np.searchsorted(left_keys, right_keys, side="right")).sum())
        cur = np.sort(keys, kind="stable") - offset
        w *= 2
    return total


def kendall_tau(x, y) -> float:
    """Concordance statistic: (concordant - discordant) / (N(N-1)/2).

    Tied pairs contribute zero to the numerator but stay in the denominator.
    Exact in O(N log N) (Knight 1966): with n1, n2, n3 the pairs tied in x,
    in y and in both, and D the discordant pairs, the numerator is the
    integer N(N-1)/2 - n1 - n2 + n3 - 2D. D is the number of strict
    inversions of y's ranks once the pairs are sorted by (x, y).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D vectors of equal length")
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 samples")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite")
    # Dense ranks compare like the values (-0.0 == 0.0) and sort exactly.
    _, rx, counts_x = np.unique(x, return_inverse=True, return_counts=True)
    _, ry, counts_y = np.unique(y, return_inverse=True, return_counts=True)
    joint = np.sort(rx * n + ry)
    counts_xy = np.unique(joint, return_counts=True)[1]
    discordant = _strict_inversions(joint % n)
    num = (n * (n - 1) // 2 - _tied_pairs(counts_x) - _tied_pairs(counts_y)
           + _tied_pairs(counts_xy) - 2 * discordant)
    return 2.0 * num / (n * (n - 1))


class EmpiricalCdf:
    """Right-continuous empirical CDF: F(h) = #{samples <= h} / N."""

    def __init__(self, samples):
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 1 or len(samples) == 0:
            raise ValueError("samples must be a nonempty 1-D vector")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        self.sorted = np.sort(samples)
        self.n = len(samples)

    def __call__(self, h):
        return np.searchsorted(self.sorted, np.asarray(h, dtype=np.float64),
                               side="right") / self.n


def tail_dependence(u, v):
    """Empirical lower/upper tail-dependence estimates from pseudo-observations,
    clipped to [0, 1].

    Uses k = floor(sqrt(N)) corner cells of width k/N; comparisons are
    inclusive.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("u and v must be 1-D vectors of equal length")
    n = len(u)
    if n < 4:
        raise ValueError("need at least 4 samples")
    if not (((u >= 0) & (u <= 1)).all() and ((v >= 0) & (v <= 1)).all()):  # NaN fails
        raise ValueError("pseudo-observations must lie in [0, 1]")
    k = int(np.floor(np.sqrt(n)))
    t = k / n
    lower = np.count_nonzero((u <= t) & (v <= t)) / k
    upper = np.count_nonzero((u >= 1 - t) & (v >= 1 - t)) / k
    return float(np.clip(lower, 0.0, 1.0)), float(np.clip(upper, 0.0, 1.0))
