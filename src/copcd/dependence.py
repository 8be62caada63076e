"""Rank-based dependence measures: Kendall's tau, empirical CDFs and
nonparametric tail-dependence estimates.

Kendall's tau is exact, counted by a bottom-up merge with one sort per
level. It depends on ranks alone, and takes integer ranks in [0, n) as they
are, so a column ranked once serves every channel pair it belongs to.
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


def _ranks(a: np.ndarray, n: int):
    """Ranks of the n values of ``a`` in [0, n), ordered and tied like the
    values, and the sizes of the tie groups (zero sizes allowed). Integers
    already in [0, n), such as dense ranks, are their own ranks and are only
    counted; any other input is ranked by ``np.unique``, where -0.0 == 0.0.
    """
    if a.dtype.kind in "iu" and a.min() >= 0 and a.max() < n:
        a = a.astype(np.int64, copy=False)
        return a, np.bincount(a)
    a = a.astype(np.float64)
    if not np.isfinite(a).all():
        raise ValueError("x and y must be finite")
    _, r, counts = np.unique(a, return_inverse=True, return_counts=True)
    return r, counts


def _strict_inversions(r: np.ndarray) -> int:
    """Pairs i < j with r[i] > r[j], for integer ranks r in [0, n), n <= 2**31.

    Bottom-up merge sort with one ``np.sort`` per level. At width w = 2**s
    the keys are sorted within each w-block. The key
    (((block << bits) | rank) << 1) | right, with block = pos >> (s + 1) the
    2w-block, ``bits`` the width of a rank and right = 1 in the block's
    second half, merges every 2w-block at once and puts a left rank before
    an equal right rank; plain integers need no stable sort. Each block
    keeps its positions, and every block with a right half has a full left
    half of w. So the k-th right element (k from 0 over all blocks), at
    sorted position p in block b, has (b + 1) * w - p + k larger left ranks:
    the level adds sum((b + 1) * w) - sum(p) + K(K - 1)/2 over its K right
    elements, and only sum(p), a dot product, needs the keys. Keys stay
    below 2**(2 * bits) and sum(p) below n**2 / 2: int32 holds both up to
    n = 2**15, int64 up to n = 2**31.
    """
    n = len(r)
    bits = max(n - 1, 1).bit_length()
    dtype = np.int32 if bits <= 15 else np.int64
    rank_mask = ((1 << bits) - 1) << 1
    pos = np.arange(n, dtype=dtype)
    keys = r.astype(dtype) << 1
    total = 0
    s = 0
    while (1 << s) < n:
        w = 1 << s
        keys = np.sort((keys & rank_mask) | ((pos >> (s + 1)) << (bits + 1))
                       | ((pos >> s) & 1))
        full = n >> (s + 1)  # 2w-blocks with a full right half
        last = max(0, n - (full << (s + 1)) - w)  # right elements of a partial block
        k = full * w + last
        total += (w * (w * full * (full + 1) // 2 + last * (full + 1))
                  - int(np.dot(keys & 1, pos)) + k * (k - 1) // 2)
        s += 1
    return total


def kendall_tau(x, y) -> float:
    """Concordance statistic: (concordant - discordant) / (N(N-1)/2).

    Tied pairs contribute zero to the numerator but stay in the denominator.
    Exact in O(N log N) (Knight 1966): with n1, n2, n3 the pairs tied in x,
    in y and in both, and D the discordant pairs, the numerator is the
    integer N(N-1)/2 - n1 - n2 + n3 - 2D. D is the number of strict
    inversions of y's ranks once the pairs are sorted by (x, y). Tau depends
    on the ranks alone, so integer ranks in [0, N) give the tau of the
    values they rank, without another sort.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D vectors of equal length")
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 samples")
    rx, counts_x = _ranks(x, n)
    ry, counts_y = _ranks(y, n)
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
