"""Two Kendall tau oracles.

``kendall_tau`` enumerates every pair: the sum of
sign(x_i - x_j) * sign(y_i - y_j) over i < j. O(n^2) time, in blocks of
256 rows to bound memory, but it states the definition plainly, so the
tests compare ``copcd.dependence.kendall_tau`` against it with exact ``==``.
The signs are taken before they are multiplied, so a product that would
underflow to 0 cannot hide a concordant pair.

``strict_inversions`` counts discordant pairs for n too large to enumerate:
the merge count that ``copcd.dependence._strict_inversions`` replaced, with
two binary searches and a stable sort per merge level.
"""

import numpy as np

_CHUNK = 256


def kendall_tau(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    num = 0
    for start in range(0, n - 1, _CHUNK):
        rows = np.arange(start, min(start + _CHUNK, n - 1))
        s = np.sign(x[rows, None] - x[None, :]) * np.sign(y[rows, None] - y[None, :])
        # Only pairs j > i count.
        num += int(s[np.arange(n)[None, :] > rows[:, None]].sum())
    return 2.0 * num / (n * (n - 1))


def strict_inversions(r) -> int:
    """Pairs i < j with r[i] > r[j], for integer ranks r in [0, n).

    Bottom-up merge sort: at block width w, ``cur`` is sorted within each
    w-block. Tagging a rank with its 2w-block as ``block * n + rank`` makes
    all left halves one sorted array, so each right-half element counts the
    larger ranks in its own left half with two binary searches.
    """
    n = len(r)
    pos = np.arange(n)
    cur = np.asarray(r).astype(np.int64)
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
