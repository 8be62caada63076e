"""Reference Kendall tau: direct enumeration of every pair, the sum of
sign(x_i - x_j) * sign(y_i - y_j) over i < j.

O(n^2) time, in blocks of 256 rows to bound memory, but it states the
definition plainly, so the tests compare ``copcd.dependence.kendall_tau``
against it with exact ``==``. The signs are taken before they are
multiplied, so a product that would underflow to 0 cannot hide a
concordant pair.
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
