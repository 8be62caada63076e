"""Reference segmentation: the direct algorithms the fast code must match.

``absorb_small`` merges one region per pass and recomputes every boundary
length after each merge; ``slic`` updates each centre through a full-image
``assign == ci`` mask (``update_centers``). Both are slow (O(regions x
pixels) and O(k x pixels) per iteration) but state the rules plainly, so the
tests compare ``copcd.segmentation`` against them label for label and the
centres bit for bit.
"""

import numpy as np

from copcd.segmentation import SLIC_ITERS, _boundary_pairs, _enforce_connectivity


def absorb_small(labels: np.ndarray, min_region: int) -> np.ndarray:
    """Absorb the smallest region (ties: lowest label) into the neighbour
    with the longest shared boundary (ties: lowest label); repeat until no
    region is below min_region or one region is left."""
    labels = labels.astype(np.int64)
    while True:
        n_lab = labels.max() + 1
        sizes = np.bincount(labels.ravel(), minlength=n_lab)
        small = np.flatnonzero((sizes > 0) & (sizes < min_region))
        if len(small) == 0 or (sizes > 0).sum() <= 1:
            return labels
        p, q = _boundary_pairs(labels)
        # Boundary length between each ordered region pair.
        pair_codes = np.concatenate([p * n_lab + q, q * n_lab + p])
        uniq, counts = np.unique(pair_codes, return_counts=True)
        changed = False
        # Absorb the smallest region first; recompute after each pass.
        for lab in small[np.argsort(sizes[small], kind="stable")]:
            mask = (uniq // n_lab) == lab
            if not mask.any():
                continue
            neighbors = uniq[mask] % n_lab
            shared = counts[mask]
            best = np.max(shared)
            target = int(np.min(neighbors[shared == best]))
            labels[labels == lab] = target
            changed = True
            break
        if not changed:
            return labels


def slic(r, target_count: int, compactness: float):
    """SLIC with the centre update written as one boolean mask per centre."""
    m, n = r.height, r.width
    data = r.data.astype(np.float64)
    spacing = np.sqrt(m * n / target_count)
    n_rows = max(1, int(round(m / spacing)))
    n_cols = max(1, int(round(n / spacing)))

    cy = (np.arange(n_rows) + 0.5) * m / n_rows
    cx = (np.arange(n_cols) + 0.5) * n / n_cols
    centers_pos = np.array([(y, x) for y in cy for x in cx])
    centers_col = np.array(
        [data[min(int(y), m - 1), min(int(x), n - 1)] for y, x in centers_pos]
    )
    k = len(centers_pos)
    win = int(np.ceil(2 * spacing))
    yy, xx = np.mgrid[0:m, 0:n].astype(np.float64)

    assign = np.zeros((m, n), dtype=np.int64)
    for _ in range(SLIC_ITERS):
        best = np.full((m, n), np.inf)
        for ci in range(k):
            y0 = max(0, int(centers_pos[ci, 0]) - win)
            y1 = min(m, int(centers_pos[ci, 0]) + win + 1)
            x0 = max(0, int(centers_pos[ci, 1]) - win)
            x1 = min(n, int(centers_pos[ci, 1]) + win + 1)
            patch = data[y0:y1, x0:x1]
            d_color = np.sqrt(((patch - centers_col[ci]) ** 2).sum(axis=2))
            d_spatial = np.sqrt(
                (yy[y0:y1, x0:x1] - centers_pos[ci, 0]) ** 2
                + (xx[y0:y1, x0:x1] - centers_pos[ci, 1]) ** 2
            )
            d = d_color + (compactness / spacing) * d_spatial
            better = d < best[y0:y1, x0:x1]
            best[y0:y1, x0:x1][better] = d[better]
            assign[y0:y1, x0:x1][better] = ci
        update_centers(assign, yy, xx, data, centers_pos, centers_col)
    return _enforce_connectivity(assign, k)


def update_centers(assign, yy, xx, data, centers_pos, centers_col) -> None:
    """Move each non-empty cluster's centre to the mean of its pixels."""
    for ci in range(len(centers_pos)):
        mask = assign == ci
        if mask.any():
            centers_pos[ci] = (yy[mask].mean(), xx[mask].mean())
            centers_col[ci] = data[mask].mean(axis=0)
