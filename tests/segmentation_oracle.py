"""Reference segmentation: the direct algorithms the fast code must match.

``slic`` scores one centre's window per step and updates each centre
through a full-image ``assign == ci`` mask (``update_centers``), whose mean
is a running sum from 0.0 over the masked pixels in row-major order (pixel
order) divided by their count; ``enforce_connectivity`` picks each
cluster's kept piece with one mask per cluster and grows the other pieces
over whole-image shifted copies (``grow_kept``);
``connected_regions`` labels components with a sparse pixel graph and
``relabel_contiguous`` renumbers labels by an ``np.unique`` sort. They are
slow (O(k x pixels) per iteration and O(labels x pieces)) but state the
rules plainly, so the tests compare ``copcd.segmentation`` against them
label for label and the centres bit for bit.
"""

import numpy as np
from scipy import ndimage, sparse
from scipy.sparse.csgraph import connected_components

from copcd.segmentation import COMPACTNESS, SLIC_ITERS, SegmentationMap


def relabel_contiguous(labels: np.ndarray) -> SegmentationMap:
    """Number the distinct values of ``labels`` 1, 2, ... in sorted order."""
    uniq, inv = np.unique(labels, return_inverse=True)
    out = (inv + 1).reshape(labels.shape).astype(np.int64)
    return SegmentationMap(len(uniq), out)


def connected_regions(code: np.ndarray) -> np.ndarray:
    """Label the 4-connected groups of equal ``code`` values as the connected
    components of the pixel graph whose edges join equal 4-neighbours."""
    m, n = code.shape
    idx = np.arange(m * n).reshape(m, n)
    horiz = code[:, :-1] == code[:, 1:]
    vert = code[:-1, :] == code[1:, :]
    r = np.concatenate([idx[:, :-1][horiz], idx[:-1, :][vert]])
    c = np.concatenate([idx[:, 1:][horiz], idx[1:, :][vert]])
    graph = sparse.coo_matrix(
        (np.ones(len(r), dtype=np.int8), (r, c)), shape=(m * n, m * n)
    )
    _, comp = connected_components(graph, directed=False)
    return comp.reshape(m, n)


def slic(r, target_count: int):
    """SLIC one centre at a time, each centre updated through a boolean mask
    after every pass, the last one too, whose centres no label reads.

    The squared band differences are added one band at a time, in band
    order. Below 8 bands this is bit for bit the ``.sum(axis=2)`` over the
    bands that the loop used before, since numpy sums a trailing axis of
    fewer than 8 elements left to right; from 8 bands on numpy sums
    pairwise, so the two may differ in the last bit there.
    """
    m, n = r.data.shape[:2]
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
    win = int(np.ceil(spacing))
    yy, xx = np.mgrid[0:m, 0:n].astype(np.float64)

    assign = np.zeros((m, n), dtype=np.int64)
    for _ in range(SLIC_ITERS):
        best = np.full((m, n), np.inf)
        for ci in range(k):
            y0 = max(0, int(centers_pos[ci, 0]) - win)
            y1 = min(m, int(centers_pos[ci, 0]) + win + 1)
            x0 = max(0, int(centers_pos[ci, 1]) - win)
            x1 = min(n, int(centers_pos[ci, 1]) + win + 1)
            diff = data[y0:y1, x0:x1] - centers_col[ci]
            total = diff[..., 0] ** 2
            for band in range(1, data.shape[2]):
                total = total + diff[..., band] ** 2
            d_color = np.sqrt(total)
            d_spatial = np.sqrt(
                (yy[y0:y1, x0:x1] - centers_pos[ci, 0]) ** 2
                + (xx[y0:y1, x0:x1] - centers_pos[ci, 1]) ** 2
            )
            d = d_color + (COMPACTNESS / spacing) * d_spatial
            better = d < best[y0:y1, x0:x1]
            best[y0:y1, x0:x1][better] = d[better]
            assign[y0:y1, x0:x1][better] = ci
        update_centers(assign, yy, xx, data, centers_pos, centers_col)
    return enforce_connectivity(assign, k)


def update_centers(assign, yy, xx, data, centers_pos, centers_col) -> None:
    """Move each non-empty cluster's centre to the mean of its pixels: a
    running sum from 0.0 over the cluster's pixels in row-major order,
    divided by their count."""
    for ci in range(len(centers_pos)):
        mask = assign == ci
        if mask.any():
            total = np.zeros(2 + data.shape[2])
            for pixel in np.column_stack([yy[mask], xx[mask], data[mask]]):
                total = total + pixel
            mean = total / mask.sum()
            centers_pos[ci] = mean[:2]
            centers_col[ci] = mean[2:]


def enforce_connectivity(assign: np.ndarray, k: int):
    """Keep each cluster's largest component; merge orphan components into
    the adjacent kept region with the most pixels."""
    comp = connected_regions(assign)
    comp_sizes = np.bincount(comp.ravel())
    comp_cluster = np.full(len(comp_sizes), -1, dtype=np.int64)
    comp_cluster[comp.ravel()] = assign.ravel()
    keep = np.zeros(len(comp_sizes), dtype=bool)
    for ci in range(k):
        members = np.flatnonzero(comp_cluster == ci)
        if len(members):
            keep[members[np.argmax(comp_sizes[members])]] = True
    return relabel_contiguous(grow_kept(comp, keep, comp_sizes))


def grow_kept(comp: np.ndarray, keep: np.ndarray, comp_sizes: np.ndarray):
    """Iteratively absorb orphan pixels into the largest adjacent kept piece."""
    final = np.where(keep[comp], comp, -1)
    while (final < 0).any():
        grown = ndimage.grey_dilation(final, size=3, mode="constant", cval=-1)
        orphan = final < 0
        candidates = np.where(orphan, grown, final)
        # Prefer the largest neighboring region among the 4-neighbors.
        best_nb = np.full(final.shape, -1, dtype=np.int64)
        best_sz = np.full(final.shape, -1, dtype=np.int64)
        for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = np.full(final.shape, -1, dtype=np.int64)
            if dy == 1:
                nb[1:, :] = final[:-1, :]
            elif dy == -1:
                nb[:-1, :] = final[1:, :]
            elif dx == 1:
                nb[:, 1:] = final[:, :-1]
            else:
                nb[:, :-1] = final[:, 1:]
            sz = np.where(nb >= 0, comp_sizes[np.maximum(nb, 0)], -1)
            upd = orphan & (sz > best_sz)
            best_nb[upd] = nb[upd]
            best_sz[upd] = sz[upd]
        progressed = orphan & (best_nb >= 0)
        if not progressed.any():
            final[orphan] = candidates[orphan]
            break
        final[progressed] = best_nb[progressed]
    return final


def grow_kept_passes(comp: np.ndarray, keep: np.ndarray, sizes: np.ndarray, shape):
    """``grow_kept``'s rule in synchronous passes over the flat piece map
    ``comp``, each pass visiting every remaining orphan; the (m, n) map of
    kept piece ids."""
    m, n = shape
    final = np.where(keep[comp], comp, -1)
    orphans = np.flatnonzero(final < 0)
    while orphans.size:
        row, col = np.divmod(orphans, n)
        best_nb = np.full(orphans.size, -1, dtype=np.int64)
        best_sz = np.full(orphans.size, -1, dtype=np.int64)
        for inside, step in ((row > 0, -n), (row < m - 1, n), (col > 0, -1),
                             (col < n - 1, 1)):
            nb = np.where(inside, final[np.where(inside, orphans + step, 0)], -1)
            sz = np.where(nb >= 0, sizes[nb], -1)
            upd = sz > best_sz
            best_nb[upd] = nb[upd]
            best_sz[upd] = sz[upd]
        done = best_nb >= 0
        final[orphans[done]] = best_nb[done]
        orphans = orphans[~done]
    return final.reshape(m, n)
