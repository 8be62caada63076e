"""SLIC superpixels, co-segmentation of two rasters, and mean-feature extraction."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .raster import Raster

SLIC_ITERS = 10


@dataclass(frozen=True)
class SegmentationMap:
    """Per-pixel labels in [1, count]; each label forms a 4-connected region."""

    height: int
    width: int
    count: int
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.labels.shape != (self.height, self.width):
            raise ValueError("label array shape mismatch")
        self.labels.setflags(write=False)

    def region_sizes(self) -> np.ndarray:
        return np.bincount(self.labels.ravel() - 1, minlength=self.count)


def _relabel_contiguous(labels: np.ndarray) -> SegmentationMap:
    uniq, inv = np.unique(labels, return_inverse=True)
    out = (inv + 1).reshape(labels.shape).astype(np.int64)
    return SegmentationMap(labels.shape[0], labels.shape[1], len(uniq), out)


def _connected_regions(code: np.ndarray) -> np.ndarray:
    """Split equal-valued 4-connected groups of `code` into distinct labels."""
    m, n = code.shape
    idx = np.arange(m * n).reshape(m, n)
    rows, cols = [], []
    horiz = code[:, :-1] == code[:, 1:]
    rows.append(idx[:, :-1][horiz])
    cols.append(idx[:, 1:][horiz])
    vert = code[:-1, :] == code[1:, :]
    rows.append(idx[:-1, :][vert])
    cols.append(idx[1:, :][vert])
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    graph = sparse.coo_matrix(
        (np.ones(len(r), dtype=np.int8), (r, c)), shape=(m * n, m * n)
    )
    _, comp = connected_components(graph, directed=False)
    return comp.reshape(m, n)


def slic(r: Raster, target_count: int, compactness: float) -> SegmentationMap:
    """Grid-initialized SLIC with fixed iteration count and connectivity cleanup.

    Deterministic: the procedure has no randomness.
    Distance is d_color + (compactness / S) * d_spatial with Euclidean norms
    over all channels.
    """
    m, n = r.height, r.width
    if not 1 <= target_count <= m * n:
        raise ValueError(f"target_count={target_count} out of range [1, {m * n}]")
    if compactness <= 0:
        raise ValueError("compactness must be > 0")

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
    ratio = compactness / spacing
    if not math.isfinite(float(ratio) * math.hypot(m, n)):  # bounds every spatial term
        raise ArithmeticError(f"compactness={compactness!r} overflows the SLIC distance")
    yy, xx = np.mgrid[0:m, 0:n].astype(np.float64)
    ys, xs = yy[:, 0], xx[0]

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
            # Pixel coordinates are exact floats, so the broadcast sum of the
            # two 1-D squared offsets equals the full-window form bit for bit.
            dy2 = (ys[y0:y1] - centers_pos[ci, 0]) ** 2
            dx2 = (xs[x0:x1] - centers_pos[ci, 1]) ** 2
            d = d_color + ratio * np.sqrt(dy2[:, None] + dx2[None, :])
            best_win = best[y0:y1, x0:x1]
            better = d < best_win
            np.copyto(best_win, d, where=better)
            np.copyto(assign[y0:y1, x0:x1], ci, where=better)
        _update_centers(assign, yy, xx, data, centers_pos, centers_col)
    return _enforce_connectivity(assign)


def _update_centers(assign, yy, xx, data, centers_pos, centers_col) -> None:
    """Move each non-empty cluster's centre to the mean position and colour
    of its pixels, in place.

    A stable sort groups the pixels by cluster, each cluster's slice in
    row-major order: the order a boolean mask selects them in. Clusters of
    equal size are gathered into one (clusters, size) array, one contiguous
    row per cluster, and averaged along the rows; numpy sums a contiguous row
    exactly as it sums the same 1-D slice, so every mean is bit-identical to
    ``yy[assign == ci].mean()``. (``np.add.reduceat`` sums in another order
    and is not.)
    """
    flat = assign.ravel()
    order = np.argsort(flat, kind="stable")
    counts = np.bincount(flat, minlength=len(centers_pos))
    starts = np.cumsum(counts) - counts
    yy_s, xx_s = yy.ravel()[order], xx.ravel()[order]
    data_s = data.reshape(flat.size, -1)[order]
    for size in np.unique(counts[counts > 0]):
        members = np.flatnonzero(counts == size)
        idx = starts[members, None] + np.arange(size)
        centers_pos[members, 0] = yy_s[idx].mean(axis=1)
        centers_pos[members, 1] = xx_s[idx].mean(axis=1)
        centers_col[members] = data_s[idx].mean(axis=1)


def _enforce_connectivity(assign: np.ndarray) -> SegmentationMap:
    """Keep each cluster's largest component (ties: lowest component id);
    merge orphan components into the adjacent kept region with the most
    pixels.

    Orphans grow in synchronous passes: every remaining orphan reads its
    up, down, left and right neighbours, in that order, and takes the one
    whose kept component is strictly largest; only then are the labels
    written. Each pass labels at least one orphan: every cluster that occurs
    keeps a component, so some pixel is labelled, and the 4-connected grid is
    connected, so while orphans remain one of them touches a labelled pixel.
    ``tests/segmentation_oracle.py`` keeps the whole-image form of this rule.
    """
    m, n = assign.shape
    comp = _connected_regions(assign).ravel()
    n_comp = comp.max() + 1
    comp_sizes = np.bincount(comp, minlength=n_comp)
    comp_cluster = np.empty(n_comp, dtype=np.int64)
    comp_cluster[comp] = assign.ravel()
    # Per cluster: largest component first, then lowest id.
    order = np.lexsort((np.arange(n_comp), -comp_sizes, comp_cluster))
    first = np.ones(n_comp, dtype=bool)
    first[1:] = comp_cluster[order[1:]] != comp_cluster[order[:-1]]
    keep = np.zeros(n_comp, dtype=bool)
    keep[order[first]] = True

    final = np.where(keep[comp], comp, -1)
    orphans = np.flatnonzero(final < 0)
    while orphans.size:
        row, col = np.divmod(orphans, n)
        best_nb = np.full(orphans.size, -1, dtype=np.int64)
        best_sz = np.full(orphans.size, -1, dtype=np.int64)
        for inside, step in ((row > 0, -n), (row < m - 1, n), (col > 0, -1),
                             (col < n - 1, 1)):
            nb = np.where(inside, final[np.where(inside, orphans + step, 0)], -1)
            sz = np.where(nb >= 0, comp_sizes[nb], -1)
            upd = sz > best_sz
            best_nb[upd] = nb[upd]
            best_sz[upd] = sz[upd]
        done = best_nb >= 0
        final[orphans[done]] = best_nb[done]
        orphans = orphans[~done]
    return _relabel_contiguous(final.reshape(m, n))


def cosegment(a: SegmentationMap, b: SegmentationMap, min_region: int = 10) -> SegmentationMap:
    """Intersect two partitions into a common refinement.

    Connected components of identical (a, b) label pairs become regions.
    Then regions smaller than min_region pixels are absorbed one at a time:
    the smallest region goes first (ties: lowest label) and merges into the
    adjacent region sharing the longest boundary (ties: lowest label), which
    keeps its label, gains the merged region's pixels and boundaries, and
    goes back in the queue under its new size while it is still smaller than
    min_region. Absorption ends when no region is small or one region is
    left. ``tests/segmentation_oracle.py`` states this order directly.
    """
    if (a.height, a.width) != (b.height, b.width):
        raise ValueError("segmentation dimensions differ")
    code = a.labels.astype(np.int64) * (b.count + 1) + b.labels
    comp = _connected_regions(code)

    if min_region > 1:
        comp = _absorb_small(comp, min_region)
    return _relabel_contiguous(comp)


def _boundary_pairs(labels: np.ndarray):
    h1 = labels[:, :-1].ravel()
    h2 = labels[:, 1:].ravel()
    v1 = labels[:-1, :].ravel()
    v2 = labels[1:, :].ravel()
    p = np.concatenate([h1, v1])
    q = np.concatenate([h2, v2])
    diff = p != q
    return p[diff], q[diff]


def _absorb_small(labels: np.ndarray, min_region: int) -> np.ndarray:
    """Merge regions below min_region in the order :func:`cosegment` states."""
    n_lab = int(labels.max()) + 1
    sizes = np.bincount(labels.ravel(), minlength=n_lab).tolist()
    alive = sum(1 for sz in sizes if sz > 0)
    # Region adjacency graph: shared boundary length between each pair.
    p, q = _boundary_pairs(labels.astype(np.int64))
    uniq, counts = np.unique(np.concatenate([p * n_lab + q, q * n_lab + p]),
                             return_counts=True)
    adj = {}
    for code, cnt in zip(uniq.tolist(), counts.tolist()):
        adj.setdefault(code // n_lab, {})[code % n_lab] = cnt
    heap = [(sz, lab) for lab, sz in enumerate(sizes) if 0 < sz < min_region]
    heapq.heapify(heap)
    parent = np.arange(n_lab)
    while heap and alive > 1:
        size, lab = heapq.heappop(heap)
        if sizes[lab] != size:  # merged away, or grown since pushed
            continue
        nbrs = adj.pop(lab)
        target = max(nbrs, key=lambda nb: (nbrs[nb], -nb))
        del nbrs[target]
        tgt_nbrs = adj[target]
        del tgt_nbrs[lab]
        for nb, cnt in nbrs.items():
            tgt_nbrs[nb] = tgt_nbrs.get(nb, 0) + cnt
            nb_nbrs = adj[nb]
            del nb_nbrs[lab]
            nb_nbrs[target] = nb_nbrs.get(target, 0) + cnt
        sizes[target] += size
        sizes[lab] = 0
        alive -= 1
        if sizes[target] < min_region:
            heapq.heappush(heap, (sizes[target], target))
        parent[lab] = target
    while not np.array_equal(parent[parent], parent):  # follow merge chains
        parent = parent[parent]
    return parent[labels]


def extract_features(r: Raster, seg: SegmentationMap) -> np.ndarray:
    """Per-superpixel channel means: rows = superpixels, cols = channels."""
    if (r.height, r.width) != (seg.height, seg.width):
        raise ValueError("raster/segmentation dimensions differ")
    flat_lab = seg.labels.ravel() - 1
    counts = np.bincount(flat_lab, minlength=seg.count).astype(np.float64)
    feats = np.empty((seg.count, r.channels), dtype=np.float64)
    for c in range(r.channels):
        sums = np.bincount(flat_lab, weights=r.data[:, :, c].ravel().astype(np.float64),
                           minlength=seg.count)
        feats[:, c] = sums / counts
    return feats
