"""SLIC superpixels and mean-feature extraction.

SLIC clusters any per-pixel feature vector, so a pair of rasters is
segmented by one ``slic`` call on their stacked bands (``pipeline._segment``):
each superpixel is shared by both rasters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .raster import Raster

# Assignment passes, measured on the 256 x 256 scenes of data seeds 0-54
# (1 band, target 800): 6 give KC median 0.969 and no gate failure against
# 0.971 and 1 failure with 10, and cut perfbench's scene256 op from 0.32 to
# 0.23 s (2 cores); 5 also fail seeds 25 and 29. Update 5 moves the centres
# 0.48 px on average, 5% of the grid spacing.
SLIC_ITERS = 6
COMPACTNESS = 10.0  # weight of the spatial term of the SLIC distance
# The most pixel entries a SLIC block's windows hold together, or m * n if
# fewer. At 2048 x 2048 (1 band, target 51,200, 2 cores) a slic call after a
# process's first took 3.6-5.3 s with 2 ** 18 (2 MiB of float64) and
# 5.6-6.2 s with blocks of m * n entries. A cap above m * n slows small images.
SLIC_BLOCK_ENTRIES = 2 ** 18


@dataclass(frozen=True)
class SegmentationMap:
    """Per-pixel labels in [1, count]; each label forms a 4-connected region."""

    count: int
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.labels.setflags(write=False)


def _relabel_contiguous(labels: np.ndarray) -> SegmentationMap:
    """Number the non-negative values of ``labels`` 1, 2, ... in value order."""
    rank = np.zeros(int(labels.max()) + 1, dtype=np.int64)
    rank[labels.ravel()] = 1
    np.cumsum(rank, out=rank)
    return SegmentationMap(int(rank[-1]), rank[labels])


def _connected_regions(code: np.ndarray) -> np.ndarray:
    """Split equal-valued 4-connected groups of `code` into distinct labels,
    numbered 0, 1, ... in the scan order of each group's first pixel.

    ``ndimage.label`` runs on a (2m - 1) x (2n - 1) grid: pixel (i, j) is
    cell (2i, 2j), and the cell between two 4-neighbours is set where their
    codes are equal. A group's first cell in scan order is a pixel, so the
    grid's scan order numbers the groups as the pixels' does.
    """
    m, n = code.shape
    grid = np.zeros((2 * m - 1, 2 * n - 1), dtype=bool)
    grid[::2, ::2] = True
    grid[::2, 1::2] = code[:, :-1] == code[:, 1:]
    grid[1::2, ::2] = code[:-1, :] == code[1:, :]
    comp, _ = ndimage.label(grid)
    return comp[::2, ::2] - 1


def slic(r: Raster, target_count: int) -> SegmentationMap:
    """Grid-initialized SLIC: SLIC_ITERS assignment passes, then connectivity cleanup.

    Deterministic: the procedure has no randomness. The centres move to
    their clusters' means between passes but not after the last one, whose
    centres no label would read.
    Distance is d_color + (COMPACTNESS / S) * d_spatial with Euclidean norms
    over all channels, S = sqrt(pixels / target_count) the grid spacing.
    Each centre searches the pixels within +-ceil(S) rows and columns of it,
    the 2S x 2S window of Achanta et al., "SLIC Superpixels Compared to
    State-of-the-Art Superpixel Methods" (IEEE TPAMI, 2012). A pixel goes to
    the nearest centre whose window covers it, ties to the lowest centre
    index; a pixel no window covers keeps its label. The centres are scored
    in index order, in blocks whose windows hold at most
    min(m * n, SLIC_BLOCK_ENTRIES) pixel entries together (at least one
    centre a block), so the temporaries stay linear in pixels; no label
    depends on the block size. The colour distance is accumulated band by
    band, in band order, from one band-major float64 copy of the bands,
    ``planes``. ``tests/segmentation_oracle.py`` keeps the one-centre-at-a-time
    loop.
    """
    m, n, c = r.data.shape
    if not 1 <= target_count <= m * n:
        raise ValueError(f"target_count={target_count} out of range [1, {m * n}]")

    spacing = np.sqrt(m * n / target_count)
    n_rows = max(1, int(round(m / spacing)))
    n_cols = max(1, int(round(n / spacing)))
    # Rows y, x and the bands, each pixel in row-major order.
    planes = np.empty((2 + c, m * n))
    planes[0], planes[1] = np.divmod(np.arange(m * n), n)
    planes[2:] = r.data.reshape(m * n, -1).T

    cy, cx = np.meshgrid((np.arange(n_rows) + 0.5) * m / n_rows,
                         (np.arange(n_cols) + 0.5) * n / n_cols, indexing="ij")
    centers_pos = np.column_stack([cy.ravel(), cx.ravel()])
    seed = np.minimum(centers_pos.astype(np.int64), (m - 1, n - 1))
    centers_col = planes[2:, seed[:, 0] * n + seed[:, 1]].T
    win = int(np.ceil(spacing))
    ratio = COMPACTNESS / spacing
    block = max(1, min(m * n, SLIC_BLOCK_ENTRIES) // (2 * win + 1) ** 2)

    assign = np.zeros(m * n, dtype=np.int64)
    for i in range(SLIC_ITERS):
        if i:
            _update_centers(assign, planes, centers_pos, centers_col)
        best = np.full(m * n, np.inf)
        for b0 in range(0, len(centers_pos), block):
            ids = slice(b0, b0 + block)
            _assign_block(planes[2:], (m, n), centers_pos[ids], centers_col[ids], b0,
                          win, ratio, best, assign)
    labels = assign.reshape(m, n)
    return _merge_pieces(labels)


def _assign_block(bands, shape, pos, col, first, win, ratio, best, assign) -> None:
    """Score the centres ``first, first + 1, ...`` at ``pos`` and ``col``
    over their windows and give each pixel whose block distance is strictly
    below ``best`` to its nearest centre of the block (ties: lowest index),
    in place. ``bands`` holds one row-major plane per band.

    Every distance is bit-identical to the one-centre loop of
    ``tests/segmentation_oracle.py``: the same float64 expressions in the
    same order. The squared band differences are added one band at a time,
    in band order, each band gathered from its own plane.
    Window indices are clipped to the image. A centre lies in the image, so
    a clipped index names an edge pixel its window already holds, at the
    same distance from the same centre: the duplicate entries change no
    minimum and no tie. The scratch arrays cover only the band of rows the
    windows touch.
    """
    m, n = shape
    width = 2 * win + 1
    offsets = np.arange(-win, win + 1)
    corner = pos.astype(np.int64)  # int() of a non-negative float
    rows = np.minimum(np.maximum(corner[:, 0, None] + offsets, 0), m - 1)
    cols = np.minimum(np.maximum(corner[:, 1, None] + offsets, 0), n - 1)
    top, bottom = rows[:, 0].min(), rows[:, -1].max() + 1
    band = slice(top * n, bottom * n)
    pix = ((rows - top)[:, :, None] * n + cols[:, None, :]).ravel()
    d_color = None
    for plane, c in zip(bands, col.T):
        diff = np.take(plane[band], pix).reshape(len(pos), width, width)
        diff -= c[:, None, None]
        if d_color is None:
            d_color = np.square(diff, out=diff)
        else:
            d_color += np.square(diff, out=diff)
    np.sqrt(d_color, out=d_color)
    dy2 = (rows - pos[:, 0, None]) ** 2
    dx2 = (cols - pos[:, 1, None]) ** 2
    d = dy2[:, :, None] + dx2[:, None, :]
    np.sqrt(d, out=d)
    d *= ratio
    d += d_color
    d = d.ravel()
    block_best = np.full((bottom - top) * n, np.inf)
    np.minimum.at(block_best, pix, d)
    ties = np.flatnonzero(d == block_best[pix])
    owner = np.full(block_best.size, first + len(pos))
    np.minimum.at(owner, pix[ties], first + ties // width ** 2)
    # A tie with an earlier block keeps the earlier centre, as in the loop.
    band_best = best[band]
    better = block_best < band_best
    band_best[better] = block_best[better]
    assign[band][better] = owner[better]


def _update_centers(assign, planes, centers_pos, centers_col) -> None:
    """Move each non-empty cluster's centre to the mean position and colour
    of its pixels, with sums taken in pixel order, in place. ``planes`` holds
    the rows y, x and the bands of the pixels ``assign`` labels."""
    counts, sums = _region_sums(assign, planes, len(centers_pos))
    nz = counts > 0
    means = sums[nz] / counts[nz, None]
    centers_pos[nz] = means[:, :2]
    centers_col[nz] = means[:, 2:]


def _region_sums(flat, planes, k):
    """Pixel count and per-plane sums of ``planes`` (planes x pixels) of each
    label in [0, k); ``np.bincount`` adds each label's pixels in pixel order."""
    counts = np.bincount(flat, minlength=k)
    sums = np.column_stack([np.bincount(flat, weights=plane, minlength=k)
                            for plane in planes])
    return counts, sums


def _merge_pieces(labels: np.ndarray) -> SegmentationMap:
    """SLIC's connectivity cleanup: split ``labels`` into pieces, its
    4-connected groups of one value; keep the largest piece of each label
    (ties: lowest piece id) and grow the kept pieces into the others.
    ``tests/segmentation_oracle.py`` keeps the whole-image form."""
    comp = _connected_regions(labels).ravel()
    sizes = np.bincount(comp)
    keep = _largest_per_label(comp, labels, sizes)
    return _relabel_contiguous(_grow_kept(comp, keep, sizes, labels.shape))


def _largest_per_label(comp: np.ndarray, labels: np.ndarray,
                       sizes: np.ndarray) -> np.ndarray:
    """Mask of the pieces of the flat piece map ``comp`` that are the
    largest piece of their value of ``labels`` (ties: lowest piece id)."""
    n = len(sizes)
    piece_label = np.empty(n, dtype=np.int64)
    piece_label[comp] = labels.ravel()
    order = np.lexsort((np.arange(n), -sizes, piece_label))
    _, first = np.unique(piece_label[order], return_index=True)
    keep = np.zeros(n, dtype=bool)
    keep[order[first]] = True
    return keep


def _grow_kept(comp: np.ndarray, keep: np.ndarray, sizes: np.ndarray,
               shape) -> np.ndarray:
    """Grow the kept pieces of the flat piece map ``comp`` into the other
    pixels, the orphans, in synchronous passes; return the (m, n) map of kept
    piece ids. In a pass every remaining orphan reads its up, down, left and
    right neighbours, in that order, and takes the first whose kept piece is
    largest; only then are the labels written. Pass d labels the orphans at
    taxicab distance d from the nearest kept pixel (the grid has no walls),
    so each pass visits only that layer, reading the neighbours from a label
    array padded with -1. ``tests/segmentation_oracle.py`` keeps the loop
    over all remaining orphans.
    """
    m, n = shape
    padded = np.full((m + 2, n + 2), -1, dtype=np.int64)
    padded[1:-1, 1:-1] = np.where(keep[comp], comp, -1).reshape(m, n)
    layer = ndimage.distance_transform_cdt(padded[1:-1, 1:-1] < 0, metric="taxicab")
    flat = padded.ravel()
    size_of = np.append(sizes, -1)  # a -1 neighbour has no piece
    steps = np.array([-(n + 2), n + 2, -1, 1])  # up, down, left, right
    for d in range(1, layer.max() + 1):
        at = np.flatnonzero(layer == d)
        px = at + 2 * (at // n) + n + 3  # the padded index of pixel at
        nb = flat[px[:, None] + steps]
        flat[px] = nb[np.arange(len(px)), np.argmax(size_of[nb], axis=1)]
    return padded[1:-1, 1:-1]


def extract_features(r: Raster, seg: SegmentationMap) -> np.ndarray:
    """Per-superpixel channel means: rows = superpixels, cols = channels."""
    if r.data.shape[:2] != seg.labels.shape:
        raise ValueError("raster/segmentation dimensions differ")
    counts, sums = _region_sums(seg.labels.ravel() - 1,
                                r.data.reshape(-1, r.data.shape[2]).T, seg.count)
    return sums / counts[:, None]
