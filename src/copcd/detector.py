"""Per-superpixel test statistics, difference-map fusion, and the two-stage
K-means binary change map.
"""

from __future__ import annotations

import math

import numpy as np

from .copula import ChannelPairModels, joint_logpdf_superpixel
from .segmentation import SegmentationMap

KMEANS_MAX_ITERS = 300
KMEANS_TOL = 1e-6
STAGE1_K = 3  # clusters of the first k-means stage of two_stage_bcm


def test_statistics(feat_x: np.ndarray, feat_y: np.ndarray,
                    models: ChannelPairModels) -> np.ndarray:
    """Negative log copula density per (superpixel, c1, c2), using the
    training-set marginals stored in the model set."""
    if feat_x.shape[0] != feat_y.shape[0]:
        raise ValueError("feature matrices have different superpixel counts")
    if feat_x.shape[1] != models.cx or feat_y.shape[1] != models.cy:
        raise ValueError(f"feature channel counts {feat_x.shape[1]}, {feat_y.shape[1]} do "
                         f"not match the model grid cx={models.cx}, cy={models.cy}")
    n = feat_x.shape[0]
    t = np.empty((n, models.cx, models.cy), dtype=np.float64)
    for c1 in range(1, models.cx + 1):
        for c2 in range(1, models.cy + 1):
            t[:, c1 - 1, c2 - 1] = -joint_logpdf_superpixel(
                feat_x[:, c1 - 1],
                feat_y[:, c2 - 1],
                models.ecdfs_x[c1 - 1],
                models.ecdfs_y[c2 - 1],
                models.models[c1, c2],
            )
    if not np.all(np.isfinite(t)):
        raise ArithmeticError("non-finite test statistic encountered")
    return t


def fuse_difference(t: np.ndarray) -> np.ndarray:
    """Difference map: the largest statistic over channel pairs, per superpixel."""
    if t.size == 0:
        raise ValueError("empty statistic tensor")
    return t.max(axis=(1, 2))


def representative_vectors(feat_x: np.ndarray, feat_y: np.ndarray,
                           di: np.ndarray, alpha: float) -> np.ndarray:
    """[features_x, features_y, alpha * mean-centred DI] per superpixel."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    with np.errstate(over="ignore", invalid="ignore"):
        rep = np.column_stack([feat_x, feat_y, alpha * (di - di.mean())])
        span = rep.max(axis=0) - rep.min(axis=0)
        # k-means adds up to n squared distances, each at most |span|^2.
        bound = len(rep) * float(np.sum(span * span))
    if not math.isfinite(bound):
        raise ArithmeticError(f"alpha * DI overflows the k-means distances "
                              f"(alpha={alpha!r})")
    return rep


def kmeans(points: np.ndarray, k: int, seed: int):
    """Deterministic Lloyd's algorithm with k-means++ seeding.

    Empty clusters are re-seeded from the point farthest from its centroid.
    Returns (assignment, centroids).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    n = points.shape[0]
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        # With no distance mass left every point coincides with a centre,
        # and points[0] stands in for a draw from a 0 / 0 weighting.
        idx = 0
        if total > 0:
            idx = min(int(np.searchsorted(np.cumsum(d2 / total), rng.random())), n - 1)
        centroids[j] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))

    for _ in range(KMEANS_MAX_ITERS):
        dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(dists, axis=1)
        new_centroids = centroids.copy()
        for j in range(k):
            members = assign == j
            if members.any():
                new_centroids[j] = points[members].mean(axis=0)
            else:
                farthest = int(np.argmax(dists[np.arange(n), assign]))
                new_centroids[j] = points[farthest]
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < KMEANS_TOL:
            break
    dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assign = np.argmin(dists, axis=1)
    return assign, centroids


def two_stage_bcm(rep: np.ndarray, di: np.ndarray, seg_test: SegmentationMap,
                  seed: int) -> np.ndarray:
    """Stage 1: k=3 clusters, pick the one with the largest mean DI.
    Stage 2: k=2 clusters, pick the one overlapping it the most (ties toward
    larger mean DI). Pixels inherit their superpixel's label.

    All-identical representative vectors yield an all-unchanged map.
    """
    rep = np.asarray(rep, dtype=np.float64)
    if rep.shape[0] != len(di) or rep.shape[0] != seg_test.count:
        raise ValueError("representative vectors, DI, and segmentation disagree")

    if np.all(rep == rep[0]):
        return np.zeros(seg_test.labels.shape, dtype=np.uint8)

    assign3, _ = kmeans(rep, STAGE1_K, seed)
    in_a2 = assign3 == int(np.argmax(_cluster_mean_di(di, assign3, STAGE1_K)))

    assign2, _ = kmeans(rep, 2, seed + 1)
    overlap = np.array([np.count_nonzero(in_a2 & (assign2 == j)) for j in range(2)])
    if overlap[0] == overlap[1]:
        b2 = int(np.argmax(_cluster_mean_di(di, assign2, 2)))
    else:
        b2 = int(np.argmax(overlap))
    return (assign2 == b2).astype(np.uint8)[seg_test.labels - 1]  # labels are 1-based


def _cluster_mean_di(di: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """Mean DI of each of the k clusters of ``assign``; -inf for an empty one."""
    return np.array([di[assign == j].mean() if (assign == j).any() else -np.inf
                     for j in range(k)])
