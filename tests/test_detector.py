"""Test statistics, difference-map fusion, k-means, and the two-stage BCM."""

import numpy as np
import pytest

from copcd import detector
from copcd.copula import ChannelPairModels, CopulaMixtureModel, sample_mixture
from copcd.dependence import EmpiricalCdf
from copcd.detector import (
    fuse_difference,
    kmeans,
    representative_vectors,
    test_statistics as compute_statistics,
    two_stage_bcm,
)
from copcd.segmentation import SegmentationMap


def _single_pair_models(model, train_x, train_y):
    return ChannelPairModels(
        models={(1, 1): model},
        ecdfs_x=(EmpiricalCdf(train_x),), ecdfs_y=(EmpiricalCdf(train_y),),
    )


def test_statistic_is_zero_for_independence_model():
    rng = np.random.default_rng(0)
    train = rng.normal(size=200)
    model = CopulaMixtureModel(rho=1e-12, theta=1.0, w=1.0, n_train=200)
    models = _single_pair_models(model, train, train)
    feats = rng.normal(size=(50, 1))
    t = compute_statistics(feats, feats, models)
    assert t.shape == (50, 1, 1)
    assert np.allclose(t, 0.0, atol=1e-9)


def test_statistic_low_under_model_high_under_independence():
    model = CopulaMixtureModel(rho=0.9, theta=1.0, w=1.0, n_train=2000)
    rng = np.random.default_rng(1)
    train_u, train_v = sample_mixture(model, 2000, seed=2)
    models = _single_pair_models(model, train_u, train_v)

    dep_u, dep_v = sample_mixture(model, 1000, seed=3)
    ind_u, ind_v = rng.random(1000), rng.random(1000)
    t_dep = compute_statistics(dep_u[:, None], dep_v[:, None], models)
    t_ind = compute_statistics(ind_u[:, None], ind_v[:, None], models)
    assert t_ind.mean() > t_dep.mean()


def test_statistic_invariant_under_monotone_feature_transform():
    model = CopulaMixtureModel(rho=0.7, theta=2.0, w=0.5, n_train=300)
    rng = np.random.default_rng(4)
    train_x = rng.normal(size=300)
    train_y = rng.normal(size=300)
    feats_x = rng.normal(size=(40, 1))
    feats_y = rng.normal(size=(40, 1))

    t_raw = compute_statistics(feats_x, feats_y, _single_pair_models(model, train_x, train_y))
    # same strictly increasing transform applied to training and test values
    t_warp = compute_statistics(
        np.exp(feats_x), np.arctan(feats_y),
        _single_pair_models(model, np.exp(train_x), np.arctan(train_y)),
    )
    assert np.array_equal(t_raw, t_warp)


def test_statistic_shape_validation():
    model = CopulaMixtureModel(rho=0.5, theta=1.0, w=0.5, n_train=10)
    models = _single_pair_models(model, np.arange(10.0), np.arange(10.0))
    with pytest.raises(ValueError):
        compute_statistics(np.zeros((5, 1)), np.zeros((6, 1)), models)
    with pytest.raises(ValueError):
        compute_statistics(np.zeros((5, 2)), np.zeros((5, 1)), models)


def test_fuse_single_pair_is_identity():
    t = np.arange(6.0).reshape(6, 1, 1)
    assert np.array_equal(fuse_difference(t), t[:, 0, 0])


def test_fuse_takes_max_over_pairs():
    t = np.array([[[0.2, 0.9]]])
    assert fuse_difference(t)[0] == 0.9


def test_fuse_centering():
    feat = np.zeros((4, 1))
    di = fuse_difference(np.full((4, 1, 1), 3.0))
    assert np.allclose(representative_vectors(feat, feat, di, alpha=1.0)[:, 2], 0.0)
    rng = np.random.default_rng(5)
    t2 = rng.random((30, 2, 3))
    di2 = fuse_difference(t2)
    feat = np.zeros((30, 1))
    assert abs(representative_vectors(feat, feat, di2, alpha=1.0)[:, 2].mean()) < 1e-9
    # max-fusion dominates every channel pair
    assert (di2[:, None, None] >= t2 - 1e-15).all()


def test_representative_vectors_layout():
    feat_x = np.arange(8.0).reshape(4, 2)
    feat_y = np.arange(12.0).reshape(4, 3)
    di = np.array([1.0, 2.0, 3.0, 4.0])
    rep = representative_vectors(feat_x, feat_y, di, alpha=2.0)
    assert rep.shape == (4, 6)
    assert np.array_equal(rep[:, :2], feat_x)
    assert np.array_equal(rep[:, 2:5], feat_y)
    assert np.array_equal(rep[:, 5], [-3.0, -1.0, 1.0, 3.0])
    with pytest.raises(ValueError):
        representative_vectors(feat_x, feat_y, di, alpha=-1.0)


def test_kmeans_separates_blobs():
    rng = np.random.default_rng(6)
    a = rng.normal(0, 0.2, size=(30, 2))
    b = rng.normal(10, 0.2, size=(30, 2))
    pts = np.vstack([a, b])
    assign, centroids = kmeans(pts, 2, seed=0)
    assert len(np.unique(assign[:30])) == 1
    assert len(np.unique(assign[30:])) == 1
    assert assign[0] != assign[30]


def test_kmeans_single_cluster_centroid_is_mean():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(20, 3))
    assign, centroids = kmeans(pts, 1, seed=0)
    assert (assign == 0).all()
    assert np.allclose(centroids[0], pts.mean(axis=0))


def test_kmeans_k_equals_point_count():
    pts = np.array([[0.0], [5.0], [10.0]])
    assign, _ = kmeans(pts, 3, seed=0)
    assert sorted(assign.tolist()) == [0, 1, 2]


@pytest.mark.filterwarnings("error")
def test_kmeans_seeding_past_the_last_distance_mass():
    # Two distinct points for three centres: once both are centres no
    # distance mass is left, and the third centre is points[0], not a draw
    # from a 0 / 0 weighting. It duplicates a centre, so its cluster is
    # empty and is re-seeded at points[0]: every point is 0 from its centroid.
    pts = np.array([[0.0], [0.0], [5.0], [5.0]])
    assign, centroids = kmeans(pts, 3, seed=1)
    assert assign.tolist() == [0, 0, 1, 1]
    assert centroids.ravel().tolist() == [0.0, 5.0, 0.0]


def test_kmeans_reseeds_an_empty_cluster_at_the_farthest_point():
    # Seed 122 starts the three centres on points 6, 0 and 3; after the first
    # update cluster 2 is empty, and it is re-seeded at the point farthest
    # from its centroid, point 6 at (4.2, 8.9), which it keeps alone.
    pts = np.array([[0.4, 0.0], [4.0, 4.9], [2.5, 6.7], [0.2, 1.7],
                    [3.7, 4.4], [5.6, 5.3], [4.2, 8.9], [2.9, 0.1]])
    assign, centroids = kmeans(pts, 3, seed=122)
    assert assign.tolist() == [1, 0, 0, 1, 0, 0, 2, 1]
    for j in range(3):
        assert np.allclose(centroids[j], pts[assign == j].mean(axis=0))


def test_kmeans_deterministic_and_validates():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(40, 2))
    a1, c1 = kmeans(pts, 3, seed=5)
    a2, c2 = kmeans(pts, 3, seed=5)
    assert np.array_equal(a1, a2) and np.array_equal(c1, c2)
    with pytest.raises(ValueError):
        kmeans(pts[:2], 3, seed=0)


def _unit_segmentation(m, n):
    labels = np.arange(1, m * n + 1, dtype=np.int64).reshape(m, n)
    return SegmentationMap(labels)


def test_two_stage_bcm_flags_high_di_superpixels():
    # 10 of 100 superpixels carry high DI and distinct features
    n = 100
    rng = np.random.default_rng(9)
    changed = np.zeros(n, dtype=bool)
    changed[::10] = True
    feat_x = np.where(changed, 10.0, 0.0)[:, None] + rng.normal(0, 0.05, (n, 1))
    feat_y = np.where(changed, 10.0, 0.0)[:, None] + rng.normal(0, 0.05, (n, 1))
    di = np.where(changed, 10.0, 0.0)
    rep = representative_vectors(feat_x, feat_y, di, alpha=5.0)
    seg = _unit_segmentation(10, 10)
    bcm = two_stage_bcm(rep, di, seg, seed=0)
    assert np.array_equal(bcm.ravel(), changed.astype(np.uint8))


def test_two_stage_bcm_degenerate_input_is_all_unchanged():
    n = 30
    rep = np.ones((n, 3))
    di = np.ones(n)
    seg = _unit_segmentation(5, 6)
    bcm = two_stage_bcm(rep, di, seg, seed=0)
    assert bcm.shape == (5, 6)
    assert not bcm.any()


def test_two_stage_bcm_constant_per_superpixel():
    rng = np.random.default_rng(10)
    labels = np.repeat(np.repeat(np.arange(1, 10).reshape(3, 3), 4, axis=0), 4, axis=1)
    seg = SegmentationMap(labels.astype(np.int64))
    rep = rng.normal(size=(9, 3))
    di = rng.random(9)
    bcm = two_stage_bcm(rep, di, seg, seed=1)
    for lab in range(1, 10):
        assert len(np.unique(bcm[labels == lab])) == 1


def test_two_stage_bcm_alpha_zero_still_uses_di_for_selection():
    # identical features, DI differs: with alpha=0 the representative vectors
    # are all equal, so the degenerate all-unchanged rule applies
    n = 16
    di = np.arange(float(n))
    rep = representative_vectors(np.zeros((n, 1)), np.zeros((n, 1)), di, alpha=0.0)
    bcm = two_stage_bcm(rep, di, _unit_segmentation(4, 4), seed=0)
    assert not bcm.any()


def test_two_stage_bcm_breaks_an_overlap_tie_by_mean_di(monkeypatch):
    # Stage 1 picks cluster 2 = superpixels {3, 4}, the highest mean DI; each
    # stage-2 cluster holds one of them, so the one of larger mean DI,
    # cluster 1 = {2, 4} (DI 3.5 against 2.5), is the change.
    di = np.array([0.0, 1.0, 5.0, 6.0])
    stages = {detector.STAGE1_K: np.array([0, 1, 2, 2]), 2: np.array([0, 1, 0, 1])}
    monkeypatch.setattr(detector, "kmeans", lambda rep, k, seed: (stages[k], None))
    rep = np.arange(8.0).reshape(4, 2)
    bcm = two_stage_bcm(rep, di, _unit_segmentation(2, 2), seed=0)
    assert bcm.ravel().tolist() == [0, 1, 0, 1]


def test_two_stage_bcm_validates_shapes():
    rep = np.zeros((5, 2))
    di = np.zeros(4)
    with pytest.raises(ValueError):
        two_stage_bcm(rep, di, _unit_segmentation(2, 2), seed=0)
