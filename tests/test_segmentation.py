"""SLIC superpixels, its connectivity cleanup, and mean-feature extraction."""

import tracemalloc

import numpy as np
import pytest
import segmentation_oracle as oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copcd import segmentation
from copcd.copula import CopulaMixtureModel
from copcd.raster import Raster
from copcd.segmentation import (
    SLIC_ITERS,
    SegmentationMap,
    _connected_regions,
    _grow_kept,
    _merge_pieces,
    _update_centers,
    extract_features,
    slic,
)
from copcd.synth import SynthConfig, generate_pair


def _constant_raster(m, n, c=1, value=0.0):
    return Raster.from_array(np.full((m, n, c), value, dtype=np.float32))


def _region_sizes(seg):
    return np.bincount(seg.labels.ravel() - 1, minlength=seg.count)


def _check_wellformed(seg):
    labels = seg.labels
    assert labels.min() == 1
    assert labels.max() == seg.count
    assert len(np.unique(labels)) == seg.count


def test_slic_constant_grid_quarters():
    seg = slic(_constant_raster(10, 10), 4)
    _check_wellformed(seg)
    assert seg.count == 4
    # near-equal quarters; the equidistant boundary column goes to one side
    sizes = _region_sizes(seg)
    assert sizes.min() >= 16 and sizes.max() <= 36
    # each region is an axis-aligned rectangle
    for lab in range(1, 5):
        ys, xs = np.nonzero(seg.labels == lab)
        h = ys.max() - ys.min() + 1
        w = xs.max() - xs.min() + 1
        assert h * w == len(ys)


def test_slic_single_region():
    seg = slic(_constant_raster(7, 5), 1)
    assert seg.count == 1
    assert (seg.labels == 1).all()


def test_slic_two_tone_split_follows_edge():
    img = np.zeros((20, 20), dtype=np.float32)
    img[:, 10:] = 200.0
    seg = slic(Raster.from_array(img), 4)
    _check_wellformed(seg)
    # every region must be (almost entirely) on one side of the tone edge
    correct = 0
    for lab in range(1, seg.count + 1):
        mask = seg.labels == lab
        left = np.count_nonzero(mask[:, :10])
        right = np.count_nonzero(mask[:, 10:])
        correct += max(left, right)
    assert correct >= 0.95 * img.size


def test_slic_count_near_target():
    rng = np.random.default_rng(5)
    r = Raster.from_array(rng.normal(size=(32, 32, 2)).astype(np.float32))
    seg = slic(r, 16)
    _check_wellformed(seg)
    assert 8 <= seg.count <= 24  # within [0.5, 1.5] x target


def test_slic_deterministic():
    rng = np.random.default_rng(6)
    r = Raster.from_array(rng.normal(size=(24, 24)).astype(np.float32))
    a = slic(r, 9)
    b = slic(r, 9)
    assert np.array_equal(a.labels, b.labels)


def test_slic_rejects_bad_arguments():
    r = _constant_raster(4, 4)
    with pytest.raises(ValueError):
        slic(r, 0)
    with pytest.raises(ValueError):
        slic(r, 17)


def _extreme_values(rng, shape):
    """float32 values of random sign whose magnitudes run log-uniformly from
    the smallest subnormal, 1e-45, to 3e38, both ends included."""
    arr = np.sign(rng.normal(size=shape)) * 10.0 ** rng.uniform(-45, np.log10(3e38),
                                                                size=shape)
    arr.flat[:4] = (1e-45, -1e-45, 3e38, -3e38)[:arr.size]
    return arr.astype(np.float32)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 48), st.integers(1, 48),
       st.integers(1, 3), st.integers(1, 60),
       st.sampled_from(("normal", "quantized", "extreme", "scaled")))
# 48 x 48 at 60: 64 centres in blocks of 10 (15 x 15 windows), ties common.
@example(seed=1, m=48, n=48, channels=1, target=60, values="quantized")
@example(seed=2, m=48, n=48, channels=3, target=60, values="quantized")
# Targets 1 and 2: every window is larger than the image.
@example(seed=3, m=7, n=9, channels=2, target=1, values="quantized")
@example(seed=4, m=7, n=9, channels=2, target=2, values="normal")
# Strips: the windows leave the image on both sides of the short axis.
@example(seed=5, m=1, n=48, channels=1, target=12, values="normal")
@example(seed=6, m=48, n=1, channels=2, target=5, values="quantized")
# One band: the colour distance |x - c| must equal sqrt((x - c) ** 2) from
# subnormal to near-overflow float32 values in one raster.
@example(seed=7, m=40, n=40, channels=1, target=30, values="extreme")
# More bands, summed in band order: numpy sums a trailing axis of 8 or more
# elements pairwise, so 7 to 9 bands straddle that change.
@example(seed=8, m=40, n=40, channels=4, target=30, values="normal")
@example(seed=9, m=40, n=40, channels=7, target=30, values="normal")
@example(seed=10, m=40, n=40, channels=8, target=30, values="normal")
@example(seed=11, m=40, n=40, channels=9, target=30, values="quantized")
# Bands whose scales differ by 1e-3 to 1e3, so that rounding in the sum bites.
@example(seed=12, m=40, n=40, channels=3, target=30, values="scaled")
def test_slic_matches_mask_oracle(seed, m, n, channels, target, values):
    rng = np.random.default_rng(seed)
    if values == "quantized":  # few distinct values, so distance ties occur
        arr = rng.integers(0, 3, size=(m, n, channels)).astype(np.float32)
    elif values == "extreme":
        arr = _extreme_values(rng, (m, n, channels))
    elif values == "scaled":
        scale = 10.0 ** np.linspace(-3, 3, channels)
        arr = (rng.normal(size=(m, n, channels)) * scale).astype(np.float32)
    else:
        arr = rng.normal(size=(m, n, channels)).astype(np.float32)
    r = Raster.from_array(arr)
    target = min(target, m * n)
    got = slic(r, target)
    want = oracle.slic(r, target)
    assert np.array_equal(got.labels, want.labels)


def test_slic_skips_the_last_centre_update(monkeypatch):
    # No label reads the centres of an update after the last assignment
    # pass, so slic leaves it out; the oracle runs it and gives the same labels.
    arr = np.random.default_rng(0).normal(size=(40, 40, 2)).astype(np.float32)
    r = Raster.from_array(arr)
    calls = {"passes": 0, "updates": 0}
    assign_block = segmentation._assign_block

    def counted_assign(*args):
        calls["passes"] += args[4] == 0  # a pass scores its first block first
        assign_block(*args)

    def counted_update(*args):
        calls["updates"] += 1
        _update_centers(*args)

    monkeypatch.setattr(segmentation, "_assign_block", counted_assign)
    monkeypatch.setattr(segmentation, "_update_centers", counted_update)
    got = slic(r, 30)
    assert calls == {"passes": SLIC_ITERS, "updates": SLIC_ITERS - 1}
    assert np.array_equal(got.labels, oracle.slic(r, 30).labels)


def test_slic_cross_block_tie_goes_to_lower_centre():
    # A constant 40 x 40 raster at target 16: S = 10, 21 x 21 windows, so
    # the centres are scored in blocks of 1600 // 441 = 3. Centres 2 and 3
    # start at (5, 25) and (5, 35), in different blocks, and pixel (5, 30)
    # lies at exactly distance 5 from both; centres 1 and 2 tie at (5, 20)
    # inside one block. The loop gives each tie to the lower centre.
    r = _constant_raster(40, 40, value=7.0)
    got = slic(r, 16)
    want = oracle.slic(r, 16)
    assert np.array_equal(got.labels, want.labels)
    # Column 30 ends in centre 2's region, beside column 25.
    assert got.labels[5, 30] == got.labels[5, 25] != got.labels[5, 35]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 40), st.integers(1, 40),
       st.integers(1, 3), st.integers(1, 50), st.integers(1, 100))
def test_slic_labels_do_not_depend_on_the_block_cap(seed, m, n, channels, target, cap):
    """Blocks capped far below the image (down to one centre per block) give
    the labels of the default cap: ties go to the lowest centre index, and
    blocks are scored in index order."""
    arr = np.random.default_rng(seed).integers(0, 3, size=(m, n, channels))
    r = Raster.from_array(arr.astype(np.float32))
    target = min(target, m * n)
    want = slic(r, target)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segmentation, "SLIC_BLOCK_ENTRIES", cap)
        got = slic(r, target)
    assert np.array_equal(got.labels, want.labels)


def _seed5_scene(bands):
    """The seed-5 256 x 256 scene's rasters X and Y with ``bands`` bands a side."""
    cfg = SynthConfig(m=256, n=256, cx=bands, cy=bands, noise_sigma=0.05, seed=5,
                      model=CopulaMixtureModel(rho=0.9, theta=1.0, w=1.0, n_train=1))
    x, y, _ = generate_pair(cfg)
    return x, y


@pytest.fixture(scope="module")
def scene5():
    """The seed-5 acceptance scene's rasters X and Y (perfbench scene256)."""
    return _seed5_scene(1)


@pytest.mark.parametrize("bands", [1, 3])
def test_slic_temporaries_stay_linear_in_pixels(bands):
    # Scoring centres in blocks bounds the window arrays by the image size,
    # and the colour distance is summed band by band from one float64 copy
    # of the bands. Peaks in float64 images of 256 x 256: 10.6 with 1 band
    # and 13.0 with 3; a (centres, window, window, bands) colour patch beside
    # a second copy of the bands peaked at 11.6 and 17.9.
    raster = _seed5_scene(bands)[0]
    tracemalloc.start()
    try:
        slic(raster, 800)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 256 * 256 * 8  # 16 float64 images, 8 MiB


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 48), st.integers(1, 48),
       st.integers(1, 3), st.integers(1, 60))
def test_update_centers_is_bit_identical_to_pixel_order_sums(seed, m, n, channels, k):
    # Labels alone hide last-bit differences in the means, so compare the
    # centres themselves; some clusters are left empty.
    rng = np.random.default_rng(seed)
    assign = rng.integers(0, k + 2, size=(m, n)) % k
    data = rng.normal(size=(m, n, channels))
    yy, xx = np.mgrid[0:m, 0:n].astype(np.float64)
    pos, col = rng.normal(size=(k, 2)), rng.normal(size=(k, channels))
    want_pos, want_col = pos.copy(), col.copy()
    planes = np.vstack([yy.ravel(), xx.ravel(), data.reshape(m * n, -1).T])
    _update_centers(assign.ravel(), planes, pos, col)
    oracle.update_centers(assign, yy, xx, data, want_pos, want_col)
    assert pos.tobytes() == want_pos.tobytes()
    assert col.tobytes() == want_col.tobytes()


def test_scene_centre_colours_equal_mask_means(scene5, monkeypatch):
    # On the scene rasters the float64 sum of each cluster's float32 pixels
    # is exact, so the pixel-order sums give the colours of numpy's pairwise
    # data[mask].mean(axis=0): every centre update's every cluster is checked,
    # SLIC_ITERS - 1 updates a call.
    clusters = 0

    def checked(assign, planes, centers_pos, centers_col):
        nonlocal clusters
        _update_centers(assign, planes, centers_pos, centers_col)
        pixels = planes[2:].T
        for ci in np.unique(assign):
            # The pixels the mask assign == ci selects, in row-major order.
            want = pixels[np.flatnonzero(assign == ci)].mean(axis=0)
            assert centers_col[ci].tobytes() == want.tobytes(), ci
            clusters += 1

    monkeypatch.setattr(segmentation, "_update_centers", checked)
    for raster in scene5:
        slic(raster, 800)
    assert clusters > 2 * (SLIC_ITERS - 1) * 700


def _block_map(seed, m, n, n_labels, block, offset=0, stride=1):
    """A random m x n map of ``n_labels`` values ``offset + stride * i``,
    constant on block x block squares."""
    rng = np.random.default_rng(seed)
    coarse = rng.integers(0, n_labels, size=(-(-m // block), -(-n // block)))
    labels = np.kron(coarse, np.ones((block, block), dtype=np.int64))[:m, :n]
    return np.ascontiguousarray(offset + stride * labels)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 30), st.integers(1, 30),
       st.booleans(), st.integers(1, 8), st.integers(1, 5))
def test_enforce_connectivity_matches_oracle(seed, m, n, strip, n_labels, block):
    # Few labels on block-upsampled maps split clusters into several
    # components of tied sizes; a losing block leaves orphans up to three
    # pixels deep; strips are 1 x N; some cluster ids never occur.
    if strip:
        m = 1
    assign = _block_map(seed, m, n, n_labels, block)
    got = _merge_pieces(assign)
    want = oracle.enforce_connectivity(assign, n_labels)
    assert got.count == want.count
    assert np.array_equal(got.labels, want.labels)


def test_enforce_connectivity_deep_orphan():
    # Cluster 0's small square is cut off from its large kept region, so
    # its 25 pixels are absorbed ring by ring into the surrounding cluster.
    assign = np.ones((12, 12), dtype=np.int64)
    assign[:, :3] = 0
    assign[5:10, 5:10] = 0
    got = _merge_pieces(assign)
    assert got.count == 2
    assert np.array_equal(got.labels, oracle.enforce_connectivity(assign, 2).labels)
    assert (got.labels[:, 3:] == got.labels[0, 3]).all()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 30), st.integers(1, 30),
       st.integers(1, 8), st.integers(1, 4), st.floats(0.0, 1.0))
def test_grow_kept_layers_match_the_pass_loop(seed, m, n, n_labels, block, kept_share):
    """Any kept set of pieces, from one piece to all, grows as in the loop
    over all remaining orphans of ``tests/segmentation_oracle.py``, and the
    kept pieces are numbered as the oracle's relabelling numbers them."""
    comp = _connected_regions(_block_map(seed, m, n, n_labels, block)).ravel()
    sizes = np.bincount(comp)
    rng = np.random.default_rng(seed)
    keep = rng.random(len(sizes)) < kept_share
    keep[rng.integers(len(sizes))] = True
    got = _grow_kept(comp, keep, sizes, (m, n))
    want = oracle.relabel_contiguous(oracle.grow_kept_passes(comp, keep, sizes, (m, n)))
    assert np.array_equal(got, want.labels)


def _grid_map(m, n, rows, cols):
    """Partition an m x n image into a rows x cols grid of rectangles."""
    ys = (np.arange(m) * rows // m)[:, None]
    xs = (np.arange(n) * cols // n)[None, :]
    labels = (ys * cols + xs + 1).astype(np.int64)
    return SegmentationMap(np.ascontiguousarray(labels))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 30), st.integers(1, 30),
       st.integers(1, 8), st.integers(1, 4), st.integers(0, 50), st.integers(1, 7))
@example(seed=0, m=1, n=1, n_labels=3, block=1, offset=0, stride=1)
@example(seed=1, m=1, n=25, n_labels=3, block=2, offset=0, stride=1)
@example(seed=2, m=25, n=1, n_labels=3, block=2, offset=0, stride=1)
@example(seed=3, m=20, n=20, n_labels=6, block=3, offset=5, stride=4)
def test_connected_regions_and_relabel_match_oracle(seed, m, n, n_labels, block,
                                                     offset, stride):
    # Block maps with few values split each value into several components;
    # the values have gaps and need not start at 0. The cleanup numbers its
    # kept pieces as it grows them, checked against the oracle's relabelling
    # in test_grow_kept_layers_match_the_pass_loop.
    code = _block_map(seed, m, n, n_labels, block, offset, stride)
    assert np.array_equal(_connected_regions(code), oracle.connected_regions(code))


def test_extract_features_constant_channel():
    seg = _grid_map(6, 6, 2, 3)
    r = _constant_raster(6, 6, c=2, value=3.25)
    feats = extract_features(r, seg)
    assert feats.shape == (6, 2)
    assert np.allclose(feats, 3.25)


def test_extract_features_single_region_global_mean():
    rng = np.random.default_rng(9)
    arr = rng.normal(size=(5, 7, 3)).astype(np.float32)
    seg = _grid_map(5, 7, 1, 1)
    feats = extract_features(Raster.from_array(arr), seg)
    assert np.allclose(feats[0], arr.reshape(-1, 3).mean(axis=0), atol=1e-6)


def test_extract_features_hand_case():
    arr = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    labels = np.array([[1, 2], [1, 2]], dtype=np.int64)
    seg = SegmentationMap(labels)
    feats = extract_features(Raster.from_array(arr), seg)
    assert feats[:, 0].tolist() == [2.0, 3.0]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.permutations([0, 1, 2]))
def test_extract_features_commutes_with_channel_permutation(seed, perm):
    rng = np.random.default_rng(seed)
    arr = rng.normal(size=(6, 6, 3)).astype(np.float32)
    seg = _grid_map(6, 6, 2, 2)
    feats = extract_features(Raster.from_array(arr), seg)
    permuted = extract_features(Raster.from_array(arr[:, :, perm]), seg)
    assert np.array_equal(permuted, feats[:, perm])
