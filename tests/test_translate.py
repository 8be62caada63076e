"""Baseline translation: per-channel histogram matching."""

import numpy as np
import pytest
import translate_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copcd.raster import Raster
from copcd.translate import _match_channel, translate_baseline


def _raster(arr):
    return Raster.from_array(np.asarray(arr, dtype=np.float32))


def test_spec_validation():
    # 2 source bands feed 3 output bands as (0, 1, 0)
    rng = np.random.default_rng(5)
    x = _raster(rng.normal(size=(6, 6, 2)))
    y = _raster(rng.gamma(2.0, size=(6, 6, 3)))
    out = translate_baseline(x, y)
    for c2, c1 in enumerate((0, 1, 0)):
        single = translate_baseline(_raster(x.data[:, :, c1]), _raster(y.data[:, :, c2]))
        assert np.array_equal(out.data[:, :, c2], single.data[:, :, 0])


def test_self_matching_is_identity_on_tie_free_data():
    rng = np.random.default_rng(0)
    x = _raster(rng.normal(size=(8, 8, 2)))
    out = translate_baseline(x, x)
    assert np.allclose(out.data, x.data, atol=1e-6)


def test_constant_source_maps_to_target_median():
    x = _raster(np.full((4, 4, 1), 7.0))
    y = _raster(np.arange(16.0).reshape(4, 4, 1))
    out = translate_baseline(x, y)
    assert np.allclose(out.data, np.median(np.arange(16.0)))


def test_monotone_warp_recovery():
    rng = np.random.default_rng(1)
    base = rng.random((16, 16, 1)) * 255.0
    x = _raster(base)
    y = _raster(255.0 / (1.0 + np.exp(-(base - 128.0) / 40.0)))  # y = g(x)
    out = translate_baseline(x, y)
    assert np.abs(out.data - y.data).max() <= 1.0


def test_output_marginals_match_target():
    rng = np.random.default_rng(2)
    x = _raster(rng.normal(size=(20, 20, 1)))
    y = _raster(rng.gamma(2.0, size=(20, 20, 2)))
    out = translate_baseline(x, y)
    assert out.data.shape[2] == 2
    bound = 2.0 / np.sqrt(400) + 1e-6
    for c in range(2):
        a = np.sort(out.data[:, :, c].ravel())
        b = np.sort(y.data[:, :, c].ravel())
        # Kolmogorov distance between the two empirical distributions
        grid = np.union1d(a, b)
        fa = np.searchsorted(a, grid, side="right") / len(a)
        fb = np.searchsorted(b, grid, side="right") / len(b)
        assert np.abs(fa - fb).max() <= bound


def test_histogram_match_invariant_under_monotone_source_transform():
    rng = np.random.default_rng(3)
    x = _raster(rng.normal(size=(10, 10, 1)))
    y = _raster(rng.normal(size=(10, 10, 1)))
    out = translate_baseline(x, y)
    warped = _raster(np.exp(x.data.astype(np.float64) / 2).astype(np.float32))
    out_warped = translate_baseline(warped, y)
    assert np.array_equal(out.data, out_warped.data)


def test_tied_source_values_share_mean_target_slice():
    x = _raster(np.array([[1.0, 1.0], [2.0, 3.0]]))
    y = _raster(np.array([[10.0, 20.0], [30.0, 40.0]]))
    out = translate_baseline(x, y)
    flat = out.data.ravel()
    assert flat[0] == flat[1] == pytest.approx(15.0)  # mean of the two lowest
    assert flat[2] == 30.0 and flat[3] == 40.0


def test_quantized_source_groups_take_the_mean_of_their_target_slice():
    rng = np.random.default_rng(6)
    src = np.floor(rng.random((64, 64)) * 8.0)  # 8 levels, every one tied
    tgt = rng.gamma(2.0, size=(64, 64))
    out = translate_baseline(_raster(src[:, :, None]), _raster(tgt[:, :, None]))
    got = out.data[:, :, 0]
    tgt_sorted = np.sort(tgt.astype(np.float32).ravel()).astype(np.float64)
    start = 0
    for level in np.unique(src):
        group = src == level
        end = start + int(group.sum())
        expected = np.float32(np.mean(tgt_sorted[start:end]))
        assert np.unique(got[group]).tolist() == [expected]
        start = end
    assert start == src.size


_TARGETS = {
    "float32": lambda rng, size: rng.gamma(2.0, size=size).astype(np.float32),
    # float64 values over many octaves: a sum taken in another order differs
    "wide": lambda rng, size: rng.lognormal(0.0, 8.0, size),
    "signed zeros": lambda rng, size: np.where(rng.random(size) < 0.5, -0.0, 0.0),
}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 5000),
       levels=st.integers(1, 60), unique_share=st.floats(0.0, 1.0),
       target=st.sampled_from(sorted(_TARGETS)), negated=st.booleans())
@example(seed=0, size=4000, levels=2, unique_share=0.0, target="wide",
         negated=False)  # long runs
@example(seed=1, size=50, levels=1, unique_share=0.0, target="float32",
         negated=False)  # constant
@example(seed=2, size=300, levels=10, unique_share=1.0, target="float32",
         negated=False)  # no ties
@example(seed=3, size=2000, levels=15, unique_share=0.5, target="signed zeros",
         negated=False)
@example(seed=4, size=2000, levels=15, unique_share=0.5, target="wide",
         negated=True)  # -0.0 and 0.0 tied in the last run
def test_match_channel_is_the_run_loop_bit_for_bit(seed, size, levels, unique_share,
                                                    target, negated):
    """Quantized float32 sources, some values made unique so that runs of
    one sit between tied runs, the last run tied or not, match the loop of
    ``tests/translate_oracle.py`` byte for byte. A negated source ends on
    its run of zeros, every other one of them 0.0 and the rest -0.0."""
    rng = np.random.default_rng(seed)
    src = np.floor(rng.random(size) * levels)
    unique = rng.random(size) < unique_share
    src[unique] = levels + rng.random(int(unique.sum()))
    if negated:
        src = -src
        src[np.flatnonzero(src == 0)[::2]] = 0.0
    src = src.astype(np.float32)
    tgt = _TARGETS[target](rng, size)
    assert (_match_channel(src, tgt).tobytes()
            == translate_oracle.match_channel(src, tgt).tobytes())


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        translate_baseline(_raster(np.zeros((2, 2, 1))), _raster(np.zeros((3, 2, 1))))

