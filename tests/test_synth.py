"""Synthetic heterogeneous pairs with known dependence and change region."""

import numpy as np
import pytest

from copcd.copula import CopulaMixtureModel
from copcd.dependence import kendall_tau
from copcd.synth import (
    SHAPE_BLOBS,
    SynthConfig,
    generate_pair,
    latent_pair,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(m=0)
    with pytest.raises(ValueError):
        SynthConfig(change_fraction=1.0)
    with pytest.raises(ValueError):
        SynthConfig(change_shape="stripes")
    for sigma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise_sigma"):
            SynthConfig(noise_sigma=sigma)


def test_no_change_requested_gives_empty_gt():
    x, y, gt = generate_pair(SynthConfig(m=32, n=32, change_fraction=0.0))
    assert gt.sum() == 0
    assert x.data.shape == (32, 32, 1)
    assert y.data.shape == (32, 32, 1)


def test_rectangle_change_covers_requested_fraction():
    cfg = SynthConfig(m=64, n=64, change_fraction=0.1, seed=3)
    _, _, gt = generate_pair(cfg)
    target = int(0.1 * 64 * 64)
    # the rectangle has integer sides, so the count is exact up to one row
    assert abs(int(gt.sum()) - target) <= 32
    ys, xs = np.nonzero(gt)
    h = ys.max() - ys.min() + 1
    w = xs.max() - xs.min() + 1
    assert h * w == gt.sum()


def test_blobs_change_reaches_target():
    cfg = SynthConfig(m=64, n=64, change_fraction=0.08, change_shape=SHAPE_BLOBS,
                      seed=4)
    _, _, gt = generate_pair(cfg)
    assert gt.sum() >= int(0.08 * 64 * 64)


def test_reproducible_from_seed():
    cfg = SynthConfig(m=48, n=48, change_fraction=0.1, noise_sigma=0.05, seed=9)
    x1, y1, gt1 = generate_pair(cfg)
    x2, y2, gt2 = generate_pair(cfg)
    assert np.array_equal(x1.data, x2.data)
    assert np.array_equal(y1.data, y2.data)
    assert np.array_equal(gt1, gt2)


def test_different_seeds_differ():
    a = generate_pair(SynthConfig(m=32, n=32, seed=1))[0]
    b = generate_pair(SynthConfig(m=32, n=32, seed=2))[0]
    assert not np.array_equal(a.data, b.data)


def test_latent_pair_has_model_dependence():
    # pre-smoothing tau of the latent fields matches the Gaussian-copula
    # identity tau = (2/pi) asin(rho)
    model = CopulaMixtureModel(rho=0.8, theta=1.0, w=1.0, n_train=1)
    rng = np.random.default_rng(11)
    u, v = latent_pair(model, (128, 128), rng)
    idx = rng.choice(128 * 128, size=4000, replace=False)
    tau = kendall_tau(u.ravel()[idx], v.ravel()[idx])
    assert tau == pytest.approx(2 / np.pi * np.arcsin(0.8), abs=0.05)


def test_changed_region_is_independent():
    cfg = SynthConfig(m=160, n=160, change_fraction=0.1, seed=5)
    x, y, gt = generate_pair(cfg)
    mask = gt.astype(bool)
    assert mask.sum() >= 2000
    xs = x.data[mask, 0].astype(np.float64)
    ys = y.data[mask, 0].astype(np.float64)
    rng = np.random.default_rng(6)
    idx = rng.choice(len(xs), size=min(len(xs), 2500), replace=False)
    assert abs(kendall_tau(xs[idx], ys[idx])) < 0.1


def test_intensity_range_and_modalities_differ():
    cfg = SynthConfig(m=64, n=64, change_fraction=0.0, seed=7)
    x, y, _ = generate_pair(cfg)
    for r in (x, y):
        assert r.data.min() >= 0.0
        assert r.data.max() <= 255.0
    # the two warps produce genuinely different intensity distributions
    assert not np.allclose(np.sort(x.data.ravel()), np.sort(y.data.ravel()),
                           atol=1.0)


def test_multichannel_output_shapes():
    cfg = SynthConfig(m=24, n=24, cx=2, cy=3, seed=8)
    x, y, gt = generate_pair(cfg)
    assert x.data.shape == (24, 24, 2)
    assert y.data.shape == (24, 24, 3)
    assert gt.shape == (24, 24)
