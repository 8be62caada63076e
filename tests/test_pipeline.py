"""Pipeline orchestration: per-pair fitting, one SLIC per segmentation, the
training half beside the test segmentation, stage errors."""

import threading

import numpy as np
import pytest
from copula_oracle import mixture_logpdf_and_gamma

from copcd import detector, emfit, pipeline, segmentation
from copcd.copula import CopulaMixtureModel, pseudo_obs, sample_mixture
from copcd.detector import test_statistics as compute_statistics
from copcd.dependence import (
    ORIENT_IDENTITY,
    ORIENT_NEGATED,
    TAIL_CLAYTON,
    TAIL_CLAYTON_SURVIVAL,
    kendall_tau,
    tail_dependence,
)
from copcd.pipeline import (
    PipelineConfig,
    StageError,
    fit_channel_pair,
    fit_model_set,
    run_detect,
)
from copcd.raster import Raster, save_raster
from copcd.synth import SynthConfig, generate_pair


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(ns_model=5)
    with pytest.raises(ValueError):
        PipelineConfig(alpha=-1.0)


def test_run_detect_requires_paths():
    with pytest.raises(StageError) as err:
        run_detect(PipelineConfig())
    assert err.value.stage == "load"


def test_run_detect_wraps_stage_failures(tmp_path):
    cfg = PipelineConfig(pre=str(tmp_path / "missing"),
                         post=str(tmp_path / "missing"))
    with pytest.raises(StageError) as err:
        run_detect(cfg)
    assert err.value.stage == "load"
    assert "load" in str(err.value)


def _fit_pair(x, y, config):
    model_set, traces = fit_model_set(x[:, None], y[:, None], config)
    return model_set.models[1, 1], traces[1, 1]


def test_fit_channel_pair_orients_negative_association():
    rng = np.random.default_rng(0)
    model = CopulaMixtureModel(rho=0.8, theta=1.0, w=1.0, n_train=1)
    u, v = sample_mixture(model, 1500, seed=1)
    x = rng.normal(size=1500)
    # map the copula sample onto features with a decreasing second coordinate
    xs = np.sort(x)
    feat_x = xs[np.clip((u * 1500).astype(int), 0, 1499)]
    feat_y = -np.sort(rng.normal(size=1500))[np.clip((v * 1500).astype(int), 0, 1499)]
    assert kendall_tau(feat_x, feat_y) < 0
    fitted, _ = _fit_pair(feat_x, feat_y, emfit.EmConfig())
    assert fitted.orientation == ORIENT_NEGATED
    assert fitted.rho > 0.5


def test_fit_and_detection_map_features_by_one_rule():
    # Training columns scored under their own model: the statistic is the
    # copula density at u = rank(x)/n and v = 1 - rank(y)/n, both clipped
    # to [1/(2n), 1 - 1/(2n)], and EM fitted exactly those (u, v).
    n = 1500
    u0, v0 = sample_mixture(CopulaMixtureModel(rho=0.8, theta=1.0, w=1.0, n_train=1),
                            n, seed=1)
    feat_x, feat_y = np.log(u0 / (1 - u0)), -np.tan(v0)
    assert len(np.unique(feat_x)) == len(np.unique(feat_y)) == n
    model_set, _ = fit_model_set(feat_x[:, None], feat_y[:, None], emfit.EmConfig())
    model = model_set.models[1, 1]
    assert model.orientation == ORIENT_NEGATED

    rank = lambda a: np.argsort(np.argsort(a)) + 1
    delta = 1 / (2 * n)
    u = np.clip(rank(feat_x) / n, delta, 1 - delta)
    v = np.clip(1 - rank(feat_y) / n, delta, 1 - delta)
    (rho, theta, w), _ = emfit.fit(u, v, model.tail_mode, emfit.EmConfig())
    assert (model.rho, model.theta, model.w) == (rho, theta, w)
    t = compute_statistics(feat_x[:, None], feat_y[:, None], model_set)
    expected = -mixture_logpdf_and_gamma(u, v, rho, theta, w, model.tail_mode)[0]
    assert np.array_equal(t[:, 0, 0], expected)


def test_fitted_weight_invariant_under_monotone_transform():
    model = CopulaMixtureModel(rho=0.7, theta=2.0, w=0.5, n_train=1)
    u, v = sample_mixture(model, 1000, seed=2)
    m1, _ = _fit_pair(u, v, emfit.EmConfig())
    m2, _ = _fit_pair(np.exp(4 * u), np.tan(v), emfit.EmConfig())
    assert m1 == m2  # pseudo-observations absorb the warps entirely


def test_fit_model_set_covers_all_channel_pairs():
    rng = np.random.default_rng(3)
    feat_x = rng.normal(size=(300, 2))
    feat_y = rng.normal(size=(300, 1))
    model_set, traces = fit_model_set(feat_x, feat_y, emfit.EmConfig())
    assert set(model_set.models) == {(1, 1), (2, 1)}
    assert all(t is not None for t in traces.values())
    for trace in traces.values():
        ll = np.array([row[1] for row in trace.rows])
        assert (np.diff(ll) >= -1e-9).all()


def test_fit_model_set_matches_direct_pair_fits():
    rng = np.random.default_rng(4)
    feat_x = rng.normal(size=(200, 2))
    feat_y = rng.normal(size=(200, 3))
    config = emfit.EmConfig()
    threads = threading.active_count()
    model_set, _ = fit_model_set(feat_x, feat_y, config)
    assert threading.active_count() == threads
    assert list(model_set.models) == [(c1, c2) for c1 in (1, 2) for c2 in (1, 2, 3)]
    for (c1, c2), model in model_set.models.items():
        direct, _ = _fit_pair(feat_x[:, c1 - 1], feat_y[:, c2 - 1], config)
        assert model == direct


def _searched_columns():
    """Feature columns with ties, both signed zeros and a subnormal; their
    pair (2, 2) is negatively associated."""
    rng = np.random.default_rng(8)
    n = 400
    base = rng.normal(size=n)
    tied = base.round(1)
    tied[:40] = np.tile([-0.0, 0.0], 20)
    tied[40] = 5e-324
    feat_x = np.stack([base, tied, np.exp(base) + rng.normal(size=n)], axis=1)
    feat_y = np.stack([base + rng.normal(size=n), -tied + 0.5 * rng.normal(size=n).round(1),
                       rng.normal(size=n)], axis=1)
    return feat_x, feat_y


def test_fit_model_set_fits_each_pair_on_the_stored_ecdfs(monkeypatch):
    # Each column's table, its ECDF read by its ranks, is byte for byte the
    # stored EmpiricalCdf that detection scores with, at that column.
    seen = []

    def recording_fit_channel_pair(table_x, table_y, config):
        seen.append((table_x, table_y))
        return fit_channel_pair(table_x, table_y, config)

    monkeypatch.setattr(pipeline, "fit_channel_pair", recording_fit_channel_pair)
    feat_x, feat_y = _searched_columns()
    model_set, _ = fit_model_set(feat_x, feat_y, emfit.EmConfig())
    assert len(seen) == 9
    for k, ((rx, ecdf_x), (ry, ecdf_y)) in enumerate(seen):
        c1, c2 = divmod(k, 3)
        assert (ecdf_x[rx].tobytes()
                == model_set.ecdfs_x[c1](feat_x[:, c1]).tobytes())
        assert (ecdf_y[ry].tobytes()
                == model_set.ecdfs_y[c2](feat_y[:, c2]).tobytes())


def test_fit_model_set_matches_pair_fits_on_searched_ecdfs():
    # fit_model_set ranks each column once and reads its ECDF by rank. That
    # must give, bit for bit, the models and traces of a fit whose tau comes
    # from the raw values and whose pseudo-observations search the stored
    # ECDFs. The stored column is np.sort's, byte for byte, signed zeros
    # included. float32 columns fit as their exact float64 copies do.
    feat_x, feat_y = _searched_columns()
    n = len(feat_x)
    config = emfit.EmConfig()
    model_set, traces = fit_model_set(feat_x, feat_y, config)
    orientations = set()
    for (c1, c2), model in model_set.models.items():
        x, y = feat_x[:, c1 - 1], feat_y[:, c2 - 1]
        tau = kendall_tau(x, y)
        u, v = pseudo_obs(model_set.ecdfs_x[c1 - 1](x), model_set.ecdfs_y[c2 - 1](y),
                          tau < 0, n)
        lower, upper = tail_dependence(u, v)
        tail_mode = TAIL_CLAYTON if lower > upper else TAIL_CLAYTON_SURVIVAL
        (rho, theta, w), trace = emfit.fit(u, v, tail_mode, config)
        orientation = ORIENT_NEGATED if tau < 0 else ORIENT_IDENTITY
        assert model == CopulaMixtureModel(rho=rho, theta=theta, w=w, tail_mode=tail_mode,
                                           orientation=orientation, n_train=n)
        assert traces[c1, c2] == trace
        orientations.add(orientation)
    assert model_set.models[2, 2].orientation == ORIENT_NEGATED
    assert orientations == {ORIENT_NEGATED, ORIENT_IDENTITY}
    assert model_set.ecdfs_x[1].sorted.tobytes() == np.sort(feat_x[:, 1]).tobytes()

    f32 = [f.astype(np.float32) for f in (feat_x, feat_y)]
    fit32, traces32 = fit_model_set(*f32, config)
    fit64, traces64 = fit_model_set(*(f.astype(np.float64) for f in f32), config)
    assert fit32.to_json() == fit64.to_json()
    assert traces32 == traces64


def test_fit_model_set_single_pair_from_sample_columns():
    model = CopulaMixtureModel(rho=0.0001, theta=2.0, w=0.0, n_train=1)
    u, v = sample_mixture(model, 5000, seed=6)
    model_set, traces = fit_model_set(u[:, None], v[:, None],
                                      PipelineConfig().em_config())
    fitted = model_set.models[1, 1]
    assert fitted.tail_mode == TAIL_CLAYTON
    assert 1.7 <= fitted.theta <= 2.3
    assert traces[(1, 1)] is not None


@pytest.mark.parametrize("size, bands", [(64, 1), (48, 3)])
def test_threaded_run_detect_matches_serial_fit_then_segment(tmp_path, size, bands):
    # run_detect fits in a worker thread while it segments the test pair;
    # the model, the EM traces and the test superpixels are those of _fit
    # and then _segment run one after the other, and the worker is gone.
    x, y, _ = generate_pair(SynthConfig(m=size, n=size, cx=bands, cy=bands,
                                        noise_sigma=0.05, seed=size))
    save_raster(x, str(tmp_path / "pre"))
    save_raster(y, str(tmp_path / "post"))
    config = PipelineConfig(pre=str(tmp_path / "pre"), post=str(tmp_path / "post"),
                            ns_model=40, ns_test=80)
    threads = threading.active_count()
    got = run_detect(config)
    assert threading.active_count() == threads
    want = pipeline._fit(x, y, config)
    seg = pipeline._segment(x, y, config, "ns_test", detector.STAGE1_K)
    assert got["model_set"].to_json() == want["model_set"].to_json()
    assert got["traces"] == want["traces"]
    assert got["seg_test"].count == seg.count
    assert got["seg_test"].labels.tobytes() == seg.labels.tobytes()


@pytest.mark.parametrize("ns, target", [(100, 200), (500, 204)], ids=["twice-ns", "floor"])
def test_segment_runs_one_slic_on_the_stacked_bands(monkeypatch, ns, target):
    # 3 pre bands and 1 post band: one slic call on the 4-band stack, pre
    # bands first, at twice the target or at one superpixel per MIN_AREA
    # pixels (64 x 64 // 20 = 204), whichever is fewer.
    rng = np.random.default_rng(7)
    a = Raster.from_array(rng.normal(size=(64, 64, 3)))
    b = Raster.from_array(rng.normal(size=(64, 64, 1)))
    calls = []
    slic = segmentation.slic

    def recording_slic(r, count):
        calls.append((r, count))
        return slic(r, count)

    monkeypatch.setattr(segmentation, "slic", recording_slic)
    seg = pipeline._segment(a, b, PipelineConfig(ns_test=ns), "ns_test", 1)
    [(stack, count)] = calls
    assert pipeline.MIN_AREA == 20 and count == target
    assert stack.data.tobytes() == np.concatenate([a.data, b.data], axis=2).tobytes()
    want = slic(stack, target)
    assert seg.count == want.count
    assert seg.labels.tobytes() == want.labels.tobytes()
