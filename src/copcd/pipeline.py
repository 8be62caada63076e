"""End-to-end orchestration: translate -> segment -> fit -> detect -> score.

Each segmentation is one SLIC on the stacked bands of a raster pair: training
segments (X, Y'), testing (X, Y). In ``run_detect`` the training half runs in
a worker thread while the calling thread segments the test pair. The fitted
marginals (training ECDFs) are reused for the test statistics.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import detector, emfit, metrics, segmentation, translate
from .copula import ChannelPairModels, CopulaMixtureModel, load_model_set, pseudo_obs
from .dependence import (
    ORIENT_IDENTITY,
    ORIENT_NEGATED,
    TAIL_CLAYTON,
    TAIL_CLAYTON_SURVIVAL,
    EmpiricalCdf,
    kendall_tau,
    tail_dependence,
)
from .raster import (
    Raster,
    export_graymap,
    load_binary_map,
    load_raster,
    save_binary_map,
    save_raster,
)

# The least mean superpixel area, in pixels, that a segmentation asks SLIC
# for; not a setting. It binds on small scenes: at 128 x 128 and ns 400/800,
# SLIC's test target is 819, not 1,600. Held-out 128 x 128 scenes (data
# seeds 100-199, 1 band, 10% change) fail the KC/ACC gate 20 times in 100
# with a floor of 10 px, 17 with 16, 11 with 20 or 24 and 13 with 32, against
# 8 when each raster had its own SLIC map and a pair merged the two.
MIN_AREA = 20


@dataclass(frozen=True)
class PipelineConfig:
    pre: str = field(default=None, metadata={"help": "pre-event raster (container base path)"})
    post: str = field(default=None, metadata={"help": "post-event raster"})
    translated: str = field(default=None,
                            metadata={"help": "externally translated raster (skips baseline)"})
    gt: str = field(default=None, metadata={"help": "ground-truth binary map for scoring"})
    out_dir: str = "."
    model: str = field(default=None,
                       metadata={"help": "model.json from fit (detect skips training)"})
    ns_model: int = 1000
    ns_test: int = 2000
    alpha: float = 5.0
    eps: float = emfit.EmConfig.eps
    seed: int = 0

    def __post_init__(self):
        for name in ("ns_model", "ns_test"):
            if getattr(self, name) < 10:
                raise ValueError(f"config field {name!r} must be >= 10, got {getattr(self, name)}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(
                f"config field 'alpha' must be finite and >= 0, got {self.alpha!r}")
        self.em_config()  # EmConfig checks eps
        if self.seed < 0:
            raise ValueError(f"config field 'seed' must be >= 0, got {self.seed!r}")
        if self.model is not None and self.translated is not None:
            raise ValueError("config fields 'model' and 'translated' exclude each other")

    def em_config(self) -> emfit.EmConfig:
        return emfit.EmConfig(eps=self.eps)


class StageError(Exception):
    """Wraps a failure with the name of the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r}: {cause}")
        self.stage = stage
        self.cause = cause


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise StageError(name, exc) from exc


def fit_channel_pair(table_x, table_y, em_config: emfit.EmConfig):
    """EM fit of one channel pair; returns (model, trace).

    table_x and table_y are the two columns' tables from ``fit_model_set``:
    (ranks, ecdf), each sample's dense rank and the training ECDF at each
    rank. Kendall's tau reads the ranks, and ``pseudo_obs`` turns the ECDF
    values by rank into the copula arguments, v reflected when tau is
    negative. The Clayton branch goes to the tail with the larger empirical
    dependence.
    """
    (rx, ecdf_x), (ry, ecdf_y) = table_x, table_y
    n = len(rx)
    tau = kendall_tau(rx, ry)
    u, v = pseudo_obs(ecdf_x[rx], ecdf_y[ry], tau < 0, n)
    lower, upper = tail_dependence(u, v)
    tail_mode = TAIL_CLAYTON if lower > upper else TAIL_CLAYTON_SURVIVAL
    (rho, theta, w), trace = emfit.fit(u, v, tail_mode, em_config)
    model = CopulaMixtureModel(
        rho=rho, theta=theta, w=w, tail_mode=tail_mode,
        orientation=ORIENT_NEGATED if tau < 0 else ORIENT_IDENTITY, n_train=n,
    )
    return model, trace


def _rank_table(col: np.ndarray):
    """(ranks, ecdf) of a sample column: each sample's dense rank (-0.0 ==
    0.0) and, at rank r, #{samples <= r-th distinct value} / n, the value
    of the column's EmpiricalCdf at every sample of that rank."""
    _, ranks, counts = np.unique(col, return_inverse=True, return_counts=True)
    return ranks, np.cumsum(counts) / len(col)


def fit_model_set(feat_x: np.ndarray, feat_y: np.ndarray, em_config: emfit.EmConfig):
    """Fit a model for every channel pair, one after another in (c1, c2) order.
    Each column is sorted once for the EmpiricalCdf that detection reads and
    ranked once, by ``_rank_table``, for all its pairs.

    Returns (ChannelPairModels, {pair: EmTrace}).
    """
    ecdfs_x = tuple(map(EmpiricalCdf, feat_x.T))
    ecdfs_y = tuple(map(EmpiricalCdf, feat_y.T))
    tables_x = [_rank_table(col) for col in feat_x.T]
    tables_y = [_rank_table(col) for col in feat_y.T]
    models, traces = {}, {}
    for c1, table_x in enumerate(tables_x, 1):
        for c2, table_y in enumerate(tables_y, 1):
            models[c1, c2], traces[c1, c2] = fit_channel_pair(table_x, table_y, em_config)
    return ChannelPairModels(models, ecdfs_x, ecdfs_y), traces


def _segment(a: Raster, b: Raster, config: PipelineConfig, field: str, least: int):
    """One SLIC on the bands of ``a`` then ``b``, stacked, at twice the target
    of config field ``field``, or at one superpixel per MIN_AREA pixels if
    that is fewer. Returns (seg, feat_a, feat_b): the map and the features
    of ``a`` and of ``b`` over it; the stacked copy is freed when SLIC
    returns. An error names the field when it exceeds the pixel count or the
    map has fewer than ``least`` regions, and the floor when it bound."""
    target, pixels = getattr(config, field), math.prod(a.data.shape[:2])
    if target > pixels:
        raise StageError("segment", ValueError(
            f"config field {field!r} = {target} exceeds the {pixels} pixels of this scene"))
    cap = max(1, pixels // MIN_AREA)
    seg = _stage("segment", segmentation.slic,
                 Raster(np.concatenate([a.data, b.data], axis=2)), min(2 * target, cap))
    if seg.count < least:
        capped = (f", capped at {cap} by the floor of {MIN_AREA} pixels a superpixel"
                  if cap < 2 * target else "")
        raise StageError("segment", ValueError(
            f"config field {field!r} = {target} gives {seg.count} "
            f"superpixels on this scene{capped}; at least {least} are needed"))
    return (seg, _stage("features", segmentation.extract_features, a, seg),
            _stage("features", segmentation.extract_features, b, seg))


def write_traces_csv(traces: dict, path: str) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["c1", "c2", "iteration", "log_likelihood", "rho", "theta",
                         "w", "mean_gamma1", "status"])
        for (c1, c2), trace in sorted(traces.items()):
            for row in trace.rows:
                writer.writerow([c1, c2, *row, trace.status])


def refuse_constant(name: str, samples: np.ndarray, unit: str = "band") -> None:
    """Refuse input raster ``name`` if a ``unit`` of it, a slice of ``samples``
    on the last axis, holds one value; the error gives the unit's 1-based index."""
    axes = tuple(range(samples.ndim - 1))
    constant = np.flatnonzero(samples.min(axis=axes) == samples.max(axis=axes))
    if constant.size:
        raise ValueError(f"{name} raster {unit} {constant[0] + 1} is constant; "
                         "it carries no information")


def _load_inputs(config: PipelineConfig):
    """Load the pre/post rasters and the ``--translated`` one, or None; a pair
    of different pixel sizes, a translation of another shape than the post
    raster, or a band whose values are all equal, is refused. The band counts
    of pre and post may differ."""
    if config.pre is None or config.post is None:
        raise StageError("load", ValueError("--pre and --post are required"))
    x, y = _stage("load", load_raster, config.pre), _stage("load", load_raster, config.post)
    (m, n), (pm, pn) = x.data.shape[:2], y.data.shape[:2]
    if (m, n) != (pm, pn):
        raise StageError("load", ValueError(
            f"post raster is {pm}x{pn} pixels, pre raster {m}x{n}"))
    for name, r in (("pre", x), ("post", y)):
        _stage("load", refuse_constant, name, r.data)
    if config.translated is None:
        return x, y, None
    y_t = _stage("load", load_raster, config.translated)
    if y_t.data.shape != y.data.shape:
        raise StageError("load", ValueError(
            "translated raster is {}x{} pixels of {} bands, post raster {}x{} of {}"
            .format(*y_t.data.shape, *y.data.shape)))
    _stage("load", refuse_constant, "translated", y_t.data)
    return x, y, y_t


def _fit(x: Raster, y: Raster, y_t, config: PipelineConfig):
    """Training half on the loaded rasters: translate X, unless ``y_t`` is the
    loaded translation, segment (X, Y'), then fit every channel pair.
    Returns {"model_set", "traces"}, the EM trace of each pair."""
    if y_t is None:
        y_t = _stage("translate", translate.translate_baseline, x, y)
    _, feat_x, feat_y = _segment(x, y_t, config, "ns_model", emfit.MIN_PAIRS)
    model_set, traces = _stage("fit", fit_model_set, feat_x, feat_y, config.em_config())
    return {"model_set": model_set, "traces": traces}


def run_fit(config: PipelineConfig) -> dict:
    """Training half of the pipeline: ``_fit`` on the loaded input rasters.
    Returns the dict {"model_set", "traces"}."""
    return _fit(*_load_inputs(config), config)


def run_detect(config: PipelineConfig) -> dict:
    """Full detection pipeline. Extends ``run_fit``'s dict with ``seg_test``
    (the test segmentation), ``di`` (the DI per superpixel), ``bcm`` (the
    per-pixel change map) and, with ``config.gt``, ``report``.

    With ``config.model`` set, the model file replaces the training half:
    only the pre/post rasters are read, and the dict has no ``traces``.
    """
    x, y, y_t = _load_inputs(config)
    if config.gt is not None:
        gt = _stage("load", load_binary_map, config.gt)
        if gt.shape != x.data.shape[:2]:
            raise StageError("load", ValueError(
                "gt map is {}x{} pixels, pre raster {}x{}".format(*gt.shape, *x.data.shape[:2])))
    if config.model is None:
        # The test segmentation does not read the training half: a worker
        # thread fits while this thread segments (X, Y). When both fail, the
        # training error is raised, as in serial order.
        with ThreadPoolExecutor(max_workers=1) as pool:
            training = pool.submit(_fit, x, y, y_t, config)
            try:
                seg_test, feat_x_test, feat_y_test = _segment(
                    x, y, config, "ns_test", detector.STAGE1_K)
            finally:
                out = training.result()
    else:
        out = {"model_set": _stage("load", load_model_set, config.model)}
        seg_test, feat_x_test, feat_y_test = _segment(x, y, config, "ns_test",
                                                      detector.STAGE1_K)

    t = _stage("detect", detector.test_statistics, feat_x_test, feat_y_test, out["model_set"])
    di = _stage("detect", detector.fuse_difference, t)
    rep = _stage("detect", detector.representative_vectors, feat_x_test, feat_y_test,
                 di, config.alpha)
    bcm = _stage("detect", detector.two_stage_bcm, rep, di, seg_test, config.seed)

    out.update(seg_test=seg_test, di=di, bcm=bcm)
    if config.gt is not None:
        out["report"] = _stage("score", metrics.score, bcm, gt)
    return out


def write_artifacts(result: dict, out_dir: str) -> None:
    """Write into out_dir what ``result`` holds: ``model.json`` and
    ``em_trace.csv`` when the run fitted a model (``traces``), the DI and the
    change map with their PGM views when it detected, and ``metrics.json``
    when it scored."""
    os.makedirs(out_dir, exist_ok=True)
    join = lambda name: os.path.join(out_dir, name)

    if "traces" in result:
        with open(join("model.json"), "w") as fh:
            fh.write(result["model_set"].to_json())
            fh.write("\n")
        write_traces_csv(result["traces"], join("em_trace.csv"))

    if "bcm" in result:
        seg_test = result["seg_test"]
        di_pixels = result["di"][seg_test.labels - 1]
        save_raster(Raster.from_array(di_pixels), join("di"))
        export_graymap(di_pixels, join("di.pgm"))

        bcm = result["bcm"]
        save_binary_map(bcm, join("bcm"))
        export_graymap(bcm.astype(np.uint8) * 255, join("bcm.pgm"))

    if "report" in result:
        result["report"].write(join("metrics.json"))
