"""The sweep script's per-seed row: its scene, gate, superpixel count,
fitted parameters, box-end marks and counts, DI AUC, and artifact digest."""

import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from copcd import cli, pipeline
from copcd.copula import CopulaMixtureModel
from copcd.raster import load_binary_map, load_raster
from copcd.synth import SynthConfig, generate_pair

ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def sweep():
    return _load("run_synth_benchmark", ROOT / "scripts" / "run_synth_benchmark.py")


def _check_scene_and_counts(row, tmp_path, size, bands, post_bands=None):
    """The row's scene has ``bands`` pre-event and ``post_bands`` (default
    ``bands``) post-event bands and, when the two are equal, is perfbench's
    generator at ``size``; its superpixel and box-end counts are those of
    `copcd detect` on the same files. Returns that run's metrics and fits."""
    base = tmp_path / f"d{row['data']}_p{row['pipe']}"
    post_bands = bands if post_bands is None else post_bands
    pre, post = load_raster(str(base / "pre")), load_raster(str(base / "post"))
    assert pre.data.shape == (size, size, bands)
    assert post.data.shape == (size, size, post_bands)
    if bands == post_bands:
        workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        scene = workloads.Scene("s", "", size=size, bands=bands, staged=False,
                                gate=True)
        (tmp_path / "bench").mkdir()
        files = scene.setup(str(tmp_path / "bench"), row["data"])
        for name, ext in (("pre", ".f32"), ("post", ".f32"), ("gt", ".u8")):
            assert ((base / (name + ext)).read_bytes()
                    == Path(files[name] + ext).read_bytes())

    out = tmp_path / "cli"
    assert cli.main(["detect", "--pre", str(base / "pre"), "--post", str(base / "post"),
                     "--gt", str(base / "gt"), "--ns-model", "40", "--ns-test", "80",
                     "--alpha", "5", "--seed", "0", "--out-dir", str(out)]) == cli.EXIT_OK
    seg, _, _ = pipeline._segment(pre, post, pipeline.PipelineConfig(ns_test=80), "ns_test", 1)
    assert row["superpixels"] == seg.count
    fits = json.loads((out / "model.json").read_text())["pairs"]
    assert row["pairs"] == len(fits) == bands * post_bands
    assert row["box_end_pairs"] == sum(fit["rho"] in (0.01, 0.99)
                                       or fit["theta"] in (0.1, 20.0)
                                       for fit in fits.values())
    return json.loads((out / "metrics.json").read_text()), fits, out


def test_row_reports_the_gate_and_the_fitted_pair(sweep, tmp_path):
    row = sweep.run_one(64, 0.9, 1.0, 5, 0, 40, 80, 5.0, str(tmp_path))
    # The scene is perfbench's scene256 generator at 64 x 64, and the row's
    # figures are those of `copcd detect` on the same files.
    report, fits, out = _check_scene_and_counts(row, tmp_path, 64, 1)
    fitted = fits["1,1"]
    assert (row["data"], row["pipe"]) == (5, 0)
    assert (row["kc"], row["fm"], row["acc"]) == (report["kc"], report["fm"], report["acc"])
    assert (row["rho"], row["theta"], row["w"]) == (fitted["rho"], fitted["theta"],
                                                    fitted["w"])
    assert row["gate"] == ("pass" if report["kc"] >= 0.8 and report["acc"] >= 0.95
                           else "fail")
    assert row["rho_on_bound"] == (fitted["rho"] in (0.01, 0.99))
    assert row["theta_on_bound"] == (fitted["theta"] in (0.1, 20.0))
    artifacts = b"".join((out / name).read_bytes()
                         for name in ("di.f32", "bcm.u8", "model.json", "em_trace.csv"))
    assert row["digest"] == hashlib.sha256(artifacts).hexdigest()[:12]
    assert row["flagged"] == load_binary_map(str(out / "bcm")).mean()
    assert 0 <= row["auc"] <= 1
    assert row["auc"] == pytest.approx(_pairwise_auc(tmp_path / "d5_p0", 80), abs=1e-12)

    line = sweep.format_row(row)
    assert line.split()[:2] == ["5", "0"] and row["gate"] in line.split()
    assert line.count("*") == row["rho_on_bound"] + row["theta_on_bound"]
    assert str(row["superpixels"]) in line.split()
    assert f"{row['box_end_pairs']}/1" in line.split()
    assert line.split()[-1] == row["digest"]
    assert f"{row['flagged']:.1%}" in line.split()
    assert f"{row['auc']:.3f}" in line.split()
    # A fit at theta's lower end is marked as one at its upper end is.
    low = dict(row, rho=0.5, theta=0.1, rho_on_bound=False, theta_on_bound=True)
    assert "0.100*" in sweep.format_row(low) and sweep.format_row(low).count("*") == 1
    rows = [{"kc": 0.9, "gate": "pass", "box_end_pairs": 1, "pairs": 1, "sec": 2.0,
             "auc": 0.9},
            {"kc": 0.5, "gate": "fail", "box_end_pairs": 7, "pairs": 9, "sec": 0.5,
             "auc": float("nan")},
            {"kc": 0.7, "gate": "fail", "box_end_pairs": 0, "pairs": 4, "sec": 1.25,
             "auc": 0.8}]
    assert sweep.summary(rows) == ("KC median 0.700 min 0.500; gate failures 2/3; "
                                   "box-end fits 8/14; AUC median 0.850; median 1.25 s")
    assert "AUC median nan;" in sweep.summary(rows[1:2])


def _pairwise_auc(base, ns_test):
    """The DI AUC of the row's scene from every (changed, unchanged) pair of
    test superpixels, ties counting half."""
    result = pipeline.run_detect(pipeline.PipelineConfig(
        pre=str(base / "pre"), post=str(base / "post"), ns_model=40, ns_test=ns_test,
        alpha=5.0, seed=0))
    labels, di = result["seg_test"].labels, result["di"]
    gt = load_binary_map(str(base / "gt"))
    changed = np.array([gt[labels == k].mean() > 0.5 for k in range(1, len(di) + 1)])
    pos, neg = di[changed][:, None], di[~changed][None, :]
    return float(np.mean((pos > neg) + 0.5 * (pos == neg)))


@pytest.mark.parametrize("fraction", [0.0, 0.3])
def test_change_fraction_reaches_the_scene(sweep, tmp_path, fraction):
    # The row's ground truth is the generator's at that fraction; with no
    # change at all the run still ends, with KC 0 and only false alarms flagged.
    row = sweep.run_one(48, 0.9, 1.0, 5, 0, 40, 80, 5.0, str(tmp_path),
                        change_fraction=fraction)
    cfg = SynthConfig(m=48, n=48, change_fraction=fraction, noise_sigma=0.05, seed=5,
                      model=CopulaMixtureModel(rho=0.9, theta=1.0, w=1.0, n_train=1))
    gt = load_binary_map(str(tmp_path / "d5_p0" / "gt"))
    assert np.array_equal(gt, generate_pair(cfg)[2])
    assert abs(gt.mean() - fraction) < 0.01
    if fraction == 0:
        assert (row["kc"], row["fm"], row["gate"]) == (0.0, 0.0, "fail")
        assert row["acc"] == pytest.approx(1 - row["flagged"])
        assert math.isnan(row["auc"]) and "nan" in sweep.format_row(row).split()
    else:
        assert 0 <= row["auc"] <= 1


def test_multiband_row_counts_box_ends_over_every_pair(sweep, tmp_path):
    # --bands 3 gives perfbench's multiband_staged scene (here at 48 x 48):
    # nine channel pairs, each counted when it fits on an end of the box.
    row = sweep.run_one(48, 0.9, 1.0, 11, 0, 40, 80, 5.0, str(tmp_path), bands=3)
    _check_scene_and_counts(row, tmp_path, 48, 3)
    assert f"{row['box_end_pairs']}/9" in sweep.format_row(row).split()


def test_optical_against_sar_row_counts_box_ends_over_its_three_pairs(sweep, tmp_path):
    # --bands 3 --post-bands 1: a 3-band optical image against a 1-band SAR
    # image gives three channel pairs, (1, 1), (2, 1) and (3, 1).
    row = sweep.run_one(48, 0.9, 1.0, 11, 0, 40, 80, 5.0, str(tmp_path), bands=3,
                        post_bands=1)
    _check_scene_and_counts(row, tmp_path, 48, 3, post_bands=1)
    assert f"{row['box_end_pairs']}/3" in sweep.format_row(row).split()
