"""Command-line interface: subcommands, exit codes, stage isolation."""

import base64
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copcd import cli, pipeline, translate
from copcd.copula import CopulaMixtureModel, encode_column, sample_mixture
from copcd.raster import Raster, load_binary_map, load_raster, save_binary_map, save_raster


def test_synth_writes_all_artifacts(tmp_path, capsys):
    out = str(tmp_path / "data")
    code = cli.main(["synth", "--m", "32", "--n", "32", "--seed", "3",
                     "--change-fraction", "0.1", "--out-dir", out])
    assert code == cli.EXIT_OK
    for name in ("pre.hdr.json", "pre.f32", "post.hdr.json", "post.f32",
                 "gt.hdr.json", "gt.u8", "gt.pgm"):
        assert os.path.exists(os.path.join(out, name))
    assert "changed pixels" in capsys.readouterr().out


def test_synth_zero_change_gt_all_zero(tmp_path):
    out = str(tmp_path / "data")
    assert cli.main(["synth", "--m", "16", "--n", "16",
                     "--change-fraction", "0", "--out-dir", out]) == cli.EXIT_OK
    assert load_binary_map(os.path.join(out, "gt")).sum() == 0


def test_detect_missing_inputs_is_contract_error(capsys):
    code = cli.main(["detect", "--out-dir", "/tmp/unused"])
    assert code == cli.EXIT_CONTRACT
    assert "load" in capsys.readouterr().err


def test_score_identical_maps(tmp_path, capsys):
    gt = np.zeros((8, 8), dtype=np.uint8)
    gt[2:4, 2:6] = 1
    save_binary_map(gt, str(tmp_path / "a"))
    out = str(tmp_path / "metrics.json")
    code = cli.main(["score", "--bcm", str(tmp_path / "a"),
                     "--gt", str(tmp_path / "a"), "--out", out])
    assert code == cli.EXIT_OK
    assert "kc=1.0000" in capsys.readouterr().out
    assert json.load(open(out))["kc"] == 1.0


def test_translate_command(tmp_path):
    rng = np.random.default_rng(0)
    save_raster(Raster.from_array(rng.normal(size=(8, 8, 1)).astype(np.float32)),
                str(tmp_path / "x"))
    save_raster(Raster.from_array(rng.gamma(2.0, size=(8, 8, 1)).astype(np.float32)),
                str(tmp_path / "y"))
    code = cli.main(["translate", "--pre", str(tmp_path / "x"),
                     "--post", str(tmp_path / "y"),
                     "--out", str(tmp_path / "yt")])
    assert code == cli.EXIT_OK
    yt = load_raster(str(tmp_path / "yt"))
    assert np.allclose(np.sort(yt.data.ravel()),
                       np.sort(load_raster(str(tmp_path / "y")).data.ravel()))


def test_fit_pairs_recovers_clayton_theta(tmp_path, capsys):
    model = CopulaMixtureModel(rho=0.0001, theta=2.0, w=0.0, n_train=1)
    u, v = sample_mixture(model, 5000, seed=1)
    pairs = np.stack([u, v], axis=1)[:, :, None].astype(np.float32)
    save_raster(Raster.from_array(pairs), str(tmp_path / "pairs"))
    out = str(tmp_path / "fit")
    code = cli.main(["fit", "--pairs", str(tmp_path / "pairs"), "--out-dir", out])
    assert code == cli.EXIT_OK
    doc = json.load(open(os.path.join(out, "model.json")))
    assert 1.7 <= doc["pairs"]["1,1"]["theta"] <= 2.3
    assert os.path.exists(os.path.join(out, "em_trace.csv"))
    assert "pair 1,1" in capsys.readouterr().out


@pytest.mark.parametrize("via_config", [False, True])
def test_fit_refuses_model(tmp_path, capsys, via_config):
    # fit always runs EM; a model given to it must be refused before any
    # stage runs (no --pre/--post here, so a stage would fail at 'load').
    model = str(tmp_path / "model.json")
    args = ["fit", "--out-dir", str(tmp_path / "fit")]
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model}))
        args += ["--config", str(cfg)]
    else:
        args += ["--model", model]
    assert cli.main(args) == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'model'" in err
    assert "stage" not in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "fit")


@pytest.fixture()
def pairs_raster(tmp_path):
    model = CopulaMixtureModel(rho=0.5, theta=2.0, w=0.5, n_train=1)
    u, v = sample_mixture(model, 500, seed=2)
    path = str(tmp_path / "pairs")
    save_raster(Raster.from_array(np.stack([u, v], axis=1)[:, :, None]
                                  .astype(np.float32)), path)
    return path


@pytest.mark.parametrize("flags, config, key", [
    (["--pre", "nope"], {}, "pre"),
    (["--post", "nope"], {}, "post"),
    (["--translated", "nope"], {}, "translated"),
    (["--pca", "3"], {}, "pca"),
    (["--ns-model", "50000"], {}, "ns_model"),
    (["--compactness", "3"], {}, "compactness"),
    (["--seed", "1"], {}, "seed"),
    (["--model", "model.json"], {}, "model"),
    ([], {"pre": "nope"}, "pre"),
    ([], {"ns_test": 50}, "ns_test"),
])
def test_fit_pairs_refuses_fields_it_does_not_read(tmp_path, capsys, pairs_raster,
                                                   flags, config, key):
    args = ["fit", "--pairs", pairs_raster, "--eps", "1e-4",
            "--out-dir", str(tmp_path / "fit"), *flags]
    if config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args += ["--config", str(cfg)]
    assert cli.main(args) == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
    assert "stage" not in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "fit")


def test_fit_pairs_reads_eps_theta_max_and_out_dir(tmp_path, pairs_raster):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta_max": 15.0, "out_dir": str(tmp_path / "cfg_out")}))
    out = tmp_path / "fit"
    args = ["fit", "--pairs", pairs_raster, "--eps", "1e-4", "--config", str(cfg),
            "--out-dir", str(out)]
    assert cli.main(args) == cli.EXIT_OK
    assert list(json.loads((out / "model.json").read_text())["pairs"]) == ["1,1"]


def test_cli_import_leaves_out_verification_maths(tmp_path, pairs_raster):
    """Neither importing the CLI nor an EM fit loads scipy.integrate or
    scipy.optimize (the latter costs about as much as a pairs20k op)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    fit = ["fit", "--pairs", pairs_raster, "--out-dir", str(tmp_path / "fit")]
    code = ("import sys, copcd.cli; "
            "loaded = lambda: sorted({'scipy.integrate', 'scipy.optimize'} & "
            "set(sys.modules)); print(loaded()); "
            f"assert copcd.cli.main({fit!r}) == 0; print(loaded())")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.splitlines()[0] == "[]" and out.splitlines()[-1] == "[]"


def test_unknown_config_key_is_contract_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    code = cli.main(["detect", "--config", str(cfg)])
    assert code == cli.EXIT_CONTRACT
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize("values, key", [
    ({"ns_model": "400"}, "ns_model"),
    ({"ns_test": True}, "ns_test"),
    ({"alpha": "5"}, "alpha"),
    ({"pca": 2.0}, "pca"),
])
def test_mistyped_config_value_is_contract_error(tmp_path, capsys, values, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    code = cli.main(["detect", "--config", str(cfg)])
    assert code == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    *[(key, value) for key in ("alpha", "eps", "theta_max", "compactness")
      for value in (float("nan"), float("inf"), float("-inf"))],
    ("alpha", -1.0), ("eps", 0.0), ("eps", -1e-3), ("theta_max", 0.0),
    ("theta_max", -2.0), ("compactness", 0.0), ("compactness", -10.0),
    ("pca", 0), ("pca", -1),
])
def test_out_of_range_config_value_is_contract_error(tmp_path, capsys, key, value):
    # JSON carries NaN and Infinity as bare literals; each must be refused
    # before any stage runs, naming the field.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code = cli.main(["detect", "--config", str(cfg)])
    assert code == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
    assert "stage" not in err and "Traceback" not in err


@pytest.mark.parametrize("text", ["[1, 2]", "null", "3"])
def test_config_that_is_not_an_object_is_contract_error(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert cli.main(["detect", "--config", str(cfg)]) == cli.EXIT_CONTRACT
    assert "JSON object" in capsys.readouterr().err


def test_float_config_fields_accept_ints(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 2, "eps": 1}))

    class Args:
        config = str(cfg)

    built = cli.build_pipeline_config(Args())
    assert (built.alpha, built.eps) == (2, 1)


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 2.0, "seed": 7}))

    class Args:
        config = str(cfg)
        alpha = 9.0

    built = cli.build_pipeline_config(Args())
    assert built.alpha == 9.0  # flag wins
    assert built.seed == 7  # config file still applies


def test_bad_subcommand_usage(capsys):
    assert cli.main(["frobnicate"]) == cli.EXIT_CONTRACT
    capsys.readouterr()


@pytest.fixture(scope="module")
def small_scene(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("scene")
    out = str(tmp / "data")
    assert cli.main(["synth", "--m", "48", "--n", "48", "--rho", "0.9",
                     "--w", "1.0", "--change-fraction", "0.1",
                     "--noise-sigma", "0.05", "--seed", "5",
                     "--out-dir", out]) == cli.EXIT_OK
    return out


def _detect_args(data_dir, out_dir):
    return [
        "detect",
        "--pre", os.path.join(data_dir, "pre"),
        "--post", os.path.join(data_dir, "post"),
        "--gt", os.path.join(data_dir, "gt"),
        "--out-dir", out_dir,
        "--ns-model", "40", "--ns-test", "80", "--seed", "0",
    ]


def test_detect_writes_artifacts(small_scene, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cli.main(_detect_args(small_scene, out)) == cli.EXIT_OK
    for name in ("model.json", "em_trace.csv", "di.hdr.json", "di.f32",
                 "di.pgm", "bcm.hdr.json", "bcm.u8", "bcm.pgm", "metrics.json"):
        assert os.path.exists(os.path.join(out, name)), name
    assert "kc=" in capsys.readouterr().out
    report = json.load(open(os.path.join(out, "metrics.json")))
    assert set(report) >= {"tp", "tn", "fp", "fn", "kc", "fm", "acc"}


def test_fit_then_detect_with_model_reproduces_direct_run(small_scene, tmp_path):
    direct = str(tmp_path / "direct")
    assert cli.main(_detect_args(small_scene, direct)) == cli.EXIT_OK

    fit_out = str(tmp_path / "fitted")
    fit_args = ["fit"] + _detect_args(small_scene, fit_out)[1:]
    assert cli.main(fit_args) == cli.EXIT_OK

    staged = str(tmp_path / "staged")
    staged_args = _detect_args(small_scene, staged)
    staged_args += ["--model", os.path.join(fit_out, "model.json")]
    assert cli.main(staged_args) == cli.EXIT_OK

    for name in ("bcm.u8", "di.f32"):
        a = open(os.path.join(direct, name), "rb").read()
        b = open(os.path.join(staged, name), "rb").read()
        assert a == b, f"{name} differs between direct and staged runs"


def test_fit_rejects_translated_raster_of_wrong_shape(small_scene, tmp_path, capsys):
    # small_scene is 48 x 48 with one band per side; this translation has two.
    bad = np.zeros((48, 48, 2), dtype=np.float32)
    save_raster(Raster.from_array(bad), str(tmp_path / "translated"))
    args = ["fit"] + _detect_args(small_scene, str(tmp_path / "fit"))[1:]
    args += ["--translated", str(tmp_path / "translated")]
    assert cli.main(args) == cli.EXIT_CONTRACT
    assert "stage 'translate': translated raster shape mismatch" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "fit" / "model.json")


def test_malformed_comic_threads_is_contract_error(tmp_path, capsys, monkeypatch):
    data = str(tmp_path / "data")
    assert cli.main(["synth", "--m", "32", "--n", "32", "--cx", "2",
                     "--out-dir", data]) == cli.EXIT_OK
    monkeypatch.setenv("COMIC_THREADS", "x")
    args = ["fit", "--pre", os.path.join(data, "pre"), "--post", os.path.join(data, "post"),
            "--ns-model", "20", "--out-dir", str(tmp_path / "fit")]
    assert cli.main(args) == cli.EXIT_CONTRACT
    assert "COMIC_THREADS must be an integer, got 'x'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fitted_model(small_scene, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fitted"))
    assert cli.main(["fit"] + _detect_args(small_scene, out)[1:]) == cli.EXIT_OK
    return os.path.join(out, "model.json")


def test_detect_with_model_runs_only_the_test_half(small_scene, fitted_model, tmp_path,
                                                   monkeypatch):
    segmented = []
    cosegment_pair = pipeline.cosegment_pair

    def counting_cosegment_pair(*args):
        segmented.append(args[2])
        return cosegment_pair(*args)

    def no_translation(*args):
        raise RuntimeError("detect --model must not translate")

    monkeypatch.setattr(pipeline, "cosegment_pair", counting_cosegment_pair)
    monkeypatch.setattr(translate, "translate_baseline", no_translation)
    out = tmp_path / "staged"
    args = _detect_args(small_scene, str(out)) + ["--model", fitted_model]
    assert cli.main(args) == cli.EXIT_OK
    assert segmented == [80]  # the test co-segmentation only, at --ns-test
    assert (out / "model.json").read_bytes() == Path(fitted_model).read_bytes()
    assert (out / "em_trace.csv").read_text().count("\n") == 1  # header only


def _three_band(doc):
    doc.update(cx=3, cy=3, x=doc["x"] * 3, y=doc["y"] * 3,
               pairs={f"{a},{b}": doc["pairs"]["1,1"] for a in (1, 2, 3) for b in (1, 2, 3)})


@pytest.mark.parametrize("mutate, key", [
    (lambda d: [d.pop(k) for k in ("version", "x", "y")], "'version'"),
    (lambda d: d.update(version=3), "'version'"),
    (lambda d: d["x"].__setitem__(0, "not base64!"), "'x'"),
    (lambda d: d["y"].__setitem__(0, base64.b64encode(bytes(7)).decode()), "'y'"),
    (lambda d: d["x"].__setitem__(0, encode_column([0.5, float("nan")])), "'x'"),
    (lambda d: d.update(x=d["x"] * 2), "'x'"),
    (lambda d: d["pairs"].pop("1,1"), "'pairs'"),
    (lambda d: d["pairs"].update({"1,2": d["pairs"]["1,1"]}), "'pairs'"),
    (_three_band, "cx=3"),
], ids=["parameters-only", "version-3", "not-base64", "bytes-not-multiple-of-8",
        "nan", "two-x-columns", "missing-pair", "extra-pair", "three-band-model"])
def test_malformed_model_is_contract_error(small_scene, fitted_model, tmp_path, capsys,
                                           mutate, key):
    doc = json.loads(Path(fitted_model).read_text())
    mutate(doc)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert cli.main(_detect_args(small_scene, str(out)) + ["--model", str(bad)]) \
        == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err
    assert not (out / "bcm.u8").exists()


def _detect_with_config(data_dir, out_dir, config):
    """Exit code, stderr and the RuntimeWarnings of one in-process detect."""
    cfg = Path(out_dir + ".json")
    cfg.write_text(json.dumps(config))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(_detect_args(data_dir, out_dir) + ["--config", str(cfg)])
    return code, err.getvalue(), [w for w in caught if w.category is RuntimeWarning]


def test_theta_stays_within_a_small_theta_max(small_scene, tmp_path):
    out = str(tmp_path / "run")
    code, err, runtime = _detect_with_config(small_scene, out, {"theta_max": 1e-3})
    assert (code, err, runtime) == (cli.EXIT_OK, "", [])
    theta = json.loads(Path(out, "model.json").read_text())["pairs"]["1,1"]["theta"]
    assert 0 < theta <= 1e-3


@pytest.mark.parametrize("config, code, needle", [
    ({"theta_max": 1e-310}, cli.EXIT_NUMERICAL, "theta_max=1e-310"),
    ({"theta_max": 5000.0}, cli.EXIT_OK, ""),
    ({"alpha": 1e308}, cli.EXIT_NUMERICAL, "alpha=1e+308"),
    ({"alpha": 1e300}, cli.EXIT_NUMERICAL, "alpha=1e+300"),
    ({"compactness": 1e308}, cli.EXIT_NUMERICAL, "compactness=1e+308"),
], ids=["theta_max-1e-310", "theta_max-5000", "alpha-1e308", "alpha-1e300",
        "compactness-1e308"])
def test_extreme_config_values_end_cleanly(small_scene, tmp_path, config, code, needle):
    got, err, runtime = _detect_with_config(small_scene, str(tmp_path / "run"), config)
    assert got == code and runtime == []
    assert needle in err and "Traceback" not in err


_EXTREME_FLOATS = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e-300, 1e-8, 1e8, 1e300, 1e306, 1e308,
                     1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=25, deadline=None)
@given(config=st.fixed_dictionaries({}, optional={
    key: _EXTREME_FLOATS for key in ("alpha", "eps", "theta_max", "compactness")}))
def test_extreme_finite_config_values_keep_the_exit_contract(small_scene, config):
    """Any finite alpha, eps, theta_max and compactness ends in exit 0, 2 or
    3, with no traceback and no numpy RuntimeWarning."""
    with tempfile.TemporaryDirectory() as tmp:
        code, err, runtime = _detect_with_config(small_scene, os.path.join(tmp, "run"),
                                                 config)
    assert code in (cli.EXIT_OK, cli.EXIT_CONTRACT, cli.EXIT_NUMERICAL)
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert runtime == [], [str(w.message) for w in runtime]
