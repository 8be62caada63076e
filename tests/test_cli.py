"""Command-line interface: subcommands, exit codes, stage isolation."""

import base64
import contextlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copcd import cli, pipeline, segmentation, synth, translate
from copcd.copula import CopulaMixtureModel, encode_column, sample_mixture
from copcd.raster import Raster, load_binary_map, load_raster, save_binary_map, save_raster
from copcd.segmentation import SegmentationMap


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


@pytest.mark.parametrize("flag, value", [
    ("--theta", "nan"), ("--theta", "inf"), ("--noise-sigma", "nan"), ("--noise-sigma", "inf"),
    ("--seed", "-1"), ("--m", "0"),
    # -1/theta overflows in the Clayton sampler; 255 * noise_sigma overflows float32.
    ("--theta", "5e-324"), ("--noise-sigma", "1e308"),
])
def test_synth_non_finite_parameter_is_contract_error(tmp_path, capsys, flag, value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["synth", "--m", "16", "--n", "16", flag, value,
                         "--out-dir", str(tmp_path / "data")])
    assert code == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{flag[2:].replace('-', '_')} must be" in err
    assert "Traceback" not in err
    assert [w for w in caught if w.category is RuntimeWarning] == []
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("flag, value", [("--tail-mode", "bogus"), ("--change-shape", "stripes")])
def test_synth_unknown_choice_is_contract_error(tmp_path, capsys, flag, value):
    code = cli.main(["synth", "--m", "16", "--n", "16", flag, value,
                     "--out-dir", str(tmp_path / "data")])
    assert code == cli.EXIT_CONTRACT
    assert capsys.readouterr().err == f"error: unknown {flag[2:].replace('-', '_')} {value!r}\n"
    assert not (tmp_path / "data").exists()


def test_synth_defaults_are_synth_config_defaults(tmp_path):
    """With no flag but --out-dir, synth writes the bytes of
    generate_pair(SynthConfig()): every default is the dataclasses'."""
    out, ref = tmp_path / "cli", tmp_path / "ref"
    assert cli.main(["synth", "--out-dir", str(out)]) == cli.EXIT_OK
    x, y, gt = synth.generate_pair(synth.SynthConfig())
    ref.mkdir()
    save_raster(x, str(ref / "pre"))
    save_raster(y, str(ref / "post"))
    save_binary_map(gt, str(ref / "gt"))
    names = sorted(p.name for p in ref.iterdir())
    assert len(names) == 6
    for name in names:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def test_detect_missing_inputs_is_contract_error(tmp_path, capsys):
    code = cli.main(["detect", "--out-dir", str(tmp_path / "run")])
    assert code == cli.EXIT_CONTRACT
    assert "load" in capsys.readouterr().err
    # A missing header, or a header whose payload is missing, is named with
    # the OS's reason.
    nope = str(tmp_path / "nope")
    assert cli.main(["detect", "--pre", nope, "--post", nope]) == cli.EXIT_CONTRACT
    assert capsys.readouterr().err == (
        f"error: stage 'load': [Errno 2] No such file or directory: '{nope}.hdr.json'\n")
    assert cli.main(["score", "--bcm", nope, "--gt", nope]) == cli.EXIT_CONTRACT
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: '{nope}.hdr.json'\n")
    (tmp_path / "nope.hdr.json").write_text(json.dumps(
        {"m": 2, "n": 2, "c": 1, "dtype": "f32le", "layout": "row-major-bip"}))
    assert cli.main(["detect", "--pre", nope, "--post", nope]) == cli.EXIT_CONTRACT
    assert capsys.readouterr().err == (
        f"error: stage 'load': [Errno 2] No such file or directory: '{nope}.f32'\n")
    assert not (tmp_path / "run").exists()


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


@pytest.mark.parametrize("equals_spelling", [False, True])
def test_fit_refuses_model(tmp_path, capsys, equals_spelling):
    # fit always runs EM and has no --model flag; a model goes to detect.
    # argparse refuses it in either spelling before any stage runs.
    model = str(tmp_path / "model.json")
    flag = [f"--model={model}"] if equals_spelling else ["--model", model]
    assert cli.main(["fit", "--out-dir", str(tmp_path / "fit"), *flag]) == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert "unrecognized arguments: " + " ".join(flag) in err
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


@pytest.mark.parametrize("command", ["synth", "fit --pairs", "write_artifacts"])
def test_memory_error_outside_a_stage_is_contract_error(tmp_path, capsys, monkeypatch,
                                                        pairs_raster, command):
    # An input too large for memory, such as `synth --m 100000 --n 100000`,
    # exits 2 with one error line, as a MemoryError inside a stage does. The
    # allocation is simulated: a real one could take the whole machine.
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB")

    out = str(tmp_path / "out")
    if command == "synth":
        monkeypatch.setattr(synth, "generate_pair", out_of_memory)
        args = ["synth", "--m", "16", "--n", "16", "--out-dir", out]
    else:
        target = "fit_model_set" if command == "fit --pairs" else "write_artifacts"
        monkeypatch.setattr(pipeline, target, out_of_memory)
        args = ["fit", "--pairs", pairs_raster, "--out-dir", out]
    assert cli.main(args) == cli.EXIT_CONTRACT
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 74.5 GiB\n"
    assert not os.path.exists(os.path.join(out, "model.json"))


def _equals_flags(values: dict) -> list:
    """``--name=value`` per field: in that spelling argparse reads a negative
    value, such as ``--eps=-1e-3``, as the flag's value and not as a flag."""
    return [f"--{name.replace('_', '-')}={value}" for name, value in values.items()]


@pytest.mark.parametrize("flags, config, key", [
    (["--pre", "nope"], {}, "pre"),
    (["--post", "nope"], {}, "post"),
    (["--translated", "nope"], {}, "translated"),
    (["--gt", "nope"], {}, "gt"),
    (["--ns-model", "50000"], {}, "ns_model"),
    (["--alpha", "3"], {}, "alpha"),
    (["--seed", "1"], {}, "seed"),
    (["--model", "model.json"], {}, "model"),
    # The same refusal for a field given in the --name=value spelling.
    ([], {"pre": "nope"}, "pre"),
    ([], {"ns_test": 50}, "ns_test"),
    (["--ns-test", "50"], {}, "ns_test"),
])
def test_fit_pairs_refuses_fields_it_does_not_read(tmp_path, capsys, pairs_raster,
                                                   flags, config, key):
    args = ["fit", "--pairs", pairs_raster, "--eps", "1e-4",
            "--out-dir", str(tmp_path / "fit"), *flags, *_equals_flags(config)]
    assert cli.main(args) == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    if key in ("model", "gt", "alpha"):  # fit has no such flag; argparse refuses it
        assert "unrecognized arguments: " + " ".join(flags) in err
    else:
        assert err.startswith("error:") and repr(key) in err
    assert "stage" not in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "fit")


def test_fit_pairs_reads_eps_and_out_dir(tmp_path, pairs_raster):
    out = tmp_path / "fit"
    args = ["fit", "--pairs", pairs_raster, "--eps", "10", "--out-dir", str(out)]
    assert cli.main(args) == cli.EXIT_OK
    assert list(json.loads((out / "model.json").read_text())["pairs"]) == ["1,1"]
    # eps = 10 stops EM after one update: a header, the start and one row.
    assert (out / "em_trace.csv").read_text().count("\n") == 3


@pytest.mark.parametrize("n", [2, 3, 9])
def test_fit_pairs_refuses_too_few_rows(tmp_path, capsys, n):
    # Below emfit.MIN_PAIRS rows one message names the raster and the
    # minimum; tail dependence (4 rows) and EM (10) would each fail otherwise.
    path = str(tmp_path / "pairs")
    rows = np.random.default_rng(n).random((n, 2, 1)).astype(np.float32)
    save_raster(Raster.from_array(rows), path)
    out = tmp_path / "fit"
    assert cli.main(["fit", "--pairs", path, "--out-dir", str(out)]) == cli.EXIT_CONTRACT
    assert capsys.readouterr().err == (
        f"error: pairs raster {path} is {n}x2x1; fit needs n x 2 x 1 sample columns "
        "with n >= 10\n")
    assert not out.exists()


def test_cli_import_leaves_out_verification_maths(tmp_path, pairs_raster):
    """Neither importing the CLI, nor a ``fit --pairs``, nor a 64 x 64
    ``detect`` loads scipy.integrate, scipy.optimize, scipy.sparse or
    scipy.stats. The first two hold maths used only to verify, and
    scipy.optimize costs about as much as a pairs20k op; scipy.sparse added
    about a tenth to the import time, and scipy.stats alone takes longer to
    import than the whole CLI."""
    data = str(tmp_path / "data")
    assert cli.main(["synth", "--m", "64", "--n", "64", "--seed", "5",
                     "--out-dir", data]) == cli.EXIT_OK
    fit = ["fit", "--pairs", pairs_raster, "--out-dir", str(tmp_path / "fit")]
    detect = ["detect", "--pre", os.path.join(data, "pre"), "--post",
              os.path.join(data, "post"), "--ns-model", "100", "--ns-test", "200",
              "--out-dir", str(tmp_path / "run")]
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, copcd.cli; "
            "slow = {'scipy.integrate', 'scipy.optimize', 'scipy.sparse', 'scipy.stats'}; "
            "loaded = lambda: print('loaded', sorted(slow & set(sys.modules))); loaded(); "
            f"assert copcd.cli.main({fit!r}) == 0; loaded(); "
            f"assert copcd.cli.main({detect!r}) == 0; loaded()")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert [line for line in out.splitlines() if line.startswith("loaded")] == ["loaded []"] * 3


def test_cli_import_leaves_out_scipy_sparse():
    """Segmentation labels components with scipy.ndimage, so a fresh import
    of the CLI does not load scipy.sparse, which added about a tenth to the
    import time."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, copcd.cli; print('scipy.sparse' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["False"]


@pytest.mark.parametrize("args", [
    ["detect", "--translate-method", "histogram_match"],
    ["fit", "--pairs", "pairs", "--translate-method", "histogram_match"],
    ["detect", "--compactness", "3"],  # SLIC compactness is segmentation.COMPACTNESS
    # theta's range is the box copula.THETA_MIN to copula.THETA_MAX
    ["detect", "--theta-max", "3"],
    ["fit", "--pairs", "pairs", "--theta-max", "3"],
    ["detect", "--pca", "2"],  # there is no band reduction
    # only detection reads a gt map and alpha
    ["fit", "--gt", "gt"],
    ["fit", "--alpha", "5"],
])
def test_removed_translation_flags_are_contract_errors(capsys, args):
    assert cli.main(args) == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert "unrecognized arguments: " + " ".join(args[-2:]) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, extra", [
    ("detect", set()), ("fit", {"pairs"}), ("synth", {"out_dir"}),
])
def test_pipeline_flags_match_config_fields(command, extra):
    """detect's flags are PipelineConfig's fields, fit's the same but model,
    gt and alpha;
    synth's are SynthConfig's but its model and the generating model's rho,
    theta, w and tail_mode; every flag left unset reads None."""
    config_fields = ({f.name for f in fields(synth.SynthConfig)} - {"model"}
                     | {"rho", "theta", "w", "tail_mode"} if command == "synth"
                     else {f.name for f in fields(pipeline.PipelineConfig)}
                     - ({"model", "gt", "alpha"} if command == "fit" else set()))
    args = vars(cli.build_parser().parse_args([command]))
    assert set(args) - {"command", "func"} == config_fields | extra
    assert {args[name] for name in config_fields | extra} == {None}


@pytest.mark.parametrize("values, key", [
    (["--ns-model", "4e2"], "ns_model"),
    (["--ns-test", "true"], "ns_test"),
    (["--alpha", "five"], "alpha"),
    (["--seed", "1.5"], "seed"),
])
def test_mistyped_config_value_is_contract_error(capsys, values, key):
    # Each flag is typed by its field's annotation; argparse refuses the rest.
    assert cli.main(["detect", *values]) == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert f"argument --{key.replace('_', '-')}: invalid" in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    *[(key, value) for key in ("alpha", "eps", "theta_max")
      for value in (float("nan"), float("inf"), float("-inf"))],
    ("alpha", -1.0), ("eps", 0.0), ("eps", -1e-3), ("theta_max", 0.0),
    ("theta_max", -2.0), ("theta_max", 20.0), ("seed", -1), ("ns_model", 9), ("ns_test", 5),
    # SLIC compactness and theta's range are constants, and there is no band
    # reduction, so these flags are refused whatever their value.
    *[("compactness", value)
      for value in (float("nan"), float("inf"), float("-inf"), 0.0, -10.0)],
    ("pca", 0), ("pca", -1),
])
def test_out_of_range_config_value_is_contract_error(capsys, key, value):
    # Each value is refused before any stage runs, naming the field.
    flags = _equals_flags({key: value})
    assert cli.main(["detect", *flags]) == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    if key in ("theta_max", "compactness", "pca"):
        assert f"unrecognized arguments: {flags[0]}" in err
    else:
        assert err.startswith(f"error: config field {key!r} must be ") and "usage:" not in err
        assert err.endswith(f", got {value!r}\n")
    assert "stage" not in err and "Traceback" not in err


def test_bad_subcommand_usage(capsys):
    assert cli.main(["frobnicate"]) == cli.EXIT_CONTRACT
    capsys.readouterr()
    # `translate` is no subcommand; histogram matching runs inside detect and fit.
    assert cli.main(["translate", "--pre", "x", "--post", "y", "--out", "z"]) == cli.EXIT_CONTRACT
    assert "invalid choice: 'translate'" in capsys.readouterr().err


def test_readme_cli_commands_parse():
    """Every `copcd ...` command of README's CLI block parses, so the docs
    name no removed subcommand or flag."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("copcd ")]
    assert commands
    parser = cli.build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


@pytest.fixture(scope="module")
def small_scene(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("scene")
    out = str(tmp / "data")
    assert cli.main(["synth", "--m", "48", "--n", "48", "--rho", "0.9",
                     "--w", "1.0", "--change-fraction", "0.1",
                     "--noise-sigma", "0.05", "--seed", "5",
                     "--out-dir", out]) == cli.EXIT_OK
    return out


def _fit_args(data_dir, out_dir):
    return [
        "fit",
        "--pre", os.path.join(data_dir, "pre"),
        "--post", os.path.join(data_dir, "post"),
        "--out-dir", out_dir,
        "--ns-model", "40", "--ns-test", "80", "--seed", "0",
    ]


def _detect_args(data_dir, out_dir):
    """``_fit_args`` for ``detect``, scored against the scene's gt map."""
    return ["detect", *_fit_args(data_dir, out_dir)[1:], "--gt", os.path.join(data_dir, "gt")]


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
    # README's stage-wise example: fit, then detect --model, into one out dir.
    direct = tmp_path / "direct"
    assert cli.main(_detect_args(small_scene, str(direct))) == cli.EXIT_OK

    out = tmp_path / "out"
    assert cli.main(_fit_args(small_scene, str(out))) == cli.EXIT_OK
    fitted = {name: (out / name).read_bytes() for name in ("model.json", "em_trace.csv")}
    assert fitted["em_trace.csv"].count(b"\n") > 1

    staged_args = _detect_args(small_scene, str(out)) + ["--model", str(out / "model.json")]
    assert cli.main(staged_args) == cli.EXIT_OK

    for name, data in fitted.items():
        assert (out / name).read_bytes() == data, f"detect --model rewrote {name}"
    for name in ("bcm.u8", "di.f32"):
        assert (out / name).read_bytes() == (direct / name).read_bytes(), \
            f"{name} differs between direct and staged runs"


def test_fit_rejects_translated_raster_of_wrong_shape(small_scene, tmp_path, capsys):
    # small_scene is 48 x 48 with one band per side; this translation has two.
    bad = np.zeros((48, 48, 2), dtype=np.float32)
    save_raster(Raster.from_array(bad), str(tmp_path / "translated"))
    args = _fit_args(small_scene, str(tmp_path / "fit"))
    args += ["--translated", str(tmp_path / "translated")]
    assert cli.main(args) == cli.EXIT_CONTRACT
    assert "stage 'translate': translated raster shape mismatch" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "fit" / "model.json")


@pytest.fixture(scope="module")
def fitted_model(small_scene, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fitted"))
    assert cli.main(_fit_args(small_scene, out)) == cli.EXIT_OK
    return os.path.join(out, "model.json")


def test_detect_with_model_runs_only_the_test_half(small_scene, fitted_model, tmp_path,
                                                   monkeypatch):
    segmented = []
    slic = segmentation.slic

    def counting_slic(r, target):
        segmented.append((r.data.shape, target))
        return slic(r, target)

    def no_translation(*args):
        raise RuntimeError("detect --model must not translate")

    monkeypatch.setattr(segmentation, "slic", counting_slic)
    monkeypatch.setattr(translate, "translate_baseline", no_translation)
    out = tmp_path / "staged"
    args = _detect_args(small_scene, str(out)) + ["--model", fitted_model]
    assert cli.main(args) == cli.EXIT_OK
    # One SLIC on the stacked pre and post bands, at --ns-test 80: twice 80
    # is above the floor of one superpixel per 20 pixels, 48 * 48 // 20.
    assert segmented == [((48, 48, 2), 115)]
    # No model was fitted, so no model.json or em_trace.csv is written.
    assert (out / "bcm.u8").exists()
    assert not (out / "model.json").exists() and not (out / "em_trace.csv").exists()


@pytest.mark.parametrize("command", ["detect", "fit", "detect --model"])
def test_pre_and_post_of_different_sizes_are_refused_at_load(
        small_scene, fitted_model, tmp_path, capsys, monkeypatch, command):
    # Band counts may differ between the sides, pixel sizes may not; the
    # pair is refused before any stage computes.
    data = tmp_path / "data"
    shutil.copytree(small_scene, data)
    post = load_raster(str(data / "post")).data
    save_raster(Raster.from_array(post[:40]), str(data / "post"))

    def no_slic(*args):
        raise RuntimeError("a pair of different sizes must not reach SLIC")

    monkeypatch.setattr(segmentation, "slic", no_slic)
    args = _detect_args(str(data), str(tmp_path / "run"))
    if command == "fit":
        args = _fit_args(str(data), str(tmp_path / "run"))
    elif command == "detect --model":
        args += ["--model", fitted_model]
    assert cli.main(args) == cli.EXIT_CONTRACT
    assert capsys.readouterr().err == (
        "error: stage 'load': post raster is 40x48 pixels, pre raster 48x48\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("gt, needle", [
    ("40x48", "stage 'load': gt map is 40x48 pixels, pre raster 48x48\n"),
    ("f32", "stage 'load': header key 'layout' must be 'row-major' for u8, "
            "got 'row-major-bip' in "),
], ids=["size", "f32"])
def test_gt_is_checked_at_load(small_scene, tmp_path, capsys, monkeypatch, gt, needle):
    # A gt map of another pixel size, or a float raster given as the gt map,
    # is refused before any stage computes.
    data = tmp_path / "data"
    shutil.copytree(small_scene, data)
    truth = load_binary_map(str(data / "gt"))
    if gt == "f32":
        save_raster(Raster.from_array(truth), str(data / "gt"))
    else:
        save_binary_map(truth[:40], str(data / "gt"))

    def no_slic(*args):
        raise RuntimeError("a bad gt map must not reach SLIC")

    monkeypatch.setattr(segmentation, "slic", no_slic)
    assert cli.main(_detect_args(str(data), str(tmp_path / "run"))) == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error: " + needle), err
    assert not (tmp_path / "run").exists()


def test_detect_model_refuses_translated(small_scene, fitted_model, tmp_path, capsys):
    # detect --model skips the training half, the only reader of 'translated';
    # it is refused before any stage runs, as fit refuses 'model'.
    out = tmp_path / "run"
    args = _detect_args(small_scene, str(out)) + [
        "--model", fitted_model, "--translated", str(tmp_path / "does_not_exist")]
    assert cli.main(args) == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error: config fields 'model' and 'translated' exclude each other")
    assert "stage" not in err and "Traceback" not in err
    assert not out.exists()


def test_too_few_training_superpixels_names_ns_model(tmp_path, capsys):
    # On this 10 x 10 scene the floor of one superpixel per 20 pixels caps
    # SLIC's target at 5, below twice --ns-model; EM fits 10 superpixels.
    data = str(tmp_path / "data")
    assert cli.main(["synth", "--m", "10", "--n", "10", "--rho", "0.9",
                     "--noise-sigma", "0.05", "--seed", "5", "--out-dir", data]) == 0
    args = ["detect", "--pre", os.path.join(data, "pre"), "--post",
            os.path.join(data, "post"), "--ns-model", "10", "--ns-test", "10",
            "--out-dir", str(tmp_path / "run")]
    assert cli.main(args) == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert re.match(r"error: stage 'segment': config field 'ns_model' = 10 gives [1-5] "
                    r"superpixels on this scene, capped at 5 by the floor of 20 pixels "
                    r"a superpixel; at least 10 are needed\n\Z", err), err


def test_too_few_test_superpixels_names_ns_test(small_scene, fitted_model, tmp_path,
                                               capsys, monkeypatch):
    # Two test regions cannot make the three clusters of the first k-means.
    halves = np.ones((48, 48), dtype=np.int64)
    halves[:, 24:] = 2
    # The floor is named only when it capped SLIC's target: 48 * 48 // 20 =
    # 115 is below twice 80 but not below twice 40.
    monkeypatch.setattr(segmentation, "slic", lambda *args: SegmentationMap(2, halves))
    args = _detect_args(small_scene, str(tmp_path / "run")) + ["--model", fitted_model]
    for ns, capped in (("80", ", capped at 115 by the floor of 20 pixels a superpixel"),
                       ("40", "")):
        assert cli.main(args + ["--ns-test", ns]) == cli.EXIT_CONTRACT
        assert capsys.readouterr().err == (
            f"error: stage 'segment': config field 'ns_test' = {ns} gives 2 superpixels "
            f"on this scene{capped}; at least 3 are needed\n")


@pytest.mark.parametrize("flag", ["--ns-model", "--ns-test"])
def test_ns_above_the_pixel_count_names_the_field(small_scene, tmp_path, capsys, flag):
    # The target is checked against the scene's 48 x 48 pixels before SLIC runs.
    out = tmp_path / "run"
    assert cli.main(_detect_args(small_scene, str(out)) + [flag, "100000"]) == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    field = flag[2:].replace("-", "_")
    assert err.startswith(f"error: stage 'segment': config field {field!r} = 100000 "
                          "exceeds the 2304 pixels of this scene")
    assert "Traceback" not in err and not (out / "bcm.u8").exists()


@pytest.mark.parametrize("command, raster, needle", [
    pytest.param(command, raster, needle, id=f"{name}-{command}")
    for name, raster, needle, commands in (
        ("all-zero-post", "post", "stage 'load': post raster band 1",
         ("detect", "fit", "detect --model")),
        ("pre-band-2-constant", "pre", "stage 'load': pre raster band 2",
         ("detect", "fit", "detect --model")),
        ("all-zero-translated", "translated", "stage 'translate': translated raster band 1",
         ("detect", "fit")),
        ("pairs-column-2-zero", "pairs", "pairs raster column 2", ("fit --pairs",)),
    ) for command in commands])
def test_constant_band_is_contract_error(small_scene, fitted_model, tmp_path, capsys,
                                         command, raster, needle):
    # An all-zero post or translated raster, a 3-band pre raster with one
    # constant band, or a pairs raster whose second column is all zero: every
    # command that reads the raster refuses it, naming it and the band or column.
    data = tmp_path / "data"
    shutil.copytree(small_scene, data)
    pre = load_raster(str(data / "pre")).data
    bad = {"post": np.zeros_like(pre), "translated": np.zeros_like(pre),
           "pre": np.concatenate([pre, np.full_like(pre, 0.5), pre], axis=2),
           "pairs": np.stack([pre.ravel(), np.zeros(pre.size)], axis=1)[:, :, None]}[raster]
    save_raster(Raster.from_array(bad), str(data / raster))
    args = _detect_args(str(data), str(tmp_path / "run"))
    if command == "fit":
        args = _fit_args(str(data), str(tmp_path / "run"))
    elif command == "detect --model":
        args += ["--model", fitted_model]
    elif command == "fit --pairs":
        args = ["fit", "--pairs", str(data / "pairs"), "--out-dir", str(tmp_path / "run")]
    if raster == "translated":
        args += ["--translated", str(data / "translated")]
    assert cli.main(args) == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {needle} is constant; it carries no information")
    assert "Traceback" not in err and not (tmp_path / "run").exists()


def test_slic_failure_in_the_worker_thread_ends_cleanly(small_scene, tmp_path, capsys,
                                                        monkeypatch):
    # Both halves fail, each in its own SLIC call: the training half, run by
    # the worker on (X, Y'), raises the error that is reported, as it would
    # in serial order, and the test segmentation runs in this thread.
    post = load_raster(os.path.join(small_scene, "post")).data
    calls = {}

    def failing_slic(r, target):
        name = "test" if np.array_equal(r.data[:, :, 1:], post) else "training"
        calls[name] = threading.current_thread()
        raise ValueError(f"SLIC failed on the {name} pair")

    monkeypatch.setattr(segmentation, "slic", failing_slic)
    out = tmp_path / "run"
    threads = threading.active_count()
    assert cli.main(_detect_args(small_scene, str(out))) == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err == "error: stage 'segment': SLIC failed on the training pair\n"
    assert calls["training"] is not threading.current_thread()
    assert calls["test"] is threading.current_thread()
    assert not (out / "bcm.u8").exists()
    assert threading.active_count() == threads


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
    *[(lambda d, k=key: d["pairs"].update({k: d["pairs"].pop("1,1")}), "'pairs'")
      for key in ("01,1", " 1,1", "+1,1")],
    (lambda d: d["pairs"].update({"01,1": d["pairs"]["1,1"]}), "'pairs'"),
    (_three_band, "cx=3"),
    *[(lambda d, v=value: d["pairs"]["1,1"].update(theta=v), "'pairs': theta")
      for value in (float("nan"), float("inf"), 1e308)],
    *[(lambda d, v=value: d["pairs"]["1,1"].update(n_train=v), "'pairs': n_train")
      for value in (2.5, True, "5", 1e308)],
    (lambda d: d["pairs"]["1,1"].update(n_train=d["pairs"]["1,1"]["n_train"] + 1),
     "'pairs': n_train"),
    *[(lambda d, f=field, v=value: d["pairs"]["1,1"].update({f: v}), f"'pairs': {field}")
      for field, value in (("theta", True), ("w", True), ("w", False), ("rho", False),
                           ("w", "0.5"), ("theta", 1e-17), ("theta", 50.0),
                           ("rho", 0.995))],
    *[(lambda d, f=field, v=value: d.update({f: v}), f"'{field}'")
      for field, value in (("cx", True), ("cx", 1.0), ("cy", 0))],
], ids=["parameters-only", "version-3", "not-base64", "bytes-not-multiple-of-8",
        "nan", "two-x-columns", "missing-pair", "extra-pair", "pair-key-01,1",
        "pair-key-space-1,1", "pair-key-+1,1", "pair-key-duplicate-01,1", "three-band-model",
        "theta-nan", "theta-inf", "theta-1e308", "n_train-2.5", "n_train-true",
        "n_train-string", "n_train-1e308", "n_train-off-by-one", "theta-true", "w-true",
        "w-false", "rho-false", "w-string", "theta-1e-17", "theta-50", "rho-0.995",
        "cx-true", "cx-float", "cy-zero"])
def test_malformed_model_is_contract_error(small_scene, fitted_model, tmp_path, capsys,
                                           mutate, key):
    doc = json.loads(Path(fitted_model).read_text())
    mutate(doc)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(_detect_args(small_scene, str(out)) + ["--model", str(bad)])
    assert code == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err
    assert [w for w in caught if w.category is RuntimeWarning] == []
    assert not (out / "bcm.u8").exists()


_JSON_LEAVES = st.one_of(
    st.integers(), st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 5e-324, 1e308, -1e308]),
    st.booleans(), st.text(max_size=8), st.none(),
)
_JSON_VALUES = st.one_of(_JSON_LEAVES, st.lists(_JSON_LEAVES, max_size=3),
                         st.dictionaries(st.text(max_size=4), _JSON_LEAVES, max_size=3))
_MODEL_KEYS = ("version", "cx", "cy", "pairs", "x", "y")
_RECORD_KEYS = ("rho", "theta", "w", "tail_mode", "orientation", "n_train")
_DELETE = "<delete>"


@settings(max_examples=30, deadline=None)
@given(key=st.one_of(st.sampled_from(_MODEL_KEYS),
                     st.sampled_from(_RECORD_KEYS).map(lambda k: ("1,1", k))),
       value=st.one_of(st.just(_DELETE), _JSON_VALUES,
                       st.floats(0.0, 1.0)))  # many rho, theta and w values load
def test_mutated_model_file_keeps_the_exit_contract(small_scene, fitted_model, key,
                                                    value):
    """A model.json with one top-level key or one record field replaced by
    any JSON value, or deleted, ends in exit 0 or 2, with no traceback and no
    numpy RuntimeWarning; an exit 2 names the model field at fault."""
    doc = json.loads(Path(fitted_model).read_text())
    target, name = (doc["pairs"][key[0]], key[1]) if isinstance(key, tuple) else (doc, key)
    if value == _DELETE:
        del target[name]
    else:
        target[name] = value
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "model.json")
        Path(bad).write_text(json.dumps(doc))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(_detect_args(small_scene, os.path.join(tmp, "run"))
                            + ["--model", bad])
    err = err.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_CONTRACT), err
    assert "Traceback" not in err
    assert [w for w in caught if w.category is RuntimeWarning] == []
    if code == cli.EXIT_CONTRACT:
        assert "model field" in err, err


_HEADER_KEYS = ("m", "n", "c", "dtype", "layout")


@settings(max_examples=30, deadline=None)
@given(mutation=st.one_of(
    st.tuples(st.sampled_from(_HEADER_KEYS),
              st.one_of(st.just(_DELETE), _JSON_VALUES, st.integers(0, 100),
                        st.sampled_from(["f32le", "u8", "row-major", "row-major-bip"]))),
    st.tuples(st.just("payload"), st.integers(-9216, 64).filter(bool))))
@example(mutation=("dtype", "u8"))  # a u8 header names a payload that is absent
@example(mutation=("m", 96))
@example(mutation=("layout", "row-major"))  # the u8 layout on an f32 raster: exit 2
@example(mutation=("payload", -1))
def test_mutated_raster_header_keeps_the_exit_contract(small_scene, mutation):
    """A pre.hdr.json with one of m, n, c, dtype or layout replaced by any
    JSON value, or deleted, or a pre.f32 with bytes added or removed, ends in
    exit 0 or 2, with no traceback and no numpy RuntimeWarning; an exit 2
    names the header key or the payload's byte count."""
    key, value = mutation
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data")
        shutil.copytree(small_scene, data)
        payload = Path(data, "pre.f32")
        if key == "payload":
            raw = payload.read_bytes()
            payload.write_bytes(raw + bytes(value) if value > 0 else raw[:value])
        else:
            header = Path(data, "pre.hdr.json")
            doc = json.loads(header.read_text())
            if value == _DELETE:
                del doc[key]
            else:
                doc[key] = value
            header.write_text(json.dumps(doc))
        size = payload.stat().st_size
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(_detect_args(data, os.path.join(tmp, "run")))
    err = err.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_CONTRACT), err
    assert "Traceback" not in err
    assert [w for w in caught if w.category is RuntimeWarning] == []
    if key == "layout" and value != "row-major-bip":
        assert code == cli.EXIT_CONTRACT, err
    if code == cli.EXIT_CONTRACT:
        assert f"header key {key!r}" in err or f"holds {size}" in err, err


def _run_cli(argv):
    """Exit code, stderr and the RuntimeWarnings of one in-process CLI run."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, err.getvalue(), [w for w in caught if w.category is RuntimeWarning]


def _detect_with_config(data_dir, out_dir, config):
    """Exit code, stderr and the RuntimeWarnings of one in-process detect
    whose config fields ``config`` override those of ``_detect_args``. No
    value may end in argparse's usage error: each reaches PipelineConfig."""
    code, err, runtime = _run_cli(_detect_args(data_dir, out_dir) + _equals_flags(config))
    assert "usage:" not in err, err
    return code, err, runtime


@pytest.mark.parametrize("config, code, needle", [
    ({"alpha": 1e308}, cli.EXIT_NUMERICAL, "alpha=1e+308"),
    ({"alpha": 1e300}, cli.EXIT_NUMERICAL, "alpha=1e+300"),
], ids=["alpha-1e308", "alpha-1e300"])
def test_extreme_config_values_end_cleanly(small_scene, tmp_path, config, code, needle):
    got, err, runtime = _detect_with_config(small_scene, str(tmp_path / "run"), config)
    assert got == code and runtime == []
    assert needle in err and "Traceback" not in err


_EXTREME_FLOATS = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e-300, 1e-8, 1e8, 1e300, 1e306, 1e308,
                     1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_EXTREME_INTS = st.one_of(
    st.sampled_from([2**31, 2**63 - 1, 2**63, 2**64, 2**100]),
    st.integers(),
)


@settings(max_examples=25, deadline=None)
@given(config=st.fixed_dictionaries({}, optional={
    **{key: _EXTREME_FLOATS for key in ("alpha", "eps")},
    **{key: _EXTREME_INTS for key in ("ns_model", "ns_test", "seed")}}))
def test_extreme_finite_config_values_keep_the_exit_contract(small_scene, config):
    """Any finite alpha and eps, and any int ns_model, ns_test and seed,
    ends in exit 0, 2 or 3, with no traceback and no numpy RuntimeWarning."""
    with tempfile.TemporaryDirectory() as tmp:
        code, err, runtime = _detect_with_config(small_scene, os.path.join(tmp, "run"),
                                                 config)
    assert code in (cli.EXIT_OK, cli.EXIT_CONTRACT, cli.EXIT_NUMERICAL)
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert runtime == [], [str(w.message) for w in runtime]


_SCENE_SHAPES = st.one_of(st.tuples(st.just(1), st.integers(1, 40)),
                         st.tuples(st.integers(1, 40), st.just(1)),
                         st.tuples(st.integers(1, 8), st.integers(1, 40)))
_RASTER_VALUES = [0.0, 1.0, -1.0, 3.4e38, -3.4e38, 1e-45, 1e-40, 1e30]
# The values cycled over a raster's entries, the scale of its noise, the
# noise seed and the band count.
_RASTER_SPECS = st.tuples(st.lists(st.sampled_from(_RASTER_VALUES), min_size=1, max_size=3),
                          st.sampled_from([1e-40, 1.0, 1e38]),
                          st.integers(0, 2 ** 32 - 1), st.integers(1, 2))


def _raster(m, n, spec):
    """An m x n raster: a cycle of ``values`` over its entries plus seeded
    Gaussian noise times ``scale``, clipped to float32's range."""
    values, scale, seed, c = spec
    noise = np.random.default_rng(seed).standard_normal((m, n, c))
    data = np.resize(values, (m, n, c)) + scale * noise
    return Raster.from_array(np.clip(data, -3.4e38, 3.4e38))


@settings(max_examples=40, deadline=None)
@given(shape=_SCENE_SHAPES, pre=_RASTER_SPECS, post=_RASTER_SPECS)
# A pre band that spans +-3.4e38: its sorted differences overflow float32.
@example(shape=(8, 40), pre=([3.4e38, -3.4e38], 1.0, 0, 1), post=([1.0], 1.0, 0, 1))
def test_raster_contents_keep_the_exit_contract(shape, pre, post):
    """Pre and post rasters of 1 x N, N x 1 or up to 8 x 40 pixels, holding
    zeros, +-1, values near float32's limits or subnormal ones, and noise
    from 1e-40 to 1e38, end in exit 0, 2 or 3 through detect, and through
    fit then detect --model, with no traceback and no numpy RuntimeWarning;
    a non-zero exit names a stage or a config field."""
    with tempfile.TemporaryDirectory() as tmp:
        save_raster(_raster(*shape, pre), os.path.join(tmp, "pre"))
        save_raster(_raster(*shape, post), os.path.join(tmp, "post"))
        args = ["--pre", os.path.join(tmp, "pre"), "--post", os.path.join(tmp, "post"),
                "--ns-model", "10", "--ns-test", "20"]
        model = ["--model", os.path.join(tmp, "fit", "model.json")]
        runs = [["detect", *args, "--out-dir", os.path.join(tmp, "run")],
                ["fit", *args, "--out-dir", os.path.join(tmp, "fit")],
                ["detect", *args, *model, "--out-dir", os.path.join(tmp, "staged")]]
        for argv in runs:
            code, err, runtime = _run_cli(argv)
            assert code in (cli.EXIT_OK, cli.EXIT_CONTRACT, cli.EXIT_NUMERICAL), err
            assert "Traceback" not in err and "RuntimeWarning" not in err
            assert runtime == [], [str(w.message) for w in runtime]
            if code != cli.EXIT_OK:
                assert re.match(r"error: (stage '\w+'|config field '\w+')", err), err
                if argv[0] == "fit":
                    break  # no model for detect --model to read


_SYNTH_CHOICES = {"--tail-mode": ["clayton", "clayton_survival"],
                  "--change-shape": ["rectangle", "blobs"]}


@settings(max_examples=60, deadline=None)
@given(flags=st.fixed_dictionaries(
    {"--m": st.integers(-1, 16), "--n": st.integers(-1, 16)},
    optional={"--cx": st.integers(-1, 3), "--cy": st.integers(-1, 3),
              "--seed": _EXTREME_INTS,
              **{flag: _EXTREME_FLOATS for flag in ("--rho", "--theta", "--w",
                                                    "--change-fraction", "--noise-sigma")},
              **{flag: st.one_of(st.sampled_from(values), st.text(max_size=8))
                 for flag, values in _SYNTH_CHOICES.items()}}))
@example(flags={"--m": 16, "--n": 16, "--theta": 5e-324})
@example(flags={"--m": 16, "--n": 16, "--theta": 5e-324, "--w": 0.0})
@example(flags={"--m": 16, "--n": 16, "--noise-sigma": 1e308})
@example(flags={"--m": 16, "--n": 16, "--tail-mode": "bogus"})
def test_synth_flags_keep_the_exit_contract(flags):
    """Any value of every synth flag, on sides up to 16, ends in exit 0, 2
    or 3, with no traceback and no numpy RuntimeWarning; a non-zero exit
    names the field at fault."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["synth", *(f"{flag}={value}" for flag, value in flags.items()),
                "--out-dir", os.path.join(tmp, "data")]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(argv)
    err = err.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_CONTRACT, cli.EXIT_NUMERICAL), err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert [w for w in caught if w.category is RuntimeWarning] == []
    if code != cli.EXIT_OK:
        named = [flag for flag in flags if re.search(rf"\b{flag[2:].replace('-', '_')}\b", err)]
        assert named, err
