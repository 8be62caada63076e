"""The sweep script's per-seed row: its scene, gate, fitted parameters,
bound marks and artifact digest."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from copcd import cli

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


def test_row_reports_the_gate_and_the_fitted_pair(sweep, tmp_path):
    row = sweep.run_one(64, 0.9, 1.0, 5, 0, 40, 80, 5.0, str(tmp_path))
    base = tmp_path / "d5_p0"

    # The scene is perfbench's scene256 generator at 64 x 64.
    workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    scene = workloads.Scene("s", "", size=64, bands=1, staged=False, gate=True)
    (tmp_path / "bench").mkdir()
    files = scene.setup(str(tmp_path / "bench"), 5)
    for name, ext in (("pre", ".f32"), ("post", ".f32"), ("gt", ".u8")):
        assert (base / (name + ext)).read_bytes() == Path(files[name] + ext).read_bytes()

    # The row's figures are those of `copcd detect` on the same files.
    out = tmp_path / "cli"
    assert cli.main(["detect", "--pre", str(base / "pre"), "--post", str(base / "post"),
                     "--gt", str(base / "gt"), "--ns-model", "40", "--ns-test", "80",
                     "--alpha", "5", "--seed", "0", "--out-dir", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "metrics.json").read_text())
    fitted = json.loads((out / "model.json").read_text())["pairs"]["1,1"]
    assert (row["data"], row["pipe"]) == (5, 0)
    assert (row["kc"], row["fm"], row["acc"]) == (report["kc"], report["fm"], report["acc"])
    assert (row["rho"], row["theta"], row["w"]) == (fitted["rho"], fitted["theta"],
                                                    fitted["w"])
    assert row["gate"] == ("pass" if report["kc"] >= 0.8 and report["acc"] >= 0.95
                           else "fail")
    assert row["rho_on_bound"] == (fitted["rho"] in (0.01, 0.99))
    assert row["theta_on_bound"] == (fitted["theta"] in (0.1, 20.0))
    artifacts = (out / "di.f32").read_bytes() + (out / "bcm.u8").read_bytes()
    assert row["digest"] == hashlib.sha256(artifacts).hexdigest()[:12]

    line = sweep.format_row(row)
    assert line.split()[:2] == ["5", "0"] and row["gate"] in line.split()
    assert line.count("*") == row["rho_on_bound"] + row["theta_on_bound"]
    assert line.split()[-1] == row["digest"]
    # A fit at theta's lower end is marked as one at its upper end is.
    low = dict(row, rho=0.5, theta=0.1, rho_on_bound=False, theta_on_bound=True)
    assert "0.100*" in sweep.format_row(low) and sweep.format_row(low).count("*") == 1
    rows = [{"kc": 0.9, "gate": "pass"}, {"kc": 0.5, "gate": "fail"},
            {"kc": 0.7, "gate": "fail"}]
    assert sweep.summary(rows) == "KC median 0.700 min 0.500; gate failures 2/3"
