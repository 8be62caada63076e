"""The benchmark's workloads: seeded input generation, one op as a list of
`copcd` command lines, and the checks on each op's outputs.

Each workload writes its inputs as raster files during set-up; the program
sees only those files. One op is one or two `copcd.cli.main` calls, run
back to back by a single client (a closed loop).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass

# Acceptance gate of tests/test_acceptance.py::test_08, applied to scene256.
KC_GATE = 0.8
ACC_GATE = 0.95
# Superpixel targets for training and testing, as in test_08.
NS_MODEL = 400
NS_TEST = 800


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode())
            h.update(fh.read())
    return h.hexdigest()


def _final_logliks(trace_csv: str) -> list:
    """Last log-likelihood of each channel pair in an em_trace.csv."""
    last = {}
    with open(trace_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            last[(row["c1"], row["c2"])] = float(row["log_likelihood"])
    return [last[key] for key in sorted(last)]


@dataclass
class OpResult:
    """What the checks read from one op's outputs."""

    digest: str
    quality: float
    fit_loglik: float
    errors: list
    extra: dict


class Scene:
    """`copcd detect` on a synthetic scene with ground truth, optionally
    preceded by `copcd fit` whose model.json the detect run then reads."""

    def __init__(self, name, why, size, bands, staged, gate):
        self.name = name
        self.why = why
        self.size = size
        self.bands = bands
        self.staged = staged
        self.gate = gate
        self.items = size * size  # post-event pixels per op

    def describe(self) -> dict:
        return {"pixels": self.size * self.size, "bands_per_side": self.bands,
                "channel_pairs": self.bands * self.bands, "ns_model": NS_MODEL,
                "ns_test": NS_TEST, "alpha": 5.0, "staged_fit_then_detect": self.staged,
                "clients": 1, "loop": "closed"}

    def setup(self, dirname: str, seed: int) -> dict:
        from copcd.copula import CopulaMixtureModel
        from copcd.raster import save_binary_map, save_raster
        from copcd.synth import SynthConfig, generate_pair

        cfg = SynthConfig(
            m=self.size, n=self.size, cx=self.bands, cy=self.bands,
            model=CopulaMixtureModel(rho=0.9, theta=1.0, w=1.0, n_train=1),
            change_fraction=0.1, change_shape="rectangle", noise_sigma=0.05,
            seed=seed,
        )
        x, y, gt = generate_pair(cfg)
        files = {k: os.path.join(dirname, k) for k in ("pre", "post", "gt")}
        save_raster(x, files["pre"])
        save_raster(y, files["post"])
        save_binary_map(gt, files["gt"])
        return files

    def reference(self, files: dict) -> dict:
        return {}

    def commands(self, files: dict, out: str) -> list:
        common = ["--pre", files["pre"], "--post", files["post"],
                  "--ns-model", str(NS_MODEL), "--ns-test", str(NS_TEST), "--seed", "0"]
        detect = ["detect", *common, "--gt", files["gt"], "--alpha", "5",
                  "--out-dir", os.path.join(out, "detect")]
        if not self.staged:
            return [detect]
        fit_dir = os.path.join(out, "fit")
        fit = ["fit", *common, "--out-dir", fit_dir]
        return [fit, detect + ["--model", os.path.join(fit_dir, "model.json")]]

    def check(self, out: str, files: dict, ref: dict) -> OpResult:
        det = os.path.join(out, "detect")
        fit_dir = os.path.join(out, "fit") if self.staged else det
        with open(os.path.join(det, "metrics.json")) as fh:
            report = json.load(fh)
        logliks = _final_logliks(os.path.join(fit_dir, "em_trace.csv"))
        errors = []
        if len(logliks) != self.bands * self.bands:
            errors.append(f"em_trace.csv has {len(logliks)} channel pairs, "
                          f"expected {self.bands * self.bands}")
        if self.gate and not (report["kc"] >= KC_GATE and report["acc"] >= ACC_GATE):
            errors.append(f"kc={report['kc']:.4f} acc={report['acc']:.4f} misses "
                          f"the gate kc>={KC_GATE} acc>={ACC_GATE}")
        digest_files = [os.path.join(det, "di.f32"), os.path.join(det, "bcm.u8")]
        if self.staged:
            digest_files.append(os.path.join(fit_dir, "model.json"))
        return OpResult(
            digest=_digest(digest_files),
            quality=report["kc"],
            fit_loglik=sum(logliks) / max(len(logliks), 1),
            errors=errors,
            extra={"kc": report["kc"], "acc": report["acc"], "fm": report["fm"]},
        )


class Pairs:
    """`copcd fit --pairs` on raw sample pairs drawn from a known mixture."""

    name = "pairs20k"
    why = ("EM and O(n^2) Kendall tau with no segmentation; n=20000 pairs, "
           "rho .7 theta 2 w .5 Clayton, eps 1e-4; closed loop, 1 client")
    n = 20000
    eps = "1e-4"
    items = n
    truth = {"rho": 0.7, "theta": 2.0, "w": 0.5, "tail_mode": "clayton"}

    def describe(self) -> dict:
        return {"n": self.n, "eps": float(self.eps), **self.truth, "clients": 1,
                "loop": "closed"}

    def _model(self):
        from copcd.copula import CopulaMixtureModel

        return CopulaMixtureModel(**self.truth, n_train=1)

    def setup(self, dirname: str, seed: int) -> dict:
        import numpy as np
        from copcd.copula import sample_mixture
        from copcd.raster import Raster, save_raster

        u, v = sample_mixture(self._model(), self.n, seed)
        path = os.path.join(dirname, "pairs")
        save_raster(Raster.from_array(np.stack([u, v], axis=1)[:, :, None]
                                      .astype(np.float32)), path)
        return {"pairs": path}

    def reference(self, files: dict) -> dict:
        """Mean log-likelihood of the generating model on the pairs' ranks."""
        import numpy as np
        from copcd.emfit import log_likelihood
        from copcd.raster import load_raster

        data = load_raster(files["pairs"]).data[:, :, 0].astype(np.float64)
        ranks = [(np.argsort(np.argsort(col, kind="stable"), kind="stable") + 1)
                 / (self.n + 1) for col in data.T]
        m = self._model()
        return {"true_loglik": log_likelihood(ranks[0], ranks[1], m.rho, m.theta,
                                              m.w, m.tail_mode)}

    def commands(self, files: dict, out: str) -> list:
        return [["fit", "--pairs", files["pairs"], "--eps", self.eps,
                 "--out-dir", out]]

    def check(self, out: str, files: dict, ref: dict) -> OpResult:
        with open(os.path.join(out, "model.json")) as fh:
            model = json.load(fh)
        logliks = _final_logliks(os.path.join(out, "em_trace.csv"))
        errors = []
        if list(model["pairs"]) != ["1,1"] or len(logliks) != 1:
            errors.append("expected exactly one fitted channel pair")
        fit_ll = logliks[0] if logliks else float("nan")
        return OpResult(
            digest=_digest([os.path.join(out, "model.json")]),
            quality=fit_ll / ref["true_loglik"],
            fit_loglik=fit_ll,
            errors=errors,
            extra={"true_loglik": ref["true_loglik"], **model["pairs"].get("1,1", {})},
        )


WORKLOADS = {
    w.name: w for w in (
        Scene("scene256",
              "paper acceptance scene, SLIC+co-segmentation ~99% of op; 256x256 px, "
              "1 band/side, 1 channel pair, ns 400/800, gated KC>=.8 ACC>=.95; "
              "closed loop, 1 client",
              size=256, bands=1, staged=False, gate=True),
        Pairs(),
        Scene("multiband_staged",
              "fit then detect --model: thread pool, model.json write/read; 128x128 px, "
              "3 bands/side, 9 channel pairs, ns 400/800; closed loop, 1 client",
              size=128, bands=3, staged=True, gate=False),
    )
}
