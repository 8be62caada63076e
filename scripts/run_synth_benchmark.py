#!/usr/bin/env python3
"""Synthetic end-to-end benchmark sweep.

Generates heterogeneous pairs with known ground truth across a grid of data
seeds and pipeline seeds, runs the full detection pipeline on each, and
prints one row per run: KC / Fm / ACC, the acceptance gate (KC >= 0.8 and
ACC >= 0.95, as in tests/test_acceptance.py::test_08), the test
superpixel count, the fitted rho, theta and w of channel pair (1, 1), a `*`
marking a value on either end of the box EM fits in (rho = 0.01 or 0.99,
theta = 0.1 or 20), how many of all the channel pairs fit on an end of
that box, the share of pixels the change map flags, the AUC of the DI over
the test superpixels (a superpixel counts as changed when most of its pixels
are, and ties count half; `nan` when no superpixel, or every one, is
changed), the seconds of `run_detect`, and a digest: the first 12 hex digits
of the sha256 of the run's di.f32, bcm.u8, model.json and em_trace.csv bytes,
so that two sweeps with byte-identical artifacts and fits print the same
digests. A last line gives the median and minimum KC, the gate failures, the
box-end fits, the median AUC over the rows that have one (`nan` if none does)
and the median seconds. `--change-fraction` sets the changed share of each
scene (default 0.1); at 0 nothing changes, so KC and F-measure read 0, the
AUC reads `nan` and the flagged share is the whole of the false alarms. With
the defaults each scene is perfbench's `scene256` scene for that data seed (at
--size 256); `--size 128 --bands 3` gives its `multiband_staged` scene.
`--post-bands` sets the post-event band count apart from the pre-event one, as
for an optical image of 3 bands against a SAR image of 1 (`--bands 3
--post-bands 1`); it defaults to `--bands`.

Example:
    python3 scripts/run_synth_benchmark.py --size 256 --data-seeds 0 1 2 \
        --pipeline-seeds 0 1
"""

import argparse
import hashlib
import math
import os
import statistics
import sys
import tempfile
import time

import numpy as np
from scipy.stats import rankdata

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from copcd.copula import RHO_MAX, RHO_MIN, THETA_MAX, THETA_MIN, CopulaMixtureModel  # noqa: E402
from copcd.pipeline import PipelineConfig, run_detect, write_artifacts  # noqa: E402
from copcd.raster import save_binary_map, save_raster  # noqa: E402
from copcd.synth import SynthConfig, generate_pair  # noqa: E402

KC_GATE, ACC_GATE = 0.8, 0.95


def box_ends(model):
    """Whether a fitted pair's rho, and its theta, lie on an end of EM's box."""
    return model.rho in (RHO_MIN, RHO_MAX), model.theta in (THETA_MIN, THETA_MAX)


def superpixel_auc(di, labels, gt) -> float:
    """AUC of the per-superpixel DI against the superpixels' majority change:
    the Mann-Whitney statistic on average ranks, so ties count half."""
    flat = labels.ravel()
    sizes = np.bincount(flat, minlength=len(di) + 1)[1:]
    changed = np.bincount(flat, weights=gt.ravel(), minlength=len(di) + 1)[1:] > sizes / 2
    n1 = int(changed.sum())
    n0 = len(di) - n1
    if n1 == 0 or n0 == 0:
        return float("nan")
    return float((rankdata(di)[changed].sum() - n1 * (n1 + 1) / 2) / (n1 * n0))


def run_one(size, rho, w, data_seed, pipeline_seed, ns_model, ns_test, alpha,
            workdir, bands=1, post_bands=None, change_fraction=0.1):
    """Generate one scene with ``bands`` pre-event bands and ``post_bands``
    post-event bands (default ``bands``) and ``change_fraction`` of its
    pixels changed, detect on it, and return its row as a dict."""
    model = CopulaMixtureModel(rho=rho, theta=1.0, w=w, n_train=1)
    cy = bands if post_bands is None else post_bands
    cfg = SynthConfig(m=size, n=size, cx=bands, cy=cy, model=model,
                      change_fraction=change_fraction, noise_sigma=0.05, seed=data_seed)
    x, y, gt = generate_pair(cfg)
    base = os.path.join(workdir, f"d{data_seed}_p{pipeline_seed}")
    os.makedirs(base, exist_ok=True)
    save_raster(x, os.path.join(base, "pre"))
    save_raster(y, os.path.join(base, "post"))
    save_binary_map(gt, os.path.join(base, "gt"))

    pipeline = PipelineConfig(
        pre=os.path.join(base, "pre"), post=os.path.join(base, "post"),
        gt=os.path.join(base, "gt"), out_dir=base,
        ns_model=ns_model, ns_test=ns_test, alpha=alpha, seed=pipeline_seed,
    )
    start = time.monotonic()
    result = run_detect(pipeline)
    elapsed = time.monotonic() - start
    write_artifacts(result, pipeline.out_dir)
    digest = hashlib.sha256()
    for name in ("di.f32", "bcm.u8", "model.json", "em_trace.csv"):
        with open(os.path.join(base, name), "rb") as fh:
            digest.update(fh.read())
    report, model_set = result["report"], result["model_set"]
    fitted = model_set.models[1, 1]
    rho_end, theta_end = box_ends(fitted)
    return {
        "data": data_seed, "pipe": pipeline_seed,
        "kc": report.kc, "fm": report.fm, "acc": report.acc,
        "gate": "pass" if report.kc >= KC_GATE and report.acc >= ACC_GATE else "fail",
        "rho": fitted.rho, "theta": fitted.theta, "w": fitted.w,
        "rho_on_bound": rho_end, "theta_on_bound": theta_end,
        "superpixels": result["seg_test"].count,
        "box_end_pairs": sum(any(box_ends(m)) for m in model_set.models.values()),
        "pairs": len(model_set.models), "flagged": float(result["bcm"].mean()),
        "auc": superpixel_auc(result["di"], result["seg_test"].labels, gt),
        "sec": elapsed, "digest": digest.hexdigest()[:12],
    }


HEADER = (f"{'data':>4} {'pipe':>4} {'KC':>7} {'Fm':>7} {'ACC':>7} {'gate':>4} "
          f"{'sp':>5} {'rho':>7} {'theta':>8} {'w':>6} {'ends':>5} {'flag':>6} {'auc':>6} "
          f"{'sec':>6} {'digest':>12}")


def format_row(row) -> str:
    rho_mark = "*" if row["rho_on_bound"] else " "
    theta_mark = "*" if row["theta_on_bound"] else " "
    return (f"{row['data']:>4} {row['pipe']:>4} {row['kc']:>7.3f} {row['fm']:>7.3f} "
            f"{row['acc']:>7.3f} {row['gate']:>4} {row['superpixels']:>5} "
            f"{row['rho']:>6.4f}{rho_mark} {row['theta']:>7.3f}{theta_mark} "
            f"{row['w']:>6.3f} {row['box_end_pairs']:>3}/{row['pairs']:<1} "
            f"{row['flagged']:>6.1%} {row['auc']:>6.3f} {row['sec']:>6.1f} {row['digest']}")


def summary(rows) -> str:
    kcs = [row["kc"] for row in rows]
    fails = sum(row["gate"] == "fail" for row in rows)
    ends = sum(row["box_end_pairs"] for row in rows)
    pairs = sum(row["pairs"] for row in rows)
    sec = statistics.median(row["sec"] for row in rows)
    aucs = [row["auc"] for row in rows if not math.isnan(row["auc"])]
    auc = statistics.median(aucs) if aucs else float("nan")
    return (f"KC median {statistics.median(kcs):.3f} min {min(kcs):.3f}; "
            f"gate failures {fails}/{len(rows)}; box-end fits {ends}/{pairs}; "
            f"AUC median {auc:.3f}; median {sec:.2f} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=256)
    parser.add_argument("--bands", type=int, default=1,
                        help="pre-event bands (cx)")
    parser.add_argument("--post-bands", type=int, default=None,
                        help="post-event bands (cy; default --bands)")
    parser.add_argument("--rho", type=float, default=0.9)
    parser.add_argument("--w", type=float, default=1.0)
    parser.add_argument("--ns-model", type=int, default=400)
    parser.add_argument("--ns-test", type=int, default=800)
    parser.add_argument("--alpha", type=float, default=5.0)
    parser.add_argument("--change-fraction", type=float, default=0.1,
                        help="changed share of each scene, in [0, 1)")
    parser.add_argument("--data-seeds", type=int, nargs="+",
                        default=list(range(5)))
    parser.add_argument("--pipeline-seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args()

    print(HEADER)
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for data_seed in args.data_seeds:
            for pipeline_seed in args.pipeline_seeds:
                rows.append(run_one(
                    args.size, args.rho, args.w, data_seed, pipeline_seed,
                    args.ns_model, args.ns_test, args.alpha, workdir, args.bands,
                    args.post_bands, args.change_fraction,
                ))
                print(format_row(rows[-1]), flush=True)
    print(summary(rows))


if __name__ == "__main__":
    main()
