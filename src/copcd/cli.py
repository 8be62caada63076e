"""Command-line interface.

Subcommands: detect, fit, synth, score, translate. Every config-file key can
be overridden by a flag of the same name. Exit codes: 0 ok, 2 usage or
contract error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import metrics, pipeline, synth, translate
from .copula import CopulaMixtureModel
from .dependence import TAIL_CLAYTON, TAIL_CLAYTON_SURVIVAL
from .pipeline import PipelineConfig, StageError
from .raster import export_graymap, load_binary_map, load_raster, save_binary_map, save_raster

EXIT_OK = 0
EXIT_CONTRACT = 2
EXIT_NUMERICAL = 3


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--pre", help="pre-event raster (container base path)")
    p.add_argument("--post", help="post-event raster")
    p.add_argument("--translated", help="externally translated raster (skips baseline)")
    p.add_argument("--gt", help="ground-truth binary map for scoring")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--model", help="model.json from fit (detect skips training)")
    p.add_argument("--ns-model", dest="ns_model", type=int)
    p.add_argument("--ns-test", dest="ns_test", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--seed", type=int)


def _config_values(args) -> dict:
    """The config fields given by --config and by flags, flags winning."""
    values = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        values.update(loaded)
    known = {f.name for f in fields(PipelineConfig)}
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for name in known:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return values


def cmd_detect(args) -> int:
    config = PipelineConfig(**_config_values(args))
    result = pipeline.run_detect(config)
    pipeline.write_artifacts(result, config)
    if "report" in result:
        rep = result["report"]
        print(f"kc={rep.kc:.4f} fm={rep.fm:.4f} acc={rep.acc:.4f}")
    else:
        print(f"superpixels={result['seg_test'].count} "
              f"changed_pixels={int(result['bcm'].sum())}")
    return EXIT_OK


def cmd_fit(args) -> int:
    values = _config_values(args)
    if args.pairs is not None:
        unread = set(values) - {"eps", "out_dir"}
    else:
        unread = set(values) & {"model"}  # fit always runs EM; a model goes to detect
    if unread:
        raise ValueError(f"config fields {sorted(unread)} are not read by "
                         f"fit{' --pairs' if args.pairs is not None else ''}")
    config = PipelineConfig(**values)
    if args.pairs is not None:
        pairs = load_raster(args.pairs)
        if pairs.data.shape[1:] != (2, 1):
            raise ValueError("--pairs expects an n x 2 x 1 raster of sample columns")
        model_set, traces = pipeline.fit_model_set(
            pairs.data[:, 0, :].astype(np.float64),
            pairs.data[:, 1, :].astype(np.float64),
            config.em_config(),
        )
    else:
        model_set, traces = pipeline.run_fit(config)
    pipeline.write_model(model_set, traces, config.out_dir)
    for (c1, c2), model in sorted(model_set.models.items()):
        print(f"pair {c1},{c2}: rho={model.rho:.4f} theta={model.theta:.4f} "
              f"w={model.w:.4f} tail={model.tail_mode}")
    return EXIT_OK


def cmd_synth(args) -> int:
    model = CopulaMixtureModel(
        rho=args.rho, theta=args.theta, w=args.w,
        tail_mode=args.tail_mode, n_train=1,
    )
    cfg = synth.SynthConfig(
        m=args.m, n=args.n, cx=args.cx, cy=args.cy, model=model,
        change_fraction=args.change_fraction, change_shape=args.change_shape,
        noise_sigma=args.noise_sigma, seed=args.seed,
    )
    x, y, gt = synth.generate_pair(cfg)
    out = args.out_dir or "."
    os.makedirs(out, exist_ok=True)
    save_raster(x, os.path.join(out, "pre"))
    save_raster(y, os.path.join(out, "post"))
    save_binary_map(gt, os.path.join(out, "gt"))
    export_graymap(gt.astype(np.float64) * 255.0, os.path.join(out, "gt.pgm"))
    print(f"wrote pre/post/gt to {out} (changed pixels: {int(gt.sum())})")
    return EXIT_OK


def cmd_score(args) -> int:
    bcm = load_binary_map(args.bcm)
    gt = load_binary_map(args.gt)
    report = metrics.score(bcm, gt)
    if args.out:
        report.write(args.out)
    print(f"kc={report.kc:.4f} fm={report.fm:.4f} acc={report.acc:.4f}")
    return EXIT_OK


def cmd_translate(args) -> int:
    x = load_raster(args.pre)
    y = load_raster(args.post)
    y_t = translate.translate_baseline(x, y)
    save_raster(y_t, args.out)
    print(f"wrote translated raster to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copcd",
        description="Copula-mixture change detection for heterogeneous image pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run the full detection pipeline")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("fit", help="fit copula-mixture models only")
    _add_pipeline_flags(p)
    p.add_argument("--pairs", help="n x 2 x 1 raster of raw sample pairs")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("synth", help="generate a synthetic heterogeneous pair")
    p.add_argument("--m", type=int, default=128)
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--cx", type=int, default=1)
    p.add_argument("--cy", type=int, default=1)
    p.add_argument("--rho", type=float, default=0.8)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--w", type=float, default=1.0)
    p.add_argument("--tail-mode", dest="tail_mode", default=TAIL_CLAYTON,
                   choices=[TAIL_CLAYTON, TAIL_CLAYTON_SURVIVAL])
    p.add_argument("--change-fraction", dest="change_fraction", type=float, default=0.1)
    p.add_argument("--change-shape", dest="change_shape", default="rectangle",
                   choices=[synth.SHAPE_RECTANGLE, synth.SHAPE_BLOBS])
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", dest="out_dir", default=".")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("score", help="score a BCM against ground truth")
    p.add_argument("--bcm", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", help="write metrics JSON here")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("translate", help="baseline translation of pre into post modality")
    p.add_argument("--pre", required=True)
    p.add_argument("--post", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_translate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONTRACT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except StageError as exc:
        root = exc.cause
        code = EXIT_NUMERICAL if isinstance(root, ArithmeticError) else EXIT_CONTRACT
        print(f"error: {exc}", file=sys.stderr)
        return code
    except ArithmeticError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
