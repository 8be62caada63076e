"""Command-line interface.

Subcommands: detect, fit, synth, score. Flags are the only way to set a
run. The flags of detect are PipelineConfig's fields, and fit's are the same
but model, gt and alpha, which only detection reads, plus --pairs; those of
synth are SynthConfig's and its generating model's. A flag left unset keeps
its dataclass default. Exit codes: 0 ok, 2 usage or contract error (an
input too large for memory included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import emfit, metrics, pipeline, synth
from .copula import CopulaMixtureModel
from .pipeline import PipelineConfig, StageError
from .raster import export_graymap, load_binary_map, load_raster, save_binary_map, save_raster

EXIT_OK = 0
EXIT_CONTRACT = 2
EXIT_NUMERICAL = 3
_FLAG_TYPES = {"int": int, "float": float}  # a str field's flag keeps argparse's string


def _add_field_flags(p: argparse.ArgumentParser, cls, skip=()) -> None:
    """One ``--field-name`` flag per field of dataclass ``cls`` not in ``skip``,
    typed by the field's annotation, with the help of its metadata and no
    default: unset, it reads None and the dataclass's default holds."""
    for f in fields(cls):
        if f.name not in skip:
            p.add_argument("--" + f.name.replace("_", "-"), type=_FLAG_TYPES.get(f.type),
                           help=f.metadata.get("help"))


def _flag_values(args, cls) -> dict:
    """The fields of dataclass ``cls`` that flags set."""
    return {f.name: getattr(args, f.name) for f in fields(cls)
            if getattr(args, f.name, None) is not None}


def cmd_detect(args) -> int:
    config = PipelineConfig(**_flag_values(args, PipelineConfig))
    result = pipeline.run_detect(config)
    pipeline.write_artifacts(result, config.out_dir)
    if "report" in result:
        rep = result["report"]
        print(f"kc={rep.kc:.4f} fm={rep.fm:.4f} acc={rep.acc:.4f}")
    else:
        print(f"superpixels={result['seg_test'].count} "
              f"changed_pixels={int(result['bcm'].sum())}")
    return EXIT_OK


def cmd_fit(args) -> int:
    values = _flag_values(args, PipelineConfig)
    unread = set(values) - {"eps", "out_dir"} if args.pairs is not None else set()
    if unread:
        raise ValueError(f"config fields {sorted(unread)} are not read by fit --pairs")
    config = PipelineConfig(**values)
    if args.pairs is not None:
        pairs = load_raster(args.pairs)
        if pairs.data.shape[1:] != (2, 1) or len(pairs.data) < emfit.MIN_PAIRS:
            raise ValueError("pairs raster {} is {}x{}x{}; fit needs n x 2 x 1 sample columns "
                             "with n >= {}".format(args.pairs, *pairs.data.shape, emfit.MIN_PAIRS))
        pipeline.refuse_constant("pairs", pairs.data[:, :, 0], "column")
        model_set, traces = pipeline.fit_model_set(
            pairs.data[:, 0, :], pairs.data[:, 1, :], config.em_config())
        result = {"model_set": model_set, "traces": traces}
    else:
        result = pipeline.run_fit(config)
    pipeline.write_artifacts(result, config.out_dir)
    for (c1, c2), model in sorted(result["model_set"].models.items()):
        print(f"pair {c1},{c2}: rho={model.rho:.4f} theta={model.theta:.4f} "
              f"w={model.w:.4f} tail={model.tail_mode}")
    return EXIT_OK


def cmd_synth(args) -> int:
    base = synth.SynthConfig()
    model = replace(base.model, **_flag_values(args, CopulaMixtureModel))
    cfg = replace(base, model=model, **_flag_values(args, synth.SynthConfig))
    x, y, gt = synth.generate_pair(cfg)
    out = args.out_dir or "."
    os.makedirs(out, exist_ok=True)
    save_raster(x, os.path.join(out, "pre"))
    save_raster(y, os.path.join(out, "post"))
    save_binary_map(gt, os.path.join(out, "gt"))
    export_graymap(gt.astype(np.uint8) * 255, os.path.join(out, "gt.pgm"))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copcd",
        description="Copula-mixture change detection for heterogeneous image pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("detect", help="run the full detection pipeline")
    _add_field_flags(p, PipelineConfig)
    p.set_defaults(func=cmd_detect)

    # fit always runs EM; a model, a gt map and alpha go to detect.
    p = sub.add_parser("fit", help="fit copula-mixture models only")
    _add_field_flags(p, PipelineConfig, skip={"model", "gt", "alpha"})
    p.add_argument("--pairs", help="n x 2 x 1 raster of raw sample pairs")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("synth", help="generate a synthetic heterogeneous pair")
    _add_field_flags(p, synth.SynthConfig, skip={"model"})
    # The generating model; orientation and n_train describe a fit.
    _add_field_flags(p, CopulaMixtureModel, skip={"orientation", "n_train"})
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("score", help="score a BCM against ground truth")
    p.add_argument("--bcm", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", help="write metrics JSON here")
    p.set_defaults(func=cmd_score)
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
