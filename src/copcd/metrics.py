"""Confusion counts and the Kappa / F-measure / accuracy scores."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class MetricsReport:
    tp: int
    tn: int
    fp: int
    fn: int
    kc: float
    fm: float
    acc: float
    degenerate: bool = False

    def write(self, path: str) -> None:
        """Write ``metrics.json``: the fields in field order as indented JSON,
        and a newline."""
        with open(path, "w") as fh:
            fh.write(json.dumps(asdict(self), indent=2) + "\n")


def score_counts(tp: int, tn: int, fp: int, fn: int) -> MetricsReport:
    total = tp + tn + fp + fn
    degenerate = False

    kc_den = (tp + fp) * (fp + tn) + (tp + fn) * (fn + tn)
    if kc_den == 0:
        kc = 0.0
        degenerate = True
    else:
        kc = 2.0 * (tp * tn - fn * fp) / kc_den

    fm_den = 2 * tp + fp + fn
    if fm_den == 0:
        fm = 0.0
        degenerate = True
    else:
        fm = 2.0 * tp / fm_den

    acc = (tp + tn) / total
    return MetricsReport(tp=tp, tn=tn, fp=fp, fn=fn, kc=kc, fm=fm, acc=acc,
                         degenerate=degenerate)


def score(bcm: np.ndarray, gt: np.ndarray) -> MetricsReport:
    """Pixel-level confusion of a predicted map against ground truth;
    positive = changed."""
    bcm = np.asarray(bcm)
    gt = np.asarray(gt)
    if bcm.shape != gt.shape:
        raise ValueError(f"map dimensions differ: predicted map {bcm.shape}, "
                         f"ground truth {gt.shape}")
    if not np.isin(gt, (0, 1)).all():
        raise ValueError("ground truth must be binary")
    if not np.isin(bcm, (0, 1)).all():
        raise ValueError("predicted map must be binary")
    pred = bcm.astype(bool)
    truth = gt.astype(bool)
    tp = int(np.count_nonzero(pred & truth))
    tn = int(np.count_nonzero(~pred & ~truth))
    fp = int(np.count_nonzero(pred & ~truth))
    fn = int(np.count_nonzero(~pred & truth))
    return score_counts(tp, tn, fp, fn)
