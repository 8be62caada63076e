"""Confusion counts and the Kappa / F-measure / accuracy scores."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from copcd.metrics import score, score_counts


def test_perfect_prediction():
    gt = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    report = score(gt, gt)
    assert (report.kc, report.fm, report.acc) == (1.0, 1.0, 1.0)
    assert not report.degenerate


def test_constant_zero_prediction():
    gt = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    report = score(np.zeros_like(gt), gt)
    assert report.kc == 0.0
    assert report.fm == 0.0
    assert report.acc == report.tn / gt.size


def test_hand_counts():
    report = score_counts(tp=10, tn=80, fp=5, fn=5)
    assert report.fm == pytest.approx(20 / 30)
    assert report.acc == pytest.approx(0.90)
    assert report.kc == pytest.approx(1550 / 2550)
    assert not report.degenerate


def test_degenerate_single_class():
    # all-negative truth and prediction: kappa and F-measure denominators vanish
    report = score_counts(tp=0, tn=100, fp=0, fn=0)
    assert report.degenerate
    assert report.kc == 0.0
    assert report.fm == 0.0
    assert report.acc == 1.0


def test_validation_errors():
    with pytest.raises(ValueError, match=r"predicted map \(2, 2\), ground truth \(2, 3\)"):
        score(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        score(np.zeros((2, 2)), np.full((2, 2), 2))
    with pytest.raises(ValueError):
        score(np.full((2, 2), 3), np.zeros((2, 2)))


def test_report_serialization(tmp_path):
    path = tmp_path / "metrics.json"
    score_counts(tp=1, tn=2, fp=3, fn=4).write(str(path))
    doc = json.loads(path.read_text())
    assert doc["tp"] == 1 and doc["fn"] == 4


def test_metrics_json_bytes(tmp_path):
    # A whole metrics.json, byte for byte: every field, in field order.
    path = tmp_path / "metrics.json"
    score_counts(tp=1, tn=2, fp=3, fn=4).write(str(path))
    assert path.read_bytes() == (b'{\n  "tp": 1,\n  "tn": 2,\n  "fp": 3,\n  "fn": 4,\n'
                                 b'  "kc": -0.4,\n  "fm": 0.2222222222222222,\n  "acc": 0.3,\n'
                                 b'  "degenerate": false\n}\n')


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.uint8, (6, 7), elements=st.integers(0, 1)),
       hnp.arrays(np.uint8, (6, 7), elements=st.integers(0, 1)))
def test_counts_partition_pixels_and_acc_identity(bcm, gt):
    report = score(bcm, gt)
    total = report.tp + report.tn + report.fp + report.fn
    assert total == bcm.size
    # independent per-pixel recount
    tp = sum(int(b == 1 and g == 1) for b, g in zip(bcm.ravel(), gt.ravel()))
    tn = sum(int(b == 0 and g == 0) for b, g in zip(bcm.ravel(), gt.ravel()))
    assert (report.tp, report.tn) == (tp, tn)
    assert report.acc == pytest.approx((tp + tn) / bcm.size)


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.uint8, (5, 5), elements=st.integers(0, 1)),
       hnp.arrays(np.uint8, (5, 5), elements=st.integers(0, 1)))
def test_label_swap_symmetry(bcm, gt):
    direct = score(bcm, gt)
    swapped = score(1 - bcm, 1 - gt)
    assert swapped.acc == pytest.approx(direct.acc)
    assert swapped.kc == pytest.approx(direct.kc)


def test_fm_not_label_swap_symmetric():
    direct = score_counts(tp=10, tn=80, fp=5, fn=5)
    swapped = score_counts(tp=80, tn=10, fp=5, fn=5)
    assert direct.fm != swapped.fm
