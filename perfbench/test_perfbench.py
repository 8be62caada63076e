"""Tests of the benchmark's own arithmetic and tracing."""

from concurrent.futures import ThreadPoolExecutor
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import benchstats  # noqa: E402
import run  # noqa: E402
import spantrace  # noqa: E402


def test_covered_merges_overlaps():
    assert benchstats.covered([]) == 0.0
    assert benchstats.covered([(0, 1), (2, 3)]) == 2.0
    assert benchstats.covered([(0, 2), (1, 3)]) == 3.0
    assert benchstats.covered([(0, 4), (1, 2), (3, 3.5)]) == 4.0


def test_self_time_subtracts_child_union():
    spans = [
        (1, None, 0.0, 10.0),   # root
        (2, 1, 1.0, 5.0),       # child
        (3, 2, 2.0, 3.0),       # grandchild
        (4, 1, 4.0, 7.0),       # overlaps child 2 (pool thread)
        (5, 1, 9.0, 12.0),      # runs past the root's end
    ]
    st = benchstats.self_times(spans)
    assert st[1] == pytest.approx(10 - (6 + 1))  # children cover [1,7] and [9,10]
    assert st[2] == pytest.approx(4 - 1)
    assert st[3] == pytest.approx(1)
    assert st[4] == pytest.approx(3)
    assert st[5] == pytest.approx(3)


def _span(sid, parent, name, start, end, **counts):
    return spantrace.Span(sid, parent, name, start, end, 0, counts)


def test_layer_metrics_from_spans():
    spans = [
        _span(1, None, "op", 0.0, 10.0),
        _span(2, 1, "pipeline.fit_model_set", 1.0, 5.0),
        _span(3, 2, "pipeline.fit_channel_pair", 1.0, 4.0),
        _span(4, 2, "pipeline.fit_channel_pair", 1.5, 4.5),
        _span(5, 3, "dependence.kendall_tau", 1.0, 3.0, n=1000, pairs=499500),
    ]
    m = run.layer_metrics(spans)
    assert m["trace.op_s"] == 10.0
    assert m["pipeline.fit_model_set.self_s"] == pytest.approx(4 - 3.5)
    assert m["pipeline.fit_channel_pair.calls"] == 2
    assert m["pipeline.fit_channel_pair.self_s"] == pytest.approx(1 + 3)
    assert m["pipeline.fit_model_set.parallelism"] == pytest.approx(6 / 4)
    assert m["dependence.kendall_tau.n"] == 1000
    assert m["dependence.kendall_tau.pairs_per_s"] == pytest.approx(499500 / 2)
    assert m["dependence.self_share"] == pytest.approx(2 / 10)
    assert m["segmentation.slic.regions"] == 0


def test_tracer_patches_by_name_imports_and_pool_threads(monkeypatch):
    import numpy as np

    from copcd import detector, emfit, pipeline
    from copcd.copula import joint_logpdf_superpixel

    monkeypatch.setenv("COMIC_THREADS", "2")
    rng = np.random.default_rng(0)
    feats = rng.random((60, 2))
    tracer = spantrace.Tracer()
    with tracer.installed():
        assert detector.joint_logpdf_superpixel is not joint_logpdf_superpixel
        tracer.call("op", pipeline.fit_model_set,
                    (feats, feats + 0.1 * rng.random((60, 2)), emfit.EmConfig()))
    assert detector.joint_logpdf_superpixel is joint_logpdf_superpixel
    assert pipeline.ThreadPoolExecutor is ThreadPoolExecutor

    by_id = {s.sid: s for s in tracer.spans}
    pair_spans = [s for s in tracer.spans if s.name == "pipeline.fit_channel_pair"]
    assert len(pair_spans) == 4
    assert all(by_id[s.parent].name == "pipeline.fit_model_set" for s in pair_spans)
    taus = [s for s in tracer.spans if s.name == "dependence.kendall_tau"]
    assert [s.counts["n"] for s in taus] == [60] * 4
    assert all(by_id[s.parent].name == "pipeline.fit_channel_pair" for s in taus)


def test_state_key_follows_source_and_library_versions():
    env = {"source_sha256": "a" * 64, "python": "3.11.0", "numpy": "1.26.0",
           "scipy": "1.11.0", "machine": "x86_64"}
    key = run.state_key(env)
    assert run.state_key(dict(env)) == key
    for name in env:
        assert run.state_key({**env, name: env[name] + "1"}) != key
