"""End-to-end acceptance gate.

Each test pins one acceptance criterion with its tolerance and runtime
budget. The synthetic benchmark fixture runs the full CLI pipeline once and
shares its artifacts between the quality and determinism checks.
"""

import json
import os
import time

import numpy as np
import pytest
from copula_oracle import mixture_density, sample_clayton_pairs, sample_gaussian_pairs
from quadrature import unit_square_integral

from copcd import cli
from copcd.copula import (
    ChannelPairModels,
    CopulaMixtureModel,
    sample_mixture,
)
from copcd.dependence import TAIL_CLAYTON, kendall_tau, tail_dependence
from copcd.dependence import EmpiricalCdf
from copcd.detector import test_statistics as compute_statistics
from copcd.emfit import EmConfig, fit
from copcd.metrics import score_counts
from copcd.raster import load_binary_map


def test_01_density_normalization():
    """Every (rho, theta, w) mixture density integrates to 1 over (0,1)^2."""
    start = time.monotonic()
    worst = 0.0
    for rho in (0.0, 0.5, 0.9):
        for theta in (0.5, 1.0, 5.0):
            for w in (0.0, 0.3, 1.0):
                model = CopulaMixtureModel(rho=rho, theta=theta, w=w,
                                           tail_mode=TAIL_CLAYTON, n_train=1)
                val = unit_square_integral(
                    lambda a, b, m=model: mixture_density(a, b, m))
                worst = max(worst, abs(val - 1.0))
                assert val == pytest.approx(1.0, abs=1e-3), (rho, theta, w)
    assert worst < 1e-3
    assert time.monotonic() - start < 60.0


def test_02_kendall_tau_matches_brute_force():
    """Blocked tau equals direct pair enumeration on 200 tie-free vectors."""
    start = time.monotonic()
    rng = np.random.default_rng(202)
    for _ in range(200):
        n = int(rng.integers(2, 501))
        x = rng.permutation(n) + rng.random(n) * 0.25  # tie-free by construction
        y = rng.permutation(n) + rng.random(n) * 0.25
        s = np.sign(np.subtract.outer(x, x) * np.subtract.outer(y, y))
        iu = np.triu_indices(n, k=1)
        brute = 2.0 * s[iu].sum() / (n * (n - 1))
        assert kendall_tau(x, y) == brute
    assert time.monotonic() - start < 10.0


def test_03_sampler_tau_identities():
    """Sampler tau matches the closed-form identities for each family."""
    start = time.monotonic()
    rng = np.random.default_rng(303)
    u, v = sample_gaussian_pairs(0.8, 10000, rng)
    assert kendall_tau(u, v) == pytest.approx(2 / np.pi * np.arcsin(0.8), abs=0.03)
    u, v = sample_clayton_pairs(2.0, 10000, rng)
    assert kendall_tau(u, v) == pytest.approx(2 / (2 + 2), abs=0.03)
    assert time.monotonic() - start < 10.0


def test_04_tail_mode_selection():
    """Lower-tail dominance selects the Clayton branch on Clayton data."""
    start = time.monotonic()
    clayton_wins = 0
    survival_wins = 0
    for seed in range(100):
        rng = np.random.default_rng(404 + seed)
        u, v = sample_clayton_pairs(2.0, 5000, rng)
        lower, upper = tail_dependence(u, v)
        clayton_wins += lower > upper
        lower_r, upper_r = tail_dependence(1.0 - u, 1.0 - v)
        survival_wins += upper_r > lower_r
    assert clayton_wins >= 95
    assert survival_wins >= 95
    assert time.monotonic() - start < 60.0


def test_05_em_likelihood_is_monotone():
    """The EM objective never decreases (within 1e-9) on any fit."""
    configs = [
        (CopulaMixtureModel(rho=0.8, theta=1.0, w=0.3, n_train=1), TAIL_CLAYTON),
        (CopulaMixtureModel(rho=0.5, theta=3.0, w=0.7, n_train=1), TAIL_CLAYTON),
        (CopulaMixtureModel(rho=0.9, theta=0.5, w=0.0,
                            tail_mode="clayton_survival", n_train=1),
         "clayton_survival"),
    ]
    for model, tail in configs:
        for seed in range(5):
            u, v = sample_mixture(model, 2000, seed=500 + seed)
            _, trace = fit(u, v, tail)
            ll = np.array([row[1] for row in trace.rows])
            assert (np.diff(ll) >= -1e-9).all(), (model, seed, ll)


def test_06_em_parameter_recovery():
    """Mixture parameters recovered within range on most seeds."""
    start = time.monotonic()
    truth = CopulaMixtureModel(rho=0.8, theta=1.0, w=0.3, n_train=1)
    # default eps=0.01 halts before the components separate; recovery is an
    # estimator property, so run the same EM to tight convergence
    config = EmConfig(eps=1e-6)
    hits = 0
    for seed in range(10):
        u, v = sample_mixture(truth, 5000, seed=seed)
        (rho, theta, w), trace = fit(u, v, TAIL_CLAYTON, config)
        ll = np.array([row[1] for row in trace.rows])
        assert (np.diff(ll) >= -1e-9).all()
        if 0.2 <= w <= 0.4 and 0.7 <= rho <= 0.9 and 0.5 <= theta <= 2.0:
            hits += 1
    assert hits >= 7
    assert time.monotonic() - start < 120.0


def test_07_statistic_separates_independent_pairs():
    """Mean statistic is higher on independent data than on model data."""
    start = time.monotonic()
    truth = CopulaMixtureModel(rho=0.8, theta=2.0, w=0.7,
                               tail_mode=TAIL_CLAYTON, n_train=1)
    train_u, train_v = sample_mixture(truth, 4000, seed=12345)
    (rho, theta, w), _ = fit(train_u, train_v, TAIL_CLAYTON,
                             EmConfig(eps=1e-4))
    fitted = CopulaMixtureModel(rho=rho, theta=theta, w=w,
                                tail_mode=TAIL_CLAYTON, n_train=4000)
    models = ChannelPairModels(
        models={(1, 1): fitted},
        ecdfs_x=(EmpiricalCdf(train_u),), ecdfs_y=(EmpiricalCdf(train_v),),
    )
    wins = 0
    for trial in range(100):
        du, dv = sample_mixture(truth, 2000, seed=1000 + trial)
        rng = np.random.default_rng(5000 + trial)
        iu, iv = rng.random(2000), rng.random(2000)
        t_dep = compute_statistics(du[:, None], dv[:, None], models).mean()
        t_ind = compute_statistics(iu[:, None], iv[:, None], models).mean()
        wins += t_ind > t_dep
    assert wins >= 95
    assert time.monotonic() - start < 60.0


# --- synthetic end-to-end benchmark (criteria 8 and 9) ---

BENCHMARK_BUDGET_SECONDS = 60.0


@pytest.fixture(scope="module")
def benchmark_scene(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    data = str(tmp / "data")
    code = cli.main([
        "synth", "--m", "256", "--n", "256", "--rho", "0.9", "--w", "1.0",
        "--change-fraction", "0.1", "--change-shape", "rectangle",
        "--noise-sigma", "0.05", "--seed", "5", "--out-dir", data,
    ])
    assert code == cli.EXIT_OK
    return data


def _run_detect(data, out):
    args = [
        "detect",
        "--pre", os.path.join(data, "pre"),
        "--post", os.path.join(data, "post"),
        "--gt", os.path.join(data, "gt"),
        "--out-dir", out,
        "--ns-model", "400", "--ns-test", "800",
        "--alpha", "5", "--seed", "0",
    ]
    start = time.monotonic()
    assert cli.main(args) == cli.EXIT_OK
    return time.monotonic() - start


@pytest.fixture(scope="module")
def benchmark_run(benchmark_scene, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run"))
    return out, _run_detect(benchmark_scene, out)


def test_08_synthetic_benchmark_quality(benchmark_scene, benchmark_run):
    out, elapsed = benchmark_run
    assert elapsed < BENCHMARK_BUDGET_SECONDS
    report = json.load(open(os.path.join(out, "metrics.json")))
    assert report["kc"] >= 0.8
    assert report["acc"] >= 0.95
    # the change map marks a sensible amount of the 10% changed scene
    bcm = load_binary_map(os.path.join(out, "bcm"))
    assert 0.05 <= bcm.mean() <= 0.20


def test_09_benchmark_is_deterministic(benchmark_scene, benchmark_run, tmp_path_factory):
    first_out, _ = benchmark_run
    second_out = str(tmp_path_factory.mktemp("rerun"))
    _run_detect(benchmark_scene, second_out)
    for name in ("bcm.u8", "di.f32"):
        a = open(os.path.join(first_out, name), "rb").read()
        b = open(os.path.join(second_out, name), "rb").read()
        assert a == b, f"{name} differs between identical runs"


def test_10_metric_hand_cases():
    constant = score_counts(tp=0, tn=90, fp=0, fn=10)
    assert constant.kc == 0.0
    assert constant.fm == 0.0
    assert constant.acc == 0.9

    hand = score_counts(tp=10, tn=80, fp=5, fn=5)
    assert hand.fm == 20 / 30
    assert hand.acc == 0.90
    assert hand.kc == 1550 / 2550
