"""EM estimation of the copula-mixture parameters."""

import json

import emfit_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copcd import cli, emfit
from copcd.copula import (
    LOG_FLOOR,
    CopulaMixtureModel,
    gaussian_logpdf,
    mixture_logpdf_params,
    sample_clayton_pairs,
    sample_mixture,
    tail_logpdf,
)
from copcd.dependence import TAIL_CLAYTON, TAIL_CLAYTON_SURVIVAL
from copcd.emfit import (
    RHO_MAX,
    RHO_MIN,
    STATUS_CONVERGED,
    EmConfig,
    e_step,
    fit,
    log_likelihood,
    m_step,
)
from copcd.pipeline import write_traces_csv
from copcd.raster import Raster, save_raster


def assert_monotone(trace, slack=1e-9):
    ll = trace.log_likelihoods()
    assert (np.diff(ll) >= -slack).all(), f"likelihood decreased: {ll}"


def test_config_validation():
    with pytest.raises(ValueError):
        EmConfig(eps=0.0)
    with pytest.raises(ValueError):
        EmConfig(theta_max=-1.0)


def test_log_likelihood_single_point_hand_value():
    val = log_likelihood([0.5], [0.5], rho=0.8, theta=1.0, w=0.3,
                         tail_mode=TAIL_CLAYTON)
    assert val == pytest.approx(np.log(1.329630), abs=1e-5)
    assert val == pytest.approx(0.28490, abs=1e-4)


def test_log_likelihood_independence_is_zero():
    rng = np.random.default_rng(0)
    u, v = rng.uniform(0.05, 0.95, (2, 50))
    assert log_likelihood(u, v, rho=1e-9, theta=1.0, w=1.0,
                          tail_mode=TAIL_CLAYTON) == pytest.approx(0.0, abs=1e-8)


def test_log_likelihood_matches_direct_recomputation():
    rng = np.random.default_rng(1)
    u, v = rng.uniform(0.05, 0.95, (2, 200))
    got = log_likelihood(u, v, 0.6, 2.0, 0.4, TAIL_CLAYTON_SURVIVAL)
    direct = mixture_logpdf_params(u, v, 0.6, 2.0, 0.4, TAIL_CLAYTON_SURVIVAL)
    assert got == pytest.approx(direct.sum() / len(u), abs=1e-12)


def test_e_step_degenerate_weights():
    u = np.array([0.3, 0.7])
    v = np.array([0.4, 0.6])
    assert e_step(u, v, 0.5, 1.0, 1.0, TAIL_CLAYTON).tolist() == [1.0, 1.0]
    assert e_step(u, v, 0.5, 1.0, 0.0, TAIL_CLAYTON).tolist() == [0.0, 0.0]


def test_e_step_hand_value():
    gamma = e_step([0.5], [0.5], rho=0.8, theta=1.0, w=0.3,
                   tail_mode=TAIL_CLAYTON)
    expected = 0.3 * (1 / np.sqrt(0.36)) / 1.3296296
    assert gamma[0] == pytest.approx(expected, abs=1e-6)
    assert gamma[0] == pytest.approx(0.37605, abs=1e-4)


def test_m_step_weight_is_mean_responsibility():
    rng = np.random.default_rng(2)
    u, v = rng.uniform(0.05, 0.95, (2, 100))
    w, _, _ = m_step(u, v, np.ones(100), TAIL_CLAYTON, EmConfig(), 0.5, 0.5)
    assert w == 1.0
    gamma = rng.random(100)
    w2, _, _ = m_step(u, v, gamma, TAIL_CLAYTON, EmConfig(), 0.5, 0.5)
    assert w2 == pytest.approx(gamma.mean(), abs=1e-12)


def test_m_step_recovers_gaussian_correlation():
    model = CopulaMixtureModel(rho=0.8, theta=1.0, w=1.0, n_train=1)
    u, v = sample_mixture(model, 5000, seed=3)
    _, rho, _ = m_step(u, v, np.ones(5000), TAIL_CLAYTON, EmConfig(), 0.5, 0.5)
    assert 0.77 <= rho <= 0.83


def test_m_step_recovers_clayton_theta():
    rng = np.random.default_rng(4)
    u, v = sample_clayton_pairs(2.0, 5000, rng)
    _, _, theta = m_step(u, v, np.zeros(5000), TAIL_CLAYTON, EmConfig(), 0.5, 0.5)
    assert 1.7 <= theta <= 2.3


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 400),
       tail_mode=st.sampled_from([TAIL_CLAYTON, TAIL_CLAYTON_SURVIVAL]),
       theta_max=st.floats(0.05, 5.0), rho_cur=st.floats(RHO_MIN, RHO_MAX),
       theta_frac=st.floats(0.001, 1.0))
def test_exact_m_step_beats_grid_oracle(seed, n, tail_mode, theta_max, rho_cur,
                                        theta_frac):
    """On random responsibilities the exact M-step's rho and theta score at
    least as well as the grid search's under the grid's own objectives, and
    stay inside [0.01, 0.99] and (0, theta_max]."""
    rng = np.random.default_rng(seed)
    model = CopulaMixtureModel(rho=float(rng.uniform(0, 0.95)),
                               theta=float(rng.uniform(0.2, 8)),
                               w=float(rng.uniform(0, 1)), tail_mode=tail_mode,
                               n_train=1)
    u, v = sample_mixture(model, n, seed=seed)
    gamma = rng.random(n) ** float(rng.uniform(0.2, 5))
    theta_cur = theta_frac * theta_max
    cfg = EmConfig(theta_max=theta_max)
    w, rho, theta = m_step(u, v, gamma, tail_mode, cfg, rho_cur, theta_cur)
    w_grid, rho_grid, theta_grid = emfit_oracle.m_step(u, v, gamma, tail_mode,
                                                       theta_max, rho_cur, theta_cur)
    _, rho_obj, theta_obj = emfit_oracle.component_objectives(u, v, gamma, tail_mode)
    assert w == w_grid
    assert RHO_MIN <= rho <= RHO_MAX and 0 < theta <= theta_max
    for obj, exact, grid in ((rho_obj, rho, rho_grid), (theta_obj, theta, theta_grid)):
        assert obj(exact) >= obj(grid) - 1e-12 * abs(obj(grid))


@pytest.mark.parametrize("peak, max_calls", [(1.234, 10), (6.1, 10), (0.0005, 30),
                                              (9.9999, 30)])
def test_brent_max_takes_parabolic_steps(peak, max_calls):
    """A quadratic's peak is found inside the open bracket in a handful of
    evaluations (more near a bound); golden section alone takes 36-47."""
    calls = []

    def f(x):
        calls.append(x)
        return -(x - peak) ** 2

    x = emfit._brent_max(f, 0.0, 10.0, 1e-9)
    assert abs(x - peak) < 1e-6 and 0.0 < min(calls) and max(calls) < 10.0
    assert len(calls) <= max_calls


@pytest.mark.parametrize("tail_mode", [TAIL_CLAYTON, TAIL_CLAYTON_SURVIVAL])
def test_m_step_keeps_theta_at_a_binding_bound(tail_mode):
    """Comonotone data push theta up to theta_max and rho up to its cap;
    both updates land exactly on the bound, not a search step short of it."""
    u = (np.arange(1, 201) - 0.5) / 200
    cfg = EmConfig(theta_max=3.0)
    for gamma in (np.full(200, 0.5), np.zeros(200)):
        assert m_step(u, u, gamma, tail_mode, cfg, 0.5, 0.5)[2] == 3.0
    _, rho, _ = m_step(u, u, np.ones(200), tail_mode, cfg, 0.5, 0.5)
    assert rho == RHO_MAX


def test_fit_huge_eps_stops_after_one_update():
    rng = np.random.default_rng(5)
    u, v = rng.uniform(0.05, 0.95, (2, 100))
    _, trace = fit(u, v, TAIL_CLAYTON, EmConfig(eps=10.0))
    assert trace.status == STATUS_CONVERGED
    assert len(trace.rows) == 2  # initialization plus exactly one iteration


def test_fit_pure_gaussian_data_weights_gaussian_component():
    # the default eps=0.01 stops before the weight separates; parameter
    # recovery checks run the same EM to tighter convergence
    config = EmConfig(eps=1e-4, max_iters=500)
    wins = 0
    for seed in range(10):
        model = CopulaMixtureModel(rho=0.8, theta=1.0, w=1.0, n_train=1)
        u, v = sample_mixture(model, 5000, seed=100 + seed)
        (rho, theta, w), trace = fit(u, v, TAIL_CLAYTON, config)
        assert_monotone(trace)
        if w >= 0.8:
            wins += 1
    assert wins >= 6  # 10-seed majority


def test_fit_is_deterministic():
    model = CopulaMixtureModel(rho=0.7, theta=2.0, w=0.5, n_train=1)
    u, v = sample_mixture(model, 2000, seed=6)
    a, trace_a = fit(u, v, TAIL_CLAYTON)
    b, trace_b = fit(u, v, TAIL_CLAYTON)
    assert a == b
    assert trace_a.rows == trace_b.rows


def test_fit_monotone_on_survival_data():
    model = CopulaMixtureModel(rho=0.6, theta=3.0, w=0.4,
                               tail_mode=TAIL_CLAYTON_SURVIVAL, n_train=1)
    u, v = sample_mixture(model, 3000, seed=7)
    (rho, theta, w), trace = fit(u, v, TAIL_CLAYTON_SURVIVAL)
    assert_monotone(trace)
    assert 0.0 <= w <= 1.0


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit([0.5] * 5, [0.5] * 5, TAIL_CLAYTON)  # too few samples
    with pytest.raises(ValueError):
        fit([0.0] * 20, [0.5] * 20, TAIL_CLAYTON)  # boundary pseudo-obs
    with pytest.raises(ValueError):
        fit([0.5] * 20, [0.5] * 20, "gumbel")


def test_trace_csv_export(tmp_path):
    rng = np.random.default_rng(8)
    u, v = rng.uniform(0.05, 0.95, (2, 50))
    _, trace = fit(u, v, TAIL_CLAYTON)
    path = tmp_path / "trace.csv"
    write_traces_csv({(1, 1): trace}, str(path))
    lines = path.read_text().strip().splitlines()
    header = "c1,c2,iteration,log_likelihood,rho,theta,w,mean_gamma1,status"
    assert lines[0] == header
    assert len(lines) == len(trace.rows) + 1
    assert all(line.startswith("1,1,") and line.endswith("," + trace.status)
               for line in lines[1:])
    write_traces_csv({}, str(path))  # detect --model: no EM, header only
    assert path.read_text().strip() == header


def _two_pass_loglik_and_gamma(u, v, rho, theta, w, tail_mode):
    """The mixture density and the responsibilities each evaluated on their
    own, the reference for the shared one-pass helper."""
    ll = float(np.mean(mixture_logpdf_params(u, v, rho, theta, w, tail_mode)))
    if w >= 1.0:
        return ll, np.ones_like(u)
    if w <= 0.0:
        return ll, np.zeros_like(u)
    fg = w * np.exp(gaussian_logpdf(u, v, rho))
    fc = (1 - w) * np.exp(tail_logpdf(u, v, theta, tail_mode))
    return ll, np.clip(fg / np.maximum(fg + fc, LOG_FLOOR), 0.0, 1.0)


@pytest.mark.parametrize("tail_mode", [TAIL_CLAYTON, TAIL_CLAYTON_SURVIVAL])
def test_one_density_pass_keeps_fit_outputs_byte_identical(tmp_path, monkeypatch,
                                                          tail_mode):
    model = CopulaMixtureModel(rho=0.6, theta=3.0, w=0.4, tail_mode=tail_mode,
                               n_train=1)
    u, v = sample_mixture(model, 2000, seed=11)
    pairs = np.stack([u, v], axis=1)[:, :, None].astype(np.float32)
    save_raster(Raster.from_array(pairs), str(tmp_path / "pairs"))

    def run(name):
        out = tmp_path / name
        assert cli.main(["fit", "--pairs", str(tmp_path / "pairs"), "--eps", "1e-4",
                         "--out-dir", str(out)]) == cli.EXIT_OK
        return {f: (out / f).read_bytes() for f in ("model.json", "em_trace.csv")}

    got = run("one_pass")
    monkeypatch.setattr(emfit, "_loglik_and_gamma", _two_pass_loglik_and_gamma)
    want = run("two_pass")
    assert got == want
    assert json.loads(got["model.json"])["pairs"]["1,1"]["tail_mode"] == tail_mode
