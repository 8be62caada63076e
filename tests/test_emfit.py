"""EM estimation of the copula-mixture parameters."""

import json

import emfit_oracle
import numpy as np
import pytest
from copula_oracle import (
    gaussian_logpdf,
    mixture_logpdf_and_gamma,
    sample_clayton_pairs,
    tail_logpdf,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from copcd import cli, emfit
from copcd.copula import CopulaMixtureModel, sample_mixture
from copcd.dependence import TAIL_CLAYTON, TAIL_CLAYTON_SURVIVAL
from copcd.emfit import (
    RHO_MAX,
    RHO_MIN,
    STATUS_CONVERGED,
    STATUS_MAX_ITERS,
    THETA_MAX,
    THETA_MIN,
    THETA_START,
    EmConfig,
    EmTrace,
    fit,
    fit_transforms,
    log_likelihood,
    m_step,
)
from copcd.pipeline import write_traces_csv
from copcd.raster import Raster, save_raster


def assert_monotone(trace, slack=1e-9):
    ll = np.array([row[1] for row in trace.rows])
    assert (np.diff(ll) >= -slack).all(), f"likelihood decreased: {ll}"


def test_config_validation():
    for eps in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="'eps' must be finite and > 0"):
            EmConfig(eps=eps)


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
    direct, _ = mixture_logpdf_and_gamma(u, v, 0.6, 2.0, 0.4, TAIL_CLAYTON_SURVIVAL)
    assert got == pytest.approx(direct.sum() / len(u), abs=1e-12)


def _gamma1(u, v, rho, theta, w, tail_mode):
    return mixture_logpdf_and_gamma(u, v, rho, theta, w, tail_mode)[1]


def test_e_step_degenerate_weights():
    u = np.array([0.3, 0.7])
    v = np.array([0.4, 0.6])
    assert _gamma1(u, v, 0.5, 1.0, 1.0, TAIL_CLAYTON).tolist() == [1.0, 1.0]
    assert _gamma1(u, v, 0.5, 1.0, 0.0, TAIL_CLAYTON).tolist() == [0.0, 0.0]


def test_e_step_hand_value():
    gamma = _gamma1([0.5], [0.5], rho=0.8, theta=1.0, w=0.3, tail_mode=TAIL_CLAYTON)
    expected = 0.3 * (1 / np.sqrt(0.36)) / 1.3296296
    assert gamma[0] == pytest.approx(expected, abs=1e-6)
    assert gamma[0] == pytest.approx(0.37605, abs=1e-4)


def test_m_step_weight_is_mean_responsibility():
    rng = np.random.default_rng(2)
    u, v = rng.uniform(0.05, 0.95, (2, 100))
    w, _, _ = m_step(fit_transforms(u, v, TAIL_CLAYTON), np.ones(100), 0.5, 0.5)
    assert w == 1.0
    gamma = rng.random(100)
    w2, _, _ = m_step(fit_transforms(u, v, TAIL_CLAYTON), gamma, 0.5, 0.5)
    assert w2 == pytest.approx(gamma.mean(), abs=1e-12)


def test_m_step_recovers_gaussian_correlation():
    model = CopulaMixtureModel(rho=0.8, theta=1.0, w=1.0, n_train=1)
    u, v = sample_mixture(model, 5000, seed=3)
    _, rho, _ = m_step(fit_transforms(u, v, TAIL_CLAYTON), np.ones(5000), 0.5, 0.5)
    assert 0.77 <= rho <= 0.83


def test_m_step_recovers_clayton_theta():
    rng = np.random.default_rng(4)
    u, v = sample_clayton_pairs(2.0, 5000, rng)
    _, _, theta = m_step(fit_transforms(u, v, TAIL_CLAYTON), np.zeros(5000), 0.5, 0.5)
    assert 1.7 <= theta <= 2.3


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 400),
       tail_mode=st.sampled_from([TAIL_CLAYTON, TAIL_CLAYTON_SURVIVAL]),
       rho_cur=st.floats(RHO_MIN, RHO_MAX), theta_cur=st.floats(THETA_MIN, THETA_MAX))
def test_exact_m_step_beats_grid_oracle(seed, n, tail_mode, rho_cur, theta_cur):
    """On random responsibilities the exact M-step's rho and theta score at
    least as well as the grid search's under the grid's own objectives, and
    stay inside the box [0.01, 0.99] x [0.1, 20]. The theta of safeguarded
    Newton also scores at least as well as the theta of Brent's search did."""
    rng = np.random.default_rng(seed)
    model = CopulaMixtureModel(rho=float(rng.uniform(0, 0.95)),
                               theta=float(rng.uniform(0.2, 8)),
                               w=float(rng.uniform(0, 1)), tail_mode=tail_mode,
                               n_train=1)
    u, v = sample_mixture(model, n, seed=seed)
    gamma = rng.random(n) ** float(rng.uniform(0.2, 5))
    w, rho, theta = m_step(fit_transforms(u, v, tail_mode), gamma, rho_cur, theta_cur)
    w_grid, rho_grid, theta_grid = emfit_oracle.m_step(u, v, gamma, tail_mode,
                                                       THETA_MAX, rho_cur, theta_cur)
    _, rho_obj, theta_obj = emfit_oracle.component_objectives(u, v, gamma, tail_mode)
    assert w == w_grid
    assert RHO_MIN <= rho <= RHO_MAX and THETA_MIN <= theta <= THETA_MAX
    theta_brent = emfit_oracle.brent_theta(theta_obj, theta_cur)
    for obj, exact, other in ((rho_obj, rho, rho_grid), (theta_obj, theta, theta_grid),
                              (theta_obj, theta, theta_brent)):
        assert obj(exact) >= obj(other) - 1e-12 * abs(obj(other))


@pytest.mark.parametrize("bound, theta_cur", [(THETA_MIN, THETA_MIN), (THETA_MIN, THETA_START),
                                              (THETA_MIN, THETA_MAX), (THETA_MAX, THETA_MAX)])
def test_m_step_binding_at_a_bound_makes_at_most_three_passes(monkeypatch, bound,
                                                              theta_cur):
    """An M-step whose theta binds at THETA_MIN (independent pairs) or at
    THETA_MAX (comonotone pairs) evaluates the Clayton kernel at most three
    times: from theta_cur at the bound, as in a fit once theta has reached
    it, and at THETA_MIN also from the fit's start or the other bound. (From
    the start, comonotone pairs take Newton five passes to THETA_MAX: on them
    the objective rises all the way to the bound, and each step about
    doubles theta.)"""
    rng = np.random.default_rng(12)
    if bound == THETA_MIN:
        u, v = rng.uniform(0.01, 0.99, (2, 2000))
    else:
        u = v = (np.arange(1, 2001) - 0.5) / 2000
    tf = fit_transforms(u, v, TAIL_CLAYTON)
    passes = []
    kernel = emfit.clayton_log_s

    def counting(logs, theta):
        passes.append(theta)
        return kernel(logs, theta)

    monkeypatch.setattr(emfit, "clayton_log_s", counting)
    for gamma in (np.zeros(2000), rng.random(2000)):
        passes.clear()
        assert m_step(tf, gamma, 0.5, theta_cur)[2] == bound
        assert len(passes) <= 3, passes


@pytest.mark.parametrize("peak, max_calls", [(1.234, 10), (6.1, 10), (0.0005, 30),
                                              (9.9999, 30)])
def test_brent_max_takes_parabolic_steps(peak, max_calls):
    """A quadratic's peak is found inside the open bracket in a handful of
    evaluations (more near a bound); golden section alone takes 36-47."""
    calls = []

    def f(x):
        calls.append(x)
        return -(x - peak) ** 2

    x = emfit_oracle.brent_max(f, 0.0, 10.0, 1e-9)
    assert abs(x - peak) < 1e-6 and 0.0 < min(calls) and max(calls) < 10.0
    assert len(calls) <= max_calls


@pytest.mark.parametrize("tail_mode", [TAIL_CLAYTON, TAIL_CLAYTON_SURVIVAL])
def test_m_step_keeps_theta_at_a_binding_bound(tail_mode):
    """Comonotone data push theta up to THETA_MAX and rho up to RHO_MAX;
    both updates land exactly on the bound, not a search step short of it."""
    u = (np.arange(1, 201) - 0.5) / 200
    for gamma in (np.full(200, 0.5), np.zeros(200)):
        assert m_step(fit_transforms(u, u, tail_mode), gamma, 0.5, 0.5)[2] == 20.0
    _, rho, _ = m_step(fit_transforms(u, u, tail_mode), np.ones(200), 0.5, 0.5)
    assert rho == RHO_MAX


def test_fit_huge_eps_stops_after_one_update():
    rng = np.random.default_rng(5)
    u, v = rng.uniform(0.05, 0.95, (2, 100))
    _, trace = fit(u, v, TAIL_CLAYTON, EmConfig(eps=10.0))
    assert trace.status == STATUS_CONVERGED
    assert len(trace.rows) == 2  # initialization plus exactly one iteration


def test_fit_stops_after_max_iters(tmp_path, monkeypatch):
    monkeypatch.setattr(emfit, "MAX_ITERS", 2)
    rng = np.random.default_rng(5)
    u, v = rng.uniform(0.05, 0.95, (2, 100))
    _, trace = fit(u, v, TAIL_CLAYTON, EmConfig(eps=1e-12))
    assert trace.status == STATUS_MAX_ITERS
    assert [row[0] for row in trace.rows] == [0, 1, 2]
    path = tmp_path / "em_trace.csv"
    write_traces_csv({(1, 1): trace}, str(path))
    rows = path.read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == [STATUS_MAX_ITERS] * 3


def test_fit_pure_gaussian_data_weights_gaussian_component():
    # the default eps=0.01 stops before the weight separates; parameter
    # recovery checks run the same EM to tighter convergence
    config = EmConfig(eps=1e-4)
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
    # NaN, and u = 1e-20, where the survival copula's 1 - u rounds to 1
    u = np.linspace(0.05, 0.95, 20)
    for bad, mode in ((np.nan, TAIL_CLAYTON), (np.nan, TAIL_CLAYTON_SURVIVAL),
                      (1e-20, TAIL_CLAYTON_SURVIVAL)):
        for call in (fit, lambda a, b, m: log_likelihood(a, b, 0.5, 1.0, 0.5, m)):
            with pytest.raises(ValueError, match=r"\(0, 1\)"):
                call(np.r_[bad, u[1:]], u, mode)
    fit(np.r_[1e-20, u[1:]], u, TAIL_CLAYTON)
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
    write_traces_csv({}, str(path))  # no channel pair: the header alone
    assert path.read_text().strip() == header
    # em_trace.csv byte for byte: the header, the float text and csv.writer's
    # \r\n row ending.
    trace = EmTrace(rows=[(0, -0.5, 0.7, 2.5, 0.4, 0.25),
                          (1, 0.1 + 0.2, -0.7, 1e-05, 1.0, 1.0)], status=STATUS_CONVERGED)
    write_traces_csv({(2, 1): trace}, str(path))
    assert path.read_bytes() == (
        b"c1,c2,iteration,log_likelihood,rho,theta,w,mean_gamma1,status\r\n"
        b"2,1,0,-0.5,0.7,2.5,0.4,0.25,converged\r\n"
        b"2,1,1,0.30000000000000004,-0.7,1e-05,1.0,1.0,converged\r\n")


def _two_pass_logpdf_and_gamma(u, v, rho, theta, w, tail_mode):
    """The mixture log density and the responsibilities each evaluated on
    their own, the reference for the shared one-pass evaluator: with
    a = log w + log f_gaussian and b = log(1-w) + log f_tail,
    log f = max(a, b) + log1p(e^-|a-b|) and gamma_1 = e^(a - log f)."""
    if w >= 1.0:
        return gaussian_logpdf(u, v, rho), np.ones_like(u)
    if w <= 0.0:
        return tail_logpdf(u, v, theta, tail_mode), np.zeros_like(u)

    def weighted():
        return (np.log(w) + gaussian_logpdf(u, v, rho),
                np.log1p(-w) + tail_logpdf(u, v, theta, tail_mode))

    a, b = weighted()
    logf = np.maximum(a, b) + np.log1p(np.exp(-np.abs(a - b)))
    return logf, np.exp(weighted()[0] - logf)


@pytest.mark.parametrize("tail_mode", [TAIL_CLAYTON, TAIL_CLAYTON_SURVIVAL])
def test_one_density_pass_keeps_fit_outputs_byte_identical(tmp_path, monkeypatch,
                                                          tail_mode):
    """fit's E-step on the per-fit transforms writes the bytes of a fit whose
    E-step evaluates the u/v densities of ``copula_oracle``, each component
    twice."""
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

    got = run("transforms")
    fitted = []  # the (u, v, tail_mode) of each fit
    transforms = emfit.fit_transforms

    def recording_transforms(u, v, mode):
        fitted.append((u, v, mode))
        return transforms(u, v, mode)

    def two_pass_e_step(scores, logs, rho, theta, w):
        return _two_pass_logpdf_and_gamma(*fitted[-1][:2], rho, theta, w, fitted[-1][2])

    monkeypatch.setattr(emfit, "fit_transforms", recording_transforms)
    monkeypatch.setattr(emfit, "mixture_logpdf_at", two_pass_e_step)
    want = run("two_pass")
    assert [mode for _, _, mode in fitted] == [tail_mode]
    assert got == want
    assert json.loads(got["model.json"])["pairs"]["1,1"]["tail_mode"] == tail_mode


def test_non_finite_log_likelihood_is_numerical_failure(tmp_path, monkeypatch, capsys):
    # No input inside the fitted box is known to overflow the densities, so
    # a -inf log density is injected to reach the check and exit code 3.
    def overflowing(scores, logs, rho, theta, w):
        n = len(scores[0])
        return np.full(n, -np.inf), np.full(n, 0.5)

    monkeypatch.setattr(emfit, "mixture_logpdf_at", overflowing)
    rng = np.random.default_rng(4)
    u, v = rng.uniform(0.05, 0.95, (2, 50))
    with pytest.raises(ArithmeticError, match="not finite"):
        fit(u, v, TAIL_CLAYTON)

    pairs = np.stack([u, v], axis=1)[:, :, None].astype(np.float32)
    save_raster(Raster.from_array(pairs), str(tmp_path / "pairs"))
    code = cli.main(["fit", "--pairs", str(tmp_path / "pairs"),
                     "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_NUMERICAL
    assert err.startswith("error:") and "not finite" in err and "Traceback" not in err
