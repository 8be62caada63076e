"""Copula densities, CDFs, the mixture model, and the seeded samplers."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from copula_oracle import (
    clamp_pseudo_obs,
    clayton_cdf,
    clayton_density,
    gaussian_cdf,
    gaussian_density,
    mixture_cdf,
    mixture_density,
    sclayton_cdf,
    sclayton_density,
    sample_clayton_pairs,
    sample_gaussian_pairs,
)
from copcd.copula import (
    LOG_FLOOR,
    RHO_MAX,
    RHO_MIN,
    THETA_MAX,
    THETA_MIN,
    ChannelPairModels,
    CopulaMixtureModel,
    _clayton_conditional_inverse,
    clayton_logpdf_at,
    conditional_sample,
    joint_logpdf_superpixel,
    decode_column,
    encode_column,
    gaussian_logpdf_at,
    load_model_set,
    log_expm1,
    mixture_logpdf_at,
    normal_scores,
    pseudo_obs,
    sample_mixture,
    tail_logs,
)
from copcd.dependence import (
    ORIENT_NEGATED,
    TAIL_CLAYTON,
    TAIL_CLAYTON_SURVIVAL,
    EmpiricalCdf,
    kendall_tau,
)

# --- densities: hand values ---


def test_gaussian_density_independence():
    assert gaussian_density(0.5, 0.5, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_density_hand_value():
    # at the median point both normal scores are 0: density = 1/sqrt(1-rho^2)
    assert gaussian_density(0.5, 0.5, 0.8) == pytest.approx(1 / np.sqrt(0.36), abs=1e-9)


def test_gaussian_density_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(100):
        u1, u2 = rng.uniform(0.01, 0.99, 2)
        rho = rng.uniform(-0.95, 0.95)
        assert gaussian_density(u1, u2, rho) == pytest.approx(
            gaussian_density(u2, u1, rho), rel=1e-12)


def test_clayton_density_hand_value():
    assert clayton_density(0.5, 0.5, 1.0) == pytest.approx(32 / 27, abs=1e-9)


def test_clayton_density_independence_limit():
    assert clayton_density(0.3, 0.7, 1e-6) == pytest.approx(1.0, abs=1e-4)


def test_clayton_density_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(100):
        u1, u2 = rng.uniform(0.01, 0.99, 2)
        theta = rng.uniform(0.1, 10)
        assert clayton_density(u1, u2, theta) == clayton_density(u2, u1, theta)


def test_log_expm1_switches_form_only_where_expm1_overflows():
    x = np.array([1e-300, 0.7, 30.0, 709.0, 709.78, 709.79, 800.0, 1e300, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_expm1(x)
        with np.errstate(over="ignore"):
            s = np.expm1(x)
    fits = np.isfinite(s)
    assert fits.tolist() == [True] * 5 + [False] * 4
    assert np.array_equal(got[fits], np.log(s[fits]))
    assert np.array_equal(got[~fits], x[~fits] + np.log(-np.expm1(-x[~fits])))
    assert np.isfinite(got[:-1]).all() and got[-1] == np.inf


def test_clayton_logpdf_keeps_its_bits_and_survives_large_theta():
    rng = np.random.default_rng(2)
    u1, u2 = rng.uniform(0.001, 0.999, (2, 500))
    l1, l2 = np.log(u1), np.log(u2)
    for theta in (0.05, 2.0, 20.0):
        old = (np.log1p(theta) + (-1 - theta) * (l1 + l2) + (-1 / theta - 2)
               * np.log(np.expm1(np.logaddexp(-theta * l1, -theta * l2))))
        assert np.array_equal(clayton_logpdf_at(tail_logs(u1, u2, TAIL_CLAYTON), theta), old)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(clayton_logpdf_at(tail_logs(u1, u2, TAIL_CLAYTON), 5000.0)).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_transform_formulas_equal_the_public_densities_bit_for_bit(seed):
    """The formulas on normal_scores and tail_logs, and the mixture that EM
    and detection evaluate through them, give the bytes of the densities'
    inline expressions, on (u, v) clamped at delta next to 0 and 1, with rho
    and theta at both ends of the box EM fits in and w at 0, 0.4 and 1."""
    n_train = 500
    u, v = clamp_pseudo_obs(np.random.default_rng(seed).uniform(-0.01, 1.01, (2, 3000)),
                            n_train)
    delta = 1 / (2 * n_train)
    assert {u.min(), v.min(), u.max(), v.max()} == {delta, 1 - delta}

    def same_bytes(*arrays):
        return len({a.tobytes() for a in arrays}) == 1

    def inline_mixture(lg, lc, w):
        if w == 1.0:
            return lg, np.ones_like(lg)
        if w == 0.0:
            return lc, np.zeros_like(lc)
        fg = w * np.exp(lg)
        fc = (1 - w) * np.exp(lc)
        return (np.logaddexp(np.log(w) + lg, np.log1p(-w) + lc),
                np.clip(fg / np.maximum(fg + fc, LOG_FLOOR), 0.0, 1.0))

    scores = normal_scores(u, v)
    x1, x2 = ndtri(u), ndtri(v)
    gaussian = {}
    for rho in (RHO_MIN, 0.37, RHO_MAX):
        r2 = rho * rho
        gaussian[rho] = -0.5 * np.log1p(-r2) - (r2 * (x1 * x1 + x2 * x2)
                                                - 2 * rho * x1 * x2) / (2 * (1 - r2))
        assert same_bytes(gaussian_logpdf_at(scores, rho), gaussian[rho])
    for mode, (a, b) in ((TAIL_CLAYTON, (u, v)), (TAIL_CLAYTON_SURVIVAL, (1.0 - u, 1.0 - v))):
        logs = tail_logs(u, v, mode)
        l1, l2 = np.log(a), np.log(b)
        for theta in (THETA_MIN, 2.0, THETA_MAX):
            tail = (np.log1p(theta) + (-1 - theta) * (l1 + l2) + (-1 / theta - 2)
                    * log_expm1(np.logaddexp(-theta * l1, -theta * l2)))
            assert same_bytes(clayton_logpdf_at(logs, theta), tail)
            for (rho, lg), w in itertools.product(gaussian.items(), (0.0, 0.4, 1.0)):
                got = mixture_logpdf_at(scores, logs, rho, theta, w)
                want = inline_mixture(lg, tail, w)
                assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])


def test_sclayton_is_reflection():
    assert sclayton_density(0.5, 0.5, 1.0) == pytest.approx(32 / 27, abs=1e-9)
    rng = np.random.default_rng(2)
    for _ in range(100):
        u1, u2 = rng.uniform(0.01, 0.99, 2)
        theta = rng.uniform(0.1, 10)
        assert sclayton_density(u1, u2, theta) == clayton_density(1 - u1, 1 - u2, theta)


def test_sclayton_upper_tail_mass():
    assert sclayton_density(0.95, 0.95, 2.0) > sclayton_density(0.05, 0.05, 2.0)


def test_density_boundary_and_parameter_errors():
    for u1, u2 in ((0.0, 0.5), (0.5, 1.0), (np.nan, 0.5), (0.5, np.nan)):
        for density, param in ((gaussian_density, 0.5), (clayton_density, 1.0),
                               (sclayton_density, 1.0)):
            with pytest.raises(ValueError, match=r"\(0, 1\)"):
                density(u1, u2, param)
    with pytest.raises(ValueError):
        gaussian_density(0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        clayton_density(0.5, 0.5, 0.0)
    # u = 1e-20 lies inside (0, 1), but 1 - u rounds to 1: the survival
    # copula's own argument is on the boundary.
    assert np.isfinite(clayton_density(1e-20, 0.5, 1.0))
    model = CopulaMixtureModel(rho=0.5, theta=1.0, w=0.4,
                               tail_mode=TAIL_CLAYTON_SURVIVAL, n_train=1)
    for density in (lambda a, b: sclayton_density(a, b, 1.0),
                    lambda a, b: mixture_density(a, b, model)):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            density(1e-20, 0.5)
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            density(0.5, 1e-20)


# --- CDFs ---


def test_cdf_boundary_conditions():
    for u in (0.2, 0.7):
        assert gaussian_cdf(u, 1.0, 0.5) == pytest.approx(u, abs=1e-6)
        assert gaussian_cdf(u, 0.0, 0.5) == 0.0
        assert clayton_cdf(u, 1.0, 2.0) == pytest.approx(u, abs=1e-12)
        assert clayton_cdf(u, 0.0, 2.0) == 0.0
        assert sclayton_cdf(u, 1.0, 2.0) == pytest.approx(u, abs=1e-12)
        assert sclayton_cdf(u, 0.0, 2.0) == 0.0


def test_clayton_cdf_hand_value():
    assert clayton_cdf(0.5, 0.5, 1.0) == pytest.approx(1 / 3, abs=1e-12)


def test_gaussian_cdf_independence():
    assert gaussian_cdf(0.5, 0.5, 0.0) == pytest.approx(0.25, abs=1e-6)


def _central_difference(cdf, u1, u2, h=1e-4):
    return (
        cdf(u1 + h, u2 + h) - cdf(u1 - h, u2 + h)
        - cdf(u1 + h, u2 - h) + cdf(u1 - h, u2 - h)
    ) / (4 * h * h)


@pytest.mark.parametrize(
    "cdf,density,param",
    [
        (gaussian_cdf, gaussian_density, 0.5),
        (clayton_cdf, clayton_density, 2.0),
        (sclayton_cdf, sclayton_density, 2.0),
    ],
)
def test_density_is_cdf_mixed_derivative(cdf, density, param):
    rng = np.random.default_rng(3)
    for _ in range(50):
        u1, u2 = rng.uniform(0.1, 0.9, 2)
        numeric = _central_difference(lambda a, b: cdf(a, b, param), u1, u2)
        exact = density(u1, u2, param)
        assert numeric == pytest.approx(exact, rel=1e-2)


# --- mixture ---


def test_mixture_hand_value():
    model = CopulaMixtureModel(rho=0.8, theta=1.0, w=0.3, tail_mode=TAIL_CLAYTON,
                               n_train=1)
    expected = 0.3 * (1 / np.sqrt(0.36)) + 0.7 * (32 / 27)
    assert mixture_density(0.5, 0.5, model) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(1.329630, abs=1e-6)


def test_mixture_pure_components_are_exact():
    gauss = CopulaMixtureModel(rho=0.6, theta=1.0, w=1.0, n_train=1)
    clay = CopulaMixtureModel(rho=0.6, theta=2.0, w=0.0, n_train=1)
    rng = np.random.default_rng(4)
    u1, u2 = rng.uniform(0.05, 0.95, 2)
    assert mixture_density(u1, u2, gauss) == gaussian_density(u1, u2, 0.6)
    assert mixture_density(u1, u2, clay) == clayton_density(u1, u2, 2.0)


def test_mixture_cdf_combines_components():
    model = CopulaMixtureModel(rho=0.5, theta=2.0, w=0.4,
                               tail_mode=TAIL_CLAYTON_SURVIVAL, n_train=1)
    expected = 0.4 * gaussian_cdf(0.3, 0.6, 0.5) + 0.6 * sclayton_cdf(0.3, 0.6, 2.0)
    assert mixture_cdf(0.3, 0.6, model) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(0.005, 0.995), st.floats(0.005, 0.995),
    st.floats(0.0, 0.99), st.floats(0.05, 20.0), st.floats(0.0, 1.0),
    st.sampled_from([TAIL_CLAYTON, TAIL_CLAYTON_SURVIVAL]),
)
def test_mixture_density_finite_and_nonnegative(u1, u2, rho, theta, w, tail):
    model = CopulaMixtureModel(rho=rho, theta=theta, w=w, tail_mode=tail, n_train=100)
    val = mixture_density(u1, u2, model)
    assert np.isfinite(val)
    assert val >= 0


def test_model_validation():
    with pytest.raises(ValueError):
        CopulaMixtureModel(rho=1.0, theta=1.0, w=0.5)
    with pytest.raises(ValueError):
        CopulaMixtureModel(rho=0.5, theta=0.0, w=0.5)
    with pytest.raises(ValueError):
        CopulaMixtureModel(rho=0.5, theta=1.0, w=1.5)
    with pytest.raises(ValueError):
        CopulaMixtureModel(rho=0.5, theta=1.0, w=0.5, tail_mode="gumbel")
    for theta in (float("nan"), float("inf"), 1e308, 1e17):
        with pytest.raises(ValueError, match="theta"):
            CopulaMixtureModel(rho=0.5, theta=theta, w=0.5)
    assert CopulaMixtureModel(rho=0.5, theta=1e16, w=0.5).theta == 1e16


def test_model_record_round_trip(tmp_path):
    model = CopulaMixtureModel(rho=0.7, theta=2.5, w=0.4,
                               tail_mode=TAIL_CLAYTON_SURVIVAL,
                               orientation=ORIENT_NEGATED, n_train=10)

    ms = ChannelPairModels(models={(1, 1): model},
                           ecdfs_x=(EmpiricalCdf(np.arange(10.0)),),
                           ecdfs_y=(EmpiricalCdf([3.5, -1.0, 3.5, 2e-310, 0.0, -0.0,
                                                   1e308, -7.25, 3.5, 1.0]),))
    path = tmp_path / "model.json"
    path.write_text(ms.to_json())
    loaded = load_model_set(str(path))
    assert loaded.models == {(1, 1): model}
    assert (loaded.cx, loaded.cy) == (1, 1)
    for a, b in zip(ms.ecdfs_x + ms.ecdfs_y, loaded.ecdfs_x + loaded.ecdfs_y):
        assert a.sorted.tobytes() == b.sorted.tobytes() and a.n == b.n
    assert loaded.to_json() == ms.to_json()


def test_model_json_pair_record_text():
    # One pair record of model.json, byte for byte: every field, in field order.
    model = CopulaMixtureModel(rho=0.7, theta=2.5, w=0.4,
                               tail_mode=TAIL_CLAYTON_SURVIVAL,
                               orientation=ORIENT_NEGATED, n_train=10)
    ecdf = EmpiricalCdf(np.arange(10.0))
    ms = ChannelPairModels(models={(1, 1): model}, ecdfs_x=(ecdf,), ecdfs_y=(ecdf,))
    assert ms.to_json().startswith(
        '{\n  "version": 2,\n  "cx": 1,\n  "cy": 1,\n  "pairs": {\n    "1,1": {\n'
        '      "rho": 0.7,\n      "theta": 2.5,\n      "w": 0.4,\n'
        '      "tail_mode": "clayton_survival",\n      "orientation": "negated",\n'
        '      "n_train": 10\n    }\n  },\n  "x": [\n')


_COLUMN_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                     1e308, -1e308, 1.0]),
)


@settings(max_examples=150, deadline=None)
@given(values=st.lists(_COLUMN_VALUES, min_size=1, max_size=60))
def test_column_encoding_round_trips_exactly(values):
    column = np.sort(np.array(values + values[: len(values) // 2]))  # with ties
    back = decode_column(encode_column(column))
    assert back.dtype == np.float64 and back.shape == column.shape
    assert (back == column).all()
    assert (np.signbit(back) == np.signbit(column)).all()
    assert back.tobytes() == column.tobytes()


def test_channel_pair_models_requires_full_grid():
    model = CopulaMixtureModel(rho=0.5, theta=1.0, w=0.5, n_train=10)
    ecdf = EmpiricalCdf(np.arange(10.0))
    with pytest.raises(ValueError):
        ChannelPairModels(models={(1, 1): model}, ecdfs_x=(), ecdfs_y=())
    # cx and cy are the ECDF counts, so two X channels need a 2 x 1 grid.
    with pytest.raises(ValueError, match="2 x 1"):
        ChannelPairModels(models={(1, 1): model}, ecdfs_x=(ecdf, ecdf), ecdfs_y=(ecdf,))


# --- pseudo-observation handling ---


def test_clamp_pseudo_obs():
    # A negated pair is clamped after its reflection.
    h = np.array([0.0, 0.001, 0.5, 1.0])
    u, v = pseudo_obs(h, h, False, 100)
    assert u.tolist() == v.tolist() == [0.005, 0.005, 0.5, 0.995]
    u, v = pseudo_obs(h, h, True, 100)
    assert u.tolist() == [0.005, 0.005, 0.5, 0.995]
    assert v.tolist() == [0.995, 0.995, 0.5, 0.005]


def test_joint_logpdf_clamps_out_of_range_features():
    rng = np.random.default_rng(5)
    train = rng.normal(size=100)
    ecdf = EmpiricalCdf(train)
    model = CopulaMixtureModel(rho=0.8, theta=1.0, w=0.5, n_train=100)
    # a feature above every training sample hits pseudo-observation 1 - delta
    val = joint_logpdf_superpixel(train.max() + 10, train.max() + 10,
                                  ecdf, ecdf, model)
    assert np.isfinite(val)
    expected = np.log(mixture_density(0.995, 0.995, model))
    assert val == pytest.approx(expected, abs=1e-12)


def test_joint_logpdf_matches_direct_composition():
    rng = np.random.default_rng(6)
    train_x = rng.normal(size=50)
    train_y = rng.normal(size=50)
    ecdf_x = EmpiricalCdf(train_x)
    ecdf_y = EmpiricalCdf(train_y)
    model = CopulaMixtureModel(rho=0.6, theta=2.0, w=0.3, n_train=50)
    h = np.array([0.1, -0.5, 1.2])
    got = joint_logpdf_superpixel(h, h, ecdf_x, ecdf_y, model)
    u = clamp_pseudo_obs(ecdf_x(h), 50)
    v = clamp_pseudo_obs(ecdf_y(h), 50)
    assert np.allclose(got, np.log(mixture_density(u, v, model)), atol=1e-12)


def test_joint_logpdf_negated_orientation_reflects_v():
    rng = np.random.default_rng(7)
    train = rng.normal(size=40)
    ecdf = EmpiricalCdf(train)
    base = CopulaMixtureModel(rho=0.6, theta=2.0, w=0.3, n_train=40)
    negated = CopulaMixtureModel(rho=0.6, theta=2.0, w=0.3,
                                 orientation=ORIENT_NEGATED, n_train=40)
    h = np.array([0.2, -0.3])
    u = clamp_pseudo_obs(ecdf(h), 40)
    v = clamp_pseudo_obs(1.0 - ecdf(h), 40)
    got = joint_logpdf_superpixel(h, h, ecdf, ecdf, negated)
    assert np.allclose(got, np.log(mixture_density(u, v, base)), atol=1e-12)


# --- samplers ---


def test_gaussian_sampler_tau_identity():
    rng = np.random.default_rng(8)
    u, v = sample_gaussian_pairs(0.8, 4000, rng)
    expected = 2 / np.pi * np.arcsin(0.8)
    assert kendall_tau(u, v) == pytest.approx(expected, abs=0.05)


def test_clayton_sampler_tau_identity():
    rng = np.random.default_rng(9)
    u, v = sample_clayton_pairs(2.0, 4000, rng)
    assert kendall_tau(u, v) == pytest.approx(2 / (2 + 2), abs=0.05)


def test_clayton_sampler_small_theta_is_near_independent():
    rng = np.random.default_rng(10)
    u, v = sample_clayton_pairs(1e-4, 4000, rng)
    assert abs(kendall_tau(u, v)) < 0.05
    assert np.isfinite(v).all()


def test_sample_mixture_deterministic_and_in_unit_square():
    model = CopulaMixtureModel(rho=0.8, theta=2.0, w=0.5, n_train=1)
    u1, v1 = sample_mixture(model, 500, seed=11)
    u2, v2 = sample_mixture(model, 500, seed=11)
    assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
    assert ((u1 > 0) & (u1 < 1) & (v1 > 0) & (v1 < 1)).all()


def test_sample_mixture_survival_reflects_tails():
    model = CopulaMixtureModel(rho=0.8, theta=5.0, w=0.0,
                               tail_mode=TAIL_CLAYTON_SURVIVAL, n_train=1)
    u, v = sample_mixture(model, 5000, seed=12)
    from copcd.dependence import tail_dependence

    lower, upper = tail_dependence(u, v)
    assert upper > lower


def test_conditional_sample_matches_joint_law():
    model = CopulaMixtureModel(rho=0.8, theta=2.0, w=0.6, n_train=1)
    rng = np.random.default_rng(13)
    u = rng.random(4000)
    v = conditional_sample(model, u, rng)
    assert ((v > 0) & (v < 1)).all()
    # v marginal stays uniform
    grid = np.linspace(0, 1, 21)
    ecdf_vals = np.searchsorted(np.sort(v), grid, side="right") / len(v)
    assert np.abs(ecdf_vals - grid).max() < 0.03
    # dependence strength matches i.i.d. joint draws from the same model
    tau_cond = kendall_tau(u, v)
    uj, vj = sample_mixture(model, 4000, seed=14)
    assert tau_cond == pytest.approx(kendall_tau(uj, vj), abs=0.05)


def test_conditional_sample_survival_branch():
    model = CopulaMixtureModel(rho=0.8, theta=5.0, w=0.0,
                               tail_mode=TAIL_CLAYTON_SURVIVAL, n_train=1)
    rng = np.random.default_rng(15)
    u = rng.random(5000)
    v = conditional_sample(model, u, rng)
    from copcd.dependence import tail_dependence

    lower, upper = tail_dependence(u, v)
    assert upper > lower


@pytest.mark.parametrize("tail_mode", [TAIL_CLAYTON, TAIL_CLAYTON_SURVIVAL])
def test_conditional_sample_keeps_its_tau_at_large_theta(tail_mode):
    # At theta = 500, u^-theta overflows for u below about 0.24; those draws
    # used to collapse onto the clip bound.
    model = CopulaMixtureModel(rho=0.5, theta=500.0, w=0.0, tail_mode=tail_mode,
                               n_train=1)
    rng = np.random.default_rng(16)
    u = rng.random(20000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = conditional_sample(model, u, rng)
    assert ((v > np.finfo(np.float64).tiny) & (v < 1 - 1e-16)).all()
    assert kendall_tau(u, v) == pytest.approx(500 / 502, abs=0.005)


@pytest.mark.parametrize("theta", [2.0, 1e-4])
def test_clayton_conditional_inverse_is_the_direct_form_where_that_is_finite(theta):
    u, p = np.random.default_rng(17).random((2, 100000))
    direct = np.exp((-1.0 / theta) * np.log1p(
        np.exp(-theta * np.log(u)) * np.expm1(-theta / (1 + theta) * np.log(p))))
    assert _clayton_conditional_inverse(u, p, theta).tobytes() == direct.tobytes()


def test_normalization_spot_check():
    # full 27-configuration sweep lives in the acceptance suite
    model = CopulaMixtureModel(rho=0.5, theta=1.0, w=0.3, n_train=1)
    from quadrature import unit_square_integral

    assert unit_square_integral(lambda a, b: mixture_density(a, b, model)) == \
        pytest.approx(1.0, abs=1e-3)
