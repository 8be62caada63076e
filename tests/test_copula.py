"""Copula densities, CDFs, the mixture model, and the seeded samplers."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copula_oracle import clayton_cdf, gaussian_cdf, mixture_cdf, sclayton_cdf
from copcd.copula import (
    ChannelPairModels,
    CopulaMixtureModel,
    clamp_pseudo_obs,
    clayton_density,
    clayton_logpdf,
    conditional_sample,
    gaussian_density,
    joint_logpdf_superpixel,
    decode_column,
    encode_column,
    load_model_set,
    log_expm1,
    mixture_density,
    sample_clayton_pairs,
    sample_gaussian_pairs,
    sample_mixture,
    sclayton_density,
)
from copcd.dependence import (
    ORIENT_NEGATED,
    TAIL_CLAYTON,
    TAIL_CLAYTON_SURVIVAL,
    empirical_cdf,
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
        assert np.array_equal(clayton_logpdf(u1, u2, theta), old)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(clayton_logpdf(u1, u2, 5000.0)).all()


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
    with pytest.raises(ValueError):
        gaussian_density(0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        gaussian_density(0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        clayton_density(0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        clayton_density(0.5, 0.5, 0.0)


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


def test_model_record_round_trip(tmp_path):
    model = CopulaMixtureModel(rho=0.7, theta=2.5, w=0.4,
                               tail_mode=TAIL_CLAYTON_SURVIVAL,
                               orientation=ORIENT_NEGATED, n_train=500)
    assert CopulaMixtureModel.from_record(model.to_record()) == model

    ms = ChannelPairModels(cx=1, cy=1, models={(1, 1): model},
                           ecdfs_x=(empirical_cdf(np.arange(10.0)),),
                           ecdfs_y=(empirical_cdf([3.5, -1.0, 3.5, 2e-310]),))
    path = tmp_path / "model.json"
    path.write_text(ms.to_json())
    loaded = load_model_set(str(path))
    assert loaded.models == {(1, 1): model}
    assert (loaded.cx, loaded.cy) == (1, 1)
    for a, b in zip(ms.ecdfs_x + ms.ecdfs_y, loaded.ecdfs_x + loaded.ecdfs_y):
        assert a.sorted.tobytes() == b.sorted.tobytes() and a.n == b.n
    assert loaded.to_json() == ms.to_json()


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
    with pytest.raises(ValueError):
        ChannelPairModels(cx=2, cy=1, models={(1, 1): model},
                          ecdfs_x=(), ecdfs_y=())


# --- pseudo-observation handling ---


def test_clamp_pseudo_obs():
    u = np.array([0.0, 0.001, 0.5, 1.0])
    out = clamp_pseudo_obs(u, 100)
    assert out.tolist() == [0.005, 0.005, 0.5, 0.995]


def test_joint_logpdf_clamps_out_of_range_features():
    rng = np.random.default_rng(5)
    train = rng.normal(size=100)
    ecdf = empirical_cdf(train)
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
    ecdf_x = empirical_cdf(train_x)
    ecdf_y = empirical_cdf(train_y)
    model = CopulaMixtureModel(rho=0.6, theta=2.0, w=0.3, n_train=50)
    h = np.array([0.1, -0.5, 1.2])
    got = joint_logpdf_superpixel(h, h, ecdf_x, ecdf_y, model)
    u = clamp_pseudo_obs(ecdf_x(h), 50)
    v = clamp_pseudo_obs(ecdf_y(h), 50)
    assert np.allclose(got, np.log(mixture_density(u, v, model)), atol=1e-12)


def test_joint_logpdf_negated_orientation_reflects_v():
    rng = np.random.default_rng(7)
    train = rng.normal(size=40)
    ecdf = empirical_cdf(train)
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


def test_normalization_spot_check():
    # full 27-configuration sweep lives in the acceptance suite
    model = CopulaMixtureModel(rho=0.5, theta=1.0, w=0.3, n_train=1)
    from quadrature import unit_square_integral

    assert unit_square_integral(lambda a, b: mixture_density(a, b, model)) == \
        pytest.approx(1.0, abs=1e-3)
