"""Kendall's tau, empirical CDFs, and tail-dependence estimates."""

import numpy as np
import pytest
import dependence_oracle as oracle
from copula_oracle import sample_clayton_pairs
from hypothesis import given, settings
from hypothesis import strategies as st

from copcd.copula import pseudo_obs
from copcd.dependence import (
    ORIENT_IDENTITY,
    ORIENT_NEGATED,
    TAIL_CLAYTON,
    TAIL_CLAYTON_SURVIVAL,
    EmpiricalCdf,
    _strict_inversions,
    kendall_tau,
    tail_dependence,
)
from copcd.emfit import EmConfig
from copcd.pipeline import fit_model_set


def test_tau_concordant():
    assert kendall_tau([1, 2, 3], [1, 2, 3]) == 1.0


def test_tau_discordant():
    assert kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0


def test_tau_hand_case():
    assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2 / 3)


def test_tau_ties_contribute_zero():
    # (1,1) vs (2,1): tied y -> 0 numerator; denominator still counts the pair
    assert kendall_tau([1, 2], [1, 1]) == 0.0
    assert kendall_tau([1, 2, 3], [1, 1, 2]) == pytest.approx(4 / 6)


def test_tau_input_validation():
    with pytest.raises(ValueError):
        kendall_tau([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        kendall_tau([1], [1])


def test_tau_matches_brute_force_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        x = rng.integers(0, 5, n).astype(float)  # heavy ties
        y = rng.integers(0, 5, n).astype(float)
        assert kendall_tau(x, y) == oracle.kendall_tau(x, y)


def test_tau_crosses_chunk_boundary():
    # many merge levels, and more rows than one oracle block
    rng = np.random.default_rng(1)
    x = rng.permutation(600).astype(float)
    y = rng.permutation(600).astype(float)
    assert kendall_tau(x, y) == oracle.kendall_tau(x, y)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 400),
       st.sampled_from(["continuous", "ties_x", "ties_y", "ties_both", "constant",
                        "signed_zeros"]),
       st.booleans())
def test_tau_matches_oracle_exactly(seed, n, kind, reverse):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = 0.5 * x + rng.normal(size=n)
    levels = int(rng.integers(1, 6))
    if kind in ("ties_x", "ties_both"):
        x = rng.integers(0, levels, n).astype(float)
    if kind in ("ties_y", "ties_both"):
        y = rng.integers(0, levels, n).astype(float)
    if kind == "constant":
        x = np.full(n, 3.0)
    if kind == "signed_zeros":  # -0.0 == 0.0, so they tie
        x = rng.choice([-0.0, 0.0, 1.0], n)
        y = rng.choice([-0.0, 0.0, -1.0], n)
    if reverse:
        x, y = x[::-1], y[::-1]
    assert kendall_tau(x, y) == oracle.kendall_tau(x, y)
    assert kendall_tau(y, x) == oracle.kendall_tau(y, x)


def _ranks_of_kind(rng, n, kind):
    if kind == "distinct":
        return rng.permutation(n)
    if kind == "ties":
        return rng.integers(0, max(1, n // 50), n)
    return np.arange(n)[::-1].copy()  # reversed: every pair an inversion


@pytest.mark.parametrize("n", [2 ** 15, 2 ** 15 + 1, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1,
                               131_073])
@pytest.mark.parametrize("kind", ["distinct", "ties", "reversed"])
def test_strict_inversions_match_the_merge_oracle_at_large_n(n, kind):
    # Sizes around a power of two leave a partial last block at every level;
    # the keys are int32 up to n = 2**15 and int64 above.
    r = _ranks_of_kind(np.random.default_rng(n), n, kind)
    assert _strict_inversions(r) == oracle.strict_inversions(r)
    if kind == "reversed":
        assert _strict_inversions(r) == n * (n - 1) // 2


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 2000),
       st.sampled_from(["distinct", "ties", "reversed"]))
def test_strict_inversions_match_the_merge_oracle(seed, n, kind):
    r = _ranks_of_kind(np.random.default_rng(seed), n, kind)
    assert _strict_inversions(r) == oracle.strict_inversions(r)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 300))
def test_tau_of_dense_ranks_is_tau_of_the_values(seed, n):
    # Integer ranks in [0, n) are counted, not sorted, and give the same tau.
    rng = np.random.default_rng(seed)
    x = rng.choice([-0.0, 0.0, 1.0, 2e-310, 3.5], n)
    y = 0.5 * rng.normal(size=n).round(1) - x
    rx = np.unique(x, return_inverse=True)[1]
    ry = np.unique(y, return_inverse=True)[1]
    assert kendall_tau(rx, ry) == kendall_tau(x, y) == oracle.kendall_tau(x, y)


def test_tau_tiny_values_are_not_lost_to_underflow():
    # (x_i - x_j) * (y_i - y_j) underflows to 0 here; the signs do not.
    x = [1e-200, 2e-200, 3e-200]
    assert kendall_tau(x, x) == 1.0
    assert oracle.kendall_tau(x, x) == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tau_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="x and y must be finite"):
        kendall_tau([1.0, bad, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="x and y must be finite"):
        kendall_tau([1.0, 2.0, 3.0], [bad, 2.0, 3.0])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(3, 40))
def test_tau_symmetry_and_antisymmetry(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.permutation(n).astype(float)
    y = rng.permutation(n).astype(float)
    assert kendall_tau(x, y) == kendall_tau(y, x)
    assert kendall_tau(x, -y) == -kendall_tau(x, y)


def test_ecdf_examples():
    f = EmpiricalCdf([5.0])
    assert f(5.0) == 1.0
    g = EmpiricalCdf([1.0, 2.0, 3.0, 4.0])
    assert g(2.5) == 0.5
    assert g(0.0) == 0.0
    assert g(4.0) == 1.0


def test_ecdf_inclusive_at_sample():
    # F(h) counts samples <= h, so each sample maps to at least 1/N
    f = EmpiricalCdf([1.0, 2.0, 2.0, 3.0])
    assert f(1.0) == 0.25
    assert f(2.0) == 0.75


def test_ecdf_validation():
    with pytest.raises(ValueError):
        EmpiricalCdf([])
    with pytest.raises(ValueError):
        EmpiricalCdf([1.0, np.inf])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
       st.lists(st.floats(-1e7, 1e7), min_size=1, max_size=50))
def test_ecdf_range_and_monotonicity(samples, queries):
    f = EmpiricalCdf(samples)
    q = np.sort(np.asarray(queries))
    vals = f(q)
    vals = np.atleast_1d(vals)
    assert ((vals >= 0) & (vals <= 1)).all()
    assert (np.diff(vals) >= 0).all()
    n = len(samples)
    assert np.allclose(vals * n, np.round(vals * n))  # range is {0, 1/N, ..., 1}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(3, 40))
def test_pseudo_obs_preserves_absolute_tau(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.permutation(n).astype(float)
    y = rng.permutation(n).astype(float)
    tau = kendall_tau(x, y)
    _, v = pseudo_obs(EmpiricalCdf(x)(x), EmpiricalCdf(y)(y), tau < 0, n)
    assert kendall_tau(x, v) == abs(tau)


def test_tail_dependence_comonotone():
    n = 100
    u = np.arange(1, n + 1) / n
    assert tail_dependence(u, u) == (1.0, 1.0)


def test_tail_dependence_independent_uniforms():
    rng = np.random.default_rng(2)
    n = 10000
    u, v = rng.random(n), rng.random(n)
    lower, upper = tail_dependence(u, v)
    k = int(np.sqrt(n))
    t = k / n
    # corner count is Binomial(n, t^2); eta = count/k has mean ~ t
    se = np.sqrt(n * t * t * (1 - t * t)) / k
    assert abs(lower - t) <= 3 * se
    assert abs(upper - t) <= 3 * se


def test_tail_dependence_validation():
    with pytest.raises(ValueError):
        tail_dependence([0.1, 0.2], [0.1, 0.2])
    with pytest.raises(ValueError):
        tail_dependence([0.1, 0.2, 0.3, 1.4], [0.1, 0.2, 0.3, 0.4])
    nan_row = [np.nan, 0.1, 0.2, 0.3, 0.9]
    for u, v in ((nan_row, [0.1, 0.2, 0.3, 0.4, 0.9]), ([0.1, 0.2, 0.3, 0.4, 0.9], nan_row)):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            tail_dependence(u, v)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(4, 200))
def test_tail_dependence_in_unit_interval(seed, n):
    rng = np.random.default_rng(seed)
    lower, upper = tail_dependence(rng.random(n), rng.random(n))
    assert 0.0 <= lower <= 1.0
    assert 0.0 <= upper <= 1.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_tail_dependence_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=50)
    y = rng.normal(size=50)
    u = EmpiricalCdf(x)(x)
    v = EmpiricalCdf(y)(y)
    xt = np.exp(3 * x)  # strictly increasing transform of the raw samples
    yt = np.arctan(y)
    ut = EmpiricalCdf(xt)(xt)
    vt = EmpiricalCdf(yt)(yt)
    assert tail_dependence(u, v) == tail_dependence(ut, vt)


def _fit(u, v):
    return fit_model_set(u[:, None], v[:, None], EmConfig())[0].models[1, 1]


def _clayton_pairs():
    return sample_clayton_pairs(2.0, 3000, np.random.default_rng(3))


def test_profile_from_clayton_samples_selects_clayton():
    u, v = _clayton_pairs()
    assert kendall_tau(u, v) > 0.3
    model = _fit(u, v)
    assert model.tail_mode == TAIL_CLAYTON
    assert model.orientation == ORIENT_IDENTITY


def test_reflected_clayton_samples_select_clayton_survival():
    u, v = _clayton_pairs()
    model = _fit(1.0 - u, 1.0 - v)
    assert model.tail_mode == TAIL_CLAYTON_SURVIVAL
    assert model.orientation == ORIENT_IDENTITY


def test_negative_association_reflects_v_before_the_tail_choice():
    # (u, 1 - v) is negatively associated; reflecting v restores the
    # lower-tail Clayton dependence.
    u, v = _clayton_pairs()
    model = _fit(u, 1.0 - v)
    assert model.orientation == ORIENT_NEGATED
    assert model.tail_mode == TAIL_CLAYTON
