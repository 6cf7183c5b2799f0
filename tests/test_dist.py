import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from quantvar.dist import (
    _cholesky_with_jitter,
    _trunc_exp,
    derive_rng,
    draw_from_precision_system,
    draw_gig_half,
    draw_inverse_gamma,
    make_rng,
    update_horseshoe,
)


def test_derive_rng_reproducible_and_distinct():
    a1 = derive_rng(123, 0, 1, 2).standard_normal(8)
    a2 = derive_rng(123, 0, 1, 2).standard_normal(8)
    b = derive_rng(123, 0, 1, 3).standard_normal(8)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_gig_half_moments():
    rng = make_rng(101)
    n = 400_000
    x = draw_gig_half(np.ones(n), np.full(n, 4.0), rng)
    assert np.all(x > 0)
    # mean 0.75; E[X^2] = (a/b)(1 + 3/omega + 3/omega^2) = 0.8125 -> var 0.25
    se = x.std() / np.sqrt(n)
    assert abs(x.mean() - 0.75) < 4 * se
    assert x.var() == pytest.approx(0.25, rel=0.02)


def test_gig_half_tiny_a_matches_gamma_limit():
    # a -> 0 with p = 1/2 flows to Gamma(1/2, rate b/2); mean = 1/b * ... = p*2/b
    rng = make_rng(5)
    n = 200_000
    x = draw_gig_half(np.zeros(n), np.full(n, 2.0), rng)
    assert np.all(x > 0) and np.all(np.isfinite(x))
    se = x.std() / np.sqrt(n)
    assert abs(x.mean() - 0.5) < 4 * se


def test_gig_half_ks_against_scipy():
    rng = make_rng(2024)
    n = 100_000
    for a, b in [(1.0, 4.0), (0.3, 2.0), (5.0, 0.5)]:
        mine = draw_gig_half(np.full(n, a), np.full(n, b), rng)
        om = np.sqrt(a * b)
        ref = stats.geninvgauss.rvs(0.5, om, scale=np.sqrt(a / b), size=n, random_state=rng)
        ks = stats.ks_2samp(mine, ref).statistic
        assert ks < 0.01, (a, b, ks)


def test_draw_gig_half_validation():
    rng = make_rng(1)
    with pytest.raises(ValueError):
        draw_gig_half([1.0], [0.0], rng)
    with pytest.raises(ValueError):
        draw_gig_half([-1.0], [1.0], rng)


def test_inverse_gamma_moments():
    rng = make_rng(3)
    x = draw_inverse_gamma(5.0, 2.0, rng, size=200_000)
    assert np.all(x > 0)
    # mean scale/(shape-1) = 0.5; var scale^2/((s-1)^2 (s-2)) = 4/(16*3)
    assert x.mean() == pytest.approx(0.5, rel=0.02)
    assert x.var() == pytest.approx(4.0 / 48.0, rel=0.1)
    with pytest.raises(ValueError):
        draw_inverse_gamma(0.0, 1.0, rng)


def test_draw_from_precision_system_mean_matches_inverse():
    rng = make_rng(4)
    k = 6
    A = rng.standard_normal((k + 3, k))
    P = A.T @ A + np.eye(k)
    rhs = rng.standard_normal(k)
    _, mean = draw_from_precision_system(P, rhs, rng)
    np.testing.assert_allclose(mean, np.linalg.solve(P, rhs), atol=1e-10)
    draws = np.array([draw_from_precision_system(P, rhs, rng)[0] for _ in range(20_000)])
    np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.05)
    np.testing.assert_allclose(np.cov(draws.T), np.linalg.inv(P), atol=0.05)


def test_draw_from_precision_system_indefinite_raises_linalg_error():
    # eigenvalues 3 and -1: no jitter up to 1e-6 * mean(diag) makes it positive definite
    P = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        draw_from_precision_system(P, np.zeros(2), make_rng(0))


def test_inverse_gamma_vector_scale_matches_scalar_calls():
    scale = np.array([0.7, 2.5, 11.0, 0.04])
    vec = draw_inverse_gamma(6.5, scale, make_rng(17))
    rng = make_rng(17)
    one_by_one = np.array([draw_inverse_gamma(6.5, s, rng) for s in scale])
    np.testing.assert_array_equal(vec, one_by_one)
    rng = make_rng(17)
    np.testing.assert_array_equal(vec, [1.0 / rng.gamma(6.5, 1.0 / s) for s in scale])
    for bad in (np.array([1.0, 0.0, 2.0]), np.array([1.0, -3.0])):
        with pytest.raises(ValueError):
            draw_inverse_gamma(6.5, bad, make_rng(0))


def _reference_draw(P, rhs, z):
    """x = P^-1 rhs + L^-T z from numpy's dense solvers."""
    L = np.linalg.cholesky(P)
    mean = np.linalg.solve(P, rhs[..., None])[..., 0]
    return mean + np.linalg.solve(np.swapaxes(L, -1, -2), z[..., None])[..., 0], mean


@pytest.mark.parametrize("shape", [(5,), (2, 3)])
@pytest.mark.parametrize("k", [1, 4])
def test_draw_from_precision_system_batched_matches_single_calls(shape, k):
    rng = make_rng(8)
    A = rng.standard_normal(shape + (k + 2, k))
    P = np.swapaxes(A, -1, -2) @ A + np.eye(k)
    rhs = rng.standard_normal(shape + (k,))
    draw, mean = draw_from_precision_system(P, rhs, make_rng(21))
    assert draw.shape == mean.shape == rhs.shape
    # the stack consumes its normals in row order, like one call per member
    ref_rng = make_rng(21)
    single = [draw_from_precision_system(Pm, rm, ref_rng)[0]
              for Pm, rm in zip(P.reshape(-1, k, k), rhs.reshape(-1, k))]
    np.testing.assert_allclose(draw.reshape(-1, k), np.array(single), rtol=0, atol=1e-12)
    z = make_rng(21).standard_normal(rhs.shape)
    ref_draw, ref_mean = _reference_draw(P, rhs, z)
    np.testing.assert_allclose(mean, ref_mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(draw, ref_draw, rtol=0, atol=1e-12)


def test_draw_from_precision_system_jitters_only_the_singular_member():
    P = np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, 1.0], [1.0, 1.0]], [[3.0, -1.0], [-1.0, 2.0]]])
    rhs = np.array([[1.0, -1.0], [0.5, 0.5], [2.0, 0.0]])
    draw, mean = draw_from_precision_system(P, rhs, make_rng(5))
    ref_rng = make_rng(5)
    for i in range(3):
        d_i, m_i = draw_from_precision_system(P[i], rhs[i], ref_rng)
        # a positive-definite member is factored with no jitter, and the
        # singular one gets the jitter it gets alone
        np.testing.assert_array_equal(draw[i], d_i)
        np.testing.assert_array_equal(mean[i], m_i)
    assert np.all(np.isfinite(draw)) and np.all(np.isfinite(mean))


def test_draw_from_precision_system_solves_with_the_jittered_matrix():
    # rhs has a component along the null direction (1, -1), where the mean
    # is set by the jitter alone
    P = np.stack([np.eye(2), np.ones((2, 2))])
    rhs = np.array([[1.0, 2.0], [1.0, 0.0]])
    _, mean = draw_from_precision_system(P, rhs, make_rng(6))
    _, jitter = _cholesky_with_jitter(P[1])
    assert jitter > 0
    np.testing.assert_allclose(mean[1], np.linalg.solve(P[1] + jitter * np.eye(2), rhs[1]), rtol=1e-6)
    np.testing.assert_array_equal(mean[0], rhs[0])


def test_draw_from_precision_system_badly_scaled_matches_triangular_solves():
    # wide_var's shape: 8 rows of 49 coefficients, 200 observations, with a
    # prior precision diagonal spanning 1e-8..1e12, a spread the horseshoe can give
    rng = np.random.default_rng(3)
    k, T, n = 49, 200, 8
    X = rng.standard_normal((T, k))
    w = rng.uniform(0.1, 10.0, (n, T))
    prior = np.stack([rng.permutation(np.logspace(-8, 12, k)) for _ in range(n)])
    P = (X.T * w[:, None, :]) @ X + prior[:, :, None] * np.eye(k)
    rhs = rng.standard_normal((n, k))
    draw, mean = draw_from_precision_system(P, rhs, make_rng(7))
    ref_draw, ref_mean = _reference_draw(P, rhs, make_rng(7).standard_normal((n, k)))
    assert np.abs(draw - ref_draw).max() <= 1e-12 * np.abs(ref_draw).max()
    assert np.abs(mean - ref_mean).max() <= 1e-12 * np.abs(ref_mean).max()


def test_draw_from_precision_system_stack_with_indefinite_member_raises():
    P = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 2.0 * np.eye(2)])
    with pytest.raises(np.linalg.LinAlgError):
        draw_from_precision_system(P, np.zeros((3, 2)), make_rng(0))
    with pytest.raises(np.linalg.LinAlgError):
        draw_from_precision_system(np.array([[[1.0]], [[-2.0]]]), np.zeros((2, 1)), make_rng(0))


def test_trunc_exp_matches_scipy_truncated_exponential():
    rng = make_rng(31)
    n = 150_000
    for rate, ub in [(2.0, 1.5), (0.3, 4.0), (8.0, 0.2)]:
        d = _trunc_exp(np.full(n, rate), np.full(n, ub), rng.random(n))
        assert np.all(d > 0) and np.all(d <= ub)
        ks = stats.kstest(d, stats.truncexpon(b=rate * ub, scale=1 / rate).cdf).statistic
        assert ks < 0.01, (rate, ub, ks)


def test_trunc_exp_huge_rate_times_bound_does_not_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = _trunc_exp(np.array([1e200]), np.array([1e200]), np.array([0.5]))
    assert np.all(d > 0) and np.all(d <= 1e200)


def test_trunc_exp_tiny_rate_is_uniform():
    rng = make_rng(32)
    n = 100_000
    d = _trunc_exp(np.zeros(n), np.full(n, 3.0), rng.random(n))
    ks = stats.kstest(d, stats.uniform(scale=3.0).cdf).statistic
    assert ks < 0.01


def test_horseshoe_prior_gibbs_recovers_half_cauchy_medians():
    # alternating beta ~ N(0, psi^2 kappa^2) with the scale updates leaves
    # the joint prior invariant; half-Cauchy scales have median 1
    rng = make_rng(11)
    k = 3
    psi = np.ones(k)
    kap = 1.0
    psis, kaps = [], []
    for i in range(20_000):
        beta = rng.standard_normal(k) * psi * kap
        psi, kap = update_horseshoe(beta, psi, kap, rng)
        if i >= 1000:
            psis.append(psi[0])
            kaps.append(kap)
    assert 0.6 < np.median(psis) < 1.6
    assert 0.6 < np.median(kaps) < 1.6


def test_horseshoe_local_slice_kernel_targets_its_density():
    # with kappa held at 1 the local update is an MCMC kernel for
    # p(eta) ∝ exp(-beta^2 eta / 2) / (1 + eta); compare against the
    # numerically integrated cdf
    rng = make_rng(12)
    beta = np.array([0.8])
    r = beta[0] ** 2 / 2
    psi = np.ones(1)
    etas = []
    for i in range(60_000):
        psi, _ = update_horseshoe(beta, psi, 1.0, rng)
        etas.append(1.0 / psi[0] ** 2)
    etas = np.array(etas[2000:])
    grid = np.linspace(1e-9, np.quantile(etas, 0.9999) * 3, 200_000)
    pdf = np.exp(-r * grid) / (1 + grid)
    cdf = np.cumsum(pdf)
    cdf /= cdf[-1]
    ks = stats.kstest(etas, lambda x: np.interp(x, grid, cdf)).statistic
    assert ks < 0.02


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12),
    st.floats(min_value=1e-6, max_value=100),
    st.integers(min_value=0, max_value=10_000),
)
def test_horseshoe_update_always_valid(beta, kappa, seed):
    rng = make_rng(seed)
    beta = np.asarray(beta)
    psi = np.abs(rng.standard_normal(beta.size)) + 0.1
    psi_new, kappa_new = update_horseshoe(beta, psi, kappa, rng)
    assert psi_new.shape == beta.shape
    assert np.all(np.isfinite(psi_new)) and np.all(psi_new > 0)
    assert np.isfinite(kappa_new) and kappa_new > 0


def test_horseshoe_rejects_length_mismatch():
    with pytest.raises(ValueError):
        update_horseshoe(np.zeros(3), np.ones(2), 1.0, make_rng(0))


# Reference copies of the kernels' earlier formulas: the rewrites must keep
# both the random stream and every value bit for bit.


def _gig_half_reference(a, b, rng):
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    a_safe = np.maximum(a, 1e-300)
    nu = rng.standard_normal(a.shape) ** 2
    om = np.sqrt(a_safe * b)
    x_plus = 1.0 + (nu + np.sqrt(nu * nu + 4.0 * om * nu)) / (2.0 * om)
    x_minus = 1.0 / x_plus
    take_minus = rng.random(a.shape) < 1.0 / (1.0 + x_minus)
    return np.sqrt(a_safe / b) / np.where(take_minus, x_minus, x_plus)


def _trunc_exp_reference(rate, ub, u):
    r, ubb = np.broadcast_arrays(np.asarray(rate, dtype=float), np.asarray(ub, dtype=float))
    small = r * ubb < 1e-12
    with np.errstate(over="ignore"):
        tail = -np.expm1(-r * ubb)
    out = -np.log1p(-u * tail) / np.where(small, 1.0, r)
    return np.minimum(np.where(small, u * ubb, out), ubb)


def _horseshoe_reference(beta, psi, kappa, rng):
    tiny = 1e-300
    k = beta.size
    eta = 1.0 / np.maximum(psi, tiny) ** 2
    u = np.maximum(rng.random(k) * (1.0 / (1.0 + eta)), tiny)
    rate = beta**2 / (2.0 * max(kappa, tiny) ** 2)
    eta_new = _trunc_exp_reference(rate, (1.0 - u) / u, rng.random(k))
    psi_new = 1.0 / np.sqrt(np.maximum(eta_new, tiny))
    ug = max(rng.uniform(0.0, 1.0 / (1.0 + 1.0 / max(kappa, tiny) ** 2)), tiny)
    ub_g = (1.0 - ug) / ug
    shape_g = (k + 1) / 2.0
    rate_g = float(np.sum(beta**2 / np.maximum(psi_new, tiny) ** 2)) / 2.0
    v = rng.random()
    if rate_g * ub_g < 1e-12:
        eta_g_new = ub_g * v ** (1.0 / shape_g)
    else:
        cdf_ub = special.gammainc(shape_g, rate_g * ub_g)
        eta_g_new = min(special.gammaincinv(shape_g, v * cdf_ub) / rate_g, ub_g)
    return psi_new, float(1.0 / np.sqrt(max(eta_g_new, tiny)))


@pytest.mark.parametrize(
    "a, b",
    [
        (np.linspace(0.0, 9.0, 360).reshape(120, 3), np.linspace(0.1, 40.0, 360).reshape(120, 3)),
        (0.7, np.linspace(0.1, 40.0, 12)),
        (np.linspace(0.0, 9.0, 12).reshape(4, 3), np.array([2.0, 5.0, 0.3])),
        (1.5, 2.0),
    ],
)
def test_draw_gig_half_keeps_stream_and_values(a, b):
    mine = draw_gig_half(a, b, make_rng(50))
    ref = _gig_half_reference(a, b, make_rng(50))
    assert np.shape(mine) == ref.shape
    np.testing.assert_array_equal(mine, ref)


def test_update_horseshoe_keeps_stream_and_values():
    rng, ref_rng, beta_rng = make_rng(60), make_rng(60), make_rng(61)
    k = 21
    psi = ref_psi = np.ones(k)
    kappa = ref_kappa = 1.0
    for _ in range(500):
        # some exact zeros take the flat (rate ~ 0) branch of the local draw
        beta = beta_rng.standard_normal(k) * (beta_rng.random(k) < 0.8) * 3.0
        psi, kappa = update_horseshoe(beta, psi, kappa, rng)
        ref_psi, ref_kappa = _horseshoe_reference(beta, ref_psi, ref_kappa, ref_rng)
        np.testing.assert_array_equal(psi, ref_psi)
        assert kappa == ref_kappa


@pytest.mark.parametrize(
    "scale, size",
    [(2.0, 1000), (np.array([0.7, 2.5, 11.0]), None), (np.array([0.7, 2.5, 11.0]), (4, 3)), (3.0, None)],
)
def test_draw_inverse_gamma_keeps_stream_and_values(scale, size):
    mine = draw_inverse_gamma(4.5, scale, make_rng(70), size=size)
    ref = 1.0 / make_rng(70).gamma(4.5, 1.0 / np.asarray(scale, dtype=float), size=size)
    assert np.shape(mine) == np.shape(ref)
    np.testing.assert_array_equal(mine, ref)
