import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from quantvar.dist import (
    _cholesky_with_jitter,
    derive_rng,
    draw_from_precision_system,
    draw_gig_half,
    draw_inverse_gamma,
    update_horseshoe,
)


def test_derive_rng_reproducible_and_distinct():
    a1 = derive_rng(123, 0, 1, 2).standard_normal(8)
    a2 = derive_rng(123, 0, 1, 2).standard_normal(8)
    b = derive_rng(123, 0, 1, 3).standard_normal(8)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_gig_half_moments():
    rng = derive_rng(101)
    n = 400_000
    x = draw_gig_half(np.ones(n), np.full(n, 4.0), rng)
    assert np.all(x > 0)
    # mean 0.75; E[X^2] = (a/b)(1 + 3/omega + 3/omega^2) = 0.8125 -> var 0.25
    se = x.std() / np.sqrt(n)
    assert abs(x.mean() - 0.75) < 4 * se
    assert x.var() == pytest.approx(0.25, rel=0.02)


def test_gig_half_tiny_a_matches_gamma_limit():
    # a -> 0 with p = 1/2 flows to Gamma(1/2, rate b/2); mean = 1/b * ... = p*2/b
    rng = derive_rng(5)
    n = 200_000
    x = draw_gig_half(np.zeros(n), np.full(n, 2.0), rng)
    assert np.all(x > 0) and np.all(np.isfinite(x))
    se = x.std() / np.sqrt(n)
    assert abs(x.mean() - 0.5) < 4 * se


def test_gig_half_ks_against_scipy():
    rng = derive_rng(2024)
    n = 100_000
    for a, b in [(1.0, 4.0), (0.3, 2.0), (5.0, 0.5)]:
        mine = draw_gig_half(np.full(n, a), np.full(n, b), rng)
        om = np.sqrt(a * b)
        ref = stats.geninvgauss.rvs(0.5, om, scale=np.sqrt(a / b), size=n, random_state=rng)
        ks = stats.ks_2samp(mine, ref).statistic
        assert ks < 0.01, (a, b, ks)


def test_draw_gig_half_validation():
    rng = derive_rng(1)
    with pytest.raises(ValueError):
        draw_gig_half([1.0], [0.0], rng)
    with pytest.raises(ValueError):
        draw_gig_half([-1.0], [1.0], rng)


def test_inverse_gamma_moments():
    rng = derive_rng(3)
    x = draw_inverse_gamma(5.0, np.full(200_000, 2.0), rng)
    assert np.all(x > 0)
    # mean scale/(shape-1) = 0.5; var scale^2/((s-1)^2 (s-2)) = 4/(16*3)
    assert x.mean() == pytest.approx(0.5, rel=0.02)
    assert x.var() == pytest.approx(4.0 / 48.0, rel=0.1)
    with pytest.raises(ValueError):
        draw_inverse_gamma(0.0, 1.0, rng)


def test_draw_from_precision_system_mean_matches_inverse():
    rng = derive_rng(4)
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
        draw_from_precision_system(P, np.zeros(2), derive_rng(0))


def test_inverse_gamma_vector_scale_matches_scalar_calls():
    scale = np.array([0.7, 2.5, 11.0, 0.04])
    vec = draw_inverse_gamma(6.5, scale, derive_rng(17))
    rng = derive_rng(17)
    one_by_one = np.array([draw_inverse_gamma(6.5, s, rng) for s in scale])
    np.testing.assert_array_equal(vec, one_by_one)
    rng = derive_rng(17)
    np.testing.assert_array_equal(vec, [1.0 / rng.gamma(6.5, 1.0 / s) for s in scale])
    for bad in (np.array([1.0, 0.0, 2.0]), np.array([1.0, -3.0])):
        with pytest.raises(ValueError):
            draw_inverse_gamma(6.5, bad, derive_rng(0))


def _reference_draw(P, rhs, z):
    """x = P^-1 rhs + L^-T z from numpy's dense solvers."""
    L = np.linalg.cholesky(P)
    mean = np.linalg.solve(P, rhs[..., None])[..., 0]
    return mean + np.linalg.solve(np.swapaxes(L, -1, -2), z[..., None])[..., 0], mean


@pytest.mark.parametrize("shape", [(5,), (2, 3)])
@pytest.mark.parametrize("k", [1, 4])
def test_draw_from_precision_system_batched_matches_single_calls(shape, k):
    rng = derive_rng(8)
    A = rng.standard_normal(shape + (k + 2, k))
    P = np.swapaxes(A, -1, -2) @ A + np.eye(k)
    rhs = rng.standard_normal(shape + (k,))
    draw, mean = draw_from_precision_system(P, rhs, derive_rng(21))
    assert draw.shape == mean.shape == rhs.shape
    # the stack consumes its normals in row order, like one call per member
    ref_rng = derive_rng(21)
    single = [draw_from_precision_system(Pm, rm, ref_rng)[0]
              for Pm, rm in zip(P.reshape(-1, k, k), rhs.reshape(-1, k))]
    np.testing.assert_allclose(draw.reshape(-1, k), np.array(single), rtol=0, atol=1e-12)
    z = derive_rng(21).standard_normal(rhs.shape)
    ref_draw, ref_mean = _reference_draw(P, rhs, z)
    np.testing.assert_allclose(mean, ref_mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(draw, ref_draw, rtol=0, atol=1e-12)


def test_draw_from_precision_system_jitters_only_the_singular_member():
    P = np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, 1.0], [1.0, 1.0]], [[3.0, -1.0], [-1.0, 2.0]]])
    rhs = np.array([[1.0, -1.0], [0.5, 0.5], [2.0, 0.0]])
    draw, mean = draw_from_precision_system(P, rhs, derive_rng(5))
    ref_rng = derive_rng(5)
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
    _, mean = draw_from_precision_system(P, rhs, derive_rng(6))
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
    draw, mean = draw_from_precision_system(P, rhs, derive_rng(7))
    ref_draw, ref_mean = _reference_draw(P, rhs, derive_rng(7).standard_normal((n, k)))
    assert np.abs(draw - ref_draw).max() <= 1e-12 * np.abs(ref_draw).max()
    assert np.abs(mean - ref_mean).max() <= 1e-12 * np.abs(ref_mean).max()


def test_draw_from_precision_system_stack_with_indefinite_member_raises():
    P = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 2.0 * np.eye(2)])
    with pytest.raises(np.linalg.LinAlgError):
        draw_from_precision_system(P, np.zeros((3, 2)), derive_rng(0))
    with pytest.raises(np.linalg.LinAlgError):
        draw_from_precision_system(np.array([[[1.0]], [[-2.0]]]), np.zeros((2, 1)), derive_rng(0))


def _factor_and_solve_draw(P, rhs, rng):
    """The Cholesky/jitter/solve path for every k, as before the 1 x 1 closed form."""
    P = np.asarray(P, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    z = rng.standard_normal(rhs.shape)
    try:
        L = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        k = P.shape[-1]
        L, jitter = zip(*map(_cholesky_with_jitter, P.reshape(-1, k, k)))
        L = np.stack(L).reshape(P.shape)
        P = P + np.reshape(jitter, P.shape[:-2])[..., None, None] * np.eye(k)
    b = rhs[..., None]
    sol = np.linalg.solve(P, np.concatenate([b, b + L @ z[..., None]], axis=-1))
    return sol[..., 1], sol[..., 0]


@pytest.mark.parametrize("d", [[2.0, 0.0, 3.0], [2.0, -1.0, 3.0], [2.0, np.nan, 3.0], [2.0, np.inf]])
def test_precision_draw_1x1_with_a_bad_member_takes_the_factor_path(d):
    # a zero member is jittered, a negative one raises, NaN and inf members
    # give what the factorization gives; the closed form changes none of it
    P = np.array(d)[:, None, None]
    rhs = np.linspace(-1.0, 1.0, len(d))[:, None]
    try:
        expect = _factor_and_solve_draw(P, rhs, derive_rng(3))
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            draw_from_precision_system(P, rhs, derive_rng(3))
        return
    got = draw_from_precision_system(P, rhs, derive_rng(3))
    np.testing.assert_array_equal(got[0], expect[0])
    np.testing.assert_array_equal(got[1], expect[1])


@pytest.mark.parametrize("shape", [(), (3,), (120,), (4, 5)])
def test_precision_draw_1x1_closed_form_matches_reference_draw(shape):
    rng = np.random.default_rng(11)
    P = np.exp(rng.uniform(-30.0, 30.0, shape + (1, 1)))
    rhs = rng.standard_normal(shape + (1,)) * np.exp(rng.uniform(-10.0, 10.0, shape + (1,)))
    draw, mean = draw_from_precision_system(P, rhs, derive_rng(12))
    z = derive_rng(12).standard_normal(rhs.shape)
    ref_draw, ref_mean = _reference_draw(P, rhs, z)
    d = P[..., 0]
    # relative to the size of the two terms rhs/d and z/sqrt(d)
    scale = np.abs(rhs / d) + np.abs(z / np.sqrt(d))
    assert np.all(np.abs(draw - ref_draw) <= 1e-15 * scale)
    assert np.all(np.abs(mean - ref_mean) <= 1e-15 * np.abs(ref_mean))


def test_precision_draw_factors_only_stacks_the_closed_form_does_not_cover(monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    rng = np.random.default_rng(4)
    A = rng.standard_normal((120, 3, 2))
    draw_from_precision_system(np.swapaxes(A, -1, -2) @ A + np.eye(2), rng.standard_normal((120, 2)), derive_rng(0))
    assert calls == [(120, 2, 2)]  # r = 2: the Cholesky path
    draw_from_precision_system(np.full((120, 1, 1), 2.5), rng.standard_normal((120, 1)), derive_rng(0))
    assert calls == [(120, 2, 2)]  # r = 1 with positive members: closed form
    draw_from_precision_system(np.array([[[2.5]], [[0.0]]]), np.ones((2, 1)), derive_rng(0))
    assert calls[1] == (2, 1, 1)  # a zero member: back on the Cholesky path


def test_horseshoe_conditionals_are_their_inverse_gammas():
    # one update from a fixed state: psi^2 and nu, then kappa^2 and xi, each
    # given the values drawn before it in the same sweep, against their exact
    # IG conditionals by the probability integral transform
    rng = derive_rng(41)
    k, calls = 6, 5000
    beta = np.array([0.0, 0.05, -0.3, 1.0, 2.5, -7.0])
    nu = np.array([0.2, 1.0, 3.0, 0.5, 8.0, 1.5])
    kappa, xi = 0.7, 2.0
    psi, nu_new, kappa_new, xi_new = map(
        np.array, zip(*(update_horseshoe(beta, nu, kappa, xi, rng) for _ in range(calls)))
    )
    psi2, kappa2 = psi**2, kappa_new**2
    u = [
        stats.invgamma.cdf(psi2, 1.0, scale=1.0 / nu + beta**2 / (2 * kappa**2)),
        stats.invgamma.cdf(nu_new, 1.0, scale=1.0 + 1.0 / psi2),
        stats.invgamma.cdf(kappa2, (k + 1) / 2, scale=1.0 / xi + np.sum(beta**2 / (2 * psi2), axis=1)),
        stats.invgamma.cdf(xi_new, 1.0, scale=1.0 + 1.0 / kappa2),
    ]
    for v in u:
        ks = stats.kstest(v.ravel(), "uniform").statistic
        assert ks < 1.95 / np.sqrt(v.size), ks  # the 0.1 % critical value


def test_horseshoe_prior_gibbs_recovers_half_cauchy_medians():
    # alternating beta ~ N(0, psi^2 kappa^2) with the scale updates leaves
    # the joint prior invariant: psi and kappa are half-Cauchy(0, 1), with
    # quartiles tan(pi/8), 1 and tan(3 pi/8)
    rng = derive_rng(11)
    k = 3
    psi, nu = np.ones(k), np.ones(k)
    kap, xi = 1.0, 1.0
    psis, kaps = [], []
    for i in range(40_000):
        beta = rng.standard_normal(k) * psi * kap
        psi, nu, kap, xi = update_horseshoe(beta, nu, kap, xi, rng)
        if i >= 1000:
            psis.append(psi)
            kaps.append(kap)
    expect = np.tan(np.pi * np.array([1, 2, 3]) / 8)
    np.testing.assert_allclose(np.quantile(psis, [0.25, 0.5, 0.75]), expect, rtol=0.08)
    np.testing.assert_allclose(np.quantile(kaps, [0.25, 0.5, 0.75]), expect, rtol=0.15)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12),
    st.floats(min_value=1e-6, max_value=100),
    st.integers(min_value=0, max_value=10_000),
)
def test_horseshoe_update_always_valid(beta, kappa, seed):
    rng = derive_rng(seed)
    beta = np.asarray(beta)
    nu = np.abs(rng.standard_normal(beta.size)) + 0.1
    psi_new, nu_new, kappa_new, xi_new = update_horseshoe(beta, nu, kappa, 1.0, rng)
    assert psi_new.shape == nu_new.shape == beta.shape
    for x in (psi_new, nu_new, kappa_new, xi_new):
        assert np.all(np.isfinite(x)) and np.all(x > 0)


def test_horseshoe_rejects_length_mismatch():
    with pytest.raises(ValueError):
        update_horseshoe(np.zeros(3), np.ones(2), 1.0, 1.0, derive_rng(0))


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
    mine = draw_gig_half(a, b, derive_rng(50))
    ref = _gig_half_reference(a, b, derive_rng(50))
    assert np.shape(mine) == ref.shape
    np.testing.assert_array_equal(mine, ref)


def _horseshoe_reference(beta, nu, kappa, xi, rng):
    beta = np.asarray(beta, dtype=float).ravel()
    nu = np.asarray(nu, dtype=float).ravel()
    k = beta.size
    e = rng.standard_exponential(2 * k + 1)
    half_b2 = 0.5 * beta**2
    psi2 = np.maximum((1.0 / nu + half_b2 / kappa**2) / e[:k], 1e-300)
    nu = (1.0 + 1.0 / psi2) / e[k:-1]
    kappa2 = (1.0 / xi + np.sum(half_b2 / psi2)) / rng.standard_gamma(0.5 * (k + 1))
    kappa2 = max(kappa2, 1e-300)
    xi = (1.0 + 1.0 / kappa2) / e[-1]
    return np.sqrt(psi2), nu, float(np.sqrt(kappa2)), float(xi)


@pytest.mark.parametrize("k", [1, 21, 392])
def test_update_horseshoe_keeps_stream_and_values(k):
    rng = np.random.default_rng(k)
    beta = rng.normal(size=k) * np.logspace(-8, 1, k)
    nu = rng.uniform(0.1, 3.0, size=k)
    before = nu.copy()
    mine = update_horseshoe(beta, nu, 0.7, 1.3, derive_rng(60))
    ref = _horseshoe_reference(beta, nu, 0.7, 1.3, derive_rng(60))
    np.testing.assert_array_equal(nu, before)  # the input is not written to
    for m, r in zip(mine, ref):
        np.testing.assert_array_equal(m, r)
    assert isinstance(mine[2], float) and isinstance(mine[3], float)


@pytest.mark.parametrize(
    "scale, size",
    [(2.0, 1000), (np.array([0.7, 2.5, 11.0]), None), (np.array([0.7, 2.5, 11.0]), (4, 3)), (3.0, None)],
)
def test_draw_inverse_gamma_keeps_stream_and_values(scale, size):
    # a sized draw is a draw at a scale of that shape
    shaped = scale if size is None else np.broadcast_to(scale, size)
    mine = draw_inverse_gamma(4.5, shaped, derive_rng(70))
    ref = 1.0 / derive_rng(70).gamma(4.5, 1.0 / np.asarray(scale, dtype=float), size=size)
    assert np.shape(mine) == np.shape(ref)
    np.testing.assert_array_equal(mine, ref)
