import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quantvar.qbvar as qbvar
from quantvar.bvar import run_bvar_chain
from quantvar.data import LagDesign, build_lag_design
from quantvar.dist import (
    derive_rng,
    draw_from_precision_system,
    draw_gig_half,
    draw_inverse_gamma,
)
from quantvar.qbvar import (
    McmcSchedule,
    ModelConfig,
    QbvarConfig,
    QbvarState,
    QuantileLevel,
    draw_weighted_regression,
    factor_system,
    gram_table,
    init_state,
    run_chain,
    step_coefficients,
    step_factors,
    step_latent,
    step_loadings,
    step_scales,
    step_shrinkage,
    weighted_system,
)

from conftest import factor_systems


def test_quantile_level_constants():
    # theta = (1-2q)/(q(1-q)), tau2 = 2/(q(1-q))
    med = QuantileLevel(0.5)
    assert med.theta == 0.0
    assert med.tau2 == pytest.approx(8.0)
    low = QuantileLevel(0.1)
    assert low.theta == pytest.approx(0.8 / 0.09)
    assert low.tau2 == pytest.approx(2.0 / 0.09)
    # antisymmetry of the location constant
    assert QuantileLevel(0.9).theta == pytest.approx(-low.theta)
    assert QuantileLevel(0.9).tau2 == pytest.approx(low.tau2)


@pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.3])
def test_quantile_level_rejects_out_of_range(q):
    with pytest.raises(ValueError):
        QuantileLevel(q)


def test_mcmc_schedule_draw_count():
    sched = McmcSchedule()  # 3000 / 1000 / 5
    assert sched.n_draws == 400
    assert McmcSchedule(100, 40, 3).n_draws == 20
    with pytest.raises(ValueError):
        McmcSchedule(100, 100, 1)
    with pytest.raises(ValueError):
        McmcSchedule(100, 40, 0)
    with pytest.raises(ValueError):
        McmcSchedule(10, 9, 5)  # retains no draw


def test_qbvar_config_validation():
    with pytest.raises(ValueError):
        QbvarConfig(p=0, r=1, quantile=0.5)
    with pytest.raises(ValueError):
        QbvarConfig(p=1, r=-1, quantile=0.5)
    with pytest.raises(ValueError):
        QbvarConfig(p=1, r=1, quantile=1.5)
    with pytest.raises(ValueError):
        QbvarConfig(p=1, r=0, quantile=0.5, a_sigma=0.0)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=5000))
def test_weighted_system_matches_explicit_formula(seed):
    rng = np.random.default_rng(seed)
    T, k = 25, 4
    X = rng.normal(size=(T, k))
    y = rng.normal(size=T)
    w = rng.uniform(0.1, 5.0, size=T)
    prior = rng.uniform(0.2, 3.0, size=k)
    P, rhs = weighted_system(X, y, w, prior)
    # each element within the error bound of a floating-point sum,
    # 1e-12·|ref| + 1e-12·Σ_t|term|: a near-cancelling sum of large terms
    # cannot match its reference to a relative 1e-12
    _assert_sum_close(P, X.T @ np.diag(w) @ X + np.diag(prior),
                      np.abs(X).T @ np.diag(w) @ np.abs(X) + np.diag(prior))
    _assert_sum_close(rhs, X.T @ np.diag(w) @ y, np.abs(X).T @ np.diag(w) @ np.abs(y))


def _assert_sum_close(actual, ref, abs_terms):
    bad = np.abs(actual - ref) > 1e-12 * np.abs(ref) + 1e-12 * abs_terms
    assert not bad.any(), f"elements {np.argwhere(bad).tolist()} differ: {actual[bad]} vs {ref[bad]}"


def _toy_design(seed=0, T=60, n=2, p=1):
    rng = np.random.default_rng(seed)
    Y = rng.normal(size=(T, n))
    return build_lag_design(Y, p)


def _fixed_state(design, r, seed=1):
    cfg = QbvarConfig(p=design.p, r=r, quantile=0.5)
    state = init_state(design, cfg)
    rng = np.random.default_rng(seed)
    if r:
        state.Lam = rng.normal(size=state.Lam.shape)
        state.F = rng.normal(size=state.F.shape)
    state.sigma = rng.uniform(0.5, 2.0, size=state.sigma.shape)
    state.psi = rng.uniform(0.5, 2.0, size=state.psi.shape)
    state.kappa = 0.8
    return state


def test_coefficient_conditional_mean_matches_conjugate_formula():
    # with z ≡ 1 and shrinkage fixed, the conditional mean of row i is
    # (X' D^-1 X + V^-1)^-1 X' D^-1 ytilde with D = tau2 sigma_i I
    design = _toy_design()
    state = _fixed_state(design, r=1)
    level = QuantileLevel(0.25)
    theta, tau2 = level.theta, level.tau2
    Y, X = design.Y, design.X
    for i in range(Y.shape[1]):
        w = 1.0 / (tau2 * state.sigma[i] * state.Z[i])
        ytil = Y[:, i] - state.F @ state.Lam[i] - theta * state.Z[i]
        prior_prec = 1.0 / (state.psi[i] ** 2 * state.kappa**2)
        P, rhs = weighted_system(X, ytil, w, prior_prec)
        _, mean = draw_from_precision_system(P, rhs, derive_rng(0))
        Dinv = np.diag(w)
        V_bar = np.linalg.inv(X.T @ Dinv @ X + np.diag(prior_prec))
        np.testing.assert_allclose(mean, V_bar @ X.T @ Dinv @ ytil, atol=1e-8)


def test_loading_conditional_mean_matches_conjugate_formula():
    design = _toy_design(seed=3)
    state = _fixed_state(design, r=2)
    level = QuantileLevel(0.9)
    theta, tau2 = level.theta, level.tau2
    Y, X = design.Y, design.X
    for i in range(Y.shape[1]):
        w = 1.0 / (tau2 * state.sigma[i] * state.Z[i])
        ytil = Y[:, i] - X @ state.Phi[i] - theta * state.Z[i]
        P, rhs = weighted_system(state.F, ytil, w, np.ones(2))
        _, mean = draw_from_precision_system(P, rhs, derive_rng(0))
        Dinv = np.diag(w)
        V_bar = np.linalg.inv(state.F.T @ Dinv @ state.F + np.eye(2))
        np.testing.assert_allclose(mean, V_bar @ state.F.T @ Dinv @ ytil, atol=1e-8)


def test_factor_conditional_means_match_per_period_formula():
    design = _toy_design(seed=5)
    state = _fixed_state(design, r=2, seed=7)
    rng = np.random.default_rng(9)
    state.Z = rng.uniform(0.2, 3.0, size=state.Z.shape)
    level = QuantileLevel(0.1)
    theta, tau2 = level.theta, level.tau2
    P, rhs = factor_systems(design, state, theta, tau2)
    mean = np.linalg.solve(P, rhs[..., None])[..., 0]
    Y, X = design.Y, design.X
    for t in range(Y.shape[0]):
        Dinv = np.diag(1.0 / (tau2 * state.sigma * state.Z[:, t]))
        ytil = Y[t] - state.Phi @ X[t] - theta * state.Z[:, t]
        V_bar = np.linalg.inv(state.Lam.T @ Dinv @ state.Lam + np.eye(2))
        np.testing.assert_allclose(mean[t], V_bar @ state.Lam.T @ Dinv @ ytil, atol=1e-8)


@pytest.mark.parametrize("r", [0, 1, 2])
def test_batched_steps_match_per_row_reference(r):
    # one batched draw per block equals drawing row by row (coefficients,
    # loadings) or period by period (factors) from the same stream; the
    # coefficient rows take their normals from it first for every
    # observation (n T), then for every prior term (n k)
    design = _toy_design(seed=13, T=50, n=3, p=2)
    state = _fixed_state(design, r=r, seed=4)
    state.Z = np.random.default_rng(6).uniform(0.2, 3.0, size=state.Z.shape)
    level = QuantileLevel(0.25)
    theta, tau2 = level.theta, level.tau2
    Y, X = design.Y, design.X
    T, n = Y.shape

    rng = derive_rng(40)
    u = rng.standard_normal((n, T))
    v = rng.standard_normal(state.Phi.shape)
    ref = np.empty_like(state.Phi)
    for i in range(n):
        w = 1.0 / (tau2 * state.sigma[i] * state.Z[i])
        ytil = Y[:, i] - state.F @ state.Lam[i] - theta * state.Z[i]
        prior = 1.0 / (state.psi[i] ** 2 * state.kappa**2)
        P, rhs = weighted_system(X, ytil + u[i] / np.sqrt(w), w, prior)
        ref[i] = np.linalg.solve(P, rhs + np.sqrt(prior) * v[i])
    W = 1.0 / (tau2 * state.sigma[:, None] * state.Z)
    target = design.YT - theta * state.Z - state.Lam @ state.F.T
    step_coefficients(design, state, target, W, derive_rng(40))
    np.testing.assert_allclose(state.Phi, ref, rtol=0, atol=1e-12)

    rng = derive_rng(41)
    ref = np.empty_like(state.Lam)
    for i in range(n):
        w = 1.0 / (tau2 * state.sigma[i] * state.Z[i])
        ytil = Y[:, i] - X @ state.Phi[i] - theta * state.Z[i]
        P, rhs = weighted_system(state.F, ytil, w, np.ones(r))
        ref[i], _ = draw_from_precision_system(P, rhs, rng)
    R = design.YT - state.Phi @ design.XT - theta * state.Z
    step_loadings(state, W, W * R, derive_rng(41))
    np.testing.assert_allclose(state.Lam, ref, rtol=0, atol=1e-12)

    rng = derive_rng(42)
    P, rhs = factor_systems(design, state, theta, tau2)
    ref = state.F.copy()
    if r:
        for t in range(Y.shape[0]):
            ref[t], _ = draw_from_precision_system(P[t], rhs[t], rng)
    step_factors(state, W, W * R, derive_rng(42))
    np.testing.assert_allclose(state.F, ref, rtol=0, atol=1e-12)


def _regression_inputs(per_column, seed=8, T=8, n=2, k=3):
    # the prior precisions are as large as the data's, so that both
    # perturbations shape the draw's covariance
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(T, k))
    y = rng.normal(size=(n, T))
    w = rng.uniform(0.2, 1.0, size=n if per_column else (n, T))
    prior = rng.uniform(2.0, 10.0, size=(n, k))
    return X, y, w, prior


@pytest.mark.parametrize("per_column", [False, True])
def test_perturbed_draw_has_the_precision_systems_moments(per_column):
    # perturb-then-solve draws N(P^-1 rhs, P^-1) for every series: whitened
    # by P's Cholesky factor, z = L'(beta - P^-1 rhs) is N(0, I) per series
    X, y, w, prior = _regression_inputs(per_column)
    P, rhs = weighted_system(X, y, w, prior)
    mean = np.linalg.solve(P, rhs[..., None])[..., 0]
    L = np.linalg.cholesky(P)
    N = 20000
    rng = derive_rng(21)
    draws = np.array([draw_weighted_regression(X, y, w, prior, rng) for _ in range(N)])
    z = np.einsum("nij,snj->sni", np.swapaxes(L, -1, -2), draws - mean)
    for i in range(y.shape[0]):
        # standard errors 1/sqrt(N) for the means, sqrt(2/N) for the variances
        assert np.max(np.abs(z[:, i].mean(axis=0))) < 4.5 / np.sqrt(N)
        np.testing.assert_allclose(np.cov(z[:, i].T), np.eye(X.shape[1]), atol=6.0 * np.sqrt(2.0 / N))


@pytest.mark.parametrize("per_column", [False, True])
def test_perturbed_draw_takes_observation_normals_then_prior_normals(per_column):
    # the stream contract: n T normals (one per observation), then n k (one
    # per prior term), and nothing else
    X, y, w, prior = _regression_inputs(per_column, seed=9)
    rng = derive_rng(22)
    beta = draw_weighted_regression(X, y, w, prior, rng)
    ref_rng = derive_rng(22)
    u = ref_rng.standard_normal(y.shape)
    v = ref_rng.standard_normal(prior.shape)
    w_t = np.broadcast_to(w[:, None], y.shape) if per_column else w
    P, rhs = weighted_system(X, y + u / np.sqrt(w_t), w_t, prior)
    np.testing.assert_allclose(beta, np.linalg.solve(P, (rhs + np.sqrt(prior) * v)[..., None])[..., 0],
                               rtol=0, atol=1e-12)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize(
    "bad", ["nan_weight", "inf_weight", "zero_weight", "negative_weight", "inf_prior", "zero_prior"]
)
def test_perturbed_draw_rejects_an_improper_system(bad):
    X, y, w, prior = _regression_inputs(False, seed=10)
    value = {"nan": np.nan, "inf": np.inf, "zero": 0.0, "negative": -1.0}[bad.split("_")[0]]
    (w if bad.endswith("weight") else prior)[1, 2] = value
    with pytest.raises(np.linalg.LinAlgError):
        draw_weighted_regression(X, y, w, prior, derive_rng(0))


def _reference_sweep(design, state, theta, tau2, a_sigma, b_sigma, rng, gaussian):
    """One Gibbs sweep in which every step rebuilds the terms it reads.

    These are the step formulas from before the sweep shared its terms, on
    series-major (n, T) arrays; the Gaussian model is theta = 0, tau2 = 1
    with a conjugate scale draw, and its Z = 1 leaves one weight 1/sigma_i
    per series, so its systems take the (n,) weight form (the loadings
    repeat it along t) and one factor precision for every period. The coefficients are drawn by
    perturb-then-solve: u / sqrt(w) added to every observation, then
    sqrt(prior) v to the linear term, then one solve.
    """
    YT, XT, X = design.YT, design.XT, design.X
    r = state.Lam.shape[1]

    def residuals():
        E = YT - state.Phi @ XT
        if r:
            E = E - state.Lam @ state.F.T
        return E

    def weights():
        return 1.0 / state.sigma if gaussian else 1.0 / (tau2 * state.sigma[:, None] * state.Z)

    W = weights()
    Ytil = YT - theta * state.Z
    if r:
        Ytil = Ytil - state.Lam @ state.F.T
    root_W = np.sqrt(W)[:, None] if gaussian else np.sqrt(W)
    Ytil = Ytil + rng.standard_normal(Ytil.shape) / root_W
    prior = 1.0 / (state.psi**2 * state.kappa**2)
    P, rhs = weighted_system(X, Ytil, W, prior)
    rhs = rhs + np.sqrt(prior) * rng.standard_normal(prior.shape)
    state.Phi[:] = np.linalg.solve(P, rhs[..., None])[..., 0]
    if r:
        W = weights()
        T = YT.shape[1]
        W_t = np.repeat(W[:, None], T, axis=1) if gaussian else W
        R = YT - state.Phi @ XT - theta * state.Z
        FF = (state.F[:, :, None] * state.F[:, None, :]).reshape(T, r * r)
        P = (W_t @ FF).reshape(-1, r, r) + np.eye(r)
        state.Lam[:], _ = draw_from_precision_system(P, (W_t * R) @ state.F, rng)
        W = weights()
        R = YT - state.Phi @ XT - theta * state.Z
        LL = (state.Lam[:, :, None] * state.Lam[:, None, :]).reshape(-1, r * r)
        P = (W.T @ LL).reshape(W.T.shape[:-1] + (r, r)) + np.eye(r)
        rhs = ((W[:, None] if gaussian else W) * R).T @ state.Lam
        state.F, _ = draw_from_precision_system(P, rhs, rng)
    T = YT.shape[1]
    if gaussian:
        E = residuals()
        state.sigma[:] = draw_inverse_gamma(a_sigma + T / 2.0, b_sigma + 0.5 * np.sum(E**2, axis=1), rng)
    else:
        E = residuals()
        s = tau2 * state.sigma[:, None]
        state.Z = np.maximum(draw_gig_half(E**2 / s, theta**2 / s + 2.0 / state.sigma[:, None], rng), 1e-12)
        E = residuals()
        adj = E - theta * state.Z
        scale = b_sigma + np.sum(adj**2 / (2.0 * tau2 * state.Z) + state.Z, axis=1)
        state.sigma[:] = draw_inverse_gamma(a_sigma + 1.5 * T, scale, rng)
    step_shrinkage(state, rng)
    return float(np.sqrt(np.mean(residuals() ** 2)))


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("model", ["qbvar", "bvar"])
def test_chain_sweeps_equal_reference_sweeps_bit_for_bit(model, r):
    # sharing W, Y - X Phi', the factor target and the residuals across the
    # steps of a sweep must not move a single bit of any draw, and retained
    # draw s is the state after sweep burn_in + s * thin (counted from 0)
    design = _toy_design(seed=43, T=60, n=3, p=2)
    for sched in (McmcSchedule(40, 0, 1), McmcSchedule(40, 7, 3)):
        if model == "qbvar":
            cfg = QbvarConfig(p=2, r=r, quantile=0.1, schedule=sched)
            draws, diag = run_chain(design, cfg, derive_rng(50 + r))
            theta, tau2 = cfg.level.theta, cfg.level.tau2
        else:
            cfg = ModelConfig(p=2, r=r, schedule=sched)
            draws, diag = run_bvar_chain(design, cfg, derive_rng(50 + r))
            theta, tau2 = 0.0, 1.0
        state = init_state(design, cfg)
        rng = derive_rng(50 + r)
        retained = 0
        for it in range(sched.iterations):
            rms = _reference_sweep(design, state, theta, tau2, 3.0, 1.0, rng, gaussian=model == "bvar")
            s, offset = divmod(it - sched.burn_in, sched.thin)
            if it < sched.burn_in or offset or s >= sched.n_draws:
                continue
            np.testing.assert_array_equal(draws.Phi[s], state.Phi)
            np.testing.assert_array_equal(draws.Lam[s], state.Lam)
            np.testing.assert_array_equal(draws.sigma[s], state.sigma)
            assert diag.residual_rms[s] == rms
            assert diag.kappa_trace[s] == state.kappa
            retained += 1
        assert retained == draws.n_draws == sched.n_draws


def test_weighted_system_batches_rows():
    rng = np.random.default_rng(2)
    T, k, n = 30, 5, 4
    X = rng.normal(size=(T, k))
    Y = rng.normal(size=(n, T))
    W = rng.uniform(0.1, 5.0, size=(n, T))
    prior = rng.uniform(0.2, 3.0, size=(n, k))
    P, rhs = weighted_system(X, Y, W, prior)
    assert P.shape == (n, k, k) and rhs.shape == (n, k)
    for i in range(n):
        P_i, rhs_i = weighted_system(X, Y[i], W[i], prior[i])
        np.testing.assert_allclose(P[i], P_i, rtol=1e-13)
        np.testing.assert_allclose(rhs[i], rhs_i, rtol=1e-13)


def test_weighted_system_takes_constant_column_weights():
    # (n,) weights are (n, T) weights constant along each series, the
    # Gaussian model's w_i = 1/sigma_i: P = (X'X) w_i + prior and rhs = (y X) w_i
    rng = np.random.default_rng(3)
    T, k, n = 40, 6, 4
    X = rng.normal(size=(T, k))
    Y = rng.normal(size=(n, T))
    w = rng.uniform(0.1, 5.0, size=n)
    prior = rng.uniform(0.2, 3.0, size=(n, k))
    P, rhs = weighted_system(X, Y, w, prior)
    P_ref, rhs_ref = weighted_system(X, Y, np.broadcast_to(w[:, None], (n, T)), prior)
    assert P.shape == (n, k, k) and rhs.shape == (n, k)
    np.testing.assert_allclose(P, P_ref, rtol=1e-12)
    np.testing.assert_allclose(rhs, rhs_ref, rtol=1e-12)
    # one system: a scalar weight with a (T,) target
    P_1, rhs_1 = weighted_system(X, Y[2], w[2], prior[2])
    np.testing.assert_allclose(P_1, P_ref[2], rtol=1e-12)
    np.testing.assert_allclose(rhs_1, rhs_ref[2], rtol=1e-12)


@pytest.mark.parametrize("batched", [True, False])
def test_weighted_system_reads_the_table_of_regressor_products(batched):
    # P = (W @ products).take(index) is sum_t w_t x_t x_t' + diag(prior);
    # the regressors are positive, so every term is and any order of the
    # sum agrees with the reference to a relative T eps
    rng = np.random.default_rng(4)
    T, k, n = 50, 6, 3
    X = rng.uniform(0.5, 2.0, size=(T, k))
    Y = rng.normal(size=(n, T))
    W = rng.uniform(0.1, 5.0, size=(n, T))
    prior = rng.uniform(0.2, 3.0, size=(n, k))
    if not batched:
        Y, W, prior = Y[1], W[1], prior[1]
    table = gram_table(X)
    products, index = table
    assert products.shape == (T, k * (k + 1) // 2)
    for a in range(k):
        for b in range(k):
            np.testing.assert_array_equal(products[:, index[a, b]], X[:, a] * X[:, b])
    P, rhs = weighted_system(X, Y, W, prior, table)
    ref = sum(W[..., t, None, None] * np.outer(X[t], X[t]) for t in range(T))
    ref += prior[..., None] * np.eye(k)
    np.testing.assert_allclose(P, ref, rtol=1e-13)
    np.testing.assert_array_equal(P, np.swapaxes(P, -1, -2))
    _assert_sum_close(rhs, np.einsum("...t,tk->...k", W * Y, X), np.einsum("...t,tk->...k", np.abs(W * Y), X))
    # without a table the system builds the same one
    P_own, rhs_own = weighted_system(X, Y, W, prior)
    np.testing.assert_array_equal(P_own, P)
    np.testing.assert_array_equal(rhs_own, rhs)


def test_constant_weights_read_a_cached_gram_matrix_bit_for_bit():
    # the Gaussian chain computes X'X once and passes it as the table
    rng = np.random.default_rng(5)
    T, k, n = 40, 6, 4
    X = rng.normal(size=(T, k))
    Y = rng.normal(size=(n, T))
    w = rng.uniform(0.1, 5.0, size=n)
    prior = rng.uniform(0.2, 3.0, size=(n, k))
    XtX = X.T @ X
    for args in ((X, Y, w, prior), (X, Y[2], w[2], prior[2])):
        P, rhs = weighted_system(*args, XtX)
        P_own, rhs_own = weighted_system(*args)
        np.testing.assert_array_equal(P, P_own)
        np.testing.assert_array_equal(rhs, rhs_own)
    np.testing.assert_array_equal(XtX, X.T @ X)  # the cached matrix is not written to


def test_run_chain_builds_the_designs_table_once(monkeypatch):
    # the design's table once per chain, and no other: the loading block
    # sums the factors' products with one matrix product (factor_system)
    calls = []
    build = qbvar.gram_table

    def counted(X):
        calls.append(X)
        return build(X)

    monkeypatch.setattr(qbvar, "gram_table", counted)
    design = build_lag_design(np.random.default_rng(1).normal(size=(40, 2)), 1)
    sched = McmcSchedule(25, 5, 2)
    run_chain(design, QbvarConfig(p=1, r=1, quantile=0.25, schedule=sched), derive_rng(2))
    assert len(calls) == 1 and calls[0] is design.X


@pytest.mark.parametrize("r", [1, 2, 3])
def test_gaussian_factor_draw_shares_one_precision(r):
    # with constant column weights every period has the same precision; one
    # (r, r) system broadcast over the T targets draws what the per-period
    # systems draw from the same stream
    design = _toy_design(seed=17, T=50, n=4, p=2)
    state = _fixed_state(design, r=r, seed=5)
    w = 1.0 / state.sigma
    D = design.YT - state.Phi @ design.XT
    T = D.shape[1]
    wD = w[:, None] * D
    P, rhs = factor_system(state.Lam, w, wD.T)
    P_t, rhs_t = factor_system(state.Lam, np.broadcast_to(w[:, None], D.shape).T, wD.T)
    assert P.shape == (r, r) and rhs.shape == (T, r)
    np.testing.assert_allclose(P_t, np.broadcast_to(P, P_t.shape), rtol=1e-12)
    np.testing.assert_allclose(rhs, rhs_t, rtol=1e-12)
    rng = derive_rng(44)
    ref = np.empty_like(state.F)
    for t in range(T):
        ref[t], _ = draw_from_precision_system(P_t[t], rhs_t[t], rng)
    step_factors(state, w, wD, derive_rng(44))
    np.testing.assert_allclose(state.F, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("per_column", [False, True])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_factor_blocks_draw_from_the_plain_sums(monkeypatch, r, per_column):
    # the systems both steps pass to the draw, in both weight forms, against
    # the plain sums; every term is positive, so any order of a sum agrees
    # with them to a relative (number of terms) eps
    systems = []

    def capture(P, rhs, rng):
        systems.append((P, rhs))
        return draw_from_precision_system(P, rhs, rng)

    monkeypatch.setattr(qbvar, "draw_from_precision_system", capture)
    design = _toy_design(seed=29, T=50, n=4, p=1)
    state = _fixed_state(design, r=r)
    g = np.random.default_rng(r)
    n, T = design.YT.shape
    F, Lam = g.uniform(0.5, 2.0, size=(T, r)), g.uniform(0.5, 2.0, size=(n, r))
    R = g.uniform(0.5, 2.0, size=(n, T))
    W = g.uniform(0.1, 5.0, size=n if per_column else (n, T))
    W_t = np.repeat(W[:, None], T, axis=1) if per_column else W
    state.F, state.Lam = F.copy(), Lam.copy()
    step_loadings(state, W, W_t * R, derive_rng(0))
    state.Lam = Lam.copy()
    step_factors(state, W, W_t * R, derive_rng(1))
    (P_load, rhs_load), (P_fac, rhs_fac) = systems
    eye = np.eye(r)
    np.testing.assert_allclose(
        P_load, [sum(W_t[i, t] * np.outer(F[t], F[t]) for t in range(T)) + eye for i in range(n)], rtol=1e-13)
    np.testing.assert_allclose(
        rhs_load, [sum(W_t[i, t] * R[i, t] * F[t] for t in range(T)) for i in range(n)], rtol=1e-13)
    # constant weights give every period the same factor precision, passed once
    assert P_fac.shape == ((r, r) if per_column else (T, r, r))
    np.testing.assert_allclose(
        np.broadcast_to(P_fac, (T, r, r)),
        [sum(W_t[i, t] * np.outer(Lam[i], Lam[i]) for i in range(n)) + eye for t in range(T)], rtol=1e-13)
    np.testing.assert_allclose(
        rhs_fac, [sum(W_t[i, t] * R[i, t] * Lam[i] for i in range(n)) for t in range(T)], rtol=1e-13)


@pytest.mark.parametrize("per_column", [False, True])
def test_factor_systems_without_factors(per_column):
    # r = 0: empty systems in either weight form, and the factor blocks are
    # left untouched
    design = _toy_design(seed=19, T=30, n=3, p=1)
    state = _fixed_state(design, r=0)
    W = 1.0 / state.sigma if per_column else 1.0 / (state.sigma[:, None] * state.Z)
    D = design.YT - state.Phi @ design.XT
    T = D.shape[1]
    WD = (W[:, None] if per_column else W) * D
    P, rhs = factor_system(state.Lam, W.T, WD.T)
    assert P.shape == ((0, 0) if per_column else (T, 0, 0)) and rhs.shape == (T, 0)
    rng = derive_rng(3)
    step_loadings(state, W, WD, rng)
    step_factors(state, W, WD, rng)
    assert state.Lam.shape == (3, 0) and state.F.shape == (T, 0)
    assert rng.bit_generator.state == derive_rng(3).bit_generator.state


def test_step_latent_respects_floor_and_conditional_moments():
    design = _toy_design(seed=11, T=40)
    state = _fixed_state(design, r=0)
    level = QuantileLevel(0.5)
    # Monte-Carlo check of the GIG(1/2, e^2/(tau2 s), theta^2/(tau2 s) + 2/s)
    # conditional mean for one cell against the closed form
    E = design.YT - state.Phi @ design.XT
    a = E**2 / (level.tau2 * state.sigma[:, None])
    b = np.full_like(a, level.theta**2 / (level.tau2 * state.sigma[0]) + 2.0 / state.sigma[0])
    i, t = 0, 7
    om = np.sqrt(max(a[i, t], 1e-300) * b[i, t])
    expect = np.sqrt(a[i, t] / b[i, t]) * (1 + 1 / om) if a[i, t] > 0 else None
    rng = derive_rng(123)
    draws = []
    for _ in range(4000):
        step_latent(state, E, level.theta, level.tau2 * state.sigma[:, None], rng)
        draws.append(state.Z[i, t])
        state.Z = np.ones_like(state.Z)  # residuals don't depend on Z; reset
    assert np.all(np.array(draws) >= 1e-12)
    if expect is not None:
        assert np.mean(draws) == pytest.approx(expect, rel=0.1)


def test_step_scales_matches_inverse_gamma_moments():
    design = _toy_design(seed=13, T=30)
    state = _fixed_state(design, r=0)
    level = QuantileLevel(0.25)
    theta, tau2 = level.theta, level.tau2
    E = design.YT - state.Phi @ design.XT
    T = E.shape[1]
    adj = E[0] - theta * state.Z[0]
    scale0 = 1.0 + np.sum(adj**2 / (2 * tau2 * state.Z[0]) + state.Z[0])
    shape0 = 3.0 + 1.5 * T
    rng = derive_rng(7)
    draws = []
    for _ in range(6000):
        step_scales(state, E, theta, tau2, 3.0, 1.0, rng)
        draws.append(state.sigma[0])
    draws = np.array(draws)
    assert np.all(draws > 0)
    assert draws.mean() == pytest.approx(scale0 / (shape0 - 1), rel=0.05)


def test_step_scales_concentrates_on_true_scale():
    # errors drawn from the mixture with known scales; alternating the
    # latent and scale draws (coefficients pinned at truth) should put the
    # scale posterior within 10% of the generating values at large T
    T, n = 2000, 2
    level = QuantileLevel(0.25)
    sigma_true = np.array([0.5, 1.5])
    rng = derive_rng(29)
    z = rng.exponential(sigma_true, (T, n))  # mean sigma_i in column i
    u = rng.standard_normal((T, n))
    E = level.theta * z + np.sqrt(level.tau2 * sigma_true * z) * u
    Y = E
    X = np.ones((T, 1))
    design = LagDesign(Y=Y, X=X, p=0)
    state = QbvarState(
        Phi=np.zeros((n, 1)),
        Lam=np.zeros((n, 0)),
        F=np.zeros((T, 0)),
        Z=np.ones((n, T)),
        sigma=np.ones(n),
        psi=np.ones((n, 1)),
        kappa=1.0,
        nu=np.ones((n, 1)),
        xi=1.0,
    )
    kept = []
    E = design.YT - state.Phi @ design.XT  # the coefficients stay pinned
    for it in range(300):
        step_latent(state, E, level.theta, level.tau2 * state.sigma[:, None], rng)
        step_scales(state, E, level.theta, level.tau2, 3.0, 1.0, rng)
        if it >= 100:
            kept.append(state.sigma.copy())
    post_mean = np.mean(kept, axis=0)
    np.testing.assert_allclose(post_mean, sigma_true, rtol=0.10)


def test_step_shrinkage_keeps_scales_positive():
    design = _toy_design(seed=17)
    state = _fixed_state(design, r=1)
    rng = derive_rng(19)
    for _ in range(50):
        step_coefficients(design, state, design.YT - state.Lam @ state.F.T,
                          1.0 / (8.0 * state.sigma[:, None] * state.Z), rng)
        step_shrinkage(state, rng)
        assert np.all(state.psi > 0) and np.all(np.isfinite(state.psi))
        assert state.kappa > 0 and np.isfinite(state.kappa)


def test_init_state_is_ridge():
    design = _toy_design(seed=23)
    cfg = QbvarConfig(p=1, r=2, quantile=0.5)
    state = init_state(design, cfg)
    X, Y = design.X, design.Y
    ridge = np.linalg.solve(X.T @ X + 1e-4 * np.eye(X.shape[1]), X.T @ Y).T
    np.testing.assert_allclose(state.Phi, ridge, rtol=1e-10)
    assert np.all(state.Z == 1.0)
    assert np.all(state.sigma > 0)
    assert state.Lam.shape == (2, 2) and np.all(state.Lam == 0.0)


def test_run_chain_shapes_and_determinism():
    design = _toy_design(seed=29, T=50)
    cfg = QbvarConfig(p=1, r=1, quantile=0.25, schedule=McmcSchedule(60, 20, 4))
    draws1, diag = run_chain(design, cfg, derive_rng(99, 0))
    draws2, _ = run_chain(design, cfg, derive_rng(99, 0))
    assert draws1.n_draws == cfg.schedule.n_draws == 10
    assert draws1.Phi.shape == (10, 2, 3)
    assert draws1.Lam.shape == (10, 2, 1)
    assert draws1.sigma.shape == (10, 2)
    assert draws1.kind == "qbvar" and draws1.quantile == 0.25
    np.testing.assert_array_equal(draws1.Phi, draws2.Phi)
    np.testing.assert_array_equal(draws1.Lam, draws2.Lam)
    np.testing.assert_array_equal(draws1.sigma, draws2.sigma)
    assert diag.residual_rms.shape == (10,)
    assert np.all(np.isfinite(diag.residual_rms))
    assert diag.phi_first_half_mean.shape == (2, 3)


def test_run_chain_without_factors():
    design = _toy_design(seed=31, T=40)
    cfg = QbvarConfig(p=1, r=0, quantile=0.5, schedule=McmcSchedule(40, 10, 3))
    draws, _ = run_chain(design, cfg, derive_rng(0))
    assert draws.Lam.shape == (10, 2, 0)
    assert np.all(np.isfinite(draws.Phi))


def _mixture_var_data(q, Phi_true, sigma, T, seed):
    """Simulate y_t = Phi x_t + theta z_t + sqrt(tau2 sigma z_t) u_t, z ~ Exp(mean sigma)."""
    level = QuantileLevel(q)
    n = Phi_true.shape[0]
    p = (Phi_true.shape[1] - 1) // n
    rng = np.random.default_rng(seed)
    Y = np.zeros((T + 100, n))
    for t in range(p, T + 100):
        x = np.concatenate([[1.0], Y[t - 1 : t - p - 1 : -1].ravel()]) if p > 1 else np.concatenate([[1.0], Y[t - 1]])
        z = rng.exponential(sigma, size=n)
        u = rng.standard_normal(n)
        Y[t] = Phi_true @ x + level.theta * z + np.sqrt(level.tau2 * sigma * z) * u
    return Y[100:]


def test_chain_recovers_median_coefficients():
    # light version of the full recovery check: q = 0.5, T = 600
    Phi_true = np.array([[0.3, 0.5, 0.1], [-0.2, 0.2, 0.4]])
    Y = _mixture_var_data(0.5, Phi_true, sigma=0.3, T=600, seed=5)
    design = build_lag_design(Y, 1)
    cfg = QbvarConfig(p=1, r=0, quantile=0.5, schedule=McmcSchedule(600, 200, 4))
    draws, _ = run_chain(design, cfg, derive_rng(2, 0, 0))
    med = np.median(draws.Phi, axis=0)
    np.testing.assert_allclose(med, Phi_true, atol=0.15)
