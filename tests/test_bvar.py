import numpy as np
import pytest

from quantvar.bvar import run_bvar_chain, step_scales_gaussian
from quantvar.data import build_lag_design
from quantvar.dist import derive_rng
from quantvar.qbvar import McmcSchedule, ModelConfig, QbvarConfig, init_state


def test_bvar_config_allows_zero_factors():
    cfg = ModelConfig(p=2, r=0)
    assert cfg.r == 0
    with pytest.raises(ValueError):
        ModelConfig(p=0, r=0)
    with pytest.raises(ValueError):
        ModelConfig(p=1, r=-1)
    with pytest.raises(ValueError):
        ModelConfig(p=1, r=0, b_sigma=-1.0)


def _gaussian_var_data(T, seed=0):
    rng = np.random.default_rng(seed)
    A = np.array([[0.5, 0.1], [0.2, 0.3]])
    c = np.array([0.2, -0.1])
    Y = np.zeros((T + 50, 2))
    for t in range(1, T + 50):
        Y[t] = c + A @ Y[t - 1] + 0.3 * rng.standard_normal(2)
    return Y[50:], np.column_stack([c, A])


def test_gaussian_scale_step_matches_conjugate_moments():
    Y, _ = _gaussian_var_data(40, seed=3)
    design = build_lag_design(Y, 1)
    state = init_state(design, QbvarConfig(p=1, r=0, quantile=0.5))
    E = design.YT - state.Phi @ design.XT  # (n, T), series-major
    T = E.shape[1]
    shape = 3.0 + T / 2.0
    scale0 = 1.0 + 0.5 * np.sum(E[0] ** 2)
    rng = derive_rng(5)
    draws = []
    for _ in range(6000):
        step_scales_gaussian(state, E, 3.0, 1.0, rng)
        draws.append(state.sigma[0])
    assert np.mean(draws) == pytest.approx(scale0 / (shape - 1), rel=0.05)


def test_bvar_chain_recovers_coefficients():
    Y, Phi_true = _gaussian_var_data(500, seed=11)
    design = build_lag_design(Y, 1)
    cfg = ModelConfig(p=1, r=0, schedule=McmcSchedule(500, 200, 3))
    draws, diag = run_bvar_chain(design, cfg, derive_rng(4, 0, 1))
    med = np.median(draws.Phi, axis=0)
    np.testing.assert_allclose(med, Phi_true, atol=0.12)
    assert draws.kind == "bvar"
    assert np.isnan(draws.quantile)
    assert np.all(np.isfinite(diag.residual_rms))


def test_bvar_chain_with_factors_runs_and_is_deterministic():
    Y, _ = _gaussian_var_data(120, seed=13)
    design = build_lag_design(Y, 2)
    cfg = ModelConfig(p=2, r=1, schedule=McmcSchedule(60, 20, 4))
    d1, _ = run_bvar_chain(design, cfg, derive_rng(9, 1))
    d2, _ = run_bvar_chain(design, cfg, derive_rng(9, 1))
    np.testing.assert_array_equal(d1.Phi, d2.Phi)
    np.testing.assert_array_equal(d1.Lam, d2.Lam)
    assert d1.Phi.shape == (10, 2, 5)
    assert d1.Lam.shape == (10, 2, 1)


def test_bvar_sigma_estimates_error_variance():
    # homoskedastic DGP with known innovation variance 0.09
    Y, _ = _gaussian_var_data(800, seed=17)
    design = build_lag_design(Y, 1)
    cfg = ModelConfig(p=1, r=0, schedule=McmcSchedule(400, 150, 5))
    draws, _ = run_bvar_chain(design, cfg, derive_rng(21, 0))
    sigma_med = np.median(draws.sigma, axis=0)
    np.testing.assert_allclose(sigma_med, 0.09, rtol=0.25)
