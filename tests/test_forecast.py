import csv
import io
import math
import os
import tempfile
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quantvar.forecast as forecast
from quantvar.bvar import run_bvar_chain
from quantvar.data import build_lag_design, month_index, month_label
from quantvar.dist import derive_rng
from quantvar.forecast import (
    PATHS_PER_DRAW,
    ForecastError,
    QuantileForecastSet,
    gaussian_forecast,
    quantile_forecast,
    read_forecasts,
    simulate_paths,
    write_forecasts,
)
from quantvar.qbvar import McmcSchedule, ModelConfig, PosteriorDrawSet, QuantileLevel

from conftest import forecast_records, forecast_set


def _draw_set(Phi, Lam=None, sigma=None, quantile=0.5, p=1):
    Phi = np.asarray(Phi, dtype=float)
    S, n, _ = Phi.shape
    if Lam is None:
        Lam = np.zeros((S, n, 0))
    if sigma is None:
        sigma = np.full((S, n), 1e-24)  # effectively noiseless
    return PosteriorDrawSet(
        quantile=quantile,
        p=p,
        Phi=Phi,
        Lam=np.asarray(Lam, dtype=float),
        sigma=np.asarray(sigma, dtype=float),
    )


def _forecast(kind, draws, history, horizons, levels, rng) -> dict:
    """{q: forecast} from the predictive of the model ``kind``, as the per-origin worker calls it."""
    if kind == "qbvar":
        return {draws.quantile: quantile_forecast(draws, history, horizons, rng)}
    return gaussian_forecast(draws, history, horizons, levels)


def _spy_on_paths(monkeypatch) -> list:
    """A list that receives a copy of every path array simulate_paths returns from here on."""
    seen = []

    def spy(*args):
        paths = simulate_paths(*args)
        seen.append(paths.copy())
        return paths

    monkeypatch.setattr(forecast, "simulate_paths", spy)
    return seen


def test_simulate_paths_follows_deterministic_recursion():
    # noiseless draws: paths must reproduce the VAR recursion exactly
    A = np.array([[0.5, 0.1], [0.2, 0.3]])
    c = np.array([0.3, -0.2])
    Phi = np.column_stack([c, A])[None]  # one draw
    draws = _draw_set(np.repeat(Phi, 3, axis=0))
    hist = np.array([[1.0, 2.0]])
    paths = simulate_paths(draws, hist, 4, np.zeros_like(draws.sigma), derive_rng(0))
    assert paths.shape == (3 * PATHS_PER_DRAW, 4, 2)
    y = hist[-1]
    for j in range(4):
        y = c + A @ y
        np.testing.assert_allclose(paths[:, j, :], np.tile(y, (3 * PATHS_PER_DRAW, 1)), atol=1e-8)


def test_simulate_paths_uses_p_lags_in_order():
    # p = 2: x = (1, y_{t-1}, y_{t-2}); pick coefficients that echo lag 2
    Phi = np.zeros((1, 1, 3))
    Phi[0, 0, 2] = 1.0  # loads only on the second lag
    draws = _draw_set(Phi, p=2)
    hist = np.array([[5.0], [9.0]])  # y_{t-1} = 9, y_{t-2} = 5
    paths = simulate_paths(draws, hist, 3, np.zeros_like(draws.sigma), derive_rng(0))
    np.testing.assert_allclose(paths[0, :, 0], [5.0, 9.0, 5.0], atol=1e-8)


def test_simulate_paths_validations():
    draws = _draw_set(np.zeros((2, 1, 2)))
    sd = np.zeros_like(draws.sigma)
    with pytest.raises(ForecastError):
        simulate_paths(draws, np.zeros((0, 1)), 2, sd, derive_rng(0))  # too little history
    with pytest.raises(ValueError):
        simulate_paths(draws, np.zeros((3, 2)), 2, sd, derive_rng(0))  # wrong width
    with pytest.raises(ValueError):
        simulate_paths(draws, np.zeros((3, 1)), 0, sd, derive_rng(0))


@pytest.mark.parametrize("kind, quantile", [("bvar", 0.5), ("qbvar", 0.1), ("qbvar", 0.5)])
def test_simulate_paths_draws_each_models_shock_variance(kind, quantile, monkeypatch):
    # a bvar draw's sigma is its shock variance, which its exact predictive
    # takes; a qbvar draw's is the scale of its asymmetric-Laplace error, and
    # the centred normal shock of its paths takes that error's variance
    # sigma^2 (theta^2 + tau2)
    S, sigma = 20000, 0.3
    draws = _draw_set(np.zeros((S, 1, 2)), sigma=np.full((S, 1), sigma), quantile=quantile)
    if kind == "bvar":
        levels = [0.1, 0.5, 0.9]
        by_q = gaussian_forecast(draws, np.zeros((1, 1)), [1], levels)
        for q in levels:
            assert by_q[q][0, 0] == pytest.approx(NormalDist(0.0, np.sqrt(sigma)).inv_cdf(q), abs=1e-12)
        return
    seen = _spy_on_paths(monkeypatch)
    quantile_forecast(draws, np.zeros((1, 1)), [1], derive_rng(4))
    shocks = seen[0][:, 0, 0]
    level = QuantileLevel(quantile)
    var = sigma**2 * (level.theta**2 + level.tau2)
    assert abs(shocks.mean()) <= 4 * np.sqrt(var / S)
    assert shocks.var() == pytest.approx(var, rel=0.05)


def _explosive_mixture(n_bad, S=400, sigma=None):
    Phi = np.zeros((S, 1, 2))
    Phi[:, 0, 1] = 0.5
    Phi[:n_bad, 0, 0] = 1e80  # explosive intercept overflows within a few steps
    Phi[:n_bad, 0, 1] = 1e80
    return _draw_set(Phi, sigma=sigma)


def test_simulate_paths_tolerates_rare_explosions():
    draws = _explosive_mixture(n_bad=3)  # 0.75% < 1%
    paths = simulate_paths(draws, np.array([[1.0]]), 6, np.zeros_like(draws.sigma), derive_rng(1))
    bad = ~np.isfinite(paths).all(axis=(1, 2))
    # each explosive draw makes its PATHS_PER_DRAW adjacent paths bad
    assert bad.sum() == 3 * PATHS_PER_DRAW and bad[:3 * PATHS_PER_DRAW].all()
    assert np.isnan(paths[bad]).all()
    med = np.nanmedian(paths, axis=0)
    assert np.all(np.isfinite(med))


def test_simulate_paths_fails_on_frequent_explosions():
    draws = _explosive_mixture(n_bad=5)  # 1.25% > 1%
    with pytest.raises(ForecastError):
        simulate_paths(draws, np.array([[1.0]]), 6, np.zeros_like(draws.sigma), derive_rng(1))


def test_several_paths_per_draw_cut_the_seed_to_seed_noise_of_a_quantile_forecast():
    # 100 identical median draws whose AL error has variance sigma^2 tau2 = 1:
    # the h = 1 forecast is the sample median of N simulated N(0, 1) shocks,
    # whose sd across forecast seeds is about sqrt(pi / 2 / N): 0.125 at
    # N = 100 paths, 0.040 at 1,000. The band is half the one-path-per-draw
    # sd; seeds 1000-1399 read 0.030-0.045 with 10 paths per draw and
    # 0.093-0.141 with one.
    S = 100
    draws = _draw_set(np.zeros((S, 1, 2)), sigma=np.full((S, 1), 8**-0.5), quantile=0.5)
    forecasts = [quantile_forecast(draws, np.zeros((1, 1)), [1], derive_rng(seed))[0, 0]
                 for seed in range(2000, 2040)]
    assert np.std(forecasts, ddof=1) <= 0.125 / 2
    assert np.mean(forecasts) == pytest.approx(0.0, abs=0.05)


def test_quantile_forecast_median_across_draws():
    # draws differ only in intercept; noiseless: h=1 forecast = median intercept
    intercepts = np.array([0.1, 0.2, 0.7])
    Phi = np.zeros((3, 1, 2))
    Phi[:, 0, 0] = intercepts
    draws = _draw_set(Phi)
    fc = quantile_forecast(draws, np.array([[0.0]]), [1], derive_rng(0))
    assert fc.shape == (1, 1)
    assert fc[0, 0] == pytest.approx(0.2, abs=1e-9)


def test_quantile_forecast_level_conflict_and_gaussian_requirements():
    # a Gaussian draw set's requested levels must lie in (0, 1)
    bdraws = _draw_set(np.zeros((2, 1, 2)))
    with pytest.raises(ValueError):
        gaussian_forecast(bdraws, np.array([[0.0]]), [1], [1.5])


def test_gaussian_predictive_quantiles_are_monotone():
    S = 200
    Phi = np.zeros((S, 2, 3))
    sigma = np.full((S, 2), 0.5)
    Lam = np.ones((S, 2, 1))
    draws = _draw_set(Phi, Lam=Lam, sigma=sigma)
    by_q = gaussian_forecast(draws, np.zeros((1, 2)), [1, 2, 3, 4], [0.1, 0.5, 0.9])
    assert set(by_q) == {0.1, 0.5, 0.9}
    assert np.all(by_q[0.1] <= by_q[0.5])
    assert np.all(by_q[0.5] <= by_q[0.9])
    # factor loading contributes Lam Lam' + diag(sigma) = 1.5 total variance at h=1
    spread = by_q[0.9][0] - by_q[0.1][0]
    expect = 2 * 1.2815515655 * np.sqrt(1.5)
    np.testing.assert_allclose(spread, expect, rtol=0.15)


@pytest.mark.parametrize("kind", ["qbvar", "bvar"])
def test_each_predictive_returns_only_the_configured_horizons(kind):
    # the horizons are rows of the forecasts through the last one, not a new simulation
    rng = np.random.default_rng(3)
    draws = _draw_set(0.3 * rng.standard_normal((50, 2, 5)), sigma=np.ones((50, 2)), p=2)
    history = rng.standard_normal((4, 2))
    every = _forecast(kind, draws, history, [1, 2, 3, 4, 5, 6], [0.1, 0.9], derive_rng(8))
    some = _forecast(kind, draws, history, [2, 6], [0.1, 0.9], derive_rng(8))
    assert list(some) == list(every)
    for q, block in some.items():
        assert block.shape == (2, 2) and block.tobytes() == every[q][[1, 5]].tobytes()


@pytest.mark.parametrize("n_bad", [0, 1])
@pytest.mark.parametrize("S", [100, 101])
@pytest.mark.parametrize("kind", ["qbvar"])
def test_forecast_quantiles_equal_the_nan_aware_reductions_bit_for_bit(kind, S, n_bad, monkeypatch):
    # np.median over the finite paths must give the bits of nanmedian over
    # all paths, a path replaced by NaN or not
    rng = np.random.default_rng(S + n_bad)
    Phi = 0.2 * rng.standard_normal((S, 3, 7))
    Phi[:n_bad] = 1e80  # overflows within a few steps
    draws = _draw_set(Phi, sigma=np.ones((S, 3)), p=2)
    history = rng.standard_normal((5, 3))
    seen = _spy_on_paths(monkeypatch)
    got = _forecast(kind, draws, history, list(range(1, 13)), [], derive_rng(9))
    (paths,) = seen
    assert np.isnan(paths).any() == bool(n_bad)
    value = np.nanmedian(paths, axis=0)
    assert list(got) == [0.5]
    assert np.isfinite(value).all() and got[0.5].tobytes() == value.tobytes()


def _var2_data(T, seed):
    """A standardised VAR(2) in three series with one common shock."""
    rng = np.random.default_rng(seed)
    A1 = np.array([[0.5, 0.1, 0.0], [0.2, 0.3, 0.1], [0.0, 0.1, 0.4]])
    Y = np.zeros((T + 50, 3))
    for t in range(2, T + 50):
        Y[t] = A1 @ Y[t - 1] - 0.2 * Y[t - 2] + 0.5 * rng.standard_normal() + 0.4 * rng.standard_normal(3)
    Y = Y[50:]
    return (Y - Y.mean(axis=0)) / Y.std(axis=0)


_LEVELS, _HORIZONS = [0.1, 0.25, 0.5, 0.75, 0.9], [1, 3, 6, 12]


def _bvar_draws(z, seed):
    """100 retained draws of a VAR(2) Gaussian chain with one factor on ``z``."""
    cfg = ModelConfig(p=2, r=1, schedule=McmcSchedule(300, 100, 2))
    draws, _ = run_bvar_chain(build_lag_design(z, 2), cfg, derive_rng(seed, 1))
    return draws


def _simulated_quantiles(draws, z, seed, calls) -> np.ndarray:
    """(levels, horizons, n) empirical quantiles of calls * PATHS_PER_DRAW paths per draw with sqrt(sigma) shocks."""
    rows = [h - 1 for h in _HORIZONS]
    paths = np.concatenate([simulate_paths(draws, z, max(_HORIZONS), np.sqrt(draws.sigma), derive_rng(seed, i))[:, rows]
                            for i in range(calls)])
    return np.quantile(paths, _LEVELS, axis=0)


def test_gaussian_forecast_is_the_quantile_of_many_simulated_paths_of_the_same_draws():
    # 2,000 paths per draw of a bvar chain's 100 draws: over held-out data and
    # chain seeds 600-619 the largest gap in the 60 (level, horizon, series)
    # cells read 0.005-0.0125 standardised units, the order-statistic noise
    # of 200,000 paths
    z = _var2_data(150, 20240601)
    draws = _bvar_draws(z, 20240601)
    exact = gaussian_forecast(draws, z, _HORIZONS, _LEVELS)
    simulated = _simulated_quantiles(draws, z, 20240602, 2000 // PATHS_PER_DRAW)
    for i, q in enumerate(_LEVELS):
        assert exact[q].shape == (4, 3)
        np.testing.assert_array_less(np.abs(exact[q] - simulated[i]), 0.02)
    for lower, upper in zip(_LEVELS, _LEVELS[1:]):
        assert np.all(exact[lower] < exact[upper])


def test_gaussian_forecast_cuts_the_seed_to_seed_sd_of_the_bvar_forecasts():
    # across 8 chain seeds on one data set, the rms over cells of the
    # forecasts' sd: with 10 simulated paths per draw (the predictive the
    # exact one replaced) it is the chains' noise plus the shocks'; on
    # held-out chain seeds 640-663 the ratio read 3.2, 3.5 and 3.7
    z = _var2_data(150, 20240603)
    exact, simulated = [], []
    for seed in range(20240610, 20240618):
        draws = _bvar_draws(z, seed)
        by_q = gaussian_forecast(draws, z, _HORIZONS, _LEVELS)
        exact.append([by_q[q] for q in _LEVELS])
        simulated.append(_simulated_quantiles(draws, z, seed, 1))
    rms_sd = [np.sqrt(np.mean(np.var(f, axis=0, ddof=1))) for f in (exact, simulated)]
    assert rms_sd[1] >= 2 * rms_sd[0]


def test_gaussian_forecast_has_each_draws_exact_moments():
    # one draw: the forecast is the normal quantile of the h-step mean and
    # variance, here from the companion form of a VAR(2) with one factor
    A1, A2 = np.array([[0.5, 0.2], [-0.3, 0.4]]), np.array([[0.1, 0.0], [0.2, -0.2]])
    c, lam, sigma = np.array([0.3, -0.1]), np.array([0.8, -0.5]), np.array([0.4, 0.9])
    draws = _draw_set(np.column_stack([c, A1, A2])[None], Lam=lam[None, :, None], sigma=sigma[None], p=2)
    history = np.array([[1.0, -2.0], [0.5, 1.5]])  # in time order
    by_q = gaussian_forecast(draws, history, list(range(1, 7)), [0.1, 0.7])
    C = np.block([[A1, A2], [np.eye(2), np.zeros((2, 2))]])
    state, cov = np.concatenate([history[1], history[0]]), np.zeros((4, 4))
    for h in range(6):
        state = C @ state + np.concatenate([c, [0.0, 0.0]])
        cov = C @ cov @ C.T
        cov[:2, :2] += np.outer(lam, lam) + np.diag(sigma)
        for q, block in by_q.items():
            for i in range(2):
                expected = NormalDist(state[i], np.sqrt(cov[i, i])).inv_cdf(q)
                assert block[h, i] == pytest.approx(expected, abs=1e-10), (h, i, q)


def test_gaussian_forecast_solves_a_bimodal_mixture():
    # draws at intercepts -5 and 5: the moment-matched start sits where the
    # mixture has almost no mass, so Newton steps leave the bracket and
    # bisection takes over; the result satisfies the mixture equation
    Phi = np.zeros((2, 1, 2))
    Phi[:, 0, 0] = [-5.0, 5.0]
    draws = _draw_set(Phi, sigma=np.full((2, 1), 0.25))
    levels = [0.05, 0.25, 0.4, 0.5, 0.6, 0.75, 0.95]
    by_q = gaussian_forecast(draws, np.zeros((1, 1)), [1], levels)
    for q in levels:
        x = by_q[q][0, 0]
        cdf = sum(0.5 * math.erfc(-(x - m) / 0.5 / math.sqrt(2.0)) for m in (-5.0, 5.0)) / 2
        assert cdf == pytest.approx(q, abs=1e-12), q
    assert all(by_q[a] < by_q[b] for a, b in zip(levels, levels[1:]))


def test_gaussian_forecast_leaves_out_explosive_draws_up_to_the_limit():
    # 3 explosive draws in 400 (0.75 %) are left out: the forecast is that
    # of the 397 finite draws, bit for bit; 5 (1.25 %) fail the origin
    draws = _explosive_mixture(n_bad=3, sigma=np.ones((400, 1)))
    finite = _draw_set(draws.Phi[3:], sigma=draws.sigma[3:])
    got = gaussian_forecast(draws, np.array([[1.0]]), [1, 6], [0.1, 0.5])
    want = gaussian_forecast(finite, np.array([[1.0]]), [1, 6], [0.1, 0.5])
    for q in (0.1, 0.5):
        assert np.isfinite(got[q]).all() and got[q].tobytes() == want[q].tobytes()
    with pytest.raises(ForecastError, match="non-finite"):
        gaussian_forecast(_explosive_mixture(n_bad=5, sigma=np.ones((400, 1))), np.array([[1.0]]), [1, 6], [0.5])


def test_forecast_set_from_columns_sorts_records_and_refuses_a_duplicate():
    # records in any order come out sorted by key
    fset = QuantileForecastSet.from_columns(
        ["a", "b"], "m", [month_index(o) for o in ("2010-06", "2010-05", "2010-05")], [1, 2, 1],
        [0.5, 0.1, 0.1], [[3.0, 4.0], [5.0, 6.0], [1.0, 2.0]])
    assert fset.model_id == "m"
    assert [fset.key(i) for i in range(len(fset))] == [
        ("m", "2010-05", 1, 0.1), ("m", "2010-05", 2, 0.1), ("m", "2010-06", 1, 0.5)]
    np.testing.assert_array_equal(fset.values, [[1.0, 2.0], [5.0, 6.0], [3.0, 4.0]])
    assert fset.quantiles() == [0.1, 0.5] and fset.horizons() == [1, 2]
    with pytest.raises(ValueError, match=r"duplicate forecast record \('m', '2010-05', 1, 0.1\)"):
        forecast_set(["a", "b"], [("m", "2010-05", 1, 0.1, [1.0, 2.0]), ("m", "2010-05", 1, 0.1, [9.0, 9.0])])


def test_from_blocks_takes_origin_months():
    blocks = [(month_index("2010-05"), 0.5, np.array([[1.0], [2.0]])),
              (month_index("2010-04"), 0.5, np.array([[3.0], [4.0]]))]
    fset = QuantileForecastSet.from_blocks(["a"], [1, 3], "m", blocks)
    assert forecast_records(fset) == {("m", "2010-04", 1, 0.5): [3.0], ("m", "2010-04", 3, 0.5): [4.0],
                                      ("m", "2010-05", 1, 0.5): [1.0], ("m", "2010-05", 3, 0.5): [2.0]}


def test_forecast_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    fset = forecast_set(["a", "b"], [("m", origin, h, q, rng.normal(size=2)) for origin in ["2010-01", "2010-02"]
                                     for h in [1, 2, 3] for q in [0.1, 0.5, 0.9]])
    path = tmp_path / "fc.csv"
    write_forecasts([fset], path)
    (back,) = read_forecasts(path)
    assert back.variable_names == fset.variable_names
    assert list(forecast_records(back)) == list(forecast_records(fset))
    np.testing.assert_array_equal(back.values, fset.values)  # 17g is lossless


def test_read_forecasts_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,origin\n")
    with pytest.raises(ValueError) as info:
        read_forecasts(path)
    assert str(info.value) == f"{path}: not a forecast file (bad header)"


def _write_rows(path, rows):
    path.write_text("\n".join(["model_id,origin,horizon,quantile,variable,value", *rows]) + "\n")


def test_read_forecasts_accepts_rows_in_any_order(tmp_path):
    # b first appears in the second record; records come out sorted by key
    path = tmp_path / "fc.csv"
    _write_rows(path, ["m,2010-02,1,0.5,a,1.5", "m,2010-01,2,0.25,b,4.0", "m,2010-01,2,0.25,a,3.0",
                       "m,2010-02,1,0.5,b,2.5"])
    (fset,) = read_forecasts(path)
    assert fset.variable_names == ["a", "b"]
    records = forecast_records(fset)
    assert list(records) == [("m", "2010-01", 2, 0.25), ("m", "2010-02", 1, 0.5)]
    np.testing.assert_array_equal(records[("m", "2010-02", 1, 0.5)], [1.5, 2.5])
    np.testing.assert_array_equal(records[("m", "2010-01", 2, 0.25)], [3.0, 4.0])


def test_read_forecasts_gives_one_set_per_model_in_id_order(tmp_path):
    # three models' records interleaved, ids out of order: one set each, sorted
    # by id, and writing the sets back gives the file's rows sorted by key
    path, back = tmp_path / "fc.csv", tmp_path / "back.csv"
    _write_rows(path, ["rw,2010-02,1,0.5,a,0", "qbvar,2010-01,1,0.5,a,1.5", "bvar,2010-02,1,0.5,a,2",
                       "rw,2010-01,1,0.5,a,0", "bvar,2010-01,1,0.5,a,2.5"])
    fsets = read_forecasts(path)
    assert [fset.model_id for fset in fsets] == ["bvar", "qbvar", "rw"]
    assert [list(forecast_records(fset)) for fset in fsets] == [
        [("bvar", "2010-01", 1, 0.5), ("bvar", "2010-02", 1, 0.5)], [("qbvar", "2010-01", 1, 0.5)],
        [("rw", "2010-01", 1, 0.5), ("rw", "2010-02", 1, 0.5)]]
    write_forecasts(fsets, back)
    assert back.read_text().splitlines() == ["model_id,origin,horizon,quantile,variable,value",
                                             "bvar,2010-01,1,0.5,a,2.5", "bvar,2010-02,1,0.5,a,2",
                                             "qbvar,2010-01,1,0.5,a,1.5", "rw,2010-01,1,0.5,a,0",
                                             "rw,2010-02,1,0.5,a,0"]
    _write_rows(path, [])
    assert read_forecasts(path) == []  # a header-only file holds no set


def test_read_forecasts_rejects_a_horizon_too_large_for_its_column(tmp_path):
    path = tmp_path / "fc.csv"
    _write_rows(path, ["m,2010-01,1,0.5,a,1.0", f"m,2010-01,{2**31},0.5,a,1.0"])
    with pytest.raises(ValueError, match=r"fc.csv, line 3: horizon must be below 2\*\*31, got 2147483648"):
        read_forecasts(path)


@pytest.mark.parametrize("rows, message", [
    # a duplicate before a bad line comes first
    (["m,2010-01,1,0.5,a,1.0", "m,2010-01,1,0.5,a,2.0", "m,2010-01,1,0.5,b,1.0", "m,2010-01,2,0.5,a,x"],
     "line 3: duplicate row for record ('m', '2010-01', 1, 0.5), variable 'a'"),
    # a bad line before a duplicate ends the parse
    (["m,2010-01,1,0.5,a,1.0", "m,2010-01,1,0.5,b,x", "m,2010-01,2,0.5,a,1.0", "m,2010-01,1,0.5,a,2.0"],
     "line 3: could not convert string to float: 'x'"),
    # a duplicate comes before an incomplete record, wherever each sits
    (["m,2010-01,1,0.5,a,1.0", "m,2010-01,1,0.5,b,1.0", "m,2010-01,2,0.5,a,1.0", "m,2010-01,1,0.5,b,2.0"],
     "line 5: duplicate row for record ('m', '2010-01', 1, 0.5), variable 'b'"),
    # an origin that is not a YYYY-MM month is a bad line
    (["m,2010-01,1,0.5,a,1.0", "m,2010-01,1,0.5,b,1.0", "m,2018-3,1,0.5,a,1.0", "m,2010-01,1,0.5,a,2.0"],
     "line 4: not an ISO month label: '2018-3'"),
    # so is a quoted origin with a trailing newline; its row ends on the next line
    (["m,2018-03,1,0.5,a,1.0", 'm,"2018-03\n",1,0.5,b,1.0'], "line 4: not an ISO month label: '2018-03\\n'"),
], ids=["duplicate-then-bad-line", "bad-line-then-duplicate", "incomplete-and-duplicate", "bad-origin",
        "origin-with-newline"])
def test_read_forecasts_reports_the_first_fault(tmp_path, rows, message):
    path = tmp_path / "fc.csv"
    _write_rows(path, rows)
    with pytest.raises(ValueError) as info:
        read_forecasts(path)
    assert str(info.value) == f"{path}, {message}"


def test_read_forecasts_peak_memory_stays_a_small_multiple_of_the_set(tmp_path):
    # a reader that holds every row as a list before building the set peaks at about 5x
    rng = np.random.default_rng(0)
    fset = forecast_set(["a", "b", "c"], [
        ("qbvar", f"{2000 + o // 12}-{o % 12 + 1:02d}", h, q, rng.normal(size=3))
        for o in range(40) for h in range(1, 13) for q in (0.1, 0.25, 0.5, 0.75, 0.9)])
    path = tmp_path / "fc.csv"
    write_forecasts([fset], path)
    del fset
    tracemalloc.start()
    try:
        (back,) = read_forecasts(path)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(back) == 2400
    assert peak <= 3.5 * size


_LEVELS = (0.1, 0.25, 0.5, 0.9)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_read_then_write_gives_the_sorted_file_byte_for_byte(data):
    # random cells of several models, 1-3 variables, rows in shuffled order:
    # the read sets, one per model in id order, hold the cells sorted by key,
    # and writing them gives the same rows sorted (variables in their order
    # of first appearance)
    names = data.draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True))
    models = data.draw(st.lists(st.sampled_from(["bvar", "comb", "qbvar", "rw"]), min_size=1, max_size=3,
                                unique=True))
    # any month of a four-digit year, so that labels sort as their months do
    origins = st.integers(month_index("1000-01"), month_index("9999-12")).map(month_label)
    cells = sorted(data.draw(st.sets(
        st.tuples(st.sampled_from(models), origins, st.integers(1, 4), st.sampled_from(_LEVELS)),
        min_size=1, max_size=30)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = np.array([[data.draw(finite) for _ in names] for _ in cells]).reshape(len(cells), len(names))
    rows = [[m, o, h, f"{q:.10g}", name, f"{v:.17g}"]
            for (m, o, h, q), vals in zip(cells, values) for name, v in zip(names, vals)]
    shuffled = data.draw(st.permutations(rows))
    first_seen = list(dict.fromkeys(row[4] for row in shuffled))
    slot = [names.index(name) for name in first_seen]

    def csv_bytes(body):
        fh = io.StringIO(newline="")
        csv.writer(fh).writerows([["model_id", "origin", "horizon", "quantile", "variable", "value"], *body])
        return fh.getvalue().encode()

    expected = [[m, o, h, f"{q:.10g}", name, f"{v:.17g}"]
                for (m, o, h, q), vals in zip(cells, values) for name, v in zip(first_seen, vals[slot])]
    with tempfile.TemporaryDirectory() as tmp:
        path, back = os.path.join(tmp, "in.csv"), os.path.join(tmp, "out.csv")
        with open(path, "wb") as fh:
            fh.write(csv_bytes(shuffled))
        fsets = read_forecasts(path)
        assert [fset.model_id for fset in fsets] == sorted({m for m, _, _, _ in cells})
        assert all(fset.variable_names == first_seen for fset in fsets)
        assert [key for fset in fsets for key in forecast_records(fset)] == cells
        assert b"".join(fset.values.tobytes() for fset in fsets) == values[:, slot].tobytes()
        write_forecasts(fsets, back)
        with open(back, "rb") as fh:
            assert fh.read() == csv_bytes(expected)
