"""End-to-end acceptance checks.

Ten checks covering the statistical identities, sampler correctness,
scoring, combination, hygiene (no leakage), determinism and benchmark
sanity of the whole package. Each test prints a single PASS/FAIL line
(visible with ``pytest -s`` or on failure) and asserts the same
condition, so the -v test listing doubles as the acceptance report.
"""

import json
import os
import time

import numpy as np
import pytest
from scipy import stats

from quantvar.cli import _combine, _forecast_one_origin, main, parse_config
from quantvar.combine import (
    combination_objective,
    optimal_weight,
    performance_weight,
)
from quantvar.data import build_lag_design, month_index, month_label
from quantvar.dist import derive_rng, draw_from_precision_system, draw_gig_half
from quantvar.evaluation import average_qs, pinball
from quantvar.forecast import QuantileForecastSet, read_forecasts
from quantvar.qbvar import (
    McmcSchedule,
    QbvarConfig,
    QbvarState,
    QuantileLevel,
    init_state,
    run_chain,
    weighted_system,
)

from conftest import factor_systems, make_config_dict, make_raw_panel, optimal_weight_grid


def _report(name, ok, detail=""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" {detail}"
    print(line, flush=True)
    assert ok, line


def _mixture_var_data(q, Phi_true, sigma, T, seed):
    """y_t = Phi x_t + theta z_t + sqrt(tau2 sigma z_t) u_t, z ~ Exp(1)."""
    level = QuantileLevel(q)
    n = Phi_true.shape[0]
    p = (Phi_true.shape[1] - 1) // n
    rng = np.random.default_rng(seed)
    Y = np.zeros((T + 100, n))
    for t in range(p, T + 100):
        lags = Y[t - 1: t - p - 1: -1].ravel() if p > 1 else Y[t - 1]
        x = np.concatenate([[1.0], lags])
        z = rng.exponential(1.0, size=n)
        u = rng.standard_normal(n)
        Y[t] = Phi_true @ x + level.theta * z + np.sqrt(level.tau2 * sigma * z) * u
    return Y[100:]


# ---------------------------------------------------------------------------
# 1. the scale-mixture error has its q-quantile at zero


def test_01_mixture_quantile_identity():
    # v = theta z + eps, eps | z ~ N(0, tau^2 z sigma), with the mixing
    # variable carrying the scale: z ~ Exp(mean sigma). This is the
    # location-scale mixture of an asymmetric Laplace with scale sigma,
    # whose q-quantile is 0 by construction for every sigma.
    t0 = time.time()
    rng = np.random.default_rng(101)
    N = 1_000_000
    worst = 0.0
    for q in (0.05, 0.1, 0.5, 0.9, 0.95):
        level = QuantileLevel(q)
        for sigma in (0.5, 1.0, 2.0):
            z = rng.exponential(sigma, N)
            u = rng.standard_normal(N)
            v = level.theta * z + np.sqrt(level.tau2 * z * sigma) * u
            emp = float(np.quantile(v, q))
            lo, hi = np.quantile(v, [q - 0.005, q + 0.005])
            density = 0.01 / (hi - lo)  # local density at the q-quantile
            se = np.sqrt(q * (1.0 - q) / N) / density
            worst = max(worst, abs(emp) / (3.0 * se))
    elapsed = time.time() - t0
    _report(
        "1 mixture q-quantile is zero",
        worst <= 1.0 and elapsed < 30.0,
        f"(max |dev|/3SE = {worst:.2f}, {elapsed:.1f}s)",
    )


def test_01_note_scale_rides_with_the_mixing_law():
    # Documentation of the convention above: putting the scale only in the
    # conditional variance while keeping a unit-mean mixing variable moves
    # the q-quantile off zero, because the asymmetry-to-noise ratio
    # k = theta/(tau sqrt(sigma)) then varies with sigma. Closed form:
    # P(v <= 0) = (1 - k/sqrt(k^2 + 2))/2, which equals q only at sigma = 1
    # (or q = 1/2). The simulation matches the closed form, not q.
    rng = np.random.default_rng(111)
    N = 400_000
    max_break = 0.0
    for q, sigma in [(0.1, 0.5), (0.1, 2.0), (0.9, 0.5), (0.9, 2.0)]:
        level = QuantileLevel(q)
        z = rng.exponential(1.0, N)  # unit mean regardless of sigma
        u = rng.standard_normal(N)
        v = level.theta * z + np.sqrt(level.tau2 * z * sigma) * u
        k = level.theta / np.sqrt(level.tau2 * sigma)
        p_neg = 0.5 * (1.0 - k / np.sqrt(k * k + 2.0))
        emp = float(np.mean(v <= 0.0))
        assert abs(emp - p_neg) < 0.005  # simulation agrees with closed form
        assert abs(p_neg - q) > 0.01  # and the identity genuinely breaks
        max_break = max(max_break, abs(p_neg - q))
    _report(
        "1-note naive scale placement breaks the identity",
        True,
        f"(largest P(v<=0) shift {max_break:.3f}; hence the mean-sigma mixing law)",
    )


# ---------------------------------------------------------------------------
# 2. the sampler recovers known quantile-specific coefficients


def test_02_sampler_recovers_known_coefficients():
    # the intercepts offset the theta E[z] shift of the mixture so the
    # simulated process is centered; otherwise the huge regressor means
    # leak lag-coefficient noise into the intercept estimate
    lags = np.array([[0.5, 0.1], [0.15, 0.3]])
    worst = 0.0
    slowest = 0.0
    for qi, q in enumerate((0.1, 0.5, 0.9)):
        level = QuantileLevel(q)
        Phi_true = np.column_stack([np.array([0.25, -0.15]) - level.theta, lags])
        Y = _mixture_var_data(q, Phi_true, sigma=0.3, T=1500, seed=200 + qi)
        design = build_lag_design(Y, 1)
        cfg = QbvarConfig(p=1, r=0, quantile=q, schedule=McmcSchedule(3000, 1000, 5))
        t0 = time.time()
        draws, _ = run_chain(design, cfg, derive_rng(77, qi))
        dt = time.time() - t0
        slowest = max(slowest, dt)
        err = float(np.max(np.abs(np.median(draws.Phi, axis=0) - Phi_true)))
        worst = max(worst, err)
    _report(
        "2 coefficient recovery at q=0.1/0.5/0.9",
        worst <= 0.1 and slowest < 120.0,
        f"(max |median-truth| = {worst:.3f}, slowest chain {slowest:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 3. the p=1/2 generalized-inverse-Gaussian sampler is exact


def test_03_gig_sampler_moments_and_distribution():
    rng = np.random.default_rng(303)
    N = 1_000_000
    x = draw_gig_half(np.full(N, 1.0), np.full(N, 4.0), rng)
    mean = float(x.mean())
    se = float(x.std(ddof=1) / np.sqrt(N))
    mean_ok = abs(mean - 0.75) <= 3.0 * se

    pairs = [
        (0.1, 0.5), (1.0, 1.0), (1.0, 4.0), (4.0, 1.0), (0.01, 10.0),
        (10.0, 0.01), (2.0, 8.0), (5.0, 5.0), (0.5, 0.2), (3.0, 0.7),
    ]
    M = 500_000
    worst_ks = 0.0
    for i, (a, b) in enumerate(pairs):
        mine = draw_gig_half(np.full(M, a), np.full(M, b), rng)
        # reference: an independent rejection-based sampler of the same law
        ref = stats.geninvgauss.rvs(
            0.5, np.sqrt(a * b), scale=np.sqrt(a / b), size=M,
            random_state=np.random.default_rng(9000 + i),
        )
        ks = float(stats.ks_2samp(mine, ref).statistic)
        worst_ks = max(worst_ks, ks)
    _report(
        "3 GIG(1/2) sampler exactness",
        mean_ok and worst_ks < 0.005,
        f"(mean {mean:.5f} vs 0.75 +- {3 * se:.5f}, max KS {worst_ks:.4f})",
    )


# ---------------------------------------------------------------------------
# 4. Gibbs conditionals match closed-form conjugate posteriors


def test_04_conjugate_posterior_means():
    rng = np.random.default_rng(404)
    T, n, p, r = 40, 3, 2, 2
    k = n * p + 1
    Y = rng.standard_normal((T, n))
    design = build_lag_design(Y, p)
    Td = design.n_obs
    cfg = QbvarConfig(p=p, r=r, quantile=0.3, schedule=McmcSchedule(10, 2, 1))
    state = init_state(design, cfg)
    state.Z = np.ones((n, Td))  # z fixed at 1, series-major
    state.psi = rng.uniform(0.5, 2.0, size=(n, k))  # shrinkage fixed
    state.kappa = 0.8
    state.sigma = rng.uniform(0.5, 2.0, size=n)
    state.Lam = rng.standard_normal((n, r))
    state.F = rng.standard_normal((Td, r))
    level = QuantileLevel(0.3)
    theta, tau2 = level.theta, level.tau2
    worst = 0.0

    # coefficient rows: mean = (X'WX + V^-1)^-1 X'W ytil, computed densely
    X = design.X
    FLt = state.F @ state.Lam.T
    for i in range(n):
        w = 1.0 / (tau2 * state.sigma[i] * state.Z[i])
        ytil = design.Y[:, i] - FLt[:, i] - theta * state.Z[i]
        prior = 1.0 / (state.psi[i] ** 2 * state.kappa ** 2)
        P, rhs = weighted_system(X, ytil, w, prior)
        _, mean = draw_from_precision_system(P, rhs, np.random.default_rng(0))
        dense = np.linalg.inv(X.T @ np.diag(w) @ X + np.diag(prior)) @ (X.T @ np.diag(w) @ ytil)
        worst = max(worst, float(np.max(np.abs(mean - dense))))

    # loading rows: prior I_r
    XPhit = X @ state.Phi.T
    for i in range(n):
        w = 1.0 / (tau2 * state.sigma[i] * state.Z[i])
        ytil = design.Y[:, i] - XPhit[:, i] - theta * state.Z[i]
        P, rhs = weighted_system(state.F, ytil, w, np.ones(r))
        _, mean = draw_from_precision_system(P, rhs, np.random.default_rng(0))
        dense = np.linalg.inv(state.F.T @ np.diag(w) @ state.F + np.eye(r)) @ (
            state.F.T @ np.diag(w) @ ytil
        )
        worst = max(worst, float(np.max(np.abs(mean - dense))))

    # factor systems: per-t mean (Lam' W_t Lam + I)^-1 Lam' W_t resid_t
    P, rhs = factor_systems(design, state, theta, tau2)
    means = np.linalg.solve(P, rhs[..., None])[..., 0]
    W = 1.0 / (tau2 * state.sigma[None, :] * state.Z.T)
    R = design.Y - X @ state.Phi.T - theta * state.Z.T
    for t in range(Td):
        dense = np.linalg.inv(
            state.Lam.T @ np.diag(W[t]) @ state.Lam + np.eye(r)
        ) @ (state.Lam.T @ (W[t] * R[t]))
        worst = max(worst, float(np.max(np.abs(means[t] - dense))))

    _report("4 conjugate posterior means", worst <= 1e-8, f"(max |diff| = {worst:.2e})")


# ---------------------------------------------------------------------------
# 5. pinball loss exactness and averaging


def test_05_pinball_loss_and_averages():
    exact = pinball(-2.0, 0.1) / pinball(2.0, 0.1) == 9.0

    rng = np.random.default_rng(505)
    from quantvar.data import TimeSeriesPanel, TransformCode

    T = 60
    y = rng.standard_normal(T)
    start = month_index("2000-01")
    panel = TimeSeriesPanel(
        dates=[month_label(start + j) for j in range(T)],
        values=y[:, None],
        names=["v"],
        tcodes=[TransformCode.LEVEL],
    )
    fset = QuantileForecastSet(variable_names=["v"])
    preds = {}
    origins = [month_label(start + j) for j in range(10, 40)]
    for h in (1, 4):
        for q in (0.1, 0.5, 0.9):
            for o in origins:
                v = float(rng.normal())
                preds[(o, h, q)] = v
                fset.add("m", o, h, q, np.array([v]))
    table = average_qs(fset, panel, "v")
    worst = 0.0
    for h in (1, 4):
        for q in (0.1, 0.5, 0.9):
            brute = []
            for o in origins:
                u = y[month_index(o) + h - start] - preds[(o, h, q)]
                brute.append(u * (q - 1.0) if u < 0 else u * q)
            worst = max(worst, abs(table.score("m", q, h) - float(np.mean(brute))))
    _report(
        "5 pinball loss exactness",
        exact and worst <= 1e-14,
        f"(asymmetry ratio exact: {exact}, max avg diff = {worst:.2e})",
    )


# ---------------------------------------------------------------------------
# 6. combination weights: endpoints, relative weights, exact optimizer


def test_06_combination_strategies():
    # endpoint identity: lam = 1 returns the first model, lam = 0 the second
    cells = {(month_label(month_index("2010-01") + j), 1, 0.5): float(j) for j in range(6)}
    fa = QuantileForecastSet(variable_names=["v"])
    fb = QuantileForecastSet(variable_names=["v"])
    for (o, h, q), v in cells.items():
        fa.add("a", o, h, q, np.array([v]))
        fb.add("b", o, h, q, np.array([10.0 - v]))
    # the fixed-weight path of `run` and `quantvar combine`
    at_one = _combine(fa, "a", fb, "b", "fixed", 1.0, "comb_fixed", None, None)[0]
    at_zero = _combine(fa, "a", fb, "b", "fixed", 0.0, "comb_fixed", None, None)[0]
    end_ok = all(
        np.array_equal(at_one.get("comb_fixed", o, h, q), fa.get("a", o, h, q))
        and np.array_equal(at_zero.get("comb_fixed", o, h, q), fb.get("b", o, h, q))
        for (o, h, q) in cells
    )

    perf_ok = performance_weight([1.0] * 50, [3.0] * 50, 50) == (0.75, False)

    rng = np.random.default_rng(606)
    opt_ok = True
    worst_gap = 0.0
    for _ in range(100):
        S = int(rng.integers(5, 75))
        q = float(rng.uniform(0.05, 0.95))
        y = rng.normal(size=S)
        a = y + rng.normal(scale=rng.uniform(0.2, 1.5), size=S)
        b = y + rng.normal(scale=rng.uniform(0.2, 1.5), size=S)
        lam, _ = optimal_weight(a, b, y, q, S)
        val = combination_objective(lam, a, b, y, q)
        _, grid_val = optimal_weight_grid(a, b, y, q, S, step=1e-4)
        gap = abs(val - grid_val)
        worst_gap = max(worst_gap, gap)
        if gap > 1e-3 or val > grid_val + 1e-12:
            opt_ok = False
        # never worse than either pure model on the training window
        if val > combination_objective(0.0, a, b, y, q) + 1e-12:
            opt_ok = False
        if val > combination_objective(1.0, a, b, y, q) + 1e-12:
            opt_ok = False
    _report(
        "6 combination weighting",
        end_ok and perf_ok and opt_ok,
        f"(endpoints {end_ok}, trailing weight {perf_ok}, optimizer max gap {worst_gap:.2e})",
    )


# ---------------------------------------------------------------------------
# 7. quantile antisymmetry: fitting q on y mirrors fitting 1-q on -y


def test_07_quantile_antisymmetry():
    # centered construction as in the recovery test; both chains consume
    # the same random stream (common random numbers) so the comparison
    # isolates the q <-> 1-q symmetry rather than Monte-Carlo wobble
    level = QuantileLevel(0.1)
    lags = np.array([[0.5, 0.1], [0.2, 0.4]])
    Phi_true = np.column_stack([np.array([0.3, -0.2]) - level.theta, lags])
    Y = _mixture_var_data(0.1, Phi_true, sigma=0.3, T=1500, seed=707)
    sched = McmcSchedule(1500, 500, 5)

    design_pos = build_lag_design(Y, 1)
    cfg_pos = QbvarConfig(p=1, r=0, quantile=0.1, schedule=sched)
    draws_pos, _ = run_chain(design_pos, cfg_pos, derive_rng(71, 0))
    med_pos = np.median(draws_pos.Phi, axis=0)

    design_neg = build_lag_design(-Y, 1)
    cfg_neg = QbvarConfig(p=1, r=0, quantile=0.9, schedule=sched)
    draws_neg, _ = run_chain(design_neg, cfg_neg, derive_rng(71, 0))
    med_neg = np.median(draws_neg.Phi, axis=0)

    icpt_gap = float(np.max(np.abs(med_pos[:, 0] + med_neg[:, 0])))
    lag_gap = float(np.max(np.abs(med_pos[:, 1:] - med_neg[:, 1:])))
    _report(
        "7 antisymmetry across quantiles",
        icpt_gap <= 0.05 and lag_gap <= 0.05,
        f"(intercept gap {icpt_gap:.3f}, lag gap {lag_gap:.3f})",
    )


# ---------------------------------------------------------------------------
# 8. no information leaks across the forecast origin


def test_08_no_leakage_past_origin():
    raw = {
        "data_file": "unused.csv",
        "tcode_file": "unused.json",
        "target": "y0",
        "companions": ["y1"],
        "models": {
            "qbvar": {"p": 1, "r": 0, "quantiles": [0.25, 0.75]},
            "bvar": {"p": 1, "r": 0},
            "rw": True,
        },
        "mcmc": {"iterations": 150, "burn_in": 50, "thin": 4},
        "horizons": [1, 3],
        "seed": 88,
        "output_dir": "unused",
    }
    cfg = parse_config(raw)
    rng = np.random.default_rng(808)
    T = 70
    values = rng.standard_normal((T, 2)).cumsum(axis=0) * 0.1
    start = month_index("2000-01")
    dates = [month_label(start + j) for j in range(T)]
    cut = 49
    origin = dates[cut]

    _, records_a, err_a = _forecast_one_origin((origin, 3, dates, values, ["y0", "y1"], cfg))
    tampered = values.copy()
    tampered[cut + 1:] = 1e6 * rng.standard_normal((T - cut - 1, 2))
    _, records_b, err_b = _forecast_one_origin((origin, 3, dates, tampered, ["y0", "y1"], cfg))

    ok = err_a is None and err_b is None and records_a.keys() == records_b.keys()
    if ok:
        ok = all(np.array_equal(records_a[k], records_b[k]) for k in records_a)
    _report(
        "8 forecasts ignore post-origin data",
        ok,
        f"({len(records_a or {})} records bit-identical after tampering)",
    )


# ---------------------------------------------------------------------------
# 9. a full recursive experiment is byte-for-byte reproducible


def test_09_end_to_end_determinism(tmp_path):
    t0 = time.time()
    make_raw_panel(tmp_path, T=64, n_companions=2, seed=99)
    raw = make_config_dict(
        quantiles=(0.25, 0.5, 0.75),
        horizons=(1, 2),
        origins=("2016-11", "2019-04"),
        iterations=400,
        burn_in=150,
        thin=5,
        p=2,
        r=1,
        seed=31415,
        combinations=[
            {"strategy": "fixed", "lambda": 0.5},
            {"strategy": "performance", "window": 5},
            {"strategy": "optimal", "window": 8},
        ],
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw, indent=2, sort_keys=True))

    rc1 = main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "r1")])
    rc2 = main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "r2")])
    ok = rc1 == 0 and rc2 == 0
    m1 = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    n_diff = 0
    if ok:
        ok = m1["n_origins"] == 30 and m1["n_aborted"] == 0
        files = list(m1["files"]) + ["manifest.json"]
        for rel in files:
            if (tmp_path / "r1" / rel).read_bytes() != (tmp_path / "r2" / rel).read_bytes():
                n_diff += 1
        ok = ok and n_diff == 0
    elapsed = time.time() - t0
    ok = ok and elapsed < 900.0
    _report(
        "9 byte-identical reruns",
        ok,
        f"({len(m1.get('files', {})) + 1} files compared, {n_diff} differ, {elapsed:.0f}s)",
    )


# ---------------------------------------------------------------------------
# 10. on symmetric Gaussian data the median-quantile model matches the
#     Gaussian benchmark


def test_10_benchmark_parity_on_gaussian_data(tmp_path):
    rng = np.random.default_rng(1010)
    T = 192
    A = np.array([[0.5, 0.1], [0.2, 0.3]])
    c = np.array([0.3, -0.2])
    chol = np.diag([0.5, 0.4])
    Y = np.zeros((T + 50, 2))
    for t in range(1, T + 50):
        Y[t] = c + A @ Y[t - 1] + chol @ rng.standard_normal(2)
    Y = Y[50:]
    start = month_index("2004-01")
    with open(tmp_path / "panel.csv", "w") as fh:
        fh.write("date,tgt,c1\n")
        for j in range(T):
            fh.write(f"{month_label(start + j)},{Y[j, 0]:.17g},{Y[j, 1]:.17g}\n")
    (tmp_path / "tcodes.json").write_text(json.dumps({"tgt": 2, "c1": 2}))
    raw = make_config_dict(
        quantiles=(0.5,),
        horizons=(1,),
        origins=("2011-08", "2019-11"),
        iterations=300,
        burn_in=100,
        thin=4,
        seed=2718,
        combinations=[],
        eval_windows=[{"label": "all", "start": "2004-01", "end": "2019-12"}],
    )
    raw["models"].pop("rw")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw, indent=2, sort_keys=True))
    rc = main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out")])
    assert rc == 0

    import csv

    with open(tmp_path / "out" / "tables" / "ratios__all__qbvar_vs_bvar.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    cell = {
        (r[header.index("quantile")], r[header.index("horizon")]): float(r[header.index("ratio")])
        for r in rows[1:]
    }
    ratio = cell[("0.5", "1")]
    n_origins = month_index("2019-11") - month_index("2011-08") + 1
    _report(
        "10 Gaussian-data parity with the benchmark",
        0.9 <= ratio <= 1.1 and n_origins == 100,
        f"(median QS ratio {ratio:.4f} over {n_origins} origins)",
    )
