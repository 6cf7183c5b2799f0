"""Shared builders (synthetic raw panels and experiment configs) and reference helpers."""

import json

import numpy as np
import pytest

from quantvar.combine import combination_objective
from quantvar.data import month_index, month_label
from quantvar.forecast import QuantileForecastSet, level_key, write_forecasts
from quantvar.qbvar import factor_system


def make_raw_panel(dir_path, T=64, start="2015-01", seed=42, n_companions=1):
    """Write a raw panel CSV + tcode sidecar; returns (csv_path, tcode_path).

    The target is a log-level series (tcode 5) whose growth rate follows a
    stationary AR(1); companions alternate between already-stationary
    series (tcode 2) and cumulated ones (tcode 1).
    """
    rng = np.random.default_rng(seed)
    dates = [month_label(month_index(start) + j) for j in range(T)]
    g = np.zeros(T)
    for t in range(1, T):
        g[t] = 0.3 * g[t - 1] + 0.05 * rng.standard_normal()
    cols = {"tgt": 100.0 * np.exp(np.cumsum(g))}
    tcodes = {"tgt": 5}
    for j in range(n_companions):
        name = f"c{j + 1}"
        x = np.zeros(T)
        for t in range(1, T):
            x[t] = 0.5 * x[t - 1] + 0.2 * rng.standard_normal()
        if j % 2 == 0:
            cols[name] = x
            tcodes[name] = 2
        else:
            cols[name] = np.cumsum(x)
            tcodes[name] = 1
    csv_path = dir_path / "panel.csv"
    tcode_path = dir_path / "tcodes.json"
    names = list(cols)
    with open(csv_path, "w") as fh:
        fh.write("date," + ",".join(names) + "\n")
        for i, d in enumerate(dates):
            fh.write(d + "," + ",".join(f"{cols[n][i]:.17g}" for n in names) + "\n")
    tcode_path.write_text(json.dumps(tcodes, sort_keys=True))
    return csv_path, tcode_path


def make_forecast_pair(dir_path, origins=("2017-08", "2018-03"), horizons=(1, 2),
                       quantiles=(0.25, 0.5), seed=3):
    """Write aligned qbvar.csv and bvar.csv forecasts of (tgt, c1); returns their paths.

    Every origin in the inclusive range gets every (horizon, quantile) cell,
    so with :func:`make_raw_panel`'s sample every realization is observed.
    """
    rng = np.random.default_rng(seed)
    paths = []
    for model_id in ("qbvar", "bvar"):
        records = [(model_id, month_label(i), h, q, 0.05 * rng.standard_normal(2))
                   for i in range(month_index(origins[0]), month_index(origins[1]) + 1)
                   for h in horizons for q in quantiles]
        path = str(dir_path / f"{model_id}.csv")
        write_forecasts([forecast_set(["tgt", "c1"], records)], path)
        paths.append(path)
    return paths


def forecast_set(variable_names, records) -> QuantileForecastSet:
    """The set of ``records``, one model's (model_id, origin label, horizon, quantile, values) tuples in any order."""
    (model_id,) = {r[0] for r in records}
    return QuantileForecastSet.from_columns(
        variable_names, model_id, [month_index(r[1]) for r in records],
        [r[2] for r in records], [level_key(r[3]) for r in records],
        np.reshape([np.ravel(r[4]) for r in records], (len(records), len(variable_names))),
    )


def forecast_records(fset: QuantileForecastSet) -> dict:
    """{key: values} of every record of ``fset``, keyed as :meth:`QuantileForecastSet.key` gives them."""
    return {fset.key(i): fset.values[i] for i in range(len(fset))}


def make_config_dict(
    *,
    quantiles=(0.25, 0.5),
    horizons=(1, 2),
    origins=("2017-08", "2018-03"),
    iterations=120,
    burn_in=40,
    thin=4,
    seed=20240817,
    companions=("c1",),
    combinations=None,
    p=1,
    r=0,
    eval_windows=None,
    event_windows=(),
    output_dir="out",
):
    if combinations is None:
        combinations = [
            {"strategy": "fixed", "lambda": 0.5},
            {"strategy": "performance", "window": 2},
            {"strategy": "optimal", "window": 3},
        ]
    if eval_windows is None:
        eval_windows = [{"label": "all", "start": "2015-03", "end": "2020-04"}]
    return {
        "data_file": "panel.csv",
        "tcode_file": "tcodes.json",
        "target": "tgt",
        "companions": list(companions),
        "models": {
            "qbvar": {"p": p, "r": r, "quantiles": list(quantiles)},
            "bvar": {"p": p, "r": r},
            "rw": True,
        },
        "mcmc": {"iterations": iterations, "burn_in": burn_in, "thin": thin},
        "horizons": list(horizons),
        "origins": {"start": origins[0], "end": origins[1]},
        "evaluation_windows": list(eval_windows),
        "event_windows": list(event_windows),
        "combinations": combinations,
        "benchmark": "bvar",
        "seed": seed,
        "output_dir": output_dir,
    }


@pytest.fixture
def experiment_dir(tmp_path):
    """tmp dir holding panel.csv, tcodes.json and config.json for a light run."""
    make_raw_panel(tmp_path)
    cfg = make_config_dict()
    (tmp_path / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True))
    return tmp_path


def factor_systems(design, state, theta, tau2):
    """The factors' ``factor_system`` at the current state, W and R built from it, series-major (n, T)."""
    W = 1.0 / (tau2 * state.sigma[:, None] * state.Z)
    R = design.YT - state.Phi @ design.XT - theta * state.Z
    return factor_system(state.Lam, W.T, (W * R).T)


def optimal_weight_grid(fc_a, fc_b, realized, quantile: float, S: int, step: float = 1e-4):
    """Brute-force grid minimizer of the combination objective, an independent cross-check."""
    a = np.asarray(fc_a, dtype=float)[-S:]
    b = np.asarray(fc_b, dtype=float)[-S:]
    y = np.asarray(realized, dtype=float)[-S:]
    grid = np.arange(0.0, 1.0 + step / 2, step)
    vals = np.array([combination_objective(l, a, b, y, quantile) for l in grid])
    return float(grid[int(np.argmin(vals))]), float(vals.min())
