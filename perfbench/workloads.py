"""Seeded input generation for the four benchmark workloads.

Every workload is a list of ``quantvar`` CLI invocations plus the files they
read. ``build(name, seed, workdir)`` writes those files under ``workdir``
and returns a :class:`Workload`; nothing here imports quantvar, so the
program under test receives only the generated files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

DEMO_SEED = 20240601


@dataclass
class Workload:
    name: str
    seed: int
    workdir: str
    commands: list  # argv lists passed to quantvar.cli.main, in order
    env: dict  # extra environment for the job process
    panel: str  # panel CSV, tcode JSON and variables loaded during set-up
    tcodes: str
    variables: list
    config: str | None = None  # experiment config for `run` workloads
    run_dir: str | None = None
    # what the output checks and the projection need to know
    models: list = field(default_factory=list)
    quantiles: list = field(default_factory=list)
    horizons: list = field(default_factory=list)
    n_origins: int = 0
    chains_per_origin: int = 0
    iterations: int = 0
    outputs: dict = field(default_factory=dict)  # rescore: named output paths
    pace: list = field(default_factory=list)  # functions called once per unit step


def month_index(label: str) -> int:
    year, month = label.split("-")
    return int(year) * 12 + int(month) - 1


def month_label(index: int) -> str:
    year, month = divmod(index, 12)
    return f"{year:04d}-{month + 1:02d}"


def _write_panel(path, tcode_path, start: str, cols: dict, tcodes: dict) -> list:
    T = len(next(iter(cols.values())))
    dates = [month_label(month_index(start) + j) for j in range(T)]
    names = list(cols)
    with open(path, "w") as fh:
        fh.write("date," + ",".join(names) + "\n")
        for i, d in enumerate(dates):
            fh.write(d + "," + ",".join(f"{cols[n][i]:.17g}" for n in names) + "\n")
    with open(tcode_path, "w") as fh:
        json.dump(tcodes, fh, sort_keys=True)
    return dates


def _demo_series(T: int, rng: np.random.Generator):
    """The quick demo's three-series DGP (same draws, same order).

    Returns level columns, tcodes and the stationary processes (g, x, w) that
    the transformed series equal.
    """
    g = np.zeros(T)
    for t in range(1, T):
        shock = rng.standard_t(df=4) * 0.03
        g[t] = 0.35 * g[t - 1] + shock
    x = np.zeros(T)
    for t in range(1, T):
        x[t] = 0.6 * x[t - 1] + 0.15 * rng.standard_normal()
    w = 0.4 * x + 0.1 * rng.standard_normal(T)
    cols = {"price": 80.0 * np.exp(np.cumsum(g)), "activity": x, "stocks": np.cumsum(w)}
    tcodes = {"price": 5, "activity": 2, "stocks": 1}
    return cols, tcodes, (g, x, w)


def _write_config(workdir: str, config: dict) -> str:
    path = os.path.join(workdir, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    return path


def _demo_quick(seed: int, workdir: str, threads: int) -> Workload:
    """`run` + `report` on the quick synthetic demo (8 origins, 600 sweeps)."""
    panel, tcodes = os.path.join(workdir, "panel.csv"), os.path.join(workdir, "tcodes.json")
    cols, tc, _ = _demo_series(140, np.random.default_rng(seed))
    dates = _write_panel(panel, tcodes, "2008-01", cols, tc)
    last_origin = month_index(dates[-1]) - 12
    quantiles = [0.1, 0.25, 0.5, 0.75, 0.9]
    config = {
        "data_file": "panel.csv",
        "tcode_file": "tcodes.json",
        "target": "price",
        "companions": ["activity", "stocks"],
        "models": {
            "qbvar": {"p": 2, "r": 1, "quantiles": quantiles},
            "bvar": {"p": 2, "r": 1},
            "rw": True,
        },
        "mcmc": {"iterations": 600, "burn_in": 200, "thin": 4},
        "horizons": [1, 3, 6, 12],
        "origins": {"start": month_label(last_origin - 7), "end": month_label(last_origin)},
        "evaluation_windows": [
            {"label": "full", "start": dates[1], "end": dates[-1]},
            {"label": "late", "start": month_label(month_index(dates[-1]) - 24), "end": dates[-1]},
        ],
        "event_windows": [],
        "combinations": [
            {"strategy": "fixed", "lambda": 0.5},
            {"strategy": "performance", "window": 10},
            {"strategy": "optimal", "window": 12},
        ],
        "benchmark": "bvar",
        "seed": seed,
        "output_dir": "run",
    }
    config_path = _write_config(workdir, config)
    run_dir = os.path.join(workdir, "run")
    return Workload(
        name="demo_quick" if threads == 1 else f"demo_quick_par{threads}",
        seed=seed,
        workdir=workdir,
        commands=[["run", "--config", config_path], ["report", "--run-dir", run_dir]],
        env={"QUANTVAR_THREADS": str(threads)},
        panel=panel,
        tcodes=tcodes,
        variables=["price", "activity", "stocks"],
        config=config_path,
        run_dir=run_dir,
        models=["qbvar", "bvar", "rw", "comb_fixed_0.5", "comb_perf", "comb_opt"],
        quantiles=quantiles,
        horizons=[1, 3, 6, 12],
        n_origins=8,
        chains_per_origin=len(quantiles) + 1,
        iterations=600,
        pace=["quantvar.qbvar.step_coefficients"],
    )


WIDE_ORIGINS = 2


def _wide_var(seed: int, workdir: str) -> Workload:
    """One `run` of an 8-series VAR(6) with about 200 estimation rows."""
    rng = np.random.default_rng(seed)
    p, rows, H = 6, 200, 12
    T = 1 + p + rows + (WIDE_ORIGINS - 1) + H  # +1 for the differencing
    # one persistent common factor plus AR(1) idiosyncratic parts
    f = np.zeros(T)
    e = np.zeros((T, 8))
    rho = np.linspace(0.2, 0.6, 8)
    load = np.linspace(0.3, 1.0, 8)
    for t in range(1, T):
        f[t] = 0.7 * f[t - 1] + rng.standard_normal()
        e[t] = rho * e[t - 1] + rng.standard_normal(8)
    s = 0.01 * (load * f[:, None] + e)  # stationary, monthly-growth sized
    s[:, 0] += 0.01 * rng.standard_t(df=4, size=T)  # fat-tailed target
    names = ["price"] + [f"c{j}" for j in range(1, 8)]
    codes = [5, 2, 1, 2, 5, 1, 2, 1]
    cols, tcodes = {}, {}
    for j, (name, code) in enumerate(zip(names, codes)):
        if code == 5:
            cols[name] = 100.0 * np.exp(np.cumsum(s[:, j]))
        elif code == 1:
            cols[name] = np.cumsum(s[:, j])
        else:
            cols[name] = s[:, j]
        tcodes[name] = code
    panel, tcp = os.path.join(workdir, "panel.csv"), os.path.join(workdir, "tcodes.json")
    dates = _write_panel(panel, tcp, "2000-01", cols, tcodes)
    last_origin = month_index(dates[-1]) - H
    quantiles = [0.1, 0.5, 0.9]
    config = {
        "data_file": "panel.csv",
        "tcode_file": "tcodes.json",
        "target": "price",
        "companions": names[1:],
        "models": {"qbvar": {"p": p, "r": 1, "quantiles": quantiles}, "bvar": {"p": p, "r": 1}},
        "mcmc": {"iterations": 600, "burn_in": 200, "thin": 4},
        "horizons": list(range(1, H + 1)),
        "origins": {
            "start": month_label(last_origin - WIDE_ORIGINS + 1),
            "end": month_label(last_origin),
        },
        "evaluation_windows": [{"label": "full", "start": dates[1], "end": dates[-1]}],
        "event_windows": [],
        "combinations": [],
        "benchmark": "bvar",
        "seed": seed,
        "output_dir": "run",
    }
    config_path = _write_config(workdir, config)
    return Workload(
        name="wide_var",
        seed=seed,
        workdir=workdir,
        commands=[["run", "--config", config_path]],
        env={"QUANTVAR_THREADS": "1"},
        panel=panel,
        tcodes=tcp,
        variables=names,
        config=config_path,
        run_dir=os.path.join(workdir, "run"),
        models=["qbvar", "bvar"],
        quantiles=quantiles,
        horizons=list(range(1, H + 1)),
        n_origins=WIDE_ORIGINS,
        chains_per_origin=len(quantiles) + 1,
        iterations=600,
        pace=["quantvar.qbvar.step_coefficients"],
    )


RESCORE_FIRST, RESCORE_LAST = "2008-01", "2025-02"  # the paper's 206 origins


def _write_forecast_csv(path, model_id, origins, horizons, quantiles, names, value) -> None:
    """Forecast CSV in quantvar's layout; value(oi, h, q, j) gives each cell."""
    with open(path, "w") as fh:
        fh.write("model_id,origin,horizon,quantile,variable,value\n")
        for oi, origin in enumerate(origins):
            for h in horizons:
                for q in quantiles:
                    for j, name in enumerate(names):
                        fh.write(f"{model_id},{origin},{h},{q:.10g},{name},{value(oi, h, q, j):.17g}\n")


def _rescore_206(seed: int, workdir: str) -> Workload:
    """Score and combine stored forecasts for 206 origins; no sampling."""
    rng = np.random.default_rng(seed)
    start = "2000-01"
    T = month_index(RESCORE_LAST) + 12 - month_index(start) + 1
    cols, tc, (g, x, _) = _demo_series(T, rng)
    panel, tcodes = os.path.join(workdir, "panel.csv"), os.path.join(workdir, "tcodes.json")
    _write_panel(panel, tcodes, start, cols, tc)
    names = ["price", "activity", "stocks"]
    first = month_index(RESCORE_FIRST) - month_index(start)
    origins = [month_label(month_index(RESCORE_FIRST) + i) for i in range(206)]
    horizons = list(range(1, 13))
    quantiles = [0.1, 0.25, 0.5, 0.75, 0.9]
    z = {q: NormalDist().inv_cdf(q) for q in quantiles}
    # AR forecasts of the stationary processes, which the transformed series
    # equal: price growth g (AR 0.35), activity x (AR 0.6), stocks diff w
    sd = np.array([0.045, 0.19, 0.13])
    qnoise = rng.standard_normal((206, 12, len(quantiles), 3)) * 0.1

    def centre(oi, h, j):
        t = first + oi
        return [0.35**h * g[t], 0.6**h * x[t], 0.4 * 0.6**h * x[t]][j]

    def qbvar_value(oi, h, q, j):
        qi = quantiles.index(q)
        return centre(oi, h, j) + sd[j] * (z[q] * 1.1 + qnoise[oi, h - 1, qi, j])

    def bvar_value(oi, h, q, j):
        return 1.05 * centre(oi, h, j) + sd[j] * z[q]  # monotone in q by construction

    fq, fb = os.path.join(workdir, "qbvar.csv"), os.path.join(workdir, "bvar.csv")
    _write_forecast_csv(fq, "qbvar", origins, horizons, quantiles, names, qbvar_value)
    _write_forecast_csv(fb, "bvar", origins, horizons, quantiles, names, bvar_value)
    data = ["--data", panel, "--tcodes", tcodes]
    out = {
        "qbvar": fq,
        "bvar": fb,
        "comb_perf": os.path.join(workdir, "comb_perf.csv"),
        "comb_opt": os.path.join(workdir, "comb_opt.csv"),
        "weights_perf": os.path.join(workdir, "weights_perf.csv"),
        "weights_opt": os.path.join(workdir, "weights_opt.csv"),
        "tables": os.path.join(workdir, "tables"),
    }
    commands = []
    for strategy, window, tag in (("performance", 50, "perf"), ("optimal", 75, "opt")):
        commands.append(
            ["combine", "--forecasts-a", fq, "--forecasts-b", fb, "--strategy", strategy,
             "--window", str(window), *data, "--target", "price", "--model-id", f"comb_{tag}",
             "--output", out[f"comb_{tag}"], "--weights-output", out[f"weights_{tag}"]]
        )
    commands.append(
        ["evaluate", "--forecasts", fq, fb, *data, "--target", "price",
         "--window", f"main:{RESCORE_FIRST}:{RESCORE_LAST}", "--window", f"recent:2013-01:{RESCORE_LAST}",
         "--benchmark", "bvar", "--output-dir", out["tables"]]
    )
    return Workload(
        name="rescore_206",
        seed=seed,
        workdir=workdir,
        commands=commands,
        env={"QUANTVAR_THREADS": "1"},
        panel=panel,
        tcodes=tcodes,
        variables=names,
        models=["qbvar", "bvar"],
        quantiles=quantiles,
        horizons=horizons,
        n_origins=206,
        outputs=out,
        pace=["quantvar.cli.performance_weight", "quantvar.cli.optimal_weight"],
    )


GENERATORS = {
    "demo_quick": lambda seed, wd: _demo_quick(seed, wd, threads=1),
    "demo_quick_par2": lambda seed, wd: _demo_quick(seed, wd, threads=2),
    "wide_var": _wide_var,
    "rescore_206": _rescore_206,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    if name not in GENERATORS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(GENERATORS)}")
    os.makedirs(workdir, exist_ok=True)
    return GENERATORS[name](seed, workdir)
