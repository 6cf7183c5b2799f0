"""End-to-end demo on simulated data.

Builds a small monthly panel (a log-level target plus stationary and
cumulated companions), writes an experiment config, then drives the CLI:
recursive estimation over ~30 origins, score/ratio tables, combination
weights, and a rerender via `report`. Everything lands under --outdir;
a rerun first removes the previous run's <outdir>/run.

Usage:
    python3 scripts/run_synthetic.py --outdir runs/demo
    python3 scripts/run_synthetic.py --outdir runs/quick --quick
"""

import argparse
import json
import os
import shutil
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from quantvar.cli import main as cli_main
from quantvar.data import TimeSeriesPanel, month_index, month_label, write_panel


def simulate_panel(T, seed):
    rng = np.random.default_rng(seed)
    # target: log level whose growth is a persistent AR(1) with occasional
    # fat-tailed shocks, so the quantile models have something asymmetric
    # to chew on
    g = np.zeros(T)
    for t in range(1, T):
        shock = rng.standard_t(df=4) * 0.03
        g[t] = 0.35 * g[t - 1] + shock
    price = 80.0 * np.exp(np.cumsum(g))
    x = np.zeros(T)
    for t in range(1, T):
        x[t] = 0.6 * x[t - 1] + 0.15 * rng.standard_normal()
    w = 0.4 * x + 0.1 * rng.standard_normal(T)
    return TimeSeriesPanel(
        month_index("2008-01"),
        np.column_stack([price, x, np.cumsum(w)]),
        ["price", "activity", "stocks"],
        [5, 2, 1],
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="runs/synthetic")
    ap.add_argument("--seed", type=int, default=20240601)
    ap.add_argument("--iterations", type=int, default=600)
    ap.add_argument("--burn-in", type=int, default=200)
    ap.add_argument("--quick", action="store_true", help="8 origins instead of 30")
    args = ap.parse_args()

    # the config resolves relative paths against its own directory, so it
    # names every file by its absolute path
    args.outdir = os.path.abspath(args.outdir)
    os.makedirs(args.outdir, exist_ok=True)
    panel = os.path.join(args.outdir, "panel.csv")
    tcodes = os.path.join(args.outdir, "tcodes.json")
    sim = simulate_panel(T=140, seed=args.seed)
    write_panel(sim, panel, tcodes)
    dates = sim.dates

    n_origins = 8 if args.quick else 30
    # leave 12 post-origin months so every horizon is realized
    last_origin = month_index(dates[-1]) - 12
    first_origin = last_origin - (n_origins - 1)

    config = {
        "data_file": panel,
        "tcode_file": tcodes,
        "target": "price",
        "companions": ["activity", "stocks"],
        "models": {
            "qbvar": {"p": 2, "r": 1, "quantiles": [0.1, 0.25, 0.5, 0.75, 0.9]},
            "bvar": {"p": 2, "r": 1},
            "rw": True,
        },
        "mcmc": {"iterations": args.iterations, "burn_in": args.burn_in, "thin": 4},
        "horizons": [1, 3, 6, 12],
        "origins": {
            "start": month_label(first_origin),
            "end": month_label(last_origin),
        },
        "evaluation_windows": [
            # differencing drops the first month, so start at dates[1]
            {"label": "full", "start": dates[1], "end": dates[-1]},
            {
                "label": "late",
                "start": month_label(month_index(dates[-1]) - 24),
                "end": dates[-1],
            },
        ],
        "event_windows": [],
        "combinations": [
            {"strategy": "fixed", "lambda": 0.5},
            {"strategy": "performance", "window": 3},
            {"strategy": "optimal", "window": 4},
        ],
        "benchmark": "bvar",
        "seed": args.seed,
        "output_dir": os.path.join(args.outdir, "run"),
    }
    config_path = os.path.join(args.outdir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)

    # `run` refuses a directory that already holds a run
    shutil.rmtree(config["output_dir"], ignore_errors=True)
    rc = cli_main(["run", "--config", config_path])
    if rc != 0:
        return rc
    run_dir = config["output_dir"]
    rc = cli_main(["report", "--run-dir", run_dir])
    if rc != 0:
        return rc

    print()
    print(f"artifacts under {run_dir}/")
    for sub in ("forecasts", "tables", "combination"):
        d = os.path.join(run_dir, sub)
        if os.path.isdir(d):
            for f in sorted(os.listdir(d)):
                print(f"  {sub}/{f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
