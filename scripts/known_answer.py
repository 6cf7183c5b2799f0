"""Known-answer run: a location-scale VAR whose conditional quantiles are known.

The target y and a positive "financial conditions" series x follow

    y_t = a + b y_{t-1} + c x_{t-1} + (s0 + s1 x_{t-1}) e_t,   e_t ~ N(0, 1),
    x_t = exp(l_t + shift_t),   l_t = rho l_{t-1} + sd_x u_t,   u_t ~ N(0, 1),

where shift_t is `shift` in the months of one planted high-x episode and 0
elsewhere. Any further companions are independent AR(1) series
w_t = 0.5 w_{t-1} + 0.5 v_t that the target does not load on. Given the
month t, the true h=1 q-quantile of y is

    a + s0 z_q + b y_t + (c + s1 z_q) x_t,   z_q = Phi^-1(q),

linear in (y_t, x_t), with a slope on x that differs by level. The script
writes the panel (every series at tcode 2, so the run sees the DGP's own
values), a run config with the episode as the event window `highx`, and an
oracle forecasts CSV (model `oracle`) holding the true quantiles of every
series: exact at h=1, and the empirical quantiles of simulated DGP paths at
h>1. It then runs `run` and `evaluate` (oracle as benchmark) and prints the
qbvar hit shares, Kupiec p-values and QS ratios.

Usage:
    python3 scripts/known_answer.py --outdir runs/known_answer
    python3 scripts/known_answer.py --outdir runs/ka60 --origins 60 --iterations 1000 --burn-in 400
"""

import argparse
import contextlib
import csv
import json
import os
import shutil
import sys
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from quantvar.cli import main as cli_main
from quantvar.data import TimeSeriesPanel, month_index, month_label, write_panel
from quantvar.forecast import QuantileForecastSet, write_forecasts

LEVELS = (0.1, 0.5, 0.9)
HORIZONS = (1, 3)
START = month_index("2000-01")
# months of the panel before the first origin, and of DGP steps discarded before the panel
ESTIMATION_ROWS = 200
BURN_IN_STEPS = 100


@dataclass(frozen=True)
class LocationScaleVar:
    """The DGP above; ``episode`` is the (first, last) month of the high-x shift."""

    episode: tuple
    n_companions: int = 1
    a: float = 0.0
    b: float = 0.5
    c: float = 0.2
    s0: float = 0.1
    s1: float = 1.0
    rho: float = 0.8
    sd_x: float = 0.3
    shift: float = 1.5

    def names(self) -> list:
        return ["y", "x"] + [f"w{j}" for j in range(2, self.n_companions + 1)]

    def x_of(self, ell, month):
        return np.exp(ell + self.shift * (self.episode[0] <= month <= self.episode[1]))

    def step(self, y, ell, w, month, rng):
        """(y, l, w) of month + 1 from those of ``month``; arrays of paths, w (paths, n - 2)."""
        x = self.x_of(ell, month)
        e, u = rng.standard_normal((2,) + np.shape(y))
        y_next = self.a + self.b * y + self.c * x + (self.s0 + self.s1 * x) * e
        ell_next = self.rho * ell + self.sd_x * u
        w_next = 0.5 * w + 0.5 * rng.standard_normal(np.shape(w))
        return y_next, ell_next, w_next

    def simulate(self, T: int, seed: int) -> TimeSeriesPanel:
        """T months from START, after BURN_IN_STEPS discarded steps from zero."""
        rng = np.random.default_rng(seed)
        y, ell, w = np.zeros(1), np.zeros(1), np.zeros((1, self.n_companions - 1))
        rows = []
        for month in range(START - BURN_IN_STEPS, START + T):
            if month >= START:
                rows.append(np.concatenate([y, self.x_of(ell, month), w[0]]))
            y, ell, w = self.step(y, ell, w, month, rng)
        return TimeSeriesPanel(START, np.array(rows), self.names(), [2] * (self.n_companions + 1))

    def oracle(self, panel: TimeSeriesPanel, origins, n_paths: int, seed: int) -> QuantileForecastSet:
        """True quantiles at LEVELS x HORIZONS for every origin month in ``origins``."""
        rng = np.random.default_rng(seed)
        z = np.array([NormalDist().inv_cdf(q) for q in LEVELS])
        H = max(HORIZONS)
        blocks = []
        for origin in origins:
            y0, x0, *w0 = panel.values[origin - panel.start]
            ell0 = np.log(x0) - self.shift * (self.episode[0] <= origin <= self.episode[1])
            y, ell, w = np.full(n_paths, y0), np.full(n_paths, ell0), np.tile(w0, (n_paths, 1))
            paths = np.empty((H, n_paths, self.n_companions + 1))
            for j in range(H):
                y, ell, w = self.step(y, ell, w, origin + j, rng)
                paths[j] = np.column_stack([y, self.x_of(ell, origin + j + 1), w])
            levels = np.quantile(paths, LEVELS, axis=1)  # (Q, H, n)
            # h = 1 in closed form
            levels[:, 0, 0] = self.a + self.b * y0 + self.c * x0 + (self.s0 + self.s1 * x0) * z
            levels[:, 0, 1] = self.x_of(self.rho * ell0 + self.sd_x * z, origin + 1)
            levels[:, 0, 2:] = 0.5 * np.asarray(w0) + 0.5 * z[:, None]
            rows = [h - 1 for h in HORIZONS]
            blocks += [(origin, q, levels[i, rows]) for i, q in enumerate(LEVELS)]
        return QuantileForecastSet.from_blocks(panel.names, list(HORIZONS), "oracle", blocks)


def write_inputs(outdir, seed, n_origins, iterations, burn_in, n_companions=1, n_paths=20000) -> str:
    """Write panel.csv, tcodes.json, oracle.csv and config.json under ``outdir``; returns the config path.

    The first origin has ESTIMATION_ROWS months before it, and the panel
    ends max(HORIZONS) months after the last. x is shifted over the last two
    thirds of the origins, and the event window `highx` holds the h=1
    realizations whose x_{t-1} lies in that episode.
    """
    outdir = os.path.abspath(outdir)
    os.makedirs(outdir, exist_ok=True)
    first = START + ESTIMATION_ROWS
    last = first + n_origins - 1
    dgp = LocationScaleVar(episode=(first + n_origins // 3, last), n_companions=n_companions)
    panel = dgp.simulate(ESTIMATION_ROWS + n_origins + max(HORIZONS), seed)
    paths = {name: os.path.join(outdir, name) for name in ("panel.csv", "tcodes.json", "oracle.csv", "config.json")}
    write_panel(panel, paths["panel.csv"], paths["tcodes.json"])
    write_forecasts([dgp.oracle(panel, range(first, last + 1), n_paths, seed + 1)], paths["oracle.csv"])
    config = {
        "data_file": paths["panel.csv"],
        "tcode_file": paths["tcodes.json"],
        "target": "y",
        "companions": panel.names[1:],
        "models": {"qbvar": {"p": 1, "r": 0, "quantiles": list(LEVELS)}, "bvar": {"p": 1, "r": 0}},
        "mcmc": {"iterations": iterations, "burn_in": burn_in, "thin": 2},
        "horizons": list(HORIZONS),
        "origins": {"start": month_label(first), "end": month_label(last)},
        "evaluation_windows": [{"label": "full", "start": month_label(first + 1), "end": month_label(panel.end)}],
        "event_windows": [{"label": "highx", "start": month_label(dgp.episode[0] + 1),
                           "end": month_label(dgp.episode[1] + 1)}],
        "combinations": [{"strategy": "fixed", "lambda": 0.5}],
        "benchmark": "bvar",
        "seed": seed,
        "output_dir": os.path.join(outdir, "run"),
    }
    with open(paths["config.json"], "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    return paths["config.json"]


def run_and_evaluate(config_path) -> int:
    """`run` the config into a fresh output directory, then `evaluate` its forecasts with the oracle's."""
    with open(config_path) as fh:
        config = json.load(fh)
    run_dir = config["output_dir"]
    outdir = os.path.dirname(config_path)
    shutil.rmtree(run_dir, ignore_errors=True)
    rc = cli_main(["run", "--config", config_path])
    if rc:
        return rc
    window = config["event_windows"][0]
    forecasts = [os.path.join(run_dir, "forecasts", f) for f in sorted(os.listdir(os.path.join(run_dir, "forecasts")))]
    return cli_main(["evaluate", "--forecasts", *forecasts, os.path.join(outdir, "oracle.csv"),
                     "--data", config["data_file"], "--tcodes", config["tcode_file"], "--target", "y",
                     "--window", f"highx:{window['start']}:{window['end']}", "--benchmark", "oracle",
                     "--output-dir", os.path.join(outdir, "vs_oracle")])


def read_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="runs/known_answer")
    ap.add_argument("--seed", type=int, default=20240601)
    ap.add_argument("--origins", type=int, default=40)
    ap.add_argument("--iterations", type=int, default=400)
    ap.add_argument("--burn-in", type=int, default=200)
    ap.add_argument("--companions", type=int, default=1, help="x and this many minus one AR(1) series")
    args = ap.parse_args()

    config_path = write_inputs(args.outdir, args.seed, args.origins, args.iterations, args.burn_in, args.companions)
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):  # the commands' own tables
        rc = run_and_evaluate(config_path)
    if rc:
        return rc
    outdir = os.path.dirname(config_path)
    print("qbvar coverage of y over the full window (q, h, hits/origins, hit share, Kupiec p):")
    for r in read_rows(os.path.join(outdir, "run", "tables", "coverage__full.csv")):
        if r["model"] == "qbvar":
            print(f"  {r['quantile']:>4} {r['horizon']:>2} {r['hits']:>3}/{r['n_origins']:<3} "
                  f"{float(r['hit_share']):.3f} {float(r['kupiec_p']):.3f}")
    tables = {"qbvar/oracle full": ("vs_oracle", "ratios__full__qbvar_vs_oracle.csv"),
              "bvar/oracle full": ("vs_oracle", "ratios__full__bvar_vs_oracle.csv"),
              "qbvar/bvar highx": ("run/tables", "ratios__event_highx__qbvar_vs_bvar.csv")}
    for name, (sub, file) in tables.items():
        cells = " ".join(f"q={r['quantile']},h={r['horizon']}:{float(r['ratio']):.3f}"
                         for r in read_rows(os.path.join(outdir, sub, file)))
        print(f"QS ratio {name}: {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
