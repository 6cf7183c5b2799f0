"""A recursive run against a known answer: the DGP of scripts/known_answer.py.

The target's true conditional quantiles are linear in (y_{t-1}, x_{t-1}),
with a slope on the positive series x that differs by level, and the
oracle forecasts hold them (exact at h=1, simulated at h=3). One `run`
(n=2, p=1, r=0, 40 origins, 400 iterations) and one `evaluate` with the
oracle as benchmark serve every check. The bands were fixed from seeds
101-120, which this test does not use; at 40 origins the q=0.1 high-x
check held at 19 of them (at 12 origins, with 6 high-x realizations, it
held at 4 of 10).
"""

import csv
import importlib.util
import pathlib

import numpy as np
import pytest

from quantvar.cli import _MODEL_SEED_INDEX, _STAGE_CHAIN, _load_panel, _payload, load_config
from quantvar.data import build_lag_design
from quantvar.dist import derive_rng
from quantvar.qbvar import run_chain

_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "known_answer.py"
SEED = 20240601
# qbvar/oracle QS ratio of each (q, h) cell; seeds 101-120 read 0.846-1.243 at h=1
RATIO_BAND = (0.8, 1.3)
# |out-of-sample hit share - q| of qbvar at h=1 over the 40 origins; seeds 101-120 read at most 0.15
HIT_SHARE_BAND = 0.2


def _rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _ratios(path) -> dict:
    return {(float(r["quantile"]), int(r["horizon"])): float(r["ratio"]) for r in _rows(path)}


@pytest.fixture(scope="module")
def known_run(tmp_path_factory):
    """(output directory, config path) of the run and its evaluation against the oracle."""
    spec = importlib.util.spec_from_file_location("known_answer", _SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path_factory.mktemp("known_answer")
    config_path = script.write_inputs(out, SEED, n_origins=40, iterations=400, burn_in=200)
    assert script.run_and_evaluate(config_path) == 0
    return out, config_path


def test_each_level_puts_a_share_q_in_sample_below_its_plane(known_run):
    # the run's own chains at its last origin, on the window standardised as the run does it
    _, config_path = known_run
    cfg, _ = load_config(config_path)
    panel = _load_panel(cfg.data_file, cfg.tcode_file, cfg.variables)
    origin_idx = cfg.origins_end - cfg.origins_start
    est = _payload(cfg, panel, cfg.origins_end, origin_idx)[2]
    design = build_lag_design((est - est.mean(axis=0)) / est.std(axis=0), 1)
    for qi, model in enumerate(cfg.qbvar):
        key = (cfg.seed, origin_idx, _MODEL_SEED_INDEX["qbvar"], qi, _STAGE_CHAIN)
        draws, _ = run_chain(design, model, derive_rng(*key))
        share = float(np.mean(design.Y < design.X @ draws.Phi.mean(axis=0).T))
        assert abs(share - model.quantile) <= 0.03, (model.quantile, share)


def test_qbvar_hit_shares_at_h1_are_near_q(known_run):
    out, _ = known_run
    rows = [r for r in _rows(out / "run" / "tables" / "coverage__full.csv")
            if r["model"] == "qbvar" and r["horizon"] == "1"]
    assert len(rows) == 3
    for r in rows:
        assert abs(float(r["hit_share"]) - float(r["quantile"])) <= HIT_SHARE_BAND, r


def test_qbvar_scores_like_the_oracle_at_h1(known_run):
    out, _ = known_run
    ratios = _ratios(out / "vs_oracle" / "ratios__full__qbvar_vs_oracle.csv")
    for (q, h), ratio in ratios.items():
        if h == 1:
            assert RATIO_BAND[0] <= ratio <= RATIO_BAND[1], (q, h, ratio)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8: a q-model's h>1 forecast iterates its q-plane "
                                       "(here q=0.9, h=3 reads 1.75 against the oracle)")
def test_qbvar_scores_like_the_oracle_at_h3(known_run):
    out, _ = known_run
    ratios = _ratios(out / "vs_oracle" / "ratios__full__qbvar_vs_oracle.csv")
    for (q, h), ratio in ratios.items():
        if h == 3:
            assert RATIO_BAND[0] <= ratio <= RATIO_BAND[1], (q, h, ratio)


def test_qbvar_beats_bvar_in_the_lower_tail_when_x_is_high(known_run):
    # the true q=0.1 slope on x is c + s1 z_0.1 < 0: high x widens the downside,
    # which the homoskedastic bvar cannot follow
    out, _ = known_run
    ratios = _ratios(out / "run" / "tables" / "ratios__event_highx__qbvar_vs_bvar.csv")
    assert ratios[(0.1, 1)] < 1.0


def test_fixed_combination_scores_no_worse_than_the_mixed_score(known_run):
    # pinball loss is convex, so rho(y - (a + b)/2) <= (rho(y - a) + rho(y - b))/2 at every realization
    out, _ = known_run
    for table in ("scores__full.csv", "scores__event_highx.csv"):
        scores = {(r["model"], r["quantile"], r["horizon"]): float(r["score"])
                  for r in _rows(out / "run" / "tables" / table)}
        cells = [(q, h) for m, q, h in scores if m == "qbvar"]
        assert cells
        for q, h in cells:
            mixed = 0.5 * scores[("qbvar", q, h)] + 0.5 * scores[("bvar", q, h)]
            assert scores[("comb_fixed_0.5", q, h)] <= mixed * (1 + 1e-12), (table, q, h)
