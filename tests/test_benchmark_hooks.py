"""The names the benchmark (perfbench/) wraps must stay where it looks them up.

``perfbench/tracer.py`` replaces layer functions by timing wrappers in the
module namespaces their callers read (``quantvar.qbvar.step_coefficients``,
``quantvar.cli.run_chain``, ...), and ``step_ms`` is the gap between two
successive ``quantvar.qbvar.step_coefficients`` calls (in rescore_206, of
the weight functions ``quantvar.cli`` calls per cell). A refactor that
renames such a name, binds it elsewhere or calls it a different number of
times per sweep fails here instead of silently changing what the benchmark
measures.
"""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

import quantvar.bvar as bvar
import quantvar.cli as cli
import quantvar.data as data
import quantvar.evaluation as evaluation
import quantvar.forecast as forecast
import quantvar.qbvar as qbvar
from quantvar.dist import derive_rng
from quantvar.forecast import read_forecasts
from quantvar.qbvar import McmcSchedule, ModelConfig, QbvarConfig

from conftest import make_config_dict, make_forecast_pair, make_raw_panel

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_MODULES = (bvar, cli, data, evaluation, forecast, qbvar)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patched_names():
    """(module, name, defined before) of every attribute the tracer's install() sets."""
    tracer = _load_tracer()
    before = {m: dict(vars(m)) for m in _MODULES}
    missing = object()
    try:
        tracer.install(tracer.Tracer())
        return {
            (m.__name__, k, k in before[m])
            for m in _MODULES
            for k, v in vars(m).items()
            if before[m].get(k, missing) is not v
        }
    finally:
        for m in _MODULES:
            for k in set(vars(m)) - set(before[m]):
                delattr(m, k)
            for k, v in before[m].items():
                setattr(m, k, v)


def test_every_traced_name_exists_where_the_tracer_patches_it():
    patched = _patched_names()
    added = sorted((mod, name) for mod, name, existed in patched if not existed)
    assert added == [], f"the tracer patches names the program does not define: {added}"
    names = {(mod, name) for mod, name, _ in patched}
    steps = ("step_coefficients", "step_loadings", "step_factors", "step_latent",
             "step_scales", "step_shrinkage", "draw_from_precision_system",
             "draw_gig_half", "update_horseshoe", "draw_inverse_gamma")
    shared = ("step_coefficients", "step_loadings", "step_factors", "step_shrinkage",
              "draw_inverse_gamma", "step_scales_gaussian")
    expected = ({("quantvar.qbvar", s) for s in steps}
                | {("quantvar.bvar", s) for s in shared}
                | {("quantvar.cli", "run_chain"), ("quantvar.cli", "run_bvar_chain")})
    assert expected <= names


@pytest.mark.parametrize("r", [0, 1])
def test_run_chain_calls_step_coefficients_once_per_sweep(monkeypatch, r):
    calls = []
    step = qbvar.step_coefficients

    def counted(design, *args):
        calls.append(design)
        return step(design, *args)

    monkeypatch.setattr(qbvar, "step_coefficients", counted)
    design = data.build_lag_design(np.random.default_rng(1).normal(size=(40, 2)), 1)
    sched = McmcSchedule(25, 5, 2)
    qbvar.run_chain(design, QbvarConfig(p=1, r=r, quantile=0.25, schedule=sched), derive_rng(2))
    assert len(calls) == sched.iterations
    assert all(d is design for d in calls)  # the design is the first argument


def test_run_bvar_chain_calls_only_its_own_step_coefficients(monkeypatch):
    # step_ms times quantile sweeps only: a Gaussian sweep that called
    # quantvar.qbvar.step_coefficients would enter the paced gaps
    calls = {"bvar": 0, "qbvar": 0}

    def counting(module):
        step = module.step_coefficients

        def counted(*args):
            calls[module.__name__.rsplit(".", 1)[1]] += 1
            return step(*args)

        return counted

    for module in (bvar, qbvar):
        monkeypatch.setattr(module, "step_coefficients", counting(module))
    design = data.build_lag_design(np.random.default_rng(1).normal(size=(40, 2)), 1)
    sched = McmcSchedule(25, 5, 2)
    bvar.run_bvar_chain(design, ModelConfig(p=1, r=1, schedule=sched), derive_rng(2))
    assert calls == {"bvar": sched.iterations, "qbvar": 0}


def test_run_looks_up_its_chain_runners_in_cli_at_call_time(tmp_path, monkeypatch):
    # the tracer times chains by replacing cli.run_chain and cli.run_bvar_chain,
    # and counts lag designs at cli.build_lag_design: one per sampled model
    calls = {"run_chain": 0, "run_bvar_chain": 0, "build_lag_design": 0}

    def counting(name):
        fn = getattr(cli, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    make_raw_panel(tmp_path)
    raw = make_config_dict(origins=("2017-08", "2017-10"), iterations=30, burn_in=10, thin=2,
                           combinations=[])
    (tmp_path / "config.json").write_text(json.dumps(raw))
    assert cli.main(["run", "--config", str(tmp_path / "config.json")]) == 0
    n_origins, n_levels = 3, len(raw["models"]["qbvar"]["quantiles"])
    assert calls == {"run_chain": n_levels * n_origins, "run_bvar_chain": n_origins,
                     "build_lag_design": 2 * n_origins}


@pytest.mark.parametrize("strategy", ["performance", "optimal"])
def test_combine_calls_its_weight_function_once_per_cell(tmp_path, monkeypatch, strategy):
    # rescore_206's step_ms is the gap between successive cli weight calls: a
    # _combine that stopped making one per (origin, q, h) would empty or skew it
    calls = {"performance_weight": 0, "optimal_weight": 0}

    def counting(name):
        weight = getattr(cli, name)

        def counted(*args):
            calls[name] += 1
            return weight(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    make_raw_panel(tmp_path)
    fa, fb = make_forecast_pair(tmp_path)
    rc = cli.main(
        ["combine", "--forecasts-a", fa, "--forecasts-b", fb, "--strategy", strategy,
         "--window", "3", "--data", str(tmp_path / "panel.csv"), "--tcodes",
         str(tmp_path / "tcodes.json"), "--target", "tgt",
         "--output", str(tmp_path / "comb.csv")]
    )
    assert rc == 0
    (fset,) = read_forecasts(fa)
    cells = len(set(fset.origin.tolist())) * len(fset.quantiles()) * len(fset.horizons())
    assert cells == 8 * 2 * 2
    assert calls == {name: cells if name == f"{strategy}_weight" else 0 for name in calls}
