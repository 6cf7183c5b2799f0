import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quantvar.cli as cli_mod
from quantvar.cli import (
    ConfigError,
    RunFailure,
    _forecast_one_origin,
    _sha256_file,
    config_digest,
    load_config,
    main,
    parse_config,
    report,
    run_recursive,
)
from quantvar.data import month_index, month_label
from quantvar.forecast import QuantileForecastSet, read_forecasts, write_forecasts

from conftest import make_config_dict, make_forecast_pair, make_raw_panel


# ---------------------------------------------------------------------------
# config parsing


def _minimal_raw(**over):
    raw = {
        "data_file": "panel.csv",
        "tcode_file": "tcodes.json",
        "target": "tgt",
        "models": {"bvar": {"p": 2}},
        "seed": 1,
        "output_dir": "out",
    }
    raw.update(over)
    return raw


def test_parse_config_defaults():
    cfg = parse_config(_minimal_raw(), base_dir="/base")
    assert cfg.horizons == list(range(1, 13))
    sched = cfg.bvar.schedule
    assert (sched.iterations, sched.burn_in, sched.thin) == (3000, 1000, 5)
    assert (cfg.bvar.a_sigma, cfg.bvar.b_sigma) == (3.0, 1.0)
    assert [w.label for w in cfg.evaluation_windows] == ["main", "recent"]
    assert cfg.evaluation_windows[0].start == "2008-01"
    assert cfg.evaluation_windows[1].start == "2013-01"
    assert cfg.benchmark == "bvar"
    assert cfg.origins_start == "2008-01" and cfg.origins_end == "2025-02"
    assert cfg.data_file == "/base/panel.csv"  # relative paths resolve to the config dir
    assert cfg.model_ids() == ["bvar"]


def test_parse_config_combination_window_defaults():
    raw = _minimal_raw(
        models={"qbvar": {"p": 1, "quantiles": [0.1, 0.5, 0.9]}, "bvar": {"p": 1}},
        combinations=[{"strategy": "performance"}, {"strategy": "optimal"}],
    )
    cfg = parse_config(raw)
    assert cfg.combinations == [("comb_perf", "performance", 50), ("comb_opt", "optimal", 75)]
    assert cfg.quantile_set == [0.1, 0.5, 0.9]


def test_parse_config_rejections():
    bad = [
        dict(),  # missing everything
        _minimal_raw(companions=["tgt"]),
        _minimal_raw(models={}),
        _minimal_raw(models={"qbvar": {"p": 1, "quantiles": [0.5, 0.5]}}),
        _minimal_raw(models={"qbvar": {"p": 1, "quantiles": []}, "bvar": {"p": 1}}),
        _minimal_raw(horizons=[0, 1]),
        _minimal_raw(horizons=[1, 1]),
        _minimal_raw(horizons=[]),
        _minimal_raw(origins={"start": "2020-05", "end": "2020-01"}),
        _minimal_raw(combinations=[{"strategy": "magic"}]),
        _minimal_raw(
            models={"qbvar": {"p": 1, "quantiles": [0.5]}, "bvar": {"p": 1}},
            combinations=[{"strategy": "fixed", "lambda": 1.5}],
        ),
        _minimal_raw(benchmark="qbvar"),  # not a configured model
        _minimal_raw(combinations=[{"strategy": "fixed"}]),  # needs qbvar
        _minimal_raw(
            models={"qbvar": {"p": 1, "quantiles": [0.5]}},
            benchmark="qbvar",
            combinations=[{"strategy": "fixed"}],
        ),  # benchmark must differ from qbvar
        _minimal_raw(evaluation_windows=[]),
        _minimal_raw(evaluation_windows=[{"label": "w", "start": "2020-01"}]),
        # missing nested fields and values of the wrong JSON type
        _minimal_raw(models={"qbvar": {"p": 1}}),  # no quantiles
        _minimal_raw(models={"qbvar": {"quantiles": [0.5]}}),  # no p
        _minimal_raw(models={"bvar": [2]}),
        _minimal_raw(models=[]),
        _minimal_raw(
            models={"qbvar": {"p": 1, "quantiles": [0.5]}, "bvar": {"p": 1}}, combinations=["fixed"]
        ),
        _minimal_raw(evaluation_windows=["main"]),
        _minimal_raw(evaluation_windows=[{"label": 3, "start": "2020-01", "end": "2020-05"}]),
        _minimal_raw(seed=None),
        _minimal_raw(seed=-1),  # numpy's seed sequences take no negative entropy
        _minimal_raw(data_file=5),
        # levels that share one 10-digit forecast-record key
        _minimal_raw(models={"qbvar": {"p": 1, "quantiles": [0.1, 0.1 + 1e-12]}}),
        [],
    ]
    for raw in bad:
        with pytest.raises(ConfigError):
            parse_config(raw)
    with pytest.raises(ConfigError, match="seed"):
        parse_config(_minimal_raw(seed=-1))
    # values only the model configs reject: parsed once, before any chain runs
    bad_values = [
        _minimal_raw(models={"qbvar": {"p": 1, "quantiles": [0.5, 1.5]}}),
        _minimal_raw(models={"qbvar": {"p": 0, "quantiles": [0.5]}}),
        _minimal_raw(models={"bvar": {"p": 1, "r": -1}}),
        _minimal_raw(a_sigma=0.0),
    ]
    for raw in bad_values:
        with pytest.raises(ValueError):
            parse_config(raw)


# JSON values for config fields; strings carry no path separator, so every
# path a config names stays inside the example's temporary directory
_json_leaf = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(alphabet="ab09.-_", max_size=8)
)
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _mutated(valid):
    """A valid config with each field, at any depth, kept, dropped or replaced by any JSON value."""
    if isinstance(valid, dict):
        return st.fixed_dictionaries(
            {}, optional={k: st.one_of(_mutated(v), _json_value) for k, v in valid.items()}
        )
    if isinstance(valid, list):
        return st.tuples(*(st.one_of(_mutated(v), _json_value) for v in valid)).map(list)
    return st.just(valid)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.dictionaries(st.text(max_size=10), _json_value, max_size=6), _mutated(make_config_dict())))
def test_any_json_config_exits_cleanly(raw):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "config.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["run", "--config", path, "--output-dir", os.path.join(d, "out")])
    assert rc in (0, 1, 2)
    if rc:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["status"] == "error"


def test_config_digest_canonical():
    a = {"x": 1, "y": [1, 2]}
    b = {"y": [1, 2], "x": 1}
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest({"x": 2, "y": [1, 2]})


# ---------------------------------------------------------------------------
# per-origin worker


def test_forecast_one_origin_reports_errors(monkeypatch):
    # an expected numerical failure aborts the origin and is reported
    cfg = parse_config(_minimal_raw())
    dates = [month_label(month_index("2000-01") + j) for j in range(30)]
    values = np.random.default_rng(0).normal(size=(30, 1))

    def singular(design, config, rng):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(cli_mod, "run_bvar_chain", singular)
    origin, records, err = _forecast_one_origin((dates[-1], 29, dates, values, ["tgt"], cfg))
    assert origin == dates[-1] and records is None
    assert err == "LinAlgError: not positive definite"
    # an origin outside the sample is the caller's error, not an aborted origin
    with pytest.raises(ValueError):
        _forecast_one_origin(("1999-01", 0, ["2000-01"], np.zeros((1, 1)), ["tgt"], cfg))


def _light_cfg(tmp_path, **over):
    make_raw_panel(tmp_path)
    raw = make_config_dict(**over)
    (tmp_path / "config.json").write_text(json.dumps(raw, indent=2, sort_keys=True))
    cfg, raw = load_config(tmp_path / "config.json")
    return cfg, raw


def test_full_run_outputs_and_manifest(tmp_path):
    cfg, raw = _light_cfg(
        tmp_path,
        event_windows=({"label": "mid", "start": "2017-11", "end": "2018-02"},),
    )
    manifest = run_recursive(cfg, raw)
    out = cfg.output_dir

    n_origins = month_index("2018-03") - month_index("2017-08") + 1
    assert manifest["n_origins"] == n_origins == 8
    assert manifest["n_aborted"] == 0
    assert manifest["seed"] == raw["seed"]
    assert manifest["config_sha256"] == config_digest(raw)
    assert manifest["version"].startswith("quantvar-")

    expected_models = ["bvar", "comb_fixed_0.5", "comb_opt", "comb_perf", "qbvar", "rw"]
    for m in expected_models:
        path = os.path.join(out, "forecasts", f"{m}.csv")
        assert os.path.exists(path), m
        fset = read_forecasts(path)
        # full coverage: every (origin, horizon, quantile) cell present
        assert len(fset.records) == n_origins * 2 * 2, m

    for rel in [
        "config.json",
        "errors.json",
        "manifest.json",
        os.path.join("tables", "scores__all.csv"),
        os.path.join("tables", "scores__all.txt"),
        os.path.join("tables", "scores__event_mid.csv"),
        os.path.join("combination", "weights_comb_fixed_0.5.csv"),
        os.path.join("combination", "weights_comb_perf.csv"),
        os.path.join("combination", "weights_comb_opt.csv"),
        os.path.join("combination", "weight_curves.csv"),
    ]:
        assert os.path.exists(os.path.join(out, rel)), rel

    # every non-benchmark model gets a ratio table against the benchmark
    # (labels are sanitized for filenames: '.' -> '_')
    for m in expected_models:
        if m == "bvar":
            continue
        slug = m.replace(".", "_")
        assert os.path.exists(
            os.path.join(out, "tables", f"ratios__all__{slug}_vs_bvar.csv")
        ), m

    # manifest hashes verify against the files on disk
    assert manifest["files"], "manifest must hash the outputs"
    for rel, digest in manifest["files"].items():
        assert _sha256_file(os.path.join(out, rel)) == digest, rel
    assert "manifest.json" not in manifest["files"]

    # stored manifest equals the returned one
    stored = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert stored == manifest


def test_warmup_weights_flagged_then_adaptive(tmp_path):
    cfg, raw = _light_cfg(tmp_path)
    run_recursive(cfg, raw)
    rows = list(_read_csv(os.path.join(cfg.output_dir, "combination", "weights_comb_perf.csv")))
    header, body = rows[0], rows[1:]
    lam_i, warm_i = header.index("lambda"), header.index("warmup")
    origin_i, h_i = header.index("origin"), header.index("horizon")
    assert body, "weight rows must exist"
    warm = {(r[origin_i], r[h_i]): r[warm_i] for r in body}
    # first origin has no scored history -> warm-up fallback at lam = 0.5
    assert warm[("2017-08", "1")] == "1"
    lam = {(r[origin_i], r[h_i]): float(r[lam_i]) for r in body}
    assert lam[("2017-08", "1")] == 0.5
    # by the last origin the trailing window is full at h = 1 (S = 2)
    assert warm[("2018-03", "1")] == "0"


def _read_csv(path):
    import csv

    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_run_determinism_via_cli(tmp_path, capsys):
    make_raw_panel(tmp_path)
    raw = make_config_dict(iterations=80, burn_in=30, thin=2)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw, indent=2, sort_keys=True))
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "r1")]) == 0
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "r2")]) == 0
    m1 = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "r2" / "manifest.json").read_text())
    assert m1 == m2
    for rel in m1["files"]:
        b1 = (tmp_path / "r1" / rel).read_bytes()
        b2 = (tmp_path / "r2" / rel).read_bytes()
        assert b1 == b2, f"{rel} differs between identical runs"


def _record_pools(monkeypatch) -> list:
    """Record each process pool a run makes: {"max_workers": ..., "cancel_futures": [per shutdown]}."""
    import concurrent.futures

    pools, real = [], concurrent.futures.ProcessPoolExecutor

    class Recording(real):
        def __init__(self, max_workers=None, **kwargs):
            self.record = {"max_workers": max_workers, "cancel_futures": []}
            pools.append(self.record)
            super().__init__(max_workers=max_workers, **kwargs)

        def shutdown(self, wait=True, *, cancel_futures=False):
            self.record["cancel_futures"].append(cancel_futures)
            super().shutdown(wait=wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return pools


def test_parallel_origins_match_serial(tmp_path, monkeypatch):
    # N sampling processes are this one plus N - 1 workers, never more than
    # the 8 origins; every N writes the serial run's files
    cfg, raw = _light_cfg(tmp_path, iterations=60, burn_in=20, thin=2)
    cfg.output_dir = str(tmp_path / "serial")
    m_serial = run_recursive(cfg, raw)
    pools = _record_pools(monkeypatch)
    for threads, workers in [(2, 1), (3, 2), (9, 7)]:
        monkeypatch.setenv("QUANTVAR_THREADS", str(threads))
        cfg.output_dir = str(tmp_path / f"parallel{threads}")
        assert run_recursive(cfg, raw)["files"] == m_serial["files"], threads
        assert pools.pop() == {"max_workers": workers, "cancel_futures": [False]}, threads
    assert pools == []


@pytest.mark.parametrize("where", ["this process", "a worker"])
def test_a_code_bug_in_a_parallel_run_propagates_and_cancels_the_pool(tmp_path, monkeypatch, where):
    # this process runs origins 0, 2, 4, 6 and the one worker 1, 3, 5, 7,
    # each origin with two qbvar chains
    cfg, raw = _light_cfg(tmp_path)
    pools = _record_pools(monkeypatch)
    real, parent = cli_mod.run_chain, os.getpid()
    marker, own_chains = tmp_path / "worker_failed", []

    def failing(design, config, rng):
        if (os.getpid() == parent) == (where == "this process"):
            marker.touch()
            raise TypeError("unsupported operand")
        if os.getpid() == parent:
            own_chains.append(1)
            # hold this process's first chain until the worker has raised
            deadline = time.monotonic() + 30
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        return real(design, config, rng)

    monkeypatch.setattr(cli_mod, "run_chain", failing)
    monkeypatch.setenv("QUANTVAR_THREADS", "2")
    with pytest.raises(TypeError, match="unsupported operand"):
        run_recursive(cfg, raw)
    assert [pool["max_workers"] for pool in pools] == [1]
    assert pools[0]["cancel_futures"][0] is True
    # a worker's bug stops this process before the last of its 4 origins
    assert len(own_chains) < 2 * 3 + 1


@pytest.mark.parametrize("value", ["0", "abc"])
def test_run_rejects_a_bad_thread_count_with_exit_2(tmp_path, capsys, monkeypatch, value):
    _light_cfg(tmp_path, iterations=60, burn_in=20, thin=2)
    monkeypatch.setenv("QUANTVAR_THREADS", value)
    rc = main(["run", "--config", str(tmp_path / "config.json"),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "ConfigError" and "QUANTVAR_THREADS" in err["message"]
    assert not (tmp_path / "out" / "forecasts").exists()


def test_serial_run_leaves_the_process_pool_unloaded(tmp_path):
    # the pool module (and multiprocessing with it) is imported only when a
    # run has a worker: at N = 2 a one-origin run has none
    _light_cfg(tmp_path, origins=("2017-08", "2017-08"), iterations=40, burn_in=10, thin=2)
    code = (
        "import contextlib, io, os, sys\n"
        "from quantvar.cli import main\n"
        "os.environ['QUANTVAR_THREADS'] = sys.argv[3]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['run', '--config', sys.argv[1], '--output-dir', sys.argv[2]])\n"
        "print(rc, 'concurrent.futures.process' in sys.modules, 'multiprocessing' in sys.modules)"
    )
    for threads in ("1", "2"):
        out = _fresh_python(code, str(tmp_path / "config.json"), str(tmp_path / f"out{threads}"), threads)
        assert out == "0 False False", threads


def test_abort_accounting_fails_run(tmp_path, monkeypatch):
    cfg, raw = _light_cfg(tmp_path)
    real = cli_mod._forecast_one_origin

    def flaky(payload):
        if payload[0] == "2017-10":
            return payload[0], None, "RuntimeError: injected"
        return real(payload)

    monkeypatch.setattr(cli_mod, "_forecast_one_origin", flaky)
    with pytest.raises(RunFailure) as exc_info:
        run_recursive(cfg, raw)
    assert "2017-10" in exc_info.value.detail["aborted_origins"]


def _fail_first_chain(monkeypatch, exc):
    """Make the first qbvar chain of a run raise ``exc``; the rest run as usual."""
    real, calls = cli_mod.run_chain, []

    def failing(design, config, rng):
        calls.append(config.quantile)
        if len(calls) == 1:
            raise exc
        return real(design, config, rng)

    monkeypatch.setattr(cli_mod, "run_chain", failing)


def test_code_bug_in_a_chain_propagates_out_of_run_recursive(tmp_path, monkeypatch):
    cfg, raw = _light_cfg(tmp_path)
    _fail_first_chain(monkeypatch, TypeError("unsupported operand"))
    with pytest.raises(TypeError, match="unsupported operand"):
        run_recursive(cfg, raw)


def test_linalg_error_in_a_chain_aborts_only_that_origin(tmp_path, monkeypatch):
    cfg, raw = _light_cfg(tmp_path)
    _fail_first_chain(monkeypatch, np.linalg.LinAlgError("not positive definite"))
    with pytest.raises(RunFailure) as exc_info:  # 1 of 8 origins is over the 1% limit
        run_recursive(cfg, raw)
    assert exc_info.value.detail["aborted_origins"] == {"2017-08": "LinAlgError: not positive definite"}


@pytest.mark.parametrize(
    "where, field, value",
    [("qbvar", "r", -1), ("qbvar", "p", 0), ("qbvar", "quantiles", [0.5, 1.5]),
     (None, "a_sigma", 0.0), (None, "b_sigma", -1.0)],
)
def test_bad_model_value_exits_2_with_json(tmp_path, capsys, where, field, value):
    # values only the model configs reject reach main as ValueError
    make_raw_panel(tmp_path)
    raw = make_config_dict()
    (raw["models"][where] if where else raw)[field] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["status"] == "error" and err["kind"] in ("ValueError", "PanelError")


def test_report_matches_run_tables(tmp_path):
    cfg, raw = _light_cfg(tmp_path)
    run_recursive(cfg, raw)
    text = report(cfg.output_dir)
    emitted = open(os.path.join(cfg.output_dir, "tables", "scores__all.txt")).read()
    # the report re-derives the identical table from the forecast files
    assert emitted in text
    ratio_txt = open(
        os.path.join(cfg.output_dir, "tables", "ratios__all__qbvar_vs_bvar.txt")
    ).read()
    assert ratio_txt in text


def test_combine_and_evaluate_subcommands_reproduce_run_outputs(tmp_path, capsys):
    # "full" spans the whole sample, so it equals evaluate's implicit window;
    # "quiet" ends before the first realization
    cfg, raw = _light_cfg(
        tmp_path,
        eval_windows=({"label": "full", "start": "2015-03", "end": "2020-04"},),
        event_windows=({"label": "mid", "start": "2017-11", "end": "2018-02"},
                       {"label": "quiet", "start": "2015-03", "end": "2015-06"}),
    )
    run_recursive(cfg, raw)
    out = cfg.output_dir
    fdir = os.path.join(out, "forecasts")
    data = ["--data", str(tmp_path / "panel.csv"), "--tcodes", str(tmp_path / "tcodes.json"),
            "--target", "tgt"]

    assert [strategy for _, strategy, _ in cfg.combinations] == ["fixed", "performance", "optimal"]
    for model_id, strategy, setting in cfg.combinations:
        got, weights = str(tmp_path / f"{model_id}.csv"), str(tmp_path / f"w_{model_id}.csv")
        rc = main(
            ["combine", "--forecasts-a", os.path.join(fdir, "qbvar.csv"),
             "--forecasts-b", os.path.join(fdir, "bvar.csv"), "--strategy", strategy,
             "--lambda" if strategy == "fixed" else "--window", str(setting), *data, "--model-id", model_id,
             "--output", got, "--weights-output", weights]
        )
        assert rc == 0
        assert open(got, "rb").read() == open(os.path.join(fdir, f"{model_id}.csv"), "rb").read()
        run_weights = os.path.join(out, "combination", f"weights_{model_id}.csv")
        assert open(weights, "rb").read() == open(run_weights, "rb").read()

    ev_dir = tmp_path / "ev"
    forecasts = [os.path.join(fdir, f) for f in sorted(os.listdir(fdir))]
    capsys.readouterr()
    rc = main(
        ["evaluate", "--forecasts", *forecasts, *data, "--window", "event_mid:2017-11:2018-02",
         "--window", "event_quiet:2015-03:2015-06", "--benchmark", "bvar", "--output-dir", str(ev_dir)]
    )
    assert rc == 0
    # evaluate writes run's tables/ layout, file for file, and prints report's text
    run_tables = sorted(os.listdir(os.path.join(out, "tables")))
    assert len([f for f in run_tables if f.endswith(".csv")]) == 2 * 6  # scores + 5 ratio tables
    assert sorted(os.listdir(ev_dir)) == run_tables
    for name in run_tables:
        expected = open(os.path.join(out, "tables", name), "rb").read()
        assert (ev_dir / name).read_bytes() == expected, name
    quiet = (ev_dir / "scores__event_quiet.txt").read_text()
    assert quiet == "window event_quiet: no covered realizations (n/a)\n"
    assert capsys.readouterr().out == report(out) + "\n"


def test_evaluate_exits_2_on_coverage_mismatch_or_nothing_scorable(tmp_path, capsys):
    cfg, raw = _light_cfg(tmp_path, iterations=60, burn_in=20, thin=2, combinations=[])
    run_recursive(cfg, raw)
    fdir = os.path.join(cfg.output_dir, "forecasts")
    qset = read_forecasts(os.path.join(fdir, "qbvar.csv"))
    first = qset.origins()[0]
    partial = QuantileForecastSet(variable_names=qset.variable_names)
    for (model_id, origin, h, q), values in qset.records.items():
        if origin != first:
            partial.add(model_id, origin, h, q, values)
    write_forecasts(partial, str(tmp_path / "partial.csv"))
    data = ["--data", str(tmp_path / "panel.csv"), "--tcodes", str(tmp_path / "tcodes.json"),
            "--target", "tgt", "--output-dir", str(tmp_path / "ev")]
    rc = main(["evaluate", "--forecasts", str(tmp_path / "partial.csv"),
               os.path.join(fdir, "bvar.csv"), *data, "--benchmark", "bvar"])
    assert rc == 2  # qbvar lacks the first origin: evaluated-origin counts differ from bvar's
    assert json.loads(capsys.readouterr().err)["kind"] == "EvaluationError"

    # a window over realizations beyond the sample: nothing is scorable
    unseen = QuantileForecastSet(variable_names=qset.variable_names)
    unseen.add("qbvar", "2020-04", 1, 0.5, np.zeros(2))
    write_forecasts(unseen, str(tmp_path / "unseen.csv"))
    rc = main(["evaluate", "--forecasts", str(tmp_path / "unseen.csv"), *data,
               "--window", "late:2020-01:2020-06"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "EvaluationError"


@pytest.mark.parametrize("combinations, model_id", [
    ([{"strategy": "performance", "window": 2}, {"strategy": "performance", "window": 3}], "comb_perf"),
    ([{"strategy": "fixed", "lambda": 0.5}, {"strategy": "fixed", "lambda": 0.5000001}], "comb_fixed_0.5"),
], ids=["two-windows", "two-lambdas"])
def test_two_combinations_with_one_model_id_exit_2(tmp_path, capsys, combinations, model_id):
    # the later one used to overwrite the earlier one's forecasts and weights
    make_raw_panel(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(make_config_dict(combinations=combinations)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "config.json"), "--output-dir", str(out)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "status": "error", "kind": "ConfigError", "message": f"two combinations write the model {model_id!r}"}
    assert not out.exists()


def _set_field(raw, path, value):
    """Set the field at ``path`` of a nested config; returns its old value."""
    *parents, last = path
    for key in parents:
        raw = raw[key]
    old, raw[last] = raw[last], value
    return old


@pytest.mark.parametrize("path, value", [
    (("seed",), 1.9), (("seed",), True), (("models", "qbvar", "p"), 1.5), (("models", "bvar", "r"), False),
    (("mcmc", "iterations"), 60.5), (("mcmc", "burn_in"), "20"), (("mcmc", "thin"), 2.5),
    (("horizons", 1), 2.7), (("combinations", 1, "window"), 2.5),
], ids=["seed-1.9", "seed-true", "p-1.5", "r-false", "iterations-60.5", "burn_in-string", "thin-2.5",
        "horizons-2.7", "window-2.5"])
def test_a_non_integer_in_an_integer_field_exits_2(tmp_path, capsys, path, value):
    # "seed": 1.9 used to run as seed 1, and "horizons": [1, 2.7] as [1, 2]
    make_raw_panel(tmp_path)
    raw = make_config_dict()
    valid = _set_field(raw, path, value)
    (tmp_path / "config.json").write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "config.json"), "--output-dir", str(out)]) == 2
    name = [key for key in path if isinstance(key, str)][-1]
    assert json.loads(capsys.readouterr().err) == {
        "status": "error", "kind": "ConfigError",
        "message": f"config field {name!r} must be an integer, got {value!r}"}
    assert not out.exists()
    # an integral float is that integer
    _set_field(raw, path, float(valid))
    assert parse_config(raw) == parse_config(make_config_dict())


@pytest.mark.parametrize("path, value", [
    (("a_sigma",), True), (("b_sigma",), False), (("models", "qbvar", "quantiles", 1), True),
    (("combinations", 0, "lambda"), True),
], ids=["a_sigma-true", "b_sigma-false", "quantiles-true", "lambda-true"])
def test_a_bool_in_a_real_field_exits_2(tmp_path, capsys, path, value):
    # float(True) is 1.0: "lambda": true used to run as the combination comb_fixed_1
    make_raw_panel(tmp_path)
    raw = make_config_dict()
    raw.update(a_sigma=3.0, b_sigma=1.0)
    _set_field(raw, path, value)
    (tmp_path / "config.json").write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "config.json"), "--output-dir", str(out)]) == 2
    name = [key for key in path if isinstance(key, str)][-1]
    assert json.loads(capsys.readouterr().err) == {
        "status": "error", "kind": "ConfigError",
        "message": f"config field {name!r} must be a number, got {value!r}"}
    assert not out.exists()


@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_rw_other_than_true_or_false_exits_2(tmp_path, capsys, value):
    # bool("false") is True: "rw": "false" used to turn the random walk on
    make_raw_panel(tmp_path)
    raw = make_config_dict()
    raw["models"]["rw"] = value
    (tmp_path / "config.json").write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "config.json"), "--output-dir", str(out)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "status": "error", "kind": "ConfigError",
        "message": f"config field 'rw' must be true or false, got {value!r}"}
    assert not out.exists()
    raw["models"]["rw"] = False
    assert parse_config(raw).include_rw is False


def test_run_into_a_previous_runs_directory_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    # a rerun used to hash and report the earlier run's comb_* files beside its own
    _light_cfg(tmp_path, combinations=[])
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text("{}")

    def no_chain(design, config, rng):
        raise AssertionError("sampled")

    monkeypatch.setattr(cli_mod, "run_chain", no_chain)
    assert main(["run", "--config", str(tmp_path / "config.json"), "--output-dir", str(out)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "status": "error", "kind": "ConfigError",
        "message": f"output directory {out} already holds a run's manifest.json"}
    assert sorted(os.listdir(out)) == ["manifest.json"]


def test_origin_range_validation(tmp_path):
    cfg, raw = _light_cfg(tmp_path)
    cfg.origins_end = "2020-03"  # leaves no h=2 realization inside the sample
    with pytest.raises(ConfigError):
        run_recursive(cfg, raw)
    cfg2, raw2 = _light_cfg(tmp_path)
    cfg2.origins_start = "2015-05"  # too little estimation data
    with pytest.raises(ConfigError):
        run_recursive(cfg2, raw2)
    cfg3, raw3 = _light_cfg(tmp_path)
    cfg3.origins_start = "1990-01"  # outside the sample entirely
    with pytest.raises(ConfigError):
        run_recursive(cfg3, raw3)


def test_missing_series_rejected(tmp_path):
    cfg, raw = _light_cfg(tmp_path)
    cfg.companions = ["nope"]
    with pytest.raises(ConfigError):
        run_recursive(cfg, raw)


# ---------------------------------------------------------------------------
# command-line surface


def test_main_error_exits(tmp_path, capsys):
    # missing config file -> exit 2 with machine-readable stderr
    rc = main(["run", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["status"] == "error"

    # invalid config -> exit 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_minimal_raw(models={})))
    assert main(["run", "--config", str(bad)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "ConfigError"


def _forecast_argv(tmp_path, output, origin=None):
    return ["forecast", "--config", str(tmp_path / "config.json"), "--output", str(output),
            *(["--origin", origin] if origin else [])]


def test_forecast_evaluate_combine_pipeline(tmp_path, capsys):
    _light_cfg(tmp_path, iterations=80, burn_in=30, thin=2, quantiles=(0.5,), horizons=(1, 2, 3),
               combinations=[])
    fc = str(tmp_path / "fc.csv")
    assert main(_forecast_argv(tmp_path, fc, "2018-06")) == 0
    fset = read_forecasts(fc)
    assert fset.model_ids() == ["bvar", "qbvar", "rw"] and fset.horizons() == [1, 2, 3]
    data = ["--data", str(tmp_path / "panel.csv"), "--tcodes", str(tmp_path / "tcodes.json")]

    ev_dir = str(tmp_path / "ev")
    rc = main(
        ["evaluate", *data, "--forecasts", fc, "--target", "tgt",
         "--benchmark", "bvar", "--output-dir", ev_dir]
    )
    assert rc == 0
    assert os.path.exists(os.path.join(ev_dir, "scores__full.csv"))
    out = capsys.readouterr().out
    assert "qbvar" in out and "QS50" in out

    # combine reads one model per file
    for model_id in ("qbvar", "bvar"):
        one = QuantileForecastSet(variable_names=fset.variable_names)
        for key, vals in fset.records.items():
            if key[0] == model_id:
                one.add(*key, vals)
        write_forecasts(one, str(tmp_path / f"{model_id}.csv"))
    comb = str(tmp_path / "comb.csv")
    rc = main(
        ["combine", "--forecasts-a", str(tmp_path / "qbvar.csv"), "--forecasts-b",
         str(tmp_path / "bvar.csv"), "--strategy", "fixed", "--lambda", "0.5", "--model-id", "mix",
         "--output", comb]
    )
    assert rc == 0
    cset = read_forecasts(comb)
    a = fset.get("qbvar", "2018-06", 1, 0.5)
    b = fset.get("bvar", "2018-06", 1, 0.5)
    np.testing.assert_allclose(cset.get("mix", "2018-06", 1, 0.5), 0.5 * (a + b))


def test_forecast_reproduces_a_runs_records_at_a_later_origin(tmp_path, capsys):
    # origin index 1: every model and level of the run's second origin, bit for bit
    cfg, raw = _light_cfg(tmp_path, origins=("2017-08", "2017-09"), iterations=60, burn_in=20,
                          thin=2, combinations=[])
    run_recursive(cfg, raw)
    fc = str(tmp_path / "fc.csv")
    assert main(_forecast_argv(tmp_path, fc, "2017-09")) == 0
    mine = read_forecasts(fc).records
    ran = {}
    for model_id in cfg.model_ids():
        path = os.path.join(cfg.output_dir, "forecasts", f"{model_id}.csv")
        ran.update({k: v for k, v in read_forecasts(path).records.items() if k[1] == "2017-09"})
    # 3 models x 2 levels x 2 horizons
    assert sorted(mine) == sorted(ran) and len(mine) == 12
    for key, vals in mine.items():
        np.testing.assert_array_equal(vals, ran[key])


def test_forecast_defaults_to_the_sample_end(tmp_path, capsys):
    cfg, _ = _light_cfg(tmp_path, iterations=60, burn_in=20, thin=2, combinations=[])
    fc = str(tmp_path / "fc.csv")
    assert main(_forecast_argv(tmp_path, fc)) == 0
    fset = read_forecasts(fc)
    assert fset.origins() == ["2020-04"]  # the panel's last month, past every realization
    for model_id in ("qbvar", "bvar", "rw"):
        for q in cfg.quantile_set:
            cells = sorted(h for m, _, h, level in fset.records if (m, level) == (model_id, q))
            assert cells == cfg.horizons, (model_id, q)
    assert len(fset.records) == 3 * len(cfg.quantile_set) * len(cfg.horizons)


@pytest.mark.parametrize("origin, message", [
    ("2017-07", "precedes the config's first origin 2017-08"),
    ("2015-01", "outside the transformed sample"),  # the raw first month, lost to differencing
    ("2020-05", "outside the transformed sample"),
    ("2020-4", "outside the transformed sample"),
])
def test_forecast_rejects_an_origin_before_the_runs_or_outside_the_sample(tmp_path, capsys, origin, message):
    _light_cfg(tmp_path)
    out = tmp_path / "fc.csv"
    assert main(_forecast_argv(tmp_path, out, origin)) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "ConfigError" and message in err["message"]
    assert not out.exists()


def test_forecast_exits_1_with_runs_failure_when_its_origin_aborts(tmp_path, capsys, monkeypatch):
    _light_cfg(tmp_path, iterations=20, burn_in=10, thin=2, combinations=[])

    def singular(design, config, rng):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(cli_mod, "run_bvar_chain", singular)
    out = tmp_path / "fc.csv"
    assert main(_forecast_argv(tmp_path, out, "2017-09")) == 1
    assert json.loads(capsys.readouterr().err) == {
        "status": "error", "kind": "RunFailure", "message": "1 of 1 origins aborted (limit 1%)",
        "detail": {"aborted_origins": {"2017-09": "LinAlgError: not positive definite"}},
    }
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "forecast", "evaluate", "combine", "report"])
def test_every_command_names_the_series_missing_from_the_panel(tmp_path, capsys, command):
    make_raw_panel(tmp_path)
    fa, fb = make_forecast_pair(tmp_path)
    panel, tcodes = str(tmp_path / "panel.csv"), str(tmp_path / "tcodes.json")
    data = ["--data", panel, "--tcodes", tcodes, "--target", "nope"]
    out = str(tmp_path / "out")
    argv = {
        "ingest": ["ingest", "--input", panel, "--tcodes", tcodes, "--output", out,
                   "--output-tcodes", str(tmp_path / "out.json"), "--deflate", "tgt:nope"],
        "forecast": _forecast_argv(tmp_path, out),
        "evaluate": ["evaluate", *data, "--forecasts", fa, "--output-dir", out],
        "combine": ["combine", "--forecasts-a", fa, "--forecasts-b", fb, "--strategy", "optimal",
                    *data, "--output", out],
        "report": ["report", "--run-dir", str(tmp_path)],
    }[command]
    # a config (of a run directory, for report) that names a series the panel lacks
    (tmp_path / "config.json").write_text(json.dumps(make_config_dict(companions=("nope",))))
    if command == "report":
        os.makedirs(tmp_path / "forecasts")
        os.replace(fa, tmp_path / "forecasts" / "qbvar.csv")
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"status": "error", "kind": "ConfigError", "message": "series not in panel: ['nope']"}


@pytest.mark.parametrize("flag", ["--deflate", "--splice"])
def test_ingest_names_a_series_pair_without_a_colon(tmp_path, capsys, flag):
    make_raw_panel(tmp_path)
    out = tmp_path / "out.csv"
    assert main(["ingest", "--input", str(tmp_path / "panel.csv"), "--tcodes", str(tmp_path / "tcodes.json"),
                 "--output", str(out), "--output-tcodes", str(tmp_path / "out.json"), flag, "tgt"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "ConfigError" and "'tgt'" in err["message"]
    assert not out.exists()


def _blank_before(panel_path, series, month):
    """Blank ``series`` in the panel CSV at every date before ``month``."""
    lines = open(panel_path).read().splitlines()
    j = lines[0].split(",").index(series)
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if month_index(fields[0]) < month_index(month):
            fields[j] = ""
            lines[i] = ",".join(fields)
    open(panel_path, "w").write("\n".join(lines) + "\n")


def test_evaluate_and_combine_read_only_the_target_series(tmp_path, capsys):
    # c1 starts in 2018-01, after the first realizations (2017-09); evaluate
    # and combine score tgt alone, so their outputs equal those on the full panel
    outputs = {}
    for name in ("full", "late"):
        d = tmp_path / name
        d.mkdir()
        make_raw_panel(d)
        fa, fb = make_forecast_pair(d)
        if name == "late":
            _blank_before(d / "panel.csv", "c1", "2018-01")
        data = ["--data", str(d / "panel.csv"), "--tcodes", str(d / "tcodes.json"), "--target", "tgt"]
        out = d / "out"
        argvs = [["evaluate", "--forecasts", fa, fb, *data, "--window", "mid:2017-11:2018-02",
                  "--benchmark", "bvar", "--output-dir", str(out)]]
        argvs += [["combine", "--forecasts-a", fa, "--forecasts-b", fb, "--strategy", strategy,
                   "--window", "3", *data, "--model-id", strategy, "--output", str(out / f"{strategy}.csv"),
                   "--weights-output", str(out / f"w_{strategy}.csv")] for strategy in ("performance", "optimal")]
        assert [main(argv) for argv in argvs] == [0, 0, 0]
        outputs[name] = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
    # per window a score and a ratio table, per strategy forecasts and weights
    assert len(outputs["full"]) == 2 * 4 + 2 * 2
    assert outputs["late"] == outputs["full"]


@pytest.mark.parametrize("case", ["slug", "event", "evaluate-full"])
def test_window_labels_that_name_the_same_table_files_exit_2(tmp_path, capsys, case):
    make_raw_panel(tmp_path)
    all_window = {"label": "all", "start": "2015-03", "end": "2020-04"}
    if case == "evaluate-full":
        fa, _ = make_forecast_pair(tmp_path)
        out = tmp_path / "ev"
        argv = ["evaluate", "--forecasts", fa, "--data", str(tmp_path / "panel.csv"),
                "--tcodes", str(tmp_path / "tcodes.json"), "--target", "tgt",
                "--window", "full:2018-01:2018-03", "--output-dir", str(out)]
        labels = ["full", "full"]
    else:
        windows = {
            "slug": dict(eval_windows=(dict(all_window, label="a b"), dict(all_window, label="a_b"))),
            "event": dict(eval_windows=(all_window, dict(all_window, label="event_x")),
                          event_windows=(dict(all_window, label="x"),)),
        }[case]
        (tmp_path / "config.json").write_text(json.dumps(make_config_dict(**windows)))
        out = tmp_path / "out"
        argv = ["run", "--config", str(tmp_path / "config.json"), "--output-dir", str(out)]
        labels = {"slug": ["a b", "a_b"], "event": ["event_x", "event_x"]}[case]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err) == {
        "status": "error", "kind": "ConfigError", "message": f"window labels {labels} map to the same table files"}
    assert not out.exists()


def test_evaluate_names_a_benchmark_that_no_forecast_file_holds(tmp_path, capsys):
    make_raw_panel(tmp_path)
    fa, fb = make_forecast_pair(tmp_path)
    rc = main(["evaluate", "--data", str(tmp_path / "panel.csv"), "--tcodes", str(tmp_path / "tcodes.json"),
               "--forecasts", fa, fb, "--target", "tgt", "--benchmark", "rw",
               "--output-dir", str(tmp_path / "ev")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "ConfigError"
    assert err["message"] == "benchmark 'rw' is not a model of the forecast files ['bvar', 'qbvar']"


@pytest.mark.parametrize("command", ["evaluate", "evaluate-benchmark", "report"])
def test_a_model_that_two_forecast_files_hold_exits_2(tmp_path, capsys, command):
    # its records used to be scored twice, or to fail the coverage check
    make_raw_panel(tmp_path)
    fa, fb = make_forecast_pair(tmp_path)
    out = tmp_path / "ev"
    if command == "report":
        (tmp_path / "config.json").write_text(json.dumps(make_config_dict()))
        os.makedirs(tmp_path / "forecasts")
        for path in (fa, fb):
            os.replace(path, tmp_path / "forecasts" / os.path.basename(path))
        fa, copy = str(tmp_path / "forecasts" / "qbvar.csv"), str(tmp_path / "forecasts" / "qbvar_copy.csv")
        open(copy, "w").write(open(fa).read())
        argv, second = ["report", "--run-dir", str(tmp_path), "--output", str(out)], copy
    else:
        argv = ["evaluate", "--data", str(tmp_path / "panel.csv"), "--tcodes", str(tmp_path / "tcodes.json"),
                "--forecasts", fa, fb, fa, "--target", "tgt", "--output-dir", str(out)]
        argv += ["--benchmark", "bvar"] if command == "evaluate-benchmark" else []
        second = fa
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err) == {
        "status": "error", "kind": "ConfigError",
        "message": f"model 'qbvar' is held by two forecast files: {fa} and {second}"}
    assert not out.exists()


def _edit_panel_row(panel_path, month, edit):
    """Replace the panel CSV's row of ``month`` by edit(fields); returns its line number."""
    lines = open(panel_path).read().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(month + ","))
    lines[i] = ",".join(edit(lines[i].split(",")))
    open(panel_path, "w").write("\n".join(lines) + "\n")
    return i + 1


@pytest.mark.parametrize("case", ["inf", "short-row"])
@pytest.mark.parametrize("command", ["run", "evaluate"])
def test_a_bad_panel_cell_exits_2_before_any_forecast(tmp_path, capsys, command, case):
    # an infinite cell used to reach the samplers and abort every origin
    _light_cfg(tmp_path)
    panel = tmp_path / "panel.csv"
    if case == "inf":
        _edit_panel_row(panel, "2016-05", lambda f: [f[0], "inf", *f[2:]])
        message = "series 'tgt' has a non-finite value at 2016-05"
    else:
        line = _edit_panel_row(panel, "2016-05", lambda f: f[:-1])
        message = f"{panel}, line {line}: expected 3 fields, got 2"
    out = tmp_path / "out"
    if command == "run":
        argv = ["run", "--config", str(tmp_path / "config.json"), "--output-dir", str(out)]
    else:
        fa, fb = make_forecast_pair(tmp_path)
        argv = ["evaluate", "--data", str(panel), "--tcodes", str(tmp_path / "tcodes.json"),
                "--forecasts", fa, fb, "--target", "tgt", "--output-dir", str(out)]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err) == {"status": "error", "kind": "PanelError", "message": message}
    assert not (out / "forecasts").exists() and not (out / "scores__full.csv").exists()


def _edit_third_line(path, edit):
    """Replace the file's third line (its second data row) by edit(row, previous row)."""
    lines = open(path).read().splitlines()
    lines[2] = edit(lines[2], lines[1])
    open(path, "w").write("\n".join(line for line in lines if line is not None) + "\n")


def _with_field(row, i, text):
    fields = row.split(",")
    fields[i] = text
    return ",".join(fields)


@pytest.mark.parametrize("edit,message", [
    (lambda row, prev: "", "line 3: expected 6 fields, got 0"),
    (lambda row, prev: row.rsplit(",", 1)[0], "line 3: expected 6 fields, got 5"),
    (lambda row, prev: _with_field(row, 2, "x"), "line 3: invalid literal for int() with base 10: 'x'"),
    (lambda row, prev: _with_field(row, 3, "x"), "line 3: could not convert string to float: 'x'"),
    (lambda row, prev: _with_field(row, 5, "x"), "line 3: could not convert string to float: 'x'"),
    (lambda row, prev: _with_field(row, 2, "-2"), "line 3: horizon must be >= 1, got -2"),
    (lambda row, prev: _with_field(row, 2, "0"), "line 3: horizon must be >= 1, got 0"),
    (lambda row, prev: _with_field(row, 3, "1.5"), "line 3: quantile must lie in (0, 1), got 1.5"),
    (lambda row, prev: _with_field(row, 3, "0"), "line 3: quantile must lie in (0, 1), got 0"),
    (lambda row, prev: _with_field(row, 5, "inf"), "line 3: value must be finite, got inf"),
    (lambda row, prev: _with_field(row, 5, "nan"), "line 3: value must be finite, got nan"),
    (lambda row, prev: prev, "line 3: duplicate row for record ('qbvar', '2017-08', 1, 0.25), variable 'tgt'"),
    (lambda row, prev: None, "incomplete variable set for record ('qbvar', '2017-08', 1, 0.25)"),
], ids=["blank", "five-fields", "horizon", "quantile", "value", "horizon-below-1", "horizon-0",
        "quantile-above-1", "quantile-0", "value-inf", "value-nan", "duplicate", "incomplete"])
def test_evaluate_names_the_line_of_a_malformed_forecast_row(tmp_path, capsys, edit, message):
    make_raw_panel(tmp_path)
    fa, fb = make_forecast_pair(tmp_path)
    _edit_third_line(fa, edit)
    rc = main(["evaluate", "--data", str(tmp_path / "panel.csv"), "--tcodes", str(tmp_path / "tcodes.json"),
               "--forecasts", fa, fb, "--target", "tgt", "--output-dir", str(tmp_path / "ev")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "ValueError"
    assert err["message"] == (message if message.startswith("incomplete") else f"{fa}, {message}")


@pytest.mark.parametrize("command", ["combine", "report"])
def test_a_duplicate_forecast_row_exits_2_from_combine_and_report(tmp_path, capsys, command):
    make_raw_panel(tmp_path)
    fa, fb = make_forecast_pair(tmp_path)
    if command == "report":
        (tmp_path / "config.json").write_text(json.dumps(make_config_dict()))
        os.makedirs(tmp_path / "forecasts")
        os.replace(fa, tmp_path / "forecasts" / "qbvar.csv")
        fa = str(tmp_path / "forecasts" / "qbvar.csv")
    _edit_third_line(fa, lambda row, prev: prev)
    data = ["--data", str(tmp_path / "panel.csv"), "--tcodes", str(tmp_path / "tcodes.json"), "--target", "tgt"]
    argv = {
        "combine": ["combine", *data, "--forecasts-a", fa, "--forecasts-b", fb, "--strategy", "optimal",
                    "--output", str(tmp_path / "comb.csv")],
        "report": ["report", "--run-dir", str(tmp_path)],
    }[command]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"status": "error", "kind": "ValueError",
                   "message": f"{fa}, line 3: duplicate row for record ('qbvar', '2017-08', 1, 0.25), variable 'tgt'"}


@pytest.mark.parametrize("command", ["combine", "report"])
def test_a_quantile_outside_0_1_exits_2_from_combine_and_report(tmp_path, capsys, command):
    # a fixed combine used to write the quantile-1.5 record and exit 0
    make_raw_panel(tmp_path)
    fa, fb = make_forecast_pair(tmp_path)
    if command == "report":
        (tmp_path / "config.json").write_text(json.dumps(make_config_dict()))
        os.makedirs(tmp_path / "forecasts")
        os.replace(fa, tmp_path / "forecasts" / "qbvar.csv")
        fa = str(tmp_path / "forecasts" / "qbvar.csv")
    _edit_third_line(fa, lambda row, prev: _with_field(row, 3, "1.5"))
    out = tmp_path / "comb.csv"
    argv = {
        "combine": ["combine", "--forecasts-a", fa, "--forecasts-b", fb, "--strategy", "fixed",
                    "--output", str(out)],
        "report": ["report", "--run-dir", str(tmp_path), "--output", str(out)],
    }[command]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err) == {
        "status": "error", "kind": "ValueError", "message": f"{fa}, line 3: quantile must lie in (0, 1), got 1.5"}
    assert not out.exists()


@pytest.mark.parametrize("strategy", ["performance", "optimal"])
def test_combine_looks_up_each_realization_once_per_origin_and_horizon(tmp_path, monkeypatch, strategy):
    # both strategies read one (q, h) history built from one lookup per
    # (origin, h), not one per (origin, q, h)
    calls = []
    real = cli_mod.realized_value

    def counted(panel, variable, origin, horizon):
        calls.append((origin, horizon))
        return real(panel, variable, origin, horizon)

    monkeypatch.setattr(cli_mod, "realized_value", counted)
    make_raw_panel(tmp_path)
    fa, fb = make_forecast_pair(tmp_path)
    rc = main(["combine", "--forecasts-a", fa, "--forecasts-b", fb, "--strategy", strategy, "--window", "3",
               "--data", str(tmp_path / "panel.csv"), "--tcodes", str(tmp_path / "tcodes.json"),
               "--target", "tgt", "--output", str(tmp_path / "comb.csv")])
    assert rc == 0
    fset = read_forecasts(fa)
    assert sorted(calls) == sorted((o, h) for o in fset.origins() for h in fset.horizons())
    assert len(calls) == 8 * 2


@pytest.mark.parametrize("strategy,window", [("performance", "50"), ("optimal", "75")])
def test_combine_window_defaults_match_the_config_defaults(tmp_path, capsys, strategy, window):
    make_raw_panel(tmp_path)
    fa, fb = make_forecast_pair(tmp_path)
    weights = tmp_path / "w.csv"
    rc = main(
        ["combine", "--forecasts-a", fa, "--forecasts-b", fb, "--strategy", strategy,
         "--data", str(tmp_path / "panel.csv"), "--tcodes", str(tmp_path / "tcodes.json"),
         "--target", "tgt", "--output", str(tmp_path / "o.csv"),
         "--weights-output", str(weights)]
    )
    assert rc == 0
    assert {row[1] for row in _read_csv(weights)[1:]} == {window}


def test_combine_adaptive_requires_data_args(tmp_path, capsys):
    make_raw_panel(tmp_path)
    # build two tiny aligned forecast files via the fixed path first
    fa = QuantileForecastSet(variable_names=["tgt", "c1"])
    fb = QuantileForecastSet(variable_names=["tgt", "c1"])
    fa.add("a", "2018-01", 1, 0.5, np.array([0.1, 0.0]))
    fb.add("b", "2018-01", 1, 0.5, np.array([0.2, 0.0]))
    pa, pb = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_forecasts(fa, pa)
    write_forecasts(fb, pb)
    rc = main(
        ["combine", "--forecasts-a", pa, "--forecasts-b", pb, "--strategy", "optimal",
         "--output", str(tmp_path / "o.csv")]
    )
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "adaptive" in err["message"]


@pytest.mark.parametrize("strategy", ["fixed", "optimal"])
def test_combine_of_misaligned_files_exits_2(tmp_path, capsys, strategy):
    # an adaptive strategy used to look up the missing cell and raise KeyError (exit 1)
    make_raw_panel(tmp_path)
    fa, _ = make_forecast_pair(tmp_path)
    os.replace(fa, tmp_path / "a.csv")
    _, fb = make_forecast_pair(tmp_path, origins=("2017-09", "2018-03"))
    out = tmp_path / "comb.csv"
    rc = main(["combine", "--forecasts-a", str(tmp_path / "a.csv"), "--forecasts-b", fb, "--strategy", strategy,
               "--data", str(tmp_path / "panel.csv"), "--tcodes", str(tmp_path / "tcodes.json"),
               "--target", "tgt", "--output", str(out)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err) == {
        "status": "error", "kind": "CombinationError", "message": "forecast sets misaligned on 4 cells"}
    assert not out.exists()


def test_ingest_roundtrip(tmp_path, capsys):
    make_raw_panel(tmp_path, n_companions=2)
    out_csv = str(tmp_path / "clean.csv")
    out_tc = str(tmp_path / "clean_tcodes.json")
    rc = main(
        ["ingest", "--input", str(tmp_path / "panel.csv"), "--tcodes",
         str(tmp_path / "tcodes.json"), "--output", out_csv, "--output-tcodes", out_tc,
         "--transform"]
    )
    assert rc == 0
    from quantvar.data import read_panel

    clean = read_panel(out_csv, out_tc)
    assert not np.isnan(clean.values).any()
    assert all(int(c) == 2 for c in clean.tcodes)


def _fresh_python(code, *args):
    """stdout of ``code`` run in a new interpreter that imports quantvar from this tree."""
    import quantvar

    src = os.path.dirname(os.path.dirname(quantvar.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_cli_import_leaves_scipy_linalg_unloaded():
    # the package runs on numpy alone; any scipy module would add import
    # time and resident memory to every run and pool worker
    code = "import sys, quantvar.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert _fresh_python(code) == "[]"


def test_optimal_combine_and_evaluate_leave_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma (three modules) on its first call, which
    # would land inside the first optimal combination of a run
    make_raw_panel(tmp_path)
    fa, fb = make_forecast_pair(tmp_path)
    data = ["--data", str(tmp_path / "panel.csv"), "--tcodes", str(tmp_path / "tcodes.json"),
            "--target", "tgt"]
    comb = str(tmp_path / "comb.csv")
    argvs = [
        ["combine", "--forecasts-a", fa, "--forecasts-b", fb, "--strategy", "optimal",
         "--window", "3", *data, "--output", comb],
        ["evaluate", "--forecasts", fa, fb, comb, *data, "--window", "mid:2017-11:2018-02",
         "--benchmark", "bvar", "--output-dir", str(tmp_path / "ev")],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from quantvar.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(codes, 'numpy.ma' in sys.modules)"
    )
    assert _fresh_python(code, json.dumps(argvs)) == "[0, 0] False"
