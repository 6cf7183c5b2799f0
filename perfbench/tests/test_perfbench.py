"""Fast tests of the benchmark itself, at toy sizes.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import sys
from array import array

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import compare  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times, tail_percentile, wrapper_costs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def toy_demo(tmp_path, name="demo_quick"):
    """The demo workload cut to 2 origins of 40 sweeps."""
    wl = workloads.build(name, 7, str(tmp_path))
    with open(wl.config) as fh:
        config = json.load(fh)
    config["mcmc"] = {"iterations": 40, "burn_in": 20, "thin": 2}
    end = workloads.month_index(config["origins"]["end"])
    config["origins"]["start"] = workloads.month_label(end - 1)
    with open(wl.config, "w") as fh:
        json.dump(config, fh)
    wl.n_origins, wl.iterations = 2, 40
    return wl


@pytest.fixture(scope="module")
def toy_jobs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("toy")
    wl = toy_demo(tmp)
    plain = run.run_and_check(wl, ROOT, False, "plain", str(tmp))
    traced = run.run_and_check(wl, ROOT, True, "traced", str(tmp))
    return wl, plain, traced


def test_every_named_metric_is_emitted_with_its_unit(toy_jobs):
    wl, plain, traced = toy_jobs
    assert plain["problems"] == [] and traced["problems"] == []
    assert plain["hashes"] == traced["hashes"]  # tracing does not change results
    e2e = run.end_to_end_metrics([plain], [plain["setup_s"]])
    assert {k: v["unit"] for k, v in e2e.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in e2e.values())
    # one step per quantile-VAR sweep: 2 origins x 5 chains x 40 sweeps, less the first call
    assert plain["pace"]["steps"] == 2 * 5 * 40 - 1
    assert e2e["paced_run_s"]["value"] <= plain["run_s"]
    layers, _ = run.layer_metrics(traced["trace"], traced["warmup_share"], traced["run_s"] - plain["run_s"])
    assert {k: v["unit"] for k, v in layers.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # 2 origins x (5 quantile + 1 Gaussian chains) x 40 sweeps x (3 + 3) row draws
    assert layers["dist.draw_from_precision_system.calls"]["value"] == 2 * 6 * 40 * 6
    assert layers["qbvar.run_chain.calls"]["value"] == 10
    assert layers["cli.origin.calls"]["value"] == 2
    assert 0 < layers["trace.wrapper_s"]["value"] < traced["run_s"]


def test_self_time_is_span_minus_children():
    # root(10) -> a(3) -> c(1); root -> b(2)
    durations = [10.0, 3.0, 2.0, 1.0]
    parents = [-1, 0, 0, 1]
    assert self_times(durations, parents).tolist() == [5.0, 2.0, 2.0, 1.0]


def test_tracer_records_nesting_and_origin():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    inner = tr.span("inner", lambda x: x)
    outer = tr.span("outer", lambda payload: inner(payload[1]), origin_of=lambda args: args[0][0])
    assert outer(("2020-01", 5)) == 5
    s = tr.summary()["spans"]
    assert s["outer"]["calls"] == s["inner"]["calls"] == 1
    assert s["outer"]["incl_s"] == 3.0 and s["inner"]["incl_s"] == 1.0
    assert s["outer"]["self_s"] == 2.0
    assert list(tr.parent) == [-1, 0] and list(tr.origin) == [0, 0]
    assert tr.origin_labels == ["2020-01"]


def test_wrapper_time_is_wrapped_calls_times_their_cost():
    tr = Tracer()
    span, count = tr.span("s", lambda: None), tr.counter("c", lambda: None)
    for _ in range(3):
        span()
    for _ in range(5):
        count()
    assert tr.wrapper_s((2.0, 0.5)) == 3 * 2.0 + 5 * 0.5
    span_cost, count_cost = wrapper_costs(n=2000, repeats=2)
    assert span_cost > 0 and count_cost > 0


def test_pace_pools_every_process_and_rescales_each_slice(tmp_path):
    own = array("d", [0.0, 0.1, 0.3])  # gaps 0.1, 0.2 ending at 0.1, 0.3
    for pid, ticks in ((101, [1.0, 1.05, 1.4]), (102, [1.9])):  # gaps 0.05, 0.35; none
        with open(tmp_path / f"{pid}.bin", "wb") as fh:
            array("d", ticks).tofile(fh)
    series = pace.tick_series(own, str(tmp_path))
    assert len(series) == 3
    s = pace.summary(series, 0.0, 3.0, bin_s=1.0)
    assert s["steps"] == 4 and s["fastest_ms"] == pytest.approx(50.0)
    assert s["median_ms"] == pytest.approx(150.0)
    # no slice has MIN_STEPS steps: every slice takes the whole job's pace
    assert s["paced_run_s"] == pytest.approx(3.0 * 0.05 / 0.15)
    # slices [0, 1) at median 0.1 s, [1, 2) at 0.2 s; [2, 3) has no step and borrows from [1, 2)
    slow = np.concatenate([np.arange(0.0, 1.0, 0.1)[1:], np.arange(1.0, 2.0, 0.2)[1:]])
    s = pace.summary([slow], 0.0, 3.0, bin_s=1.0, min_steps=4)
    assert s["paced_run_s"] == pytest.approx(1.0 * 0.1 / 0.1 + 2 * 1.0 * 0.1 / 0.2)
    assert pace.summary([], 0.0, 1.0)["steps"] == 0


def test_tail_percentile_needs_ten_samples_beyond():
    pct, value, beyond = tail_percentile(np.arange(1, 101))
    assert (pct, beyond) == (90.0, 10) and value == pytest.approx(90.1)
    assert tail_percentile(np.arange(40))[0] == 75.0  # 10 of 40 beyond p75
    assert tail_percentile(np.arange(25))[0] == 50.0
    assert tail_percentile(np.arange(15)) is None  # 7 beyond the median
    assert tail_percentile([]) is None


def test_checks_reject_a_corrupted_forecast_file(toy_jobs):
    wl = toy_jobs[0]
    path = os.path.join(wl.run_dir, "forecasts", "qbvar.csv")
    backup = os.path.join(wl.workdir, "qbvar.csv.orig")
    shutil.copy(path, backup)
    try:
        checks.check_run(wl)
        with open(path) as fh:
            lines = fh.readlines()
        fields = lines[1].split(",")
        lines[1] = ",".join(fields[:-1] + ["nan\n"])
        with open(path, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(checks.CheckFailed, match="manifest hash mismatch"):
            checks.check_run(wl)
        cells = checks.read_cells(path)
        origins = sorted({k[1] for k in cells})
        with pytest.raises(checks.CheckFailed, match="non-finite"):
            checks.check_complete(cells, "qbvar", origins, wl.horizons, wl.quantiles, wl.variables, "qbvar")
        del cells[next(iter(cells))]
        with pytest.raises(checks.CheckFailed, match="missing cell"):
            checks.check_complete(cells, "qbvar", origins, wl.horizons, wl.quantiles, wl.variables, "qbvar")
    finally:
        shutil.move(backup, path)


def test_monotonicity_spread_and_combination_checks():
    cells = {("bvar", "2020-01", 1, 0.1, "y"): 1.0, ("bvar", "2020-01", 1, 0.9, "y"): 2.0}
    checks.check_monotone(cells, "bvar", [0.1, 0.9], "ok")
    assert checks.check_spread(cells, "bvar", 0.1, 0.9, "ok") == 1.0
    cells[("bvar", "2020-01", 1, 0.9, "y")] = 0.5
    with pytest.raises(checks.CheckFailed, match="decrease"):
        checks.check_monotone(cells, "bvar", [0.1, 0.9], "bad")
    with pytest.raises(checks.CheckFailed, match="not positive"):
        checks.check_spread(cells, "bvar", 0.1, 0.9, "bad")
    a = {("a", "2020-01", 1, 0.5, "y"): 1.0}
    b = {("b", "2020-01", 1, 0.5, "y"): 3.0}
    weights = {("2020-01", 0.5, 1): (0.25, False)}
    checks.check_combination({("c", "2020-01", 1, 0.5, "y"): 2.5}, a, b, weights, "ok")
    with pytest.raises(checks.CheckFailed, match="want"):
        checks.check_combination({("c", "2020-01", 1, 0.5, "y"): 2.0}, a, b, weights, "bad")


def test_demo_hashes_are_compared_across_workloads(tmp_path):
    def record(name, seed, digest, hashes):
        os.makedirs(tmp_path / name, exist_ok=True)
        rec = {"machine": {"src_sha256": digest}, "forecast_sha256": hashes}
        with open(tmp_path / name / f"seed{seed}-trace0-{digest}.json", "w") as fh:
            json.dump(rec, fh)

    wl = workloads.build("demo_quick_par2", 3, str(tmp_path / "work"))
    assert run.cross_check_hashes(str(tmp_path), wl, "d", {"qbvar": "x"}) == []  # nothing to compare yet
    record("demo_quick", 3, "d", {"qbvar": "x"})
    record("demo_quick", 4, "d", {"qbvar": "other seed"})
    record("demo_quick", 3, "other sources", {"qbvar": "y"})
    assert run.cross_check_hashes(str(tmp_path), wl, "d", {"qbvar": "x"}) == []
    assert len(run.cross_check_hashes(str(tmp_path), wl, "d", {"qbvar": "z"})) == 1


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert compare.verdict(parent, [v * 0.8 for v in parent], list(zip(parent, [v * 0.8 for v in parent])),
                           0.1, "lower")[0] == "improved"
    assert compare.verdict(parent, [v * 1.2 for v in parent], [], 0.1, "lower")[0] == "regressed"
    assert compare.verdict(parent, list(parent), list(zip(parent, parent)), 0.1, "lower")[0] == "unchanged"
    noisy = [5.0, 10.0, 15.0, 10.0, 10.0]
    assert compare.verdict(noisy, noisy, list(zip(noisy, noisy)), 0.1, "lower")[0] == "unresolved"


def test_missing_sources_fail_without_a_result(tmp_path, capsys):
    assert run.main(["--workload", "demo_quick", "--root", str(tmp_path)]) == 2
    assert capsys.readouterr().out == ""
