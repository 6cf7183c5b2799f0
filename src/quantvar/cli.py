"""Experiment driver and command-line entry point.

``run`` performs the recursive out-of-sample exercise: for every forecast
origin in the configured range it re-estimates each model on the expanding
window of data up to that origin, produces quantile forecasts for horizons
1..H, scores everything against later realizations, builds forecast
combinations, and writes score/ratio tables, weight series, weight-vs-lambda
curves and a hash manifest. ``forecast`` makes one origin of the same
config through the same per-origin worker: any origin of the run, bit for
bit, or the sample end, which a run cannot reach. ``ingest``, ``evaluate``,
``combine`` and ``report`` expose the data, scoring and combination stages
for piecemeal use.

Deterministic by construction: per-(origin, model, quantile, stage) RNG
streams derived from the master seed, canonical JSON, fixed float
formatting, no timestamps.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import hashlib
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bvar import BvarConfig, run_bvar_chain
from .combine import (
    CombinationWeightSeries,
    aligned_models,
    combination_objective,
    combine_weighted,
    optimal_weight,
    performance_weight,
    weight_curve,
)
from .data import (
    PanelError,
    TimeSeriesPanel,
    build_lag_design,
    deflate,
    month_index,
    read_panel,
    splice_by_growth,
    transform_panel,
    write_panel,
)
from .dist import derive_rng
from .evaluation import (
    EvaluationError,
    EventWindow,
    average_qs,
    pinball,
    qs_ratio,
    ratio_table_rows,
    realized_value,
    render_ratio_table,
    render_score_table,
    score_records,
    score_table_rows,
)
from .forecast import (
    ForecastError,
    QuantileForecastSet,
    forecast_quantiles,
    random_walk_forecast,
    read_forecasts,
    write_forecasts,
)
from .qbvar import McmcSchedule, ModelConfig, QbvarConfig, run_chain

# model indices for seed derivation (stable across runs)
_MODEL_SEED_INDEX = {"qbvar": 0, "bvar": 1, "rw": 2}
_STAGE_CHAIN, _STAGE_FORECAST = 0, 1

_COMBINATION_IDS = {"performance": "comb_perf", "optimal": "comb_opt"}
# trailing window S of an adaptive strategy when a config or command names none
_DEFAULT_COMBINATION_WINDOWS = {"performance": 50, "optimal": 75}

_DEFAULT_EVAL_WINDOWS = [
    {"label": "main", "start": "2008-01", "end": "2025-02"},
    {"label": "recent", "start": "2013-01", "end": "2025-02"},
]


class ConfigError(ValueError):
    pass


class RunFailure(RuntimeError):
    def __init__(self, message: str, detail: dict | None = None):
        super().__init__(message)
        self.detail = detail or {}


@dataclass
class ExperimentConfig:
    """Everything a recursive run needs, parsed from a JSON file."""

    data_file: str
    tcode_file: str
    target: str
    companions: list[str]
    qbvar: tuple[QbvarConfig, ...]  # one per quantile level, ascending; empty if unused
    bvar: BvarConfig | None
    include_rw: bool
    horizons: list[int]
    origins_start: str
    origins_end: str
    evaluation_windows: list[EventWindow]
    event_windows: list[EventWindow]
    combinations: list[tuple]  # (model_id, strategy, lambda or window S), model ids distinct
    benchmark: str
    seed: int
    output_dir: str

    @property
    def variables(self) -> list[str]:
        return [self.target] + list(self.companions)

    @property
    def quantile_set(self) -> list[float]:
        return [m.quantile for m in self.qbvar] or [0.1, 0.5, 0.9]

    def model_ids(self) -> list[str]:
        ids = []
        if self.qbvar:
            ids.append("qbvar")
        if self.bvar is not None:
            ids.append("bvar")
        if self.include_rw:
            ids.append("rw")
        return ids

    def labelled_windows(self) -> list[tuple[EventWindow, str]]:
        """Evaluation windows, then event windows (labelled ``event_<label>``)."""
        windows = [(w, w.label) for w in self.evaluation_windows]
        return windows + [(w, f"event_{w.label}") for w in self.event_windows]


def _parse_window(d: dict) -> EventWindow:
    if not isinstance(d["label"], str):
        raise ConfigError(f"window label must be a string, got {d['label']!r}")
    return EventWindow(label=d["label"], start=d["start"], end=d["end"])


def _integer(name: str, value) -> int:
    """``value`` of the integer field ``name``; ConfigError for a bool or a non-integral number."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"config field {name!r} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """``value`` of the real-valued field ``name``; ConfigError for a bool (float(True) is 1.0)."""
    if isinstance(value, bool):
        raise ConfigError(f"config field {name!r} must be a number, got {value!r}")
    return float(value)


def load_config(path) -> tuple[ExperimentConfig, dict]:
    """Parse and validate a config file; returns (config, raw dict)."""
    with open(path) as fh:
        raw = json.load(fh)
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path))), raw


def parse_config(raw: dict, base_dir: str = ".") -> ExperimentConfig:
    """Validate a raw config; a missing or mistyped field raises ConfigError."""
    try:
        return _parse_fields(raw, base_dir)
    except KeyError as exc:
        raise ConfigError(f"config missing required field {exc}") from exc
    except (TypeError, AttributeError, OverflowError) as exc:  # e.g. a list where an object belongs
        raise ConfigError(f"config field of the wrong type: {exc}") from exc


def _parse_fields(raw: dict, base_dir: str) -> ExperimentConfig:
    def _path(p):
        return p if os.path.isabs(p) else os.path.join(base_dir, p)

    data_file = _path(raw["data_file"])
    tcode_file = _path(raw["tcode_file"])
    target = raw["target"]
    seed = _integer("seed", raw["seed"])
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    output_dir = _path(raw["output_dir"])
    companions = list(raw.get("companions", []))
    if target in companions:
        raise ConfigError("target listed among companions; exactly one target")

    mc = raw.get("mcmc", {})
    shared = dict(
        schedule=McmcSchedule(
            iterations=_integer("iterations", mc.get("iterations", McmcSchedule.iterations)),
            burn_in=_integer("burn_in", mc.get("burn_in", McmcSchedule.burn_in)),
            thin=_integer("thin", mc.get("thin", McmcSchedule.thin)),
        ),
        a_sigma=_real("a_sigma", raw.get("a_sigma", ModelConfig.a_sigma)),
        b_sigma=_real("b_sigma", raw.get("b_sigma", ModelConfig.b_sigma)),
    )
    models = raw.get("models", {})
    qbvar = ()
    if "qbvar" in models:
        m = models["qbvar"]
        p, r = _integer("p", m["p"]), _integer("r", m.get("r", 0))
        quantiles = [_real("quantiles", q) for q in m["quantiles"]]
        # forecast records key a level by its value rounded to 10 digits
        if not quantiles or len({round(q, 10) for q in quantiles}) != len(quantiles):
            raise ConfigError(f"qbvar quantiles must be non-empty and distinct to 10 digits: {quantiles}")
        qbvar = tuple(QbvarConfig(p=p, r=r, quantile=q, **shared) for q in sorted(quantiles))
    bvar = None
    if "bvar" in models:
        m = models["bvar"]
        bvar = BvarConfig(p=_integer("p", m["p"]), r=_integer("r", m.get("r", 0)), **shared)
    include_rw = models.get("rw", False)
    if not isinstance(include_rw, bool):
        raise ConfigError(f"config field 'rw' must be true or false, got {include_rw!r}")
    if not qbvar and bvar is None and not include_rw:
        raise ConfigError("no models configured")

    horizons = [_integer("horizons", h) for h in raw.get("horizons", list(range(1, 13)))]
    if not horizons or sorted(set(horizons)) != sorted(horizons) or min(horizons) < 1:
        raise ConfigError("horizons must be distinct positive integers")

    eval_windows = [_parse_window(w) for w in raw.get("evaluation_windows", _DEFAULT_EVAL_WINDOWS)]
    if not eval_windows:
        raise ConfigError("at least one evaluation window required")
    event_windows = [_parse_window(w) for w in raw.get("event_windows", [])]
    origins = raw.get("origins", {})
    origins_start = origins.get("start", eval_windows[0].start)
    origins_end = origins.get("end", eval_windows[0].end)
    if month_index(origins_start) > month_index(origins_end):
        raise ConfigError("empty origin range")

    combos = []
    for c in raw.get("combinations", []):
        strategy = c.get("strategy")
        if strategy == "fixed":
            setting = _real("lambda", c.get("lambda", 0.5))
            if not 0.0 <= setting <= 1.0:
                raise ConfigError("fixed combination weight must lie in [0, 1]")
            model_id = f"comb_fixed_{setting:g}"
        elif strategy in _COMBINATION_IDS:
            setting = _integer("window", c.get("window", _DEFAULT_COMBINATION_WINDOWS[strategy]))
            if setting < 1:
                raise ConfigError("combination window must be >= 1")
            model_id = _COMBINATION_IDS[strategy]
        else:
            raise ConfigError(f"unknown combination strategy {strategy!r}")
        if any(model_id == taken for taken, _, _ in combos):
            raise ConfigError(f"two combinations write the model {model_id!r}")
        combos.append((model_id, strategy, setting))

    benchmark = raw.get("benchmark", "bvar" if bvar is not None else "rw")
    cfg = ExperimentConfig(
        data_file=data_file,
        tcode_file=tcode_file,
        target=target,
        companions=companions,
        qbvar=qbvar,
        bvar=bvar,
        include_rw=include_rw,
        horizons=sorted(horizons),
        origins_start=origins_start,
        origins_end=origins_end,
        evaluation_windows=eval_windows,
        event_windows=event_windows,
        combinations=combos,
        benchmark=benchmark,
        seed=seed,
        output_dir=output_dir,
    )
    _check_window_names([label for _, label in cfg.labelled_windows()])
    if cfg.benchmark not in cfg.model_ids():
        raise ConfigError(f"benchmark {cfg.benchmark!r} is not a configured model")
    if combos and "qbvar" not in cfg.model_ids():
        raise ConfigError("combinations require the qbvar model")
    if combos and cfg.benchmark == "qbvar":
        raise ConfigError("combinations pair qbvar against a distinct benchmark")
    return cfg


def config_digest(raw: dict) -> str:
    return hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _require_series(panel: TimeSeriesPanel, names) -> None:
    missing = [v for v in names if v not in panel.names]
    if missing:
        raise ConfigError(f"series not in panel: {missing}")


def _load_panel(data_file, tcode_file, variables) -> TimeSeriesPanel:
    """Read, check, select and transform ``variables``."""
    panel = read_panel(data_file, tcode_file)
    _require_series(panel, variables)
    return transform_panel(panel.select(variables))


def _check_origins(cfg: ExperimentConfig, dates: list, first: str, last: str) -> None:
    """Raise ConfigError unless ``first``..``last`` are sample months with p_max + 20 rows through ``first``."""
    for o in (first, last):
        if o not in dates:
            raise ConfigError(f"origin {o} outside the transformed sample {dates[0]} to {dates[-1]}")
    p_max = max([m.p for m in (*cfg.qbvar, cfg.bvar) if m is not None], default=1)
    min_rows = p_max + 20
    if dates.index(first) + 1 < min_rows:
        raise ConfigError(f"origin {first} leaves under {min_rows} estimation rows")


# ---------------------------------------------------------------------------
# Per-origin work. Top-level so process pools can pickle it.


def _forecast_one_origin(payload):
    """Estimate every model on data through one origin and forecast ahead.

    payload: (origin, origin_idx, dates, values, names, cfg).
    Returns (origin, records, error) where records maps
    (model_id, horizon, quantile) -> value vector. Only an expected
    numerical failure (ForecastError, LinAlgError, FloatingPointError)
    aborts the origin, with records None and the error text; any other
    exception, a bad model value or a code bug among them, propagates.
    """
    origin, origin_idx, dates, values, names, cfg = payload
    try:
        cut = dates.index(origin)
        est = values[: cut + 1]
        H = max(cfg.horizons)
        quantiles = cfg.quantile_set
        # qbvar's chains, one per level (stream index = level index), then
        # bvar's one chain; each model builds its lag design once
        chains = [("qbvar", qi, m) for qi, m in enumerate(cfg.qbvar)]
        if cfg.bvar is not None:
            chains.append(("bvar", 0, cfg.bvar))
        blocks, designs = {}, {}  # (model_id, q) -> (H, n) forecasts; model_id -> design
        for model_id, stream, model_cfg in chains:
            if model_id not in designs:
                designs[model_id] = build_lag_design(est, model_cfg.p)
            # read at call time: the benchmark's tracer replaces both runners here
            runner = run_chain if model_id == "qbvar" else run_bvar_chain
            key = (cfg.seed, origin_idx, _MODEL_SEED_INDEX[model_id], stream)
            draws, _ = runner(designs[model_id], model_cfg, derive_rng(*key, _STAGE_CHAIN))
            by_q = forecast_quantiles(draws, est, H, quantiles, derive_rng(*key, _STAGE_FORECAST))
            blocks.update({(model_id, q): block for q, block in by_q.items()})
        if cfg.include_rw:
            blocks.update({("rw", q): random_walk_forecast(H, len(names)) for q in quantiles})
        records = {(m, h, q): b[h - 1] for (m, q), b in blocks.items() for h in cfg.horizons}
        return origin, records, None
    except (ForecastError, np.linalg.LinAlgError, FloatingPointError) as exc:
        # the origin aborts; the run decides whether to fail
        return origin, None, f"{type(exc).__name__}: {exc}"


def _histories(fc_a, a_id, fc_b, b_id, tpanel: TimeSeriesPanel, target: str) -> dict:
    """{(q, h): (origins, a, b, realizations)} for every level and horizon of ``fc_a``, sorted.

    ``origins`` are the sorted origins of ``a_id`` whose h-step realization
    is observed; the other three are float arrays of the target's forecasts
    by a and by b at (q, h) and of its realizations. Each realization is
    looked up once per (origin, h).
    """
    col = fc_a.variable_names.index(target)
    origins_a = fc_a.origins(a_id)
    observed = {}  # h -> (origins, realizations)
    for h in fc_a.horizons():
        pairs = [(o, realized_value(tpanel, target, o, h)) for o in origins_a]
        pairs = [(o, y) for o, y in pairs if y is not None]
        observed[h] = ([o for o, _ in pairs], np.array([y for _, y in pairs], dtype=float))
    return {
        (q, h): (
            origins,
            np.array([fc_a.get(a_id, o, h, q)[col] for o in origins], dtype=float),
            np.array([fc_b.get(b_id, o, h, q)[col] for o in origins], dtype=float),
            ys,
        )
        for q in fc_a.quantiles()
        for h, (origins, ys) in observed.items()
    }


def _combine(fc_a, fc_b, strategy: str, setting, model_id: str, histories=None):
    """Combine a with b under one strategy; returns (combined set, weight series).

    ``fixed`` puts ``setting`` (lambda) on a in every cell. The adaptive
    strategies weigh a at origin t on the trailing ``setting`` (S) origins
    of ``histories`` (from :func:`_histories`) whose realizations are
    observed by t (see combine.py).
    """
    if strategy == "fixed":
        series = CombinationWeightSeries(strategy="fixed", window=None)
        for o, h, q in sorted({k[1:] for k in fc_a.records}):
            series.set_weight(o, q, h, setting, False)
        return combine_weighted(fc_a, fc_b, series, model_id), series
    series = CombinationWeightSeries(strategy=strategy, window=setting)
    origins_a = fc_a.origins()
    month_of = {o: month_index(o) for o in origins_a}
    for (q, h), (origins, fa, fb, ys) in histories.items():
        # origins are sorted, so the realizations known at t form a prefix
        known_at = [month_of[o] + h for o in origins]
        if strategy == "performance":
            scores_a, scores_b = pinball(ys - fa, q), pinball(ys - fb, q)
        for t in origins_a:
            n = bisect.bisect_right(known_at, month_of[t])
            if strategy == "performance":
                lam, warm = performance_weight(scores_a[:n], scores_b[:n], setting)
            else:
                lam, warm = optimal_weight(fa[:n], fb[:n], ys[:n], q, setting)
            series.set_weight(t, q, h, lam, warm)
    return combine_weighted(fc_a, fc_b, series, model_id), series


def _aborted(results, n_origins: int) -> dict:
    """{origin: error} of the aborted origins; RunFailure beyond 1 % of ``n_origins``."""
    aborted = {o: err for o, _, err in results if err is not None}
    if len(aborted) > 0.01 * n_origins:
        raise RunFailure(
            f"{len(aborted)} of {n_origins} origins aborted (limit 1%)",
            detail={"aborted_origins": aborted},
        )
    return aborted


def _write_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _write_text(path, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_json(path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _safe_label(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in label)


def _check_window_names(labels) -> None:
    """Raise ConfigError when two window labels would write the same table files."""
    by_slug = {}
    for label in labels:
        same = by_slug.setdefault(_safe_label(label), [])
        same.append(label)
        if len(same) > 1:
            raise ConfigError(f"window labels {same} map to the same table files")


def _sample_shared(payloads, workers: int) -> list:
    """``_forecast_one_origin`` of every payload, in payload order, over workers + 1 processes.

    This process runs every (workers + 1)-th payload and a pool of
    ``workers`` forked processes the rest. Each origin draws from its own
    streams, so the results do not depend on which process ran it. An
    exception raised in a worker is seen before this process starts its
    next origin, and any exception cancels the origins still queued.
    """
    # imported here so that a serial run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    stride = workers + 1
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            # the pool forks every worker at its first submit, so submitting
            # first leaves this process's sampling state out of the workers
            futures = {i: pool.submit(_forecast_one_origin, p) for i, p in enumerate(payloads) if i % stride}
            own = {}
            for i in range(0, len(payloads), stride):
                failed = next((f for f in futures.values() if f.done() and f.exception()), None)
                if failed is not None:
                    raise failed.exception()
                own[i] = _forecast_one_origin(payloads[i])
            return [own[i] if i in own else futures[i].result() for i in range(len(payloads))]
        except BaseException:
            # a code bug should not wait for every queued origin
            pool.shutdown(cancel_futures=True)
            raise


def _threads() -> int:
    """Sampling-process count from ``QUANTVAR_THREADS`` (default 1, serial)."""
    raw = os.environ.get("QUANTVAR_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(f"QUANTVAR_THREADS must be an integer >= 1, got {raw!r}")
    return threads


def run_recursive(cfg: ExperimentConfig, raw_config: dict) -> dict:
    """Execute the full recursive experiment; returns the manifest dict."""
    if os.path.exists(os.path.join(cfg.output_dir, "manifest.json")):
        raise ConfigError(f"output directory {cfg.output_dir} already holds a run's manifest.json")
    threads = _threads()
    tpanel = _load_panel(cfg.data_file, cfg.tcode_file, cfg.variables)
    dates = list(tpanel.dates)
    last = month_index(dates[-1])
    max_h = max(cfg.horizons)
    for w in cfg.evaluation_windows:
        if month_index(w.start) < month_index(dates[0]) or month_index(w.end) > last:
            raise ConfigError(f"evaluation window {w.label!r} outside the transformed sample")
    _check_origins(cfg, dates, cfg.origins_start, cfg.origins_end)
    if month_index(cfg.origins_end) + max_h > last:
        raise ConfigError(
            "origin range leaves no realizations for the longest horizon; "
            f"last origin must be {max_h} months before {dates[-1]}"
        )

    origins = [d for d in dates if month_index(cfg.origins_start) <= month_index(d) <= month_index(cfg.origins_end)]

    values = tpanel.values
    names = list(cfg.variables)
    payloads = [
        (origin, oi, dates, values, names, cfg) for oi, origin in enumerate(origins)
    ]
    workers = min(threads, len(payloads)) - 1  # this process samples too
    if workers:
        results = _sample_shared(payloads, workers)
    else:
        results = [_forecast_one_origin(p) for p in payloads]

    aborted = _aborted(results, len(origins))

    fsets: dict[str, QuantileForecastSet] = {
        m: QuantileForecastSet(variable_names=names) for m in cfg.model_ids()
    }
    for origin, records, err in sorted(results, key=lambda r: r[0]):
        if err is not None:
            continue
        for (model_id, h, q), vals in records.items():
            fsets[model_id].add(model_id, origin, h, q, vals)

    out = cfg.output_dir
    os.makedirs(os.path.join(out, "forecasts"), exist_ok=True)
    os.makedirs(os.path.join(out, "tables"), exist_ok=True)
    os.makedirs(os.path.join(out, "combination"), exist_ok=True)

    # combinations: qbvar against the configured benchmark
    if cfg.combinations:
        fc_q, fc_b = fsets["qbvar"], fsets[cfg.benchmark]
        histories = _histories(fc_q, "qbvar", fc_b, cfg.benchmark, tpanel, cfg.target)
        for model_id, strategy, setting in cfg.combinations:
            fsets[model_id], series = _combine(fc_q, fc_b, strategy, setting, model_id, histories)
            _write_csv(os.path.join(out, "combination", f"weights_{model_id}.csv"), series.rows())

        # weight-vs-lambda curves for the plain qbvar/benchmark pair
        curve_rows = [["quantile", "horizon", "lambda", "avg_qs", "ratio_to_benchmark", "optimal"]]
        # never empty: every origin's realizations were checked above
        for (q, h), (_, fq, fb, ys) in histories.items():
            grid, vals, ratios = weight_curve(fq, fb, ys, q)
            curve_rows += [[f"{q:.10g}", h, f"{g:.4f}", f"{v:.17g}", f"{rr:.17g}", 0]
                           for g, v, rr in zip(grid, vals, ratios)]
            lam_star, _ = optimal_weight(fq, fb, ys, q, S=len(ys))
            v_star = combination_objective(lam_star, fq, fb, ys, q)
            rr = v_star / vals[0] if vals[0] > 0 else float("nan")
            curve_rows.append([f"{q:.10g}", h, f"{lam_star:.17g}", f"{v_star:.17g}", f"{rr:.17g}", 1])
        _write_csv(os.path.join(out, "combination", "weight_curves.csv"), curve_rows)

    # forecast files
    for model_id in sorted(fsets):
        write_forecasts(fsets[model_id], os.path.join(out, "forecasts", f"{model_id}.csv"))

    # score and ratio tables per window (evaluation windows, then event windows)
    _emit_tables(
        [fsets[m] for m in sorted(fsets)], tpanel, cfg.target, cfg.labelled_windows(), cfg.benchmark,
        os.path.join(out, "tables"),
    )

    # canonical config copy (data paths resolved so `report` works from
    # anywhere), errors, manifest
    cfg_copy = dict(raw_config)
    cfg_copy["data_file"] = os.path.abspath(cfg.data_file)
    cfg_copy["tcode_file"] = os.path.abspath(cfg.tcode_file)
    _write_json(os.path.join(out, "config.json"), cfg_copy)
    _write_json(os.path.join(out, "errors.json"), {"aborted_origins": dict(sorted(aborted.items()))})

    manifest = {
        "version": f"quantvar-{__version__}",
        "seed": cfg.seed,
        "config_sha256": config_digest(raw_config),
        "n_origins": len(origins),
        "n_aborted": len(aborted),
        "files": {},
    }
    for root, _, files in sorted(os.walk(out)):
        for name in sorted(files):
            if name == "manifest.json":
                continue
            fpath = os.path.join(root, name)
            rel = os.path.relpath(fpath, out)
            manifest["files"][rel] = _sha256_file(fpath)
    _write_json(os.path.join(out, "manifest.json"), manifest)
    return manifest


def _ratio_name(slug: str, ratios) -> str:
    return f"ratios__{slug}__{_safe_label(ratios.numerator)}_vs_{_safe_label(ratios.benchmark)}"


def _emit_tables(fsets, tpanel, target: str, windows, benchmark: str | None, out_dir=None) -> str:
    """Score and ratio tables per (window, label); returns their text.

    Every set is scored once and each window averages those scores. With
    ``out_dir``, each table goes to ``scores__<window>`` or
    ``ratios__<window>__<model>_vs_<benchmark>`` as .csv and .txt; a window
    that covers no realizations gets only a ``scores__<window>.txt`` n/a
    note. Raises EvaluationError for a window with nothing scorable and for
    a model whose coverage differs from the benchmark's.
    """
    scored = [score_records(fset, tpanel, target) for fset in fsets]
    chunks = []
    for window, label in windows:
        table = average_qs(scored, target, window=window, window_label=label)
        slug = _safe_label(label)
        if not table.entries:
            note = f"window {label}: no covered realizations (n/a)\n"
            chunks.append(note)
            if out_dir:
                _write_text(os.path.join(out_dir, f"scores__{slug}.txt"), note)
            continue
        ratios = [qs_ratio(table, m, benchmark) for m in table.models() if benchmark and m != benchmark]
        named = [(f"scores__{slug}", score_table_rows(table), render_score_table(table))]
        named += [(_ratio_name(slug, r), ratio_table_rows(r), render_ratio_table(r)) for r in ratios]
        for name, rows, text in named:
            chunks.append(text)
            if out_dir:
                _write_csv(os.path.join(out_dir, f"{name}.csv"), rows)
                _write_text(os.path.join(out_dir, f"{name}.txt"), text)
    return "\n".join(chunks)


def _read_forecast_files(paths) -> list[QuantileForecastSet]:
    """Read each forecasts CSV; ConfigError when two of them hold the same model."""
    fsets, file_of = [], {}  # model id -> the file that holds it
    for path in paths:
        fset = read_forecasts(path)
        for m in fset.model_ids():
            if m in file_of:
                raise ConfigError(f"model {m!r} is held by two forecast files: {file_of[m]} and {path}")
            file_of[m] = path
        fsets.append(fset)
    return fsets


def report(run_dir: str, output_path: str | None = None) -> str:
    """Re-render every table from a completed run's forecast files."""
    cfg_path = os.path.join(run_dir, "config.json")
    if not os.path.exists(cfg_path):
        raise RunFailure(f"{run_dir!r} has no config.json; not a completed run")
    cfg, _ = load_config(cfg_path)
    fdir = os.path.join(run_dir, "forecasts")
    if not os.path.isdir(fdir):
        raise RunFailure("run directory has no forecasts/")
    fsets = _read_forecast_files([os.path.join(fdir, f) for f in sorted(os.listdir(fdir))])
    tpanel = _load_panel(cfg.data_file, cfg.tcode_file, cfg.variables)
    text = _emit_tables(fsets, tpanel, cfg.target, cfg.labelled_windows(), cfg.benchmark)
    if output_path:
        _write_text(output_path, text)
    return text


# ---------------------------------------------------------------------------
# Subcommand handlers.


def _series_pair(panel: TimeSeriesPanel, spec: str) -> tuple[int, np.ndarray]:
    """(column of the first series, values of the second) for a NAME:NAME spec."""
    names = spec.split(":")
    if len(names) != 2:
        raise ConfigError(f"series pair must be NAME:NAME, got {spec!r}")
    _require_series(panel, names)
    return panel.names.index(names[0]), panel.column(names[1])


def _cmd_ingest(args) -> int:
    panel = read_panel(args.input, args.tcodes)
    for pair in args.deflate or []:
        j, cpi = _series_pair(panel, pair)
        panel.values[:, j] = deflate(panel.values[:, j], cpi)
    for pair in args.splice or []:
        j, donor = _series_pair(panel, pair)
        panel.values[:, j] = splice_by_growth(panel.values[:, j], donor)
    out_panel = panel
    if args.transform:
        out_panel = transform_panel(panel)
    write_panel(out_panel, args.output, args.output_tcodes)
    print(f"wrote {args.output} ({len(out_panel.dates)} rows, {out_panel.n_series} series)")
    return 0


def _cmd_forecast(args) -> int:
    cfg, _ = load_config(args.config)
    tpanel = _load_panel(cfg.data_file, cfg.tcode_file, cfg.variables)
    dates = list(tpanel.dates)
    origin = args.origin or dates[-1]
    _check_origins(cfg, dates, origin, origin)
    # panels are monthly and gap-free, so this is the origin's position in a run
    origin_idx = month_index(origin) - month_index(cfg.origins_start)
    if origin_idx < 0:
        raise ConfigError(f"origin {origin} precedes the config's first origin {cfg.origins_start}")
    result = _forecast_one_origin((origin, origin_idx, dates, tpanel.values, cfg.variables, cfg))
    _aborted([result], 1)
    fset = QuantileForecastSet(variable_names=cfg.variables)
    for (model_id, h, q), vals in result[1].items():
        fset.add(model_id, origin, h, q, vals)
    write_forecasts(fset, args.output)
    print(f"wrote {args.output} ({len(fset.records)} records from origin {origin})")
    return 0


def _parse_window_arg(spec: str) -> EventWindow:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"window spec must be LABEL:START:END, got {spec!r}")
    return EventWindow(label=parts[0], start=parts[1], end=parts[2])


def _cmd_evaluate(args) -> int:
    windows = [(None, "full")] + [
        (w, w.label) for w in (_parse_window_arg(s) for s in args.window or [])
    ]
    _check_window_names([label for _, label in windows])
    tpanel = _load_panel(args.data, args.tcodes, [args.target])
    fsets = _read_forecast_files(args.forecasts)
    models = sorted({m for fset in fsets for m in fset.model_ids()})
    if args.benchmark and args.benchmark not in models:
        raise ConfigError(f"benchmark {args.benchmark!r} is not a model of the forecast files {models}")
    os.makedirs(args.output_dir, exist_ok=True)
    print(_emit_tables(fsets, tpanel, args.target, windows, args.benchmark, args.output_dir))
    return 0


def _cmd_combine(args) -> int:
    fc_a = read_forecasts(args.forecasts_a)
    fc_b = read_forecasts(args.forecasts_b)
    a_id, b_id = aligned_models(fc_a, fc_b)
    histories, setting = None, args.lam
    if args.strategy != "fixed":
        if not (args.data and args.tcodes and args.target):
            raise ConfigError("adaptive strategies need --data, --tcodes and --target")
        tpanel = _load_panel(args.data, args.tcodes, [args.target])
        histories = _histories(fc_a, a_id, fc_b, b_id, tpanel, args.target)
        setting = _DEFAULT_COMBINATION_WINDOWS[args.strategy] if args.window is None else args.window
    out, series = _combine(fc_a, fc_b, args.strategy, setting, args.model_id, histories)
    write_forecasts(out, args.output)
    if args.weights_output:
        _write_csv(args.weights_output, series.rows())
    print(f"wrote {args.output} ({len(out.records)} combined records)")
    return 0


def _cmd_run(args) -> int:
    cfg, raw = load_config(args.config)
    if args.output_dir:
        cfg.output_dir = args.output_dir
    os.makedirs(cfg.output_dir, exist_ok=True)
    manifest = run_recursive(cfg, raw)
    print(
        f"run complete: {manifest['n_origins']} origins "
        f"({manifest['n_aborted']} aborted), {len(manifest['files'])} files in {cfg.output_dir}"
    )
    return 0


def _cmd_report(args) -> int:
    text = report(args.run_dir, args.output)
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quantvar",
        description="Quantile Bayesian VAR estimation, forecasting, scoring and combination",
    )
    ap.add_argument("--version", action="version", version=f"quantvar {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("ingest", help="validate a raw panel; optional deflation/splicing")
    g.add_argument("--input", required=True)
    g.add_argument("--tcodes", required=True)
    g.add_argument("--output", required=True)
    g.add_argument("--output-tcodes", required=True)
    g.add_argument("--deflate", action="append", metavar="NOMINAL:CPI")
    g.add_argument("--splice", action="append", metavar="TARGET:DONOR")
    g.add_argument("--transform", action="store_true", help="emit the transformed panel")
    g.set_defaults(func=_cmd_ingest)

    def _data_args(p, required):
        for flag in ("--data", "--tcodes", "--target"):
            p.add_argument(flag, required=required)

    g = sub.add_parser("forecast", help="forecast every configured model from one origin of a run config")
    g.add_argument("--config", required=True)
    g.add_argument("--origin", help="last estimation month, a run origin or later (default: sample end)")
    g.add_argument("--output", required=True, help="forecasts CSV of every model and level")
    g.set_defaults(func=_cmd_forecast)

    g = sub.add_parser("evaluate", help="score forecast files against realizations")
    _data_args(g, required=True)
    g.add_argument("--forecasts", nargs="+", required=True)
    g.add_argument("--window", action="append", metavar="LABEL:START:END")
    g.add_argument("--benchmark")
    g.add_argument("--output-dir", required=True)
    g.set_defaults(func=_cmd_evaluate)

    g = sub.add_parser("combine", help="combine two forecast files")
    g.add_argument("--forecasts-a", required=True, help="the model receiving weight lambda")
    g.add_argument("--forecasts-b", required=True)
    g.add_argument("--strategy", choices=["fixed", "performance", "optimal"], required=True)
    g.add_argument("--lambda", dest="lam", type=float, default=0.5)
    g.add_argument("--window", type=int)
    _data_args(g, required=False)
    g.add_argument("--model-id", default="comb")
    g.add_argument("--output", required=True)
    g.add_argument("--weights-output")
    g.set_defaults(func=_cmd_combine)

    g = sub.add_parser("run", help="full recursive out-of-sample experiment")
    g.add_argument("--config", required=True)
    g.add_argument("--output-dir", help="override the configured output directory")
    g.set_defaults(func=_cmd_run)

    g = sub.add_parser("report", help="re-render tables from a completed run")
    g.add_argument("--run-dir", required=True)
    g.add_argument("--output")
    g.set_defaults(func=_cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PanelError, EvaluationError, ForecastError, ValueError, OSError) as exc:
        print(json.dumps({"status": "error", "kind": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except RunFailure as exc:
        print(
            json.dumps(
                {"status": "error", "kind": "RunFailure", "message": str(exc), "detail": exc.detail},
                sort_keys=True,
            ),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
