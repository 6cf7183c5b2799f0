"""Experiment driver and command-line entry point.

``run`` performs the recursive out-of-sample exercise: for every forecast
origin in the configured range it re-estimates each model on the expanding
window of data up to that origin, produces quantile forecasts for horizons
1..H, scores everything against later realizations, builds forecast
combinations, and writes score, ratio and coverage tables, weight series,
weight-vs-lambda curves and a hash manifest. ``forecast`` makes one origin of the same
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
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bvar import run_bvar_chain
from .combine import (
    CombinationError,
    aligned_values,
    combination_objective,
    combine_weighted,
    optimal_weight,
    performance_weight,
    weight_curve,
    weight_rows,
)
from .data import (
    PanelError,
    TimeSeriesPanel,
    build_lag_design,
    deflate,
    month_index,
    month_label,
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
    coverage_table_rows,
    pinball,
    qs_ratio,
    ratio_table_rows,
    realizations,
    realized_value,  # unused here; the benchmark's tracer counts its calls in this namespace
    render_coverage_table,
    render_ratio_table,
    render_score_table,
    score_records,
    score_table_rows,
)
from .forecast import (
    ForecastError,
    QuantileForecastSet,
    gaussian_forecast,
    level_key,
    quantile_forecast,
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
# the keys a config may hold at its top level; _known_fields refuses any other
_CONFIG_FIELDS = ("data_file", "tcode_file", "target", "companions", "models", "mcmc", "a_sigma", "b_sigma",
                  "horizons", "origins", "evaluation_windows", "event_windows", "combinations", "benchmark",
                  "seed", "output_dir")


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
    bvar: ModelConfig | None
    include_rw: bool
    horizons: list[int]
    origins_start: int  # month_index of the first origin
    origins_end: int  # and of the last
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


def _month(where: str, label) -> int:
    """The :func:`month_index` of ``label``; a ConfigError that names ``where`` if it is no month."""
    try:
        return month_index(label)
    except PanelError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _known_fields(path: str, d: dict, fields) -> dict:
    """``d``, the config object at ``path``, once every key of it is one of ``fields``; else ConfigError."""
    unknown = [key for key in d.keys() if key not in fields]
    if unknown:
        raise ConfigError(f"config field {path + unknown[0]!r} is not a known field")
    return d


def _parse_window(d: dict, kind: str = "evaluation", path: str = "") -> EventWindow:
    """The ``kind`` (evaluation or event) window ``d``, at ``path`` in the config: its label, start and end."""
    label = _known_fields(path, d, ("label", "start", "end"))["label"]
    if not isinstance(label, str):
        raise ConfigError(f"window label must be a string, got {label!r}")
    where = f"{kind} window {label!r}"
    return EventWindow(label, _month(f"{where}: start", d["start"]), _month(f"{where}: end", d["end"]))


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

    _known_fields("", raw, _CONFIG_FIELDS)
    data_file = _path(raw["data_file"])
    tcode_file = _path(raw["tcode_file"])
    target = raw["target"]
    if not isinstance(target, str):
        raise ConfigError(f"config field 'target' must be a string, got {target!r}")
    seed = _integer("seed", raw["seed"])
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    output_dir = _path(raw["output_dir"])
    companions = raw.get("companions", [])
    if not isinstance(companions, list) or not all(isinstance(c, str) for c in companions):
        raise ConfigError(f"config field 'companions' must be a list of strings, got {companions!r}")
    if target in companions:
        raise ConfigError("target listed among companions; exactly one target")

    mc = _known_fields("mcmc.", raw.get("mcmc", {}), ("iterations", "burn_in", "thin"))
    shared = dict(
        schedule=McmcSchedule(
            iterations=_integer("iterations", mc.get("iterations", McmcSchedule.iterations)),
            burn_in=_integer("burn_in", mc.get("burn_in", McmcSchedule.burn_in)),
            thin=_integer("thin", mc.get("thin", McmcSchedule.thin)),
        ),
        a_sigma=_real("a_sigma", raw.get("a_sigma", ModelConfig.a_sigma)),
        b_sigma=_real("b_sigma", raw.get("b_sigma", ModelConfig.b_sigma)),
    )
    models = _known_fields("models.", raw.get("models", {}), ("qbvar", "bvar", "rw"))
    qbvar = ()
    if "qbvar" in models:
        m = _known_fields("models.qbvar.", models["qbvar"], ("p", "r", "quantiles"))
        p, r = _integer("p", m["p"]), _integer("r", m.get("r", 0))
        quantiles = [_real("quantiles", q) for q in m["quantiles"]]
        # forecast records key a level by its value rounded to 10 digits
        if not quantiles or len({level_key(q) for q in quantiles}) != len(quantiles):
            raise ConfigError(f"qbvar quantiles must be non-empty and distinct to 10 digits: {quantiles}")
        qbvar = tuple(QbvarConfig(p=p, r=r, quantile=q, **shared) for q in sorted(quantiles))
    bvar = None
    if "bvar" in models:
        m = _known_fields("models.bvar.", models["bvar"], ("p", "r"))
        bvar = ModelConfig(p=_integer("p", m["p"]), r=_integer("r", m.get("r", 0)), **shared)
    include_rw = models.get("rw", False)
    if not isinstance(include_rw, bool):
        raise ConfigError(f"config field 'rw' must be true or false, got {include_rw!r}")
    if not qbvar and bvar is None and not include_rw:
        raise ConfigError("no models configured")

    horizons = [_integer("horizons", h) for h in raw.get("horizons", list(range(1, 13)))]
    if not horizons or sorted(set(horizons)) != sorted(horizons) or min(horizons) < 1:
        raise ConfigError("horizons must be distinct positive integers")

    eval_windows = [_parse_window(w, "evaluation", f"evaluation_windows[{i}].")
                    for i, w in enumerate(raw.get("evaluation_windows", _DEFAULT_EVAL_WINDOWS))]
    if not eval_windows:
        raise ConfigError("at least one evaluation window required")
    event_windows = [_parse_window(w, "event", f"event_windows[{i}].")
                     for i, w in enumerate(raw.get("event_windows", []))]
    origins = raw.get("origins", {})
    if not isinstance(origins, dict):
        raise ConfigError(f"config field 'origins' must be an object, got {origins!r}")
    _known_fields("origins.", origins, ("start", "end"))
    # by default the origins span the first evaluation window
    origins_start = _month("origins.start", origins["start"]) if "start" in origins else eval_windows[0].start
    origins_end = _month("origins.end", origins["end"]) if "end" in origins else eval_windows[0].end
    if origins_start > origins_end:
        raise ConfigError("empty origin range")

    combos = []
    for i, c in enumerate(raw.get("combinations", [])):
        strategy = c.get("strategy")
        _known_fields(f"combinations[{i}].", c, ("strategy", "lambda" if strategy == "fixed" else "window"))
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
    # imported here so that only run, which hashes its files, loads OpenSSL
    import hashlib

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


def _sample_span(panel: TimeSeriesPanel) -> str:
    return f"the transformed sample {month_label(panel.start)} to {month_label(panel.end)}"


def _check_origins(cfg: ExperimentConfig, panel: TimeSeriesPanel, first: int, last: int) -> None:
    """Raise ConfigError unless months ``first``..``last`` are in ``panel`` with p_max + 20 rows through ``first``."""
    for o in (first, last):
        if not panel.start <= o <= panel.end:
            raise ConfigError(f"origin {month_label(o)} outside {_sample_span(panel)}")
    p_max = max([m.p for m in (*cfg.qbvar, cfg.bvar) if m is not None], default=1)
    min_rows = p_max + 20
    if first - panel.start + 1 < min_rows:
        raise ConfigError(f"origin {month_label(first)} leaves under {min_rows} estimation rows")


# ---------------------------------------------------------------------------
# Per-origin work. Top-level so process pools can pickle it.


def _forecast_one_origin(payload):
    """Estimate every model on data through one origin and forecast ahead.

    payload: (origin, origin_idx, est, cfg), with ``origin`` the month of
    the last estimation row and ``est`` the (rows, n) data through it.
    Returns (origin, blocks, error) where blocks maps (model_id, quantile)
    to a (len(cfg.horizons), n) array, one row per configured horizon.
    The sampled models are fitted and simulated on each series
    standardised by its mean m and sd s over ``est`` (s = 1 where the sd
    is 0), so that their priors do not depend on the data's units, and
    their forecasts are mapped back as m + s * forecast.
    Only an expected numerical failure (ForecastError, LinAlgError,
    FloatingPointError) aborts the origin, with blocks None and the error
    text; any other exception, a bad model value or a code bug among them,
    propagates.
    """
    origin, origin_idx, est, cfg = payload
    try:
        quantiles = cfg.quantile_set
        mean, sd = est.mean(axis=0), est.std(axis=0)
        sd[sd == 0.0] = 1.0
        z = (est - mean) / sd
        # qbvar's chains, one per level (stream index = level index), then
        # bvar's one chain; each model builds its lag design once
        chains = [("qbvar", qi, m) for qi, m in enumerate(cfg.qbvar)]
        if cfg.bvar is not None:
            chains.append(("bvar", 0, cfg.bvar))
        blocks, designs = {}, {}  # (model_id, q) -> forecasts; model_id -> design
        for model_id, stream, model_cfg in chains:
            if model_id not in designs:
                designs[model_id] = build_lag_design(z, model_cfg.p)
            key = (cfg.seed, origin_idx, _MODEL_SEED_INDEX[model_id], stream)
            chain_rng = derive_rng(*key, _STAGE_CHAIN)
            # each model's sampler and predictive; the benchmark's tracer replaces both runners here
            if model_id == "qbvar":
                draws, _ = run_chain(designs[model_id], model_cfg, chain_rng)
                by_q = {draws.quantile: quantile_forecast(draws, z, cfg.horizons, derive_rng(*key, _STAGE_FORECAST))}
            else:
                draws, _ = run_bvar_chain(designs[model_id], model_cfg, chain_rng)
                by_q = gaussian_forecast(draws, z, cfg.horizons, quantiles)
            blocks.update({(model_id, q): mean + sd * block for q, block in by_q.items()})
        if cfg.include_rw:
            blocks.update({("rw", q): np.zeros((len(cfg.horizons), est.shape[1])) for q in quantiles})
        return origin, blocks, None
    except (ForecastError, np.linalg.LinAlgError, FloatingPointError) as exc:
        # the origin aborts; the run decides whether to fail
        return origin, None, f"{type(exc).__name__}: {exc}"


def _payload(cfg: ExperimentConfig, panel: TimeSeriesPanel, origin: int, origin_idx: int) -> tuple:
    """The :func:`_forecast_one_origin` payload of month ``origin``: its rows end at that month."""
    return origin, origin_idx, panel.values[: origin - panel.start + 1], cfg


def _model_sets(cfg: ExperimentConfig, results) -> dict:
    """{model_id: forecast set} of every configured model over the origins of ``results`` that did not abort."""
    blocks = {m: [] for m in cfg.model_ids()}
    for origin, by_key, err in results:
        if err is None:
            for (m, q), block in by_key.items():
                blocks[m].append((origin, q, block))
    return {m: QuantileForecastSet.from_blocks(cfg.variables, cfg.horizons, m, b) for m, b in blocks.items()}


def _histories(fc_a, fc_b, tpanel: TimeSeriesPanel, target: str) -> dict:
    """{(q, h): (rows, months, known_at, a, b, realizations)} for every level and horizon of ``fc_a``.

    :func:`aligned_values` pairs b's records and variables with a's, and
    refuses two sets that cannot be paired. ``rows`` are the records of the
    (q, h) cell in origin order and ``months`` their origins' :func:`month_index`.
    The other four cover the records whose h-step realization is observed:
    ``known_at`` holds the months they are observed in, and the last three
    the target's forecasts by a and by b and its realizations. All six are
    arrays, and one :func:`realizations` lookup serves every record.
    """
    b_values = aligned_values(fc_a, fc_b)
    col = fc_a.variable_names.index(target)
    months = fc_a.origin
    observed, realized = realizations(tpanel, target, months, fc_a.horizon)
    histories = {}
    for q in fc_a.quantiles():
        for h in fc_a.horizons():
            rows = np.flatnonzero((fc_a.quantile == q) & (fc_a.horizon == h))
            seen = rows[observed[rows]]
            histories[(q, h)] = (rows, months[rows], months[seen] + h,
                                 fc_a.values[seen, col], b_values[seen, col], realized[seen])
    return histories


def _combine(fc_a, fc_b, strategy: str, setting, model_id: str, histories=None):
    """Combine a with b under one strategy; returns (combined set, weight file rows).

    Every strategy fills one weight column on a's records, which is checked
    to lie in [0, 1] once. ``fixed`` puts ``setting`` (lambda) on a in every
    cell. The adaptive strategies weigh a at origin t on the trailing
    ``setting`` (S) origins of ``histories`` (from :func:`_histories`) whose
    realizations are observed by t (see combine.py), one weight call per
    (q, h, origin) cell; a cell left unfilled stays NaN and fails the check.
    The rows come from :func:`weight_rows`.
    """
    b_values = aligned_values(fc_a, fc_b)
    fixed = strategy == "fixed"
    lam = np.full(len(fc_a), setting if fixed else np.nan, dtype=float)
    warmup = np.zeros(len(fc_a), dtype=bool)
    if not fixed:
        # appending to lists is cheaper than a numpy item assignment per cell
        cells, lams, warms = [np.empty(0, dtype=np.intp)], [], []
        for (q, h), (records, months, known_at, fa, fb, ys) in histories.items():
            if strategy == "performance":
                scores_a, scores_b = pinball(ys - fa, q), pinball(ys - fb, q)
            known_at = known_at.tolist()  # bisect and the loop read Python ints
            for t in months.tolist():
                # origins are sorted, so the realizations known at t form a prefix
                k = bisect.bisect_right(known_at, t)
                if strategy == "performance":
                    lam_t, warm = performance_weight(scores_a[:k], scores_b[:k], setting)
                else:
                    lam_t, warm = optimal_weight(fa[:k], fb[:k], ys[:k], q, setting)
                lams.append(lam_t)
                warms.append(warm)
            cells.append(records)
        cells = np.concatenate(cells)
        lam[cells], warmup[cells] = lams, warms
    outside = ~((lam >= 0.0) & (lam <= 1.0))
    if outside.any():
        raise CombinationError(f"weight must lie in [0, 1], got {lam[outside][0]}")
    rows = weight_rows(strategy, None if fixed else setting, fc_a, lam, warmup)
    return combine_weighted(fc_a, b_values, lam, model_id), rows


def _aborted(results, n_origins: int) -> dict:
    """{origin label: error} of the aborted origins; RunFailure beyond 1 % of ``n_origins``."""
    aborted = {month_label(o): err for o, _, err in results if err is not None}
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
    # imported here so that only run, which hashes its files, loads OpenSSL
    import hashlib

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

    # a chain's first derive_rng imports numpy.random, and with it secrets,
    # hmac and hashlib's OpenSSL; imported before the pool forks, they are
    # built once and shared with the workers rather than once per process
    import numpy.random  # noqa: F401

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
    max_h = max(cfg.horizons)
    for w in cfg.evaluation_windows:
        if w.start < tpanel.start or w.end > tpanel.end:
            raise ConfigError(f"evaluation window {w.label!r} outside the transformed sample")
    _check_origins(cfg, tpanel, cfg.origins_start, cfg.origins_end)
    if cfg.origins_end + max_h > tpanel.end:
        raise ConfigError(
            "origin range leaves no realizations for the longest horizon; "
            f"last origin must be {max_h} months before {month_label(tpanel.end)}"
        )

    origins = range(cfg.origins_start, cfg.origins_end + 1)
    payloads = [_payload(cfg, tpanel, origin, oi) for oi, origin in enumerate(origins)]
    workers = min(threads, len(payloads)) - 1  # this process samples too
    if workers:
        results = _sample_shared(payloads, workers)
    else:
        results = [_forecast_one_origin(p) for p in payloads]

    aborted = _aborted(results, len(origins))

    fsets = _model_sets(cfg, results)

    out = cfg.output_dir
    os.makedirs(os.path.join(out, "forecasts"), exist_ok=True)
    os.makedirs(os.path.join(out, "tables"), exist_ok=True)
    os.makedirs(os.path.join(out, "combination"), exist_ok=True)

    # combinations: qbvar against the configured benchmark
    if cfg.combinations:
        fc_q, fc_b = fsets["qbvar"], fsets[cfg.benchmark]
        histories = _histories(fc_q, fc_b, tpanel, cfg.target)
        for model_id, strategy, setting in cfg.combinations:
            fsets[model_id], rows = _combine(fc_q, fc_b, strategy, setting, model_id, histories)
            _write_csv(os.path.join(out, "combination", f"weights_{model_id}.csv"), rows)

        # weight-vs-lambda curves for the plain qbvar/benchmark pair
        curve_rows = [["quantile", "horizon", "lambda", "avg_qs", "ratio_to_benchmark", "optimal"]]
        # never empty: every origin's realizations were checked above
        for (q, h), (_, _, _, fq, fb, ys) in histories.items():
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
        write_forecasts([fsets[model_id]], os.path.join(out, "forecasts", f"{model_id}.csv"))

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


def _emit_tables(fsets, tpanel, target: str, windows, benchmark: str | None, out_dir=None) -> str:
    """Score, ratio and coverage tables per (window, label); returns their text.

    Every set is scored once and each window averages those scores. With
    ``out_dir``, each table goes to ``scores__<window>``,
    ``ratios__<window>__<model>_vs_<benchmark>`` or ``coverage__<window>``
    as .csv and .txt; a window that covers no realizations gets only a
    ``scores__<window>.txt`` n/a note. Raises EvaluationError for a window
    with nothing scorable and for a model whose coverage differs from the
    benchmark's.
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
        named = [(f"scores__{slug}", score_table_rows(table), render_score_table(table))]
        for m in sorted({m for m, _, _ in table.entries} - {benchmark}) if benchmark else []:
            ratios = qs_ratio(table, m, benchmark)
            pair = f"{_safe_label(m)}_vs_{_safe_label(benchmark)}"
            named.append((f"ratios__{slug}__{pair}", ratio_table_rows(m, benchmark, ratios),
                          render_ratio_table(table, m, benchmark, ratios)))
        named.append((f"coverage__{slug}", coverage_table_rows(table), render_coverage_table(table)))
        for name, rows, text in named:
            chunks.append(text)
            if out_dir:
                _write_csv(os.path.join(out_dir, f"{name}.csv"), rows)
                _write_text(os.path.join(out_dir, f"{name}.txt"), text)
    return "\n".join(chunks)


def _require_target(fsets, target: str, path) -> None:
    """ConfigError unless the sets that the file ``path`` holds, which share its variables, hold ``target``."""
    if not fsets or target not in fsets[0].variable_names:
        raise ConfigError(f"forecast file {path} has no variable {target!r}")


def _read_forecast_files(paths, target: str) -> list[QuantileForecastSet]:
    """Every model's set of each forecasts CSV; ConfigError when one lacks ``target`` or two hold the same model."""
    fsets, file_of = [], {}  # model id -> the file that holds it
    for path in paths:
        held = read_forecasts(path)
        _require_target(held, target, path)
        for fset in held:
            if fset.model_id in file_of:
                raise ConfigError(f"model {fset.model_id!r} is held by two forecast files: "
                                  f"{file_of[fset.model_id]} and {path}")
            file_of[fset.model_id] = path
        fsets += held
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
    fsets = _read_forecast_files([os.path.join(fdir, f) for f in sorted(os.listdir(fdir))], cfg.target)
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
    print(f"wrote {args.output} ({len(out_panel.values)} rows, {out_panel.n_series} series)")
    return 0


def _cmd_forecast(args) -> int:
    cfg, _ = load_config(args.config)
    tpanel = _load_panel(cfg.data_file, cfg.tcode_file, cfg.variables)
    origin = tpanel.end
    if args.origin:
        try:
            origin = month_index(args.origin)
        except PanelError:  # a malformed month is no month of the sample
            raise ConfigError(f"origin {args.origin} outside {_sample_span(tpanel)}") from None
    _check_origins(cfg, tpanel, origin, origin)
    # panels are monthly and gap-free, so this is the origin's position in a run
    origin_idx = origin - cfg.origins_start
    if origin_idx < 0:
        raise ConfigError(f"origin {month_label(origin)} precedes the config's first origin "
                          f"{month_label(cfg.origins_start)}")
    result = _forecast_one_origin(_payload(cfg, tpanel, origin, origin_idx))
    _aborted([result], 1)
    fsets = list(_model_sets(cfg, [result]).values())
    write_forecasts(fsets, args.output)
    print(f"wrote {args.output} ({sum(map(len, fsets))} records from origin {month_label(origin)})")
    return 0


def _parse_window_arg(spec: str) -> EventWindow:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"window spec must be LABEL:START:END, got {spec!r}")
    return _parse_window(dict(zip(("label", "start", "end"), parts)))


def _cmd_evaluate(args) -> int:
    windows = [(None, "full")] + [
        (w, w.label) for w in (_parse_window_arg(s) for s in args.window or [])
    ]
    _check_window_names([label for _, label in windows])
    tpanel = _load_panel(args.data, args.tcodes, [args.target])
    fsets = _read_forecast_files(args.forecasts, args.target)
    models = sorted(fset.model_id for fset in fsets)
    if args.benchmark and args.benchmark not in models:
        raise ConfigError(f"benchmark {args.benchmark!r} is not a model of the forecast files {models}")
    os.makedirs(args.output_dir, exist_ok=True)
    print(_emit_tables(fsets, tpanel, args.target, windows, args.benchmark, args.output_dir))
    return 0


def _cmd_combine(args) -> int:
    files = [read_forecasts(args.forecasts_a), read_forecasts(args.forecasts_b)]
    for fsets in files:
        if len(fsets) != 1:
            raise CombinationError(f"expected exactly one model id, found {[s.model_id for s in fsets]}")
    (fc_a,), (fc_b,) = files
    histories, setting = None, args.lam
    if args.strategy != "fixed":
        if not (args.data and args.tcodes and args.target):
            raise ConfigError("adaptive strategies need --data, --tcodes and --target")
        tpanel = _load_panel(args.data, args.tcodes, [args.target])
        _require_target([fc_a], args.target, args.forecasts_a)  # _histories checks that b has a's variables
        histories = _histories(fc_a, fc_b, tpanel, args.target)
        setting = _DEFAULT_COMBINATION_WINDOWS[args.strategy] if args.window is None else args.window
    out, rows = _combine(fc_a, fc_b, args.strategy, setting, args.model_id, histories)
    write_forecasts([out], args.output)
    if args.weights_output:
        _write_csv(args.weights_output, rows)
    print(f"wrote {args.output} ({len(out)} combined records)")
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
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone (`report ... | head -1`): stop quietly, with
        # stdout on devnull so that the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
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
