"""Iterated multi-step quantile forecasts from posterior draw sets.

Each retained draw defines a VAR whose future shocks are normal with
covariance Lam Lam' + diag(v). Each model has its own predictive, which the
caller that ran the model's sampler picks. A quantile model's forecast at
its own level (:func:`quantile_forecast`) is the pointwise median across
PATHS_PER_DRAW simulated paths per draw, fed back into the lag vector
horizon by horizon, with v = sigma^2 (theta^2 + tau2), the variance of its
asymmetric-Laplace error of scale sigma, and the normal centred (a stopgap
until the quantile model has a predictive of its own). The Gaussian
benchmark's q-forecast (:func:`gaussian_forecast`), with v = sigma, is the
q-quantile of its closed-form predictive, the mixture over draws of each
draw's normal h-step predictive (Karlsson 2013), which no simulation noise
enters.

A :class:`QuantileForecastSet` holds one model's forecasts as columns: one
(records, variables) value array and key columns (origin months, horizons,
levels), sorted by key, with no Python object per record. The forecasts
CSV, the one place an origin is a ``YYYY-MM`` label, may hold several
models: it is read into typed buffers that one lexsort groups into records,
split into one set per model, and written a batch of rows at a time.
"""

from __future__ import annotations

import csv
from array import array
from math import erfc, isfinite, pi, sqrt
from statistics import NormalDist

import numpy as np

from .data import month_index, month_label
from .qbvar import PosteriorDrawSet, QuantileLevel

# an origin is abandoned when more than this share of simulated paths, or
# of the Gaussian model's draws, has non-finite values (explosive draws)
MAX_BAD_FRACTION = 0.01
# simulated paths per retained draw: the shocks, not the parameters, make
# most of a forecast's Monte Carlo noise, and M paths cut the order-statistic
# sd of a quantile forecast by about sqrt(M)
PATHS_PER_DRAW = 10


class ForecastError(RuntimeError):
    """Raised when a forecast origin cannot produce usable forecasts."""


def _recent_lags(draws: PosteriorDrawSet, history) -> np.ndarray:
    """The last p rows of the observed series ``history`` (T, n, in time order), most recent first."""
    history = np.asarray(history, dtype=float)
    if history.ndim != 2:
        raise ValueError("history must be (T, n)")
    p = draws.p
    if history.shape[0] < p:
        raise ForecastError(f"need at least p={p} rows of history, got {history.shape[0]}")
    if history.shape[1] != draws.Phi.shape[1]:
        raise ValueError("history width does not match the model")
    return history[-p:][::-1]


def _refuse_a_bad_share(bad: np.ndarray, what: str) -> None:
    """Raise ForecastError when more than MAX_BAD_FRACTION of ``bad`` is True."""
    frac = float(bad.mean())
    if frac > MAX_BAD_FRACTION:
        raise ForecastError(f"{frac:.1%} of {what} are non-finite (limit {MAX_BAD_FRACTION:.0%})")


def simulate_paths(
    draws: PosteriorDrawSet, history: np.ndarray, horizon: int, sd: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Simulate (S * PATHS_PER_DRAW, horizon, n) future paths, PATHS_PER_DRAW per posterior draw.

    Each draw's paths are adjacent rows. history holds the observed series
    in time order; only its last p rows enter the lag vector. ``sd`` (S, n)
    holds each draw's idiosyncratic shock sd. Non-finite paths are tolerated
    up to MAX_BAD_FRACTION of all paths and replaced by NaN; beyond that the
    origin fails.
    """
    lags = _recent_lags(draws, history)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    S, n, k = draws.Phi.shape
    p = draws.p
    r = draws.n_factors
    M = PATHS_PER_DRAW
    PhiT = draws.Phi.transpose(0, 2, 1)  # (S, k, n): x @ PhiT is each path's conditional mean
    LamT = draws.Lam.transpose(0, 2, 1)
    lags = np.broadcast_to(lags, (S, M, p, n)).copy()
    paths = np.empty((S, M, horizon, n))
    x = np.empty((S, M, k))
    x[:, :, 0] = 1.0
    # an explosive draw overflows; its paths are counted below
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(horizon):
            x[:, :, 1:] = lags.reshape(S, M, p * n)
            eps = rng.standard_normal((S, M, n)) * sd[:, None, :]
            if r:
                eps += rng.standard_normal((S, M, r)) @ LamT
            y_new = x @ PhiT + eps
            paths[:, :, j, :] = y_new
            if p > 1:
                lags[:, :, 1:, :] = lags[:, :, :-1, :]
            lags[:, :, 0, :] = y_new
    paths = paths.reshape(S * M, horizon, n)
    bad = ~np.isfinite(paths).all(axis=(1, 2))
    _refuse_a_bad_share(bad, "simulated paths")
    if bad.any():
        paths[bad] = np.nan
    return paths


def quantile_forecast(draws: PosteriorDrawSet, history: np.ndarray, horizons, rng) -> np.ndarray:
    """The quantile model's forecast at its own level, row j at ``horizons[j]``: the median across its paths."""
    level = QuantileLevel(draws.quantile)
    paths = simulate_paths(draws, history, max(horizons), draws.sigma * np.sqrt(level.theta**2 + level.tau2), rng)
    bad = np.isnan(paths[:, 0, 0])  # a bad path is NaN throughout, every other path finite throughout
    if bad.any():
        paths = paths[~bad]
    # the call's own paths: the median partitions them in place, and rows are picked from its result
    return np.median(paths, axis=0, overwrite_input=True)[[h - 1 for h in horizons]]


def gaussian_forecast(draws: PosteriorDrawSet, history: np.ndarray, horizons, quantiles) -> dict:
    """The Gaussian model's forecasts {q: rows at ``horizons``}: q-quantiles of its closed-form predictive.

    Each retained draw's h-step predictive is normal. Its mean follows the
    VAR recursion with zero shocks; its variance is the diagonal of
    sum_{j<h} Psi_j Sigma Psi_j', with Psi_j the draw's moving-average
    coefficients and Sigma = Lam Lam' + diag(sigma). The forecast is the
    q-quantile of the equal-weight mixture of these normals over the draws,
    so it is monotone in q and draws no random number. A draw whose moments
    are not finite (an explosive draw) is left out, up to MAX_BAD_FRACTION
    of the draws.
    """
    for q in quantiles:
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must lie in (0, 1)")
    lags = _recent_lags(draws, history)
    S, n, _ = draws.Phi.shape
    H, pn = max(horizons), draws.p * n
    A = draws.Phi[:, :, 1:]  # (S, n, p n): the coefficients on the lag vector, most recent lag first
    Sigma = draws.Lam @ draws.Lam.transpose(0, 2, 1) + draws.sigma[:, :, None] * np.eye(n)
    y = np.broadcast_to(lags.reshape(pn, 1), (S, pn, 1)).copy()  # lag vector of the mean path
    psi = np.zeros((S, pn, n))  # (Psi_j; Psi_{j-1}; ...; Psi_{j-p+1}) stacked, from Psi_0 = I
    psi[:, :n] = np.eye(n)
    mean, var = np.empty((2, H, S, n))
    with np.errstate(over="ignore", invalid="ignore"):  # an explosive draw overflows; it is counted below
        for j in range(H):
            var[j] = ((psi[:, :n] @ Sigma) * psi[:, :n]).sum(axis=2) + (var[j - 1] if j else 0.0)
            mean[j] = draws.Phi[:, :, 0] + (A @ y)[:, :, 0]
            y[:, n:], y[:, :n, 0] = y[:, :-n], mean[j]
            psi[:, n:], psi[:, :n] = psi[:, :-n], A @ psi
    bad = ~(np.isfinite(mean).all(axis=(0, 2)) & np.isfinite(var).all(axis=(0, 2)))
    _refuse_a_bad_share(bad, "the draws' predictive moments")
    rows = [h - 1 for h in horizons]
    # one row per (horizon, variable) cell, one column per finite draw
    mean, var = (a[rows][:, ~bad].transpose(0, 2, 1).reshape(len(rows) * n, -1) for a in (mean, var))
    return {q: _mixture_quantile(mean, np.sqrt(var), q).reshape(len(rows), n) for q in quantiles}


_erfc = np.frompyfunc(erfc, 1, 1)  # Phi(z) = erfc(-z / sqrt(2)) / 2, without scipy at run time


def _mixture_quantile(mean: np.ndarray, sd: np.ndarray, q: float) -> np.ndarray:
    """The q-quantile of each row's equal-weight mixture of the normals N(mean, sd^2) in its columns.

    Solves the mean over columns of Phi((x - mean) / sd) = q by Newton's
    method from the moment-matched normal quantile. The columns' own
    q-quantiles bracket the root; each evaluation narrows the bracket, and
    a step that leaves it is replaced by its midpoint. A row stops once its
    step is within 1e-12 of its scale, so each row's result depends on that
    row alone.
    """
    z_q = NormalDist().inv_cdf(q)
    own = mean + sd * z_q
    lo, hi = own.min(axis=1), own.max(axis=1)
    x = np.clip(mean.mean(axis=1) + np.sqrt((sd**2).mean(axis=1) + mean.var(axis=1)) * z_q, lo, hi)
    todo = np.arange(len(x))
    # Newton ends in 3 to 5 steps; 100 halvings would shrink the bracket by 2^-100
    with np.errstate(divide="ignore", invalid="ignore"):  # a row solved exactly has gap 0
        for _ in range(100):
            at, m, s = x[todo], mean[todo], sd[todo]
            z = (at[:, None] - m) / s
            gap = 0.5 * _erfc(-z / sqrt(2.0)).astype(float).mean(axis=1) - q
            lo[todo] = low = np.where(gap < 0.0, at, lo[todo])
            hi[todo] = high = np.where(gap > 0.0, at, hi[todo])
            step = np.where(gap == 0.0, at, at - gap / (np.exp(-0.5 * z * z) / s).mean(axis=1) * sqrt(2.0 * pi))
            x[todo] = np.where((low <= step) & (step <= high), step, 0.5 * (low + high))
            todo = todo[np.abs(x[todo] - at) > 1e-12 * (1.0 + np.abs(at))]
            if not len(todo):
                break
    return x


def level_key(quantile) -> float:
    """A quantile level as record keys hold it: rounded to 10 digits."""
    return round(float(quantile), 10)


def group_starts(keys, order=None) -> np.ndarray:
    """True at row 0 and where a row's key differs from the row before.

    The rows are sorted by the columns ``keys``, or are taken in ``order``
    (which sorts them); one sorted column exists at a time.
    """
    start = np.zeros(len(keys[0]) if order is None else len(order), dtype=bool)
    start[:1] = True
    for column in keys:
        if order is not None:
            column = column[order]
        start[1:] |= column[1:] != column[:-1]
    return start


def _intern(values: list, value) -> int:
    """``value``'s index in ``values``, appending it when absent."""
    if value not in values:
        values.append(value)
    return values.index(value)


class QuantileForecastSet:
    """One model's forecast values keyed by (origin, horizon, quantile), stored as columns.

    ``origin`` is the :func:`month_index` of the last observation used for
    estimation; ``horizon`` is months ahead; ``quantile`` is the level
    rounded to 10 digits. Record i has the key (month_label(origin[i]),
    horizon[i], quantile[i]) and one value per variable, values[i], in
    ``variable_names`` order. Records are sorted by key and unique.
    """

    def __init__(self, variable_names, model_id: str, origin, horizon, quantile, values):
        """A set of columns already in the layout above."""
        self.variable_names = list(variable_names)
        self.model_id = model_id
        self.origin = np.asarray(origin, dtype=np.int32)
        self.horizon = np.asarray(horizon, dtype=np.int64)
        self.quantile = np.asarray(quantile, dtype=float)
        self.values = np.asarray(values, dtype=float)

    @classmethod
    def from_columns(cls, variable_names, model_id, origin, horizon, quantile, values):
        """A set of the constructor's columns with records in any order.

        ``quantile`` holds levels rounded as keys hold them. A duplicate key
        raises ValueError.
        """
        fset = cls(variable_names, model_id, origin, horizon, quantile, values)
        keys = (fset.origin, fset.horizon, fset.quantile)
        order = np.lexsort(keys[::-1])
        fset = cls(variable_names, model_id, *(column[order] for column in (*keys, fset.values)))
        new = group_starts([fset.origin, fset.horizon, fset.quantile])
        if not new.all():
            raise ValueError(f"duplicate forecast record {fset.key(int(np.argmin(new)))}")
        return fset

    @classmethod
    def from_blocks(cls, variable_names, horizons, model_id, blocks):
        """The set of (origin month, quantile, block) entries; block row j holds ``horizons[j]``."""
        H = len(horizons)
        return cls.from_columns(
            variable_names, model_id, np.repeat([o for o, _, _ in blocks], H), np.tile(horizons, len(blocks)),
            np.repeat([level_key(q) for _, q, _ in blocks], H),
            np.concatenate([b for _, _, b in blocks]) if blocks else np.empty((0, len(variable_names))),
        )

    def __len__(self) -> int:
        return len(self.values)

    def key(self, i: int) -> tuple:
        """The (model_id, origin label, horizon, quantile) key of record ``i``, as messages name it."""
        return self.model_id, month_label(int(self.origin[i])), int(self.horizon[i]), float(self.quantile[i])

    def horizons(self) -> list[int]:
        return distinct(self.horizon)

    def quantiles(self) -> list[float]:
        return distinct(self.quantile)


def distinct(column: np.ndarray) -> list:
    """The distinct values of ``column``, ascending, as Python numbers (np.unique would import numpy.ma)."""
    ordered = np.sort(column)
    return ordered[group_starts([ordered])].tolist()


_COLUMNS = ["model_id", "origin", "horizon", "quantile", "variable", "value"]
# rows converted to Python values per batch, so that no whole column is ever held as Python numbers
_ROW_BATCH = 1024


def column_rows(*columns):
    """Tuples of Python values, one per row of equally long arrays, converted a batch at a time."""
    for start in range(0, len(columns[0]), _ROW_BATCH):
        yield from zip(*(column[start:start + _ROW_BATCH].tolist() for column in columns))


def write_forecasts(fsets, path) -> None:
    """Write one row per (model, origin, horizon, quantile, variable) of the sets ``fsets``, in key order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_COLUMNS)
        for fset in sorted(fsets, key=lambda s: s.model_id):
            names = fset.variable_names
            origins = {o: month_label(o) for o in distinct(fset.origin)}
            levels = {q: f"{q:.10g}" for q in fset.quantiles()}
            for o, h, q, vals in column_rows(fset.origin, fset.horizon, fset.quantile, fset.values):
                head = (fset.model_id, origins[o], h, levels[q])
                writer.writerows([*head, name, f"{v:.17g}"] for name, v in zip(names, vals))


def read_forecasts(path) -> list[QuantileForecastSet]:
    """Read a forecasts CSV in one streaming pass into typed column buffers: one set per model, by model id.

    Rows may come in any order; one stable lexsort groups them into
    records, which :meth:`QuantileForecastSet.from_columns` sorts by key.
    Variables take their order of first appearance, and each (model,
    origin, horizon, quantile) record needs every variable exactly once.
    A bad header raises ValueError naming the file. A malformed row, a bad
    month label, a horizon below 1, a quantile outside (0, 1) and a
    non-finite value end the parse and raise ValueError naming the file and
    line, unless a duplicate row comes before that line: the earliest
    duplicate is raised first. A record that lacks a variable raises it
    last, naming the earliest-starting such record. Each distinct origin,
    horizon and quantile string is parsed and checked once. A file with no
    rows holds no set.
    """
    labels, months, horizons, levels, columns, value, line, fault = _parse_rows(path)
    models, _, _, _, variables = (list(c) for c in labels)
    columns = [np.frombuffer(c, dtype=np.intc) for c in columns]

    def key(row):
        m, o, h, q = (int(column[row]) for column in columns[:4])
        return models[m], month_label(months[o]), horizons[h], levels[q]

    # stable, so the rows of one (record, variable) keep their file order
    order = np.lexsort(columns[::-1])
    new = group_starts(columns[:4], order)
    repeat = ~new
    slot = columns[4][order]
    repeat[1:] &= slot[1:] == slot[:-1]
    if repeat.any():
        row = int(order[repeat].min())
        raise ValueError(f"{path}, line {line[row]}: duplicate row for record {key(row)}, "
                         f"variable {variables[columns[4][row]]!r}")
    if fault:
        raise ValueError(fault)
    del line, repeat, slot
    starts = np.flatnonzero(new)
    del new
    short = np.diff(starts, append=len(order)) != len(variables)
    if short.any():
        row = int(np.minimum.reduceat(order, starts)[short].min())
        raise ValueError(f"incomplete variable set for record {key(row)}")
    first = order[starts]
    model, origin, horizon, quantile = (column[first] for column in columns[:4])
    del columns, first
    # a complete record's rows hold slots 0..V-1, once each and in slot order
    values = np.frombuffer(value)[order.reshape(len(starts), len(variables))]
    del order, value
    records = (np.array(months, dtype=np.int32)[origin], np.array(horizons, dtype=np.int64)[horizon],
               np.array(levels, dtype=float)[quantile], values)
    # the records are sorted by model code, so each model's records form one block
    bounds = np.append(np.flatnonzero(group_starts([model])), len(model)).tolist()
    blocks = sorted((models[model[start]], start, end) for start, end in zip(bounds, bounds[1:]))
    return [QuantileForecastSet.from_columns(variables, m, *(column[start:end] for column in records))
            for m, start, end in blocks]


def _parse_rows(path) -> tuple:
    """Parse a forecasts CSV's rows up to its first bad line into typed buffers (see :func:`read_forecasts`).

    Returns the code maps of model id, origin, horizon and quantile field
    and variable (codes in order of first appearance), the parsed months,
    horizons and levels by code, the five code columns, the values, the line
    numbers and the bad line's message or None. The buffers' bound ``append``
    methods end with this frame, so the caller can release the buffers.
    """
    labels = ({}, {}, {}, {}, {})
    models, origin_codes, horizon_codes, level_codes, slots = labels
    months, horizons, levels = [], [], []
    columns = tuple(array("i") for _ in labels)
    value, line = array("d"), array("i")
    add_model, add_origin, add_horizon, add_level, add_slot = (c.append for c in columns)
    add_value, add_line = value.append, line.append
    fault = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, [])[:6] != _COLUMNS:
            raise ValueError(f"{path}: not a forecast file (bad header)")
        for row in reader:
            try:
                model_id, origin, horizon, quantile, variable, value_field = row
                if origin not in origin_codes:
                    origin_codes[origin] = _intern(months, month_index(origin))
                h = horizon_codes.get(horizon)
                if h is None:
                    parsed = int(horizon)
                    if parsed < 1:
                        raise ValueError(f"horizon must be >= 1, got {parsed}")
                    if parsed >= 2**31:  # origin month + horizon must not overflow the int64 columns
                        raise ValueError(f"horizon must be below 2**31, got {parsed}")
                    h = horizon_codes[horizon] = _intern(horizons, parsed)
                q = level_codes.get(quantile)
                if q is None:
                    parsed = level_key(quantile)
                    if not 0.0 < parsed < 1.0:
                        raise ValueError(f"quantile must lie in (0, 1), got {quantile}")
                    q = level_codes[quantile] = _intern(levels, parsed)
                v = float(value_field)
                if not isfinite(v):
                    raise ValueError(f"value must be finite, got {v}")
            except ValueError as exc:
                problem = f"expected 6 fields, got {len(row)}" if len(row) != 6 else exc
                fault = f"{path}, line {reader.line_num}: {problem}"
                break
            add_model(models.setdefault(model_id, len(models)))
            add_origin(origin_codes[origin])
            add_horizon(h)
            add_level(q)
            add_slot(slots.setdefault(variable, len(slots)))
            add_value(v)
            add_line(reader.line_num)
    return labels, months, horizons, levels, columns, value, line, fault
