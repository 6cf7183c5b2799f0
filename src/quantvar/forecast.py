"""Iterated multi-step quantile forecasts from posterior draw sets.

Each retained draw defines a VAR whose future shocks are normal with
covariance Lam Lam' + diag(sigma); paths are simulated forward horizon by
horizon, feeding predictions back into the lag vector. One function,
:func:`forecast_quantiles`, turns either kind of draw set into quantile
forecasts: a quantile model's forecast at its own level is the pointwise
median across draws; the Gaussian benchmark's q-forecast is the empirical
q-quantile of its predictive draws. The random-walk benchmark for
stationarity-transformed series predicts zero change at every horizon and
quantile.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from math import isfinite

import numpy as np

from .qbvar import PosteriorDrawSet

# an origin is abandoned when more than this share of simulated paths
# contains non-finite values (explosive draws)
MAX_BAD_FRACTION = 0.01


class ForecastError(RuntimeError):
    """Raised when a forecast origin cannot produce usable paths."""


def simulate_paths(
    draws: PosteriorDrawSet, history: np.ndarray, horizon: int, rng: np.random.Generator
) -> np.ndarray:
    """Simulate (S, horizon, n) future paths, one per posterior draw.

    history holds the observed series in time order; only its last p rows
    enter the lag vector. Non-finite paths are tolerated up to
    MAX_BAD_FRACTION and replaced by NaN; beyond that the origin fails.
    """
    history = np.asarray(history, dtype=float)
    if history.ndim != 2:
        raise ValueError("history must be (T, n)")
    S, n, k = draws.Phi.shape
    p = draws.p
    if history.shape[0] < p:
        raise ForecastError(f"need at least p={p} rows of history, got {history.shape[0]}")
    if history.shape[1] != n:
        raise ValueError("history width does not match the model")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    r = draws.n_factors
    lags = np.broadcast_to(history[-p:][::-1], (S, p, n)).copy()  # most recent first
    paths = np.empty((S, horizon, n))
    x = np.empty((S, k))
    x[:, 0] = 1.0
    for j in range(horizon):
        x[:, 1:] = lags.reshape(S, p * n)
        cond_mean = np.einsum("sik,sk->si", draws.Phi, x)
        eps = rng.standard_normal((S, n)) * np.sqrt(draws.sigma)
        if r:
            f = rng.standard_normal((S, r))
            eps = eps + np.einsum("sir,sr->si", draws.Lam, f)
        y_new = cond_mean + eps
        paths[:, j, :] = y_new
        if p > 1:
            lags[:, 1:, :] = lags[:, :-1, :]
        lags[:, 0, :] = y_new
    with np.errstate(invalid="ignore"):
        bad = ~np.isfinite(paths).all(axis=(1, 2))
    frac = float(bad.mean())
    if frac > MAX_BAD_FRACTION:
        raise ForecastError(
            f"{frac:.1%} of simulated paths are non-finite (limit {MAX_BAD_FRACTION:.0%})"
        )
    if frac > 0.0:
        paths[bad] = np.nan
    return paths


def forecast_quantiles(
    draws: PosteriorDrawSet, history: np.ndarray, horizon: int, quantiles, rng: np.random.Generator
) -> dict:
    """Quantile forecasts {q: (horizon, n)} read off one simulation of paths.

    A quantile model was fitted at one level, so it returns only that level:
    ``{draws.quantile: median across draws}``, and ``quantiles`` is not read.
    A Gaussian model returns the empirical q-quantile of its paths at every
    requested level; all levels come from the same paths, so they are
    mutually consistent (monotone in q) up to sampling noise. Paths that
    ``simulate_paths`` replaced by NaN are left out.
    """
    if draws.kind != "qbvar":
        for q in quantiles:
            if not 0.0 < q < 1.0:
                raise ValueError("quantile must lie in (0, 1)")
    paths = simulate_paths(draws, history, horizon, rng)
    # a bad path is NaN throughout, every other path finite throughout
    paths = paths[~np.isnan(paths[:, 0, 0])]
    if draws.kind == "qbvar":
        return {draws.quantile: np.median(paths, axis=0)}
    levels = np.quantile(paths, list(quantiles), axis=0)
    return dict(zip(quantiles, levels))


def random_walk_forecast(horizon: int, n_vars: int) -> np.ndarray:
    """No-change benchmark on transformed (stationary) series: all zeros."""
    if horizon < 1 or n_vars < 1:
        raise ValueError("horizon and variable count must be >= 1")
    return np.zeros((horizon, n_vars))


@dataclass
class QuantileForecastSet:
    """Forecast values keyed by (model_id, origin, horizon, quantile).

    ``origin`` is the ISO month of the last observation used for
    estimation; ``horizon`` is months ahead; values are per target
    variable, stored as a vector in variable order.
    """

    variable_names: list[str]
    records: dict = field(default_factory=dict)

    @staticmethod
    def _key(model_id: str, origin: str, horizon: int, quantile: float):
        return (model_id, origin, int(horizon), round(float(quantile), 10))

    def add(self, model_id: str, origin: str, horizon: int, quantile: float, values) -> None:
        values = np.asarray(values, dtype=float).ravel()
        if values.size != len(self.variable_names):
            raise ValueError("value vector length does not match variables")
        key = self._key(model_id, origin, horizon, quantile)
        if key in self.records:
            raise ValueError(f"duplicate forecast record {key}")
        self.records[key] = values

    def get(self, model_id: str, origin: str, horizon: int, quantile: float) -> np.ndarray:
        return self.records[self._key(model_id, origin, horizon, quantile)]

    def model_ids(self) -> list[str]:
        return sorted({k[0] for k in self.records})

    def origins(self, model_id: str | None = None) -> list[str]:
        return sorted({k[1] for k in self.records if model_id is None or k[0] == model_id})

    def horizons(self) -> list[int]:
        return sorted({k[2] for k in self.records})

    def quantiles(self) -> list[float]:
        return sorted({k[3] for k in self.records})


_COLUMNS = ["model_id", "origin", "horizon", "quantile", "variable", "value"]


def write_forecasts(fset: QuantileForecastSet, path) -> None:
    """Write one row per (model, origin, horizon, quantile, variable)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_COLUMNS)
        for key in sorted(fset.records):
            model_id, origin, horizon, quantile = key
            vals = fset.records[key]
            for name, v in zip(fset.variable_names, vals):
                writer.writerow([model_id, origin, horizon, f"{quantile:.10g}", name, f"{v:.17g}"])


def read_forecasts(path) -> QuantileForecastSet:
    """Read a forecasts CSV in one streaming pass.

    Rows may come in any order. Variables take their order of first
    appearance, and each (model, origin, horizon, quantile) record needs
    every variable exactly once. A malformed or duplicate row, a horizon
    below 1, a quantile outside (0, 1) and a non-finite value raise
    ValueError naming the file and line; a record that lacks a variable
    raises it naming the record. Model ids and origins share one string
    object per distinct value, and each distinct horizon and quantile
    string is parsed and checked once.
    """
    fset = QuantileForecastSet(variable_names=[])
    names, records = fset.variable_names, fset.records
    slots: dict[str, int] = {}
    filled: dict = {}  # record key -> bitmask of the variable slots read
    shared: dict[str, str] = {}
    horizons: dict[str, int] = {}
    quantiles: dict[str, float] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, [])[:6] != _COLUMNS:
            raise ValueError("not a forecast file (bad header)")
        for row in reader:
            try:
                model_id, origin, horizon, quantile, variable, value = row
                h = horizons.get(horizon)
                if h is None:
                    h = horizons[horizon] = int(horizon)
                    if h < 1:
                        raise ValueError(f"horizon must be >= 1, got {h}")
                q = quantiles.get(quantile)
                if q is None:
                    q = quantiles[quantile] = round(float(quantile), 10)
                    if not 0.0 < q < 1.0:
                        raise ValueError(f"quantile must lie in (0, 1), got {quantile}")
                value = float(value)
                if not isfinite(value):
                    raise ValueError(f"value must be finite, got {value}")
            except ValueError as exc:
                problem = f"expected 6 fields, got {len(row)}" if len(row) != 6 else exc
                raise ValueError(f"{path}, line {reader.line_num}: {problem}") from None
            slot = slots.get(variable)
            if slot is None:
                slot = slots[variable] = len(names)
                names.append(variable)
                for key in records:  # records read so far gain the new slot
                    records[key] = np.append(records[key], 0.0)
            key = (model_id, origin, h, q)
            vals = records.get(key)
            if vals is None:
                key = (shared.setdefault(model_id, model_id), shared.setdefault(origin, origin), h, q)
                vals = records[key] = np.empty(len(names))
                filled[key] = 0
            mask, bit = filled[key], 1 << slot
            if mask & bit:
                raise ValueError(
                    f"{path}, line {reader.line_num}: duplicate row for record {key}, variable {variable!r}"
                )
            filled[key] = mask | bit
            vals[slot] = value
    full = (1 << len(names)) - 1
    for key, mask in filled.items():
        if mask != full:
            raise ValueError(f"incomplete variable set for record {key}")
    return fset
