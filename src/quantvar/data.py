"""Monthly panel ingestion, stationarity transforms and lag design.

Raw series arrive as levels with a per-series transformation code
(1 = first difference, 2 = none, 5 = log first difference). Columns may be
missing at the head of the sample only; after transformation every retained
column shares the latest common start date. A month is held as its
:func:`month_index`; the ``YYYY-MM`` label is parsed where a file is read
and formatted where one is written or a message names a month.
"""

from __future__ import annotations

import csv
import enum
import json
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_MONTH_RE = re.compile(r"(\d{4})-(\d{2})")


class PanelError(ValueError):
    """Raised on malformed panel input or invalid transform requests."""


def month_index(label: str) -> int:
    """Map an ISO month label 'YYYY-MM' to a running month count."""
    m = _MONTH_RE.fullmatch(label)
    if m is None:
        raise PanelError(f"not an ISO month label: {label!r}")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise PanelError(f"month out of range in {label!r}")
    return year * 12 + (month - 1)


def month_label(index: int) -> str:
    """Inverse of :func:`month_index`."""
    year, month = divmod(index, 12)
    return f"{year:04d}-{month + 1:02d}"


class TransformCode(enum.IntEnum):
    DIFFERENCE = 1
    LEVEL = 2
    LOG_DIFFERENCE = 5


def apply_transform(levels, code) -> np.ndarray:
    """Apply a transformation code to a level series.

    Code 1 returns first differences, code 2 the unchanged series, code 5
    log first differences. Codes 1 and 5 shorten the series by one.
    """
    try:
        code = TransformCode(code)
    except ValueError as exc:
        raise PanelError(f"unknown transformation code {code!r}") from exc
    x = np.asarray(levels, dtype=float)
    if x.ndim != 1:
        raise PanelError("apply_transform expects a 1-d sequence")
    if code == TransformCode.LEVEL:
        return x.copy()
    if x.size < 2:
        raise PanelError("need at least 2 observations to difference")
    if code == TransformCode.DIFFERENCE:
        return np.diff(x)
    # log first difference
    if np.any(x <= 0):
        raise PanelError("log difference requires strictly positive levels")
    return np.diff(np.log(x))


def deflate(nominal, cpi) -> np.ndarray:
    """Deflate a nominal series, normalized so the final period's deflator is 1.

    Output is the real series expressed in latest-period currency:
    ``nominal[t] / cpi[t] * cpi[-1]``.
    """
    x = np.asarray(nominal, dtype=float)
    d = np.asarray(cpi, dtype=float)
    if x.shape != d.shape:
        raise PanelError("nominal and deflator lengths differ")
    if np.any(d <= 0):
        raise PanelError("deflator must be strictly positive")
    return x / d * d[-1]


def splice_by_growth(target, donor) -> np.ndarray:
    """Backcast the missing head of ``target`` by cumulating ``donor`` growth.

    The earlier segment is extended backward so that target[t] =
    target[t+1] * donor[t] / donor[t+1] wherever target is missing; donor
    must be positive over the spliced span.
    """
    y = np.asarray(target, dtype=float).copy()
    g = np.asarray(donor, dtype=float)
    if y.shape != g.shape:
        raise PanelError("target and donor lengths differ")
    valid = ~np.isnan(y)
    if not valid.any():
        raise PanelError("target has no observed values to splice from")
    fv = int(np.argmax(valid))
    if np.isnan(y[fv:]).any():
        raise PanelError("target has interior missing values")
    if fv == 0:
        return y
    if np.any(g[: fv + 1] <= 0) or np.isnan(g[: fv + 1]).any():
        raise PanelError("donor must be positive over the backcast span")
    ratios = g[:fv] / g[1 : fv + 1]
    y[:fv] = y[fv] * np.cumprod(ratios[::-1])[::-1]
    return y


@dataclass
class TimeSeriesPanel:
    """Monthly panel: values[t, j] is series ``names[j]`` in month ``start + t``.

    ``start`` is the :func:`month_index` of row 0, and the rows are
    consecutive months. Missing values (NaN) are permitted only at the head
    of a column.
    """

    start: int
    values: np.ndarray
    names: list[str]
    tcodes: list[TransformCode]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.tcodes = list(self.tcodes)
        if self.values.ndim != 2:
            raise PanelError("panel values must be a 2-d array")
        n = self.values.shape[1]
        if len(self.names) != n or len(self.tcodes) != n:
            raise PanelError("names/tcodes length does not match columns")
        if len(set(self.names)) != n:
            raise PanelError("duplicate series names")
        for j, name in enumerate(self.names):
            code = self.tcodes[j]
            # a boolean is no code, though True equals 1
            if isinstance(code, (bool, np.bool_)) or code not in list(TransformCode):
                raise PanelError(f"series {name!r} has an invalid transformation code {code!r}")
            self.tcodes[j] = TransformCode(code)
            col = self.values[:, j]
            # a blank cell is a missing value; an infinite one is a bad value
            inf = np.isinf(col)
            if inf.any():
                at = month_label(self.start + int(np.argmax(inf)))
                raise PanelError(f"series {name!r} has a non-finite value at {at}")
            missing = np.isnan(col)
            if missing.all():
                raise PanelError(f"series {name!r} has no observed values")
            if missing.any():
                fv = int(np.argmax(~missing))
                if not missing[:fv].all() or missing[fv:].any():
                    raise PanelError(f"series {name!r} has interior missing values")

    @property
    def end(self) -> int:
        """The month of the last row."""
        return self.start + len(self.values) - 1

    @property
    def dates(self) -> list[str]:
        """The rows' ``YYYY-MM`` labels, for files and messages."""
        return [month_label(m) for m in range(self.start, self.end + 1)]

    @property
    def n_series(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.names.index(name)]

    def select(self, names: list[str]) -> "TimeSeriesPanel":
        cols = [self.names.index(n) for n in names]
        return TimeSeriesPanel(
            self.start,
            self.values[:, cols].copy(),
            list(names),
            [self.tcodes[c] for c in cols],
        )


def transform_panel(panel: TimeSeriesPanel) -> TimeSeriesPanel:
    """Apply each column's tcode and align to the latest common start date.

    Differenced columns lose their first observation; every column is then
    trimmed to the latest first-valid date so the output has no missing
    values. Output tcodes are all 2 (already stationary).
    """
    T, n = panel.values.shape
    out = np.full((T, n), np.nan)
    for j in range(n):
        col = panel.values[:, j]
        fv = int(np.argmax(~np.isnan(col)))
        z = apply_transform(col[fv:], panel.tcodes[j])
        if panel.tcodes[j] == TransformCode.LEVEL:
            out[fv:, j] = z
        else:
            out[fv + 1 :, j] = z
    start = int(max(np.argmax(~np.isnan(out[:, j])) for j in range(n)))
    trimmed = out[start:]
    if np.isnan(trimmed).any():
        raise PanelError("transformation left interior missing values")
    return TimeSeriesPanel(
        panel.start + start,
        trimmed,
        list(panel.names),
        [TransformCode.LEVEL] * n,
    )


@dataclass
class LagDesign:
    """Stacked VAR regression arrays: row t of X is (1, y_{t-1}, ..., y_{t-p}).

    The samplers store their per-observation arrays series-major, (n, T),
    so they read the transposes ``YT`` (n, T) and ``XT`` (k, T), each made
    contiguous once on first use.
    """

    Y: np.ndarray
    X: np.ndarray
    p: int

    def __post_init__(self):
        T, n = self.Y.shape
        if self.X.shape != (T, n * self.p + 1):
            raise PanelError("design dimensions inconsistent with lag order")

    @cached_property
    def YT(self) -> np.ndarray:
        return np.ascontiguousarray(self.Y.T)

    @cached_property
    def XT(self) -> np.ndarray:
        return np.ascontiguousarray(self.X.T)

    @property
    def n_vars(self) -> int:
        return self.Y.shape[1]


def build_lag_design(Y, p: int) -> LagDesign:
    """Build (Y, X) for a VAR(p) with intercept, lag-1 block first.

    Y is trimmed to rows p+1..T of the input so that each X row stacks the
    p preceding rows of the full sample.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    T_full, n = Y.shape
    if np.isnan(Y).any():
        raise PanelError("lag design input contains missing values")
    if p < 1:
        raise PanelError("lag order must be >= 1")
    if T_full <= p:
        raise PanelError(f"need more than p={p} observations, got {T_full}")
    T = T_full - p
    X = np.ones((T, n * p + 1))
    for lag in range(1, p + 1):
        X[:, 1 + (lag - 1) * n : 1 + lag * n] = Y[p - lag : T_full - lag]
    return LagDesign(Y=Y[p:].copy(), X=X, p=p)


# ---------------------------------------------------------------------------
# Comma-separated panel files: first column ISO YYYY-MM dates, header row
# of series names, JSON sidecar mapping series name -> tcode.


def read_panel(csv_path, tcode_path) -> TimeSeriesPanel:
    """Read a panel CSV and its tcode sidecar; the first bad row raises PanelError naming file and line.

    Each row's date is parsed once here and must be the month after the
    previous row's.
    """
    with open(tcode_path) as fh:
        tcode_map = json.load(fh)
    if not isinstance(tcode_map, dict):
        raise PanelError("tcode sidecar must be a JSON object mapping series names to tcodes")
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if len(header) < 2:
            raise PanelError("panel file needs a date column and at least one series")
        names, rows, start = header[1:], [], None
        for r in reader:
            try:
                if len(r) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(r)}")
                month = month_index(r[0])
                if rows and month != start + len(rows):
                    raise ValueError(f"{r[0]} is not the month after {month_label(start + len(rows) - 1)}")
                rows.append([float(c) if c not in ("", "NA", "NaN", "nan") else np.nan for c in r[1:]])
            except ValueError as exc:
                raise PanelError(f"{csv_path}, line {reader.line_num}: {exc}") from None
            if start is None:
                start = month
    if not rows:
        raise PanelError(f"{csv_path}: no data rows")
    values = np.array(rows)
    missing = [n for n in names if n not in tcode_map]
    if missing:
        raise PanelError(f"tcode sidecar missing series: {missing}")
    return TimeSeriesPanel(start, values, names, [tcode_map[n] for n in names])


def write_panel(panel: TimeSeriesPanel, csv_path, tcode_path=None) -> None:
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + panel.names)
        for d, row in zip(panel.dates, panel.values):
            writer.writerow([d] + [f"{v:.17g}" if not np.isnan(v) else "" for v in row])
    if tcode_path is not None:
        with open(tcode_path, "w") as fh:
            json.dump({n: int(c) for n, c in zip(panel.names, panel.tcodes)}, fh, indent=2, sort_keys=True)
            fh.write("\n")
