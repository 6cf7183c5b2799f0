"""Quantile-score evaluation: pinball loss, score tables, QS ratios.

A forecast made at origin t for horizon h is scored against the
realization dated t+h. Date-window conditioning (evaluation windows,
event episodes) selects records by that realization date. Scoring works on
a forecast set's columns, whose origins are already month indices: one
:func:`realizations` lookup serves every record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import TimeSeriesPanel, month_index, month_label
from .forecast import QuantileForecastSet, column_rows


class EvaluationError(ValueError):
    pass


def pinball(u, q: float):
    """Check-function loss rho_q(u) = u (q - 1{u < 0}).

    An error of -x at level q costs (1-q)x while +x costs qx; at q = 0.1
    undershoots are penalized nine times as heavily as overshoots.
    """
    if not 0.0 < q < 1.0:
        raise EvaluationError(f"quantile must lie in (0, 1), got {q}")
    u = np.asarray(u, dtype=float)
    out = u * (q - (u < 0))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class EventWindow:
    """A labeled date range, e.g. a price collapse or boom episode."""

    label: str
    start: int  # month_index, inclusive
    end: int  # month_index, inclusive

    def __post_init__(self):
        if self.start >= self.end:
            raise EvaluationError(f"event window {self.label!r}: start must precede end")


def realizations(panel: TimeSeriesPanel, variable: str):
    """The realizations of ``variable`` in ``panel``.

    Returns ``value(origin_months, horizons)``, which looks up the
    observations at origin+h months for arrays of origins (as their
    :func:`month_index`) and horizons, and returns (observed, values):
    ``observed`` is False where origin+h lies beyond the sample end (not yet
    observed), and ``values`` holds the observations there and NaN
    elsewhere. A date before the sample start raises EvaluationError.
    """
    first, last = panel.start, panel.end
    column = panel.values[:, panel.names.index(variable)]

    def value(origin_months, horizons):
        target = np.add(origin_months, horizons)
        if target.size and target.min() < first:
            raise EvaluationError(f"realization date {month_label(int(target.min()))} precedes the sample")
        observed = target <= last
        return observed, np.where(observed, column[np.minimum(target, last) - first], np.nan)

    return value


def realized_value(panel: TimeSeriesPanel, variable: str, origin: str, horizon: int):
    """Observed value at origin+h months (``origin`` a ``YYYY-MM`` label), or None when not yet observed."""
    observed, values = realizations(panel, variable)([month_index(origin)], horizon)
    return float(values[0]) if observed[0] else None


@dataclass
class ScoredRecords:
    """Pinball scores of a forecast set's observable records, as columns in the set's order."""

    model_labels: list[str]
    model: np.ndarray  # code into model_labels
    quantile: np.ndarray
    horizon: np.ndarray
    realized_month: np.ndarray  # month_index of the realization date t+h
    score: np.ndarray

    def __len__(self) -> int:
        return len(self.score)


def score_records(fset: QuantileForecastSet, panel: TimeSeriesPanel, variable: str) -> ScoredRecords:
    """Pinball scores of every record of ``fset`` whose realization is observed.

    Records whose realization lies beyond the sample end are skipped (they
    are not yet observable); everything else must resolve. The realization
    month t+h is kept so that window filters need not parse dates again.
    """
    col = fset.variable_names.index(variable)
    observed, realized = realizations(panel, variable)(fset.origin, fset.horizon)
    u = realized[observed] - fset.values[observed, col]
    quantile = fset.quantile[observed]
    score = np.empty_like(u)
    for q in fset.quantiles():
        at = quantile == q
        score[at] = pinball(u[at], q)
    horizon = fset.horizon[observed]
    return ScoredRecords(fset.model_labels, fset.model[observed], quantile, horizon,
                         fset.origin[observed] + horizon, score)


@dataclass
class ScoreTable:
    """Average quantile scores per (model, q, h) over an evaluation window."""

    variable: str
    window_label: str
    entries: dict = field(default_factory=dict)  # (model, q, h) -> mean score
    counts: dict = field(default_factory=dict)  # (model, q, h) -> evaluated origins

    def models(self) -> list[str]:
        return sorted({k[0] for k in self.entries})

    def quantiles(self) -> list[float]:
        return sorted({k[1] for k in self.entries})

    def horizons(self) -> list[int]:
        return sorted({k[2] for k in self.entries})


def average_qs(
    scored,
    variable: str,
    window: EventWindow | None = None,
    window_label: str | None = None,
) -> ScoreTable:
    """Mean pinball loss per (model, q, h), optionally within a date window.

    ``scored`` is a sequence of :func:`score_records` results, so that a
    caller averaging over several windows scores each set once. Window
    membership is decided by the realization date t+h. Each cell's scores
    are summed one after another in record (origin) order, so the table
    does not depend on numpy's summation order.
    """
    sums: dict = {}
    counts: dict = {}
    if window is not None and not any(len(records) for records in scored):
        raise EvaluationError("no scorable forecasts (all realizations unobserved)")
    for records in scored:
        keep = slice(None)
        if window is not None:
            keep = (window.start <= records.realized_month) & (records.realized_month <= window.end)
        columns = (records.model[keep], records.quantile[keep], records.horizon[keep], records.score[keep])
        for m, q, h, score in column_rows(*columns):
            key = (records.model_labels[m], q, h)
            sums[key] = sums.get(key, 0.0) + score
            counts[key] = counts.get(key, 0) + 1
    label = window_label or (window.label if window is not None else "full")
    table = ScoreTable(variable=variable, window_label=label)
    for key, total in sums.items():
        table.entries[key] = total / counts[key]
        table.counts[key] = counts[key]
    return table


@dataclass
class RatioTable:
    """Cellwise QS(numerator)/QS(benchmark); values below 1 favor the numerator."""

    variable: str
    window_label: str
    numerator: str
    benchmark: str
    entries: dict = field(default_factory=dict)  # (q, h) -> ratio (NaN if flagged)
    flagged: set = field(default_factory=set)  # benchmark-zero cells

    def quantiles(self) -> list[float]:
        return sorted({k[0] for k in self.entries})

    def horizons(self) -> list[int]:
        return sorted({k[1] for k in self.entries})


def qs_ratio(table: ScoreTable, numerator: str, benchmark: str) -> RatioTable:
    """Ratio view of a score table relative to a named benchmark model."""
    num_cells = {(q, h) for (m, q, h) in table.entries if m == numerator}
    ben_cells = {(q, h) for (m, q, h) in table.entries if m == benchmark}
    if not num_cells:
        raise EvaluationError(f"model {numerator!r} absent from score table")
    if num_cells != ben_cells:
        raise EvaluationError(
            f"coverage mismatch between {numerator!r} and {benchmark!r}"
        )
    out = RatioTable(
        variable=table.variable,
        window_label=table.window_label,
        numerator=numerator,
        benchmark=benchmark,
    )
    for q, h in sorted(num_cells):
        if table.counts[(numerator, q, h)] != table.counts[(benchmark, q, h)]:
            raise EvaluationError(f"evaluated-origin counts differ at (q={q}, h={h})")
        num = table.entries[(numerator, q, h)]
        den = table.entries[(benchmark, q, h)]
        if den == 0.0:
            out.entries[(q, h)] = float("nan")
            out.flagged.add((q, h))
        else:
            out.entries[(q, h)] = num / den
    return out


# ---------------------------------------------------------------------------
# Rendering: aligned text (rows h, one column per quantile) and flat CSV.


def _fmt_q(q: float) -> str:
    return f"QS{round(q * 100):02d}"


def render_score_table(table: ScoreTable) -> str:
    models = table.models()
    qs = table.quantiles()
    hs = table.horizons()
    lines = [f"Average quantile scores — {table.variable} — window: {table.window_label}"]
    for m in models:
        lines.append(f"\n[{m}]")
        header = "  h  " + "".join(f"{_fmt_q(q):>10}" for q in qs) + "       P"
        lines.append(header)
        for h in hs:
            cells = []
            for q in qs:
                score = table.entries.get((m, q, h))
                cells.append(f"{'n/a':>10}" if score is None else f"{score:>10.4f}")
            counts = {table.counts.get((m, q, h)) for q in qs}
            counts.discard(None)
            p = str(counts.pop()) if len(counts) == 1 else "mixed"
            lines.append(f"{h:>4} " + "".join(cells) + f"{p:>8}")
    return "\n".join(lines) + "\n"


def render_ratio_table(table: RatioTable) -> str:
    qs = table.quantiles()
    hs = table.horizons()
    lines = [
        f"QS ratios {table.numerator} / {table.benchmark} — {table.variable} — "
        f"window: {table.window_label} (values < 1.00 favor {table.numerator})"
    ]
    lines.append("  h  " + "".join(f"{_fmt_q(q):>10}" for q in qs) + "   <1.00")
    for h in hs:
        cells = []
        better = []
        for q in qs:
            key = (q, h)
            if key not in table.entries:
                cells.append(f"{'n/a':>10}")
                continue
            v = table.entries[key]
            if key in table.flagged or not np.isfinite(v):
                cells.append(f"{'n/a':>10}")
            else:
                cells.append(f"{v:>10.3f}")
                if v < 1.0:
                    better.append(_fmt_q(q))
        lines.append(f"{h:>4} " + "".join(cells) + "   " + (",".join(better) if better else "-"))
    return "\n".join(lines) + "\n"


def score_table_rows(table: ScoreTable) -> list[list]:
    """Flat rows (model, quantile, horizon, score, count) for CSV export."""
    rows = [["model", "quantile", "horizon", "score", "n_origins"]]
    for (m, q, h) in sorted(table.entries):
        rows.append([m, f"{q:.10g}", h, f"{table.entries[(m, q, h)]:.17g}", table.counts[(m, q, h)]])
    return rows


def ratio_table_rows(table: RatioTable) -> list[list]:
    rows = [["numerator", "benchmark", "quantile", "horizon", "ratio", "flagged"]]
    for (q, h) in sorted(table.entries):
        v = table.entries[(q, h)]
        rows.append(
            [
                table.numerator,
                table.benchmark,
                f"{q:.10g}",
                h,
                "n/a" if (q, h) in table.flagged else f"{v:.17g}",
                int((q, h) in table.flagged),
            ]
        )
    return rows
