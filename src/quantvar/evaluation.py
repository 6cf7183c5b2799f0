"""Quantile-score evaluation: pinball loss, score tables, QS ratios, coverage.

A forecast made at origin t for horizon h is scored against the
realization dated t+h. Date-window conditioning (evaluation windows,
event episodes) selects records by that realization date. Scoring works on
a forecast set's columns, whose origins are already month indices: one
:func:`realizations` lookup serves every record. Means and ratios are
dicts keyed by their cells, and every text table is built of h × q grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import erfc, isfinite, isnan, log, nan, sqrt

import numpy as np

from .data import TimeSeriesPanel, month_index, month_label
from .forecast import QuantileForecastSet, column_rows, group_starts


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


def realizations(panel: TimeSeriesPanel, variable: str, origin_months, horizons):
    """(observed, values) of ``variable`` at origin+h months, for arrays of origins and horizons.

    Origins are :func:`month_index` values. ``observed`` is False where
    origin+h lies beyond the sample end (not yet observed), and ``values``
    holds the observations there and NaN elsewhere. A date before the
    sample start raises EvaluationError.
    """
    target = np.add(origin_months, horizons)
    if target.size and target.min() < panel.start:
        raise EvaluationError(f"realization date {month_label(int(target.min()))} precedes the sample")
    observed = target <= panel.end
    column = panel.values[:, panel.names.index(variable)]
    return observed, np.where(observed, column[np.minimum(target, panel.end) - panel.start], np.nan)


def realized_value(panel: TimeSeriesPanel, variable: str, origin: str, horizon: int):
    """Observed value at origin+h months (``origin`` a ``YYYY-MM`` label), or None when not yet observed."""
    observed, values = realizations(panel, variable, [month_index(origin)], horizon)
    return float(values[0]) if observed[0] else None


@dataclass
class ScoredRecords:
    """Pinball scores of a forecast set's observable records, as columns in the set's order."""

    model_id: str
    quantile: np.ndarray
    horizon: np.ndarray
    realized_month: np.ndarray  # month_index of the realization date t+h
    score: np.ndarray
    hit: np.ndarray  # realization below the forecast (u < 0, as in pinball)
    paired: np.ndarray  # the model forecast a lower level at the same origin and h
    crossed: np.ndarray  # paired, and the forecast lies below the next lower level's

    def __len__(self) -> int:
        return len(self.score)


def score_records(fset: QuantileForecastSet, panel: TimeSeriesPanel, variable: str) -> ScoredRecords:
    """Pinball scores of every record of ``fset`` whose realization is observed.

    Records whose realization lies beyond the sample end are skipped (they
    are not yet observable); everything else must resolve. The realization
    month t+h is kept so that window filters need not parse dates again.
    The set's records are sorted by (origin, h, q), so the record before a
    paired one holds the next lower level.
    """
    col = fset.variable_names.index(variable)
    observed, realized = realizations(panel, variable, fset.origin, fset.horizon)
    forecast = fset.values[observed, col]
    u = realized[observed] - forecast
    quantile = fset.quantile[observed]
    score = np.empty_like(u)
    for q in fset.quantiles():
        at = quantile == q
        score[at] = pinball(u[at], q)
    origin, horizon = fset.origin[observed], fset.horizon[observed]
    paired = ~group_starts([origin, horizon])
    crossed = paired.copy()
    crossed[1:] &= forecast[1:] < forecast[:-1]
    return ScoredRecords(fset.model_id, quantile, horizon, origin + horizon, score, u < 0, paired, crossed)


@dataclass
class ScoreTable:
    """Average quantile scores per (model, q, h) over an evaluation window."""

    variable: str
    window_label: str
    entries: dict = field(default_factory=dict)  # (model, q, h) -> mean score
    counts: dict = field(default_factory=dict)  # (model, q, h) -> evaluated origins
    hits: dict = field(default_factory=dict)  # (model, q, h) -> realizations below the forecast
    crossings: dict = field(default_factory=dict)  # (model, q, h) -> (crossed, paired) origins


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
    does not depend on numpy's summation order; the same loop counts each
    cell's hits and level pairs.
    """
    tallies: dict = {}  # (model, q, h) -> [score sum, count, hits, crossed, paired]
    if window is not None and not any(len(records) for records in scored):
        raise EvaluationError("no scorable forecasts (all realizations unobserved)")
    for records in scored:
        keep = slice(None)
        if window is not None:
            keep = (window.start <= records.realized_month) & (records.realized_month <= window.end)
        columns = (records.quantile, records.horizon, records.score, records.hit, records.crossed,
                   records.paired)
        for q, h, score, hit, crossed, paired in column_rows(*(column[keep] for column in columns)):
            tally = tallies.setdefault((records.model_id, q, h), [0.0, 0, 0, 0, 0])
            tally[0] += score
            tally[1] += 1
            tally[2] += hit
            tally[3] += crossed
            tally[4] += paired
    label = window_label or (window.label if window is not None else "full")
    table = ScoreTable(variable=variable, window_label=label)
    for key, (total, count, hits, crossed, paired) in tallies.items():
        table.entries[key] = total / count
        table.counts[key] = count
        table.hits[key] = hits
        table.crossings[key] = (crossed, paired)
    return table


def qs_ratio(table: ScoreTable, numerator: str, benchmark: str) -> dict:
    """{(q, h): QS(numerator)/QS(benchmark)} of a score table, NaN where the benchmark's mean is 0.

    Values below 1 favor the numerator. The means are finite and
    non-negative, so a NaN ratio is exactly a benchmark-zero cell.
    """
    num_cells = {(q, h) for (m, q, h) in table.entries if m == numerator}
    ben_cells = {(q, h) for (m, q, h) in table.entries if m == benchmark}
    if not num_cells:
        raise EvaluationError(f"model {numerator!r} absent from score table")
    if num_cells != ben_cells:
        raise EvaluationError(f"coverage mismatch between {numerator!r} and {benchmark!r}")
    ratios = {}
    for q, h in sorted(num_cells):
        if table.counts[(numerator, q, h)] != table.counts[(benchmark, q, h)]:
            raise EvaluationError(f"evaluated-origin counts differ at (q={q}, h={h})")
        den = table.entries[(benchmark, q, h)]
        ratios[(q, h)] = table.entries[(numerator, q, h)] / den if den != 0.0 else float("nan")
    return ratios


def kupiec(n: int, hits: int, q: float) -> tuple[float, float]:
    """Kupiec's (1995) unconditional-coverage test that ``hits`` of ``n`` have probability ``q``.

    Returns (LR, p): LR = 2[x ln(x/(nq)) + (n-x) ln((n-x)/(n(1-q)))] for x
    hits, with 0 ln 0 = 0, and p its chi-square(1) tail erfc(sqrt(LR/2)).
    """
    lr = 2 * hits * log(hits / (n * q)) if hits else 0.0
    if hits < n:
        lr += 2 * (n - hits) * log((n - hits) / (n * (1 - q)))
    lr = max(lr, 0.0)  # rounding can leave -0 or a tiny negative at x = nq
    return lr, erfc(sqrt(lr / 2))


# ---------------------------------------------------------------------------
# Rendering: aligned text (rows h, one column per quantile) and flat CSV.


def _fmt_q(q: float) -> str:
    return f"QS{round(q * 100):02d}"


def _axis(cells, i: int) -> list:
    """The sorted levels of key position ``i`` among the keys of ``cells``."""
    return sorted({key[i] for key in cells})


def _grid(qs, hs, cell, last_header: str, last) -> list[str]:
    """An h × q block: a header row, then per h the texts ``cell(q, h)``, 10 wide, and ``last(h)``."""
    lines = ["  h  " + "".join(f"{_fmt_q(q):>10}" for q in qs) + last_header]
    return lines + [f"{h:>4} " + "".join(f"{cell(q, h):>10}" for q in qs) + last(h) for h in hs]


def _origins(table: ScoreTable, m: str, qs):
    """The P column of model ``m``: per h, the origin count its cells share, or ``mixed``."""
    def origins(h):
        counts = {table.counts[(m, q, h)] for q in qs if (m, q, h) in table.counts}
        return f"{counts.pop() if len(counts) == 1 else 'mixed':>8}"

    return origins


def render_score_table(table: ScoreTable) -> str:
    qs, hs = _axis(table.entries, 1), _axis(table.entries, 2)
    lines = [f"Average quantile scores — {table.variable} — window: {table.window_label}"]
    for m in _axis(table.entries, 0):
        def score(q, h):
            value = table.entries.get((m, q, h))
            return "n/a" if value is None else f"{value:.4f}"

        lines += [f"\n[{m}]"] + _grid(qs, hs, score, "       P", _origins(table, m, qs))
    return "\n".join(lines) + "\n"


def render_ratio_table(table: ScoreTable, numerator: str, benchmark: str, ratios: dict) -> str:
    """Text of :func:`qs_ratio`'s ``ratios`` of ``table``; a missing or NaN cell reads n/a."""
    qs, hs = _axis(ratios, 0), _axis(ratios, 1)

    def ratio(q, h):
        value = ratios.get((q, h), nan)
        return f"{value:.3f}" if isfinite(value) else "n/a"

    def favored(h):
        return "   " + (",".join(_fmt_q(q) for q in qs if ratios.get((q, h), nan) < 1.0) or "-")

    title = (f"QS ratios {numerator} / {benchmark} — {table.variable} — "
             f"window: {table.window_label} (values < 1.00 favor {numerator})")
    return "\n".join([title] + _grid(qs, hs, ratio, "   <1.00", favored)) + "\n"


def score_table_rows(table: ScoreTable) -> list[list]:
    """Flat rows (model, quantile, horizon, score, count) for CSV export."""
    rows = [["model", "quantile", "horizon", "score", "n_origins"]]
    for (m, q, h) in sorted(table.entries):
        rows.append([m, f"{q:.10g}", h, f"{table.entries[(m, q, h)]:.17g}", table.counts[(m, q, h)]])
    return rows


def ratio_table_rows(numerator: str, benchmark: str, ratios: dict) -> list[list]:
    """Flat rows of :func:`qs_ratio`'s ``ratios``; a NaN (benchmark-zero) cell reads n/a, flagged 1."""
    rows = [["numerator", "benchmark", "quantile", "horizon", "ratio", "flagged"]]
    for q, h in sorted(ratios):
        flagged = isnan(ratios[(q, h)])
        rows.append([numerator, benchmark, f"{q:.10g}", h, "n/a" if flagged else f"{ratios[(q, h)]:.17g}",
                     int(flagged)])
    return rows


def coverage_table_rows(table: ScoreTable) -> list[list]:
    """Flat rows per (model, q, h): n, hits, hit share, Kupiec's LR and p, crossed and level pairs."""
    rows = [["model", "quantile", "horizon", "n_origins", "hits", "hit_share", "kupiec_lr", "kupiec_p",
             "crossed_pairs", "level_pairs"]]
    for (m, q, h) in sorted(table.counts):
        n, hits = table.counts[(m, q, h)], table.hits[(m, q, h)]
        lr, p = kupiec(n, hits, q)
        rows.append([m, f"{q:.10g}", h, n, hits, f"{hits / n:.17g}", f"{lr:.17g}", f"{p:.17g}",
                     *table.crossings[(m, q, h)]])
    return rows


def render_coverage_table(table: ScoreTable) -> str:
    """Per model, its crossed level pairs, then h × q grids of hit shares and of Kupiec p-values."""
    qs, hs = _axis(table.counts, 1), _axis(table.counts, 2)
    lines = [f"Coverage — {table.variable} — window: {table.window_label} "
             "(hit share: realizations below the q forecast; Kupiec p: test of share q)"]
    for m in _axis(table.counts, 0):
        keys = [key for key in table.counts if key[0] == m]
        share = {key[1:]: f"{table.hits[key] / table.counts[key]:.3f}" for key in keys}
        p_value = {key[1:]: f"{kupiec(table.counts[key], table.hits[key], key[1])[1]:.4f}" for key in keys}
        crossed, paired = (sum(column) for column in zip(*(table.crossings[key] for key in keys)))
        lines += [f"\n[{m}] crossed level pairs: {crossed} of {paired}", "hit share"]
        lines += _grid(qs, hs, lambda q, h: share.get((q, h), "n/a"), "       P", _origins(table, m, qs))
        lines += ["Kupiec p"] + _grid(qs, hs, lambda q, h: p_value.get((q, h), "n/a"), "", lambda h: "")
    return "\n".join(lines) + "\n"
