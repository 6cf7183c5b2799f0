"""Convex two-model forecast combination.

Three weighting strategies for q_comb = lam * q_a + (1 - lam) * q_b:

  fixed        constant lam in [0, 1];
  performance  lam_t = 1 - QS_a / (QS_a + QS_b) over the trailing S scored
               origins, so the lower-scoring model gets the larger weight;
  optimal      lam_t minimizing the trailing-S average pinball loss of the
               combination — convex piecewise-linear in lam, solved exactly
               by enumerating its kinks.

Until S scored origins have accumulated, both adaptive strategies fall
back to lam = 0.5 and flag the origin as warm-up. Every strategy is applied
by :func:`combine_weighted` from one weight column aligned with a's
records (a fixed weight is the column that holds lam in every cell), and
:func:`aligned_values` gives b's values in the same order, so that the
combination is one broadcast over the two value arrays. :func:`weight_rows`
lays the weight column out as the weight file's rows.
"""

from __future__ import annotations

import numpy as np

from .evaluation import pinball
from .data import month_label
from .forecast import QuantileForecastSet, column_rows, distinct, group_starts


class CombinationError(ValueError):
    pass


def _cell_difference(fc_a: QuantileForecastSet, fc_b: QuantileForecastSet) -> int:
    """How many (origin, h, q) cells one of two sets holds and the other lacks."""
    columns = [[s.origin, s.horizon, s.quantile] for s in (fc_a, fc_b)]
    if all(map(np.array_equal, *columns)):
        return 0
    both = [np.concatenate(pair) for pair in zip(*columns)]
    order = np.lexsort(both[::-1])
    # cells are unique within a set, so a repeated cell is one that both sets hold
    shared = np.count_nonzero(~group_starts([column[order] for column in both]))
    return len(fc_a) + len(fc_b) - 2 * shared


def aligned_values(fc_a: QuantileForecastSet, fc_b: QuantileForecastSet) -> np.ndarray:
    """b's values paired with a's: in a's record order and a's variable order.

    Raises CombinationError unless both sets cover the same variables, in
    any order, and the same (origin, h, q) cells; their records, each sorted
    by key, then pair up row by row.
    """
    if sorted(fc_a.variable_names) != sorted(fc_b.variable_names):
        raise CombinationError("forecast sets cover different variables")
    differing = _cell_difference(fc_a, fc_b)
    if differing:
        raise CombinationError(f"forecast sets misaligned on {differing} cells")
    if fc_b.variable_names == fc_a.variable_names:
        return fc_b.values
    return fc_b.values[:, [fc_b.variable_names.index(name) for name in fc_a.variable_names]]


def performance_weight(scores_a, scores_b, S: int) -> tuple[float, bool]:
    """Trailing-window relative-performance weight on model a.

    scores_* are pinball scores ordered oldest to newest, already
    restricted to origins whose realizations are observable at forecast
    time. Returns (lam, warmup); warmup means fewer than S scores were
    available and lam fell back to 0.5. With both trailing averages zero
    the models are indistinguishable and lam is 0.5.
    """
    if S < 1:
        raise CombinationError("window length must be >= 1")
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise CombinationError("score histories must be 1-d and equally long")
    if a.size < S:
        return 0.5, True
    window = np.concatenate([a[-S:], b[-S:]])
    if not np.all(np.isfinite(window)) or np.any(window < 0):
        raise CombinationError("pinball scores must be finite and nonnegative")
    qa = float(np.mean(a[-S:]))
    qb = float(np.mean(b[-S:]))
    if qa + qb == 0.0:
        return 0.5, False
    return 1.0 - qa / (qa + qb), False


def combination_objective(lam, fc_a, fc_b, realized, quantile: float) -> float:
    """Average pinball loss of the lam-combination over a window."""
    a = np.asarray(fc_a, dtype=float)
    b = np.asarray(fc_b, dtype=float)
    y = np.asarray(realized, dtype=float)
    return float(np.mean(pinball(y - (lam * a + (1.0 - lam) * b), quantile)))


def optimal_weight(fc_a, fc_b, realized, quantile: float, S: int) -> tuple[float, bool]:
    """Exact minimizer over [0,1] of the trailing-S average pinball loss.

    Histories are ordered oldest to newest; the last S entries form the
    training window. The objective g(lam) = mean rho_q((y-b) - lam (a-b))
    is convex piecewise linear; its minimum is attained on an interval
    whose endpoints are kinks lam_j = (y_j - b_j)/(a_j - b_j) or the
    boundaries {0, 1}. Ties are resolved by the minimizer closest to 0.5.
    Returns (lam, warmup); warmup as in performance_weight.
    """
    if S < 1:
        raise CombinationError("window length must be >= 1")
    if not 0.0 < quantile < 1.0:
        raise CombinationError("quantile must lie in (0, 1)")
    a = np.asarray(fc_a, dtype=float)
    b = np.asarray(fc_b, dtype=float)
    y = np.asarray(realized, dtype=float)
    if not (a.shape == b.shape == y.shape) or a.ndim != 1:
        raise CombinationError("histories must be 1-d and equally long")
    if a.size < S:
        return 0.5, True
    a, b, y = a[-S:], b[-S:], y[-S:]
    diff = a - b
    if np.all(diff == 0.0):
        return 0.5, False  # flat objective
    with np.errstate(divide="ignore", invalid="ignore"):
        kinks = (y - b) / diff
    kinks = kinks[np.isfinite(kinks)]
    # sorted distinct candidates; np.unique would import numpy.ma on first use
    candidates = np.sort(np.concatenate([[0.0, 1.0], kinks[(kinks > 0.0) & (kinks < 1.0)]]))
    candidates = candidates[np.concatenate([[True], candidates[1:] != candidates[:-1]])]
    values = np.array([combination_objective(l, a, b, y, quantile) for l in candidates])
    vmin = values.min()
    scale = max(vmin, 1.0)
    tied = candidates[values <= vmin + 1e-12 * scale]
    # convexity makes the tied set an interval; take its point nearest 0.5
    lo, hi = float(tied.min()), float(tied.max())
    return min(max(0.5, lo), hi), False


def weight_curve(fc_a, fc_b, realized, quantile: float):
    """Plot-ready (lam, avg pinball, ratio-to-best-endpoint) rows on a 0.01 lam grid.

    The ratio column normalizes by the benchmark endpoint lam = 0, so a
    dip below 1 shows where combination beats the benchmark alone.
    """
    grid = np.linspace(0.0, 1.0, 101)
    vals = np.array([combination_objective(l, fc_a, fc_b, realized, quantile) for l in grid])
    ratios = vals / vals[0] if vals[0] > 0 else np.full_like(vals, np.nan)
    return grid, vals, ratios


def weight_rows(strategy: str, window: int | None, cells: QuantileForecastSet, lam, warmup):
    """The weight file's header, then one row per (origin, q, h) cell of ``cells`` in that order.

    ``lam[i]`` and ``warmup[i]`` (True where the origin was still in
    fallback) belong to record i of ``cells``; ``window`` is S, or None for
    a fixed weight.
    """
    yield ["strategy", "window", "origin", "quantile", "horizon", "lambda", "warmup"]
    window = window if window is not None else ""
    origins = {o: month_label(o) for o in distinct(cells.origin)}
    order = np.lexsort((cells.horizon, cells.quantile, cells.origin))
    columns = (cells.origin, cells.quantile, cells.horizon, lam, warmup)
    for o, q, h, lam_i, warm in column_rows(*(column[order] for column in columns)):
        yield [strategy, window, origins[o], f"{q:.10g}", h, f"{lam_i:.17g}", int(warm)]


def combine_weighted(fc_a: QuantileForecastSet, b_values: np.ndarray, lam: np.ndarray,
                     model_id: str) -> QuantileForecastSet:
    """Cellwise lam * a + (1 - lam) * b: ``lam`` and ``b_values`` (from :func:`aligned_values`) follow a's records."""
    lam = lam[:, None]
    return QuantileForecastSet(fc_a.variable_names, model_id, fc_a.origin, fc_a.horizon, fc_a.quantile,
                               lam * fc_a.values + (1.0 - lam) * b_values)
