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
by :func:`combine_weighted` from a :class:`CombinationWeightSeries`; a fixed
weight is a series that holds lam in every cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .evaluation import pinball
from .forecast import QuantileForecastSet


class CombinationError(ValueError):
    pass


def _single_model(fset: QuantileForecastSet) -> str:
    ids = fset.model_ids()
    if len(ids) != 1:
        raise CombinationError(f"expected exactly one model id, found {ids}")
    return ids[0]


def _aligned_cells(fc_a: QuantileForecastSet, fc_b: QuantileForecastSet):
    if fc_a.variable_names != fc_b.variable_names:
        raise CombinationError("forecast sets cover different variables")
    a_id, b_id = _single_model(fc_a), _single_model(fc_b)
    cells_a = {k[1:] for k in fc_a.records}
    cells_b = {k[1:] for k in fc_b.records}
    if cells_a != cells_b:
        missing = cells_a.symmetric_difference(cells_b)
        raise CombinationError(f"forecast sets misaligned on {len(missing)} cells")
    return a_id, b_id, sorted(cells_a)


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
    base = combination_objective(0.0, fc_a, fc_b, realized, quantile)
    ratios = vals / base if base > 0 else np.full_like(vals, np.nan)
    return grid, vals, ratios


@dataclass
class CombinationWeightSeries:
    """Per-(origin, q, h) weights under one strategy."""

    strategy: str  # "fixed" | "performance" | "optimal"
    window: int | None  # S, None for fixed
    weights: dict = field(default_factory=dict)  # (origin, q, h) -> lam
    warmup: set = field(default_factory=set)  # origins still in fallback

    def __post_init__(self):
        if self.strategy not in ("fixed", "performance", "optimal"):
            raise CombinationError(f"unknown strategy {self.strategy!r}")

    def set_weight(self, origin: str, q: float, h: int, lam: float, warmup: bool) -> None:
        if not 0.0 <= lam <= 1.0:
            raise CombinationError(f"weight must lie in [0, 1], got {lam}")
        key = (origin, round(float(q), 10), int(h))
        self.weights[key] = lam
        if warmup:
            self.warmup.add(key)

    def weight(self, origin: str, q: float, h: int) -> float:
        return self.weights[(origin, round(float(q), 10), int(h))]

    def rows(self) -> list[list]:
        out = [["strategy", "window", "origin", "quantile", "horizon", "lambda", "warmup"]]
        for (origin, q, h) in sorted(self.weights):
            out.append(
                [
                    self.strategy,
                    self.window if self.window is not None else "",
                    origin,
                    f"{q:.10g}",
                    h,
                    f"{self.weights[(origin, q, h)]:.17g}",
                    int((origin, q, h) in self.warmup),
                ]
            )
        return out


def combine_weighted(
    fc_a: QuantileForecastSet,
    fc_b: QuantileForecastSet,
    series: CombinationWeightSeries,
    model_id: str,
) -> QuantileForecastSet:
    """Cellwise combination with per-(origin, q, h) weights."""
    a_id, b_id, cells = _aligned_cells(fc_a, fc_b)
    out = QuantileForecastSet(variable_names=list(fc_a.variable_names))
    for origin, h, q in cells:
        lam = series.weight(origin, q, h)
        va = fc_a.get(a_id, origin, h, q)
        vb = fc_b.get(b_id, origin, h, q)
        out.add(model_id, origin, h, q, lam * va + (1.0 - lam) * vb)
    return out
