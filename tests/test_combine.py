import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantvar.cli import _combine
from quantvar.combine import (
    CombinationError,
    CombinationWeightSeries,
    combination_objective,
    combine_weighted,
    optimal_weight,
    performance_weight,
    weight_curve,
)
from quantvar.forecast import QuantileForecastSet

from conftest import optimal_weight_grid


def _fset(model, cells, names=("y0",)):
    out = QuantileForecastSet(variable_names=list(names))
    for (origin, h, q), v in cells.items():
        out.add(model, origin, h, q, np.full(len(names), v, dtype=float))
    return out


# ---------------------------------------------------------------------------
# fixed weights


def _fixed(a, b, lam, model_id="comb_fixed"):
    # the fixed-weight path of `run` and `quantvar combine`: a constant weight series
    return _combine(a, "a", b, "b", "fixed", lam, model_id, None, None)[0]


def test_combine_fixed_endpoints_and_midpoint():
    cells = {("2010-01", 1, 0.5): 2.0, ("2010-02", 1, 0.5): 4.0}
    a = _fset("a", cells)
    b = _fset("b", {k: 10.0 for k in cells})
    # lam = 1 reproduces a, lam = 0 reproduces b, exactly
    for k in cells:
        assert _fixed(a, b, 1.0).get("comb_fixed", *k)[0] == cells[k]
        assert _fixed(a, b, 0.0).get("comb_fixed", *k)[0] == 10.0
    mid = _fixed(a, b, 0.5, model_id="mix")
    assert mid.get("mix", "2010-01", 1, 0.5)[0] == 6.0


def test_combine_fixed_validation():
    cells = {("2010-01", 1, 0.5): 2.0}
    a = _fset("a", cells)
    b = _fset("b", cells)
    with pytest.raises(CombinationError):
        _fixed(a, b, 1.5)
    b_short = _fset("b", {("2010-02", 1, 0.5): 1.0})
    with pytest.raises(CombinationError):
        _fixed(a, b_short, 0.5)
    two = _fset("a", cells)
    two.add("c", "2010-01", 1, 0.5, np.array([1.0]))
    with pytest.raises(CombinationError):
        _fixed(two, b, 0.5)


# ---------------------------------------------------------------------------
# performance weights


def test_performance_weight_reference_cases():
    assert performance_weight([1.0] * 5, [1.0] * 5, 5) == (0.5, False)
    lam, warm = performance_weight([1.0] * 4, [3.0] * 4, 4)
    assert lam == pytest.approx(0.75) and not warm
    # a perfect model takes all the weight
    assert performance_weight([0.0] * 3, [2.0] * 3, 3)[0] == 1.0
    # both perfect -> indistinguishable
    assert performance_weight([0.0] * 3, [0.0] * 3, 3) == (0.5, False)


def test_performance_weight_warmup_and_trailing_window():
    assert performance_weight([1.0], [3.0], 2) == (0.5, True)
    # only the last S entries matter
    a = [100.0, 100.0, 1.0, 1.0]
    b = [0.0, 0.0, 3.0, 3.0]
    lam, warm = performance_weight(a, b, 2)
    assert lam == pytest.approx(0.75) and not warm


def test_performance_weight_scale_invariance():
    rng = np.random.default_rng(3)
    a = rng.uniform(0.1, 2.0, size=20)
    b = rng.uniform(0.1, 2.0, size=20)
    l1, _ = performance_weight(a, b, 10)
    l2, _ = performance_weight(7.3 * a, 7.3 * b, 10)
    assert l2 == pytest.approx(l1, rel=1e-12)


def test_performance_weight_validation():
    with pytest.raises(CombinationError):
        performance_weight([1.0], [1.0], 0)
    with pytest.raises(CombinationError):
        performance_weight([1.0, 2.0], [1.0], 2)
    with pytest.raises(CombinationError):
        performance_weight([-1.0, 1.0], [1.0, 1.0], 2)


# ---------------------------------------------------------------------------
# optimal weights


def test_optimal_weight_perfect_endpoint():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    a = y.copy()  # zero loss at lam = 1
    b = y + 2.0
    lam, warm = optimal_weight(a, b, y, 0.5, 4)
    assert lam == 1.0 and not warm
    lam, _ = optimal_weight(b, a, y, 0.5, 4)
    assert lam == 0.0


def test_optimal_weight_identical_models_flat():
    y = np.array([1.0, -1.0, 0.5])
    a = y + 0.3
    lam, warm = optimal_weight(a, a.copy(), y, 0.3, 3)
    assert lam == 0.5 and not warm


def test_optimal_weight_warmup():
    lam, warm = optimal_weight([1.0], [2.0], [1.5], 0.5, 5)
    assert (lam, warm) == (0.5, True)


def test_optimal_weight_interior_kink():
    # single observation: loss vanishes where lam a + (1-lam) b = y
    # a=2, b=0, y=0.6 -> lam* = 0.3
    lam, _ = optimal_weight([2.0], [0.0], [0.6], 0.5, 1)
    assert lam == pytest.approx(0.3, abs=1e-12)


def _optimal_weight_unique_reference(a, b, y, quantile, S):
    """optimal_weight's minimizer with its candidates from np.unique."""
    a, b, y = (np.asarray(v, dtype=float)[-S:] for v in (a, b, y))
    diff = a - b
    if np.all(diff == 0.0):
        return 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        kinks = (y - b) / diff
    kinks = kinks[np.isfinite(kinks)]
    candidates = np.unique(np.concatenate([[0.0, 1.0], kinks[(kinks > 0.0) & (kinks < 1.0)]]))
    values = np.array([combination_objective(l, a, b, y, quantile) for l in candidates])
    vmin = values.min()
    tied = candidates[values <= vmin + 1e-12 * max(vmin, 1.0)]
    return min(max(0.5, float(tied.min())), float(tied.max()))


def test_optimal_weight_candidates_match_np_unique_bit_for_bit():
    # histories drawn with replacement from six rows repeat their kinks
    # exactly; one row has a == b (no kink) and one a kink at 0
    rng = np.random.default_rng(12)
    for _ in range(300):
        a, b = rng.normal(size=(2, 6))
        y = b + rng.uniform(-0.5, 1.5, 6) * (a - b)
        a[0] = b[0]
        y[1] = b[1]
        S = int(rng.integers(1, 40))
        idx = rng.integers(0, 6, S)
        q = float(rng.uniform(0.05, 0.95))
        lam, warm = optimal_weight(a[idx], b[idx], y[idx], q, S)
        assert not warm
        assert lam == _optimal_weight_unique_reference(a[idx], b[idx], y[idx], q, S)


def test_optimal_weight_tie_interval_resolved_toward_half():
    # two observations with zero-loss kinks at 0.3 and 0.7 at q=0.5:
    # objective is flat... not flat, but symmetric; the convex minimum
    # spans [0.3, 0.7] only if both terms have matching slopes. Use
    # a construction with an exactly flat stretch: y between the kinks
    # costs slope q(a1-b1) - (1-q)(a2-b2) = 0 when the gaps match.
    a = np.array([2.0, 2.0])
    b = np.array([0.0, 0.0])
    y = np.array([0.6, 1.4])  # kinks at 0.3 and 0.7
    lam, _ = optimal_weight(a, b, y, 0.5, 2)
    assert lam == pytest.approx(0.5, abs=1e-12)
    # off-center flat interval clamps to the nearest end of the interval
    y2 = np.array([1.2, 1.8])  # kinks at 0.6 and 0.9
    lam2, _ = optimal_weight(a, b, y2, 0.5, 2)
    assert lam2 == pytest.approx(0.6, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_optimal_weight_matches_grid_search(seed):
    rng = np.random.default_rng(seed)
    S = int(rng.integers(3, 40))
    q = float(rng.uniform(0.05, 0.95))
    y = rng.normal(size=S)
    a = y + rng.normal(scale=0.8, size=S)
    b = y + rng.normal(scale=0.8, size=S)
    lam, warm = optimal_weight(a, b, y, q, S)
    assert not warm and 0.0 <= lam <= 1.0
    g_lam, g_val = optimal_weight_grid(a, b, y, q, S, step=1e-4)
    exact_val = combination_objective(lam, a, b, y, q)
    # exact minimizer can only do better than (or equal to) the grid
    assert exact_val <= g_val + 1e-12
    assert abs(exact_val - g_val) <= 1e-3 * max(1.0, g_val)
    # in-window optimality: never worse than either endpoint
    assert exact_val <= combination_objective(0.0, a, b, y, q) + 1e-12
    assert exact_val <= combination_objective(1.0, a, b, y, q) + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_combination_objective_convex(seed):
    rng = np.random.default_rng(seed)
    S = 12
    q = float(rng.uniform(0.1, 0.9))
    y = rng.normal(size=S)
    a = y + rng.normal(size=S)
    b = y + rng.normal(size=S)
    l1, l2 = sorted(rng.uniform(0, 1, size=2))
    g = lambda l: combination_objective(l, a, b, y, q)
    assert g(0.5 * (l1 + l2)) <= 0.5 * g(l1) + 0.5 * g(l2) + 1e-10


def test_weight_curve_shape_and_normalization():
    y = np.array([1.0, 2.0, 0.5])
    a = y + 0.2
    b = y - 0.4
    grid, vals, ratios = weight_curve(a, b, y, 0.5)
    assert grid.shape == vals.shape == ratios.shape == (101,)
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert ratios[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# weight series and application


def test_weight_series_rows_and_validation():
    s = CombinationWeightSeries(strategy="performance", window=50)
    s.set_weight("2010-01", 0.5, 1, 0.75, warmup=False)
    s.set_weight("2010-02", 0.5, 1, 0.5, warmup=True)
    assert s.weight("2010-01", 0.5, 1) == 0.75
    rows = s.rows()
    assert rows[0][0] == "strategy"
    warm_flags = {r[2]: r[6] for r in rows[1:]}
    assert warm_flags == {"2010-01": 0, "2010-02": 1}
    with pytest.raises(CombinationError):
        s.set_weight("2010-03", 0.5, 1, 1.2, warmup=False)
    with pytest.raises(CombinationError):
        CombinationWeightSeries(strategy="magic", window=None)


def test_combine_weighted_uses_per_cell_weights():
    cells = {("2010-01", 1, 0.5): 2.0, ("2010-02", 1, 0.5): 2.0}
    a = _fset("a", cells)
    b = _fset("b", {k: 10.0 for k in cells})
    s = CombinationWeightSeries(strategy="optimal", window=75)
    s.set_weight("2010-01", 0.5, 1, 1.0, warmup=False)
    s.set_weight("2010-02", 0.5, 1, 0.25, warmup=True)
    out = combine_weighted(a, b, s, "comb_opt")
    assert out.get("comb_opt", "2010-01", 1, 0.5)[0] == 2.0
    assert out.get("comb_opt", "2010-02", 1, 0.5)[0] == pytest.approx(8.0)
