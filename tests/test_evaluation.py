from math import erfc, log, sqrt

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from quantvar.data import TimeSeriesPanel, TransformCode, month_index, month_label
from quantvar.evaluation import (
    EvaluationError,
    EventWindow,
    ScoreTable,
    average_qs,
    kupiec,
    pinball,
    qs_ratio,
    ratio_table_rows,
    realized_value,
    render_ratio_table,
    render_score_table,
    score_records,
    score_table_rows,
)

from conftest import forecast_set


def _panel(values, start="2000-01", names=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 1 and values.shape[1] > 1 and names is None:
        values = values.T
    n = values.shape[1]
    names = names or [f"y{j}" for j in range(n)]
    return TimeSeriesPanel(
        start=_mi(start),
        values=values,
        names=names,
        tcodes=[TransformCode.LEVEL] * n,
    )


def _m(j, start="2000-01"):
    return month_label(_mi(start) + j)


def _mi(label):
    return month_index(label)


# ---------------------------------------------------------------------------
# pinball loss


def test_pinball_reference_values():
    assert pinball(2.0, 0.1) == pytest.approx(0.2)
    assert pinball(-2.0, 0.1) == pytest.approx(1.8)
    assert pinball(0.0, 0.37) == 0.0


def test_pinball_asymmetry_ratio_is_exact():
    # at q = 0.1 an undershoot costs exactly nine times an equal overshoot,
    # and the ratio is exact in floating point (0.9*2 / (0.1*2))
    assert pinball(-2.0, 0.1) / pinball(2.0, 0.1) == 9.0


def test_pinball_vectorized():
    u = np.array([2.0, -2.0, 0.0])
    np.testing.assert_allclose(pinball(u, 0.1), [0.2, 1.8, 0.0])


def test_pinball_rejects_bad_level():
    for q in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(EvaluationError):
            pinball(1.0, q)


@given(
    # a subnormal u times q can round to 0.0, so "zero only at zero" holds for normal floats
    st.floats(-1e6, 1e6, allow_subnormal=False),
    st.floats(0.01, 0.99),
)
def test_pinball_nonnegative_and_zero_only_at_zero(u, q):
    v = pinball(u, q)
    assert v >= 0.0
    if u != 0.0:
        assert v > 0.0


@given(st.floats(0.05, 0.95), st.floats(0.1, 100.0))
def test_pinball_one_sided_slopes(q, x):
    # slope q on the positive side, q - 1 on the negative side
    assert pinball(x, q) == pytest.approx(q * x, rel=1e-12)
    assert pinball(-x, q) == pytest.approx((1 - q) * x, rel=1e-12)


@given(
    st.floats(-50, 50), st.floats(-50, 50), st.floats(0.05, 0.95), st.floats(0, 1)
)
def test_pinball_convex(a, b, q, w):
    mid = pinball(w * a + (1 - w) * b, q)
    assert mid <= w * pinball(a, q) + (1 - w) * pinball(b, q) + 1e-9


# ---------------------------------------------------------------------------
# realizations and windows


def test_realized_value_alignment_and_bounds():
    panel = _panel([[10.0], [11.0], [12.0]], start="2005-06")
    assert realized_value(panel, "y0", "2005-06", 1) == 11.0
    assert realized_value(panel, "y0", "2005-06", 2) == 12.0
    assert realized_value(panel, "y0", "2005-06", 3) is None  # beyond sample
    with pytest.raises(EvaluationError):
        realized_value(panel, "y0", "2004-01", 1)  # precedes sample


def test_event_window_membership():
    # inclusive bounds are covered by test_window_by_realization_date_vs_origin
    with pytest.raises(EvaluationError):
        EventWindow("bad", _mi("2015-01"), _mi("2015-01"))


# ---------------------------------------------------------------------------
# score tables


def _one_model_set(preds, origins, h=1, q=0.5, model="m", names=("y0",)):
    return forecast_set(list(names), [(model, origin, h, q, np.full(len(names), pred, dtype=float))
                                      for origin, pred in zip(origins, preds)])


def _average(sets, panel, variable, **kw):
    """average_qs over the score records of each set."""
    return average_qs([score_records(fset, panel, variable) for fset in sets], variable, **kw)


def test_average_qs_matches_brute_force():
    rng = np.random.default_rng(7)
    T = 40
    y = rng.normal(size=T)
    panel = _panel(y[:, None])
    origins = [_m(j) for j in range(5, 25)]
    qs = (0.1, 0.5, 0.9)
    preds = {}
    for h in (1, 3):
        for q in qs:
            for i, o in enumerate(origins):
                preds[(o, h, q)] = rng.normal()
    fset = forecast_set(["y0"], [("m", *cell, [p]) for cell, p in preds.items()])
    table = _average([fset], panel, "y0")
    for h in (1, 3):
        for q in qs:
            scores = []
            for o in origins:
                t = _mi(o) + h - _mi("2000-01")
                u = y[t] - preds[(o, h, q)]
                scores.append(u * (q - (1 if u < 0 else 0)))
            assert table.entries[("m", q, h)] == pytest.approx(
                float(np.mean(scores)), abs=1e-14
            )
            assert table.counts[("m", q, h)] == len(origins)


def test_average_qs_symmetric_errors_at_median():
    # unit errors at q = 0.5 score |u|/2 = 0.5 regardless of sign
    panel = _panel([[0.0]] * 12)
    origins = [_m(j) for j in range(0, 10)]
    preds = [(-1.0) ** j for j in range(10)]  # error = 0 - pred = ∓1
    fset = _one_model_set(preds, origins)
    table = _average([fset], panel, "y0")
    assert table.entries[("m", 0.5, 1)] == pytest.approx(0.5)


def test_window_by_realization_date_vs_origin():
    panel = _panel([[0.0]] * 12)
    origins = [_m(j) for j in range(0, 8)]
    fset = _one_model_set([1.0] * len(origins), origins, h=2)
    # realizations land at months 2..9; window [2000-04, 2000-06] covers
    # realizations of origins 2000-02..2000-04 (3 of them)
    w = EventWindow("mid", _mi("2000-04"), _mi("2000-06"))
    t_real = _average([fset], panel, "y0", window=w)
    assert t_real.counts[("m", 0.5, 2)] == 3
    # all-covering window must agree with the unconditional table exactly
    wide = EventWindow("all", _mi("1999-01"), _mi("2001-12"))
    t_all = _average([fset], panel, "y0", window=wide)
    t_unc = _average([fset], panel, "y0")
    assert t_all.entries == t_unc.entries and t_all.counts == t_unc.counts


def test_unobserved_realizations_are_skipped():
    panel = _panel([[0.0]] * 5)
    origins = [_m(j) for j in range(0, 5)]
    fset = _one_model_set([1.0] * 5, origins, h=2)
    recs = score_records(fset, panel, "y0")
    # origins 2000-04 and 2000-05 have undated realizations -> skipped
    assert len(recs) == 3
    table = _average([fset], panel, "y0")
    assert table.counts[("m", 0.5, 2)] == 3


def test_empty_window_table_is_empty_not_error():
    panel = _panel([[0.0]] * 12)
    origins = [_m(j) for j in range(0, 8)]
    fset = _one_model_set([1.0] * len(origins), origins)
    w = EventWindow("off", _mi("2011-01"), _mi("2012-01"))
    table = _average([fset], panel, "y0", window=w)
    assert table.entries == {}


def test_window_with_nothing_scorable_raises():
    panel = _panel([[0.0]] * 3)
    fset = _one_model_set([1.0], ["2000-02"], h=5)  # realization beyond sample
    with pytest.raises(EvaluationError):
        _average([fset], panel, "y0", window=EventWindow("w", _mi("2000-01"), _mi("2000-12")))


# ---------------------------------------------------------------------------
# ratios


def _two_model_table(num_scale=1.0):
    panel = _panel([[0.0]] * 20)
    origins = [_m(j) for j in range(0, 15)]
    a = _one_model_set([num_scale] * 15, origins, model="a")
    b = _one_model_set([1.0] * 15, origins, model="b")
    return _average([a, b], panel, "y0")


def test_qs_ratio_self_is_one_and_halving():
    table = _two_model_table()
    same = qs_ratio(table, "a", "a")
    assert same == {(0.5, 1): 1.0}
    # numerator errors half the benchmark's -> ratio 0.5 exactly
    half = qs_ratio(_two_model_table(num_scale=0.5), "a", "b")
    assert half[(0.5, 1)] == pytest.approx(0.5, abs=1e-15)


def test_qs_ratio_scale_invariance():
    t1 = _two_model_table(num_scale=0.7)
    r1 = qs_ratio(t1, "a", "b")
    # rescaling every score by the same constant leaves ratios unchanged
    t2 = ScoreTable(variable=t1.variable, window_label=t1.window_label)
    t2.entries = {k: 3.7 * v for k, v in t1.entries.items()}
    t2.counts = dict(t1.counts)
    r2 = qs_ratio(t2, "a", "b")
    assert r2.keys() == r1.keys()
    for key in r1:
        assert r2[key] == pytest.approx(r1[key], rel=1e-12)


def test_qs_ratio_zero_benchmark_flagged():
    panel = _panel([[0.0]] * 10)
    origins = [_m(j) for j in range(0, 5)]
    a = _one_model_set([1.0] * 5, origins, model="a")
    b = _one_model_set([0.0] * 5, origins, model="b")  # perfect -> QS 0
    table = _average([a, b], panel, "y0")
    ratio = qs_ratio(table, "a", "b")
    assert list(ratio) == [(0.5, 1)]
    assert np.isnan(ratio[(0.5, 1)])


def test_qs_ratio_coverage_mismatch_rejected():
    panel = _panel([[0.0]] * 10)
    origins = [_m(j) for j in range(0, 5)]
    a = _one_model_set([1.0] * 5, origins, model="a")
    b = _one_model_set([1.0] * 5, origins, model="b", q=0.9)
    table = _average([a, b], panel, "y0")
    with pytest.raises(EvaluationError):
        qs_ratio(table, "a", "b")
    with pytest.raises(EvaluationError):
        qs_ratio(table, "missing", "b")


# ---------------------------------------------------------------------------
# rendering


def test_render_score_table_smoke():
    table = _two_model_table()
    text = render_score_table(table)
    assert "QS50" in text and "[a]" in text and "[b]" in text
    rows = score_table_rows(table)
    assert rows[0] == ["model", "quantile", "horizon", "score", "n_origins"]
    assert len(rows) == 1 + len(table.entries)


def test_render_ratio_table_marks_na_and_favorable():
    panel = _panel([[0.0]] * 10)
    origins = [_m(j) for j in range(0, 5)]
    a = forecast_set(["y0"], [("a", o, h, 0.5, [v]) for o in origins for h, v in ((1, 0.5), (2, 1.0))])
    # zero benchmark at h=2
    b = forecast_set(["y0"], [("b", o, h, 0.5, [v]) for o in origins for h, v in ((1, 1.0), (2, 0.0))])
    table = _average([a, b], panel, "y0")
    ratio = qs_ratio(table, "a", "b")
    text = render_ratio_table(table, "a", "b", ratio)
    assert "n/a" in text  # flagged cell
    assert "QS50" in text
    rows = ratio_table_rows("a", "b", ratio)
    flagged_rows = [r for r in rows[1:] if r[5] == 1]
    assert len(flagged_rows) == 1 and flagged_rows[0][4] == "n/a"


# ---------------------------------------------------------------------------
# coverage


def test_coverage_counts_of_a_hand_built_set():
    # y = 0, so a record hits (u < 0) exactly when its forecast is positive
    panel = _panel([[0.0]] * 12)
    forecasts = {  # origin -> forecasts at q = .1, .5, .9 for h = 1
        "2000-01": (-1.0, 0.5, 1.0),  # hits at .5, .9; monotone
        "2000-02": (1.0, -1.0, 2.0),  # hits at .1, .9; .5 below .1
        "2000-03": (-2.0, -1.0, -3.0),  # no hit; .9 below .5
        "2000-04": (0.5, 0.2, 0.1),  # all hit; .5 below .1, .9 below .5
    }
    fset = forecast_set(["y0"], [("m", o, 1, q, [v]) for o, vs in forecasts.items()
                                 for q, v in zip((0.1, 0.5, 0.9), vs)])
    table = _average([fset], panel, "y0")
    assert table.counts == {("m", q, 1): 4 for q in (0.1, 0.5, 0.9)}
    assert table.hits == {("m", 0.1, 1): 2, ("m", 0.5, 1): 2, ("m", 0.9, 1): 3}
    assert table.crossings == {("m", 0.1, 1): (0, 0), ("m", 0.5, 1): (2, 4), ("m", 0.9, 1): (2, 4)}
    # a window counts the records it scores: the realizations of origins 2000-01 and 2000-02
    w = EventWindow("w", _mi("2000-02"), _mi("2000-03"))
    table = _average([fset], panel, "y0", window=w)
    assert table.hits == {("m", 0.1, 1): 1, ("m", 0.5, 1): 1, ("m", 0.9, 1): 2}
    assert table.crossings == {("m", 0.1, 1): (0, 0), ("m", 0.5, 1): (1, 2), ("m", 0.9, 1): (0, 2)}


@pytest.mark.parametrize("n,hits,q", [(8, 0, 0.1), (8, 8, 0.9), (8, 8, 0.1), (8, 0, 0.9), (3, 1, 0.5),
                                      (206, 30, 0.1), (206, 103, 0.5), (10, 5, 0.5)])
def test_kupiec_matches_its_closed_form(n, hits, q):
    def xlogy(x, y):
        return x * log(y) if x else 0.0

    share = hits / n
    closed = -2 * (xlogy(n - hits, 1 - q) + xlogy(hits, q) - xlogy(n - hits, 1 - share) - xlogy(hits, share))
    lr, p = kupiec(n, hits, q)
    assert lr == pytest.approx(closed, rel=1e-12, abs=1e-12)
    assert p == erfc(sqrt(lr / 2))
    if hits == 0:
        assert lr == pytest.approx(-2 * n * log(1 - q), rel=1e-12)
    if hits == n:
        assert lr == pytest.approx(-2 * n * log(q), rel=1e-12)
    if hits == n * q:
        assert (lr, p) == (0.0, 1.0)


def test_kupiec_p_value_is_the_chi2_1_tail():
    for n, hits, q in [(8, 0, 0.1), (40, 9, 0.1), (206, 120, 0.5), (12, 12, 0.75)]:
        lr, p = kupiec(n, hits, q)
        assert p == pytest.approx(stats.chi2.sf(lr, 1), rel=1e-10)
