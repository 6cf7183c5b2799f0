import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantvar.data import (
    LagDesign,
    PanelError,
    TimeSeriesPanel,
    TransformCode,
    apply_transform,
    build_lag_design,
    deflate,
    month_index,
    month_label,
    read_panel,
    splice_by_growth,
    transform_panel,
    write_panel,
)


def test_month_index_roundtrip():
    assert month_label(month_index("1999-12")) == "1999-12"
    assert month_index("2000-01") - month_index("1999-12") == 1


@pytest.mark.parametrize("bad", ["2020-13", "2020-00", "202001", "2020-1", "20-01", "2020-01\n"])
def test_month_index_rejects_malformed(bad):
    with pytest.raises(PanelError):
        month_index(bad)


def test_apply_transform_log_difference():
    out = apply_transform([100.0, 110.0], 5)
    assert out.shape == (1,)
    assert out[0] == pytest.approx(np.log(1.1), rel=1e-12)


def test_apply_transform_difference_and_identity():
    np.testing.assert_array_equal(apply_transform([3.0, 3.0, 3.0], 1), [0.0, 0.0])
    np.testing.assert_array_equal(apply_transform([5.0, 7.0, 4.0], 2), [5.0, 7.0, 4.0])


def test_apply_transform_errors():
    with pytest.raises(PanelError):
        apply_transform([1.0, -1.0], 5)  # nonpositive level under log diff
    with pytest.raises(PanelError):
        apply_transform([1.0], 1)  # too short to difference
    with pytest.raises(PanelError):
        apply_transform([1.0, 2.0], 3)  # unknown code


def invert_transform(transformed, code, initial: float) -> np.ndarray:
    """Levels from a code-1 or code-5 series and its initial level: the oracle for apply_transform."""
    path = np.concatenate([[0.0], np.cumsum(np.asarray(transformed, dtype=float))])
    return initial + path if code == TransformCode.DIFFERENCE else initial * np.exp(path)


@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=40),
)
def test_difference_inverts(levels):
    x = np.asarray(levels)
    z = apply_transform(x, TransformCode.DIFFERENCE)
    back = invert_transform(z, TransformCode.DIFFERENCE, x[0])
    np.testing.assert_allclose(back, x, atol=1e-10)


@given(
    st.lists(st.floats(min_value=0.01, max_value=1000), min_size=2, max_size=40),
)
def test_log_difference_inverts(levels):
    x = np.asarray(levels)
    z = apply_transform(x, TransformCode.LOG_DIFFERENCE)
    back = invert_transform(z, TransformCode.LOG_DIFFERENCE, x[0])
    np.testing.assert_allclose(back, x, rtol=1e-12)


def test_deflate_final_period_base():
    np.testing.assert_allclose(deflate([10.0, 20.0], [1.0, 2.0]), [20.0, 20.0])


def test_deflate_constant_deflator_is_identity():
    x = np.array([3.0, 1.0, 4.0])
    np.testing.assert_array_equal(deflate(x, np.full(3, 7.0)), x)
    np.testing.assert_array_equal(deflate(np.array([0.0, 5.0]), np.ones(2)), [0.0, 5.0])


def test_deflate_errors():
    with pytest.raises(PanelError):
        deflate([1.0, 2.0], [1.0])
    with pytest.raises(PanelError):
        deflate([1.0, 2.0], [1.0, 0.0])


def test_deflation_commutes_with_log_difference():
    # rescaling by the deflator path then log-differencing equals
    # log-differencing the ratio directly; base normalization drops out
    rng = np.random.default_rng(0)
    nominal = np.exp(rng.normal(size=30).cumsum() * 0.05 + 3)
    cpi = np.exp(rng.normal(size=30).cumsum() * 0.01)
    a = apply_transform(deflate(nominal, cpi), 5)
    b = apply_transform(nominal / cpi, 5)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_splice_by_growth_backcasts_head():
    # donor doubles each month; target known from the third month on
    donor = np.array([1.0, 2.0, 4.0, 8.0])
    target = np.array([np.nan, np.nan, 100.0, 200.0])
    out = splice_by_growth(target, donor)
    np.testing.assert_allclose(out, [25.0, 50.0, 100.0, 200.0])


def test_splice_full_target_is_noop():
    t = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(splice_by_growth(t, np.array([5.0, 5.0, 5.0])), t)


def test_splice_rejects_bad_donor_and_interior_gaps():
    with pytest.raises(PanelError):
        splice_by_growth(np.array([np.nan, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(PanelError):
        splice_by_growth(np.array([1.0, np.nan, 2.0]), np.array([1.0, 1.0, 1.0]))


def _dates(start, n):
    return [month_label(month_index(start) + j) for j in range(n)]


def test_panel_validation():
    start = month_index("2001-01")
    vals = np.arange(8.0).reshape(4, 2)
    panel = TimeSeriesPanel(start, vals, ["a", "b"], [2, 2])
    assert panel.n_series == 2
    assert (panel.start, panel.end) == (start, start + 3)
    with pytest.raises(PanelError):  # duplicate names
        TimeSeriesPanel(start, vals, ["a", "a"], [2, 2])
    bad = vals.copy()
    bad[2, 0] = np.nan  # interior hole
    with pytest.raises(PanelError):
        TimeSeriesPanel(start, bad, ["a", "b"], [2, 2])


@pytest.mark.parametrize("dates, line, message", [
    (["2001-01", "2001-2", "2001-03"], 3, "not an ISO month label: '2001-2'"),
    (["2001-01", '"2001-02\n"', "2001-03"], 4, "not an ISO month label: '2001-02\\n'"),
    (["2001-01", "2001-03", "2001-04"], 3, "2001-03 is not the month after 2001-01"),
    (["2001-01", "2001-02", "2001-02"], 4, "2001-02 is not the month after 2001-02"),
    (["2001-02", "2001-03", "2001-01"], 4, "2001-01 is not the month after 2001-03"),
], ids=["malformed", "trailing-newline", "skipped", "repeated", "backward"])
def test_read_panel_names_the_line_of_a_bad_date(tmp_path, dates, line, message):
    # a quoted date that holds a newline ends on the next line, which the message names
    csv_path, tc_path = tmp_path / "p.csv", tmp_path / "t.json"
    csv_path.write_text("date,a\n" + "".join(f"{d},{i}.0\n" for i, d in enumerate(dates)))
    tc_path.write_text('{"a": 2}')
    with pytest.raises(PanelError) as info:
        read_panel(csv_path, tc_path)
    assert str(info.value) == f"{csv_path}, line {line}: {message}"


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_panel_rejects_an_infinite_value_with_series_and_month(value):
    # a panel built in code is checked like one read from a file
    vals = np.arange(8.0).reshape(4, 2)
    vals[2, 1] = value
    with pytest.raises(PanelError, match="series 'b' has a non-finite value at 2001-03"):
        TimeSeriesPanel(month_index("2001-01"), vals, ["a", "b"], [2, 2])


def test_panel_head_missing_allowed():
    dates = _dates("2001-01", 5)
    vals = np.arange(10.0).reshape(5, 2)
    vals[:2, 1] = np.nan
    panel = TimeSeriesPanel(month_index("2001-01"), vals, ["a", "b"], [2, 2])
    assert panel.dates == dates
    np.testing.assert_array_equal(panel.column("b"), vals[:, 1])


def test_transform_panel_aligns_to_latest_common_start():
    vals = np.column_stack(
        [
            np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),  # code 1: starts 2001-02
            np.array([np.nan, np.nan, 100.0, 110.0, 121.0, 133.1]),  # code 5: starts 2001-04
            np.array([7.0, 7.0, 7.0, 7.0, 7.0, 7.0]),  # code 2: full
        ]
    )
    panel = TimeSeriesPanel(month_index("2001-01"), vals, ["d", "g", "l"], [1, 5, 2])
    out = transform_panel(panel)
    assert out.start == month_index("2001-04")
    assert out.values.shape == (3, 3)
    assert not np.isnan(out.values).any()
    np.testing.assert_allclose(out.values[:, 0], 1.0)
    np.testing.assert_allclose(out.values[:, 1], np.log(1.1), rtol=1e-12)
    assert all(c == TransformCode.LEVEL for c in out.tcodes)


def test_build_lag_design_hand_case():
    d = build_lag_design(np.array([[1.0], [2.0], [3.0]]), 1)
    np.testing.assert_array_equal(d.X, [[1.0, 1.0], [1.0, 2.0]])
    np.testing.assert_array_equal(d.Y, [[2.0], [3.0]])


def test_build_lag_design_dimensions_and_errors():
    d = build_lag_design(np.arange(12.0).reshape(6, 2), 2)
    assert d.X.shape[1] == 5  # n*p + 1
    assert len(d.Y) == 4
    with pytest.raises(PanelError):
        build_lag_design(np.ones((3, 1)), 3)  # p = T_full
    with pytest.raises(PanelError):
        build_lag_design(np.array([[1.0], [np.nan]]), 1)


@settings(max_examples=50)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=1000),
)
def test_lag_design_reconstruction(p, n, seed):
    rng = np.random.default_rng(seed)
    T_full = p + rng.integers(2, 12)
    Y = rng.normal(size=(T_full, n))
    d = build_lag_design(Y, p)
    assert np.all(d.X[:, 0] == 1.0)
    for t in range(len(d.Y)):
        for j in range(1, p + 1):
            np.testing.assert_array_equal(d.X[t, 1 + (j - 1) * n : 1 + j * n], Y[t + p - j])
        np.testing.assert_array_equal(d.Y[t], Y[t + p])


@pytest.mark.parametrize("code", [True, False, 3, "1", None])
def test_panel_names_the_series_of_an_invalid_tcode(code):
    # True equals 1 and would be read as a first difference
    with pytest.raises(PanelError) as info:
        TimeSeriesPanel(month_index("1995-06"), np.ones((3, 2)), ["x", "y"], [2, code])
    assert str(info.value) == f"series 'y' has an invalid transformation code {code!r}"


def test_panel_csv_roundtrip(tmp_path):
    vals = np.array([[np.nan, 1.5], [2.0, 2.5], [3.0, 3.5], [4.0, 4.5]])
    panel = TimeSeriesPanel(month_index("1995-06"), vals, ["x", "y"], [1, 5])
    csv_path = tmp_path / "panel.csv"
    tc_path = tmp_path / "tcodes.json"
    write_panel(panel, csv_path, tc_path)
    back = read_panel(csv_path, tc_path)
    assert back.start == panel.start and back.dates == _dates("1995-06", 4)
    assert back.names == panel.names
    assert back.tcodes == panel.tcodes
    np.testing.assert_array_equal(
        np.isnan(back.values), np.isnan(panel.values)
    )
    np.testing.assert_array_equal(back.values[1:], panel.values[1:])


def test_read_panel_requires_tcodes(tmp_path):
    csv_path = tmp_path / "p.csv"
    csv_path.write_text("date,a\n2001-01,1.0\n2001-02,2.0\n")
    tc_path = tmp_path / "t.json"
    tc_path.write_text("{}")
    with pytest.raises(PanelError):
        read_panel(csv_path, tc_path)


def test_read_panel_rejects_a_tcode_sidecar_that_is_not_an_object(tmp_path):
    csv_path = tmp_path / "p.csv"
    csv_path.write_text("date,a\n2001-01,1.0\n2001-02,2.0\n")
    tc_path = tmp_path / "t.json"
    tc_path.write_text('["a", 5]')
    with pytest.raises(PanelError, match="JSON object"):
        read_panel(csv_path, tc_path)
