"""Edge-case tests for the §IV-A visualization helpers.

These helpers are now shared by the dashboard *and* the telemetry
summary renderer, so their degenerate inputs (empty series, single
points, constant series) must stay well-defined.
"""

from repro.introspection.visualization import (
    bar_chart,
    sparkline,
    table,
)

SPARK_CHARS = "▁▂▃▄▅▆▇█"


# ---------------------------------------------------------------------------
# sparkline
# ---------------------------------------------------------------------------

def test_sparkline_empty_series():
    assert sparkline([]) == "(no data)"


def test_sparkline_single_point_is_flat():
    assert sparkline([42.0]) == SPARK_CHARS[0]


def test_sparkline_constant_series_is_flat():
    line = sparkline([5.0, 5.0, 5.0, 5.0])
    assert line == SPARK_CHARS[0] * 4


def test_sparkline_monotonic_series_uses_full_range():
    line = sparkline([0.0, 1.0, 2.0, 3.0])
    assert line[0] == SPARK_CHARS[0]
    assert line[-1] == SPARK_CHARS[-1]
    assert len(line) == 4


def test_sparkline_downsamples_long_series():
    line = sparkline(list(range(1000)), width=60)
    assert len(line) == 60
    assert line[0] == SPARK_CHARS[0]
    assert line[-1] == SPARK_CHARS[-1]
    # Downsampling a monotone series keeps it (weakly) monotone.
    levels = [SPARK_CHARS.index(c) for c in line]
    assert levels == sorted(levels)


def test_sparkline_handles_negative_values():
    line = sparkline([-3.0, 0.0, 3.0])
    assert line[0] == SPARK_CHARS[0]
    assert line[-1] == SPARK_CHARS[-1]


# ---------------------------------------------------------------------------
# bar_chart / table
# ---------------------------------------------------------------------------

def test_bar_chart_empty():
    assert bar_chart([]) == "(no data)"


def test_bar_chart_all_zero_values_does_not_divide_by_zero():
    chart = bar_chart([("a", 0.0), ("b", 0.0)])
    assert "a" in chart and "b" in chart
    assert "#" not in chart  # zero-length bars


def test_bar_chart_scales_to_peak():
    chart = bar_chart([("small", 1.0), ("big", 10.0)], width=10)
    lines = dict(line.split(" | ") for line in chart.splitlines())
    assert lines["big  "].count("#") == 10
    assert lines["small"].count("#") == 1


def test_table_empty_rows_still_renders_header():
    text = table(["a", "bb"], [])
    lines = text.splitlines()
    assert lines[0].split() == ["a", "bb"]
    assert set(lines[1]) <= {"-", " "}


def test_table_pads_to_widest_cell():
    text = table(["x"], [["wide-cell"], ["y"]])
    widths = {len(line.rstrip()) for line in text.splitlines()}
    # Separator and widest row share the same width.
    assert max(widths) == len("wide-cell")
