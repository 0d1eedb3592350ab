"""The row templates against per-cell rendering.

Both renderers print a table's columns through one %-template per table.
The reference here zips the columns into rows and renders every cell on
its own instead: CSV through cli._cell, JSON through json.dumps of one
object per row, as the whole document.  The two must agree byte for byte
on any table.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab import cli


def _reference_csv(report: cli.Report) -> str:
    lines = [f"# {key} = {cli._fmt12(value)}" for key, value in report.parameters.items()]
    tables = [value for value in report.fields.values() if isinstance(value, cli.Table)]
    single = {key: value for key, value in report.fields.items() if not isinstance(value, cli.Table)}
    if single:
        tables.insert(0, cli.Table(tuple(single), [[value] for value in single.values()]))
    for table in tables:
        lines.append(",".join(map(cli._cell, table.header)))
        lines.extend(",".join(map(cli._cell, row)) for row in zip(*table.columns))
    return "\n".join(lines) + "\n"


def _reference_json(report: cli.Report) -> str:
    document = {"command": report.command, "parameters": report.parameters}
    for key, value in report.fields.items():
        if isinstance(value, cli.Table):
            value = [dict(zip(value.header, row)) for row in zip(*value.columns)]
        document[key] = value
    return json.dumps(document, indent=2, ensure_ascii=False) + "\n"


# every finite float, with the edges named: signed zeros, subnormals, the
# smallest normal and values near the largest
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
               1.7976931348623157e308, -1.7976931348623157e308]
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))
# cells that take the per-value rules: text, bools, None, nested data,
# non-finite floats, and any mix of kinds within one column
OTHER = st.one_of(
    FINITE,
    st.integers(),
    st.text(max_size=6),
    st.booleans(),
    st.none(),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.lists(st.one_of(st.integers(), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
COLUMN_KINDS = [FINITE, st.integers(), OTHER]


@st.composite
def tables(draw, kinds=COLUMN_KINDS):
    width = draw(st.integers(1, 5))
    header = draw(st.lists(st.text(min_size=1, max_size=6), min_size=width, max_size=width,
                           unique=True))
    length = draw(st.integers(0, 6))
    columns = [
        [draw(kind) for _ in range(length)]
        for kind in [draw(st.sampled_from(kinds)) for _ in range(width)]
    ]
    return cli.Table(tuple(header), columns)


@st.composite
def reports(draw, kinds=COLUMN_KINDS):
    parameters = draw(st.dictionaries(st.text(max_size=6), st.one_of(FINITE, st.text(max_size=6)),
                                      min_size=1, max_size=3))
    fields = {"rows": draw(tables(kinds))}
    if draw(st.booleans()):
        fields["failed"] = draw(st.integers(0, 3))
        fields["nested"] = draw(st.dictionaries(st.text(max_size=3), FINITE, max_size=2))
    return cli.Report("render-test", parameters, fields)


@settings(max_examples=300, deadline=None)
@given(reports(kinds=[FINITE]))
def test_float_rows_match_per_cell_rendering(report):
    assert cli._render_csv(report) == _reference_csv(report)
    assert cli._render_json(report) == _reference_json(report)


@settings(max_examples=300, deadline=None)
@given(reports())
def test_mixed_rows_match_per_cell_rendering(report):
    assert cli._render_csv(report) == _reference_csv(report)
    assert cli._render_json(report) == _reference_json(report)


def test_only_finite_float_and_int_columns_are_numeric():
    table = cli.Table(
        ("f", "i", "b", "inf", "mixed"),
        [[1.5, -0.0], [2, -3], [True, False], [math.inf, 0.5], [1, 1.0]],
    )
    conversions, columns = table.conversions("%r", repr)
    assert conversions == ["%r", "%d", "%s", "%s", "%s"]
    assert columns[3] == ["inf", "0.5"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--m", "1", "--k", "0,0,0.01", "--p3-min", "0", "--p3-max", "1", "--count", "3"],
        ["ring-spectrum", "--sites", "8", "--length", "1", "--m", "0.5"],
        ["verify", "--suite", "algebra"],
        ["dispersion", "--m", "1", "--p", "0,0,0.5", "--k", "0,0,0.01"],
    ],
)
def test_runners_hand_over_python_columns(argv):
    # a numpy scalar misses the %r and %d templates and prints as its repr
    options = vars(cli.build_parser().parse_args(argv))
    # what main removes: the runner, the output flags and the subparser names
    for key in ("format", "out", "timing", "command", "subcommand"):
        options.pop(key, None)
    report = cli.run_command(options.pop("run"), options)
    values = [*report.fields.values(), report.csv_table]
    for table in [value for value in values if isinstance(value, cli.Table)]:
        assert len(table.columns) == len(table.header)
        assert {len(column) for column in table.columns} == {len(table.columns[0])}
        assert {type(value) for column in table.columns for value in column} <= {
            float, int, bool, str
        }
