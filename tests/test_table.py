"""The column-table writer against a row-wise reference renderer.

``reference_csv`` and ``reference_json`` render a list of rows one cell at a
time, as the CLI wrote its tables before they became columns.  Every table
the writer emits, random ones and those of the six commands, must equal
them byte for byte.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourier_minnorm import _decimal, cli
from fourier_minnorm.cli import Column, Table, main, write_table
from fourier_minnorm.interpolation import builtin_targets, sample_axis


def reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def reference_json_value(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def reference_csv(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(reference_cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def reference_json(header, rows) -> bytes:
    payload = {"columns": list(header), "rows": [[reference_json_value(v) for v in row] for row in rows]}
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def expand(values, repeat=1, tile=1) -> list:
    """A column's cells one by one, written out independently of Column."""
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    out = []
    for _ in range(tile):
        for v in values:
            out.extend([v] * repeat)
    return out


def table_rows(table: Table) -> list[list]:
    """A table's rows, each column read as its values at its row index."""
    columns = []
    for column in table.columns:
        values = column.values.tolist() if isinstance(column.values, np.ndarray) else list(column.values)
        if column.empty is not None:  # the masked cells: a float list's None cells, or a given mask
            values = [None if empty else v for v, empty in zip(values, column.empty.tolist())]
        columns.append(values if column.index is None else [values[i] for i in column.index.tolist()])
    return [list(row) for row in zip(*columns)]


def with_kept_cells(table: Table) -> Table:
    """The same rows, every column given a row index, so each is formatted once and its cells kept."""
    return Table([Column(c.values, index=np.arange(len(c)) if c.index is None else c.index, empty=c.empty)
                  for c in table.columns])


CAP = cli._FORMAT_CALL_VALUES  # values per shared formatter call


@pytest.fixture
def formatter_calls(monkeypatch) -> list[int]:
    """The number of values of every call of the float formatter, in order."""
    calls = []
    float_cells = cli._float_cells

    def counting_float_cells(values):
        calls.append(len(values))
        return float_cells(values)

    monkeypatch.setattr(cli, "_float_cells", counting_float_cells)
    return calls


SPECIALS = [
    0.0, -0.0, 0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308, 1 / 3, 0.1,
    None, True, False, 2**70, -(2**63),
    np.int64(-3), np.int32(7), np.uint8(255), np.float64(-0.0), np.float64(math.nan), np.float32(0.1),
    "under", "over_aligned",
]

cells = st.one_of(
    st.sampled_from(SPECIALS),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans(),
    st.none(),
)
finite_or_special = st.one_of(st.floats(allow_subnormal=True), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))


@st.composite
def tables(draw, min_axis=0, max_axis=3):
    """Random tables over an (a, b, c) row grid (constant, axis and per-row columns), and their rows."""
    a, b, c = (draw(st.integers(min_value=min_axis, max_value=max_axis)) for _ in range(3))
    rows = a * b * c

    def per_row(values):
        if rows <= 27:
            return draw(st.lists(values, min_size=rows, max_size=rows))
        # a long column: picks from a short drawn pool, so values repeat too
        pool, rng = draw(st.lists(values, min_size=1, max_size=8)), draw(st.randoms(use_true_random=False))
        return [rng.choice(pool) for _ in range(rows)]

    columns, expected = [], []
    for kind in draw(st.lists(st.sampled_from(
            ["constant", "outer", "middle", "inner", "cells", "floats", "float_array", "int_array", "bool_array"]),
            min_size=1, max_size=8)):
        repeat, tile = 1, 1
        if kind == "constant":
            values, repeat = [draw(cells)], rows
        elif kind == "outer":
            values, repeat = draw(st.lists(cells, min_size=a, max_size=a)), b * c
        elif kind == "middle":
            values, repeat, tile = draw(st.lists(cells, min_size=b, max_size=b)), c, a
        elif kind == "inner":
            values, tile = draw(st.lists(cells, min_size=c, max_size=c)), a * b
        elif kind == "cells":
            values = per_row(cells)
        elif kind == "floats":  # the fast paths: all floats, or floats and None
            pool = st.one_of(finite_or_special, st.none()) if draw(st.booleans()) else finite_or_special
            values = per_row(pool)
        elif kind == "float_array":
            values = np.array(per_row(finite_or_special), dtype=float)
        elif kind == "int_array":
            values = np.array(per_row(st.integers(-(2**63), 2**63 - 1)), dtype=np.int64)
        else:
            values = np.array(per_row(st.booleans()), dtype=bool)
        columns.append(Column(values, repeat=repeat, tile=tile))
        expected.append(expand(values, repeat, tile))
    return Table(columns), [list(row) for row in zip(*expected)]


class TestWriterEquivalence:
    @given(drawn=tables(), fmt=st.sampled_from(["csv", "json"]))
    @settings(max_examples=300, deadline=None)
    def test_random_tables_match_the_row_reference(self, drawn, fmt):
        table, rows = drawn
        header = [f"c{i}" for i in range(len(table.columns))]
        assert len(table) == len(rows)
        expected = reference_csv(header, rows) if fmt == "csv" else reference_json(header, rows)
        with tempfile.TemporaryDirectory() as tmp:
            # twice (the second time from the cells the first kept), then with every column's cells kept
            for name, written in (("first", table), ("again", table), ("kept", with_kept_cells(table))):
                path = Path(tmp) / name
                write_table(path, fmt, header, written)
                assert path.read_bytes() == expected, name

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 512, cli.CSV_CHUNK_ROWS])
    @given(drawn=st.one_of(tables(), tables(min_axis=8, max_axis=12)))  # the second: 512 to 1728 rows
    @settings(max_examples=40, deadline=None)
    def test_random_tables_across_chunk_boundaries(self, chunk_rows, drawn):
        table, rows = drawn
        header = [f"c{i}" for i in range(len(table.columns))]
        expected = reference_csv(header, rows)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
            # per-row floats formatted chunk by chunk, then every column's cells kept and gathered per chunk
            for name, written in (("streamed", table), ("kept", with_kept_cells(table))):
                path = Path(tmp) / name
                write_table(path, "csv", header, written)
                assert path.read_bytes() == expected, name

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, -0.0, -0.0, 0.0, 0.0, -0.0],
            # quiet NaNs of either sign, payloads, a signalling NaN
            np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
                      0xFFFFFFFFFFFFFFFF, 0x7FF8000000000000, 0x7FF8000000000001], dtype=np.uint64).view(float).tolist(),
            [5e-324, -5e-324, 2.2250738585072009e-308, 5e-324, 1e-310, -5e-324, 2.2250738585072014e-308],
            [math.inf, -math.inf, math.inf, 1.0, -math.inf],
            [1 / 3] * 1000,
            [0.1, -0.0, math.nan, 5e-324, math.inf, 0.1, 0.0, -math.inf, 5e-324] * 150,
        ],
        ids=["zeros", "nans", "subnormals", "infinities", "repeated", "mixed"],
    )
    def test_shared_float_columns_with_repeats(self, tmp_path, formatter_calls, values):
        shared = Column.distinct(values)
        # one value per bit pattern: -0.0 apart from 0.0, each NaN payload apart from the others
        assert len(shared.values) == len(set(np.array(values, dtype=np.float64).view(np.int64).tolist()))
        header, rows = ["v", "w"], [[v, i] for i, v in enumerate(values)]
        write_table(tmp_path / "streamed.csv", "csv", header, Table([Column(values), Column(range(len(values)))]))
        formatter_calls.clear()
        for name in ("first.csv", "second.csv"):  # formatted once, read by both
            write_table(tmp_path / name, "csv", header, Table([shared, Column(range(len(values)))]))
        assert formatter_calls == [len(shared.values)]
        for name in ("streamed.csv", "first.csv", "second.csv"):
            assert (tmp_path / name).read_bytes() == reference_csv(header, rows), name
        write_table(tmp_path / "shared.json", "json", header, Table([shared, Column(range(len(values)))]))
        assert (tmp_path / "shared.json").read_bytes() == reference_json(header, rows)

    def test_a_shared_column_is_formatted_once(self, tmp_path, formatter_calls):
        axis, constant = Column(np.linspace(0.0, 1.0, 5), tile=3), Column([0.25], repeat=15)
        for name in ("first.csv", "second.csv"):
            table = Table([axis, Column(np.arange(15.0) / 7), constant])
            write_table(tmp_path / name, "csv", ["x", "y", "z"], table)
        # the per-row column in each file; the axis and the constant once, in the first file's call
        assert formatter_calls == [15 + 5 + 1, 15]
        assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()
        rows = [[x, y, 0.25] for x, y in zip(expand(np.linspace(0.0, 1.0, 5), tile=3), np.arange(15.0) / 7)]
        assert (tmp_path / "first.csv").read_bytes() == reference_csv(["x", "y", "z"], rows)

    def test_per_row_floats_keep_no_cells(self, tmp_path, monkeypatch, formatter_calls):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 4)
        column = Column(np.arange(10.0) / 3)
        for name in ("first.csv", "second.csv"):
            write_table(tmp_path / name, "csv", ["v"], Table([column]))
        assert formatter_calls == [4, 4, 2] * 2  # every chunk formatted again for the second file
        assert not [v for v in vars(column).values() if isinstance(v, np.ndarray) and v.ndim == 2]  # no byte rows

    def test_only_per_row_float_columns_stream(self, tmp_path):
        streamed = [Column(np.arange(3.0)), Column([0.5, None, 1.5])]
        kept = [Column([0.5], repeat=3), Column(np.arange(3.0), tile=1, index=np.array([2, 1, 0])),
                Column.distinct(np.array([0.0, -0.0, 0.0]))]
        text = [Column(range(3)), Column(["a", "b", "c"]), Column([1, 0.5, 2])]
        columns = streamed + kept + text
        # set at construction: a list's None cells become the empty mask
        assert [column.streams for column in columns] == [True] * 2 + [False] * 6
        assert [column.floats for column in columns] == [True] * 5 + [False] * 3
        np.testing.assert_array_equal(streamed[1].empty, [False, True, False])
        header = [f"c{i}" for i in range(len(columns))]
        write_table(tmp_path / "t.json", "json", header, Table(columns))
        assert all(column.cells is None for column in columns)  # formatted by a CSV write only
        write_table(tmp_path / "t.csv", "csv", header, Table(columns))
        assert [column.cells is not None for column in columns] == [False] * 2 + [True] * 6

    @staticmethod
    def _write_per_row_float_columns(tmp_path) -> None:
        """Three per-row float columns (an array, a list with None, an array with None cells) and an int column."""
        values = np.arange(10.0) / 3 - 1
        listed = [None if i % 4 == 0 else -v for i, v in enumerate(values.tolist())]
        empty = np.arange(10) % 3 == 0
        columns = [Column(values), Column(range(10)), Column(listed), Column(values * 7, empty=empty)]
        header = ["a", "b", "c", "d"]
        rows = [[a, b, c, None if e else d] for a, b, c, d, e in zip(values, range(10), listed, values * 7, empty)]
        write_table(tmp_path / "t.csv", "csv", header, Table(columns))
        assert (tmp_path / "t.csv").read_bytes() == reference_csv(header, rows)
        write_table(tmp_path / "t.json", "json", header, Table(columns))
        assert (tmp_path / "t.json").read_bytes() == reference_json(header, rows)

    @pytest.mark.parametrize("chunk_rows, calls", [(None, [30]), (8, [24, 6]), (3, [9, 9, 9, 3])])
    def test_per_row_float_columns_share_formatter_calls(self, tmp_path, monkeypatch, formatter_calls, chunk_rows,
                                                         calls):
        # a chunk's per-row float columns share one call when they fit in cli._FORMAT_CALL_VALUES values
        if chunk_rows is not None:
            monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        self._write_per_row_float_columns(tmp_path)
        assert formatter_calls == calls

    @pytest.mark.parametrize(
        "chunk_rows, cap, calls",
        [
            (8, 16, [16, 8, 6]),  # two columns of 8 rows fill a call of 16 values
            (3, 8, [6, 3] * 3 + [3]),
            (3, 3, [3] * 9 + [3]),  # one call per column, until the last chunk's three values fit in one
        ],
    )
    def test_per_row_float_columns_split_at_the_cap(self, tmp_path, monkeypatch, formatter_calls, chunk_rows, cap,
                                                    calls):
        # consecutive columns share a call up to the cap, in column order
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(cli, "_FORMAT_CALL_VALUES", cap)
        self._write_per_row_float_columns(tmp_path)
        assert formatter_calls == calls

    @pytest.mark.parametrize(
        "sizes, calls",
        [
            ([CAP - 1, 1], [CAP]),
            ([CAP, 1], [CAP, 1]),
            ([1, CAP], [1, CAP]),
            ([CAP + 1], [CAP + 1]),  # an array is never split
            ([1, 2, CAP - 3, 5], [CAP, 5]),
        ],
    )
    def test_shared_calls_split_at_the_cap(self, formatter_calls, sizes, calls):
        rng = np.random.default_rng(sum(sizes))
        arrays = [10.0 ** rng.uniform(-13, 18, size) * rng.choice([-1.0, 1.0], size) for size in sizes]
        cells = cli._shared_float_cells(arrays)
        assert formatter_calls == calls
        assert [formatted_rows(rows) for rows in cells] == [percent_17g(values) for values in arrays]

    @pytest.mark.parametrize(
        "n, calls, vectorised",
        [
            (16, [2 * 1659 + 2 * 21], [True]),  # 1,659 rows: risk, log10_risk, r and q (21 values each) in one call
            (128, [2 * 2048, 2 * 21, 2 * 787], [True, False, True]),  # r and q do not fit the first chunk's call
        ],
    )
    def test_a_heatmap_makes_one_vectorised_call_per_chunk(self, tmp_path, formatter_calls, n, calls, vectorised):
        r_values = ",".join(f"{0.1 * i:.1f}" for i in range(21))
        argv = ["heatmap", "-D", "1024", "-n", str(n), "--r-values", r_values, "--out", str(tmp_path / "hm.csv")]
        assert main(argv) == 0
        assert formatter_calls == calls
        assert [size >= _decimal._VECTOR_MIN for size in calls] == vectorised  # below it, the % route

    @pytest.mark.parametrize(
        "values, cells",
        [
            # all floats, floats and None, anything else: one renderer each
            ([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324], ["-0", "0", "nan", "inf", "-inf", "4.9406564584124654e-324"]),
            ([-0.0, None, math.nan, 0.1], ["-0", "", "nan", "0.10000000000000001"]),
            ([-0.0, None, True, False, np.int64(-4), 2**70, np.float64(-0.0), "over_general"],
             ["-0", "", "true", "false", "-4", "1180591620717411303424", "-0", "over_general"]),
        ],
    )
    def test_cell_rules(self, tmp_path, values, cells):
        write_table(tmp_path / "t.csv", "csv", ["v"], Table([Column(values)]))
        assert (tmp_path / "t.csv").read_text() == "\n".join(["v", *cells]) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("tile", [1, 2])
    @pytest.mark.parametrize(
        "values, empty",
        [([1, 2], [True, False]), (["ab", "c"], [False, True]), ([7, "x"], [True, True])],
    )
    def test_masked_text_cells_are_empty_in_both_formats(self, tmp_path, fmt, tile, values, empty):
        # a non-float column with an empty mask: its masked cells are empty in CSV and null in JSON
        table = Table([Column(values, tile=tile, empty=np.array(empty)), Column([0.5, 1.5], tile=tile)])
        rows = [[None if hidden else value, x] for _ in range(tile) for value, hidden, x in zip(values, empty, [0.5, 1.5])]
        write_table(tmp_path / "t", fmt, ["v", "x"], table)
        expected = (reference_csv if fmt == "csv" else reference_json)(["v", "x"], rows)
        assert (tmp_path / "t").read_bytes() == expected

    def test_bool_array_renders_as_bools(self, tmp_path):
        write_table(tmp_path / "t.csv", "csv", ["v"], Table([Column(np.array([True, False]))]))
        assert (tmp_path / "t.csv").read_text() == "v\ntrue\nfalse\n"

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            Table([Column([1.0, 2.0]), Column([3], repeat=3)])


def formatted_rows(rows: np.ndarray) -> list[str]:
    """Formatter rows as text: each byte row with its NUL padding deleted."""
    return [row.tobytes().translate(None, b"\0").decode() for row in rows]


def formatted(values) -> list[str]:
    """The formatter's cells as text."""
    return formatted_rows(cli._float_cells(np.asarray(values, dtype=np.float64)))


def percent_17g(values) -> list[str]:
    return ["%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


POWERS = 10.0 ** np.arange(-330, 309)  # 0 below the subnormals, exact decades up to 1e22, then the nearest doubles


# Array sizes at the formatter's routes: below _VECTOR_MIN values Python's % formats the array,
# and the writer shares calls of up to _FORMAT_CALL_VALUES values
ROUTE_SIZES = [1, _decimal._VECTOR_MIN - 1, _decimal._VECTOR_MIN, CAP - 1, CAP, CAP + 1]


class TestFloatCells:
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_any_bit_pattern(self, words):
        # NaN payloads of either sign, subnormals, +-0, +-inf and every finite double
        values = np.array(words, dtype=np.uint64).view(np.float64)
        assert formatted(values) == percent_17g(values)

    @pytest.mark.parametrize("size", ROUTE_SIZES)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_any_bit_pattern_at_the_route_sizes(self, size, words):
        # the drawn values tiled to the size: whole arrays through %, then through the vectorised path
        values = np.resize(np.array(words, dtype=np.uint64).view(np.float64), size)
        assert formatted(values) == percent_17g(values)

    @pytest.mark.parametrize("size", ROUTE_SIZES)
    def test_fast_and_percent_values_mixed(self, size):
        # every third value outside the exact range: zeros, non-finite, subnormal, huge and tiny
        rng = np.random.default_rng(size)
        values = 10.0 ** rng.uniform(-11, 17, size) * rng.choice([-1.0, 1.0], size)
        others = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308,
                           1.7976931348623157e308, 1e-300, -1e200, 1e-12, 1e17])
        values[::3] = np.resize(others, len(values[::3]))
        assert formatted(values) == percent_17g(values)

    @pytest.mark.parametrize("side", [-np.inf, None, np.inf], ids=["below", "at", "above"])
    def test_powers_of_ten_and_their_neighbours(self, side):
        values = POWERS if side is None else np.nextafter(POWERS, side)
        values = np.concatenate([values, -values])
        assert formatted(values) == percent_17g(values)

    def test_edges_of_the_exact_range(self):
        edges = np.array([1e-11, 1e-10, 1e-5, 1e-4, 1.0, 1e16, 1e17, 2.0**-37, 2.0**57, 99999999999999999.0,
                          9999999999999999.0, 0.000099999999999999991, 0.099999999999999992])
        values = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
        values = np.concatenate([values, -values])
        assert formatted(values) == percent_17g(values)

    def test_exact_ties_round_half_even(self):
        assert formatted([1000000000000000.25, 1000000000000000.75]) == ["1000000000000000.2", "1000000000000000.8"]
        j = np.arange(2 * 10**15, 2 * 10**15 + 4000, dtype=np.float64)
        values = np.concatenate([(2 * j + 1) / 4, (2 * j + 1) / 2 ** 12, (2 * j + 1) * 2.0 ** -60])
        assert formatted(values) == percent_17g(values)

    def test_magnitudes_across_the_decades(self):
        rng = np.random.default_rng(14)
        values = 10.0 ** rng.uniform(-13, 18, 20000) * rng.choice([-1.0, 1.0], 20000)
        values = np.concatenate([values, np.round(values, 3), np.trunc(values), rng.integers(-10**17, 10**17, 2000)])
        assert formatted(values) == percent_17g(values)

    def test_empty(self):
        assert cli._float_cells(np.array([])).shape[0] == 0

    def test_fast_path_cells_leave_the_last_byte_free(self):
        # the widest fast-path texts: a negative 0.000ddd and d.ddde-XX with 17 digits
        rng = np.random.default_rng(16)
        values = -(10.0 ** rng.uniform(-11, 17, 20000))
        values = np.concatenate([values, [-0.00012345678901234567, -1.2345678901234567e-11, -1234567890123456.7]])
        rows = cli._float_cells(values)
        assert rows.shape == (len(values), 24)
        assert not rows[:, -1].any()
        assert max(map(len, formatted(values))) == 23

    @pytest.mark.parametrize("chunk_rows", [1, 3, cli.CSV_CHUNK_ROWS])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_widest_cells_in_shared_and_streamed_columns(self, chunk_rows, data):
        widest = [-4.9406564584124654e-324, -2.2250738585072014e-308, -1.7976931348623157e308]
        assert [len(reference_cell(v)) for v in widest] == [24, 24, 24]
        floats = st.one_of(st.sampled_from(widest), st.floats(allow_subnormal=True),
                           st.floats(-1e17, 1e17).filter(lambda v: abs(v) >= 1e-11))
        pool = data.draw(st.lists(floats, min_size=1, max_size=8))
        tiles = data.draw(st.integers(1, 6))
        rows = len(pool) * tiles
        pick = lambda values: data.draw(st.lists(values, min_size=rows, max_size=rows))  # noqa: E731
        columns = [
            Column(np.array(pick(st.sampled_from(pool)))),  # per-row floats: streamed
            Column(pick(st.one_of(st.sampled_from(pool), st.none()))),  # floats and None: streamed
            Column(pool, tile=tiles),  # a float axis: formatted once
            Column(pick(st.one_of(st.sampled_from(pool), st.integers(), st.none(), st.sampled_from(["under", ""])))),
        ]
        header = ["a", "b", "c", "d"]
        expected = reference_csv(header, table_rows(Table(columns)))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
            # then every column's cells kept, as the cells of an axis or a shared column are
            for name, table in (("streamed", Table(columns)), ("kept", with_kept_cells(Table(columns)))):
                path = Path(tmp) / name
                write_table(path, "csv", header, table)
                assert path.read_bytes() == expected, name

    @pytest.mark.parametrize("chunk_rows", [1, 3, cli.CSV_CHUNK_ROWS])
    def test_float_columns_with_none(self, tmp_path, chunk_rows, monkeypatch):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        cells = [0.5, None, -0.0, None, math.nan, 1e-300, None, 123456789.0, -math.inf]
        columns = [
            Column(cells * 3),  # per-row: formatted chunk by chunk
            Column(cells, tile=3),  # tiled: formatted once
            Column([None] * 27),
            Column(np.arange(27.0) - 13.5),
        ]
        header = ["a", "b", "c", "d"]
        expected = reference_csv(header, table_rows(Table(columns)))
        for name, table in (("streamed.csv", Table(columns)), ("kept.csv", with_kept_cells(Table(columns)))):
            write_table(tmp_path / name, "csv", header, table)
            assert (tmp_path / name).read_bytes() == expected, name


def _samples_file(tmp_path) -> Path:
    x = sample_axis(8)
    y = np.random.default_rng(4).standard_normal(8)
    path = tmp_path / "samples.csv"
    path.write_text("\n".join(["x0,y"] + [f"{a:.17g},{b:.17g}" for a, b in zip(x, y)]) + "\n", encoding="utf-8")
    return path


COMMANDS = {
    "risk-curve": ["risk-curve", "-D", "48", "-n", "6", "--r-values", "0.5,1.0", "--q-values", "0,1.5",
                   "--p-values", "1,5,6,7,12,30,48"],
    "mc-risk": ["mc-risk", "-D", "16", "-n", "4", "--r-values", "1.0", "--q-values", "0,1",
                "--p-values", "2,4,6,16", "--trials", "5", "--seed", "3"],
    # n = D: the p = 8 risk is 0, so its log10_risk cell is empty
    "heatmap": ["heatmap", "-D", "8", "-n", "8", "--r-values", "0.0,1.0", "--q-rule", "fixed", "--q-fixed", "0"],
    "bound-check": ["bound-check", "--n-values", "4,8", "--r-values", "0.4,1.0", "--l-values", "1,2",
                    "--tau-multipliers", "2"],
    "concentration": ["concentration", "-D", "64", "-n", "8", "-p", "16", "--r", "1.0", "--q", "1.0",
                      "--trials", "50", "--t-multipliers", "0,0.5,2"],
    "interp-1d": ["interp", "--target", "cubic1d", "--n-axis", "15", "--p-axis", "30", "--d-axis", "100",
                  "--q", "1", "--eval-points", "7", "--methods", "weighted-min-norm,plain-min-norm"],
    "interp-2d": ["interp", "--target", "cos2d", "--n-axis", "4", "--p-axis", "5", "--d-axis", "20",
                  "--q", "2", "--eval-points", "5"],
    "interp-samples": ["interp", "--n-axis", "8", "--p-axis", "16", "--d-axis", "16",
                       "--q", "1", "--eval-points", "6"],
}


class TestCommandsMatchTheRowReference:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_every_table_file(self, tmp_path, monkeypatch, name, fmt):
        written = []

        def recording_write_table(path, fmt_, header, table):
            written.append((Path(path), list(header), table))
            write_table(path, fmt_, header, table)

        monkeypatch.setattr(cli, "write_table", recording_write_table)
        argv = COMMANDS[name] + ["--out", str(tmp_path / "out"), "--format", fmt]
        if name == "interp-samples":
            argv += ["--samples-file", str(_samples_file(tmp_path))]
        assert main(argv) == 0
        assert written
        for path, header, table in written:
            rows = table_rows(table)
            assert len(table) == len(rows) > 0
            expected = reference_csv(header, rows) if fmt == "csv" else reference_json(header, rows)
            assert path.read_bytes() == expected, path.name

    def test_interp_methods_share_the_coordinate_and_truth_cells(self, tmp_path, monkeypatch, formatter_calls):
        tables, calls = [], []

        def recording_write_table(path, fmt, header, table):
            tables.append(table)
            formatter_calls.clear()
            write_table(path, fmt, header, table)
            calls.append(list(formatter_calls))

        monkeypatch.setattr(cli, "write_table", recording_write_table)
        assert main(COMMANDS["interp-2d"] + ["--out", str(tmp_path / "out")]) == 0
        first, second = tables
        assert [id(c) for c in first.columns[:3]] == [id(c) for c in second.columns[:3]]
        assert first.columns[3] is not second.columns[3]
        # the first method's file formats f_hat, x0, x1 and f_true's distinct values in one call;
        # the second only its f_hat
        assert calls == [[25 + 5 + 5 + len(first.columns[2].values)], [25]]

    def test_a_failure_mid_stream_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        # 2-D, 101 x 101 evaluation points: 10,201 rows, 5 chunks per method file
        argv = ["interp", "--target", "cos2d", "--n-axis", "8", "--p-axis", "17", "--d-axis", "40", "--q", "2",
                "--eval-points", "101", "--out", str(tmp_path / "out")]
        first_file, calls, open_at_chunk = tmp_path / "out.weighted-min-norm.csv", [], []
        float_cells = cli._float_cells

        def failing_float_cells(values):
            calls.append(len(values))
            if len(calls) > 1:  # an f_hat chunk after the first, which shares its call with x0, x1 and f_true
                open_at_chunk.append(first_file.exists())
                if len(open_at_chunk) == 2:
                    raise MemoryError
            return float_cells(values)

        monkeypatch.setattr(cli, "_float_cells", failing_float_cells)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert open_at_chunk == [True, True]  # the file was already open when the second chunk failed
        assert calls[0] > cli.CSV_CHUNK_ROWS and calls[1:] == [cli.CSV_CHUNK_ROWS] * 2
        assert not list(tmp_path.glob("out.*.csv"))

    def test_interp_coordinates_follow_the_row_major_grid(self, tmp_path):
        assert main(COMMANDS["interp-2d"] + ["--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out.weighted-min-norm.csv").read_text().splitlines()[1:]
        axis = sample_axis(5, builtin_targets("cos2d").domain)
        mesh = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        assert [tuple(map(float, line.split(",")[:2])) for line in lines] == [tuple(x) for x in mesh.tolist()]
