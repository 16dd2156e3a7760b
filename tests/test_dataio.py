"""Tests for CSV parsing, report serialization and the config hash.

Covers:
- each refusal of the returns and external-weights readers, by its whole
  located message: one row of ``_REFUSED_FILES`` under the test id the
  case has always had
- the bulk returns parser agreeing with the strict row parser, also on
  chunk edges, with CRLF line ends and on a file whose row count changed
  after it was counted, and the working set of both
- the external-weights reader skipping comments, and its round trip with
  the writer
- metadata hashing determinism
"""

from datetime import date, timedelta
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import table_tests, tracemalloc_peak
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmvshrink import dataio
from gmvshrink.dataio import (
    DataFileError,
    _parse_strict,
    config_hash,
    read_external_weights,
    read_returns_csv,
    write_wealth_csv,
    write_weights_csv,
)

GOOD_CSV = """date,aaa,bbb
2021-03-01,0.01,-0.02
2021-03-02,0.005,0.0
2021-03-04,-0.01,0.03
"""


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# read_returns_csv
# ---------------------------------------------------------------------------


def test_read_returns_happy_path(tmp_path):
    dates, names, values = read_returns_csv(_write(tmp_path, GOOD_CSV))
    assert names == ["aaa", "bbb"]
    assert dates[0] == date(2021, 3, 1)
    assert dates[-1] == date(2021, 3, 4)  # gaps in the calendar are fine
    assert values.shape == (2, 3)
    np.testing.assert_allclose(values[:, 0], [0.01, -0.02])


#: replacements for one value cell; the strict parser accepts some of them
ODD_CELLS = (
    " 0.25 ", "\t0.25", "", "   ", "1_0", "1e-3", "nan", "inf", "-Infinity", "#0.1", "0x1p3",
    "0.25\x1c",  # float() rejects it, loadtxt strips it as whitespace
)

MUTATIONS = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("quote"), st.integers(0, 99), st.integers(0, 99)),
    st.just(("crlf",)),
    st.tuples(st.just("blank"), st.integers(1, 99)),
    st.just(("trailing-blank",)),
    st.just(("bom",)),
    st.tuples(st.just("cell"), st.integers(1, 99), st.integers(1, 99), st.sampled_from(ODD_CELLS)),
    st.tuples(st.just("ragged"), st.integers(1, 99), st.booleans()),
    st.tuples(st.just("date"), st.integers(1, 99), st.sampled_from(("2021-02-30", "03/01/2021", "repeat"))),
)


def _mutated_text(rows, mutations):
    """Serialize header-first ``rows`` after applying ``mutations``."""
    rows = [list(row) for row in rows]
    quoted = set()
    blank_before = set()
    ending, prefix, tail = "\n", "", ""
    for kind, *args in mutations:
        if kind == "quote":
            row = args[0] % len(rows)
            quoted.add((row, args[1] % len(rows[row])))
        elif kind == "crlf":
            ending = "\r\n"
        elif kind == "blank":
            blank_before.add(1 + args[0] % (len(rows) - 1))
        elif kind == "trailing-blank":
            tail = ending
        elif kind == "bom":
            prefix = "\ufeff"
        elif kind == "cell":
            row = rows[1 + args[0] % (len(rows) - 1)]
            if len(row) > 1:
                row[1 + args[1] % (len(row) - 1)] = args[2]
        elif kind == "ragged":
            row = rows[1 + args[0] % (len(rows) - 1)]
            if args[1]:
                row.append("0.5")
            elif len(row) > 1:
                row.pop()
        elif kind == "date" and args[1] != "repeat":
            rows[1 + args[0] % (len(rows) - 1)][0] = args[1]
        elif kind == "date" and len(rows) > 2:
            row = 2 + args[0] % (len(rows) - 2)
            rows[row][0] = rows[row - 1][0]
    lines = []
    for i, row in enumerate(rows):
        if i in blank_before:
            lines.append("")
        lines.append(",".join(f'"{c}"' if (i, j) in quoted else c for j, c in enumerate(row)))
    return prefix + ending.join(lines) + ending + tail


@settings(database=None, derandomize=True, deadline=None, max_examples=400)
@given(
    p=st.integers(1, 4),
    values=st.lists(
        st.lists(st.floats(-0.5, 0.5, allow_subnormal=False), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    ),
    style=st.sampled_from(("{!r}", "{:.6f}", "{:.3e}", "{:g}")),
    gaps=st.lists(st.integers(1, 40), min_size=6, max_size=6),
    mutations=st.lists(MUTATIONS, min_size=1, max_size=3),
)
# one asset and an empty cell: the line's value text is empty, which
# loadtxt skips as a blank line instead of failing on it
@example(p=1, values=[[0.1] * 4] * 3, style="{!r}", gaps=[1] * 6, mutations=[("cell", 2, 1, "")])
def test_bulk_parser_matches_strict_parser(tmp_path_factory, p, values, style, gaps, mutations):
    """Same dates, names and array bits and layout, or the same error."""
    day = date(2021, 3, 1)
    rows = [["date"] + [f"a{j}" for j in range(p)]]
    for row, gap in zip(values, gaps):
        day += timedelta(days=gap)
        rows.append([day.isoformat()] + [style.format(v) for v in row[:p]])
    path = tmp_path_factory.mktemp("equiv") / "r.csv"
    path.write_bytes(_mutated_text(rows, mutations).encode("utf-8"))

    try:
        with dataio._open_in(path) as handle:
            expected = _parse_strict(path, handle)
    except DataFileError as exc:
        expected = exc
    # a chunk ends on the line that reaches its byte bound: one byte gives
    # one line per chunk, putting every mutation on a chunk edge, and the
    # longest row's length gives chunks of two lines (or more, where rows
    # are short beside it)
    longest = max(map(len, path.read_bytes().splitlines(keepends=True)[1:]), default=1)
    for chunk_bytes in (dataio._CHUNK_BYTES, 1, longest):
        with mock.patch.object(dataio, "_CHUNK_BYTES", chunk_bytes):
            if isinstance(expected, DataFileError):
                with pytest.raises(DataFileError) as info:
                    read_returns_csv(path)
                assert str(info.value) == str(expected)
                continue
            dates, names, got = read_returns_csv(path)
        assert dates == expected[0]
        assert names == expected[1]
        assert got.dtype == expected[2].dtype == np.float64
        assert got.shape == expected[2].shape
        assert got.strides == expected[2].strides
        assert got.tobytes(order="A") == expected[2].tobytes(order="A")


@pytest.mark.parametrize(
    "text",
    [
        "date,a\rb,c\n2021-01-01,0.1,0.2\n",
        "date,a,b\n2021-01-01,0.1\r,0.2\n2021-01-02,0.3,0.4\n",
        "date,a,b\r\n2021-01-01,0.1,0.2\r\r\n2021-01-02,0.3,0.4\r\n",
    ],
    ids=["cr-in-header", "cr-in-row", "cr-cr-lf"],
)
def test_lone_carriage_return_goes_to_the_strict_parser(tmp_path, text):
    """A carriage return is a line end to the csv module, so the bulk path
    admits one only right before a newline."""
    path = tmp_path / "r.csv"
    path.write_bytes(text.encode())
    with open(path, "rb") as handle:
        assert dataio._parse_bulk(str(path), handle) is None
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            expected = _parse_strict(path, handle)
    except DataFileError as exc:
        with pytest.raises(DataFileError) as info:
            read_returns_csv(path)
        assert str(info.value) == str(exc)
    else:
        dates, names, got = read_returns_csv(path)
        assert (dates, names) == expected[:2]
        assert got.tobytes() == expected[2].tobytes()


def _write_returns_file(path, assets, days, seed=5):
    """A plain returns file of ``assets`` x ``days`` cells, LF line ends."""
    values = 0.01 * np.random.default_rng(seed).standard_normal((days, assets))
    day = date(2000, 1, 3)
    lines = ["date," + ",".join(f"a{j}" for j in range(assets))]
    for i, row in enumerate(values.tolist()):
        cells = ",".join(["%.8f" % v for v in row])
        lines.append(f"{(day + timedelta(days=i)).isoformat()},{cells}")
    path.write_bytes(("\n".join(lines) + "\n").encode())
    return path


def test_read_returns_working_set_stays_near_the_result(tmp_path):
    """Ingest holds the result and one chunk of text, not the whole
    file's text, lines and cells at once."""
    path = _write_returns_file(tmp_path / "r.csv", 25, 20_000)
    (_, _, got), peak = tracemalloc_peak(read_returns_csv, path)
    assert got.shape == (25, 20_000)
    assert got.flags["C_CONTIGUOUS"]
    assert peak < 3 * got.nbytes


def test_read_returns_working_set_of_a_wide_file(tmp_path):
    """A chunk is bounded in bytes, so a wide file's chunk stays small
    beside the result; the result is filled in place, not concatenated."""
    path = _write_returns_file(tmp_path / "r.csv", 200, 2_000)
    (_, _, got), peak = tracemalloc_peak(read_returns_csv, path)
    assert got.shape == (200, 2_000)
    assert got.flags["C_CONTIGUOUS"]
    assert peak < 1.5 * got.nbytes


def test_crlf_file_takes_the_bulk_path(tmp_path):
    """CRLF line ends read like LF ones, without the strict parser."""
    lf_path = _write_returns_file(tmp_path / "lf.csv", 25, 10_000)
    crlf_path = tmp_path / "crlf.csv"
    crlf_path.write_bytes(lf_path.read_bytes().replace(b"\n", b"\r\n"))
    with open(crlf_path, "rb") as handle:
        assert dataio._parse_bulk(str(crlf_path), handle) is not None
    expected = read_returns_csv(lf_path)
    with mock.patch.object(dataio, "_parse_strict", side_effect=AssertionError("strict path")):
        (dates, names, got), peak = tracemalloc_peak(read_returns_csv, crlf_path)
    assert dates == expected[0]
    assert names == expected[1]
    assert got.strides == expected[2].strides
    assert got.tobytes() == expected[2].tobytes()
    assert peak < 2 * got.nbytes


@pytest.mark.parametrize("offset", [-1, 1, -300, 5])
def test_bulk_parser_refuses_a_file_whose_row_count_changed(offset):
    """A file that gains or loses rows between the row count and the parse
    goes to the strict parser, which reads it like an unchanged file. Fewer
    rows than counted fail the ``done != rows`` check, more rows than
    counted the chunk's ``stop > out.shape[1]`` check."""
    path = str(Path(__file__).parent / "golden" / "returns.csv")
    expected = read_returns_csv(path)
    true_count = dataio._count_rows
    with mock.patch.object(dataio, "_count_rows", lambda handle: true_count(handle) + offset):
        with open(path, "rb") as handle:
            assert dataio._parse_bulk(path, handle) is None
        dates, names, got = read_returns_csv(path)
    assert (dates, names) == expected[:2]
    assert got.flags["C_CONTIGUOUS"]
    assert got.tobytes() == expected[2].tobytes()


@pytest.mark.parametrize(
    ("assets", "days", "bound"), [(25, 2_000, 3.5), (200, 2_000, 2.5)], ids=["25x2000", "200x2000"]
)
def test_strict_parser_holds_one_flat_buffer(tmp_path, assets, days, bound):
    """A quoted CRLF file goes to the strict parser, which appends its cells
    to one float64 buffer, not to one list of floats per row, and copies its
    transpose into the result: about twice the result at the peak."""
    lf_path = _write_returns_file(tmp_path / "lf.csv", assets, days)
    quoted_path = tmp_path / "quoted.csv"
    quoted_path.write_bytes(
        b"".join(
            b",".join(b'"' + cell + b'"' for cell in line.split(b",")) + b"\r\n"
            for line in lf_path.read_bytes().splitlines()
        )
    )
    with open(quoted_path, "rb") as handle:
        assert dataio._parse_bulk(str(quoted_path), handle) is None
    expected = read_returns_csv(lf_path)
    (dates, names, got), peak = tracemalloc_peak(read_returns_csv, quoted_path)
    assert (dates, names) == expected[:2]
    assert got.flags["C_CONTIGUOUS"]
    assert got.tobytes() == expected[2].tobytes()
    assert peak < bound * got.nbytes


# ---------------------------------------------------------------------------
# external weights
# ---------------------------------------------------------------------------


def _check_weights_roundtrip(tmp_path, names):
    history = [np.array([0.6, 0.4, 0.0]), np.array([-0.1, 0.55, 0.55])]
    path = tmp_path / "w.csv"
    write_weights_csv(history, names, str(path), {"note": "test"})
    loaded = read_external_weights(str(path), asset_names=names)
    assert len(loaded) == 2
    for got, expected in zip(loaded, history):
        np.testing.assert_allclose(got, expected, rtol=1e-11)


def test_weights_roundtrip(tmp_path):
    _check_weights_roundtrip(tmp_path, ["x", "y", "z"])


def test_weights_writer_refuses_a_name_count_other_than_the_length(tmp_path):
    with pytest.raises(DataFileError, match="2 asset names for weight vectors of length 3"):
        write_weights_csv([np.ones(3) / 3], ["x", "y"], str(tmp_path / "w.csv"), {})


@pytest.mark.parametrize(
    "names",
    [["x,y", "b", "c"], ['say "hi"', "b", "c"], ["a\n#b", "c", "d"]],
    ids=["comma", "quote", "hash-line"],
)
def test_weights_roundtrip_quoted_names(tmp_path, names):
    _check_weights_roundtrip(tmp_path, names)


def test_external_weights_reader_skips_comments(tmp_path):
    text = "# anything\nperiod,x,y\n1,0.5,0.5\n"
    path = _write(tmp_path, text, name="w.csv")
    loaded = read_external_weights(str(path), ["x", "y"])
    np.testing.assert_allclose(loaded[0], [0.5, 0.5])


# ---------------------------------------------------------------------------
# refusals of both readers
# ---------------------------------------------------------------------------


def _refused_file(capsys, tmp_path, reader, text, message):
    """``reader`` refuses a file holding ``text`` with exactly ``message``."""
    path = _write(tmp_path, text)
    with pytest.raises(DataFileError) as info:
        reader(str(path))
    assert str(info.value) == message.format(path=path)


#: ``read_external_weights`` expecting the asset columns x and y
_READ_XY = partial(read_external_weights, asset_names=["x", "y"])

#: Files the readers refuse: (test id, reader, file text, whole message)
_REFUSED_FILES = [
    ("test_read_returns_rejects_bad_header", read_returns_csv, "day,aaa\n2021-03-01,0.01\n",
     "{path}, line 1: first header column must be 'date', got 'day'"),
    ("test_read_returns_rejects_duplicate_asset", read_returns_csv,
     "date,aaa,aaa\n2021-03-01,0.01,0.02\n", "{path}, line 1: duplicate asset column 'aaa'"),
    ("test_read_returns_rejects_unsorted_dates", read_returns_csv,
     "date,aaa\n2021-03-02,0.01\n2021-03-01,0.02\n",
     "{path}, line 3, column 'date': dates must be strictly ascending, got 2021-03-01 after "
     "2021-03-02"),
    ("test_read_returns_rejects_malformed_date", read_returns_csv, "date,aaa\n03/01/2021,0.01\n",
     "{path}, line 2, column 'date': not an ISO-8601 date: '03/01/2021'"),
    ("test_read_returns_rejects_ragged_row", read_returns_csv, "date,aaa,bbb\n2021-03-01,0.01\n",
     "{path}, line 2: expected 3 cells, got 2"),
    ("test_read_returns_locates_bad_cell", read_returns_csv,
     "date,aaa,bbb\n2021-03-01,0.01,0.02\n2021-03-02,oops,0.02\n",
     "{path}, line 3, column 'aaa': not a number: 'oops'"),
    ("test_read_returns_rejects_non_finite_cell", read_returns_csv, "date,aaa\n2021-03-01,inf\n",
     "{path}, line 2, column 'aaa': non-finite value 'inf'"),
    ("test_read_returns_rejects_empty_table", read_returns_csv, "date,aaa\n",
     "{path}: no data rows"),
    # the header spans lines 1-2, so the repeated date is on line 4
    ("test_read_returns_counts_file_lines_of_a_quoted_multi_line_cell", read_returns_csv,
     'date,"a\nb",c\n2021-01-01,0.1,0.2\n2021-01-01,0.1,0.2\n',
     "{path}, line 4, column 'date': dates must be strictly ascending, got 2021-01-01 after "
     "2021-01-01"),
    ("test_external_weights_reader_skips_comments_only_before_header", _READ_XY,
     "# a: 1\nperiod,x,y\n# b: 2\n1,0.5,0.5\n", "{path}, line 3: expected 3 cells, got 1"),
    *((f"test_external_weights_reader_locates_bad_cells[{case}]", _READ_XY,
       f"# a: 1\nperiod,x,y\n1,0.5,0.5\n2,0.5,{cell}\n", f"{{path}}, line 4, column 'y': {message}")
      for case, cell, message in [
          ("nan", "nan", "non-finite value 'nan'"),
          ("empty", "", "missing cell"),
          ("text", "x", "not a number: 'x'"),
      ]),
    *(("test_external_weights_reader_checks_asset_names",
       partial(read_external_weights, asset_names=names), "period,x,y\n1,0.5,0.5\n", message)
      for names, message in [
          (["x", "y", "z"], "{path}: expected 3 asset columns, got 2"),
          (["y", "x"], "{path}: header column 2 is 'x', expected 'y' as in the returns file"),
          (["x", "w"], "{path}: header column 3 is 'y', expected 'w' as in the returns file"),
      ]),
    ("test_external_weights_reader_needs_period_header",
     partial(read_external_weights, asset_names=["y"]), "x,y\n0.5,0.5\n",
     "{path}, line 1: first header column must be 'period', got 'x'"),
    # rows are numbered by file line, metadata comment lines included
    *(("test_external_weights_reader_requires_periods_in_order", _READ_XY, text, message)
      for text, message in [
          ("period,x,y\n2,0.5,0.5\n1,0.4,0.6\n",
           "{path}, line 2, column 'period': expected period 1, got '2'"),
          ("period,x,y\n1,0.5,0.5\n3,0.4,0.6\n",
           "{path}, line 3, column 'period': expected period 2, got '3'"),
          ("# a: 1\n# b: 2\nperiod,x,y\n1,0.5,0.5\n3,0.4,0.6\n",
           "{path}, line 5, column 'period': expected period 2, got '3'"),
      ]),
    # comments on lines 1-2, header on lines 3-4, period rows on lines 5-6
    ("test_external_weights_reader_counts_comment_and_multi_line_header_lines",
     partial(read_external_weights, asset_names=["x\ny", "z"]),
     '# a: 1\n# b: 2\nperiod,"x\ny",z\n1,0.5,0.5\n2,0.5,oops\n',
     "{path}, line 6, column 'z': not a number: 'oops'"),
]
globals().update(table_tests(_refused_file, _REFUSED_FILES))


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def test_wealth_and_weights_csv_bytes_are_pinned(tmp_path):
    path = tmp_path / "wealth.csv"
    wealth = (1.0, 1.0125, np.float64(0.98765432109876), 1e-13, -0.5)
    write_wealth_csv(wealth, str(path), {"command": "backtest", "n": "5"})
    assert path.read_bytes() == (
        b"# command: backtest\n# n: 5\n# config-hash: 6198797daef1\nday,wealth\n"
        b"0,1\n1,1.0125\n2,0.987654321099\n3,1e-13\n4,-0.5\n"
    )
    path = tmp_path / "weights.csv"
    history = [np.array([0.6, 0.4, 0.0]), np.array([-0.125, 1 / 3, 0.7916666666666667])]
    write_weights_csv(history, ["x", "y,z", "w"], str(path), {"command": "weights"})
    assert path.read_bytes() == (
        b"# command: weights\n# config-hash: 11ed24d32029\nperiod,x,\"y,z\",w\n"
        b"1,0.6,0.4,0\n2,-0.125,0.333333333333,0.791666666667\n"
    )


# ---------------------------------------------------------------------------
# config hash
# ---------------------------------------------------------------------------


def test_config_hash_is_order_insensitive_and_value_sensitive():
    first = config_hash({"a": "1", "b": "2"})
    second = config_hash({"b": "2", "a": "1"})
    assert first == second
    assert len(first) == 12
    assert config_hash({"a": "1", "b": "3"}) != first
