"""Tests for CSV parsing, report serialization and the config hash.

Covers:
- strict returns-CSV validation with located error messages
- the external-weights reader and its round trip with the writer
- metadata hashing determinism
"""

from datetime import date

import numpy as np
import pytest

from gmvshrink.dataio import (
    DataFileError,
    config_hash,
    read_external_weights,
    read_returns_csv,
    write_weights_csv,
)

GOOD_CSV = """date,aaa,bbb
2021-03-01,0.01,-0.02
2021-03-02,0.005,0.0
2021-03-04,-0.01,0.03
"""


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
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


def test_read_returns_rejects_bad_header(tmp_path):
    path = _write(tmp_path, "day,aaa\n2021-03-01,0.01\n")
    with pytest.raises(DataFileError, match="'date'"):
        read_returns_csv(path)


def test_read_returns_rejects_duplicate_asset(tmp_path):
    path = _write(tmp_path, "date,aaa,aaa\n2021-03-01,0.01,0.02\n")
    with pytest.raises(DataFileError, match="duplicate"):
        read_returns_csv(path)


def test_read_returns_rejects_unsorted_dates(tmp_path):
    text = "date,aaa\n2021-03-02,0.01\n2021-03-01,0.02\n"
    with pytest.raises(DataFileError, match="ascending"):
        read_returns_csv(_write(tmp_path, text))


def test_read_returns_rejects_malformed_date(tmp_path):
    text = "date,aaa\n03/01/2021,0.01\n"
    with pytest.raises(DataFileError, match="ISO-8601"):
        read_returns_csv(_write(tmp_path, text))


def test_read_returns_rejects_ragged_row(tmp_path):
    text = "date,aaa,bbb\n2021-03-01,0.01\n"
    with pytest.raises(DataFileError, match="line 2"):
        read_returns_csv(_write(tmp_path, text))


def test_read_returns_locates_bad_cell(tmp_path):
    text = "date,aaa,bbb\n2021-03-01,0.01,0.02\n2021-03-02,oops,0.02\n"
    with pytest.raises(DataFileError, match="line 3, column 'aaa'"):
        read_returns_csv(_write(tmp_path, text))


def test_read_returns_rejects_non_finite_cell(tmp_path):
    text = "date,aaa\n2021-03-01,inf\n"
    with pytest.raises(DataFileError, match="non-finite"):
        read_returns_csv(_write(tmp_path, text))


def test_read_returns_rejects_empty_table(tmp_path):
    with pytest.raises(DataFileError, match="no data rows"):
        read_returns_csv(_write(tmp_path, "date,aaa\n"))


# ---------------------------------------------------------------------------
# external weights
# ---------------------------------------------------------------------------


def test_weights_roundtrip(tmp_path):
    history = [np.array([0.6, 0.4, 0.0]), np.array([-0.1, 0.55, 0.55])]
    path = tmp_path / "w.csv"
    write_weights_csv(history, ["x", "y", "z"], str(path), {"note": "test"})
    loaded = read_external_weights(str(path), n_assets=3)
    assert len(loaded) == 2
    for got, expected in zip(loaded, history):
        np.testing.assert_allclose(got, expected, rtol=1e-11)


def test_external_weights_reader_skips_comments(tmp_path):
    text = "# anything\nperiod,x,y\n1,0.5,0.5\n"
    path = _write(tmp_path, text, name="w.csv")
    loaded = read_external_weights(str(path))
    np.testing.assert_allclose(loaded[0], [0.5, 0.5])


def test_external_weights_reader_checks_width(tmp_path):
    text = "period,x,y\n1,0.5,0.5\n"
    path = _write(tmp_path, text, name="w.csv")
    with pytest.raises(DataFileError, match="expected 3 asset columns"):
        read_external_weights(str(path), n_assets=3)


def test_external_weights_reader_needs_period_header(tmp_path):
    path = _write(tmp_path, "x,y\n0.5,0.5\n", name="w.csv")
    with pytest.raises(DataFileError, match="'period'"):
        read_external_weights(str(path))


def test_external_weights_reader_requires_periods_in_order(tmp_path):
    path = _write(tmp_path, "period,x,y\n2,0.5,0.5\n1,0.4,0.6\n", name="w.csv")
    with pytest.raises(DataFileError, match="row 2: expected period 1, got '2'"):
        read_external_weights(str(path))
    path = _write(tmp_path, "period,x,y\n1,0.5,0.5\n3,0.4,0.6\n", name="w.csv")
    with pytest.raises(DataFileError, match="row 3: expected period 2, got '3'"):
        read_external_weights(str(path))


# ---------------------------------------------------------------------------
# config hash
# ---------------------------------------------------------------------------


def test_config_hash_is_order_insensitive_and_value_sensitive():
    first = config_hash({"a": "1", "b": "2"})
    second = config_hash({"b": "2", "a": "1"})
    assert first == second
    assert len(first) == 12
    assert config_hash({"a": "1", "b": "3"}) != first
