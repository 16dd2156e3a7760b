"""File formats: returns ingestion and report serialization.

Input is a returns CSV with a header row, a leading ISO-8601 ``date``
column and one column per asset; cells are simple returns as decimal
fractions. Ingestion is strict: a malformed or missing cell fails with
its row and column named, never imputed.

Outputs are deterministic text formats built for diffing: a loss table
CSV and a wealth CSV (both with ``# key: value`` metadata comment lines),
a versioned key-value performance report, and a per-period weights CSV
that round-trips as the external-weights input of the backtest.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import hashlib
import io
import sys

import numpy as np


class DataFileError(Exception):
    """A file violates its schema; the message names the offending cell."""


@contextlib.contextmanager
def _open_out(path):
    """Open ``path`` for writing; ``"-"`` means standard output."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as handle:
            yield handle


def _fmt(value):
    """Canonical text for one report value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def config_hash(mapping):
    """Short content hash of a configuration mapping (first 12 hex chars)."""
    canonical = "".join(f"{k}={mapping[k]}\n" for k in sorted(mapping))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def read_returns_csv(path):
    """Read a returns file into ``(dates, asset_names, p x T array)``.

    Checks the header, date format and ordering, cell completeness and
    numeric parsing; any violation raises DataFileError with the file
    line number and column name.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFileError(f"{path}: file is empty") from None
        if not header or header[0] != "date":
            raise DataFileError(
                f"{path}, line 1: first header column must be 'date', got "
                f"{header[0]!r}" if header else f"{path}, line 1: empty header"
            )
        names = header[1:]
        if not names:
            raise DataFileError(f"{path}, line 1: no asset columns")
        seen = set()
        for name in names:
            if not name:
                raise DataFileError(f"{path}, line 1: empty asset column name")
            if name in seen:
                raise DataFileError(f"{path}, line 1: duplicate asset column {name!r}")
            seen.add(name)

        dates = []
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataFileError(
                    f"{path}, line {line_no}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                date = datetime.date.fromisoformat(row[0])
            except ValueError:
                raise DataFileError(
                    f"{path}, line {line_no}, column 'date': not an ISO-8601 "
                    f"date: {row[0]!r}"
                ) from None
            if dates and date <= dates[-1]:
                raise DataFileError(
                    f"{path}, line {line_no}, column 'date': dates must be "
                    f"strictly ascending, got {date} after {dates[-1]}"
                )
            dates.append(date)
            values = []
            for name, cell in zip(names, row[1:]):
                if cell.strip() == "":
                    raise DataFileError(
                        f"{path}, line {line_no}, column {name!r}: missing cell"
                    )
                try:
                    value = float(cell)
                except ValueError:
                    raise DataFileError(
                        f"{path}, line {line_no}, column {name!r}: not a "
                        f"number: {cell!r}"
                    ) from None
                if not np.isfinite(value):
                    raise DataFileError(
                        f"{path}, line {line_no}, column {name!r}: non-finite "
                        f"value {cell!r}"
                    )
                values.append(value)
            rows.append(values)
    if not rows:
        raise DataFileError(f"{path}: no data rows")
    return dates, names, np.asarray(rows, dtype=float).T


def read_external_weights(path, n_assets=None):
    """Read a per-period weights CSV into a list of weight vectors.

    Accepts the format written by write_weights_csv: optional ``#``
    comment lines, a header ``period`` plus one column per asset, one
    row per rebalancing period in order. The period column must read
    ``1, 2, ..., T``.
    """
    history = []
    with open(path, newline="") as handle:
        lines = [ln for ln in handle if not ln.startswith("#")]
    reader = csv.reader(io.StringIO("".join(lines)))
    try:
        header = next(reader)
    except StopIteration:
        raise DataFileError(f"{path}: file is empty") from None
    if not header or header[0] != "period":
        raise DataFileError(
            f"{path}: first header column must be 'period', got "
            f"{header[0]!r}" if header else f"{path}: empty header"
        )
    width = len(header) - 1
    if width < 1:
        raise DataFileError(f"{path}: no asset columns")
    if n_assets is not None and width != n_assets:
        raise DataFileError(
            f"{path}: expected {n_assets} asset columns, got {width}"
        )
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise DataFileError(
                f"{path}, row {line_no}: expected {len(header)} cells, got {len(row)}"
            )
        if row[0] != str(len(history) + 1):
            raise DataFileError(
                f"{path}, row {line_no}: expected period {len(history) + 1}, got {row[0]!r}"
            )
        try:
            weights = [float(cell) for cell in row[1:]]
        except ValueError:
            raise DataFileError(
                f"{path}, row {line_no}: weight cells must be numbers"
            ) from None
        history.append(np.asarray(weights))
    if not history:
        raise DataFileError(f"{path}: no weight rows")
    return history


def _write_metadata(handle, metadata):
    for key in metadata:
        handle.write(f"# {key}: {metadata[key]}\n")


def write_loss_table(table, path):
    """Serialize a LossTable to CSV with metadata comment lines."""
    metadata = dict(table.metadata)
    metadata["config-hash"] = config_hash(table.metadata)
    with _open_out(path) as handle:
        _write_metadata(handle, metadata)
        handle.write("scenario,strategy,period,c,mean_loss,stderr,failed_reps\n")
        for row in table.rows:
            handle.write(
                f"{row.scenario},{row.strategy},{row.period},"
                f"{_fmt(row.concentration)},{_fmt(row.mean_loss)},"
                f"{_fmt(row.stderr)},{row.failed_reps}\n"
            )


def write_perf_report(report, path, metadata):
    """Serialize a PerfReport as a versioned key-value document.

    The wealth path is summarized by its endpoint here; the per-day
    series goes to its own CSV on request.
    """
    fields = [
        ("mean_abs_weight", report.mean_abs_weight),
        ("max_weight", report.max_weight),
        ("min_weight", report.min_weight),
        ("sum_negative", report.sum_negative),
        ("frac_negative", report.frac_negative),
        ("mean_return", report.mean_return),
        ("volatility", report.volatility),
        ("sharpe", report.sharpe),
        ("sharpe_defined", report.sharpe_defined),
        ("turnover", report.turnover),
        ("final_wealth", float(report.wealth_path[-1])),
        ("worst_daily_change", report.worst_daily_change),
        ("ruined", report.ruined),
    ]
    with _open_out(path) as handle:
        handle.write("report-version: 1\n")
        for key in metadata:
            handle.write(f"{key}: {metadata[key]}\n")
        if metadata:
            handle.write(f"config-hash: {config_hash(metadata)}\n")
        for key, value in fields:
            handle.write(f"{key}: {_fmt(value)}\n")


def write_wealth_csv(wealth_path, path, metadata):
    """Per-day wealth series as CSV, day 0 holding the starting unit."""
    with _open_out(path) as handle:
        _write_metadata(handle, metadata)
        handle.write("day,wealth\n")
        for day, value in enumerate(wealth_path):
            handle.write(f"{day},{_fmt(float(value))}\n")


def write_weights_csv(history, asset_names, path, metadata):
    """Per-period weight vectors as CSV, one row per rebalancing period."""
    if history and len(asset_names) != len(history[0]):
        raise DataFileError(
            f"{len(asset_names)} asset names for weight vectors of length "
            f"{len(history[0])}"
        )
    with _open_out(path) as handle:
        _write_metadata(handle, metadata)
        handle.write("period," + ",".join(asset_names) + "\n")
        for period, weights in enumerate(history, start=1):
            cells = ",".join(_fmt(float(w)) for w in weights)
            handle.write(f"{period},{cells}\n")
