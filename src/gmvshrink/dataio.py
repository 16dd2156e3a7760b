"""File formats: returns ingestion and report serialization.

Input is a returns CSV with a header row, a leading ISO-8601 ``date``
column and one column per asset; cells are simple returns as decimal
fractions. Ingestion is strict: a malformed or missing cell fails with
its file line and column named, never imputed. A well-formed file with
LF or CRLF line ends and no quotes is read in binary chunks of whole
lines, about ``_CHUNK_BYTES`` bytes each, into a result preallocated from
a count of its lines; each chunk is checked and parsed by a few C-level
calls and written straight into the result. Ingest therefore holds the
result plus one chunk, whatever the width or length of the file. Any file
the bulk path does not fully accept (a quoted cell, for one) is re-read
from the start by the strict row parser, which locates the error or, for
a valid but unusual file, returns the same result; it appends every cell
to one flat float64 buffer and copies its transpose into the result at the
end, so it holds about twice the result. The external-weights CSV has the
same shape, with ``period`` in place of ``date``, and goes through the
same strict parser after the ``#`` comment lines that precede its header.
No path reads a whole file into one string. Input files are read as UTF-8,
whatever the locale, past a leading byte-order mark; bytes that do not
decode are a DataFileError.

Outputs are deterministic text formats built for diffing: a loss table
CSV and a wealth CSV (both with ``# key: value`` metadata comment lines),
a versioned key-value performance report, and a per-period weights CSV
that round-trips as the external-weights input of the backtest. Output
files are written as UTF-8; standard output keeps the interpreter's
encoding, and text that encoding cannot hold is a DataFileError.
"""

import array
import contextlib
import csv
import datetime
import hashlib
import itertools
import math
import operator
import sys
import warnings

import numpy as np


class DataFileError(Exception):
    """A file violates its schema; the message names the offending cell."""


@contextlib.contextmanager
def _open_out(path):
    """Open ``path`` for writing; ``"-"`` means standard output, and text its
    encoding cannot write raises DataFileError pointing to a UTF-8 file."""
    if path == "-":
        try:
            yield sys.stdout
        except UnicodeEncodeError as exc:
            raise DataFileError(
                f"standard output's encoding ({exc.encoding}) cannot write this output; "
                "write it with --out FILE, which is always UTF-8"
            ) from None
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


@contextlib.contextmanager
def _open_in(path):
    """Open text file ``path`` for the strict parser, skipping a UTF-8
    byte-order mark; bytes that are not UTF-8 raise DataFileError naming the file."""
    with open(path, encoding="utf-8-sig", newline="") as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise DataFileError(f"{path}: not UTF-8 text ({exc.reason})") from None


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
    line number and column name. The array is C-contiguous float64.

    A well-formed file is parsed in bulk from a binary handle, in chunks
    of about ``_CHUNK_BYTES`` bytes of whole lines written straight into
    the result. Whatever that path does not fully accept (characters
    outside printable ASCII, quotes, a carriage return not ending a line,
    blank lines, ragged rows, bad cells or dates) is re-read in text mode
    by the strict row parser, which either names the offending cell or
    returns the same result.
    """
    with open(path, "rb") as handle:
        parsed = _parse_bulk(path, handle)
    if parsed is None:
        with _open_in(path) as handle:
            parsed = _parse_strict(path, handle)
    return parsed


def _asset_names(path, header, key="date", line=1):
    """Validate a parsed header row and return its asset names."""
    if not header or header[0] != key:
        raise DataFileError(
            f"{path}, line {line}: first header column must be {key!r}, got "
            f"{header[0]!r}" if header else f"{path}, line {line}: empty header"
        )
    names = header[1:]
    if not names:
        raise DataFileError(f"{path}, line {line}: no asset columns")
    seen = set()
    for name in names:
        if not name:
            raise DataFileError(f"{path}, line {line}: empty asset column name")
        if name in seen:
            raise DataFileError(f"{path}, line {line}: duplicate asset column {name!r}")
        seen.add(name)
    return names


#: bytes of a plain file: printable ASCII but the quote, and the line ends
_PLAIN = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\r\n"

#: bytes per chunk of the bulk parser (a chunk ends on the line that
#: reaches it): enough that loadtxt's cost per call is lost in its cost per
#: cell, few enough that a chunk's text and cells stay small beside the
#: result at any width
_CHUNK_BYTES = 64 * 1024


def _is_plain(text):
    """Whether the bytes ``text`` hold only the characters of a plain file,
    each carriage return ending a line just before its newline."""
    return not text.translate(None, _PLAIN) and (
        b"\r" not in text or text.count(b"\r") == text.count(b"\r\n")
    )


def _count_rows(handle):
    """Lines after the header of the binary ``handle``, which is rewound."""
    lines, last = 0, b"\n"
    while block := handle.read(_CHUNK_BYTES):
        lines += block.count(b"\n")
        last = block[-1:]
    handle.seek(0)
    # a last line without its newline is a line too
    return lines + (last != b"\n") - 1


def _parse_bulk(path, handle):
    """Parse a plain, well-formed returns file from binary ``handle``, or
    return None.

    In a plain file every line splits on bare commas exactly as the csv
    module would split it, and every cell ``np.loadtxt`` reads is one that
    ``float`` reads to the same bits (outside printable ASCII the two
    differ, e.g. on the control characters 0x1C-0x1F that loadtxt strips as
    whitespace). Lines end in LF or CRLF. The rows, counted up front, are
    read ``_CHUNK_BYTES`` at a time; each chunk is checked whole and
    written into the preallocated result before the next is read, and the
    dates must ascend across chunk edges too. None hands the file to the
    strict parser; this path raises only for a bad header, with the strict
    parser's message.
    """
    rows = _count_rows(handle)
    head = handle.readline()
    if rows < 1 or not _is_plain(head):
        return None
    header = head.decode("ascii").removesuffix("\n").removesuffix("\r")
    if not header:
        return None
    names = _asset_names(path, header.split(","))
    out = np.empty((len(names), rows))
    dates = []
    done = 0
    while lines := handle.readlines(_CHUNK_BYTES):
        done = _parse_chunk(lines, out, done, dates)
        if done is None:
            return None
    # the file may have changed since its lines were counted
    if done != rows:
        return None
    return dates, names, out


def _parse_chunk(lines, out, start, dates):
    """Write plain rows into columns ``start:`` of ``out``; the next free
    column, or None.

    Appends each row's date to ``dates``, which holds the dates of every
    earlier chunk, so the ascending check spans chunk edges.
    """
    if not _is_plain(b"".join(lines)):
        return None
    days, commas, cells = zip(*[line.partition(b",") for line in lines])
    if not all(commas):
        return None
    try:
        new = list(map(datetime.date.fromisoformat, b"\n".join(days).decode().split("\n")))
    except ValueError:
        return None
    earlier = dates[-1:] + new
    if not all(map(operator.lt, earlier, earlier[1:])):
        return None
    try:
        with warnings.catch_warnings():
            # a chunk of empty value texts reads as no data; the row count refuses it
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(cells, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    stop = start + len(lines)
    # loadtxt skips empty lines, so the row count is checked too
    if (
        values.shape != (len(lines), len(out))
        or stop > out.shape[1]
        or not np.isfinite(values).all()
    ):
        return None
    out[:, start:stop] = values.T
    dates.extend(new)
    return stop


def _read_date(cell, dates):
    """The ISO-8601 date in ``cell``, later than every date before it."""
    try:
        date = datetime.date.fromisoformat(cell)
    except ValueError:
        raise ValueError(f"not an ISO-8601 date: {cell!r}") from None
    if dates and date <= dates[-1]:
        raise ValueError(f"dates must be strictly ascending, got {date} after {dates[-1]}")
    return date


def _read_period(cell, periods):
    """The period number in ``cell``, which must be the next of 1, 2, ..."""
    period = len(periods) + 1
    if cell != str(period):
        raise ValueError(f"expected period {period}, got {cell!r}")
    return period


def _parse_strict(path, lines, key="date", read_key=_read_date, first_line=1):
    """Parse a key-column table into ``(keys, asset_names, p x T array)``.

    ``lines`` iterates over the table's lines with their endings, as a
    file opened with ``newline=""`` does; its first line is the header,
    line ``first_line`` of the file. An error names the file line its row
    starts on, counting the lines of quoted cells that span several.
    ``read_key(cell, keys_so_far)`` returns a row's key or raises
    ValueError; the first bad cell raises DataFileError naming its place.
    """
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise DataFileError(f"{path}: file is empty") from None
    names = _asset_names(path, header, key, first_line)

    keys = []
    values = array.array("d")
    # a row starts one line past the last line the reader consumed; records
    # are not counted, as a quoted cell may span lines
    line_no = reader.line_num + first_line
    for row in reader:
        if len(row) != len(header):
            raise DataFileError(
                f"{path}, line {line_no}: expected {len(header)} cells, got {len(row)}"
            )
        try:
            keys.append(read_key(row[0], keys))
        except ValueError as exc:
            raise DataFileError(f"{path}, line {line_no}, column {key!r}: {exc}") from None
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
            if not math.isfinite(value):
                raise DataFileError(
                    f"{path}, line {line_no}, column {name!r}: non-finite "
                    f"value {cell!r}"
                )
            values.append(value)
        line_no = reader.line_num + first_line
    if not keys:
        raise DataFileError(f"{path}: no data rows")
    return keys, names, np.frombuffer(values).reshape(len(keys), len(names)).T.copy()


def read_external_weights(path, asset_names):
    """Read a per-period weights CSV into a list of weight vectors.

    Accepts the format written by write_weights_csv: optional ``#``
    comment lines before the header, a header ``period`` plus one column
    per asset, one row per rebalancing period in order. The period column
    must read ``1, 2, ..., T``. The table is checked like a returns file
    (``period`` in place of ``date``), with errors naming the file line
    and column. The asset columns must carry exactly ``asset_names``
    (those of the returns file) in that order.
    """
    with _open_in(path) as handle:
        skip = 0
        line = handle.readline()
        while line.startswith("#"):
            skip += 1
            line = handle.readline()
        _, names, values = _parse_strict(
            path, itertools.chain([line] if line else [], handle), "period", _read_period,
            first_line=skip + 1,
        )
    if len(names) != len(asset_names):
        raise DataFileError(
            f"{path}: expected {len(asset_names)} asset columns, got {len(names)}"
        )
    for column, (got, expected) in enumerate(zip(names, asset_names), start=2):
        if got != expected:
            raise DataFileError(
                f"{path}: header column {column} is {got!r}, expected "
                f"{expected!r} as in the returns file"
            )
    # contiguous vectors: BLAS may sum over a strided one in another order
    return list(np.ascontiguousarray(values.T))


def write_metadata(handle, metadata):
    """Metadata comment lines, closed by the hash of the metadata."""
    for key in metadata:
        handle.write(f"# {key}: {metadata[key]}\n")
    handle.write(f"# config-hash: {config_hash(metadata)}\n")


def write_loss_table(table, path):
    """Serialize a LossTable to CSV: metadata comment lines, then each LossRow in field order."""
    with _open_out(path) as handle:
        write_metadata(handle, table.metadata)
        handle.write("scenario,strategy,period,c,mean_loss,stderr,failed_reps\n")
        for row in table.rows:
            handle.write(",".join(map(_fmt, row)) + "\n")


def write_perf_report(report, path, metadata):
    """Serialize a PerfReport as a versioned key-value document.

    One ``key: value`` line per field of the report, in field order, after
    the metadata; the last field, the per-day wealth path, is left to its
    own CSV and only its endpoint ``final_wealth`` is printed.
    """
    with _open_out(path) as handle:
        handle.write("report-version: 1\n")
        for key in metadata:
            handle.write(f"{key}: {metadata[key]}\n")
        handle.write(f"config-hash: {config_hash(metadata)}\n")
        for key, value in zip(report._fields[:-1], report[:-1]):
            handle.write(f"{key}: {_fmt(value)}\n")


def write_wealth_csv(wealth_path, path, metadata):
    """Per-day wealth series as CSV, day 0 holding the starting unit."""
    with _open_out(path) as handle:
        write_metadata(handle, metadata)
        handle.write("day,wealth\n")
        handle.write(
            "".join(f"{day},{_fmt(float(value))}\n" for day, value in enumerate(wealth_path))
        )


def write_weights_csv(history, asset_names, path, metadata):
    """Per-period weight vectors as CSV, one row per rebalancing period."""
    if history and len(asset_names) != len(history[0]):
        raise DataFileError(
            f"{len(asset_names)} asset names for weight vectors of length "
            f"{len(history[0])}"
        )
    with _open_out(path) as handle:
        write_metadata(handle, metadata)
        # quoted as needed, so any name the returns header held reads back
        csv.writer(handle, lineterminator="\n").writerow(["period", *asset_names])
        handle.write(
            "".join(
                f"{period},{','.join(_fmt(float(w)) for w in weights)}\n"
                for period, weights in enumerate(history, start=1)
            )
        )
