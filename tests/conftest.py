"""Shared pytest wiring for the suite.

The acceptance module records one status line per criterion as it runs;
this hook replays those lines at the end of the session so the verdicts
are visible in one block regardless of verbosity settings.

The repository's ``src`` is also put first on ``PYTHONPATH``, so tests that
start ``python -m gmvshrink.cli`` subprocesses import this checkout even
when the package is not installed.

``table_tests`` turns a table of refusals into tests named by the ids of
its rows; the command-line and file-reader refusals use it.
``tracemalloc_peak`` measures the working set of one call.

Every collected test id must be nameable in a plain list of ids: one that
holds whitespace, a backslash (pytest's escape for a control character)
or a non-printable character stops the run before any test starts.
"""

import os
import sys
import tracemalloc
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def unnameable_ids(ids):
    """The ids among ``ids`` that hold whitespace, a backslash or a
    non-printable character, which a plain list of ids cannot name."""
    return [i for i in ids if not i.isprintable() or any(c.isspace() or c == "\\" for c in i)]


def pytest_collection_modifyitems(items):
    bad = unnameable_ids(item.nodeid for item in items)
    if bad:
        raise pytest.UsageError("ids with whitespace, a backslash or a non-printable character:\n"
                                + "\n".join(bad))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for name, module in list(sys.modules.items()):
        if name.rsplit(".", 1)[-1] == "test_acceptance":
            lines = getattr(module, "RESULTS", None)
            if lines:
                terminalreporter.section("acceptance criteria")
                for line in lines:
                    terminalreporter.write_line(line)
            return


def table_tests(check, table):
    """One test per name among ``table``'s ids, running ``check`` on the rows
    of each id; ``name[case]`` ids parametrize ``name`` over its cases, so
    each row keeps the test id its case has always had. ``check`` takes the
    ``capsys`` and ``tmp_path`` fixtures, then a row's fields; a module binds
    the tests with ``globals().update(table_tests(check, table))``."""
    cases = {}
    for key, *row in table:
        name, _, case = key.partition("[")
        cases.setdefault(name, {}).setdefault(case[:-1], []).append(row)

    def test_of(rows_by_case):
        if list(rows_by_case) == [""]:
            def test(capsys, tmp_path):
                for row in rows_by_case[""]:
                    check(capsys, tmp_path, *row)
        else:
            @pytest.mark.parametrize("rows", list(rows_by_case.values()), ids=list(rows_by_case))
            def test(capsys, tmp_path, rows):
                for row in rows:
                    check(capsys, tmp_path, *row)
        return test

    return {name: test_of(rows_by_case) for name, rows_by_case in cases.items()}


def tracemalloc_peak(call, *args):
    """``call(*args)`` and the tracemalloc peak of that call, in bytes."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
