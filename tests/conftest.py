"""Shared pytest wiring for the suite.

The acceptance module records one status line per criterion as it runs;
this hook replays those lines at the end of the session so the verdicts
are visible in one block regardless of verbosity settings.

The repository's ``src`` is also put first on ``PYTHONPATH``, so tests that
start ``python -m gmvshrink.cli`` subprocesses import this checkout even
when the package is not installed.
"""

import os
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for name, module in list(sys.modules.items()):
        if name.rsplit(".", 1)[-1] == "test_acceptance":
            lines = getattr(module, "RESULTS", None)
            if lines:
                terminalreporter.section("acceptance criteria")
                for line in lines:
                    terminalreporter.write_line(line)
            return
