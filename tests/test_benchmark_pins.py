"""The benchmark's own checks, run as part of the default suite.

``perfbench/tests/tracer_checks.py`` pins what the benchmark's tracer binds
and counts: the module aliases it rebinds and the Cholesky calls and
distinct matrices of one traced ``monte-carlo`` cycle. Its file name keeps
it out of the default collection, so a test runs it in a subprocess from
the repository root. A second test puts one untraced ``backtest-file``
cycle through the benchmark client's output checks the same way, so a
change to ``weights`` or ``backtest`` that the client refuses fails here.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_checks_pass():
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/tests/tracer_checks.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


#: one backtest-file command group; prints each command's error, None if it passed
_BACKTEST_FILE_CYCLE = textwrap.dedent("""
    import json, sys
    sys.path[:0] = ["src", "perfbench"]
    import client  # first: imports gmvshrink.cli, which pins BLAS threads
    from inputs import returns_file

    work = sys.argv[1]
    job = {"workload": "backtest-file", "seed": 7, "seconds": 0, "trace": 0,
           "work_dir": work, "input": returns_file(7, work)}
    result = client.run_job(job)
    print(json.dumps([c["error"] for c in result["timed"] + result["extra"]]))
""")


def test_backtest_file_cycle_passes_the_client_checks(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", _BACKTEST_FILE_CYCLE, str(tmp_path)],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    errors = json.loads(result.stdout.splitlines()[-1])
    assert errors and errors == [None] * len(errors), errors
