"""The benchmark's tracer checks, run as part of the default suite.

``perfbench/tests/tracer_checks.py`` pins what the benchmark's tracer binds
and counts: the module aliases it rebinds and the Cholesky calls and
distinct matrices of one traced cycle. Its file name keeps it out of the
default collection, so this test runs it in a subprocess from the
repository root.
"""

import subprocess
import sys
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
