"""The benchmark's own checks, run as part of the default suite.

``perfbench/tests/tracer_checks.py`` pins what the benchmark's tracer binds
and counts: the module aliases it rebinds and the Cholesky calls and
distinct matrices of one traced ``monte-carlo`` cycle. Its file name keeps
it out of the default collection, so a test runs it in a subprocess from
the repository root. Two more tests put one ``backtest-file`` cycle
through the benchmark client's output checks the same way, untraced and
traced, so a change to ``weights`` or ``backtest`` that the client
refuses, or that the tracer's rebound functions break, fails here.
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


#: one backtest-file command group, traced when argv[2] is "1"; prints each
#: command's error (None if it passed) and, traced, the tracer's error count
_BACKTEST_FILE_CYCLE = textwrap.dedent("""
    import json, sys
    sys.path[:0] = ["src", "perfbench"]
    import client  # first: imports gmvshrink.cli, which pins BLAS threads
    from inputs import returns_file

    work, trace = sys.argv[1], int(sys.argv[2])
    job = {"workload": "backtest-file", "seed": 7, "seconds": 0, "trace": trace,
           "work_dir": work, "input": returns_file(7, work)}
    if trace:
        spec = json.load(open("BENCHMARK.json"))
        job["layer_metrics"] = [m["name"] for m in spec["per_layer"]]
    result = client.run_job(job)
    errors = [c["error"] for c in result["timed"] + result["extra"]]
    print(json.dumps([errors, result.get("layers", {}).get("trace.errors")]))
""")


def _backtest_file_cycle(work, trace):
    result = subprocess.run(
        [sys.executable, "-c", _BACKTEST_FILE_CYCLE, str(work), str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_backtest_file_cycle_passes_the_client_checks(tmp_path):
    errors, _ = _backtest_file_cycle(tmp_path, trace=0)
    assert errors and errors == [None] * len(errors), errors


def test_traced_backtest_file_cycle_passes_the_client_checks(tmp_path):
    # the client also checks that tracing leaves every output unchanged
    errors, trace_errors = _backtest_file_cycle(tmp_path, trace=1)
    assert errors and errors == [None] * len(errors), errors
    assert trace_errors == 0
