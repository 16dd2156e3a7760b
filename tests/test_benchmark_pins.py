"""The benchmark's own checks, run as part of the default suite.

``perfbench/tests/tracer_checks.py`` pins what the benchmark's tracer binds
and counts: the module aliases it rebinds and the Cholesky calls and
distinct matrices of one traced ``monte-carlo`` cycle. Its file name keeps
it out of the default collection, so a test runs it in a subprocess from
the repository root. One more test puts one traced ``backtest-file`` cycle
through the benchmark client the same way. The client re-runs each traced
command untraced, through the same output checks, and requires the same
output, so a change to ``weights`` or ``backtest`` that the client
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


#: one traced backtest-file command group; prints the argv and error (None if
#: it passed) of each timed and each extra command, and the tracer's errors
_BACKTEST_FILE_CYCLE = textwrap.dedent("""
    import json, sys
    sys.path[:0] = ["src", "perfbench"]
    import client  # first: imports gmvshrink.cli, which pins BLAS threads
    from inputs import returns_file

    work = sys.argv[1]
    spec = json.load(open("BENCHMARK.json"))
    job = {"workload": "backtest-file", "seed": 7, "seconds": 0, "trace": 1,
           "work_dir": work, "input": returns_file(7, work),
           "layer_metrics": [m["name"] for m in spec["per_layer"]]}
    result = client.run_job(job)
    runs = {key: [(c["argv"], c["error"]) for c in result[key]] for key in ("timed", "extra")}
    print(json.dumps([runs, result["layers"]["trace.errors"]]))
""")


def _backtest_file_cycle(work):
    result = subprocess.run(
        [sys.executable, "-c", _BACKTEST_FILE_CYCLE, str(work)],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_traced_backtest_file_cycle_passes_the_client_checks(tmp_path):
    """The reference report, then one group traced, then the group again
    untraced: every command passes the client's checks, and tracing leaves
    each output unchanged."""
    runs, trace_errors = _backtest_file_cycle(tmp_path)
    timed, extra = runs["timed"], runs["extra"]
    assert len(timed) == 3 and len(extra) == 4, runs
    assert [argv for argv, _ in extra[1:]] == [argv for argv, _ in timed]
    errors = [error for _, error in timed + extra]
    assert errors == [None] * 7, errors
    assert trace_errors == 0
