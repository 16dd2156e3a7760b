"""Benchmark client: one interpreter running one workload as a closed loop.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``. It imports
``gmvshrink.cli`` before anything that loads numpy, exactly as the CLI
does, so BLAS runs on one thread. It then prints ``ready`` and reads one
line from standard input: an empty line ends the process (a set-up
sample), a JSON job runs the workload and prints one JSON result line.

Every command is issued in-process through ``gmvshrink.cli.main(argv)``
and its output is read back and checked. A command fails when an
exception escapes, when its exit code is not the expected one, or when a
check fails.

The checks parse outputs with their own code and compute reference values
from functions bound here at import time, so they add no spans to a
traced run.
"""

import gmvshrink.cli as cli  # noqa: I001  (first: pins BLAS threads)

import contextlib
import hashlib
import io
import itertools
import json
import logging
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
from scipy import linalg

from gmvshrink.rmt import cross_resolvent_constant, resolvent_limits

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer  # noqa: E402

SIM_REPS = 2
SIM_ARGS = ("--p", "90", "--n", "100", "--T", "10", "--reps", str(SIM_REPS))
SIM_PERIODS = 10
SIM_STRATEGIES = 7
LOSS_HEADER = "scenario,strategy,period,c,mean_loss,stderr,failed_reps"

BACKTEST_WINDOW = 250
REPORT_FIELDS = (
    "mean_abs_weight", "max_weight", "min_weight", "sum_negative", "frac_negative",
    "mean_return", "volatility", "sharpe", "sharpe_defined", "turnover",
    "final_wealth", "worst_daily_change", "ruined",
)
BOOLEAN_FIELDS = ("sharpe_defined", "ruined")

RMT_P, RMT_N, RMT_M, RMT_REPS = 100, 200, 200, 20
RMT_ROWS = 4
RMT_ARGS = ("--p", str(RMT_P), "--n", str(RMT_N), "--m", str(RMT_M), "--reps", str(RMT_REPS))

#: relative tolerance of the replayed-weights and row-sum checks
REL_TOL = 1e-9
LOSS_FLOOR = -1e-9


class CheckError(Exception):
    """A command's output failed a correctness check."""


def derive_seed(seed, *key):
    """Per-command seed, so no two commands of a run repeat."""
    text = "/".join(str(part) for part in (seed,) + key)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") % (2**31)


class Command:
    """One CLI invocation with its unit count and output check."""

    def __init__(self, argv, units, check, files=(), writer_stdout=False):
        self.argv = list(argv)
        self.units = units
        self.check = check
        self.files = tuple(files)  # output files, all written by dataio writers
        self.writer_stdout = writer_stdout  # stdout is a dataio writer's output


class Outcome:
    def __init__(self, command, code, seconds, stdout, error):
        self.command = command
        self.code = code
        self.seconds = seconds
        self.stdout = stdout
        self.error = error
        self.file_texts = {}
        self.counts = {}
        self.output_sha256 = None
        self.written_bytes = 0

    def settle(self):
        """Keep the output's hash and size, drop its text.

        Outcomes stay alive for the whole run, so holding every output
        would make the client's peak memory grow with the number of
        commands that fit in the run.
        """
        output = self.stdout + "".join(self.file_texts.get(f, "") for f in self.command.files)
        self.output_sha256 = hashlib.sha256(output.encode()).hexdigest()
        written = self.stdout if self.command.writer_stdout else ""
        self.written_bytes = len(written.encode()) + sum(
            len(t.encode()) for t in self.file_texts.values()
        )
        self.stdout = ""
        self.file_texts = {}


def execute(command, tracer=None):
    """Run one command in-process, then read back and check its output."""
    if tracer is not None:
        tracer.new_scope()
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(command.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        error = "exception escaped: " + traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - start
    outcome = Outcome(command, code, seconds, out.getvalue(), error)
    if outcome.error is None:
        try:
            for path in command.files:
                outcome.file_texts[path] = Path(path).read_text()
            outcome.counts = command.check(outcome) or {}
        except (CheckError, OSError, ValueError) as exc:
            outcome.error = f"check failed: {exc}"
    if outcome.error is not None:
        outcome.error += f" (exit {code}; stderr {err.getvalue().strip()!r})"
    outcome.settle()
    return outcome


def _expect_exit(outcome, expected):
    if outcome.code != expected:
        raise CheckError(f"exit code {outcome.code}, expected {expected}")


def _data_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def _finite(text, what):
    value = float(text)
    if not math.isfinite(value):
        raise CheckError(f"{what} is not finite: {text!r}")
    return value


def _close(a, b, rel=REL_TOL):
    return abs(a - b) <= rel * max(abs(a), abs(b))


# -- simulate ---------------------------------------------------------------


def check_loss_table(outcome):
    """Finite, nonnegative losses; strategy 6 holds one loss in every period."""
    _expect_exit(outcome, 0)
    lines = _data_lines(outcome.stdout)
    if not lines or lines[0] != LOSS_HEADER:
        raise CheckError("loss table header missing")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != SIM_STRATEGIES * SIM_PERIODS or any(len(r) != 7 for r in rows):
        raise CheckError(f"expected {SIM_STRATEGIES * SIM_PERIODS} rows of 7 cells")
    failed = {}
    hold_losses = set()
    for _, strategy, period, _, mean_loss, stderr, failed_reps in rows:
        loss = _finite(mean_loss, f"strategy {strategy} period {period} loss")
        _finite(stderr, "stderr")
        if loss < LOSS_FLOOR:
            raise CheckError(f"strategy {strategy} period {period} loss {loss} < {LOSS_FLOOR}")
        if strategy == "6":
            hold_losses.add(loss)
        failed[strategy] = int(failed_reps)
    if len(hold_losses) != 1:
        raise CheckError(f"strategy 6 mean loss differs across periods: {sorted(hold_losses)}")
    return {"failed_reps": sum(failed.values())}


# -- backtest / weights -----------------------------------------------------


def parse_report(text):
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            raise CheckError(f"malformed report line {line!r}")
        fields[key] = value
    missing = [k for k in REPORT_FIELDS if k not in fields]
    if missing:
        raise CheckError(f"report lacks {missing}")
    for key in REPORT_FIELDS:
        if key in BOOLEAN_FIELDS:
            if fields[key] not in ("true", "false"):
                raise CheckError(f"{key} is not a boolean: {fields[key]!r}")
        else:
            _finite(fields[key], key)
    return fields


def read_table(text, first_column):
    lines = _data_lines(text)
    header = lines[0].split(",")
    if header[0] != first_column:
        raise CheckError(f"first column is {header[0]!r}, expected {first_column!r}")
    return header, [line.split(",") for line in lines[1:]]


class BacktestWorkload:
    unit = "day"
    rerun_first = False  # the external replay already cross-checks the cycle

    def before(self, seed, run):
        """The strategy-2 report every external replay must reproduce."""
        reference = run.work / "reference.txt"
        argv = ["backtest", "--input", run.input, "--strategy", "2",
                "--n", str(BACKTEST_WINDOW), "--seed", str(derive_seed(seed, "reference")),
                "--out", str(reference)]

        def check(outcome):
            _expect_exit(outcome, 0)
            run.reference = parse_report(outcome.file_texts[str(reference)])

        return [Command(argv, run.days, check, files=(str(reference),))]

    def groups(self, seed, run):
        weights = str(run.work / "weights.csv")
        replay = str(run.work / "replay.txt")
        wealth = str(run.work / "wealth.csv")
        drift = str(run.work / "drift.txt")
        common = ["--input", run.input, "--n", str(BACKTEST_WINDOW)]
        periods = run.days // BACKTEST_WINDOW

        def check_weights(outcome):
            _expect_exit(outcome, 0)
            header, rows = read_table(outcome.file_texts[weights], "period")
            if header[1:] != run.assets:
                raise CheckError("weights header does not name the input's assets")
            if [r[0] for r in rows] != [str(i) for i in range(1, periods + 1)]:
                raise CheckError(f"expected periods 1..{periods}")
            for row in rows:
                total = math.fsum(_finite(cell, "weight") for cell in row[1:])
                if abs(total - 1.0) > REL_TOL:
                    raise CheckError(f"period {row[0]} weights sum to {total!r}")

        def check_replay(outcome):
            _expect_exit(outcome, 0)
            if run.reference is None:
                raise CheckError("no strategy-2 reference report to compare with")
            report = parse_report(outcome.file_texts[replay])
            for key in REPORT_FIELDS:
                mine, ref = report[key], run.reference[key]
                same = mine == ref if key in BOOLEAN_FIELDS else _close(float(mine), float(ref))
                if not same:
                    raise CheckError(f"external replay {key}={mine} vs strategy 2 {ref}")
            _, rows = read_table(outcome.file_texts[wealth], "day")
            if len(rows) != (periods - 1) * BACKTEST_WINDOW + 1:
                raise CheckError(f"wealth CSV has {len(rows)} rows")
            if float(rows[-1][1]) != float(report["final_wealth"]):
                raise CheckError("final_wealth differs from the wealth CSV's last row")

        def check_drift(outcome):
            _expect_exit(outcome, 0)
            parse_report(outcome.file_texts[drift])

        for i in itertools.count():
            yield [
                Command(["weights", *common, "--strategy", "2",
                         "--seed", str(derive_seed(seed, i, "weights")), "--out", weights],
                        run.days, check_weights, files=(weights,)),
                Command(["backtest", *common, "--strategy", "external", "--weights-file", weights,
                         "--seed", str(derive_seed(seed, i, "replay")), "--out", replay,
                         "--wealth-out", wealth],
                        run.days, check_replay, files=(replay, wealth)),
                Command(["backtest", *common, "--strategy", "4", "--drift",
                         "--seed", str(derive_seed(seed, i, "drift")), "--out", drift],
                        run.days, check_drift, files=(drift,)),
            ]


# -- check-rmt --------------------------------------------------------------


def rmt_targets():
    inv, inv_sq = resolvent_limits(RMT_P / RMT_N)
    cross = cross_resolvent_constant(RMT_N, RMT_M, RMT_P).d
    return {"resolvent": inv, "resolvent_sq": inv_sq, "cross": cross, "cross_centered": cross}


def check_rmt(outcome):
    """Four finite rows, public-API targets, exit 4 exactly when a row FAILs."""
    lines = _data_lines(outcome.stdout)
    if not lines or lines[0].split()[:2] != ["kind", "target"]:
        raise CheckError("check-rmt header missing")
    rows = [line.split() for line in lines[1:]]
    targets = rmt_targets()
    if [r[0] for r in rows] != list(targets) or any(len(r) != 7 for r in rows):
        raise CheckError(f"expected {RMT_ROWS} rows {list(targets)}")
    failed = 0
    for label, target, mean, stderr, rel_err, _, status in rows:
        for name, cell in (("mc_mean", mean), ("stderr", stderr), ("rel_err", rel_err)):
            _finite(cell, f"{label} {name}")
        if target != f"{targets[label]:.6f}":
            raise CheckError(f"{label} target {target} vs public API {targets[label]:.6f}")
        if status not in ("pass", "FAIL"):
            raise CheckError(f"{label} status {status!r}")
        failed += status == "FAIL"
    _expect_exit(outcome, 4 if failed else 0)
    return {"rows_failed": failed}


# -- Monte Carlo -------------------------------------------------------------


class MonteCarloWorkload:
    """One ``simulate`` (GARCH) and one ``check-rmt`` command per cycle.

    Both are the Monte Carlo loop of the paper; one cycle is the unit of
    work, carried by the ``simulate`` command.
    """

    unit = "cycle"
    rerun_first = True

    def before(self, seed, run):
        return []

    def groups(self, seed, run):
        for i in itertools.count():
            simulate = ["simulate", "--scenario", "ccc_garch", *SIM_ARGS,
                        "--seed", str(derive_seed(seed, i, "simulate")), "--out", "-"]
            check = ["check-rmt", *RMT_ARGS, "--seed", str(derive_seed(seed, i, "check-rmt"))]
            yield [
                Command(simulate, 1, check_loss_table, writer_stdout=True),
                Command(check, 0, check_rmt),
            ]


WORKLOADS = {
    "monte-carlo": MonteCarloWorkload(),
    "backtest-file": BacktestWorkload(),
}


# -- machine record and reference kernel -------------------------------------


def machine_record():
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "thread_vars": {k: v for k, v in sorted(os.environ.items()) if "THREADS" in k},
    }


def machine_ref():
    """Seconds for a fixed pure-Python loop and a fixed 200x200 Cholesky loop."""
    x = np.random.default_rng(0).standard_normal((200, 400))
    spd = x @ x.T / 400
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    middle = time.perf_counter()
    for _ in range(400):
        linalg.cho_factor(spd, lower=True)
    end = time.perf_counter()
    return {"python_s": middle - start, "cholesky_s": end - middle, "total_s": end - start}


# -- one run ------------------------------------------------------------------


class Run:
    """Per-run context shared by a workload's commands."""

    def __init__(self, job):
        self.work = Path(job["work_dir"])
        self.work.mkdir(parents=True, exist_ok=True)
        data = job.get("input") or {}
        self.input = data.get("path")
        self.days = data.get("days", 0)
        self.assets = data.get("assets", [])
        self.input_bytes = data.get("bytes", 0)
        self.reference = None


def timed_phase(workload, seed, seconds, run, tracer=None):
    """Whole command groups, one after another, until ``seconds`` have passed."""
    outcomes = []
    start = time.perf_counter()
    for group in workload.groups(seed, run):
        for command in group:
            outcomes.append(execute(command, tracer))
        if time.perf_counter() - start >= seconds:
            return outcomes


def _summary(outcome):
    return {
        "argv": outcome.command.argv,
        "seconds": outcome.seconds,
        "units": outcome.command.units,
        "code": outcome.code,
        "error": outcome.error,
        "counts": outcome.counts,
    }


def _stat(stats, name, field):
    return stats.get(name, {}).get(field, 0)


def layer_metrics(names, tracer, outcomes, overhead, run):
    """Per-layer metrics by name, as counts and seconds per unit of work."""
    stats = tracer.report()
    units = sum(o.command.units for o in outcomes)
    writers = [n for n in stats if n.startswith("dataio.write_")]
    cholesky_calls = _stat(stats, "core.cholesky", "calls")
    read_s = _stat(stats, "dataio.read_returns_csv", "self_s")
    read_mb = _stat(stats, "dataio.read_returns_csv", "calls") * run.input_bytes / 1e6
    derived = {
        "core.cholesky.distinct": tracer.cholesky_distinct / units,
        "core.cholesky.reuse_ratio": tracer.cholesky_distinct / cholesky_calls if cholesky_calls else 0.0,
        "dataio.read_returns_csv.mb_per_s": read_mb / read_s if read_s else 0.0,
        "dataio.write.self_s": sum(stats[n]["self_s"] for n in writers) / units,
        "dataio.write.bytes": sum(o.written_bytes for o in outcomes) / units,
        "sim.failed_reps": sum(o.counts.get("failed_reps", 0) for o in outcomes) / units,
        "rmt.rows_failed": sum(o.counts.get("rows_failed", 0) for o in outcomes) / units,
        "trace.errors": sum(s["errors"] for s in stats.values()) / units,
        **overhead,
    }
    metrics = {}
    for name in names:
        if name in derived:
            metrics[name] = derived[name]
            continue
        prefix, _, field = name.rpartition(".")
        if field not in ("calls", "self_s", "errors"):
            raise KeyError(f"no per-layer metric named {name!r}")
        metrics[name] = _stat(stats, prefix, field) / units
    return metrics


def run_job(job):
    """Run one workload; return the result record ``run.py`` reports."""
    workload = WORKLOADS[job["workload"]]
    seed = job["seed"]
    run = Run(job)
    ref_before = machine_ref()
    extra = [execute(c) for c in workload.before(seed, run)]
    result = {"workload": job["workload"], "unit": workload.unit}

    group_size = len(next(workload.groups(seed, run)))
    if not job["trace"]:
        outcomes = timed_phase(workload, seed, job["seconds"], run)
        if workload.rerun_first:
            # Determinism: the first group again, outside the timed phase.
            for first in outcomes[:group_size]:
                again = execute(first.command)
                if again.error is None and again.output_sha256 != first.output_sha256:
                    again.error = "determinism check failed: re-run output differs"
                extra.append(again)
    else:
        tracer = Tracer()
        with tracer:
            outcomes = timed_phase(workload, seed, job["seconds"], run, tracer)
        # The first group again untraced: tracing overhead, and proof that
        # tracing leaves every output unchanged.
        first_group = outcomes[:group_size]
        pairs = []
        for traced in first_group:
            plain = execute(traced.command)
            if plain.error is None and plain.output_sha256 != traced.output_sha256:
                plain.error = "tracing changed the command's output"
            extra.append(plain)
            pairs.append((traced.seconds, plain.seconds))
        overhead = {
            "trace.overhead_s": statistics.median(t - p for t, p in pairs),
            "trace.overhead_frac": statistics.median(t / p - 1.0 for t, p in pairs),
        }
        result["layers"] = layer_metrics(job["layer_metrics"], tracer, outcomes, overhead, run)
        result["spans"] = tracer.report()
        result["hash_s"] = tracer.hash_s

    result.update(
        group_size=group_size,
        timed=[_summary(o) for o in outcomes],
        extra=[_summary(o) for o in extra],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine_ref=[ref_before, machine_ref()],
        machine=machine_record(),
    )
    return result


def main():
    # The CLI's own logging set-up, made once here so warnings reach the
    # real stderr rather than a per-command capture buffer.
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    print("ready", flush=True)
    line = sys.stdin.readline().strip()
    if not line:
        return 0
    result = run_job(json.loads(line))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
