"""gmvshrink benchmark: run one workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of the workloads in ``BENCHMARK.json`` (``monte-carlo``,
``backtest-file``) or ``all``. Each
workload runs as a closed loop with one client: one fresh interpreter
(``client.py``) issuing CLI commands one after another. With ``--trace 0``
it prints the end-to-end metrics; with ``--trace 1`` a traced run prints the
per-layer metrics and the tracing overhead instead. Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Inputs come from ``--seed`` alone. The returns file of ``backtest-file``
is generated (and cached) before the set-up and timed phases. Everything
the benchmark writes goes under ``perfbench/.work``. See WORKLOADS.md for
why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
CLIENT = BENCH / "client.py"

#: interpreter starts per run; set-up time is their median
SETUP_SAMPLES = 9
#: wall-clock limit of the whole run, kept below 180 s
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _deadline_kill(proc, deadline):
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def start_client(deadline):
    """Spawn a client; return it with the seconds until it could take a command."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CLIENT)],
        cwd=ROOT, env=_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    timer = _deadline_kill(proc, deadline)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        timer.cancel()
        proc.kill()
        proc.wait()
        raise BenchError(f"client did not start (exit {proc.returncode})")
    return proc, timer, setup


def finish_client(proc, timer, job):
    """Send ``job`` (or nothing) to a started client and collect its result."""
    try:
        proc.stdin.write((json.dumps(job) if job else "") + "\n")
        proc.stdin.close()
        out = proc.stdout.read()
    finally:
        proc.wait()
        timer.cancel()
    if proc.returncode != 0:
        raise BenchError(f"client exited with {proc.returncode}")
    if job is None:
        return None
    return json.loads(out.strip().splitlines()[-1])


def make_input(seed, deadline):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "inputs.py"), str(seed), str(WORK / "inputs")],
        cwd=ROOT, env=_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError(f"input generation failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def run_workload(name, seed, seconds, trace, spec, deadline):
    data = make_input(seed, deadline) if name == "backtest-file" else None
    job = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "work_dir": str(WORK / "runs" / name),
        "input": data,
        "layer_metrics": [m["name"] for m in spec["per_layer"]],
    }
    setups = []

    def bare_starts(count):
        for _ in range(count):
            proc, timer, setup = start_client(deadline)
            setups.append(setup)
            finish_client(proc, timer, None)

    # Half the bare starts come before the measured client and half after,
    # so the median spans the run rather than a few seconds before it.
    bare_starts(SETUP_SAMPLES // 2)
    proc, timer, setup = start_client(deadline)
    setups.append(setup)
    result = finish_client(proc, timer, job)
    bare_starts(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)
    result["setup_s"] = setups
    result["input"] = {k: v for k, v in (data or {}).items() if k != "assets"}

    timed = result["timed"]
    every = timed + result["extra"]
    failed = [c for c in every if c["error"]]
    seconds_each = [c["seconds"] for c in timed]
    units = sum(c["units"] for c in timed)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "units_per_s": units / sum(seconds_each),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if trace:
        metrics = {m["name"]: (result["layers"][m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: (end_to_end[m["name"]], m["unit"]) for m in spec["end_to_end"]}

    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    WORK.joinpath("results", f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    report(name, seed, trace, result, end_to_end, failed, every, units)
    return {
        "correct": not failed,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def report(name, seed, trace, result, end_to_end, failed, every, units):
    unit = result["unit"]
    timed = result["timed"]
    seconds_each = [c["seconds"] for c in timed]
    machine = result["machine"]
    out = print
    group = timed[: result["group_size"]]
    out(f"== {name}  seed {seed}  trace {trace}  unit: {unit} "
        f"({sum(c['units'] for c in group)} per group of {len(group)} commands)")
    out(f"machine: nproc {machine['nproc']}, {machine['cpu_model']}, python {machine['python']}, "
        f"numpy {machine['numpy']}, scipy {machine['scipy']}, blas {machine['blas']}, "
        f"threads {machine['thread_vars']}")
    if not trace:
        out(f"  setup_s      {end_to_end['setup_s']:.4f} s      (median of {len(result['setup_s'])} interpreter starts)")
        out(f"  units_per_s  {end_to_end['units_per_s']:.4f} {unit}/s  ({units} {unit}s in {len(timed)} commands, {sum(seconds_each):.2f} s)")
        # One line per command of the group: the kinds differ in cost.
        for position, first in enumerate(group):
            times = [c["seconds"] for c in timed[position :: len(group)]]
            high = tail(times)
            high_text = f"p{high[0]:.0f} {high[1]:.4f} s with 10 beyond" if high else "no tail percentile (<11 commands)"
            out(f"  cmd_p50_s    {statistics.median(times):.4f} s      ({len(times)} x {' '.join(first['argv'][:3])}; "
                f"{high_text}, report only)")
        out(f"  peak_rss_mb  {end_to_end['peak_rss_mb']:.2f} MB     (1 interpreter)")
    out(f"  failed_frac  {len(failed) / len(every):.4f}        ({len(failed)} of {len(every)} commands)")
    refs = result["machine_ref"]
    out(f"  machine_ref_s {refs[0]['total_s']:.4f} before, {refs[1]['total_s']:.4f} after "
        "(python loop + 200x200 Cholesky loop; report only)")
    if trace:
        for key, value in result["layers"].items():
            out(f"  {key:<42} {value:.6g}")
        total = sum(seconds_each) - result["hash_s"]
        out(f"  self-time shares of {total:.2f} s traced command time "
            f"(input hashing, {result['hash_s']:.3f} s, excluded):")
        spans = sorted(result["spans"].items(), key=lambda kv: -kv[1]["self_s"])
        for span, stat in spans[:12]:
            out(f"    {span:<40} {100 * stat['self_s'] / total:5.1f}%  calls {stat['calls']}")
    for command in failed:
        out(f"  FAILED {' '.join(command['argv'])}: {command['error']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gmvshrink" / "cli.py").is_file():
        print(f"benchmark: no gmvshrink source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}, expected one of {names} or 'all'")
    chosen = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in chosen:
            deadline = time.monotonic() + RUN_LIMIT_S
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, spec, deadline)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    if len(chosen) == 1:
        line = results[chosen[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
