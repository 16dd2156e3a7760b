"""Command-line front end.

Four subcommands: ``simulate`` runs the Monte Carlo strategy comparison
and writes a loss-table CSV, ``backtest`` runs one strategy over a
returns file and writes a performance report, ``weights`` exports the
per-period weight vectors of such a run, and ``check-rmt`` compares the
closed-form limits of the random quadratic forms against Monte Carlo
estimates.

Every command requires an explicit ``--seed`` and is deterministic:
repeated invocations produce byte-identical output. To keep that true
across machines, linear-algebra thread pools are pinned to a single
thread before numpy loads, which is why this module must be imported
before anything that pulls numpy in.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (thread pinning above must come first)

from .backtest import (  # noqa: E402
    EXTERNAL_STRATEGY,
    RebalanceSchedule,
    run_backtest,
)
from .core import (  # noqa: E402
    DegenerateInputError,
    DimensionError,
    InsufficientSampleError,
    SingularityError,
)
from .dataio import (  # noqa: E402
    DataFileError,
    config_hash,
    read_external_weights,
    read_returns_csv,
    write_loss_table,
    write_perf_report,
    write_wealth_csv,
    write_weights_csv,
)
from .rmt import (  # noqa: E402
    GramSpec,
    cross_resolvent_constant,
    mc_quadratic_form,
    resolvent_limits,
)
from .sim import SCENARIOS, ScenarioConfig, run_experiment  # noqa: E402
from .strategies import STRATEGY_IDS  # noqa: E402

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

#: simulate refuses rep counts above this unless --full is passed
DESK_SCALE_REPS = 1000


class _CliError(Exception):
    def __init__(self, exit_code, message):
        super().__init__(message)
        self.exit_code = exit_code


def _fail(exit_code, kind, message):
    raise _CliError(exit_code, f"{kind} error: {' '.join(str(message).split())}")


def _parse_strategies(text):
    try:
        ids = tuple(int(part) for part in text.split(","))
    except ValueError:
        _fail(EXIT_CONFIG, "config", f"--strategies must be comma-separated integers, got {text!r}")
    bad = [s for s in ids if s not in STRATEGY_IDS]
    if bad:
        _fail(EXIT_CONFIG, "config", f"unknown strategy ids {bad}, expected ids in {STRATEGY_IDS}")
    if not ids:
        _fail(EXIT_CONFIG, "config", "--strategies is empty")
    return ids


def _cmd_simulate(args):
    strategies = _parse_strategies(args.strategies)
    if args.reps > DESK_SCALE_REPS and not args.full:
        _fail(
            EXIT_CONFIG,
            "config",
            f"--reps {args.reps} exceeds the desk-scale cap of {DESK_SCALE_REPS}; pass --full to run it",
        )
    try:
        config = ScenarioConfig(
            scenario=args.scenario,
            p=args.p,
            n=args.n,
            periods=args.T,
            reps=args.reps,
            seed=args.seed,
            strategies=strategies,
            literal_sigma=args.literal_sigma,
            standardize_t=not args.raw_t5,
        ).validate()
    except ValueError as exc:
        _fail(EXIT_CONFIG, "config", exc)
    try:
        table = run_experiment(config)
    except SingularityError as exc:
        _fail(EXIT_NUMERICAL, "numerical", exc)
    all_failed = [
        s for s in strategies
        if any(r.strategy == s and r.failed_reps >= config.reps for r in table.rows)
    ]
    if all_failed:
        _fail(
            EXIT_NUMERICAL,
            "numerical",
            f"every repetition failed for strategies {all_failed}",
        )
    write_loss_table(table, args.out)
    return EXIT_OK


def _load_series(args):
    if args.n < 1:
        _fail(EXIT_CONFIG, "config", f"--n must be at least 1, got {args.n}")
    try:
        dates, names, returns = read_returns_csv(args.input)
    except OSError as exc:
        _fail(EXIT_DATA, "data", exc)
    except DataFileError as exc:
        _fail(EXIT_DATA, "data", exc)
    p, total_days = returns.shape
    periods = args.T if args.T is not None else total_days // args.n
    if periods < 1:
        _fail(
            EXIT_DATA,
            "data",
            f"series has {total_days} observations, shorter than one window of {args.n}",
        )
    try:
        schedule = RebalanceSchedule.uniform(args.n, periods)
    except ValueError as exc:
        _fail(EXIT_CONFIG, "config", exc)
    return dates, names, returns, schedule


def _strategy_arg(args):
    if args.strategy == EXTERNAL_STRATEGY:
        if args.weights_file is None:
            _fail(EXIT_CONFIG, "config", "--strategy external requires --weights-file")
        return EXTERNAL_STRATEGY
    if args.weights_file is not None:
        _fail(EXIT_CONFIG, "config", "--weights-file only applies to --strategy external")
    return int(args.strategy)


def _run_file_backtest(args):
    strategy = _strategy_arg(args)
    dates, names, returns, schedule = _load_series(args)
    p = returns.shape[0]
    external = None
    if strategy == EXTERNAL_STRATEGY:
        try:
            external = read_external_weights(args.weights_file, n_assets=p)
        except OSError as exc:
            _fail(EXIT_DATA, "data", exc)
        except DataFileError as exc:
            _fail(EXIT_DATA, "data", exc)
    target = np.full(p, 1.0 / p)
    try:
        history, report = run_backtest(
            returns,
            strategy,
            schedule,
            target,
            drift=args.drift,
            external_weights=external,
        )
    except SingularityError as exc:
        _fail(EXIT_NUMERICAL, "numerical", exc)
    except (InsufficientSampleError, DimensionError, DegenerateInputError) as exc:
        _fail(EXIT_DATA, "data", exc)
    metadata = {
        "command": args.command,
        "input": args.input,
        "strategy": str(args.strategy),
        "n": str(schedule.window_lengths[0]),
        "T": str(schedule.period_count),
        "p": str(p),
        "seed": str(args.seed),
        "drift": str(args.drift).lower(),
        "first-date": dates[0].isoformat(),
        "last-date": dates[-1].isoformat(),
    }
    return names, history, report, metadata


def _cmd_backtest(args):
    names, history, report, metadata = _run_file_backtest(args)
    write_perf_report(report, args.out, metadata)
    if args.wealth_out is not None:
        wealth_meta = dict(metadata)
        wealth_meta["config-hash"] = config_hash(metadata)
        write_wealth_csv(report.wealth_path, args.wealth_out, wealth_meta)
    return EXIT_OK


def _cmd_weights(args):
    names, history, report, metadata = _run_file_backtest(args)
    weights_meta = dict(metadata)
    weights_meta["config-hash"] = config_hash(metadata)
    write_weights_csv(history, names, args.out, weights_meta)
    return EXIT_OK


_RMT_TOLERANCES = {
    "resolvent": 0.05,
    "resolvent_sq": 0.05,
    "cross": 0.10,
    "cross_centered": 0.10,
}


def _cmd_check_rmt(args):
    out = sys.stdout
    try:
        limit_inv, limit_inv_sq = resolvent_limits(args.p / args.n)
        rows = [
            ("resolvent", "inv", GramSpec(args.p, args.n, form=args.form), limit_inv),
            ("resolvent_sq", "inv_sq", GramSpec(args.p, args.n, form=args.form), limit_inv_sq),
        ]
        if args.m > 0:
            constant = cross_resolvent_constant(args.n, args.m, args.p)
            spec = GramSpec(args.p, args.n, args.m, form=args.form)
            rows.append(("cross", "cross", spec, constant.d))
            rows.append(("cross_centered", "cross_centered", spec, constant.d))
    except ValueError as exc:
        _fail(EXIT_CONFIG, "config", exc)

    metadata = {
        "p": str(args.p),
        "n": str(args.n),
        "m": str(args.m),
        "reps": str(args.reps),
        "seed": str(args.seed),
        "form": args.form,
        "tails": args.tails,
    }
    out.write(f"# config-hash: {config_hash(metadata)}\n")
    for key in metadata:
        out.write(f"# {key}: {metadata[key]}\n")
    header = f"{'kind':<16} {'target':>12} {'mc_mean':>12} {'stderr':>12} {'rel_err':>10} {'tol':>6} status\n"
    out.write(header)
    failed = 0
    for label, kind, spec, target in rows:
        mean, stderr = mc_quadratic_form(
            spec, kind, reps=args.reps, seed=args.seed, tails=args.tails
        )
        rel_err = abs(mean - target) / abs(target)
        tol = _RMT_TOLERANCES[label]
        ok = rel_err <= tol
        failed += 0 if ok else 1
        out.write(
            f"{label:<16} {target:>12.6f} {mean:>12.6f} {stderr:>12.6f} "
            f"{rel_err:>10.6f} {tol:>6.0%} {'pass' if ok else 'FAIL'}\n"
        )
    return EXIT_OK if failed == 0 else EXIT_NUMERICAL


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gmvshrink",
        description=(
            "Dynamic shrinkage estimation of minimum-variance portfolios: "
            "simulation experiments, file backtests and estimator checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo strategy comparison")
    sim.add_argument("--scenario", required=True, choices=SCENARIOS)
    sim.add_argument("--p", required=True, type=int, help="number of assets")
    sim.add_argument("--n", required=True, type=int, help="observations per window")
    sim.add_argument("--T", type=int, default=10, help="number of rebalancing periods")
    sim.add_argument("--reps", type=int, default=200, help="Monte Carlo repetitions")
    sim.add_argument(
        "--strategies", default="1,2,3,4,5,6,7", help="comma-separated strategy ids"
    )
    sim.add_argument("--seed", required=True, type=int)
    sim.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    sim.add_argument(
        "--literal-sigma",
        action="store_true",
        help="evaluate losses against the innovation covariance even when "
        "the scenario's true return covariance differs",
    )
    sim.add_argument(
        "--raw-t5",
        action="store_true",
        help="skip the unit-variance standardization of the t(5) draws",
    )
    sim.add_argument(
        "--full",
        action="store_true",
        help=f"allow more than {DESK_SCALE_REPS} repetitions",
    )

    def add_file_args(cmd):
        cmd.add_argument("--input", required=True, help="returns CSV path")
        cmd.add_argument(
            "--strategy",
            required=True,
            choices=[str(s) for s in STRATEGY_IDS] + [EXTERNAL_STRATEGY],
        )
        cmd.add_argument("--n", required=True, type=int, help="window length in days")
        cmd.add_argument(
            "--T",
            type=int,
            default=None,
            help="number of windows (default: as many as fit)",
        )
        cmd.add_argument("--seed", required=True, type=int)
        cmd.add_argument("--drift", action="store_true", help="let holdings drift within periods")
        cmd.add_argument(
            "--weights-file",
            default=None,
            help="per-period weights CSV, required with --strategy external",
        )
        cmd.add_argument("--out", default="-", help="output path, '-' for stdout")

    bt = sub.add_parser("backtest", help="run one strategy over a returns file")
    add_file_args(bt)
    bt.add_argument(
        "--wealth-out", default=None, help="also write the per-day wealth CSV here"
    )

    wt = sub.add_parser("weights", help="export per-period weight vectors")
    add_file_args(wt)

    rmt = sub.add_parser(
        "check-rmt", help="closed-form limits vs Monte Carlo quadratic forms"
    )
    rmt.add_argument("--p", required=True, type=int)
    rmt.add_argument("--n", required=True, type=int)
    rmt.add_argument("--m", type=int, default=0, help="extension sample size (0: skip cross kinds)")
    rmt.add_argument("--reps", type=int, default=100)
    rmt.add_argument("--seed", required=True, type=int)
    rmt.add_argument("--form", choices=["centered", "uncentered"], default="centered")
    rmt.add_argument("--tails", choices=["normal", "t9"], default="normal")
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "backtest": _cmd_backtest,
    "weights": _cmd_weights,
    "check-rmt": _cmd_check_rmt,
}


def main(argv=None):
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        print(f"gmvshrink: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"gmvshrink: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
