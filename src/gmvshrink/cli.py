"""Command-line front end.

Four subcommands: ``simulate`` runs the Monte Carlo strategy comparison
and writes a loss-table CSV, ``backtest`` runs one strategy over a
returns file and writes a performance report, ``weights`` fits a
strategy on a returns file and writes its per-period weight vectors
without evaluating them, and ``check-rmt`` compares the closed-form
limits of the random quadratic forms against Monte Carlo estimates.

Every command requires an explicit ``--seed`` and is deterministic:
repeated invocations produce byte-identical output. To keep that true
across machines, linear-algebra thread pools are pinned to a single
thread before numpy loads, which is why this module must be imported
before anything that pulls numpy in.
"""

from __future__ import annotations

import argparse
import contextlib
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

from .backtest import RebalanceSchedule, evaluate_weights, fit_weights  # noqa: E402
from .core import (  # noqa: E402
    DegenerateInputError,
    DimensionError,
    InsufficientSampleError,
    SingularityError,
)
from .dataio import (  # noqa: E402
    DataFileError,
    read_external_weights,
    read_returns_csv,
    write_loss_table,
    write_metadata,
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

#: --strategy value that replays the weights CSV given with --weights-file
EXTERNAL_STRATEGY = "external"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

#: simulate refuses rep counts above this unless --full is passed
DESK_SCALE_REPS = 1000


class _ConfigError(Exception):
    """A command-line argument is out of range; nothing has been written."""


#: exit code and message kind per exception type, first match wins
#: (every library error is a ValueError, so the order matters)
_EXIT_CODES = (
    (_ConfigError, EXIT_CONFIG, "config"),
    (SingularityError, EXIT_NUMERICAL, "numerical"),
    (
        (DataFileError, OSError, InsufficientSampleError, DimensionError, DegenerateInputError),
        EXIT_DATA,
        "data",
    ),
)


@contextlib.contextmanager
def _checking_arguments():
    """Report a ValueError raised by an argument validator as a config error."""
    try:
        yield
    except ValueError as exc:
        raise _ConfigError(exc) from None


def _at_least(flag, value, least):
    if value < least:
        raise _ConfigError(f"{flag} must be at least {least}, got {value}")


def _parse_strategies(text):
    # the ids themselves are checked by ScenarioConfig
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _ConfigError(f"--strategies must be comma-separated integers, got {text!r}") from None


def _cmd_simulate(args):
    # numpy seeds are non-negative integers of any size
    _at_least("--seed", args.seed, 0)
    _refuse_bad_outputs(args)
    strategies = _parse_strategies(args.strategies)
    if args.reps > DESK_SCALE_REPS and not args.full:
        raise _ConfigError(
            f"--reps {args.reps} exceeds the desk-scale cap of {DESK_SCALE_REPS}; pass --full to run it"
        )
    with _checking_arguments():
        config = ScenarioConfig(
            scenario=args.scenario,
            p=args.p,
            n=args.n,
            periods=args.T,
            reps=args.reps,
            seed=args.seed,
            strategies=strategies,
        )
    table = run_experiment(config)
    all_failed = [s for s, failed in table.failed_reps.items() if failed == config.reps]
    if all_failed:
        raise SingularityError(f"every repetition failed for strategies {all_failed}")
    write_loss_table(table, args.out)
    return EXIT_OK


def _strategy_arg(args):
    if args.strategy == EXTERNAL_STRATEGY:
        if args.weights_file is None:
            raise _ConfigError("--strategy external requires --weights-file")
        return EXTERNAL_STRATEGY
    if args.weights_file is not None:
        raise _ConfigError("--weights-file only applies to --strategy external")
    return int(args.strategy)


def _refuse_price_levels(path, names, returns):
    """Raise DataFileError for an asset column that reads as price levels.

    A column is flagged when every cell is positive, its median cell is
    level-sized (above 0.5, which as a daily return would be +50% on a
    typical day) and its mean day-to-day move is nonzero but under a
    tenth of that median: ``0 < mean|diff| < 0.1 * median``. The mean,
    unlike the median, still sees a stale price column that moves on only
    some days. The level bound lets through a cash-like returns column,
    such as a bill yield accrued daily, whose cells are positive and
    barely change; prices quoted below 0.5 pass too. A constant column
    passes and is left to the singular-covariance check.
    """
    for i in np.flatnonzero((returns > 0.0).all(axis=1)):
        level = np.median(returns[i])
        step = np.abs(np.diff(returns[i])).mean() if returns.shape[1] > 1 else 0.0
        if level > 0.5 and 0.0 < step < 0.1 * level:
            raise DataFileError(
                f"{path}, column {names[i]!r}: every cell is positive and the mean "
                f"day-to-day change ({step:.6g}) is under a tenth of the median cell "
                f"({level:.6g}); the cells may be prices rather than returns"
            )


def _refuse_bad_outputs(args):
    """Refuse, before anything is read or written, an output path that is a
    directory, lies in a directory that does not exist, or resolves, through
    links too, to an input or to the other output; ``-`` is standard output."""
    seen = {}
    for flag in ("--input", "--weights-file", "--out", "--wealth-out"):
        path = getattr(args, flag[2:].replace("-", "_"), None)
        if path in (None, "-"):
            continue
        key = os.path.realpath(path)
        if flag in ("--out", "--wealth-out"):
            if key in seen:
                raise _ConfigError(f"{flag} {path} names the same file as {seen[key]}")
            if os.path.isdir(key):
                raise _ConfigError(f"{flag} {path} is a directory")
            if not os.path.isdir(os.path.dirname(key)):
                raise _ConfigError(f"{flag} {path} is in a directory that does not exist")
        seen[key] = flag


def _run_file_backtest(args):
    """Read the returns, then fit the strategy or read the weights file."""
    strategy = _strategy_arg(args)
    _refuse_bad_outputs(args)
    _at_least("--n", args.n, 1)
    if args.T is not None:
        _at_least("--T", args.T, 1)
    dates, names, returns = read_returns_csv(args.input)
    _refuse_price_levels(args.input, names, returns)
    p, total_days = returns.shape
    periods = args.T if args.T is not None else total_days // args.n
    if periods < 1:
        raise DataFileError(
            f"series has {total_days} observations, shorter than one window of {args.n}"
        )
    if args.n * periods > total_days:  # checked first: the schedule holds an entry per period
        raise InsufficientSampleError(
            f"series has {total_days} observations, schedule needs {args.n * periods}"
        )
    schedule = RebalanceSchedule.uniform(args.n, periods)
    target = np.full(p, 1.0 / p)
    if strategy == EXTERNAL_STRATEGY:
        history = read_external_weights(args.weights_file, asset_names=names)
    else:
        history = fit_weights(returns, strategy, schedule, target)
    metadata = {
        "command": args.command,
        "input": args.input,
        "strategy": str(args.strategy),
        "n": str(args.n),
        "T": str(periods),
        "p": str(p),
        "seed": str(args.seed),
        "drift": str(args.drift).lower(),
        "first-date": dates[0].isoformat(),
        "last-date": dates[-1].isoformat(),
    }
    return names, metadata, history, returns, schedule, target


def _cmd_backtest(args):
    _, metadata, history, returns, schedule, target = _run_file_backtest(args)
    report = evaluate_weights(returns, history, schedule, target, drift=args.drift)
    write_perf_report(report, args.out, metadata)
    if args.wealth_out is not None:
        write_wealth_csv(report.wealth_path, args.wealth_out, metadata)
    return EXIT_OK


def _cmd_weights(args):
    names, metadata, history, *_ = _run_file_backtest(args)
    write_weights_csv(history, names, args.out, metadata)
    return EXIT_OK


def _cmd_check_rmt(args):
    _at_least("--seed", args.seed, 0)
    _at_least("--reps", args.reps, 1)
    with _checking_arguments():
        # the single-window kinds draw only from p, n and form
        spec = GramSpec(args.p, args.n, args.m, form=args.form)
        limit_inv, limit_inv_sq = resolvent_limits(args.p / args.n)
        # label, kind, closed-form target and relative tolerance of each row
        rows = [
            ("resolvent", "inv", limit_inv, 0.05),
            ("resolvent_sq", "inv_sq", limit_inv_sq, 0.05),
        ]
        if args.m > 0:
            constant = cross_resolvent_constant(args.n, args.m, args.p)
            rows.append(("cross", "cross", constant.d, 0.10))
            rows.append(("cross_centered", "cross_centered", constant.d, 0.10))

    out = sys.stdout
    metadata = {
        "p": str(args.p),
        "n": str(args.n),
        "m": str(args.m),
        "reps": str(args.reps),
        "seed": str(args.seed),
        "form": args.form,
        "tails": args.tails,
    }
    write_metadata(out, metadata)
    header = f"{'kind':<16} {'target':>12} {'mc_mean':>12} {'stderr':>12} {'rel_err':>10} {'tol':>6} status\n"
    out.write(header)
    failed = 0
    for label, kind, target, tol in rows:
        mean, stderr = mc_quadratic_form(
            spec, kind, reps=args.reps, seed=args.seed, tails=args.tails
        )
        rel_err = abs(mean - target) / abs(target)
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
    sim.set_defaults(handler=_cmd_simulate)
    sim.add_argument("--scenario", required=True, choices=SCENARIOS)
    sim.add_argument("--p", required=True, type=int, help="number of assets")
    sim.add_argument("--n", required=True, type=int, help="observations per window")
    sim.add_argument("--T", type=int, default=10, help="number of rebalancing periods")
    sim.add_argument("--reps", type=int, default=200, help="Monte Carlo repetitions")
    sim.add_argument(
        "--strategies", default=",".join(map(str, STRATEGY_IDS)),
        help="comma-separated strategy ids",
    )
    sim.add_argument("--seed", required=True, type=int)
    sim.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    sim.add_argument(
        "--full",
        action="store_true",
        help=f"allow more than {DESK_SCALE_REPS} repetitions",
    )

    def add_file_args(cmd, strategies):
        cmd.add_argument("--input", required=True, help="returns CSV path")
        cmd.add_argument("--strategy", required=True, choices=strategies)
        cmd.add_argument("--n", required=True, type=int, help="window length in days")
        cmd.add_argument("--T", type=int, help="number of windows (default: as many as fit)")
        cmd.add_argument("--seed", required=True, type=int)
        cmd.add_argument("--out", default="-", help="output path, '-' for stdout")

    strategy_ids = [str(s) for s in STRATEGY_IDS]
    bt = sub.add_parser("backtest", help="run one strategy over a returns file")
    bt.set_defaults(handler=_cmd_backtest)
    add_file_args(bt, strategy_ids + [EXTERNAL_STRATEGY])
    bt.add_argument("--drift", action="store_true", help="let holdings drift within periods")
    bt.add_argument("--weights-file", help="per-period weights CSV, required with --strategy external")
    bt.add_argument("--wealth-out", help="also write the per-day wealth CSV here")

    # fitted weights do not depend on drift, and replayed ones are the input
    wt = sub.add_parser("weights", help="export per-period weight vectors")
    add_file_args(wt, strategy_ids)
    wt.set_defaults(handler=_cmd_weights, drift=False, weights_file=None)

    rmt = sub.add_parser(
        "check-rmt", help="closed-form limits vs Monte Carlo quadratic forms"
    )
    rmt.set_defaults(handler=_cmd_check_rmt)
    rmt.add_argument("--p", required=True, type=int)
    rmt.add_argument("--n", required=True, type=int)
    rmt.add_argument("--m", type=int, default=0, help="extension sample size (0: skip cross kinds)")
    rmt.add_argument("--reps", type=int, default=100)
    rmt.add_argument("--seed", required=True, type=int)
    rmt.add_argument("--form", choices=["centered", "uncentered"], default="centered")
    rmt.add_argument("--tails", choices=["normal", "t9"], default="normal")
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:
        for types, exit_code, kind in _EXIT_CODES:
            if isinstance(exc, types):
                print(f"gmvshrink: {kind} error: {' '.join(str(exc).split())}", file=sys.stderr)
                return exit_code
        raise


if __name__ == "__main__":
    sys.exit(main())
