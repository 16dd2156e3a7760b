"""Write, or check, the golden command-line outputs kept in this directory.

Usage, from any working directory:

    python tests/golden/make_golden.py           # rewrite every golden output
    python tests/golden/make_golden.py --check   # compare byte for byte; exit 1 on a difference

``--check`` names each file that differs with the largest relative change
among its numbers, or ``text differs`` when the text around them moved.

:data:`COMMANDS` is the one list of commands. Each runs in-process through
``gmvshrink.cli.main`` with this directory as the working directory, so the
inputs are named by the same relative paths (``returns.csv``,
``external_weights.csv``) wherever the checkout lives, and so are the
``input:`` metadata lines and the config hashes that cover them. The
package is imported before numpy, as the command line does, so the BLAS
thread pools are pinned to one thread.

The two inputs are written from a fixed seed only when they are missing;
they are kept in the repository, so the outputs do not depend on the
random generator of a later numpy. ``tests/test_golden.py`` reruns every
command and compares the outputs with these files: non-numeric text
exactly, numeric cells within a relative tolerance.

A change that alters outputs on purpose regenerates the files in the same
diff and records which files changed, by how much and why.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

import gmvshrink.cli as cli  # noqa: E402,I001  (first: pins BLAS threads)

import numpy as np  # noqa: E402

RETURNS = "returns.csv"
EXTERNAL = "external_weights.csv"
ASSETS = ("ALFA", "BRAV", "CHAR", "DELT", "ECHO", "FOXT")
DAYS = 600
#: backtest window: ten windows of 55 days, then 50 days held with the last weights
WINDOW = "55"

#: a number standing on its own, not part of a word such as a config hash
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


class Command(NamedTuple):
    """One CLI run: its arguments, ``{out}`` standing for the output directory,
    the file its standard output is kept in, if any, and its exit code."""

    argv: tuple
    stdout: str | None = None
    exit: int = 0

    @property
    def outputs(self):
        """Names of the files the command leaves in the output directory."""
        written = [a.split("/", 1)[1] for a in self.argv if a.startswith("{out}/")]
        return ([self.stdout] if self.stdout else []) + written

    @property
    def name(self):
        return self.outputs[0].rsplit(".", 1)[0]


def _commands():
    commands = []
    for scenario in ("t5", "capm", "ccc_garch", "varma"):
        commands.append(Command((
            "simulate", "--scenario", scenario, "--p", "10", "--n", "30", "--T", "4",
            "--reps", "3", "--seed", "11", "--out", f"{{out}}/simulate_{scenario}.csv",
        )))
    for form in ("centered", "uncentered"):
        for tails in ("normal", "t9"):
            # at this size the centered form misses the resolvent_sq limit by
            # more than its 5% tolerance, so those runs exit 4 with a FAIL row
            commands.append(Command((
                "check-rmt", "--p", "20", "--n", "80", "--m", "80", "--reps", "100",
                "--seed", "5", "--form", form, "--tails", tails,
            ), stdout=f"check_rmt_{form}_{tails}.txt", exit=4 if form == "centered" else 0))
    for strategy in range(1, 8):
        common = ("--input", RETURNS, "--strategy", str(strategy), "--n", WINDOW, "--seed", "7")
        # weights has no --drift: holdings drifting between rebalances move no fitted weight
        commands.append(Command(("weights", *common, "--out", f"{{out}}/weights_s{strategy}.csv")))
        for drift in ((), ("--drift",)):
            tag = f"s{strategy}{'_drift' if drift else ''}"
            commands.append(Command((
                "backtest", *common, *drift, "--out", f"{{out}}/backtest_{tag}.txt",
                "--wealth-out", f"{{out}}/backtest_{tag}_wealth.csv",
            )))
    commands.append(Command((
        "backtest", "--input", RETURNS, "--strategy", "external", "--weights-file", EXTERNAL,
        "--n", WINDOW, "--seed", "7", "--drift",
        "--out", "{out}/backtest_external_drift.txt",
        "--wealth-out", "{out}/backtest_external_drift_wealth.csv",
    )))
    return tuple(commands)


COMMANDS = _commands()


def run(command, out_dir):
    """Run one command into ``out_dir``; raise unless it exits as listed."""
    argv = [arg.format(out=out_dir) for arg in command.argv]
    captured = io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    if code != command.exit:
        raise RuntimeError(f"{' '.join(argv)} exited {code}, expected {command.exit}")
    if command.stdout:
        with open(Path(out_dir) / command.stdout, "w", newline="") as handle:
            handle.write(captured.getvalue())


def describe_change(got, want):
    """The largest relative change from the numbers of text ``want`` to
    those of ``got``, or ``text differs`` when the rest of the text moved."""
    if NUMBER.split(got) != NUMBER.split(want):
        return "text differs"
    largest = 0.0
    for a, b in zip(map(float, NUMBER.findall(got)), map(float, NUMBER.findall(want))):
        if a != b:
            largest = max(largest, abs(a - b) / abs(b) if b else math.inf)
    return f"largest relative change {largest:.2g}"


def write_inputs():
    """Write the returns file and the external weights file if missing.

    The returns follow one market factor with asset loadings from 0.6 to
    1.4. The external weights leave 5-30% of the portfolio in cash, so a
    drift replay exercises the cash leg that built-in strategies never use.
    """
    rng = np.random.default_rng(20240601)
    # both inputs are drawn every time, so either one can be rewritten alone
    loadings = np.linspace(0.6, 1.4, len(ASSETS))
    market = 0.0004 + 0.01 * rng.standard_normal(DAYS)
    returns = market[:, None] * loadings + 0.008 * rng.standard_normal((DAYS, len(ASSETS)))
    periods = DAYS // int(WINDOW)
    raw = rng.uniform(-0.1, 1.0, size=(periods, len(ASSETS)))
    weights = raw / raw.sum(axis=1, keepdims=True) * rng.uniform(0.7, 0.95, size=(periods, 1))
    if not (HERE / RETURNS).exists():
        day = np.datetime64("2001-01-02")
        with open(HERE / RETURNS, "w", newline="") as handle:
            handle.write("date," + ",".join(ASSETS) + "\n")
            for row in returns:
                handle.write(f"{day},{','.join(f'{x:.6f}' for x in row)}\n")
                day = np.busday_offset(day, 1, roll="forward")
    if not (HERE / EXTERNAL).exists():
        with open(HERE / EXTERNAL, "w", newline="") as handle:
            handle.write("# weights leaving part of the portfolio in cash\n")
            handle.write("period," + ",".join(ASSETS) + "\n")
            for period, row in enumerate(weights, start=1):
                handle.write(f"{period},{','.join(f'{w:.6f}' for w in row)}\n")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--check"]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    if not argv:
        write_inputs()
        for command in COMMANDS:
            run(command, HERE)
        print(f"wrote {sum(len(c.outputs) for c in COMMANDS)} files to {HERE}")
        return 0
    differ = []
    with tempfile.TemporaryDirectory() as scratch:
        for command in COMMANDS:
            run(command, scratch)
            for name in command.outputs:
                got, want = (Path(scratch) / name).read_bytes(), (HERE / name).read_bytes()
                if got != want:
                    differ.append(f"{name}: {describe_change(got.decode(), want.decode())}")
    for line in differ:
        print(f"differs: {line}")
    print(f"{len(differ)} of {sum(len(c.outputs) for c in COMMANDS)} golden files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
