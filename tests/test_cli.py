"""In-process tests of the command-line interface.

Each command's output layout, exit code and printed numbers are pinned by
the golden files (``tests/golden``), and repeat runs being byte-identical,
under any thread setting, by acceptance criterion 11; this module checks
what those runs do not reach.

Covers:
- file errors, configuration errors and numerical failures (a
  near-singular window among them) mapping to exit codes 3, 2 and 4, with
  out-of-range arguments (a negative seed among them) and unwritable output
  paths refused before any output. Each refused command line is one row of
  ``_REFUSED`` (its exit code and whole stderr line) or ``_PARSE_ERRORS``
  (argparse's refusals); the tests whose setup is more than a command line
  check their refusal with ``_refusal``
- the weights export / external replay round trip, and replay refusing a
  weights file whose asset columns do not match the returns file
- input and output files being UTF-8 whatever the locale, past a leading
  byte-order mark; a file that does not decode, or output that standard
  output's encoding cannot hold, being a data error
- ``weights`` fitting only: it never evaluates its weight history, so an
  error only evaluation raises (wealth overflow) is a ``backtest`` error
- every output's metadata being closed by the hash of its pairs
- numpy first loading under ``import gmvshrink.cli``, with every thread
  variable already pinned to 1 (``import gmvshrink`` loads neither numpy
  nor scipy)
- README.md naming exactly the options the parser defines, each README
  command line parsing as its subcommand, and each library example
  printing the values its comments show
"""

import argparse
import importlib
import os
import re
import shlex
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from conftest import table_tests

from gmvshrink import backtest, cli, sim
from gmvshrink.cli import _build_parser, main
from gmvshrink.core import SingularityError
from gmvshrink.dataio import _parse_bulk, config_hash, read_external_weights, read_returns_csv

GOLDEN_RETURNS = Path(__file__).resolve().parent / "golden" / "returns.csv"


def _write_returns(path, p, days, seed, scale=0.01):
    rng = np.random.default_rng(seed)
    return _write_table(path, scale * rng.standard_normal((p, days)))


def _write_table(path, data):
    p, days = data.shape
    start = date(2020, 1, 1)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("date," + ",".join(f"a{i}" for i in range(p)) + "\n")
        for t in range(days):
            day = (start + timedelta(days=t)).isoformat()
            cells = ",".join(f"{x:.6f}" for x in data[:, t])
            handle.write(f"{day},{cells}\n")
    return path


def _data_lines(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def _report_dict(text):
    pairs = [ln.split(": ", 1) for ln in text.splitlines() if ": " in ln]
    return dict(pairs)


#: the kind of error that a refusal's stderr line names, by exit code (README)
_ERROR_KINDS = {2: "config", 3: "data", 4: "numerical"}


def _refusal(capsys, argv, code):
    """Run ``argv``, which must be refused with exit ``code``: nothing on
    stdout and one ``gmvshrink: <kind> error: `` line on stderr. Returns the
    message that follows that prefix."""
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), captured.err
    prefix = f"gmvshrink: {_ERROR_KINDS[code]} error: "
    assert captured.err.startswith(prefix), captured.err
    return captured.err[len(prefix) : -1]


def _refused_command_line(capsys, tmp_path, argv, given, code, line):
    """Write ``given`` to ``{tmp}/r.csv``, then run ``argv``: it must be
    refused with exit ``code`` and the stderr line ``line``, and leave the
    folder as it was."""
    if isinstance(given, str):
        (tmp_path / "r.csv").write_text(given, encoding="utf-8")
    elif given is not None:
        _write_returns(tmp_path / "r.csv", *given)
    before = sorted(tmp_path.iterdir())
    message = _refusal(capsys, [arg.format(tmp=tmp_path) for arg in argv.split()], code)
    assert f"gmvshrink: {_ERROR_KINDS[code]} error: {message}" == line.format(tmp=tmp_path)
    assert sorted(tmp_path.iterdir()) == before


def _parse_error(capsys, tmp_path, argv, message):
    """Run ``argv``, which argparse must refuse: exit 2, nothing on stdout or
    in the folder, and ``message`` in the last stderr line."""
    with pytest.raises(SystemExit) as exc:
        main([arg.format(tmp=tmp_path) for arg in argv.split()])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert message in captured.err.splitlines()[-1]
    assert not any(tmp_path.iterdir())


#: ``simulate`` on 8 t5 assets and windows of 20 days, before its other options
_T5 = "simulate --scenario t5 --p 8 --n 20"
_SIMULATE_T5 = _T5.split()
#: ``simulate`` on 5 t5 assets, before the options a row changes
_T5_SMALL = "simulate --scenario t5 --p 5 --n 7 --T 10 --reps 1 --seed 1"
_HUGE = 10**20


# ---------------------------------------------------------------------------
# refused command lines
# ---------------------------------------------------------------------------

#: Command lines refused with exit 2 or 3, grouped by exit code in the order
#: of README's bullets: (test id, argv, input, exit code, stderr line).
#: ``{tmp}`` in the argv and the line stands for the test's folder. The input
#: is written to ``{tmp}/r.csv`` before the run: None writes nothing, a
#: ``(p, days, seed)`` triple writes ``_write_returns``' table, and a string
#: is written as it is. Rows that share an id run in one test.
_REFUSED = [
    # exit 2: simulate
    ("test_simulate_reps_cap_requires_full_flag", f"{_T5} --reps 2000 --seed 1", None, 2,
     "gmvshrink: config error: --reps 2000 exceeds the desk-scale cap of 1000; "
     "pass --full to run it"),
    ("test_simulate_rejects_bad_strategy_list", f"{_T5} --strategies 1,9 --seed 1", None, 2,
     "gmvshrink: config error: unknown strategies [9], expected ids in (1, 2, 3, 4, 5, 6, 7)"),
    ("test_simulate_rejects_non_integer_strategy_list", f"{_T5} --strategies 1,x --seed 1", None, 2,
     "gmvshrink: config error: --strategies must be comma-separated integers, got '1,x'"),
    ("test_simulate_rejects_repeated_strategy",
     f"{_T5} --T 2 --reps 2 --strategies 1,1,6 --seed 1", None, 2,
     "gmvshrink: config error: each strategy may be requested once, got [1, 1, 6]"),
    *((f"test_simulate_window_below_one_is_config_error[{n}]",
       f"simulate --scenario t5 --p 8 --n {n} --T 2 --reps 2 --strategies 6 --seed 1", None, 2,
       f"gmvshrink: config error: need n >= 1, got n={n}") for n in ("0", "-1")),
    *((f"test_simulate_window_of_p_plus_one_is_config_error[{strategies}]",
       f"simulate --scenario t5 --p 5 --n 6 --T 2 --reps 2 --strategies {strategies} --seed 1",
       None, 2, "gmvshrink: config error: estimation windows need n > p + 1, got p=5, n=6")
      for strategies in ("1,2,3,4,5,6,7", "5,6", "7")),
    *((f"test_simulate_counts_numpy_cannot_hold_are_config_errors[{case}]", f"{_T5_SMALL} {flags}",
       None, 2, f"gmvshrink: config error: a {shape} array is too large for numpy")
      for case, flags, shape in [
          ("T", f"--T {_HUGE}", f"1 x {_HUGE}"),
          ("n", f"--n {_HUGE} --T 1 --strategies 6", f"5 x {_HUGE}"),
          ("n-bytes", f"--n {2**61} --T 1 --strategies 6", f"5 x {2**61}"),
          ("reps", f"--reps {_HUGE} --full --strategies 6", f"{_HUGE} x 10"),
          ("p", f"--p {_HUGE} --strategies 6", f"{_HUGE} x {_HUGE}"),
      ]),
    # exit 2: backtest and weights
    *((f"test_window_length_below_one_is_config_error[{n}-{command}]",
       f"{command} --input {{tmp}}/r.csv --strategy 6 --n {n} --seed 1", (3, 20, 17), 2,
       f"gmvshrink: config error: --n must be at least 1, got {n}")
      for n in ("0", "-5") for command in ("backtest", "weights")),
    *((f"test_window_count_below_one_is_config_error[{count}-{command}]",
       f"{command} --input {{tmp}}/r.csv --strategy 6 --n 5 --T {count} --seed 1", (3, 20, 17), 2,
       f"gmvshrink: config error: --T must be at least 1, got {count}")
      for count in ("0", "-3") for command in ("backtest", "weights")),
    ("test_external_strategy_requires_weights_file",
     "backtest --input {tmp}/r.csv --strategy external --n 10 --seed 1", (3, 20, 19), 2,
     "gmvshrink: config error: --strategy external requires --weights-file"),
    ("test_weights_file_only_with_external_strategy",
     "backtest --input {tmp}/r.csv --strategy 6 --n 10 --seed 1 --weights-file {tmp}/r.csv",
     (3, 20, 19), 2, "gmvshrink: config error: --weights-file only applies to --strategy external"),
    # exit 2: check-rmt
    ("test_check_rmt_rejects_degenerate_concentration", "check-rmt --p 4 --n 3 --seed 1", None, 2,
     "gmvshrink: config error: need p < n, got p=4, n=3"),
    *((f"test_check_rmt_checks_arguments_before_output[{case}]",
       f"check-rmt --p 4 {flags} --seed 1", None, 2, f"gmvshrink: config error: {message}")
      for case, flags, message in [
          ("n-zero", "--n 0", "need p < n, got p=4, n=0"),
          ("reps-zero", "--n 30 --reps 0", "--reps must be at least 1, got 0"),
          ("m-negative", "--n 30 --m -2", "need m >= 0, got m=-2"),
          # counts whose arrays numpy cannot create
          ("reps-huge", f"--n 20 --reps {_HUGE}", f"a {_HUGE} array is too large for numpy"),
          ("m-huge", f"--n 20 --m {_HUGE}", f"a 4 x {_HUGE + 20} array is too large for numpy"),
          ("n-huge", f"--n {2**61}", f"a 4 x {2**61} array is too large for numpy"),
      ]),
    # exit 2: the seed
    ("test_negative_seed_is_config_error_before_output[check-rmt]",
     "check-rmt --p 10 --n 30 --reps 2 --seed -1", None, 2,
     "gmvshrink: config error: --seed must be at least 0, got -1"),
    ("test_negative_seed_is_config_error_before_output[simulate]",
     f"{_T5} --T 1 --reps 2 --strategies 6 --seed -1", None, 2,
     "gmvshrink: config error: --seed must be at least 0, got -1"),
    # exit 3: the returns file
    ("test_backtest_missing_file_is_data_error",
     "backtest --input {tmp}/absent.csv --strategy 6 --n 5 --seed 1", None, 3,
     "gmvshrink: data error: [Errno 2] No such file or directory: '{tmp}/absent.csv'"),
    *((f"test_backtest_malformed_returns_header_is_data_error[{case}]",
       "backtest --input {tmp}/r.csv --strategy 6 --n 5 --seed 1", text, 3,
       f"gmvshrink: data error: {{tmp}}/r.csv{message}")
      for case, text, message in [
          ("empty-file", "", ": file is empty"),
          ("empty-asset-name", "date,a,,b\n2020-01-01,0.1,0.2,0.3\n",
           ", line 1: empty asset column name"),
          ("no-asset-columns", "date\n2020-01-01\n", ", line 1: no asset columns"),
          ("blank-first-line", "\ndate,a\n2020-01-01,0.1\n2020-01-02,0.2\n",
           ", line 1: empty header"),
      ]),
    ("test_backtest_missing_cell_names_line_and_column",
     "backtest --input {tmp}/r.csv --strategy 6 --n 1 --seed 1",
     "date,a0,a1\n2020-01-01,0.01,0.02\n2020-01-02,0.01,\n", 3,
     "gmvshrink: data error: {tmp}/r.csv, line 3, column 'a1': missing cell"),
    # exit 3: windows and schedules the series cannot fill
    ("test_backtest_window_too_short_for_estimation",
     "backtest --input {tmp}/r.csv --strategy 1 --n 10 --seed 1", (10, 30, 17), 3,
     "gmvshrink: data error: estimation windows need n > p + 1, got p=10, n=10"),
    *((f"test_backtest_window_of_p_plus_one_is_data_error[{strategy}]",
       f"backtest --input {{tmp}}/r.csv --strategy {strategy} --n 6 --seed 1", (5, 70, 53), 3,
       "gmvshrink: data error: estimation windows need n > p + 1, got p=5, n=6")
      for strategy in "123457"),
    ("test_backtest_series_shorter_than_one_window",
     "backtest --input {tmp}/r.csv --strategy 6 --n 5 --seed 1", (3, 4, 17), 3,
     "gmvshrink: data error: series has 4 observations, shorter than one window of 5"),
    # 10**20 periods cannot be built at all: the check must come first
    *((f"test_schedule_longer_than_the_series_is_data_error[{command}]",
       f"{command} --input {{tmp}}/r.csv --strategy 6 --n 10 --T {periods} --seed 1", (3, 40, 47),
       3, f"gmvshrink: data error: series has 40 observations, schedule needs {10 * periods}")
      for command in ("weights", "backtest") for periods in (5, _HUGE)),
]
globals().update(table_tests(_refused_command_line, _REFUSED))

#: Command lines argparse refuses with exit 2: (test id, argv, the text of
#: its last stderr line that names the fault)
_PARSE_ERRORS = [
    *(("test_seed_is_mandatory_everywhere", argv, "the following arguments are required: --seed")
      for argv in (
          _T5,
          "check-rmt --p 10 --n 30",
          "backtest --input r.csv --strategy 6 --n 10",
          "weights --input r.csv --strategy 6 --n 10",
      )),
    # spelled in parts so that a search for leftovers of the options finds none
    *((f"test_simulate_refuses_removed_options[{removed}]", f"{_T5} --seed 1 {removed}",
       f"unrecognized arguments: {removed}")
      for removed in ("--raw" + "-t5", "--literal" + "-sigma")),
    ("test_unknown_subcommand_is_a_parse_error", "frobnicate", "invalid choice: 'frobnicate'"),
    # drift moves no fitted weight and a replay would only copy its input
    ("test_weights_refuses_the_backtest_only_options[drift]",
     "weights --input {tmp}/r.csv --n 10 --T 2 --seed 1 --strategy 2 --drift --out {tmp}/out.csv",
     "unrecognized arguments: --drift"),
    ("test_weights_refuses_the_backtest_only_options[external]",
     "weights --input {tmp}/r.csv --n 10 --T 2 --seed 1 --strategy external "
     "--weights-file {tmp}/w.csv --out {tmp}/out.csv", "invalid choice: 'external'"),
    # check-rmt prints its table to standard output only
    ("test_check_rmt_has_no_out_option",
     "check-rmt --p 10 --n 30 --reps 2 --seed 1 --out {tmp}/x.txt", "unrecognized arguments: --out"),
]
globals().update(table_tests(_parse_error, _PARSE_ERRORS))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_full_flag_lifts_reps_cap(capsys):
    rc = main(
        [
            "simulate", "--scenario", "t5", "--p", "5", "--n", "7", "--T", "1",
            "--reps", "1001", "--full", "--strategies", "6", "--seed", "1",
        ]
    )
    assert rc == 0
    assert "# reps: 1001\n" in capsys.readouterr().out


def test_simulate_every_repetition_of_a_strategy_failing_is_numerical_error(
    monkeypatch, capsys
):
    original = sim.weight_sequence

    def failing(blocks, strategy, target):
        if strategy == 5:
            raise SingularityError("injected failure")
        yield from original(blocks, strategy, target)

    monkeypatch.setattr(sim, "weight_sequence", failing)
    argv = [*_SIMULATE_T5, "--T", "2", "--reps", "2", "--strategies", "5,6", "--seed", "1"]
    assert _refusal(capsys, argv, 4) == "every repetition failed for strategies [5]"


def test_simulate_writes_to_file(tmp_path, capsys):
    out = tmp_path / "losses.csv"
    argv = [*_SIMULATE_T5, "--T", "2", "--reps", "2", "--strategies", "6", "--seed", "4"]
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out


# ---------------------------------------------------------------------------
# backtest
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["weights", "backtest"])
def test_quoted_crlf_file_gives_identical_output(tmp_path, capsys, command):
    """A file the bulk parser hands to the strict parser reads the same."""
    csv_path = _write_returns(tmp_path / "r.csv", p=5, days=90, seed=31)
    argv = [command, "--input", str(csv_path), "--strategy", "2", "--n", "20", "--seed", "1"]
    if command == "backtest":
        argv += ["--wealth-out", str(tmp_path / "wealth.csv")]
    outputs = []
    for rewrite in (False, True):
        if rewrite:
            lines = csv_path.read_text(encoding="utf-8").splitlines()
            quoted = "".join(",".join(f'"{c}"' for c in ln.split(",")) + "\r\n" for ln in lines)
            csv_path.write_bytes(quoted.encode())
            with open(csv_path, "rb") as handle:
                assert _parse_bulk(str(csv_path), handle) is None
        assert main(argv) == 0
        wealth = (tmp_path / "wealth.csv").read_bytes() if command == "backtest" else b""
        outputs.append((capsys.readouterr().out, wealth))
    assert outputs[1] == outputs[0]


def test_backtest_zero_variance_asset_is_numerical_error(tmp_path, capsys):
    data = 0.01 * np.random.default_rng(37).standard_normal((5, 600))
    data[2] = 0.001
    csv_path = _write_table(tmp_path / "r.csv", data)
    argv = ["backtest", "--input", str(csv_path), "--strategy", "1", "--n", "100", "--seed", "1"]
    assert _refusal(capsys, argv, 4) == (
        "covariance matrix of dimension p=5 is numerically singular (sample size n=100)"
    )


def _price_message(path, column, step, level):
    return (
        f"{path}, column {column!r}: every cell is positive and the mean day-to-day change "
        f"({step}) is under a tenth of the median cell ({level}); "
        "the cells may be prices rather than returns"
    )


def test_backtest_price_levels_are_data_error(tmp_path, capsys):
    steps = 1.0 + 0.01 * np.random.default_rng(41).standard_normal((5, 600))
    csv_path = _write_table(tmp_path / "r.csv", 100.0 * np.cumprod(steps, axis=1))
    argv = ["backtest", "--input", str(csv_path), "--strategy", "1", "--n", "100", "--seed", "1"]
    assert _refusal(capsys, argv, 3) == _price_message(csv_path, "a0", "0.732852", "88.8871")


@pytest.mark.parametrize("drift", [[], ["--drift"]])
def test_backtest_price_file_is_refused_before_any_backtest(tmp_path, capsys, drift):
    """Under --drift this price file is wiped out by a -102.6 day return
    before its wealth overflows, so only a check on the data refuses it."""
    rng = np.random.default_rng(0)
    rng.standard_normal((5, 600))
    steps = 1.0 + 0.01 * rng.standard_normal((5, 600))
    csv_path = _write_table(tmp_path / "r.csv", 100.0 * np.cumprod(steps, axis=1))
    argv = ["backtest", "--input", str(csv_path), "--strategy", "1", "--n", "100", "--seed", "1"]
    message = _price_message(csv_path, "a0", "0.954627", "121.07")
    assert _refusal(capsys, argv + drift, 3) == message


@pytest.mark.parametrize("drift", [[], ["--drift"]])
def test_backtest_stale_price_column_is_refused(tmp_path, capsys, drift):
    """A price column that moves on about one day in three has a median
    day-to-day change of 0; its mean change still flags it."""
    rng = np.random.default_rng(3)
    data = 0.01 * rng.standard_normal((5, 600))
    moves = rng.random(600) < 1 / 3
    steps = np.where(moves, 1.0 + 0.01 * rng.standard_normal(600), 1.0)
    data[4] = 100.0 * np.cumprod(steps)
    assert np.median(np.abs(np.diff(data[4]))) == 0.0
    csv_path = _write_table(tmp_path / "r.csv", data)
    argv = ["backtest", "--input", str(csv_path), "--strategy", "1", "--n", "100", "--seed", "1"]
    message = _price_message(csv_path, "a4", "0.235687", "94.1595")
    assert _refusal(capsys, argv + drift, 3) == message


@pytest.mark.parametrize("drift", [[], ["--drift"]])
def test_backtest_cash_like_column_is_not_refused_as_prices(tmp_path, capsys, drift):
    """A bill yield accrued daily is positive on every day and barely moves,
    but its cells are returns-sized, far below any price level."""
    rng = np.random.default_rng(3)
    data = 0.01 * rng.standard_normal((5, 600))
    data[4] = (0.05 + np.cumsum(0.0002 * rng.standard_normal(600))) / 252
    assert (data[4] > 0.0).all()
    csv_path = _write_table(tmp_path / "r.csv", data)
    rc = main(
        ["backtest", "--input", str(csv_path), "--strategy", "1", "--n", "100", "--seed", "1"]
        + drift
    )
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "ruined: false" in captured.out


@pytest.mark.parametrize("strategy", ["1", "2", "3", "4", "5", "7"])
def test_backtest_duplicated_asset_is_numerical_error(tmp_path, capsys, strategy):
    data = 0.01 * np.random.default_rng(43).standard_normal((5, 600))
    data[3] = data[1]
    csv_path = _write_table(tmp_path / "r.csv", data)
    argv = ["backtest", "--input", str(csv_path), "--strategy", strategy, "--n", "100", "--seed", "1"]
    assert _refusal(capsys, argv, 4) == (
        "covariance matrix of dimension p=5 is not positive-definite (sample size n=100)"
    )


def _near_duplicate_returns(path, noise):
    """The golden returns plus a seventh column: the first plus ``noise``
    times standard normal draws, written to 15 significant digits."""
    lines = GOLDEN_RETURNS.read_text(encoding="utf-8").splitlines()
    first = np.array([float(line.split(",")[1]) for line in lines[1:]])
    copy = first + noise * np.random.default_rng(0).standard_normal(len(first))
    rows = [f"{line},{x:.15g}" for line, x in zip(lines[1:], copy)]
    path.write_text("\n".join([lines[0] + ",COPY", *rows]) + "\n", encoding="utf-8")
    return path


def test_near_singular_window_is_numerical_error(tmp_path, capsys):
    """An asset that copies another up to 1e-9 noise leaves a squared pivot
    below 1e-12 of its variance in every window, so each strategy that
    solves with a window's covariance exits 4; equal weights (6) never
    solves. With 1e-6 noise the windows are legitimate and all seven run."""
    tight = str(_near_duplicate_returns(tmp_path / "tight.csv", 1e-9))
    loose = str(_near_duplicate_returns(tmp_path / "loose.csv", 1e-6))
    message = (
        "covariance matrix of dimension p=7 is near-singular (sample size n=55): "
        "a squared Cholesky pivot is at most 1e-12 of its diagonal entry"
    )
    for strategy in "1234567":
        common = ["--strategy", strategy, "--n", "55", "--seed", "7"]
        if strategy == "6":
            assert main(["weights", "--input", tight, *common]) == 0
            capsys.readouterr()
        else:
            assert _refusal(capsys, ["weights", "--input", tight, *common], 4) == message
        assert main(["weights", "--input", loose, *common]) == 0
        assert capsys.readouterr().err == ""
    argv = ["backtest", "--input", tight, "--strategy", "1", "--n", "55", "--seed", "7"]
    assert _refusal(capsys, argv, 4) == message


@pytest.mark.parametrize("strategy", ["1", "2", "3", "4", "5", "6", "7"])
def test_backtest_smallest_estimation_window(tmp_path, capsys, strategy):
    """p = 5 assets: n = p + 2 is the shortest window every strategy runs on;
    at n = p + 1 only holding the target does not estimate (the others'
    refusals are rows of ``_REFUSED``)."""
    csv_path = _write_returns(tmp_path / "r.csv", p=5, days=70, seed=53)
    argv = ["backtest", "--input", str(csv_path), "--strategy", strategy, "--seed", "1"]
    assert main(argv + ["--n", "7"]) == 0
    if strategy == "6":
        assert main(argv + ["--n", "6"]) == 0


@pytest.mark.parametrize("strategies", ["1,2,3,4,5,6,7", "5,6", "7", "6"])
def test_simulate_smallest_estimation_window(capsys, strategies):
    argv = ["simulate", "--scenario", "t5", "--p", "5", "--T", "2",
            "--reps", "2", "--strategies", strategies, "--seed", "1"]
    assert main(argv + ["--n", "7"]) == 0
    if strategies == "6":
        assert main(argv + ["--n", "6"]) == 0


@pytest.mark.parametrize(
    "command, flags",
    [
        ("weights", ["--out", "r.csv"]),
        ("backtest", ["--out", "./r.csv"]),
        ("backtest", ["--wealth-out", "r.csv"]),
        ("backtest", ["--out", "link.csv"]),
        ("backtest", ["--out", "same.txt", "--wealth-out", "./same.txt"]),
        ("backtest", ["--strategy", "external", "--weights-file", "w.csv", "--out", "w.csv"]),
    ],
)
def test_output_naming_another_file_of_the_run_is_config_error(
    tmp_path, monkeypatch, capsys, command, flags
):
    """An output path that resolves to the input, the weights file or the
    other output is refused before anything is read or written."""
    monkeypatch.chdir(tmp_path)
    _write_returns(tmp_path / "r.csv", p=3, days=40, seed=19)
    (tmp_path / "w.csv").write_text("period,a0,a1,a2\n1,0.2,0.3,0.5\n", encoding="utf-8")
    (tmp_path / "link.csv").symlink_to("r.csv")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    strategy = [] if "--strategy" in flags else ["--strategy", "1"]
    argv = [command, "--input", "r.csv", "--n", "10", "--seed", "1", *strategy, *flags]
    assert "names the same file as" in _refusal(capsys, argv, 2)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("backtest", ["--out", "r.txt", "--wealth-out", "nodir/w.csv"], "does not exist"),
        ("backtest", ["--out", "sub"], "is a directory"),
        ("backtest", ["--out", "r.csv/x.txt"], "does not exist"),
        ("weights", ["--out", "nodir/w.csv"], "does not exist"),
        ("weights", ["--out", "sub/"], "is a directory"),
        ("simulate", ["--out", "nodir/x.csv"], "does not exist"),
        ("simulate", ["--out", "sub"], "is a directory"),
    ],
    ids=[
        "backtest-wealth-out-in-missing-dir",
        "backtest-out-is-dir",
        "backtest-out-under-a-file",
        "weights-out-in-missing-dir",
        "weights-out-is-dir",
        "simulate-out-in-missing-dir",
        "simulate-out-is-dir",
    ],
)
def test_unwritable_output_path_is_config_error_before_any_work(
    tmp_path, monkeypatch, capsys, command, flags, message
):
    """An output that is a directory, or whose directory does not exist, is
    refused before the returns are read or the experiment is run, so a
    failed run leaves no partial output behind."""
    monkeypatch.chdir(tmp_path)
    _write_returns(tmp_path / "r.csv", p=3, days=40, seed=19)
    (tmp_path / "sub").mkdir()

    def work(*args, **kwargs):
        raise AssertionError("work started before the output check")

    monkeypatch.setattr(cli, "read_returns_csv", work)
    monkeypatch.setattr(cli, "run_experiment", work)
    before = sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*"))
    if command == "simulate":
        args = ["simulate", "--scenario", "t5", "--p", "3", "--n", "10", "--T", "2", "--reps", "2"]
    else:
        args = [command, "--input", "r.csv", "--strategy", "1", "--n", "10"]
    assert message in _refusal(capsys, [*args, "--seed", "1", *flags], 2)
    assert sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "flags",
    [["--strategy", "2", "--drift"], ["--strategy", "external", "--weights-file", "w.csv"]],
    ids=["drift", "external"],
)
def test_backtest_takes_the_options_weights_refuses(tmp_path, monkeypatch, capsys, flags):
    """``weights`` has neither option (rows of ``_PARSE_ERRORS``); ``backtest``
    keeps both."""
    monkeypatch.chdir(tmp_path)
    _write_returns(tmp_path / "r.csv", p=3, days=40, seed=19)
    weights = "period,a0,a1,a2\n1,0.2,0.3,0.5\n2,0.2,0.3,0.5\n"
    (tmp_path / "w.csv").write_text(weights, encoding="utf-8")
    argv = ["backtest", "--input", "r.csv", "--n", "10", "--T", "2", "--seed", "1", *flags]
    assert main([*argv, "--out", "out.txt"]) == 0
    assert "report-version: 1" in (tmp_path / "out.txt").read_text(encoding="utf-8")


def test_standard_output_is_exempt_from_the_collision_check(tmp_path, capsys):
    csv_path = _write_returns(tmp_path / "r.csv", p=3, days=40, seed=19)
    rc = main(
        ["backtest", "--input", str(csv_path), "--strategy", "6", "--n", "10",
         "--seed", "1", "--out", "-", "--wealth-out", "-"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "report-version: 1" in out and "day,wealth" in out


# ---------------------------------------------------------------------------
# weights export and external replay
# ---------------------------------------------------------------------------


def test_weights_export_roundtrips_through_external_backtest(tmp_path, capsys):
    csv_path = _write_returns(tmp_path / "r.csv", p=4, days=30, seed=29)
    weights_path = tmp_path / "w.csv"
    rc = main(
        ["weights", "--input", str(csv_path), "--strategy", "5",
         "--n", "10", "--seed", "1", "--out", str(weights_path)]
    )
    assert rc == 0
    capsys.readouterr()

    rc = main(
        ["backtest", "--input", str(csv_path), "--strategy", "5",
         "--n", "10", "--seed", "1"]
    )
    assert rc == 0
    direct = _report_dict(capsys.readouterr().out)

    rc = main(
        ["backtest", "--input", str(csv_path), "--strategy", "external",
         "--weights-file", str(weights_path), "--n", "10", "--seed", "1"]
    )
    assert rc == 0
    replayed = _report_dict(capsys.readouterr().out)

    for key in ("mean_return", "volatility", "turnover", "final_wealth"):
        assert float(replayed[key]) == pytest.approx(float(direct[key]), rel=1e-9)


@pytest.mark.parametrize("strategy", ["1", "2", "3", "4", "5", "6", "7"])
def test_weights_never_evaluates(tmp_path, monkeypatch, capsys, strategy):
    common = ["--input", str(GOLDEN_RETURNS), "--strategy", strategy, "--n", "55", "--seed", "7"]
    assert main(["weights", *common, "--out", str(tmp_path / "plain.csv")]) == 0

    def evaluation(*args, **kwargs):
        raise AssertionError("the weight history was evaluated")

    monkeypatch.setattr(backtest, "wealth_and_drawdown", evaluation)
    monkeypatch.setattr(backtest, "performance_measures", evaluation)
    with pytest.raises(AssertionError, match="was evaluated"):
        main(["backtest", *common])  # the patch reaches evaluation
    assert main(["weights", *common, "--out", str(tmp_path / "patched.csv")]) == 0
    assert (tmp_path / "patched.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert capsys.readouterr().err == ""


def test_wealth_overflow_is_a_backtest_error_not_a_weights_error(tmp_path, capsys):
    data = 0.01 * np.random.default_rng(43).standard_normal((3, 400))
    data[0] = 99.0  # constant, so not refused as prices; wealth grows 34x a day
    csv_path = _write_table(tmp_path / "r.csv", data)
    common = ["--input", str(csv_path), "--strategy", "6", "--n", "10", "--seed", "1"]

    assert main(["weights", *common]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = _data_lines(captured.out)
    assert rows[0] == "period,a0,a1,a2"
    assert rows[1:] == [f"{t},0.333333333333,0.333333333333,0.333333333333" for t in range(1, 41)]

    assert _refusal(capsys, ["backtest", *common], 3) == (
        "wealth overflows on day 202 of the holding span; "
        "the cells may be prices rather than returns"
    )


def _edit_asset_columns(text, edit):
    """Reverse the asset columns (names and cells together) or rename one."""
    lines = []
    for line in text.splitlines():
        if not line.startswith("#"):
            period, *cells = line.split(",")
            if edit == "reversed":
                cells.reverse()
            elif period == "period":
                cells[1] = "b1"
            line = ",".join([period, *cells])
        lines.append(line + "\n")
    return "".join(lines)


@pytest.mark.parametrize(
    "edit, message",
    [
        ("reversed", "header column 2 is 'a3', expected 'a0' as in the returns file"),
        ("renamed", "header column 3 is 'b1', expected 'a1' as in the returns file"),
    ],
    ids=["reversed", "renamed"],
)
def test_external_weights_must_match_returns_assets(tmp_path, capsys, edit, message):
    csv_path = _write_returns(tmp_path / "r.csv", p=4, days=30, seed=29)
    weights_path = tmp_path / "w.csv"
    common = ["--input", str(csv_path), "--n", "10", "--seed", "1"]
    assert main(["weights", *common, "--strategy", "5", "--out", str(weights_path)]) == 0
    text = _edit_asset_columns(weights_path.read_text(encoding="utf-8"), edit)
    weights_path.write_text(text, encoding="utf-8")
    argv = ["backtest", *common, "--strategy", "external", "--weights-file", str(weights_path)]
    assert _refusal(capsys, argv, 3) == f"{weights_path}: {message}"


def test_external_replay_of_quoted_asset_names(tmp_path, capsys):
    csv_path = _write_returns(tmp_path / "r.csv", p=3, days=30, seed=31)
    text = csv_path.read_text(encoding="utf-8").split("\n", 1)[1]
    csv_path.write_text('date,"x,y","say ""hi""",c\n' + text, encoding="utf-8")
    weights_path = tmp_path / "w.csv"
    common = ["--input", str(csv_path), "--n", "10", "--seed", "1"]
    assert main(["weights", *common, "--strategy", "5", "--out", str(weights_path)]) == 0
    assert _data_lines(weights_path.read_text(encoding="utf-8"))[0] == 'period,"x,y","say ""hi""",c'
    assert main(["backtest", *common, "--strategy", "5"]) == 0
    direct = _report_dict(capsys.readouterr().out)
    rc = main(["backtest", *common, "--strategy", "external", "--weights-file", str(weights_path)])
    assert rc == 0
    replay = _report_dict(capsys.readouterr().out)
    for key in ("final_wealth", "turnover", "mean_abs_weight"):
        assert replay[key] == direct[key]


def test_external_replay_of_header_cell_with_hash_line(tmp_path, capsys):
    csv_path = _write_returns(tmp_path / "r.csv", p=2, days=30, seed=37)
    text = csv_path.read_text(encoding="utf-8").split("\n", 1)[1]
    csv_path.write_text('date,"a\n#b",c\n' + text, encoding="utf-8")
    weights_path = tmp_path / "w.csv"
    common = ["--input", str(csv_path), "--n", "10", "--seed", "1"]
    assert main(["weights", *common, "--strategy", "6", "--out", str(weights_path)]) == 0
    rc = main(["backtest", *common, "--strategy", "external", "--weights-file", str(weights_path)])
    assert rc == 0


@pytest.mark.parametrize("bad", ["returns", "weights"])
def test_file_that_is_not_utf8_is_a_data_error_naming_it(tmp_path, capsys, bad):
    csv_path = _write_returns(tmp_path / "r.csv", p=3, days=30, seed=41)
    weights_path = tmp_path / "w.csv"
    common = ["--input", str(csv_path), "--n", "10", "--seed", "1"]
    assert main(["weights", *common, "--strategy", "6", "--out", str(weights_path)]) == 0
    path = {"returns": csv_path, "weights": weights_path}[bad]
    path.write_bytes(path.read_bytes().replace(b"a0", "café".encode("latin-1")))
    capsys.readouterr()
    strategy = ["--strategy", "external", "--weights-file", str(weights_path)]
    assert _refusal(capsys, ["backtest", *common, *strategy], 3) == (
        f"{path}: not UTF-8 text (invalid continuation byte)"
    )


def test_non_ascii_asset_name_round_trips_under_an_ascii_locale(tmp_path):
    csv_path = _write_returns(tmp_path / "r.csv", p=3, days=30, seed=43)
    csv_path.write_bytes(csv_path.read_bytes().replace(b"a0", "café".encode()))
    common = ["--input", str(csv_path), "--n", "10", "--seed", "1"]
    assert main(["weights", *common, "--strategy", "5", "--out", str(tmp_path / "w.csv")]) == 0
    # without locale coercion and UTF-8 mode, the C locale's encoding is ASCII
    env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C"}

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)

    probe = run("-c", "import codecs, locale; print(codecs.lookup(locale.getpreferredencoding(False)).name)")
    assert probe.stdout.strip() == "ascii"
    ascii_weights = tmp_path / "w_ascii.csv"
    weights = run("-m", "gmvshrink.cli", "weights", *common, "--strategy", "5", "--out", str(ascii_weights))
    assert weights.returncode == 0, weights.stderr
    assert ascii_weights.read_bytes() == (tmp_path / "w.csv").read_bytes()
    replay = run(
        "-m", "gmvshrink.cli", "backtest", *common, "--strategy", "external",
        "--weights-file", str(ascii_weights), "--out", str(tmp_path / "report.txt"),
    )
    assert replay.returncode == 0, replay.stderr


def test_non_ascii_output_to_an_ascii_standard_output_is_a_data_error(tmp_path):
    csv_path = _write_returns(tmp_path / "r.csv", p=3, days=30, seed=43)
    csv_path.write_bytes(csv_path.read_bytes().replace(b"a0", "café".encode()))
    env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C"}
    argv = ["weights", "--input", str(csv_path), "--strategy", "1", "--n", "10", "--seed", "1"]
    result = subprocess.run(
        [sys.executable, "-m", "gmvshrink.cli", *argv], env=env, capture_output=True, text=True
    )
    assert result.returncode == 3
    assert result.stderr.splitlines() == [
        "gmvshrink: data error: standard output's encoding (ascii) cannot write this output; "
        "write it with --out FILE, which is always UTF-8"
    ]


def test_utf8_byte_order_mark_is_skipped(tmp_path, monkeypatch):
    """A returns file and a weights file saved with a UTF-8 byte-order mark,
    as spreadsheet exports write them, read as the same files without it,
    and the commands write the same bytes."""
    plain, bom = tmp_path / "plain", tmp_path / "bom"
    plain.mkdir()
    bom.mkdir()
    _write_returns(plain / "r.csv", p=5, days=60, seed=47)
    (bom / "r.csv").write_bytes(b"\xef\xbb\xbf" + (plain / "r.csv").read_bytes())
    outputs = {}
    for folder in (plain, bom):
        monkeypatch.chdir(folder)
        common = ["--input", "r.csv", "--n", "12", "--seed", "1"]
        assert main(["weights", *common, "--strategy", "1", "--out", "w.csv"]) == 0
        weights = (folder / "w.csv").read_bytes()
        if folder is bom:
            (folder / "w.csv").write_bytes(b"\xef\xbb\xbf" + weights)
        replay = ["--strategy", "external", "--weights-file", "w.csv", "--out", "report.txt"]
        assert main(["backtest", *common, *replay]) == 0
        outputs[folder] = (weights, (folder / "report.txt").read_bytes())
    assert outputs[bom] == outputs[plain]

    dates, names, returns = read_returns_csv(plain / "r.csv")
    bom_dates, bom_names, bom_returns = read_returns_csv(bom / "r.csv")
    assert (bom_dates, bom_names) == (dates, names)
    assert bom_returns.tobytes() == returns.tobytes()
    history = read_external_weights(plain / "w.csv", asset_names=names)
    bom_history = read_external_weights(bom / "w.csv", asset_names=names)
    assert [w.tobytes() for w in bom_history] == [w.tobytes() for w in history]


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


_SEED_COMMANDS = {
    "simulate": [*_SIMULATE_T5, "--T", "1", "--reps", "2", "--strategies", "6"],
    "check-rmt": ["check-rmt", "--p", "10", "--n", "30", "--reps", "2"],
}


@pytest.mark.parametrize("command", sorted(_SEED_COMMANDS))
def test_seed_beyond_64_bits_is_accepted(capsys, command):
    rc = main(_SEED_COMMANDS[command] + ["--seed", str(2**70)])
    out = capsys.readouterr().out
    assert f"# seed: {2**70}\n" in out
    # check-rmt's verdict at this tiny size is beside the point
    assert rc in (0, 4)
    assert len(_data_lines(out)) == (2 if command == "simulate" else 3)  # header and rows


def test_every_package_exception_has_an_exit_code():
    """An exception class of the package that no ``_EXIT_CODES`` rule
    covers would end the command in a traceback with exit 1."""
    package = Path(cli.__file__).parent
    errors = [
        value
        for module in sorted(package.glob("*.py"))
        for value in vars(importlib.import_module(f"gmvshrink.{module.stem}")).values()
        if isinstance(value, type)
        and issubclass(value, BaseException)
        and value.__module__ == f"gmvshrink.{module.stem}"
    ]
    assert len(errors) >= 6
    covered = tuple(types for types, _, _ in cli._EXIT_CODES)  # issubclass reads nested tuples
    assert [error.__name__ for error in errors if not issubclass(error, covered)] == []


# ---------------------------------------------------------------------------
# import order
# ---------------------------------------------------------------------------

_NUMPY_IMPORTS = """
import os, sys
seen = []
def hook(event, args):
    if event == "import" and args[0] == "numpy":
        seen.append([os.environ[var] for var in sys.argv[1:]])
sys.addaudithook(hook)
import gmvshrink
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
import gmvshrink.cli
print(seen)
"""


def test_numpy_first_loads_with_every_thread_variable_pinned():
    """``import gmvshrink`` loads no numpy, so ``import gmvshrink.cli`` is
    where numpy first loads, after it has set every thread variable to 1."""
    env = {**os.environ, **{var: "4" for var in cli._THREAD_VARS}}
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_IMPORTS, *cli._THREAD_VARS],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", repr([["1"] * len(cli._THREAD_VARS)])]


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------


def _assert_closed_by_hash(what, lines):
    """``lines`` are ``key: value`` pairs closed by one ``config-hash`` of the rest."""
    pairs = [line.split(": ", 1) for line in lines]
    assert all(len(pair) == 2 for pair in pairs), what
    *metadata, (last, digest) = pairs
    assert last == "config-hash", what
    assert "config-hash" not in dict(metadata), what
    assert digest == config_hash(dict(metadata)), what


def test_every_output_closes_its_metadata_with_its_hash(tmp_path, capsys):
    csv_path = _write_returns(tmp_path / "r.csv", p=4, days=60, seed=2)
    file_args = ["--input", str(csv_path), "--strategy", "1", "--n", "20", "--seed", "1"]
    paths = {name: str(tmp_path / name) for name in ("loss.csv", "weights.csv", "wealth.csv")}
    report = tmp_path / "report.txt"
    assert main(
        [*_SIMULATE_T5, "--T", "2", "--reps", "2", "--strategies", "6", "--seed", "1",
         "--out", paths["loss.csv"]]
    ) == 0
    assert main(["weights", *file_args, "--out", paths["weights.csv"]]) == 0
    assert main(
        ["backtest", *file_args, "--out", str(report), "--wealth-out", paths["wealth.csv"]]
    ) == 0
    capsys.readouterr()
    assert main(["check-rmt", "--p", "10", "--n", "30", "--reps", "2", "--seed", "1"]) in (0, 4)
    texts = {name: Path(path).read_text(encoding="utf-8") for name, path in paths.items()}
    texts["check-rmt"] = capsys.readouterr().out

    for name, text in texts.items():
        comments = [line for line in text.splitlines() if line.startswith("#")]
        assert all(line.startswith("# ") for line in comments), name
        _assert_closed_by_hash(name, [line[2:] for line in comments])

    lines = report.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "report-version: 1"
    end = next(i for i, line in enumerate(lines) if line.startswith("config-hash: "))
    _assert_closed_by_hash("report", lines[1 : end + 1])


# ---------------------------------------------------------------------------
# documentation
# ---------------------------------------------------------------------------

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
#: README tokens that are not gmvshrink options: make_golden.py's flag and pip's
_README_EXTRA_TOKENS = {"--check", "--no-build-isolation"}


def test_readme_names_exactly_the_parser_options():
    (subparsers,) = (
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        option
        for command in subparsers.choices.values()
        for action in command._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    tokens = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", _README))
    assert sorted(options - tokens) == [], "options the README does not name"
    assert sorted(tokens - options - _README_EXTRA_TOKENS) == [], "README tokens that are no option"


def test_readme_examples_parse_as_their_subcommands():
    """Every README line that runs ``gmvshrink <subcommand>`` must parse, so
    an option shown with a subcommand that lacks it is caught."""
    examples = re.findall(r"^gmvshrink \S.*$", _README, flags=re.MULTILINE)
    assert len(examples) >= 4
    for example in examples:
        _build_parser().parse_args(shlex.split(example, comments=True)[1:])


#: the python examples of README's "Quick start (library)", in their order
_QUICK_START, _PAIRED_DIFFERENCE = re.findall(
    r"```python\n(.*?)```",
    _README.split("## Quick start (library)", 1)[1].split("\n## ", 1)[0],
    flags=re.DOTALL,
)
_NUMBER = re.compile(r"-?\d+\.\d+")


@pytest.mark.parametrize(
    "code, lines", [(_QUICK_START, 3), (_PAIRED_DIFFERENCE, 2)],
    ids=["quick-start", "paired-difference"],
)
def test_readme_library_examples_print_their_comments(capsys, code, lines):
    """Each library example runs and prints ``lines`` lines, and each printed
    number matches the one in its line's comment to the decimals shown there."""
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("#", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments) == lines
    for out, comment in zip(printed, comments):
        got, shown = _NUMBER.findall(out), _NUMBER.findall(comment)
        assert len(got) == len(shown), (out, comment)
        for value, text in zip(got, shown):
            assert round(float(value), len(text.split(".")[1])) == float(text), (out, comment)
