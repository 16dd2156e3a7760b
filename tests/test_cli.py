"""In-process tests of the command-line interface.

Covers:
- output layout of each subcommand
- repeat invocations being byte-identical
- file errors, configuration errors and numerical failures mapping to
  exit codes 3, 2 and 4
- the weights export / external replay round trip
"""

from datetime import date, timedelta

import numpy as np
import pytest

from gmvshrink.cli import main

LOSS_HEADER = "scenario,strategy,period,c,mean_loss,stderr,failed_reps"


def _write_returns(path, p, days, seed, scale=0.01):
    rng = np.random.default_rng(seed)
    data = scale * rng.standard_normal((p, days))
    start = date(2020, 1, 1)
    with open(path, "w") as handle:
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


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_one_row_per_strategy_and_period(capsys):
    rc = main(
        [
            "simulate", "--scenario", "t5", "--p", "8", "--n", "20",
            "--T", "10", "--reps", "3", "--strategies", "1,5,6,7", "--seed", "1",
        ]
    )
    assert rc == 0
    lines = _data_lines(capsys.readouterr().out)
    assert lines[0] == LOSS_HEADER
    assert len(lines) == 1 + 4 * 10


def test_simulate_is_byte_identical_across_runs(capsys):
    argv = [
        "simulate", "--scenario", "varma", "--p", "6", "--n", "16",
        "--T", "3", "--reps", "2", "--strategies", "5,6", "--seed", "9",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_simulate_hold_target_loss_is_constant_over_periods(capsys):
    rc = main(
        [
            "simulate", "--scenario", "t5", "--p", "8", "--n", "20",
            "--T", "4", "--reps", "3", "--strategies", "6", "--seed", "2",
        ]
    )
    assert rc == 0
    rows = [ln.split(",") for ln in _data_lines(capsys.readouterr().out)[1:]]
    losses = {row[4] for row in rows}
    assert len(losses) == 1


def test_simulate_reps_cap_requires_full_flag(capsys):
    rc = main(
        [
            "simulate", "--scenario", "t5", "--p", "8", "--n", "20",
            "--reps", "2000", "--seed", "1",
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("gmvshrink: config error:")
    assert "--full" in err
    assert len(err.strip().splitlines()) == 1


def test_simulate_rejects_bad_strategy_list(capsys):
    rc = main(
        [
            "simulate", "--scenario", "t5", "--p", "8", "--n", "20",
            "--strategies", "1,9", "--seed", "1",
        ]
    )
    assert rc == 2


def test_simulate_writes_to_file(tmp_path, capsys):
    out = tmp_path / "losses.csv"
    argv = [
        "simulate", "--scenario", "t5", "--p", "8", "--n", "20",
        "--T", "2", "--reps", "2", "--strategies", "6", "--seed", "4",
    ]
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert out.read_text() == capsys.readouterr().out


# ---------------------------------------------------------------------------
# backtest
# ---------------------------------------------------------------------------


def test_backtest_hold_target_report(tmp_path, capsys):
    csv_path = _write_returns(tmp_path / "r.csv", p=150, days=40, seed=3)
    rc = main(
        [
            "backtest", "--input", str(csv_path), "--strategy", "6",
            "--n", "10", "--seed", "5",
        ]
    )
    assert rc == 0
    report = _report_dict(capsys.readouterr().out)
    assert report["report-version"] == "1"
    assert float(report["mean_abs_weight"]) == pytest.approx(1 / 150)
    assert float(report["turnover"]) == 0.0
    assert float(report["frac_negative"]) == 0.0
    assert report["strategy"] == "6"
    assert report["first-date"] == "2020-01-01"


def test_backtest_is_byte_identical_across_runs(tmp_path, capsys):
    csv_path = _write_returns(tmp_path / "r.csv", p=5, days=60, seed=11)
    argv = [
        "backtest", "--input", str(csv_path), "--strategy", "7",
        "--n", "20", "--seed", "5",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_backtest_wealth_out(tmp_path, capsys):
    csv_path = _write_returns(tmp_path / "r.csv", p=4, days=30, seed=13)
    wealth = tmp_path / "wealth.csv"
    rc = main(
        [
            "backtest", "--input", str(csv_path), "--strategy", "5",
            "--n", "10", "--seed", "5", "--wealth-out", str(wealth),
        ]
    )
    assert rc == 0
    lines = _data_lines(wealth.read_text())
    assert lines[0] == "day,wealth"
    assert lines[1] == "0,1"
    # wealth is evaluated from the second window on: 30 - 10 days
    assert len(lines) == 2 + 20


def test_backtest_missing_cell_names_line_and_column(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,a0,a1\n2020-01-01,0.01,0.02\n2020-01-02,0.01,\n")
    rc = main(
        ["backtest", "--input", str(bad), "--strategy", "6", "--n", "1", "--seed", "1"]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("gmvshrink: data error:")
    assert "line 3" in err
    assert "'a1'" in err


def test_backtest_missing_file_is_data_error(tmp_path, capsys):
    rc = main(
        [
            "backtest", "--input", str(tmp_path / "absent.csv"),
            "--strategy", "6", "--n", "5", "--seed", "1",
        ]
    )
    assert rc == 3
    assert capsys.readouterr().err.startswith("gmvshrink: data error:")


def test_backtest_window_too_short_for_estimation(tmp_path, capsys):
    csv_path = _write_returns(tmp_path / "r.csv", p=10, days=30, seed=17)
    rc = main(
        ["backtest", "--input", str(csv_path), "--strategy", "1",
         "--n", "10", "--seed", "1"]
    )
    assert rc == 3
    assert capsys.readouterr().err.startswith("gmvshrink: data error:")


def test_backtest_series_shorter_than_one_window(tmp_path, capsys):
    csv_path = _write_returns(tmp_path / "r.csv", p=3, days=4, seed=17)
    rc = main(
        ["backtest", "--input", str(csv_path), "--strategy", "6",
         "--n", "5", "--seed", "1"]
    )
    assert rc == 3


@pytest.mark.parametrize("command", ["backtest", "weights"])
@pytest.mark.parametrize("window", ["0", "-5"])
def test_window_length_below_one_is_config_error(tmp_path, capsys, command, window):
    csv_path = _write_returns(tmp_path / "r.csv", p=3, days=20, seed=17)
    rc = main(
        [command, "--input", str(csv_path), "--strategy", "6",
         "--n", window, "--seed", "1"]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("gmvshrink: config error: --n must be at least 1")


def test_external_strategy_requires_weights_file(tmp_path, capsys):
    csv_path = _write_returns(tmp_path / "r.csv", p=3, days=20, seed=19)
    rc = main(
        ["backtest", "--input", str(csv_path), "--strategy", "external",
         "--n", "10", "--seed", "1"]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("gmvshrink: config error:")


def test_weights_file_only_with_external_strategy(tmp_path, capsys):
    csv_path = _write_returns(tmp_path / "r.csv", p=3, days=20, seed=19)
    rc = main(
        ["backtest", "--input", str(csv_path), "--strategy", "6",
         "--n", "10", "--seed", "1", "--weights-file", str(csv_path)]
    )
    assert rc == 2


# ---------------------------------------------------------------------------
# weights export and external replay
# ---------------------------------------------------------------------------


def test_weights_first_period_identical_between_strategies_one_and_two(tmp_path, capsys):
    csv_path = _write_returns(tmp_path / "r.csv", p=6, days=40, seed=23)
    rows = {}
    for strategy in ("1", "2"):
        rc = main(
            ["weights", "--input", str(csv_path), "--strategy", strategy,
             "--n", "20", "--seed", "1"]
        )
        assert rc == 0
        rows[strategy] = _data_lines(capsys.readouterr().out)
    assert rows["1"][0] == rows["2"][0]  # header
    assert rows["1"][1] == rows["2"][1]  # period 1 weights
    assert rows["1"][2] != rows["2"][2]  # pipelines diverge afterwards


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


# ---------------------------------------------------------------------------
# check-rmt
# ---------------------------------------------------------------------------


def test_check_rmt_passes_on_single_window_kinds(capsys):
    rc = main(["check-rmt", "--p", "100", "--n", "200", "--reps", "30", "--seed", "7"])
    out = capsys.readouterr().out
    lines = _data_lines(out)
    assert lines[0].split() == ["kind", "target", "mc_mean", "stderr", "rel_err", "tol", "status"]
    kinds = [ln.split()[0] for ln in lines[1:]]
    assert kinds == ["resolvent", "resolvent_sq"]
    assert all(ln.endswith("pass") for ln in lines[1:])
    assert rc == 0


def test_check_rmt_is_byte_identical_across_runs(capsys):
    argv = ["check-rmt", "--p", "20", "--n", "60", "--reps", "5", "--seed", "3"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


def test_check_rmt_cross_rows_fail_tolerance(capsys):
    """The cross rows sit inside their tolerance against the nested-window
    closed form, and the exit code is 4 exactly when some row fails."""
    rc = main(
        ["check-rmt", "--p", "20", "--n", "60", "--m", "60",
         "--reps", "10", "--seed", "3"]
    )
    lines = _data_lines(capsys.readouterr().out)
    status = {ln.split()[0]: ln.split()[-1] for ln in lines[1:]}
    assert list(status) == ["resolvent", "resolvent_sq", "cross", "cross_centered"]
    assert status["cross"] == "pass"
    assert status["cross_centered"] == "pass"
    assert rc == (4 if "FAIL" in status.values() else 0)


def test_check_rmt_rejects_degenerate_concentration(capsys):
    rc = main(["check-rmt", "--p", "4", "--n", "3", "--seed", "1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("gmvshrink: config error:")


def test_check_rmt_heavy_tails_option_runs(capsys):
    # heavier tails slow the squared-resolvent convergence, so this needs
    # larger matrices than the normal-tail run to sit inside the tolerance
    rc = main(
        ["check-rmt", "--p", "200", "--n", "400", "--reps", "40",
         "--seed", "5", "--tails", "t9"]
    )
    assert rc == 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def test_seed_is_mandatory_everywhere(capsys):
    for argv in (
        ["simulate", "--scenario", "t5", "--p", "8", "--n", "20"],
        ["check-rmt", "--p", "10", "--n", "30"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


def test_unknown_subcommand_is_a_parse_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
