"""Tests for the backtest engine.

Covers:
- schedule construction and span arithmetic
- the five weight statistics, turnover and wealth compounding
- holding semantics: weights lag one window, tails are held, nothing
  is evaluated before the first rebalance
- the day returns with and without drift against one per-day reference,
  which holds the recorded weights or lets them drift with cash
- drift mode, external weights, ruin handling and input validation
- fitting then evaluating reproducing ``run_backtest`` field for field,
  for every strategy, with and without drift
- drift leaving every fitted weight bit-identical, for every strategy
- weights that follow a permutation of the assets and ignore the scale
  of the returns, for every strategy
"""

import warnings
from pathlib import Path

import numpy as np
import pytest

from gmvshrink.backtest import (
    RebalanceSchedule,
    _holding_day_returns,
    evaluate_weights,
    fit_weights,
    performance_measures,
    run_backtest,
    turnover,
    wealth_and_drawdown,
)
from gmvshrink.core import (
    DegenerateInputError,
    DimensionError,
    InsufficientSampleError,
)
from gmvshrink.dataio import read_returns_csv
from gmvshrink.sim import build_population, generate
from gmvshrink.strategies import STRATEGY_IDS

GOLDEN_RETURNS = Path(__file__).resolve().parent / "golden" / "returns.csv"


def _daily_returns(p, days, seed, scale=0.01):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((p, days))


# ---------------------------------------------------------------------------
# RebalanceSchedule
# ---------------------------------------------------------------------------


def test_schedule_uniform_and_spans():
    schedule = RebalanceSchedule.uniform(10, 3)
    assert schedule.window_lengths == (10, 10, 10)
    assert schedule.period_count == 3
    assert schedule.total_observations == 30
    assert schedule.spans() == [(0, 10), (10, 20), (20, 30)]


def test_schedule_mixed_lengths():
    schedule = RebalanceSchedule((5, 12, 3))
    assert schedule.spans() == [(0, 5), (5, 17), (17, 20)]


def test_schedule_validation():
    with pytest.raises(ValueError):
        RebalanceSchedule(())
    with pytest.raises(ValueError):
        RebalanceSchedule((10, 0))
    with pytest.raises(ValueError):
        RebalanceSchedule.uniform(10, 0)
    # a length that is not an integer is refused, never truncated
    for lengths in ((5.5, 7.9), ("6",), (10, 2.0)):
        with pytest.raises(ValueError, match=r"must be integers, got \(.*\)"):
            RebalanceSchedule(lengths)
    for lengths in ((True, 5), (False,)):
        with pytest.raises(ValueError, match="must be integers"):
            RebalanceSchedule(lengths)
    with pytest.raises(ValueError, match="must be integers"):
        RebalanceSchedule.uniform(2.5, 3)
    with pytest.raises(ValueError, match="must be integers"):
        RebalanceSchedule.uniform(True, 3)
    # and so is a period count
    for count in (2.5, "3", True):
        with pytest.raises(ValueError, match="must be an integer"):
            RebalanceSchedule.uniform(10, count)
    assert RebalanceSchedule.uniform(10, np.int64(2)).window_lengths == (10, 10)
    lengths = RebalanceSchedule((np.int64(5), np.int32(7))).window_lengths
    assert lengths == (5, 7) and all(type(n) is int for n in lengths)


# ---------------------------------------------------------------------------
# weight statistics
# ---------------------------------------------------------------------------


def test_weight_stats_long_only_portfolio():
    stats = performance_measures([np.array([0.5, 0.5])])
    assert stats.mean_abs_weight == 0.5
    assert stats.max_weight == 0.5
    assert stats.min_weight == 0.5
    assert stats.sum_negative == 0.0
    assert stats.frac_negative == 0.0


def test_weight_stats_with_short_position():
    stats = performance_measures([np.array([1.5, -0.5])])
    assert stats.mean_abs_weight == pytest.approx(1.0)
    assert stats.max_weight == 1.5
    assert stats.min_weight == -0.5
    assert stats.sum_negative == pytest.approx(-0.5)
    assert stats.frac_negative == 0.5


def test_weight_stats_average_over_periods():
    history = [np.array([1.5, -0.5]), np.array([0.5, 0.5])]
    stats = performance_measures(history)
    assert stats.mean_abs_weight == pytest.approx(0.75)
    assert stats.max_weight == pytest.approx(1.0)
    assert stats.sum_negative == pytest.approx(-0.25)
    assert stats.frac_negative == pytest.approx(0.25)


def test_weight_stats_equal_weights_large_p():
    stats = performance_measures([np.full(200, 1 / 200)] * 3)
    assert stats.mean_abs_weight == pytest.approx(0.005)


def test_weight_stats_empty_history():
    with pytest.raises(ValueError):
        performance_measures([])


# ---------------------------------------------------------------------------
# turnover
# ---------------------------------------------------------------------------


def test_turnover_static_portfolio_is_zero():
    w = np.array([0.5, 0.5])
    assert turnover([w, w, w], w) == 0.0


def test_turnover_counts_move_into_first_period():
    assert turnover([np.array([0.0, 1.0])], np.array([1.0, 0.0])) == pytest.approx(2.0)


def test_turnover_averages_over_periods():
    history = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    assert turnover(history, np.array([1.0, 0.0])) == pytest.approx(1.0)


def test_turnover_of_no_periods_is_value_error():
    with pytest.raises(ValueError, match="empty weights history"):
        turnover([], np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# wealth compounding
# ---------------------------------------------------------------------------


def test_wealth_path_and_worst_move():
    summary = wealth_and_drawdown([0.1, -0.1])
    np.testing.assert_allclose(summary.path, (1.0, 1.1, 0.99))
    assert summary.worst_daily_change == pytest.approx(-0.11)
    assert not summary.ruined


def test_wealth_flat_series():
    summary = wealth_and_drawdown([0.0, 0.0, 0.0])
    assert summary.path == (1.0, 1.0, 1.0, 1.0)
    assert summary.worst_daily_change == 0.0


def test_wealth_single_down_day():
    summary = wealth_and_drawdown([-0.05])
    assert summary.path == (1.0, 0.95)
    assert summary.worst_daily_change == pytest.approx(-0.05)


def test_wealth_ruin_truncates_path():
    summary = wealth_and_drawdown([0.5, -1.2, 0.3])
    assert summary.ruined
    np.testing.assert_allclose(summary.path, (1.0, 1.5, -0.3))


def test_wealth_ruin_discards_later_days_whatever_they_hold():
    summary = wealth_and_drawdown([0.1, -1.5, np.nan, np.inf])
    assert summary.ruined
    np.testing.assert_allclose(summary.path, (1.0, 1.1, -0.55))
    # a non-finite day before the ruin day is still refused
    with pytest.raises(DegenerateInputError, match="non-finite"):
        wealth_and_drawdown([0.1, np.nan, -1.5])


def test_wealth_rejects_bad_input():
    with pytest.raises(DegenerateInputError):
        wealth_and_drawdown([0.1, np.nan])
    with pytest.raises(DimensionError):
        wealth_and_drawdown([[0.1, 0.2]])


def test_wealth_overflow_is_rejected_as_prices(recwarn):
    """Daily "returns" near 100 compound to infinity within a few hundred days."""
    with pytest.raises(DegenerateInputError, match="prices rather than returns") as info:
        wealth_and_drawdown(np.full(400, 99.0))
    assert "day 155" in str(info.value)  # 100**154 is finite, 100**155 is not
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# ---------------------------------------------------------------------------
# run_backtest: holding semantics
# ---------------------------------------------------------------------------


def _per_day_returns(returns, weights_history, schedule, drift):
    """The holding-day accounting as one Python iteration per held day. The
    weights recorded at rebalance ``i`` are held over window ``i + 1``, the
    last also over the days past the schedule; with ``drift`` the holdings
    are renormalized by each day's portfolio return, the remainder held as
    cash, and the series ends on a day that loses everything."""
    spans = schedule.spans()
    holding_spans = [(weights_history[i],) + spans[i + 1] for i in range(len(spans) - 1)]
    if returns.shape[1] > schedule.total_observations:
        holding_spans.append(
            (weights_history[-1], schedule.total_observations, returns.shape[1])
        )
    day_returns = []
    for weights, start, end in holding_spans:
        held = np.asarray(weights, dtype=float).copy()
        for t in range(start, end):
            y = returns[:, t]
            r = float(held @ y)
            day_returns.append(r)
            if drift:
                if 1.0 + r <= 0.0:
                    return np.asarray(day_returns)  # ruin: holdings are gone
                held = held * (1.0 + y) / (1.0 + r)
    return np.asarray(day_returns)


def test_hold_target_strategy_report_is_exact():
    p = 150
    returns = _daily_returns(p, 40, seed=1)
    schedule = RebalanceSchedule.uniform(10, 4)
    target = np.full(p, 1 / p)
    history, report = run_backtest(returns, 6, schedule, target)
    assert len(history) == 4
    assert report.mean_abs_weight == 1 / p
    assert report.turnover == 0.0
    assert report.frac_negative == 0.0
    assert f"{report.mean_abs_weight:.4f}" == "0.0067"


def test_zero_returns_give_flat_wealth_and_undefined_sharpe():
    p = 4
    returns = np.zeros((p, 30))
    schedule = RebalanceSchedule.uniform(10, 3)
    _, report = run_backtest(returns, 6, schedule, np.full(p, 0.25))
    assert all(v == 1.0 for v in report.wealth_path)
    assert report.volatility == 0.0
    assert report.sharpe == 0.0
    assert not report.sharpe_defined


def test_day_returns_skip_first_window_and_hold_tail():
    """Weights lag one window and the last weights cover trailing days."""
    p = 4
    schedule = RebalanceSchedule.uniform(10, 3)
    returns = _daily_returns(p, 35, seed=2)  # 5 tail days beyond the windows
    target = np.full(p, 0.25)
    history, report = run_backtest(returns, 5, schedule, target)
    # days evaluated: windows 2..3 plus the tail = 35 - 10
    assert len(report.wealth_path) == 1 + 35 - 10

    day_returns = _per_day_returns(returns, history, schedule, drift=False)
    assert day_returns.shape == (35 - 10,)
    assert report.mean_return == pytest.approx(day_returns.mean(), rel=1e-12)
    assert report.volatility == pytest.approx(day_returns.std(ddof=1), rel=1e-12)
    assert report.sharpe == pytest.approx(
        day_returns.mean() / day_returns.std(ddof=1), rel=1e-12
    )


def test_day_returns_without_drift_match_per_day_products():
    """One matrix-vector product per span gives the per-day dot products."""
    p = 7
    schedule = RebalanceSchedule((12, 9, 15, 11))
    returns = _daily_returns(p, 53, seed=11)  # 6 tail days
    rng = np.random.default_rng(12)
    history = [w / w.sum() for w in rng.uniform(-0.5, 1.5, (4, p))]
    day_returns = _holding_day_returns(returns, history, schedule, drift=False)
    reference = _per_day_returns(returns, history, schedule, drift=False)
    assert day_returns.shape == reference.shape == (53 - 12,)
    np.testing.assert_allclose(day_returns, reference, rtol=1e-13, atol=0.0)
    # a single window with no tail holds nothing
    one = RebalanceSchedule((53,))
    assert _holding_day_returns(returns, history[:1], one, drift=False).shape == (0,)


def test_drift_mode_lets_holdings_ride():
    returns = np.array(
        [
            [0.0, 0.0, 0.1, 0.1],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    schedule = RebalanceSchedule.uniform(2, 2)
    target = np.array([0.5, 0.5])
    external = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]
    fixed = evaluate_weights(returns, external, schedule, target)
    drift = evaluate_weights(returns, external, schedule, target, drift=True)
    np.testing.assert_allclose(np.diff(fixed.wealth_path) / fixed.wealth_path[:-1], [0.05, 0.05])
    expected_second = (0.55 / 1.05) * 0.1
    np.testing.assert_allclose(
        np.diff(drift.wealth_path) / drift.wealth_path[:-1], [0.05, expected_second]
    )


@pytest.mark.parametrize(
    "schedule",
    [RebalanceSchedule.uniform(100, 5), RebalanceSchedule((60, 90, 120, 75))],
    ids=["uniform-with-leftover", "mixed"],
)
@pytest.mark.parametrize("strategy", STRATEGY_IDS)
def test_drift_moves_no_fitted_weight(strategy, schedule):
    """Each period's weights come from the estimation windows alone, so
    letting holdings drift between rebalances leaves every bit in place."""
    _, _, returns = read_returns_csv(GOLDEN_RETURNS)
    target = np.full(returns.shape[0], 1.0 / returns.shape[0])
    rebalanced, _ = run_backtest(returns, strategy, schedule, target, drift=False)
    drifted, _ = run_backtest(returns, strategy, schedule, target, drift=True)
    assert [w.tobytes() for w in drifted] == [w.tobytes() for w in rebalanced]


def test_drift_mode_restarts_from_recorded_weights_at_each_rebalance():
    p = 4
    schedule = RebalanceSchedule((5, 6, 4, 7))
    returns = _daily_returns(p, 22, seed=21, scale=0.05)
    history = [w / w.sum() for w in np.random.default_rng(22).uniform(0.1, 1.0, (4, p))]
    day_returns = _holding_day_returns(returns, history, schedule, drift=True)
    first = schedule.window_lengths[0]  # days before the first rebalance
    for weights, (start, _) in zip(history, schedule.spans()[1:]):
        # the first day of every holding span uses the recorded weights as is
        assert day_returns[start - first] == pytest.approx(weights @ returns[:, start], rel=1e-13)
    reference = _per_day_returns(returns, history, schedule, drift=True)
    np.testing.assert_allclose(day_returns, reference, rtol=1e-12, atol=0.0)
    assert day_returns.shape == (22 - first,)


def test_drift_mode_lets_last_weights_ride_over_leftover_days():
    returns = np.array(
        [
            [0.0, 0.0, 0.0, 0.0, 0.1, 0.1, -0.05],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.02],
        ]
    )
    schedule = RebalanceSchedule.uniform(2, 2)  # days 4 to 6 are left over
    history = [np.array([0.5, 0.5]), np.array([0.2, 0.8])]
    day_returns = _holding_day_returns(returns, history, schedule, drift=True)
    np.testing.assert_allclose(
        day_returns, [0.0, 0.0, 0.02, 0.022 / 1.02, 0.0039 / 1.042], rtol=1e-12
    )
    np.testing.assert_allclose(
        day_returns, _per_day_returns(returns, history, schedule, drift=True), rtol=1e-12
    )


def test_drift_mode_ruin_mid_span_ends_the_series():
    returns = np.array(
        [
            [0.0, 0.1, -3.0, 0.2, 0.1],
            [0.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )
    schedule = RebalanceSchedule((1, 4))
    target = np.array([0.5, 0.5])
    kept = [0.05, -1.65 / 1.05]  # day 2 loses 0.55 / 1.05 * 300 percent of the portfolio
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        day_returns = _holding_day_returns(returns, [target, target], schedule, drift=True)
        _, report = run_backtest(returns, 6, schedule, target, drift=True)
    np.testing.assert_allclose(day_returns[:2], kept, rtol=1e-13)
    # the wealth path, not the holding loop, ends the series on the ruin day
    assert report.ruined
    np.testing.assert_allclose(report.wealth_path, (1.0, 1.05, -0.6), rtol=1e-13)
    assert report.mean_return == pytest.approx(np.mean(kept), rel=1e-13)
    assert report.volatility == pytest.approx(np.std(kept, ddof=1), rel=1e-13)


def test_drift_mode_matches_per_day_loop_over_a_long_series():
    """40 holding spans (39 windows and a tail) of a 10,000-day series."""
    p = 25
    returns = _daily_returns(p, 10_000, seed=61)
    schedule = RebalanceSchedule.uniform(245, 40)  # 200 days are left over
    rng = np.random.default_rng(62)
    history = [w / w.sum() for w in rng.uniform(-0.5, 1.5, (40, p))]
    assert min(w.min() for w in history) < 0.0
    day_returns = _holding_day_returns(returns, history, schedule, drift=True)
    reference = _per_day_returns(returns, history, schedule, drift=True)
    assert day_returns.shape == reference.shape == (10_000 - 245,)
    np.testing.assert_allclose(day_returns, reference, rtol=1e-12, atol=1e-15)


def test_drift_mode_holds_the_uninvested_remainder_as_cash():
    p = 6
    returns = _daily_returns(p, 90, seed=63, scale=0.03)
    schedule = RebalanceSchedule((20, 25, 30))  # 15 days are left over
    rng = np.random.default_rng(64)
    history = [0.6 * w / w.sum() for w in rng.uniform(0.1, 1.0, (2, p))]
    history.append(rng.uniform(-0.4, 0.8, p))
    assert all(abs(w.sum() - 1.0) > 0.1 for w in history)
    day_returns = _holding_day_returns(returns, history, schedule, drift=True)
    reference = _per_day_returns(returns, history, schedule, drift=True)
    np.testing.assert_allclose(day_returns, reference, rtol=1e-12, atol=1e-15)


def test_drift_mode_ruin_in_a_non_final_span_ends_on_the_ruin_day():
    p = 4
    returns = _daily_returns(p, 60, seed=65, scale=0.02)
    schedule = RebalanceSchedule((10, 15, 15))  # holding spans 10-25, 25-40, 40-60
    history = [np.full(p, 0.25), np.array([1.0, 0.0, 0.0, 0.0]), np.full(p, 0.25)]
    returns[0, 31] = -1.0  # the only held asset is wiped out inside span two
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # later days divide by zero wealth
        day_returns = _holding_day_returns(returns, history, schedule, drift=True)
        report = evaluate_weights(returns, history, schedule, history[0], drift=True)
    reference = _per_day_returns(returns, history, schedule, drift=True)
    assert day_returns.shape == (60 - 10,)  # every span is still computed
    assert reference.shape == (31 - 10 + 1,)
    assert day_returns[reference.size - 1] == -1.0
    np.testing.assert_allclose(day_returns[: reference.size], reference, rtol=1e-12, atol=1e-15)
    # the wealth path ends on the ruin day and the moments cover only the kept days
    assert report.ruined
    assert len(report.wealth_path) == reference.size + 1
    assert report.final_wealth == 0.0
    assert report.mean_return == pytest.approx(reference.mean(), rel=1e-12)
    assert report.volatility == pytest.approx(reference.std(ddof=1), rel=1e-12)


def test_drift_mode_zero_weight_ignores_an_asset_whose_gross_return_overflows():
    returns = np.vstack([np.full(400, 0.001), np.full(400, 99.0)])  # 100**155 overflows
    history = [np.array([1.0, 0.0])] * 2
    schedule = RebalanceSchedule((10, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        day_returns = _holding_day_returns(returns, history, schedule, drift=True)
    reference = _per_day_returns(returns, history, schedule, drift=True)
    np.testing.assert_allclose(day_returns, reference, rtol=1e-12, atol=1e-15)


def test_ruin_truncates_moments():
    returns = np.array([[0.5, 0.3, -1.2, 0.1]])
    schedule = RebalanceSchedule((1, 3))
    target = np.array([1.0])
    report = evaluate_weights(returns, [target, target], schedule, target)
    assert report.ruined
    # only the two days up to the wipe-out enter the moments
    assert report.mean_return == pytest.approx(np.mean([0.3, -1.2]))
    assert len(report.wealth_path) == 3
    np.testing.assert_allclose(report.wealth_path, (1.0, 1.3, 1.3 * -0.2))


# ---------------------------------------------------------------------------
# fit_weights / evaluate_weights / run_backtest: replay and validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("drift", [False, True])
@pytest.mark.parametrize("strategy", STRATEGY_IDS)
def test_external_weights_reproduce_strategy_run(strategy, drift):
    p = 4
    returns = _daily_returns(p, 30, seed=5)
    schedule = RebalanceSchedule.uniform(10, 3)
    target = np.full(p, 0.25)
    history, report = run_backtest(returns, strategy, schedule, target, drift=drift)
    fitted = fit_weights(returns, strategy, schedule, target)
    for got, expected in zip(fitted, history, strict=True):
        np.testing.assert_array_equal(got, expected)
    replayed = evaluate_weights(returns, fitted, schedule, target, drift=drift)
    for field, got, expected in zip(report._fields, replayed, report, strict=True):
        assert got == expected, field
    assert replayed == report


def test_external_weight_count_must_match_periods():
    p = 3
    returns = _daily_returns(p, 20, seed=7)
    schedule = RebalanceSchedule.uniform(10, 2)
    with pytest.raises(DimensionError, match="^got 1 weight vectors for 2 periods$"):
        evaluate_weights(returns, [np.full(p, 1 / 3)], schedule, np.full(p, 1 / 3))


def test_unknown_strategy_identifier():
    returns = _daily_returns(2, 10, seed=7)
    for strategy in (9, "external"):
        with pytest.raises(ValueError, match="unknown strategy"):
            run_backtest(returns, strategy, RebalanceSchedule((5,)), np.array([0.5, 0.5]))


def test_window_size_preconditions():
    p = 10
    returns = _daily_returns(p, 33, seed=11)
    target = np.full(p, 0.1)
    with pytest.raises(InsufficientSampleError):
        run_backtest(returns, 1, RebalanceSchedule.uniform(11, 3), target)
    # extending windows only constrain the first window
    run_backtest(returns, 2, RebalanceSchedule((23, 5, 5)), target)
    with pytest.raises(InsufficientSampleError):
        run_backtest(returns, 2, RebalanceSchedule((11, 11, 11)), target)
    # the hold-the-target strategy is exempt
    run_backtest(returns, 6, RebalanceSchedule.uniform(11, 3), target)


def test_non_finite_returns_rejected():
    returns = _daily_returns(3, 20, seed=13)
    returns[1, 4] = np.nan
    with pytest.raises(DegenerateInputError):
        run_backtest(returns, 6, RebalanceSchedule.uniform(10, 2), np.full(3, 1 / 3))


def test_series_shorter_than_schedule_rejected():
    returns = _daily_returns(3, 19, seed=13)
    with pytest.raises(InsufficientSampleError):
        run_backtest(returns, 6, RebalanceSchedule.uniform(10, 2), np.full(3, 1 / 3))


# ---------------------------------------------------------------------------
# report invariants on random data
# ---------------------------------------------------------------------------


def test_report_invariants_across_seeds():
    p = 5
    schedule = RebalanceSchedule.uniform(20, 3)
    target = np.full(p, 0.2)
    for seed in range(5):
        returns = _daily_returns(p, 60, seed=seed)
        _, report = run_backtest(returns, 7, schedule, target)
        assert 0.0 <= report.frac_negative <= 1.0
        assert report.sum_negative <= 0.0
        assert report.min_weight <= report.max_weight
        assert report.turnover >= 0.0
        assert report.wealth_path[0] == 1.0
        assert not report.ruined


@pytest.mark.parametrize("strategy", STRATEGY_IDS)
def test_weights_follow_asset_permutation_and_ignore_scale(strategy):
    """Relabelling the assets relabels the weights, and rescaling every
    return leaves them as they are (t5 data, p=12, n=30, T=5)."""
    p, n, periods = 12, 30, 5
    schedule = RebalanceSchedule.uniform(n, periods)
    target = np.full(p, 1.0 / p)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        returns = 0.01 * generate(build_population(p, seed), "t5", n * periods, rng)
        perm = rng.permutation(p)
        history, _ = run_backtest(returns, strategy, schedule, target)
        permuted, _ = run_backtest(returns[perm], strategy, schedule, target)
        scaled, _ = run_backtest(3.7 * returns, strategy, schedule, target)
        for w, w_perm, w_scaled in zip(history, permuted, scaled):
            size = np.abs(w).max()
            assert np.abs(w_perm - w[perm]).max() <= 1e-12 * size
            assert np.abs(w_scaled - w).max() <= 1e-12 * size
