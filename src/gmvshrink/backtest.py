"""Rebalancing backtest engine and performance measurement.

Fitting and evaluating are separate calls. :func:`fit_weights` fits one
strategy at the end of each scheduled estimation window, on the data
seen so far, and records its weights. :func:`evaluate_weights` holds
each recorded vector, fitted or recorded elsewhere, over the following
window (the last also over any leftover days) and collects the daily
portfolio returns, the compounded wealth path and the weight statistics
into one report. :func:`run_backtest` is the two calls in sequence.

Within a holding period the default accounting applies the recorded
weights to each daily return vector. A drift mode is available in which
holdings evolve with prices between rebalances (buy and hold within each
holding period), so the weight on an asset grows when the asset
outperforms the portfolio.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DegenerateInputError,
    DimensionError,
    InsufficientSampleError,
    as_returns_block,
    as_weight_vector,
)
from .strategies import weight_sequence

logger = logging.getLogger(__name__)


def _count(n):
    """``operator.index(n)``, refusing ``bool``, which would count as 0 or 1."""
    if isinstance(n, bool):
        raise TypeError(f"{n!r} is not a count")
    return operator.index(n)


@dataclass(frozen=True)
class RebalanceSchedule:
    """Partition of a return series into consecutive estimation windows."""

    window_lengths: tuple

    def __post_init__(self):
        try:
            lengths = tuple(_count(n) for n in self.window_lengths)
        except TypeError:
            raise ValueError(f"window lengths must be integers, got {self.window_lengths}") from None
        if not lengths:
            raise ValueError("schedule needs at least one window")
        if any(n < 1 for n in lengths):
            raise ValueError(f"window lengths must be positive, got {lengths}")
        object.__setattr__(self, "window_lengths", lengths)

    @classmethod
    def uniform(cls, window_length, period_count):
        """``period_count`` windows of ``window_length`` days each."""
        try:
            period_count = _count(period_count)
        except TypeError:
            raise ValueError(f"period count must be an integer, got {period_count!r}") from None
        if period_count < 1:
            raise ValueError(f"need at least one period, got {period_count}")
        return cls((window_length,) * period_count)

    @property
    def period_count(self):
        return len(self.window_lengths)

    @property
    def total_observations(self):
        return sum(self.window_lengths)

    def spans(self):
        """(start, end) column index pairs, end exclusive, one per window."""
        edges = np.cumsum((0,) + self.window_lengths)
        return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


class WeightStats(NamedTuple):
    """The five displayed weight statistics, averaged over periods."""

    mean_abs_weight: float
    max_weight: float
    min_weight: float
    sum_negative: float
    frac_negative: float


class WealthSummary(NamedTuple):
    """Compounded wealth path with its worst one-day move."""

    path: tuple
    worst_daily_change: float
    ruined: bool


class PerfReport(NamedTuple):
    """Everything the backtest reports about one strategy run.

    The field order is the order of the report's lines; ``wealth_path``
    comes last and is not printed, as the report gives its endpoint
    ``final_wealth``. The first five fields are the :class:`WeightStats`.
    """

    mean_abs_weight: float
    max_weight: float
    min_weight: float
    sum_negative: float
    frac_negative: float
    mean_return: float
    volatility: float
    sharpe: float
    sharpe_defined: bool
    turnover: float
    final_wealth: float
    worst_daily_change: float
    ruined: bool
    wealth_path: tuple


def performance_measures(weights_history):
    """Weight statistics of a history of ``T`` recorded weight vectors.

    All five are plain averages: absolute weights and the negative-weight
    frequency average over periods and assets, the largest, smallest and
    summed-negative weights average over periods only.
    """
    if len(weights_history) == 0:
        raise ValueError("empty weights history")
    stacked = np.vstack([as_weight_vector(w) for w in weights_history])
    negative = stacked < 0.0
    return WeightStats(
        mean_abs_weight=float(np.abs(stacked).mean()),
        max_weight=float(stacked.max(axis=1).mean()),
        min_weight=float(stacked.min(axis=1).mean()),
        sum_negative=float(stacked[negative].sum() / stacked.shape[0]),
        frac_negative=float(negative.mean()),
    )


def turnover(weights_history, initial):
    """Average l1 move per rebalance, counting the move into period 1.

    ``initial`` is the portfolio held before the first rebalance, so a
    strategy that never leaves it has turnover exactly 0.
    """
    if len(weights_history) == 0:
        raise ValueError("empty weights history")
    previous = as_weight_vector(initial)
    total = 0.0
    for weights in weights_history:
        weights = as_weight_vector(weights, n_assets=previous.shape[0])
        total += float(np.abs(weights - previous).sum())
        previous = weights
    return total / len(weights_history)


def wealth_and_drawdown(daily_returns):
    """Compound a daily return series into a wealth path starting at 1.

    A day with return at or below -100 percent ends the path, which is
    flagged as ruined; later days are discarded, whatever they hold. The
    worst daily change is the most negative one-day difference in wealth.
    A non-finite kept return or an overflowing path raises DegenerateInputError.
    """
    daily_returns = np.asarray(daily_returns, dtype=float)
    if daily_returns.ndim != 1:
        raise DimensionError(f"expected a 1-d return series, got shape {daily_returns.shape}")
    ruin = np.flatnonzero(daily_returns <= -1.0)
    ruined = ruin.size > 0
    if ruined:
        daily_returns = daily_returns[: ruin[0] + 1]
    if not np.all(np.isfinite(daily_returns)):
        raise DegenerateInputError("daily returns contain non-finite values")
    # cumprod multiplies in sequence: each day is the product a loop forms
    with np.errstate(over="ignore", invalid="ignore"):
        path = np.cumprod(np.concatenate(([1.0], 1.0 + daily_returns)))
    overflow = np.flatnonzero(~np.isfinite(path))
    if overflow.size:
        raise DegenerateInputError(
            f"wealth overflows on day {overflow[0]} of the holding span; "
            "the cells may be prices rather than returns"
        )
    if ruined:
        logger.warning("portfolio ruined: daily return %.6g wiped out wealth", daily_returns[-1])
    changes = np.diff(path)
    worst = float(changes.min()) if changes.size else 0.0
    return WealthSummary(path=tuple(path.tolist()), worst_daily_change=worst, ruined=ruined)


def _drifting_span(weights, block):
    """Daily returns of a buy-and-hold position bought at ``weights``."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # holdings w * G_t, compounded from w so that a zero weight
        # stays zero even where its asset's G_t would overflow
        held = np.empty_like(block)
        held[:, 0] = weights
        np.add(block[:, :-1], 1.0, out=held[:, 1:])
        np.cumprod(held, axis=1, out=held)
        value = (1.0 - weights.sum()) + held.sum(axis=0)
        value[0] = 1.0
        return np.einsum("ij,ij->j", held, block) / value


def _holding_day_returns(returns, weights_history, schedule, drift):
    """Daily portfolio returns over the evaluation span.

    The weights recorded at rebalance ``i`` apply to window ``i+1``; the
    last recorded weights also cover any days beyond the final window.
    Nothing is evaluated during the first window, before any weights
    exist. Without drift each span is one matrix-vector product.

    In drift mode each span is a buy-and-hold position: bought at the
    recorded weights ``w`` on its first day and left alone until the next
    rebalance, with the remainder ``1 - sum(w)`` held as cash at zero
    return. With ``G_t`` the assets' gross returns compounded over the
    span's days before day ``t`` (1 on its first day), the portfolio is
    worth ``V_t = (1 - sum(w)) + w . G_t`` of its starting value and
    returns ``(w * G_t) . y_t / V_t`` on day ``t``; each span is one
    cumulative product. Spans past a day at or below -100 percent are
    still computed; :func:`wealth_and_drawdown` ends the series there.
    """
    spans = schedule.spans()
    total_days = returns.shape[1]
    holding_spans = [(w,) + span for w, span in zip(weights_history, spans[1:])]
    if total_days > schedule.total_observations:
        holding_spans.append((weights_history[-1], schedule.total_observations, total_days))
    hold = _drifting_span if drift else np.dot
    return np.concatenate(
        [hold(np.asarray(w, dtype=float), returns[:, a:b]) for w, a, b in holding_spans]
        or [np.empty(0)]
    )


def _checked_inputs(returns, schedule, target):
    """The returns as a validated block covering ``schedule``, and the target."""
    returns = as_returns_block(returns, min_obs=1)
    p, total_days = returns.shape
    if total_days < schedule.total_observations:
        raise InsufficientSampleError(
            f"series has {total_days} observations, schedule needs "
            f"{schedule.total_observations}"
        )
    return returns, as_weight_vector(target, n_assets=p)


def fit_weights(returns, strategy, schedule, target):
    """Per-period weights of a strategy id fitted on each scheduled window.

    The weights recorded after window ``i`` see the series up to its end.
    """
    returns, target = _checked_inputs(returns, schedule, target)
    # weight_sequence raises the unknown-strategy ValueError
    blocks = [returns[:, a:b] for a, b in schedule.spans()]
    return list(weight_sequence(blocks, strategy, target))


def evaluate_weights(returns, history, schedule, target, drift=False):
    """The :class:`PerfReport` of a weight history, one vector per period.

    ``returns`` holds assets in rows and days in columns and must cover
    the scheduled windows; extra trailing days are held with the final
    weights. ``history`` is what :func:`fit_weights` returns or weights
    recorded elsewhere. ``target`` is the holding before the first
    rebalance, the baseline of the first turnover move. ``drift`` lets
    holdings evolve with prices within each holding period instead of
    applying the recorded weights to every day.
    """
    returns, target = _checked_inputs(returns, schedule, target)
    if len(history) != schedule.period_count:
        raise DimensionError(
            f"got {len(history)} weight vectors for {schedule.period_count} periods"
        )
    history = [as_weight_vector(w, n_assets=target.shape[0]) for w in history]

    stats = performance_measures(history)
    move = turnover(history, target)
    day_returns = _holding_day_returns(returns, history, schedule, drift)
    wealth = wealth_and_drawdown(day_returns)
    if wealth.ruined:
        # keep the moments consistent with the truncated wealth path
        day_returns = day_returns[: len(wealth.path) - 1]

    mean_return = float(day_returns.mean()) if day_returns.size else 0.0
    volatility = float(day_returns.std(ddof=1)) if day_returns.size > 1 else 0.0
    sharpe_defined = volatility > 0.0
    sharpe = mean_return / volatility if sharpe_defined else 0.0

    return PerfReport(
        *stats, mean_return, volatility, sharpe, sharpe_defined, move,
        wealth.path[-1], wealth.worst_daily_change, wealth.ruined, wealth.path,
    )


def run_backtest(returns, strategy, schedule, target, drift=False):
    """Fit a strategy id and evaluate its weights: ``(history, PerfReport)``."""
    history = fit_weights(returns, strategy, schedule, target)
    return history, evaluate_weights(returns, history, schedule, target, drift)
