"""Dynamic shrinkage of minimum-variance weights over fresh or extending windows.

Each rebalancing period the holding portfolio is pulled toward a new
sample minimum-variance portfolio with an intensity chosen to minimize the
relative loss, and the loss itself advances through a scalar recursion
that depends on the data only through the initial target loss.

The window behind the sample portfolio is either the period's own block
(fresh, non-overlapping windows) or, with ``extending=True``, everything
pooled so far. Pooled sample portfolios share data, so the intensity and
the loss carry the excess ``kappa = K - 1`` of the mixing coefficient over
one (:func:`cross_excess`; the limit forms are in
:mod:`gmvshrink.overlap`). Fresh windows share nothing, so ``kappa`` is
exactly zero and the formulas reduce bit for bit to their one-window forms.
Both window kinds run the same :func:`init` and :func:`step`, and every
mode the same one-period recursion (intensity, advanced loss and the
target's remaining share). The modes differ only in where it starts:

``fixed``
    The target is a deterministic weight vector; its loss is estimated once
    from the first window, and each step advances the recursion one period.
``replay``
    The target loss is re-estimated each period from the pooled sample of
    all windows so far, and the recursion is rerun from it over the past
    window sizes before the current period is advanced.
``prior-sample``
    The target is the sample minimum-variance portfolio of a prior window
    of size ``n0``; its limiting loss ``p / (n0 - p)`` is known exactly, so
    the whole intensity schedule is deterministic given the window sizes.
    Each step advances it one period, as in fixed mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import (
    DegenerateInputError,
    DimensionError,
    InsufficientSampleError,
    PooledStats,
    as_returns_block,
    as_weight_vector,
    estimate_target_loss_from_cov,
    gmv_weights,
    require_window,
    sample_gmv_weights,
    sample_moments,
)

MODES = ("fixed", "replay", "prior-sample")


def optimal_intensity(c, prev_loss):
    """Limiting optimal shrinkage intensity for one fresh window.

    Parameters
    ----------
    c : float
        Concentration ratio ``p / n`` of the window, in ``(0, 1)``.
    prev_loss : float
        Relative loss of the holding portfolio entering the period.

    Returns
    -------
    float
        ``(1 - c) r / ((1 - c) r + c)``, a value in ``[0, 1)``.
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"concentration must lie in (0, 1), got {c}")
    if prev_loss < 0.0:
        raise ValueError(f"relative loss must be nonnegative, got {prev_loss}")
    return (1.0 - c) * prev_loss / ((1.0 - c) * prev_loss + c)


def cross_excess(target_share, n_obs, n_assets):
    """Excess ``kappa = K - 1`` of an extending window's mixing coefficient.

    The holding portfolio mixes the target (share ``beta0``) with past
    pooled sample portfolios, each aligned with the newest estimate through
    the cross coefficient ``1 / (1 - c)``. Hence
    ``K = beta0 + (1 - beta0) / (1 - c)`` and
    ``kappa = (1 - beta0) p / (N - p)``: zero while nothing but the target is
    held, and ``p / (N - p)`` once the target's share has gone.
    """
    if n_obs <= n_assets:
        raise InsufficientSampleError(
            f"mixing excess needs N > p, got N={n_obs}, p={n_assets}"
        )
    return (1.0 - target_share) * (n_assets / (n_obs - n_assets))


def feasible_intensity(n_obs, n_assets, prev_loss, excess=0.0):
    """Finite-sample intensity ``(n - p)(r - k) / ((n - p)(r - k) + p - (n - p)k)``.

    ``k`` is the mixing excess of :func:`cross_excess`, zero for fresh
    windows, where this is ``(n - p) r / ((n - p) r + p)``: the plug-in
    counterpart of :func:`optimal_intensity`, which it matches when
    ``c = p / n`` exactly. The result is clamped to ``[0, 1]``; a vanishing
    denominator is reported, never passed through.
    """
    if n_obs <= n_assets:
        raise InsufficientSampleError(
            f"feasible intensity needs n > p, got n={n_obs}, p={n_assets}"
        )
    if prev_loss < 0.0:
        raise ValueError(f"relative loss must be nonnegative, got {prev_loss}")
    numer = (n_obs - n_assets) * (prev_loss - excess)
    # p - (n - p)k, written through k / (p / (n - p)) = 1 - beta0 so that it
    # is exactly p at k = 0 and exactly 0 once the target's share has gone.
    denom = numer + n_assets * (1.0 - excess / (n_assets / (n_obs - n_assets)))
    if denom == 0.0:
        raise DegenerateInputError(
            f"degenerate intensity denominator at r={prev_loss}, excess={excess}, "
            f"n={n_obs}, p={n_assets}"
        )
    return min(1.0, max(0.0, numer / denom))


def next_loss(intensity, c, prev_loss, excess=0.0):
    """Advance the relative loss one period.

    Returns ``psi^2 c/(1-c) + (1-psi)^2 r + 2 psi (1-psi) k`` clamped below at
    zero, ``k`` being the mixing excess (zero for fresh windows). With
    ``k = 0`` and the optimal intensity this satisfies the harmonic identity
    ``1/r_i = 1/r_{i-1} + (1-c)/c``.
    """
    if not 0.0 <= intensity <= 1.0:
        raise ValueError(f"intensity must lie in [0, 1], got {intensity}")
    if not 0.0 < c < 1.0:
        raise ValueError(f"concentration must lie in (0, 1), got {c}")
    if prev_loss < 0.0:
        raise ValueError(f"relative loss must be nonnegative, got {prev_loss}")
    value = (
        intensity * intensity * c / (1.0 - c)
        + (1.0 - intensity) ** 2 * prev_loss
        + 2.0 * intensity * (1.0 - intensity) * excess
    )
    return max(0.0, value)


def _advance(loss, share, n_obs, n_assets, extending):
    """One period of the recursion: the intensity, advanced loss and target share."""
    excess = cross_excess(share, n_obs, n_assets) if extending else 0.0
    psi = feasible_intensity(n_obs, n_assets, loss, excess)
    return psi, next_loss(psi, n_assets / n_obs, loss, excess), share * (1.0 - psi)


def replay_intensities(initial_loss, sample_sizes, n_assets, extending=False):
    """Run the scalar recursion over a sequence of window sizes.

    Returns the per-period feasible intensities and advanced losses produced
    by starting from ``initial_loss`` and consuming windows of the given
    sizes. With ``extending`` the sizes are pooled counts ``N_1 < N_2 < ...``
    and each period's mixing excess follows from the target's remaining
    share ``prod(1 - psi)``. Pure scalar arithmetic, one :func:`_advance`
    per window, as in :func:`step`; used by the replay mode, by
    deterministic schedules and by tests.
    """
    intensities, losses = [], []
    loss, share = float(initial_loss), 1.0
    for n in sample_sizes:
        psi, loss, share = _advance(loss, share, n, n_assets, extending)
        intensities.append(psi)
        losses.append(loss)
    return intensities, losses


class PeriodRecord(NamedTuple):
    """Per-period trace: window size, applied intensity, advanced loss."""

    n_obs: int
    intensity: float
    loss: float


@dataclass(frozen=True)
class ShrinkageState:
    """State of the shrinkage pipeline after ``period`` steps.

    ``history`` stores one :class:`PeriodRecord` per period, its ``n_obs``
    being the window size: the block's for fresh windows, the pooled count
    ``N_1 < N_2 < ...`` for extending ones. ``target_share`` is the target's
    remaining share ``prod(1 - psi)`` in the holding portfolio (of the
    replayed schedule in replay mode). ``loss`` is the tracked loss after
    the last step; before the first it is the known prior-sample loss, or
    NaN where the first window estimates it. ``pooled`` carries the running
    sufficient statistics of all blocks so far; it is kept only where they
    are used, for extending windows and in replay mode.
    """

    n_assets: int
    mode: str
    extending: bool
    target: np.ndarray
    weights: np.ndarray
    loss: float
    history: tuple = ()
    pooled: PooledStats | None = None
    target_share: float = 1.0

    @property
    def period(self):
        return len(self.history)

    @property
    def intensities(self):
        return tuple(rec.intensity for rec in self.history)


def init(target, first_block=None, mode="fixed", extending=False):
    """Create a shrinkage state and, if a block is given, take the first step.

    Parameters
    ----------
    target : array_like
        The target weight vector in ``fixed`` and ``replay`` modes; in
        ``prior-sample`` mode, the prior returns block (``p x n0`` with
        ``n0 > p + 1``) whose sample minimum-variance portfolio becomes the
        target, with the exactly known loss ``p / (n0 - p)``.
    first_block : array_like, optional
        First returns block. When omitted the state holds the pure target
        portfolio and the first call to :func:`step` consumes the first
        block.
    mode : {"fixed", "replay", "prior-sample"}
    extending : bool
        Pool every block into one growing window instead of estimating
        each period from its own block.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if mode == "prior-sample":
        prior = as_returns_block(target)
        p, n0 = prior.shape
        require_window(p, n0)
        target_weights = sample_gmv_weights(prior)
        loss = p / (n0 - p)
    else:
        target_weights = as_weight_vector(target)
        loss = float("nan")  # estimated from the first window
    p = target_weights.shape[0]
    state = ShrinkageState(
        n_assets=p,
        mode=mode,
        extending=extending,
        target=target_weights,
        weights=target_weights,
        loss=loss,
        pooled=PooledStats(p) if extending or mode == "replay" else None,
    )
    if first_block is None:
        return state
    return step(state, first_block)


def step(state, block):
    """Consume one returns block and return the advanced state.

    The window is the block itself, or with ``extending`` everything pooled
    so far; it must exceed ``p + 1`` observations, so later increments of an
    extending window may be arbitrarily short.
    """
    p = state.n_assets
    block = as_returns_block(block, min_obs=1)
    if block.shape[0] != p:
        raise DimensionError(f"block has p={block.shape[0]} assets, state expects {p}")
    pooled = None if state.pooled is None else state.pooled.updated(block)
    n = pooled.count if state.extending else block.shape[1]
    require_window(p, n)

    if state.extending and state.period > 0:
        cov = pooled.cov()
    else:
        # A fresh window, or the first pooled one: two-pass moments, so in
        # fixed mode the first steps of both window kinds agree bit for bit.
        # Replay on fresh windows does not: its start below comes from the
        # pooled raw-sum covariance, which differs in the last digits.
        _, cov = sample_moments(block)
    sample_weights = gmv_weights(cov, n_obs=n)

    # enter with the state's loss and share unless a target loss is estimated:
    # replay pools everything so far (the window itself when extending)
    loss, share = state.loss, state.target_share
    if state.mode == "replay":
        window = (cov, n) if state.extending else (pooled.cov(), pooled.count)
        start = estimate_target_loss_from_cov(*window, state.target)
        intensities, losses = replay_intensities(
            start, [rec.n_obs for rec in state.history], p, state.extending
        )
        loss = losses[-1] if losses else start
        share = math.prod(1.0 - psi for psi in intensities)
    elif state.mode == "fixed" and state.period == 0:
        loss = estimate_target_loss_from_cov(cov, n, state.target)
    psi, loss, share = _advance(loss, share, n, p, state.extending)
    return replace(
        state,
        weights=psi * sample_weights + (1.0 - psi) * state.weights,
        loss=loss,
        history=state.history + (PeriodRecord(n, psi, loss),),
        pooled=pooled,
        target_share=share,
    )
