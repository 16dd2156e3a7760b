"""Dynamic shrinkage of minimum-variance weights over non-overlapping windows.

Each rebalancing period contributes a fresh estimation window. The holding
portfolio is pulled toward that window's sample minimum-variance portfolio
with an intensity chosen to minimize the limiting relative loss, and the
loss itself advances through a scalar recursion that depends on the data
only through the initial target loss.

The recursion here also serves the extending-window pipeline
(:mod:`gmvshrink.overlap`), whose sample portfolios share data: there the
intensity and the loss carry the excess ``kappa = K - 1`` of the mixing
coefficient over one. Fresh windows share nothing, so ``kappa`` is exactly
zero and the formulas reduce bit for bit to their one-window forms.

Three initializations are supported:

``fixed``
    The target is a deterministic weight vector; its loss is estimated once
    from the first window and the scalar recursion never revisits it.
``replay``
    The target loss is re-estimated each period from the pooled sample of
    all windows so far, and the scalar recursion is replayed from period
    one before computing the current intensity.
``prior-sample``
    The target is the sample minimum-variance portfolio of a prior window
    of size ``n0``; its limiting loss ``p / (n0 - p)`` is known exactly, so
    the whole intensity schedule is deterministic given the window sizes.
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


def replay_intensities(initial_loss, sample_sizes, n_assets, extending=False):
    """Run the scalar recursion over a sequence of window sizes.

    Returns the per-period feasible intensities and advanced losses produced
    by starting from ``initial_loss`` and consuming windows of the given
    sizes. With ``extending`` the sizes are pooled counts ``N_1 < N_2 < ...``
    and each period's mixing excess follows from the target's remaining
    share ``prod(1 - psi)``. Pure scalar arithmetic; used by the replay mode,
    by deterministic schedules and by tests.
    """
    intensities = []
    losses = []
    loss = float(initial_loss)
    share = 1.0
    for n in sample_sizes:
        excess = cross_excess(share, n, n_assets) if extending else 0.0
        psi = feasible_intensity(n, n_assets, loss, excess)
        loss = next_loss(psi, n_assets / n, loss, excess)
        share *= 1.0 - psi
        intensities.append(psi)
        losses.append(loss)
    return intensities, losses


def _start(target, mode):
    """Fields shared by a new state of either pipeline.

    Resolves the target weights and the initial loss: known exactly in
    ``prior-sample`` mode, estimated from the first window otherwise.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if mode == "prior-sample":
        prior = as_returns_block(target)
        p, n0 = prior.shape
        if n0 <= p + 1:
            raise InsufficientSampleError(
                f"prior-sample mode needs n0 > p + 1, got p={p}, n0={n0}"
            )
        target_weights = sample_gmv_weights(prior)
        initial_loss = p / (n0 - p)
    else:
        target_weights = as_weight_vector(target)
        initial_loss = float("nan")  # estimated from the first window
    return dict(
        n_assets=target_weights.shape[0],
        mode=mode,
        target=target_weights,
        weights=target_weights,
        loss=initial_loss,
        initial_loss=initial_loss,
    )


def _entering(state, cov, n_obs, past_sizes, extending):
    """Initial loss, and the loss and target share entering this period.

    ``cov`` and ``n_obs`` are what the target loss is estimated from: the
    first window in fixed mode, everything pooled so far in replay mode.
    Replay re-estimates the start loss each period and replays the recursion
    over ``past_sizes`` from it.
    """
    if state.mode == "replay":
        start = estimate_target_loss_from_cov(cov, n_obs, state.target)
        intensities, losses = replay_intensities(
            start, past_sizes, state.n_assets, extending
        )
        initial_loss = start if state.period == 0 else state.initial_loss
        share = math.prod(1.0 - psi for psi in intensities)
        return initial_loss, losses[-1] if losses else start, share
    if state.period == 0 and state.mode == "fixed":
        loss = estimate_target_loss_from_cov(cov, n_obs, state.target)
        return loss, loss, state.target_share
    return state.initial_loss, state.loss, state.target_share


class PeriodRecord(NamedTuple):
    """Per-period trace: window size, applied intensity, advanced loss."""

    n_obs: int
    intensity: float
    loss: float


@dataclass(frozen=True)
class NonOverlapState:
    """State of the non-overlapping shrinkage pipeline after ``period`` steps.

    ``history`` stores one :class:`PeriodRecord` per consumed window and
    ``target_share`` the target's remaining share ``prod(1 - psi)`` in the
    recursion (of the replayed schedule in replay mode). In replay mode
    ``pooled`` carries the running sufficient statistics the target loss is
    re-estimated from.
    """

    n_assets: int
    mode: str
    target: np.ndarray
    weights: np.ndarray
    loss: float
    initial_loss: float
    period: int = 0
    history: tuple = ()
    pooled: PooledStats | None = None
    target_share: float = 1.0

    @property
    def intensities(self):
        return tuple(rec.intensity for rec in self.history)


def init(target, first_block=None, mode="fixed"):
    """Create a shrinkage state and, if a block is given, take the first step.

    Parameters
    ----------
    target : array_like
        The target weight vector in ``fixed`` and ``replay`` modes; in
        ``prior-sample`` mode, the prior returns block (``p x n0`` with
        ``n0 > p + 1``) whose sample minimum-variance portfolio becomes the
        target.
    first_block : array_like, optional
        First estimation window. When omitted the state holds the pure
        target portfolio and the first call to :func:`step` consumes the
        first window.
    mode : {"fixed", "replay", "prior-sample"}
    """
    fields = _start(target, mode)
    pooled = PooledStats(fields["n_assets"]) if mode == "replay" else None
    state = NonOverlapState(**fields, pooled=pooled)
    if first_block is None:
        return state
    return step(state, first_block)


def step(state, block):
    """Consume one estimation window and return the advanced state."""
    block = as_returns_block(block)
    p, n = block.shape
    if p != state.n_assets:
        raise DimensionError(
            f"block has p={p} assets, state expects {state.n_assets}"
        )
    if n <= p + 1:
        raise InsufficientSampleError(
            f"non-overlapping windows need n > p + 1, got p={p}, n={n}"
        )

    _, cov = sample_moments(block)
    sample_weights = gmv_weights(cov, n_obs=n)

    pooled, est_cov, est_obs = state.pooled, cov, n
    if state.mode == "replay":
        pooled = pooled.updated(block)
        est_cov, est_obs = pooled.cov(), pooled.count
    past_sizes = [rec.n_obs for rec in state.history]
    initial_loss, prev_loss, share = _entering(
        state, est_cov, est_obs, past_sizes, extending=False
    )

    psi = feasible_intensity(n, p, prev_loss)
    new_loss = next_loss(psi, p / n, prev_loss)
    return replace(
        state,
        weights=psi * sample_weights + (1.0 - psi) * state.weights,
        loss=new_loss,
        initial_loss=initial_loss,
        period=state.period + 1,
        history=state.history + (PeriodRecord(n, psi, new_loss),),
        pooled=pooled,
        target_share=share * (1.0 - psi),
    )
