"""Dynamic shrinkage of minimum-variance weights over extending windows.

Here period ``i`` re-estimates the sample minimum-variance portfolio from
the pooled data of all windows so far (size ``N_i``), so consecutive sample
portfolios share data and are correlated. The holding portfolio is a convex
mixture of the target, with remaining share ``beta0 = prod(1 - psi_j)``, and
of past pooled sample portfolios; its alignment with the newest estimate
enters the loss recursion as a mixing coefficient ``K``.

The cross coefficient of two nested pooled sample portfolios is
``1 / (1 - c_i)``, which depends only on the newer window's concentration
``c_i = p / N_i``. It follows from the matrix-beta law of
``C^{-1/2} A C^{-1/2}`` for nested Gram matrices ``A`` and ``C``, and
direct simulation of nested pooled sample portfolios agrees with it. Every
past sample portfolio thus enters ``K`` with the same coefficient, so
``K = beta0 + (1 - beta0) / (1 - c_i)`` in closed form, and the pipeline
runs the recursion of :mod:`gmvshrink.nonoverlap` with the excess
``K - 1 = (1 - beta0) p / (N_i - p)``, which is exactly zero in the first
period. :func:`cross_term`, :func:`optimal_intensity` and :func:`next_loss`
state the limit forms in terms of ``K`` and ``C``.

The same three initializations as the non-overlapping pipeline exist
(``fixed``, ``replay``, ``prior-sample``). Only the first pooled window must
exceed the asset count; later increments may be arbitrarily short.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nonoverlap
from .core import (
    DegenerateInputError,
    DimensionError,
    InsufficientSampleError,
    PooledStats,
    as_returns_block,
    gmv_weights,
    sample_moments,
)
from .nonoverlap import MODES, _entering, _start, cross_excess, feasible_intensity  # noqa: F401


def cross_term(c_earlier, c_later):
    """Limiting cross coefficient between two nested sample portfolios.

    Parameters
    ----------
    c_earlier : float
        Concentration ``p / N_j`` of the earlier, smaller pooled window.
    c_later : float
        Concentration ``p / N_i`` of the later, larger pooled window;
        windows only grow, so ``c_later <= c_earlier``.

    Returns
    -------
    float
        ``1 / (1 - c_later)``, a value above 1. The normalized cross moment
        ``1'S^{-1}1 * w_j' S w_i`` of the two sample portfolios depends only
        on the newer window; ``c_earlier`` enters through the validity check.
    """
    if not 0.0 < c_later <= c_earlier < 1.0:
        raise ValueError(
            f"need 0 < c_later <= c_earlier < 1, got c_earlier={c_earlier}, c_later={c_later}"
        )
    return 1.0 / (1.0 - c_later)


def optimal_intensity(prev_loss, mixing, c):
    """Loss-minimizing intensity for the extending-window step.

    Returns ``((R + 1) - K) / ((R + 1) + (1 - C)^{-1} - 2K)`` clamped to
    ``[0, 1]``. A vanishing denominator is reported, never passed through.
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"concentration must lie in (0, 1), got {c}")
    if prev_loss < 0.0:
        raise ValueError(f"relative loss must be nonnegative, got {prev_loss}")
    numer = (prev_loss + 1.0) - mixing
    denom = (prev_loss + 1.0) + 1.0 / (1.0 - c) - 2.0 * mixing
    if denom == 0.0:
        raise DegenerateInputError(
            f"degenerate intensity denominator at R={prev_loss}, K={mixing}, C={c}"
        )
    return min(1.0, max(0.0, numer / denom))


def next_loss(intensity, c, prev_loss, mixing):
    """Advance the extending-window relative loss one period.

    Returns ``Psi^2 C/(1-C) + (1-Psi)^2 R + 2 Psi (1-Psi) (K-1)`` clamped
    below at zero; with ``K = 1`` this is exactly the non-overlapping
    recursion.
    """
    return nonoverlap.next_loss(intensity, c, prev_loss, mixing - 1.0)


@dataclass(frozen=True)
class OverlapState:
    """State of the extending-window pipeline after ``period`` steps.

    ``counts`` stores the pooled observation counts ``N_1 < N_2 < ...``;
    concentrations are derived from them on demand so they stay exact
    rationals evaluated in double precision. ``target_share`` is the
    target's remaining share ``prod(1 - psi)`` in the holding portfolio's
    mixture (of the replayed schedule in replay mode); the rest is spread
    over past pooled sample portfolios.
    """

    n_assets: int
    mode: str
    target: np.ndarray
    weights: np.ndarray
    loss: float
    initial_loss: float
    period: int = 0
    counts: tuple = ()
    target_share: float = 1.0
    intensity_history: tuple = ()
    pooled: PooledStats | None = None

    @property
    def concentrations(self):
        return tuple(self.n_assets / n for n in self.counts)


def init(target, first_block=None, mode="fixed"):
    """Create an extending-window state; with a block, take the first step.

    In ``prior-sample`` mode ``target`` is the prior returns block and the
    intensity schedule becomes fully deterministic given the window sizes,
    since the initial loss ``p / (n0 - p)`` involves no unknown quantities.
    """
    fields = _start(target, mode)
    state = OverlapState(**fields, pooled=PooledStats(fields["n_assets"]))
    if first_block is None:
        return state
    return step(state, first_block)


def step(state, block):
    """Fold one data increment into the pooled window and rebalance."""
    p = state.n_assets
    block = as_returns_block(block, min_obs=1)
    if block.shape[0] != p:
        raise DimensionError(
            f"block has p={block.shape[0]} assets, state expects {p}"
        )

    pooled = state.pooled.updated(block)
    n = pooled.count
    if state.period == 0 and n <= p + 1:
        raise InsufficientSampleError(
            f"first pooled window needs N > p + 1, got p={p}, N={n}"
        )

    if state.period == 0:
        # One block pooled so far: use the same two-pass moments as the
        # fresh-window pipeline, so the first steps of the two pipelines
        # agree bit for bit.
        _, pooled_cov = sample_moments(block)
    else:
        pooled_cov = pooled.cov()
    pooled_weights = gmv_weights(pooled_cov, n_obs=n)

    initial_loss, prev_loss, share = _entering(
        state, pooled_cov, n, state.counts, extending=True
    )
    excess = cross_excess(share, n, p)
    psi = feasible_intensity(n, p, prev_loss, excess)
    return replace(
        state,
        weights=psi * pooled_weights + (1.0 - psi) * state.weights,
        loss=nonoverlap.next_loss(psi, p / n, prev_loss, excess),
        initial_loss=initial_loss,
        period=state.period + 1,
        counts=state.counts + (n,),
        target_share=share * (1.0 - psi),
        intensity_history=state.intensity_history + (psi,),
        pooled=pooled,
    )
