"""Per-period weight construction for the seven built-in strategies.

The numeric strategy ids are the stable public handles used by the
simulation harness, the backtest engine and the CLI:

1. non-overlapping shrinkage, target loss estimated once from the first window
2. extending-window shrinkage, target loss estimated once
3. non-overlapping shrinkage, target loss re-estimated from pooled data
4. extending-window shrinkage, target loss re-estimated from pooled data
5. plain sample minimum-variance portfolio of each window (intensity one)
6. hold the target portfolio (intensity zero)
7. one-period shrinkage toward the target, recomputed fresh each window

An eighth slot accepts externally supplied per-period weights so
third-party estimators can be compared without being implemented here; the
backtest engine wires it through its ``external_weights`` argument.
"""

from __future__ import annotations

from . import nonoverlap, overlap
from .core import (
    InsufficientSampleError,
    as_returns_block,
    as_weight_vector,
    estimate_target_loss_from_cov,
    gmv_weights,
    sample_moments,
)

STRATEGY_IDS = (1, 2, 3, 4, 5, 6, 7)

STRATEGY_LABELS = {
    1: "shrinkage, fresh windows, fixed start loss",
    2: "shrinkage, extending window, fixed start loss",
    3: "shrinkage, fresh windows, re-estimated start loss",
    4: "shrinkage, extending window, re-estimated start loss",
    5: "sample minimum-variance portfolio",
    6: "hold the target",
    7: "one-period shrinkage toward the target",
}

#: strategies whose estimation windows must each satisfy n > p + 1
FRESH_WINDOW_STRATEGIES = (1, 3, 5, 7)


def one_period_shrinkage(block, target):
    """Single-window shrinkage of the sample portfolio toward a target.

    Estimates the target's relative loss from the block, converts it into
    the one-period optimal intensity and blends the block's sample
    minimum-variance portfolio with the target. Memoryless: each call
    starts from the target again.
    """
    block = as_returns_block(block)
    p, n = block.shape
    if n <= p + 1:
        raise InsufficientSampleError(
            f"one-period shrinkage needs n > p + 1, got p={p}, n={n}"
        )
    b = as_weight_vector(target, n_assets=p)
    _, cov = sample_moments(block)
    target_loss = estimate_target_loss_from_cov(cov, n, b)
    psi = nonoverlap.optimal_intensity(p / n, target_loss)
    sample_weights = gmv_weights(cov, n_obs=n)
    return psi * sample_weights + (1.0 - psi) * b


def weight_sequence(blocks, strategy, target):
    """Yield the recorded weight vector after each consumed block.

    Parameters
    ----------
    blocks : iterable of array_like
        Per-period returns blocks, consumed in order.
    strategy : int
        One of the ids in :data:`STRATEGY_IDS`.
    target : array_like
        Target weight vector shared by all strategies.
    """
    if strategy not in STRATEGY_IDS:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGY_IDS}")
    target = as_weight_vector(target)

    if strategy in (1, 3):
        state = nonoverlap.init(target, mode="fixed" if strategy == 1 else "replay")
        for block in blocks:
            state = nonoverlap.step(state, block)
            yield state.weights
    elif strategy in (2, 4):
        state = overlap.init(target, mode="fixed" if strategy == 2 else "replay")
        for block in blocks:
            state = overlap.step(state, block)
            yield state.weights
    elif strategy == 5:
        for block in blocks:
            block = as_returns_block(block)
            p, n = block.shape
            if n <= p + 1:
                raise InsufficientSampleError(
                    f"sample minimum-variance weights need n > p + 1, got p={p}, n={n}"
                )
            _, cov = sample_moments(block)
            yield gmv_weights(cov, n_obs=n)
    elif strategy == 6:
        for _block in blocks:
            yield target.copy()
    else:  # strategy 7
        for block in blocks:
            yield one_period_shrinkage(block, target)


def strategy_weights(blocks, strategy, target):
    """Materialize :func:`weight_sequence` as a list of weight vectors."""
    return list(weight_sequence(blocks, strategy, target))
