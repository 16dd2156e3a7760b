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

Strategies 1-4 run the shrinkage pipeline of :mod:`gmvshrink.nonoverlap`
(:data:`PIPELINES`) and strategy 7 is its first fixed-mode step, taken
afresh from the target every window.
"""

from __future__ import annotations

from . import nonoverlap
from .core import (
    as_returns_block,
    as_weight_vector,
    gmv_weights,  # noqa: F401  (an alias perfbench/tests/tracer_checks.py reads)
    require_window,
    sample_gmv_weights,
)

STRATEGY_IDS = (1, 2, 3, 4, 5, 6, 7)

#: initialization mode and ``extending`` flag of the shrinkage strategies
PIPELINES = {1: ("fixed", False), 2: ("fixed", True), 3: ("replay", False), 4: ("replay", True)}


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

    if strategy in PIPELINES:
        mode, extending = PIPELINES[strategy]
        state = nonoverlap.init(target, mode=mode, extending=extending)
        for block in blocks:
            state = nonoverlap.step(state, block)
            yield state.weights
    elif strategy == 5:
        for block in blocks:
            block = as_returns_block(block)
            require_window(*block.shape)
            yield sample_gmv_weights(block)
    elif strategy == 6:
        for _block in blocks:
            yield target.copy()
    else:  # strategy 7
        for block in blocks:
            yield nonoverlap.init(target, first_block=block, mode="fixed").weights
