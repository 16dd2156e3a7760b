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

The pipeline itself is the shared one of :mod:`gmvshrink.nonoverlap` with
``extending=True``: :func:`init` is its entry point, with the same two
initializations (``fixed`` and ``replay``), and
:func:`step` is the shared step. Only the first pooled window must exceed
``p + 1`` observations; later increments may be arbitrarily short.
"""

from . import nonoverlap
from .core import DegenerateInputError, gmv_weights  # noqa: F401
from .nonoverlap import feasible_intensity, step  # noqa: F401

# gmv_weights and feasible_intensity are kept as aliases for
# perfbench/tests/tracer_checks.py; step is the pipeline's shared step.


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


def init(target, first_block=None, mode="fixed"):
    """Extending-window state: :func:`gmvshrink.nonoverlap.init` with ``extending=True``."""
    return nonoverlap.init(target, first_block, mode, extending=True)
