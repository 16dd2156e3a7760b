"""Sample moments, minimum-variance weights and relative-loss primitives.

Conventions used throughout the package: a returns block is a ``p x n``
float array with assets in rows and observations in columns, covariance
matrices are symmetric positive-definite ``p x p`` arrays, and weight
vectors are length ``p`` and sum to one.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

logger = logging.getLogger(__name__)


#: least share ``l_kk² / S_kk`` of an asset's variance left once the assets
#: before it are regressed out; an asset that copies another up to 1e-9 noise
#: keeps ~1e-14, up to 1e-6 noise ~1e-8; simulated windows at n = p + 2 keep > 2e-6
PIVOT_RATIO = 1e-12


class DimensionError(ValueError):
    """Raised when array shapes are inconsistent with the operation."""


class SingularityError(ValueError):
    """Raised when a covariance matrix cannot be treated as positive-definite;
    a message from :func:`solve_spd` names the matrix's dimension ``p`` and,
    where the caller knows it, the sample size ``n``."""


class InsufficientSampleError(ValueError):
    """Raised when a sample is too small for the requested estimator."""


class DegenerateInputError(ValueError):
    """Raised when a formula input produces a degenerate expression."""


def as_returns_block(values, min_obs=2):
    """Validate and coerce a returns block to a float64 ``p x n`` array.

    Parameters
    ----------
    values : array_like
        Two-dimensional array, assets in rows and observations in columns.
    min_obs : int
        Lower bound on the number of observations; at least one asset is
        always required.

    Returns
    -------
    numpy.ndarray
        The validated block as a contiguous float64 array.
    """
    block = np.ascontiguousarray(values, dtype=np.float64)
    if block.ndim != 2:
        raise DimensionError(
            f"returns block must be 2-D (assets x observations), got ndim={block.ndim}"
        )
    p, n = block.shape
    if p < 1:
        raise DimensionError(f"returns block needs at least 1 asset, got p={p}")
    if n < min_obs:
        raise InsufficientSampleError(
            f"returns block needs at least {min_obs} observations, got n={n}"
        )
    if not np.all(np.isfinite(block)):
        raise DegenerateInputError("returns block contains non-finite entries")
    return block


def require_window(p, n):
    """Refuse an estimation window of ``n`` observations on ``p`` assets
    unless ``n > p + 1``, the least every window-estimating strategy needs."""
    if n <= p + 1:
        raise InsufficientSampleError(
            f"estimation windows need n > p + 1, got p={p}, n={n}"
        )


def require_arrays_fit(*shapes):
    """Refuse float64 arrays of these ``shapes`` that numpy cannot create:
    more than ``np.iinfo(np.intp).max`` bytes at 8 bytes per entry."""
    for shape in shapes:
        if 8 * math.prod(map(int, shape)) > np.iinfo(np.intp).max:
            raise ValueError(f"a {' x '.join(map(str, shape))} array is too large for numpy")


def as_weight_vector(values, n_assets=None):
    """Coerce to a 1-D float64 weight vector, optionally checking its length."""
    w = np.asarray(values, dtype=np.float64).reshape(-1)
    if n_assets is not None and w.shape[0] != n_assets:
        raise DimensionError(f"weight vector has length {w.shape[0]}, expected {n_assets}")
    if not np.all(np.isfinite(w)):
        raise DegenerateInputError("weight vector contains non-finite entries")
    return w


def sample_moments(returns):
    """Sample mean vector and sample covariance matrix of a returns block.

    The covariance uses the centering projector with denominator ``n - 1``;
    it is evaluated through deviations from the mean, which is algebraically
    identical and numerically preferable.

    Parameters
    ----------
    returns : array_like
        ``p x n`` block with ``n >= 2``.

    Returns
    -------
    mean : numpy.ndarray
        Length ``p`` vector of row means.
    cov : numpy.ndarray
        ``p x p`` sample covariance matrix.
    """
    block = as_returns_block(returns)
    n = block.shape[1]
    mean = block.mean(axis=1)
    deviations = block - mean[:, None]
    cov = deviations @ deviations.T / (n - 1)
    return mean, cov


def mean_and_stderr(values):
    """Sample mean and its standard error; NaN and 0 when empty, 0 error for one value."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return float("nan"), 0.0
    stderr = values.std(ddof=1) / math.sqrt(values.size) if values.size > 1 else 0.0
    return float(values.mean()), float(stderr)


def solve_spd(mat, rhs, n_obs=None):
    """Solve ``mat @ x = rhs`` for symmetric positive-definite ``mat``.

    Uses a Cholesky factorization only; a factorization failure is reported
    as a :class:`SingularityError` rather than falling back to least squares,
    because every covariance matrix entering the estimators must satisfy
    ``n > p``. A matrix that factors but is near-singular (see
    :data:`PIVOT_RATIO`) is refused the same way.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {mat.shape}")
    p = mat.shape[0]
    sample = f" (sample size n={n_obs})" if n_obs is not None else ""
    try:
        factor = linalg.cho_factor(mat, lower=True, check_finite=False)
    except linalg.LinAlgError as exc:
        raise SingularityError(
            f"covariance matrix of dimension p={p} is not positive-definite{sample}"
        ) from exc
    # Rounding can let an exactly rank-deficient matrix through the
    # factorization with a pivot at roundoff level; treat that as singular.
    # The floor scales with the largest diagonal entry, so a constant asset,
    # whose variance is itself rounding noise, is caught too. Written as a
    # failed ">" so that a NaN pivot or floor is refused as well.
    squared = np.diagonal(factor[0]) ** 2
    diagonal = np.diagonal(mat)
    if not np.all(squared > p * np.finfo(np.float64).eps * diagonal.max()):
        state = f"numerically singular{sample}"
    elif not np.all(squared > PIVOT_RATIO * diagonal):
        state = (
            f"near-singular{sample}: a squared Cholesky pivot is at most "
            f"{PIVOT_RATIO:g} of its diagonal entry"
        )
    else:
        return linalg.cho_solve(factor, np.asarray(rhs, dtype=np.float64), check_finite=False)
    raise SingularityError(f"covariance matrix of dimension p={p} is {state}")


def _solve_ones(cov, n_obs):
    """``cov^{-1} 1`` and its total ``1' cov^{-1} 1``, which must be positive."""
    cov = np.asarray(cov, dtype=np.float64)
    solved = solve_spd(cov, np.ones(cov.shape[0]), n_obs=n_obs)
    total = float(solved.sum())
    if total <= 0.0:
        raise SingularityError("quadratic form 1'S^{-1}1 is not positive (matrix treated as singular)")
    return solved, total


def precision_ones_form(cov, n_obs=None):
    """Return the scalar ``1' cov^{-1} 1`` through an SPD solve."""
    return _solve_ones(cov, n_obs)[1]


def gmv_weights(cov, n_obs=None):
    """Global minimum-variance weights ``cov^{-1} 1 / (1' cov^{-1} 1)``.

    Parameters
    ----------
    cov : array_like
        Positive-definite covariance matrix. For sample covariance inputs
        this requires ``n > p``.
    n_obs : int, optional
        Sample size behind ``cov``; attached to singularity errors.
    """
    solved, total = _solve_ones(cov, n_obs)
    return solved / total


def sample_gmv_weights(returns):
    """Sample minimum-variance weights of one returns block; a block that fails
    the shared rule ``n > p + 1`` raises :class:`InsufficientSampleError`."""
    block = as_returns_block(returns)
    require_window(*block.shape)
    _, cov = sample_moments(block)
    return gmv_weights(cov, n_obs=block.shape[1])


def portfolio_variance(weights, cov):
    """Quadratic form ``w' cov w``."""
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DimensionError(f"expected a square covariance matrix, got shape {cov.shape}")
    w = as_weight_vector(weights, n_assets=cov.shape[0])
    return float(w @ cov @ w)


def relative_loss(weights, eval_cov, ones_form=None):
    """Relative out-of-sample variance loss of ``weights`` under ``eval_cov``.

    Returns ``1' cov^{-1} 1 * w' cov w - 1``, the excess of the portfolio's
    true variance over the minimum attainable variance as a fraction of the
    latter. Nonnegative for every fully invested portfolio, up to solver
    tolerance. ``ones_form``, when given, is ``precision_ones_form(eval_cov)``
    computed once by a caller that scores many portfolios under the same
    covariance; otherwise it is computed here.
    """
    if ones_form is None:
        ones_form = precision_ones_form(eval_cov)
    return ones_form * portfolio_variance(weights, eval_cov) - 1.0


def estimate_target_loss_from_cov(cov, n_obs, target):
    """Plug-in estimate of the target portfolio's relative loss.

    Consistent for the population relative loss of the target under
    high-dimensional asymptotics; requires ``n > p + 1``. Evaluates
    ``(1 - p/n) * 1'S^{-1}1 * b'Sb - 1`` and clamps the result below at
    zero. The raw value can dip negative by sampling noise (it is
    exactly ``-p/n`` when the target equals the in-sample minimum-variance
    portfolio); a negative loss would push shrinkage intensities outside
    ``[0, 1]``, so the clamp is applied before the recursion and logged.
    """
    cov = np.asarray(cov, dtype=np.float64)
    p = cov.shape[0]
    require_window(p, n_obs)
    b = as_weight_vector(target, n_assets=p)
    qf = precision_ones_form(cov, n_obs=n_obs)
    raw = (1.0 - p / n_obs) * qf * float(b @ cov @ b) - 1.0
    if raw < 0.0:
        logger.debug(
            "target-loss estimate clamped to 0 (raw=%.6g, p=%d, n=%d)", raw, p, n_obs
        )
        return 0.0
    return raw


@dataclass
class PooledStats:
    """Running sufficient statistics for the pooled sample covariance.

    Stores the observation count, the running sum of returns and the running
    sum of outer products, so the pooled covariance of all blocks seen so far
    is available in ``O(p^2)`` without retaining raw data.
    """

    n_assets: int
    count: int = 0
    sum_returns: np.ndarray = field(default=None)
    sum_outer: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.sum_returns is None:
            self.sum_returns = np.zeros(self.n_assets)
        if self.sum_outer is None:
            self.sum_outer = np.zeros((self.n_assets, self.n_assets))

    def updated(self, block):
        """Return a new :class:`PooledStats` with ``block`` folded in."""
        block = as_returns_block(block, min_obs=1)
        if block.shape[0] != self.n_assets:
            raise DimensionError(
                f"block has p={block.shape[0]} assets, pooled state expects {self.n_assets}"
            )
        return PooledStats(
            n_assets=self.n_assets,
            count=self.count + block.shape[1],
            sum_returns=self.sum_returns + block.sum(axis=1),
            sum_outer=self.sum_outer + block @ block.T,
        )

    def mean(self):
        if self.count < 1:
            raise InsufficientSampleError("pooled mean needs at least one observation")
        return self.sum_returns / self.count

    def cov(self):
        """Pooled sample covariance ``(M - N * ybar ybar') / (N - 1)``."""
        if self.count < 2:
            raise InsufficientSampleError("pooled covariance needs at least two observations")
        outer_mean = np.outer(self.sum_returns, self.sum_returns) / self.count
        return (self.sum_outer - outer_mean) / (self.count - 1)
