"""Unit tests for the shared estimators and loss functionals.

Covers:
- sample moments (hand values, projector identity)
- the Monte Carlo mean and its standard error
- minimum-variance weights (identity/diagonal cases, singular and
  near-singular input)
- portfolio variance and relative loss
- the consistent target-loss estimator and its clamp
- pooled running statistics
- full-investment, optimality, and scale-equivariance properties
"""

from pathlib import Path

import numpy as np
import pytest

from gmvshrink.core import (
    DimensionError,
    InsufficientSampleError,
    PooledStats,
    SingularityError,
    as_returns_block,
    as_weight_vector,
    estimate_target_loss_from_cov,
    gmv_weights,
    mean_and_stderr,
    portfolio_variance,
    precision_ones_form,
    relative_loss,
    sample_gmv_weights,
    sample_moments,
    solve_spd,
)
from gmvshrink.dataio import read_returns_csv
from gmvshrink.sim import build_population


def _random_spd(rng, p):
    a = rng.standard_normal((p, p))
    return a @ a.T + p * np.eye(p)


# ---------------------------------------------------------------------------
# sample_moments
# ---------------------------------------------------------------------------


def test_sample_moments_two_point():
    block = np.array([[1.0, 3.0], [2.0, 4.0]])  # columns (1,2) and (3,4)
    mean, cov = sample_moments(block)
    np.testing.assert_allclose(mean, [2.0, 3.0])
    np.testing.assert_allclose(cov, [[2.0, 2.0], [2.0, 2.0]])


def test_sample_moments_identical_columns():
    block = np.tile(np.array([[1.5], [-0.5], [3.0]]), (1, 7))
    _, cov = sample_moments(block)
    np.testing.assert_allclose(cov, np.zeros((3, 3)), atol=1e-15)


def test_sample_moments_single_asset():
    mean, cov = sample_moments(np.array([[1.0, 3.0]]))
    assert mean[0] == pytest.approx(2.0)
    assert cov[0, 0] == pytest.approx(2.0)


def test_mean_and_stderr_hand_values_and_small_samples():
    # mean 2.5, sample variance 5/3, so the error is sqrt(5/3) / 2
    mean, stderr = mean_and_stderr(np.array([1.0, 2.0, 3.0, 4.0]))
    assert mean == 2.5
    assert stderr == pytest.approx(np.sqrt(5.0 / 3.0) / 2.0, rel=1e-15)
    assert mean_and_stderr([7.0]) == (7.0, 0.0)
    mean, stderr = mean_and_stderr(np.empty(0))
    assert np.isnan(mean) and stderr == 0.0


def test_sample_moments_projector_identity():
    """Deviation-based covariance equals the centering-projector form."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        p, n = rng.integers(2, 8), int(rng.integers(3, 40))
        block = rng.standard_normal((p, n))
        _, cov = sample_moments(block)
        proj = np.eye(n) - np.ones((n, n)) / n
        direct = block @ proj @ block.T / (n - 1)
        np.testing.assert_allclose(cov, direct, rtol=1e-10, atol=1e-12)


def test_sample_moments_rejects_single_observation():
    with pytest.raises(InsufficientSampleError):
        sample_moments(np.array([[1.0], [2.0]]))


def test_returns_block_rejects_non_finite():
    with pytest.raises(ValueError):
        as_returns_block(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_returns_block_rejects_zero_assets():
    with pytest.raises(DimensionError):
        as_returns_block(np.empty((0, 5)))


@pytest.mark.parametrize("shape", [(5,), (2, 3, 4)], ids=["1-d", "3-d"])
def test_returns_block_of_other_rank_is_dimension_error(shape):
    with pytest.raises(DimensionError, match=f"must be 2-D .*ndim={len(shape)}"):
        as_returns_block(np.ones(shape))


# ---------------------------------------------------------------------------
# gmv_weights / portfolio_variance
# ---------------------------------------------------------------------------


def test_gmv_weights_identity():
    np.testing.assert_allclose(gmv_weights(np.eye(4)), np.full(4, 0.25))


def test_gmv_weights_diagonal():
    np.testing.assert_allclose(gmv_weights(np.diag([1.0, 2.0])), [2 / 3, 1 / 3])


def test_gmv_weights_singular_input():
    with pytest.raises(SingularityError):
        gmv_weights(np.array([[2.0, 2.0], [2.0, 2.0]]))


def test_sample_gmv_weights_needs_tall_block():
    rng = np.random.default_rng(0)
    with pytest.raises(InsufficientSampleError):
        sample_gmv_weights(rng.standard_normal((5, 4)))
    with pytest.raises(InsufficientSampleError, match=r"n > p \+ 1, got p=5, n=6"):
        sample_gmv_weights(rng.standard_normal((5, 6)))


def test_portfolio_variance_cases():
    assert portfolio_variance(np.array([0.5, 0.5]), np.eye(2)) == pytest.approx(0.5)
    assert portfolio_variance(np.array([1.0, 0.0]), np.diag([3.0, 1.0])) == pytest.approx(3.0)


def test_gmv_variance_identity():
    """Variance of the optimal portfolio is the reciprocal precision form."""
    rng = np.random.default_rng(3)
    cov = _random_spd(rng, 6)
    w = gmv_weights(cov)
    assert portfolio_variance(w, cov) == pytest.approx(1.0 / precision_ones_form(cov), rel=1e-10)


def test_portfolio_variance_dimension_mismatch():
    with pytest.raises(DimensionError):
        portfolio_variance(np.array([0.5, 0.5]), np.eye(3))


@pytest.mark.parametrize(
    "call",
    [lambda mat: solve_spd(mat, np.ones(2)), lambda mat: portfolio_variance(np.ones(2) / 2, mat)],
    ids=["solve_spd", "portfolio_variance"],
)
def test_non_square_matrix_is_dimension_error(call):
    with pytest.raises(DimensionError, match=r"square .*shape \(2, 3\)"):
        call(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# relative_loss
# ---------------------------------------------------------------------------


def test_relative_loss_of_optimal_weights_is_zero():
    rng = np.random.default_rng(11)
    cov = _random_spd(rng, 5)
    assert relative_loss(gmv_weights(cov), cov) == pytest.approx(0.0, abs=1e-10)


def test_relative_loss_concentrated_identity():
    assert relative_loss(np.array([1.0, 0.0]), np.eye(2)) == pytest.approx(1.0)


def test_relative_loss_matches_dense_evaluation():
    """Solver-based loss equals the brute-force dense quadratic forms."""
    pop = build_population(150, seed=5)
    b = np.full(150, 1 / 150)
    value = relative_loss(b, pop.cov)
    inv = np.linalg.inv(pop.cov)
    brute = float(np.ones(150) @ inv @ np.ones(150)) * float(b @ pop.cov @ b) - 1.0
    assert value >= 0.0
    assert value == pytest.approx(brute, rel=1e-9)


def test_relative_loss_never_below_tolerance():
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = int(rng.integers(2, 9))
        cov = _random_spd(rng, p)
        w = rng.standard_normal(p)
        w /= w.sum()
        assert relative_loss(w, cov) >= -1e-10


# ---------------------------------------------------------------------------
# estimate_target_loss_from_cov
# ---------------------------------------------------------------------------


def test_target_loss_clamps_at_in_sample_gmv():
    """With the block's own sample GMV as target the raw value is -p/n."""
    rng = np.random.default_rng(23)
    block = rng.standard_normal((4, 30))
    _, cov = sample_moments(block)
    b = gmv_weights(cov)
    raw = (1 - 4 / 30) * precision_ones_form(cov) * float(b @ cov @ b) - 1.0
    assert raw == pytest.approx(-4 / 30, abs=1e-12)
    assert estimate_target_loss_from_cov(cov, block.shape[1], b) == 0.0


def test_target_loss_identity_population_near_zero():
    """Equally weighted is optimal under the identity, so the loss -> 0."""
    rng = np.random.default_rng(29)
    block = rng.standard_normal((5, 4000))
    b = np.full(5, 0.2)
    loss = estimate_target_loss_from_cov(sample_moments(block)[1], block.shape[1], b)
    assert loss == pytest.approx(0.0, abs=0.05)


def test_target_loss_tracks_population_value():
    """Average estimate sits within 10% of the dense population value."""
    pop = build_population(100, seed=13)
    b = np.full(100, 0.01)
    inv = np.linalg.inv(pop.cov)
    population = float(np.ones(100) @ inv @ np.ones(100)) * float(b @ pop.cov @ b) - 1.0
    estimates = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        block = pop.mean[:, None] + pop.sqrt_cov @ rng.standard_normal((100, 500))
        estimates.append(
            estimate_target_loss_from_cov(sample_moments(block)[1], block.shape[1], b)
        )
    assert np.mean(estimates) == pytest.approx(population, rel=0.10)


def test_target_loss_needs_enough_observations():
    rng = np.random.default_rng(31)
    b = np.full(10, 0.1)
    block = rng.standard_normal((10, 11))
    with pytest.raises(InsufficientSampleError):
        estimate_target_loss_from_cov(sample_moments(block)[1], block.shape[1], b)
    # n = p + 2 is the smallest legal sample
    block = rng.standard_normal((10, 12))
    estimate_target_loss_from_cov(sample_moments(block)[1], block.shape[1], b)


def test_target_loss_from_cov_validates_sample_size():
    with pytest.raises(InsufficientSampleError):
        estimate_target_loss_from_cov(np.eye(3), 4, np.full(3, 1 / 3))


# ---------------------------------------------------------------------------
# solve_spd
# ---------------------------------------------------------------------------


def test_solve_spd_matches_dense_solve():
    rng = np.random.default_rng(37)
    cov = _random_spd(rng, 7)
    rhs = rng.standard_normal(7)
    np.testing.assert_allclose(solve_spd(cov, rhs), np.linalg.solve(cov, rhs), rtol=1e-10)


def test_solve_spd_rejects_zero_variance_asset():
    """A constant asset's variance is rounding noise, far below the others."""
    rng = np.random.default_rng(5)
    block = 0.01 * rng.standard_normal((5, 100))
    block[2] = 0.001
    _, cov = sample_moments(block)
    assert 0.0 < cov[2, 2] < 1e-30  # the factorization alone does not fail
    with pytest.raises(SingularityError, match="numerically singular"):
        solve_spd(cov, np.ones(5), n_obs=100)
    with pytest.raises(SingularityError):
        gmv_weights(np.diag([1e-4, 1e-4, 1e-38]))


@pytest.mark.parametrize("entry", [(0, 1), (1, 1)], ids=["off-diagonal", "diagonal"])
def test_gmv_weights_refuses_nan_covariance_entry(entry):
    """A NaN passes the factorization unchecked; its NaN pivot (and, on the
    diagonal, NaN floor) must still read as singular, not as NaN weights."""
    cov = np.eye(3)
    cov[entry] = cov[entry[::-1]] = np.nan
    with pytest.raises(SingularityError, match="numerically singular"):
        gmv_weights(cov)


def test_solve_spd_refuses_near_duplicate_asset():
    """An asset that copies the golden file's first asset up to 1e-9 noise
    keeps about 1e-14 of its variance beside the others, below
    ``PIVOT_RATIO``; with 1e-6 noise it keeps about 1e-8, and the unaltered
    first window keeps a fifth at least."""
    _, _, returns = read_returns_csv(Path(__file__).parent / "golden" / "returns.csv")
    window = returns[:, :55]

    def with_copy(noise):
        copy = window[0] + noise * np.random.default_rng(0).standard_normal(55)
        return sample_moments(np.vstack([window, copy]))[1]

    solve_spd(sample_moments(window)[1], np.ones(6), n_obs=55)
    solve_spd(with_copy(1e-6), np.ones(7), n_obs=55)
    with pytest.raises(SingularityError, match="near-singular") as info:
        solve_spd(with_copy(1e-9), np.ones(7), n_obs=55)
    assert "p=7" in str(info.value) and "n=55" in str(info.value)


def test_solve_spd_reports_dimensions_on_failure():
    singular = np.ones((3, 3))
    with pytest.raises(SingularityError) as info:
        solve_spd(singular, np.ones(3), n_obs=9)
    assert "dimension p=3" in str(info.value)
    assert "(sample size n=9)" in str(info.value)


# ---------------------------------------------------------------------------
# weight-vector and block validation
# ---------------------------------------------------------------------------


def test_weight_vector_validation():
    w = as_weight_vector([0.2, 0.8])
    assert w.shape == (2,)
    # column vectors are flattened rather than rejected
    assert as_weight_vector(np.array([[0.5], [0.5]])).shape == (2,)
    with pytest.raises(DimensionError):
        as_weight_vector([0.5, 0.5], n_assets=3)
    with pytest.raises(ValueError):
        as_weight_vector([np.inf, 0.5])


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_full_investment_invariant():
    rng = np.random.default_rng(41)
    for _ in range(100):
        p = int(rng.integers(2, 12))
        w = gmv_weights(_random_spd(rng, p))
        assert abs(w.sum() - 1.0) < 1e-10


def test_gmv_optimality_against_random_portfolios():
    rng = np.random.default_rng(43)
    cov = _random_spd(rng, 8)
    best = portfolio_variance(gmv_weights(cov), cov)
    for _ in range(1000):
        w = rng.standard_normal(8)
        w /= w.sum()
        assert best <= portfolio_variance(w, cov) + 1e-12


def test_scale_equivariance():
    rng = np.random.default_rng(47)
    cov = _random_spd(rng, 6)
    w = gmv_weights(cov)
    b = rng.standard_normal(6)
    b /= b.sum()
    base_loss = relative_loss(b, cov)
    for lam in (1e-4, 3.0, 1e4):
        np.testing.assert_allclose(gmv_weights(lam * cov), w, rtol=1e-9, atol=1e-12)
        assert relative_loss(b, lam * cov) == pytest.approx(base_loss, rel=1e-9)


# ---------------------------------------------------------------------------
# pooled running statistics
# ---------------------------------------------------------------------------


def test_pooled_stats_match_concatenated_two_pass():
    rng = np.random.default_rng(53)
    blocks = [rng.standard_normal((4, n)) for n in (10, 1, 25, 3)]
    pooled = PooledStats(n_assets=4)
    for block in blocks:
        pooled = pooled.updated(block)
    stacked = np.hstack(blocks)
    mean, cov = sample_moments(stacked)
    assert pooled.count == stacked.shape[1]
    np.testing.assert_allclose(pooled.mean(), mean, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(pooled.cov(), cov, rtol=1e-9, atol=1e-12)


def test_pooled_stats_updates_do_not_mutate():
    rng = np.random.default_rng(59)
    first = PooledStats(n_assets=3).updated(rng.standard_normal((3, 5)))
    count_before = first.count
    first.updated(rng.standard_normal((3, 4)))
    assert first.count == count_before


@pytest.mark.parametrize(
    ("call", "error"),
    [
        (lambda: PooledStats(3).updated(np.ones((4, 5))), DimensionError),
        (lambda: PooledStats(3).mean(), InsufficientSampleError),
        (lambda: PooledStats(3).updated(np.ones((3, 1))).cov(), InsufficientSampleError),
    ],
    ids=["updated-wrong-assets", "mean-empty", "cov-one-observation"],
)
def test_pooled_stats_refusals(call, error):
    """The type decides the exit code the CLI reports."""
    with pytest.raises(error):
        call()
