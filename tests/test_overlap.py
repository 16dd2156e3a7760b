"""Tests for the extending-window shrinkage pipeline.

Covers:
- the cross-window coefficient ``1 / (1 - c_later)`` and its values
- the closed-form mixing coefficient ``K = beta0 + (1 - beta0) / (1 - c)``
  against the general mixture sum, and the limit-form intensity/loss
- the finite-sample recursion with the mixing excess ``K - 1``: its
  agreement with the limit form, its reduction to the fresh-window
  recursion when nothing overlaps, and its exactness once the target's
  share has gone
- the extending-window schedule and the stateful stepping interface
- the identity linking the cross coefficient to the two-sample
  resolvent constant at matched concentrations
"""

import logging
import math

import numpy as np
import pytest

from gmvshrink import nonoverlap
from gmvshrink.core import (
    DegenerateInputError,
    DimensionError,
    InsufficientSampleError,
    PooledStats,
    gmv_weights,
    sample_moments,
)
from gmvshrink.nonoverlap import cross_excess, feasible_intensity, replay_intensities
from gmvshrink.overlap import (
    cross_term,
    init,
    next_loss,
    optimal_intensity,
    step,
)
from gmvshrink.rmt import cross_resolvent_constant
from gmvshrink.sim import build_population, generate
from gmvshrink.strategies import weight_sequence

# ---------------------------------------------------------------------------
# cross_term
# ---------------------------------------------------------------------------


def test_cross_term_equal_concentrations():
    # coincident windows: 1 / (1 - C) at C = 0.75
    assert cross_term(0.75, 0.75) == pytest.approx(4.0, abs=1e-12)


def test_cross_term_frozen_values():
    assert cross_term(0.5, 0.25) == pytest.approx(4 / 3, abs=1e-12)
    # doubling window at c = 0.8: window sizes N_j = p/0.8, N_i = p/0.4
    assert cross_term(0.8, 0.4) == pytest.approx(5 / 3, abs=1e-12)


def test_cross_term_range():
    rng = np.random.default_rng(113)
    for _ in range(100):
        c_j = float(rng.uniform(0.01, 0.99))
        c_i = float(rng.uniform(0.0, 1.0)) * c_j
        if c_i <= 0.0:
            continue
        value = cross_term(c_j, c_i)
        assert 1.0 < value <= 1.0 / (1.0 - c_j)


def test_cross_term_validation():
    with pytest.raises(ValueError):
        cross_term(0.25, 0.5)  # windows only grow
    with pytest.raises(ValueError):
        cross_term(1.0, 0.5)
    with pytest.raises(ValueError):
        cross_term(0.5, 0.0)


# ---------------------------------------------------------------------------
# mixing coefficient K = 1 + cross_excess
# ---------------------------------------------------------------------------


def test_cross_excess_endpoints():
    # only the target held: K is exactly 1
    assert cross_excess(1.0, 40, 10) == 0.0
    # target gone: K sits at its upper end 1 / (1 - C)
    assert 1.0 + cross_excess(0.0, 40, 10) == pytest.approx(4 / 3, abs=1e-15)
    with pytest.raises(InsufficientSampleError):
        cross_excess(0.5, 10, 10)


def test_mixing_weighted_sum():
    """beta0 + sum_j beta_j * cross_term(c_j, c_i) collapses to the closed form."""
    rng = np.random.default_rng(113)
    for _ in range(50):
        p = int(rng.integers(2, 60))
        counts = np.cumsum(rng.integers(1, 40, size=6)) + p + 1
        intensities = rng.uniform(0.0, 1.0, size=len(counts) - 1)
        betas = [1.0]
        for psi in intensities:
            betas = [(1.0 - psi) * b for b in betas] + [psi]
        c_i = p / counts[-1]
        mixture = betas[0] + sum(
            b * cross_term(p / n, c_i) for b, n in zip(betas[1:], counts[:-1])
        )
        closed = 1.0 + cross_excess(betas[0], counts[-1], p)
        assert closed == pytest.approx(mixture, rel=1e-12)
        assert 1.0 <= closed <= 1.0 / (1.0 - c_i)


# ---------------------------------------------------------------------------
# optimal_intensity / next_loss
# ---------------------------------------------------------------------------


def test_intensity_reduces_to_fresh_window_formula_when_mixing_is_one():
    rng = np.random.default_rng(127)
    for _ in range(100):
        c = float(rng.uniform(0.01, 0.99))
        r = float(rng.uniform(0.0, 6.0))
        assert abs(optimal_intensity(r, 1.0, c) - nonoverlap.optimal_intensity(c, r)) < 1e-12


def test_intensity_hand_values():
    assert optimal_intensity(0.0, 1.0, 0.5) == 0.0
    assert optimal_intensity(1.0, 5 / 6, 0.5) == pytest.approx(0.5)


def test_intensity_degenerate_denominator():
    # (R+1) + (1-C)^{-1} - 2K = 1 + 2 - 3 = 0
    with pytest.raises(DegenerateInputError):
        optimal_intensity(0.0, 1.5, 0.5)


def test_next_loss_endpoints():
    assert next_loss(0.0, 0.3, 1.7, 0.9) == pytest.approx(1.7)
    assert next_loss(1.0, 0.5, 1.7, 0.9) == pytest.approx(1.0)


def test_next_loss_equals_fresh_window_recursion_at_full_mixing():
    """With K = 1 the cross term contributes exactly +0.0, bit for bit."""
    rng = np.random.default_rng(131)
    for _ in range(100):
        psi = float(rng.uniform(0.0, 1.0))
        c = float(rng.uniform(0.01, 0.99))
        r = float(rng.uniform(0.0, 6.0))
        assert next_loss(psi, c, r, 1.0) == nonoverlap.next_loss(psi, c, r)


def test_next_loss_clamps_below_zero():
    assert next_loss(0.5, 0.01, 0.0, 0.1) == 0.0


# ---------------------------------------------------------------------------
# finite-sample recursion with the mixing excess
# ---------------------------------------------------------------------------


def test_feasible_intensity_matches_limit_form():
    """The excess form is the limit form at K = 1 + excess and C = p / N."""
    rng = np.random.default_rng(137)
    for _ in range(200):
        p = int(rng.integers(1, 100))
        n = p + int(rng.integers(2, 300))
        excess = cross_excess(float(rng.uniform(0.0, 1.0)), n, p)
        r = float(rng.uniform(0.0, 4.0))
        expected = optimal_intensity(r, 1.0 + excess, p / n)
        assert feasible_intensity(n, p, r, excess) == pytest.approx(expected, abs=1e-12)


def test_feasible_intensity_is_exactly_one_once_target_is_gone():
    """At the largest excess the denominator equals the numerator exactly."""
    for p in (1, 6, 25, 40, 90, 100):
        for n in range(p + 2, p + 400):
            excess = cross_excess(0.0, n, p)
            r = excess * 1.5 + 0.01
            assert feasible_intensity(n, p, r, excess) == 1.0


def test_schedule_first_mixing_is_exactly_one():
    """Nothing overlaps the first pooled window, so K is exactly one and the
    first intensity is the fresh-window one, bit for bit; later K exceeds one."""
    intensities, _ = replay_intensities(1.0, [20, 40], 10, extending=True)
    fresh, _ = replay_intensities(1.0, [20, 40], 10)
    assert intensities[0] == fresh[0]
    assert intensities[1] != fresh[1]


def test_schedule_is_deterministic():
    counts = [20, 30, 40, 50]
    a = replay_intensities(0.8, counts, 10, extending=True)
    b = replay_intensities(0.8, counts, 10, extending=True)
    assert a == b


def test_schedule_losses_decrease_with_growing_window():
    _, result = replay_intensities(2.0, [20, 30, 40, 50, 60], 10, extending=True)
    losses = (2.0,) + tuple(result)
    for prev, cur in zip(losses, losses[1:]):
        assert cur <= prev
    # strictly decreasing until the limiting loss hits the zero clamp
    assert losses[1] < losses[0]
    assert losses[2] < losses[1]


def test_target_share_reaching_zero_is_exact(caplog):
    """Once the target's share has gone, K sits at its upper end and the
    recursion stays exact: psi is exactly one and nothing is clamped."""
    p, n = 90, 100
    target = np.full(p, 1.0 / p)
    for seed in range(3):
        pop_seed, data_seed = np.random.SeedSequence(seed).spawn(2)
        pop = build_population(p, pop_seed)
        rng = np.random.default_rng(data_seed)
        state = init(target, mode="fixed")
        gone = False
        with caplog.at_level(logging.WARNING, logger="gmvshrink"):
            for _ in range(10):
                state = step(state, generate(pop, "t5", n, rng))
                if gone:
                    assert state.target_share == 0.0
                    assert state.intensities[-1] == 1.0
                gone = state.target_share == 0.0
                assert np.isfinite(state.loss)
        assert gone
    assert not [r for r in caplog.records if r.name.startswith("gmvshrink")]


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def test_first_step_matches_fresh_window_pipeline_bitwise():
    """One pooled window cannot overlap anything, so the two pipelines agree."""
    rng = np.random.default_rng(149)
    block = rng.standard_normal((10, 40))
    b = np.full(10, 0.1)
    fresh = nonoverlap.init(b, first_block=block, mode="fixed")
    pooled = init(b, first_block=block, mode="fixed")
    np.testing.assert_array_equal(fresh.weights, pooled.weights)
    assert fresh.loss == pooled.loss
    assert fresh.intensities[0] == pooled.intensities[0]


def test_first_weights_agree_across_strategies_bitwise():
    """Strategies 1, 2, 4 and 7 estimate the first step from the same
    two-pass covariance, so their first weights are the same bits."""
    p = 30
    block = generate(build_population(p, 3), "t5", 40, np.random.default_rng(3))
    target = np.full(p, 1.0 / p)
    first = [next(weight_sequence([block], s, target)) for s in (1, 2, 4, 7)]
    for weights in first[1:]:
        assert np.array_equal(weights, first[0])


def test_strategy_7_is_memoryless_bitwise():
    """Strategy 7's weights on each block are strategy 1's first weights
    on that block alone: nothing carries over from earlier blocks."""
    p = 30
    blocks = generate(build_population(p, 5), "t5", 4 * 40, np.random.default_rng(5))
    blocks = np.split(blocks, 4, axis=1)
    target = np.full(p, 1.0 / p)
    for block, weights in zip(blocks, weight_sequence(blocks, 7, target), strict=True):
        assert np.array_equal(weights, next(weight_sequence([block], 1, target)))


def test_first_window_must_exceed_asset_count():
    rng = np.random.default_rng(151)
    with pytest.raises(InsufficientSampleError):
        init(np.full(10, 0.1), first_block=rng.standard_normal((10, 11)))


def test_later_increments_may_be_single_columns():
    rng = np.random.default_rng(157)
    state = init(np.full(5, 0.2), first_block=rng.standard_normal((5, 20)))
    for _ in range(3):
        state = step(state, rng.standard_normal((5, 1)))
    assert state.period == 4
    assert [rec.n_obs for rec in state.history] == [20, 21, 22, 23]


def test_target_share_is_product_of_complements():
    rng = np.random.default_rng(163)
    state = init(np.full(8, 0.125), first_block=rng.standard_normal((8, 30)))
    for _ in range(5):
        state = step(state, rng.standard_normal((8, 10)))
        assert state.target_share == math.prod(1.0 - psi for psi in state.intensities)
        assert 0.0 <= state.target_share <= 1.0
        assert abs(state.weights.sum() - 1.0) < 1e-10


def test_pooled_covariance_matches_concatenated_blocks():
    rng = np.random.default_rng(167)
    blocks = [rng.standard_normal((6, n)) for n in (25, 7, 1, 12)]
    state = init(np.full(6, 1 / 6), mode="replay")
    for block in blocks:
        state = step(state, block)
    stacked = np.hstack(blocks)
    _, cov = sample_moments(stacked)
    np.testing.assert_allclose(state.pooled.cov(), cov, rtol=1e-9, atol=1e-12)
    assert state.pooled.count == stacked.shape[1]


def test_replay_reconstruction_is_bitwise():
    """Applied intensities and the pooled sample portfolios, rebuilt from the
    blocks, reproduce the holding weights exactly."""
    rng = np.random.default_rng(173)
    b = np.full(12, 1 / 12)
    blocks = [rng.standard_normal((12, n)) for n in (40, 8, 15, 5)]
    state = init(b, mode="replay")
    for block in blocks:
        state = step(state, block)
    w, pooled = state.target, PooledStats(12)
    for i, (psi, block) in enumerate(zip(state.intensities, blocks)):
        pooled = pooled.updated(block)
        # the first pooled window uses two-pass moments, as in the step
        cov = sample_moments(block)[1] if i == 0 else pooled.cov()
        w = psi * gmv_weights(cov) + (1.0 - psi) * w
    np.testing.assert_array_equal(w, state.weights)


def test_step_asset_mismatch():
    rng = np.random.default_rng(179)
    with pytest.raises(DimensionError):
        step(init(np.full(4, 0.25)), rng.standard_normal((5, 30)))


def test_init_rejects_unknown_mode():
    with pytest.raises(ValueError):
        init(np.full(4, 0.25), mode="bogus")


# ---------------------------------------------------------------------------
# link to the two-sample resolvent constant
# ---------------------------------------------------------------------------


def test_cross_term_matches_scaled_resolvent_constant():
    """(1-C_j)(1-C_i) times the two-sample constant approaches the cross
    coefficient as the matrix dimensions grow at fixed concentrations."""
    d_small = cross_resolvent_constant(200, 200, 100).d
    d_large = cross_resolvent_constant(400, 400, 200).d
    target = cross_term(0.5, 0.25)
    gap_small = abs(0.375 * d_small - target)
    gap_large = abs(0.375 * d_large - target)
    assert gap_small < 0.005
    assert gap_large < gap_small
