"""Tests for the extending-window shrinkage pipeline.

Covers:
- the cross-window coefficient ``1 / (1 - c_later)`` and its values
- the closed-form mixing coefficient ``K = beta0 + (1 - beta0) / (1 - c)``
  against the general mixture sum, and the limit-form intensity/loss
- the finite-sample recursion with the mixing excess ``K - 1``: its
  agreement with the limit form, its reduction to the fresh-window
  recursion when nothing overlaps, and its exactness once the target's
  share has gone
- the extending-window schedule: a first mixing coefficient of exactly
  one and losses that fall as the window grows
- the first weights strategies 1, 2, 4 and 7 share bit for bit, and
  strategy 7 carrying nothing over from earlier blocks

The stepping invariants both window kinds share, the bit-for-bit rebuild
of the weights included, are ``test_nonoverlap.py::test_pipeline_invariants``;
the link between the cross coefficient and the two-sample resolvent
constant is acceptance criterion 6.
"""

import logging

import numpy as np
import pytest

from gmvshrink import nonoverlap
from gmvshrink.core import DegenerateInputError, InsufficientSampleError
from gmvshrink.nonoverlap import cross_excess, feasible_intensity, replay_intensities
from gmvshrink.overlap import (
    cross_term,
    init,
    next_loss,
    optimal_intensity,
    step,
)
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


@pytest.mark.parametrize(
    ("prev_loss", "c"), [(1.0, 1.5), (-0.1, 0.5)], ids=["c-above-one", "negative-loss"]
)
def test_intensity_inputs_out_of_range_are_value_errors(prev_loss, c):
    with pytest.raises(ValueError, match="must"):
        optimal_intensity(prev_loss, 1.0, c)


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
# weights across strategies
# ---------------------------------------------------------------------------


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
