"""Tests for the shrinkage pipeline, mostly on fresh windows.

Covers:
- the scalar intensity/loss formulas and their hand values
- the harmonic-decay identity and monotone risk improvement
- the two initialization modes (fixed, replay) and their callers
- the refusals both window kinds share (an unknown mode, a window too
  short or of the wrong width), once for each kind's ``init``
- tracking of the population-optimal intensity on simulated data
- invariants of the shared pipeline over random window sizes, modes and
  window kinds (a property test), the bit-for-bit rebuild of the holding
  weights from the recorded intensities included
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmvshrink import nonoverlap, overlap
from gmvshrink.core import (
    DegenerateInputError,
    DimensionError,
    InsufficientSampleError,
    PooledStats,
    estimate_target_loss_from_cov,
    gmv_weights,
    relative_loss,
    sample_moments,
)
from gmvshrink.nonoverlap import (
    MODES,
    feasible_intensity,
    init,
    next_loss,
    optimal_intensity,
    replay_intensities,
    step,
)
from gmvshrink.sim import build_population
from gmvshrink.strategies import PIPELINES


def _draw_block(pop, n, rng):
    p = pop.n_assets
    return pop.mean[:, None] + pop.sqrt_cov @ rng.standard_normal((p, n))


# ---------------------------------------------------------------------------
# scalar formulas
# ---------------------------------------------------------------------------


def test_optimal_intensity_values():
    assert optimal_intensity(0.5, 0.0) == 0.0
    assert optimal_intensity(0.5, 1.0) == pytest.approx(0.5)
    # vanishing concentration with a real loss: intensity approaches one
    assert optimal_intensity(1e-9, 1.0) == pytest.approx(1.0, abs=1e-8)


def test_optimal_intensity_range_errors():
    with pytest.raises(ValueError):
        optimal_intensity(0.0, 1.0)
    with pytest.raises(ValueError):
        optimal_intensity(1.0, 1.0)
    with pytest.raises(ValueError):
        optimal_intensity(0.5, -0.1)


def test_feasible_intensity_values():
    assert feasible_intensity(250, 125, 1.0) == pytest.approx(0.5)
    assert feasible_intensity(250, 200, 4.0) == pytest.approx(0.5)
    assert feasible_intensity(250, 125, 0.0) == 0.0


def test_feasible_intensity_matches_limit_formula():
    rng = np.random.default_rng(61)
    for _ in range(50):
        n = int(rng.integers(10, 500))
        p = int(rng.integers(1, n))
        r = float(rng.uniform(0.0, 5.0))
        assert feasible_intensity(n, p, r) == pytest.approx(
            optimal_intensity(p / n, r), abs=1e-12
        )


def test_feasible_intensity_needs_n_above_p():
    with pytest.raises(InsufficientSampleError):
        feasible_intensity(100, 100, 1.0)


def test_next_loss_values():
    assert next_loss(0.0, 0.3, 2.5) == pytest.approx(2.5)
    assert next_loss(1.0, 0.5, 7.0) == pytest.approx(1.0)
    assert next_loss(0.5, 0.5, 1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        next_loss(1.5, 0.5, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: feasible_intensity(10, 5, -0.1),
        lambda: next_loss(0.5, 1.5, 1.0),
        lambda: next_loss(0.5, 0.5, -0.1),
    ],
    ids=["feasible-negative-loss", "next-loss-c-above-one", "next-loss-negative-loss"],
)
def test_recursion_inputs_out_of_range_are_value_errors(call):
    with pytest.raises(ValueError, match="must"):
        call()


def test_feasible_intensity_degenerate_denominator():
    # 10 (0 - 0.25) + 5 (1 - 0.25 / 0.5) = 0 exactly
    with pytest.raises(DegenerateInputError, match="degenerate intensity denominator"):
        feasible_intensity(15, 5, 0.0, 0.25)


# ---------------------------------------------------------------------------
# harmonic identity and risk improvement
# ---------------------------------------------------------------------------


def test_harmonic_identity_along_recursion():
    """With the optimal intensity, reciprocal losses grow linearly."""
    rng = np.random.default_rng(67)
    for _ in range(25):
        p = int(rng.integers(2, 50))
        n = int(rng.integers(p + 2, 4 * p + 10))
        r0 = float(rng.uniform(0.05, 4.0))
        c = p / n
        _, losses = replay_intensities(r0, [n] * 15, p)
        for i, loss in enumerate(losses, start=1):
            assert abs(1.0 / loss - (1.0 / r0 + i * (1.0 - c) / c)) < 1e-12 / loss


def test_risk_improves_every_period():
    _, losses = replay_intensities(3.0, [40] * 12, 10)
    kappa = 10 / (40 - 10)  # plateau of the no-shrinkage strategy
    prev = 3.0
    for loss in losses:
        assert loss < prev
        assert loss < kappa + 1e-12
        prev = loss


def test_replay_intensities_matches_manual_loop():
    sizes = [300, 250, 400, 260]
    p = 120
    intensities, losses = replay_intensities(0.8, sizes, p)
    loss = 0.8
    for n, psi_got, loss_got in zip(sizes, intensities, losses):
        psi = feasible_intensity(n, p, loss)
        loss = next_loss(psi, p / n, loss)
        assert psi_got == psi
        assert loss_got == loss


# ---------------------------------------------------------------------------
# initialization modes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "estimate",
    [
        lambda block: estimate_target_loss_from_cov(
            sample_moments(block)[1], block.shape[1], np.full(block.shape[0], 0.1)
        ),
        lambda block: step(init(np.full(block.shape[0], 0.1)), block),
    ],
    ids=["target-loss", "step"],
)
def test_short_windows_are_refused_with_the_shared_message(estimate):
    block = np.random.default_rng(74).standard_normal((10, 11))
    with pytest.raises(InsufficientSampleError, match=r"estimation windows need n > p \+ 1"):
        estimate(block)


def test_fixed_mode_in_sample_target_fully_shrinks_to_target():
    """A target equal to the window's own sample portfolio estimates loss 0."""
    rng = np.random.default_rng(83)
    block = rng.standard_normal((10, 40))
    _, cov = sample_moments(block)
    b = gmv_weights(cov)
    state = init(b, first_block=block, mode="fixed")
    assert estimate_target_loss_from_cov(cov, block.shape[1], b) == 0.0
    assert state.intensities[0] == 0.0
    np.testing.assert_array_equal(state.weights, b)


def test_init_without_block_holds_target():
    b = np.full(5, 0.2)
    state = init(b)
    assert state.period == 0
    assert math.isnan(state.loss) and state.target_share == 1.0
    np.testing.assert_array_equal(state.weights, b)
    np.testing.assert_array_equal(state.target, b)


def test_init_with_block_equals_init_then_step():
    rng = np.random.default_rng(89)
    block = rng.standard_normal((6, 30))
    b = np.full(6, 1 / 6)
    one_shot = init(b, first_block=block)
    two_step = step(init(b), block)
    np.testing.assert_array_equal(one_shot.weights, two_step.weights)
    assert one_shot.loss == two_step.loss


#: the two window kinds' entry points, which share ``step``
_INITS = pytest.mark.parametrize(
    "window_init", [nonoverlap.init, overlap.init], ids=["fresh", "extending"]
)


@_INITS
def test_init_rejects_unknown_mode(window_init):
    with pytest.raises(ValueError):
        window_init(np.full(4, 0.25), mode="bogus")


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


@_INITS
def test_step_window_size_precondition(window_init):
    b = np.full(10, 0.1)
    rng = np.random.default_rng(97)
    with pytest.raises(InsufficientSampleError):
        step(window_init(b), rng.standard_normal((10, 11)))


@_INITS
def test_step_asset_mismatch(window_init):
    rng = np.random.default_rng(101)
    with pytest.raises(DimensionError):
        step(window_init(np.full(4, 0.25)), rng.standard_normal((5, 30)))


def test_replay_reestimates_from_pooled_sample():
    """Each period's intensity replays the recursion from a target-loss
    estimate on the pooled covariance."""
    rng = np.random.default_rng(109)
    b = np.full(6, 1 / 6)
    blocks = [rng.standard_normal((6, 20)) for _ in range(3)]
    state = init(b, mode="replay")
    for block in blocks:
        state = step(state, block)
    stacked = np.hstack(blocks)
    _, pooled_cov = sample_moments(stacked)
    start = estimate_target_loss_from_cov(pooled_cov, stacked.shape[1], b)
    expected, _ = replay_intensities(start, [20, 20, 20], 6)
    assert state.intensities[-1] == pytest.approx(expected[-1], rel=1e-9)


def test_intensity_tracks_population_oracle():
    """The plug-in intensity stays near the oracle built from the true loss."""
    pop = build_population(40, seed=3)
    diffs = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        state = init(np.full(40, 0.025), mode="replay")
        for _ in range(3):
            current = relative_loss(state.weights, pop.cov)
            oracle = optimal_intensity(40 / 100, current)
            state = step(state, _draw_block(pop, 100, rng))
            diffs.append(abs(state.intensities[-1] - oracle))
    assert np.mean(diffs) < 0.1


def test_module_exports_modes():
    """The exported modes are exactly those the built-in strategies run,
    over both window kinds, so a mode that no command reaches cannot come
    back unnoticed."""
    assert {mode for mode, _ in PIPELINES.values()} == set(nonoverlap.MODES)
    assert {extending for _, extending in PIPELINES.values()} == {False, True}


# ---------------------------------------------------------------------------
# properties of the shared pipeline
# ---------------------------------------------------------------------------


@settings(database=None, derandomize=True, deadline=None, max_examples=150)
@given(
    p=st.integers(2, 12),
    extra=st.lists(st.integers(0, 30), min_size=1, max_size=6),
    mode=st.sampled_from(MODES),
    extending=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_pipeline_invariants(p, extra, mode, extending, seed):
    """Full investment, intensities in [0, 1], the target's share, window
    sizes, finite nonnegative losses, ``loss`` and ``target_share`` read
    from the last record, outside replay a history (per-record shares
    included) equal to the recursion rerun from an independently computed
    start, and weights rebuilt bit for bit from the recorded intensities
    and each period's window, for both window kinds and every mode. Fresh
    windows have ``p + 2 + k`` observations; an extending window starts at
    ``p + 2 + k`` and grows by ``k + 1`` per period."""
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.5, 2.0, size=p)
    if extending:
        block_sizes = [p + 2 + extra[0]] + [k + 1 for k in extra[1:]]
        window_sizes = list(np.cumsum(block_sizes))
    else:
        block_sizes = window_sizes = [p + 2 + k for k in extra]
    blocks = [scales[:, None] * rng.standard_normal((p, n)) for n in block_sizes]
    target = np.full(p, 1.0 / p)

    state = init(target, mode=mode, extending=extending)
    for block in blocks:
        state = step(state, block)
        assert abs(state.weights.sum() - 1.0) < 1e-10

    assert [rec.n_obs for rec in state.history] == window_sizes
    assert all(0.0 <= psi <= 1.0 for psi in state.intensities)
    assert all(np.isfinite(rec.loss) and rec.loss >= 0.0 for rec in state.history)
    schedule = state.intensities
    if mode == "replay":
        # the share is that of the schedule replayed in the last period,
        # from the target loss re-estimated on everything pooled so far
        if extending and len(blocks) == 1:
            cov = sample_moments(blocks[0])[1]
        else:
            cov = state.pooled.cov()
        start = estimate_target_loss_from_cov(cov, state.pooled.count, state.target)
        schedule, _ = replay_intensities(start, window_sizes, p, extending)
        assert schedule[-1] == state.intensities[-1]
    else:
        # fixed steps advance the one recursion a period at a time:
        # rerunning it from the estimate on the first window gives the same bits
        start = estimate_target_loss_from_cov(
            sample_moments(blocks[0])[1], block_sizes[0], target
        )
        assert replay_intensities(start, window_sizes, p, extending) == (
            list(state.intensities), [rec.loss for rec in state.history]
        )
    assert state.target_share == math.prod(1.0 - psi for psi in schedule)
    last = state.history[-1]
    assert (state.loss, state.target_share) == (last.loss, last.target_share)
    if mode == "fixed":
        # each record keeps the target's share after its period
        assert [rec.target_share for rec in state.history] == [
            math.prod(1.0 - psi for psi in schedule[: k + 1]) for k in range(len(schedule))
        ]

    # the recorded intensities and each period's sample portfolio rebuild
    # the weights bit for bit; the portfolio comes from the block's two-pass
    # moments, or, on an extending window after its first period, from the
    # pooled ones
    weights, pooled = target, PooledStats(p)
    for i, (rec, block) in enumerate(zip(state.history, blocks)):
        pooled = pooled.updated(block)
        cov = pooled.cov() if extending and i else sample_moments(block)[1]
        weights = rec.intensity * gmv_weights(cov) + (1.0 - rec.intensity) * weights
    assert np.array_equal(weights, state.weights)

