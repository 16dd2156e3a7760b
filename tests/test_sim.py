"""Tests for the Monte Carlo experiment engine.

Covers:
- the configured eigenvalue spectrum and population construction, with
  each scenario's square root derived once, on first read
- determinism of population and experiment draws
- each scenario's generated moments against its evaluation covariance
- the experiment loop: row layout, targeted-strategy behavior,
  failure accounting, configuration validation
- the streamed loop against a strategy-major reference over materialized
  blocks, and its working set staying flat in the number of periods
"""

import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest

from gmvshrink import sim
from gmvshrink.core import InsufficientSampleError, SingularityError, relative_loss, sample_moments
from gmvshrink.sim import (
    ScenarioConfig,
    build_population,
    generate,
    run_experiment,
    spectrum_for,
)
from gmvshrink.strategies import STRATEGY_IDS, weight_sequence


def _relative_frobenius(actual, expected):
    return np.linalg.norm(actual - expected) / np.linalg.norm(expected)


# ---------------------------------------------------------------------------
# spectrum and population construction
# ---------------------------------------------------------------------------


def test_spectrum_groups_for_p10():
    values = np.sort(spectrum_for(10))
    np.testing.assert_allclose(values, [0.2, 0.2, 1, 1, 1, 1, 4, 4, 4, 4])


def test_spectrum_rounding_leftover_goes_to_middle_group():
    values = spectrum_for(13)  # floor(2.6)=2 low, floor(5.2)=5 high
    assert np.sum(values == 0.2) == 2
    assert np.sum(values == 4.0) == 5
    assert np.sum(values == 1.0) == 6


def test_population_spectrum_preserved_by_rotation():
    pop = build_population(23, seed=1)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(pop.cov), np.sort(spectrum_for(23)), atol=1e-8
    )
    assert np.trace(pop.cov) == pytest.approx(spectrum_for(23).sum())


def test_population_is_deterministic():
    first = build_population(12, seed=99)
    second = build_population(12, seed=99)
    np.testing.assert_array_equal(first.cov, second.cov)
    np.testing.assert_array_equal(first.mean, second.mean)
    np.testing.assert_array_equal(first.ar_coeffs, second.ar_coeffs)
    other = build_population(12, seed=100)
    assert not np.array_equal(first.cov, other.cov)


def test_population_needs_five_assets():
    with pytest.raises(ValueError):
        build_population(4, seed=0)


def test_population_coefficient_ranges():
    pop = build_population(30, seed=2)
    assert np.all(pop.arch_coeffs >= 0.0) and np.all(pop.arch_coeffs < 0.1)
    assert np.all(pop.persist_coeffs >= 0.6) and np.all(pop.persist_coeffs < 0.7)
    assert np.all(pop.arch_coeffs + pop.persist_coeffs < 1.0)
    assert np.all(np.abs(pop.ar_coeffs) < 0.9)
    assert np.all(np.abs(pop.mean) <= 0.2)


def test_population_derives_a_scenario_square_root_once_on_first_read(monkeypatch):
    calls = []
    real_sqrt = sim._symmetric_sqrt
    monkeypatch.setattr(sim, "_symmetric_sqrt", lambda mat: calls.append(mat) or real_sqrt(mat))
    for scenario, count in {"t5": 0, "capm": 0, "ccc_garch": 1, "varma": 1}.items():
        calls.clear()
        pop = build_population(12, seed=4)
        assert calls == []
        generate(pop, scenario, 5, np.random.default_rng(0))
        pop.evaluation_cov(scenario)
        assert len(calls) == count, scenario
        generate(pop, scenario, 5, np.random.default_rng(1))
        assert len(calls) == count, scenario


def test_square_root_of_a_singular_population_fails_at_first_read():
    pop = build_population(6, seed=0)
    # off-diagonal entries above the diagonal ones: a 'correlation' beyond 1
    broken = dataclasses.replace(pop, cov=pop.cov + 5.0 * (np.ones((6, 6)) - np.eye(6)))
    with pytest.raises(SingularityError):
        broken.corr_sqrt


def _eigh_sqrt(mat):
    values, vectors = np.linalg.eigh(mat)
    return (vectors * np.sqrt(values)) @ vectors.T


@pytest.mark.parametrize("p", [5, 17, 60])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_derived_matrices_are_the_build_time_expressions_bit_for_bit(p, seed):
    pop = build_population(p, seed)
    variances = np.diag(pop.cov)
    scale = 1.0 / np.sqrt(variances)
    corr = pop.cov * np.outer(scale, scale)
    corr = 0.5 * (corr + corr.T)
    stationary_cov = pop.cov / (1.0 - np.outer(pop.ar_coeffs, pop.ar_coeffs))
    stationary_cov = 0.5 * (stationary_cov + stationary_cov.T)
    np.testing.assert_array_equal(
        pop.garch_intercepts, variances * (1.0 - pop.arch_coeffs - pop.persist_coeffs)
    )
    np.testing.assert_array_equal(pop.corr_sqrt, _eigh_sqrt(corr))
    np.testing.assert_array_equal(pop.stationary_cov, stationary_cov)
    np.testing.assert_array_equal(pop.stationary_sqrt, _eigh_sqrt(stationary_cov))


def test_evaluation_cov_per_scenario():
    pop = build_population(10, seed=3)
    assert pop.evaluation_cov("t5") is pop.cov
    assert pop.evaluation_cov("ccc_garch") is pop.cov
    np.testing.assert_array_equal(
        pop.evaluation_cov("capm"),
        pop.cov + np.outer(pop.factor_loadings, pop.factor_loadings),
    )
    np.testing.assert_array_equal(pop.evaluation_cov("varma"), pop.stationary_cov)
    with pytest.raises(ValueError):
        pop.evaluation_cov("garch")


# ---------------------------------------------------------------------------
# generated moments per scenario
# ---------------------------------------------------------------------------


def test_t5_block_matches_population_covariance():
    pop = build_population(50, seed=5)
    rng = np.random.default_rng(7)
    block = generate(pop, "t5", 50_000, rng)
    mean, cov = sample_moments(block)
    assert _relative_frobenius(cov, pop.cov) < 0.05
    assert np.max(np.abs(mean - pop.mean)) < 0.05


@pytest.mark.parametrize("seed", range(5))
def test_weights_do_not_depend_on_the_scale_of_t5_returns(seed):
    """Standardizing the t(5) draws changes no weight: a power-of-two scale
    leaves every strategy's weights bit-identical, and the standardizing
    factor sqrt(5/3) moves them by rounding only."""
    p = 12
    pop = build_population(p, 100 + seed)
    rng = np.random.default_rng(seed)
    blocks = [generate(pop, "t5", 30, rng) for _ in range(6)]
    target = np.full(p, 1.0 / p)
    for strategy in STRATEGY_IDS:
        expected = list(weight_sequence(blocks, strategy, target))
        for scale, rtol in ((2.0, 0.0), (0.25, 0.0), (math.sqrt(5 / 3), 1e-12)):
            scaled = weight_sequence([scale * b for b in blocks], strategy, target)
            for got, want in zip(scaled, expected, strict=True):
                np.testing.assert_allclose(got, want, rtol=rtol, err_msg=f"{strategy=}, {scale=}")


def test_capm_block_carries_the_factor_term():
    pop = build_population(30, seed=13)
    rng = np.random.default_rng(17)
    _, cov = sample_moments(generate(pop, "capm", 30_000, rng))
    with_factor = pop.cov + np.outer(pop.factor_loadings, pop.factor_loadings)
    assert _relative_frobenius(cov, with_factor) < 0.10
    assert np.linalg.norm(cov - with_factor) < np.linalg.norm(cov - pop.cov)


def test_varma_block_autocorrelation_and_covariance():
    pop = build_population(5, seed=19)
    rng = np.random.default_rng(23)
    block = generate(pop, "varma", 50_000, rng)
    _, cov = sample_moments(block)
    assert _relative_frobenius(cov, pop.stationary_cov) < 0.10
    centered = block - block.mean(axis=1, keepdims=True)
    for k in range(5):
        lag1 = np.mean(centered[k, 1:] * centered[k, :-1]) / np.var(centered[k])
        assert abs(lag1 - pop.ar_coeffs[k]) < 0.05


def test_garch_block_unconditional_variance():
    pop = build_population(5, seed=29)
    rng = np.random.default_rng(31)
    block = generate(pop, "ccc_garch", 50_000, rng)
    _, cov = sample_moments(block)
    np.testing.assert_allclose(np.diag(cov), np.diag(pop.cov), rtol=0.05)
    assert _relative_frobenius(cov, pop.cov) < 0.15


def test_generate_validation():
    pop = build_population(5, seed=37)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate(pop, "garch", 10, rng)
    with pytest.raises(ValueError):
        generate(pop, "t5", 0, rng)


# ---------------------------------------------------------------------------
# time-series generators against their per-step references
# ---------------------------------------------------------------------------


def _per_step_garch(pop, n, rng):
    """Column-at-a-time GARCH(1,1) loop: the reference for ``ccc_garch``."""
    p = pop.n_assets
    total = sim.GARCH_BURN_IN + n
    shocks = pop.corr_sqrt @ rng.standard_normal((p, total))
    out = np.empty((p, total))
    h = np.diag(pop.cov).copy()
    centered_prev = np.sqrt(h) * shocks[:, 0]
    out[:, 0] = pop.mean + centered_prev
    for t in range(1, total):
        h = (
            pop.garch_intercepts
            + pop.arch_coeffs * centered_prev**2
            + pop.persist_coeffs * h
        )
        centered_prev = np.sqrt(h) * shocks[:, t]
        out[:, t] = pop.mean + centered_prev
    return out[:, sim.GARCH_BURN_IN:]


def _per_step_varma(pop, n, rng):
    """Column-at-a-time diagonal AR(1) loop: the reference for ``varma``."""
    p = pop.n_assets
    innovations = pop.sqrt_cov @ rng.standard_normal((p, n))
    out = np.empty((p, n))
    stationary_mean = pop.mean / (1.0 - pop.ar_coeffs)
    prev = stationary_mean + pop.stationary_sqrt @ rng.standard_normal(p)
    for t in range(n):
        prev = pop.mean + pop.ar_coeffs * prev + innovations[:, t]
        out[:, t] = prev
    return out


_PER_STEP = {"ccc_garch": _per_step_garch, "varma": _per_step_varma}


@pytest.mark.parametrize("scenario", sorted(_PER_STEP))
@pytest.mark.parametrize("p", [5, 7, 90])
def test_generate_is_bit_identical_to_per_step_reference(scenario, p):
    pop = build_population(p, seed=p)
    for n in (1, 2, 100, 3000):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            reference_rng = np.random.default_rng(seed)
            block = generate(pop, scenario, n, rng)
            expected = _PER_STEP[scenario](pop, n, reference_rng)
            assert block.shape == (p, n)
            assert block.flags.c_contiguous
            assert np.array_equal(block, expected), (scenario, p, n, seed)
            assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("scenario", sorted(_PER_STEP))
def test_run_experiment_rows_match_per_step_generator(monkeypatch, scenario):
    config = _small_config(scenario=scenario, strategies=(1, 2, 5, 7))
    rows = run_experiment(config).rows

    def per_step_generate(pop, scenario, n, rng):
        return _PER_STEP[scenario](pop, n, rng)

    monkeypatch.setattr(sim, "generate", per_step_generate)
    assert run_experiment(config).rows == rows


# ---------------------------------------------------------------------------
# experiment loop
# ---------------------------------------------------------------------------


def _small_config(**overrides):
    base = dict(
        scenario="t5",
        p=8,
        n=20,
        periods=3,
        reps=4,
        seed=42,
        strategies=(1, 5, 6, 7),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_run_experiment_is_deterministic():
    first = run_experiment(_small_config())
    second = run_experiment(_small_config())
    assert first.rows == second.rows
    assert first.metadata == second.metadata


def test_run_experiment_row_layout():
    table = run_experiment(_small_config())
    assert len(table.rows) == 4 * 3
    for row in table.rows:
        assert row.scenario == "t5"
        assert row.concentration == pytest.approx(8 / 20)
        assert 1 <= row.period <= 3
        assert row.failed_reps == 0
        assert row.stderr >= 0.0
    with pytest.raises(KeyError):
        table.mean_loss(2, 1)


def test_metadata_records_configuration():
    table = run_experiment(_small_config())
    assert table.metadata["scenario"] == "t5"
    assert table.metadata["strategies"] == "1,5,6,7"
    assert list(table.metadata) == [
        "scenario", "p", "n", "periods", "reps", "seed", "strategies"
    ]


def test_hold_target_strategy_loss_is_period_invariant():
    table = run_experiment(_small_config(strategies=(6,), reps=3))
    losses = [table.mean_loss(6, i) for i in (1, 2, 3)]
    assert losses[0] == losses[1] == losses[2]
    # a single rep reproduces the population loss of the equal-weight target
    single = run_experiment(_small_config(strategies=(6,), reps=1, periods=1))
    pop_seed, _ = np.random.SeedSequence(42, spawn_key=(0,)).spawn(2)
    pop = build_population(8, pop_seed)
    expected = relative_loss(np.full(8, 0.125), pop.cov)
    assert single.mean_loss(6, 1) == pytest.approx(expected, rel=1e-12)


def test_hold_target_strategy_allows_short_windows():
    config = _small_config(strategies=(6,), n=5, reps=2, periods=2)
    table = run_experiment(config)
    assert len(table.rows) == 2


def test_plain_sample_strategy_plateaus_at_concentration_ratio():
    """At c = 1/2 the no-shrinkage loss settles near c/(1-c) = 1."""
    config = ScenarioConfig(
        scenario="t5", p=125, n=250, periods=1, reps=50, seed=7, strategies=(5,)
    )
    table = run_experiment(config)
    assert table.mean_loss(5, 1) == pytest.approx(1.0, rel=0.12)


def test_failed_rep_is_counted_and_excluded(monkeypatch):
    original = sim.weight_sequence
    calls = {"n": 0}

    def flaky(blocks, strategy, target):
        if strategy == 5:
            calls["n"] += 1
            if calls["n"] == 1:
                raise SingularityError("injected failure", n_assets=len(target))
        yield from original(blocks, strategy, target)

    monkeypatch.setattr(sim, "weight_sequence", flaky)
    table = run_experiment(_small_config(strategies=(5, 6), reps=3))
    for row in table.rows:
        if row.strategy == 5:
            assert row.failed_reps == 1
            assert math.isfinite(row.mean_loss)
        else:
            assert row.failed_reps == 0


def _strategy_major_rows(config):
    """Loss rows of a reference loop that draws every block of a repetition
    first and then runs each strategy over the whole list."""
    target = np.full(config.p, 1.0 / config.p)
    losses = {s: np.full((config.reps, config.periods), np.nan) for s in config.strategies}
    failures = dict.fromkeys(config.strategies, 0)
    for rep in range(config.reps):
        pop_seed, data_seed = np.random.SeedSequence(config.seed, spawn_key=(rep,)).spawn(2)
        pop = build_population(config.p, pop_seed)
        rng = np.random.default_rng(data_seed)
        blocks = [
            generate(pop, config.scenario, config.n, rng)
            for _ in range(config.periods)
        ]
        eval_cov = pop.evaluation_cov(config.scenario)
        for strategy in config.strategies:
            try:
                for i, weights in enumerate(sim.weight_sequence(blocks, strategy, target)):
                    losses[strategy][rep, i] = relative_loss(weights, eval_cov)
            except SingularityError:
                losses[strategy][rep, :] = np.nan
                failures[strategy] += 1
    rows = []
    for strategy in config.strategies:
        values = losses[strategy][~np.isnan(losses[strategy][:, 0])]
        n_ok = values.shape[0]
        for i in range(config.periods):
            rows.append(
                sim.LossRow(
                    scenario=config.scenario,
                    strategy=strategy,
                    period=i + 1,
                    concentration=config.p / config.n,
                    mean_loss=float(values[:, i].mean()) if n_ok else float("nan"),
                    stderr=float(values[:, i].std(ddof=1) / math.sqrt(n_ok)) if n_ok > 1 else 0.0,
                    failed_reps=failures[strategy],
                )
            )
    return tuple(rows)


@pytest.mark.parametrize("scenario", sim.SCENARIOS)
def test_streamed_rows_match_strategy_major_reference(scenario):
    config = _small_config(scenario=scenario, strategies=(1, 2, 3, 4, 5, 6, 7), periods=4)
    assert run_experiment(config).rows == _strategy_major_rows(config)


def _failing_mid_sequence(failing):
    """A ``weight_sequence`` that raises a singularity for each
    ``(strategy, rep)`` in ``failing`` once it has consumed the block of
    the given period. Reps are told apart by counting each strategy's
    sequences, which both loop orders create in repetition order."""
    original = sim.weight_sequence
    created = {}

    def weight_sequence(blocks, strategy, target):
        rep = created[strategy] = created.get(strategy, -1) + 1
        fail_at = failing.get((strategy, rep))
        for period, weights in enumerate(original(blocks, strategy, target), start=1):
            if period == fail_at:
                raise SingularityError("injected failure", n_assets=len(target))
            yield weights

    return weight_sequence


def test_failure_mid_sequence_matches_reference(monkeypatch, caplog):
    """A strategy failing at period 2 of one repetition loses that whole
    repetition and nothing else; the warnings come in period order."""
    config = _small_config(strategies=(1, 5, 6, 7), periods=4, reps=3)
    failing = {(7, 1): 2, (1, 1): 3}
    monkeypatch.setattr(sim, "weight_sequence", _failing_mid_sequence(failing))
    with caplog.at_level(logging.WARNING, logger="gmvshrink"):
        rows = run_experiment(config).rows
    monkeypatch.setattr(sim, "weight_sequence", _failing_mid_sequence(failing))
    assert rows == _strategy_major_rows(config)

    for row in rows:
        assert row.failed_reps == (1 if row.strategy in (1, 7) else 0)
        assert math.isfinite(row.mean_loss)
    assert [r.getMessage() for r in caplog.records] == [
        "strategy 7 failed on rep 1: injected failure",
        "strategy 1 failed on rep 1: injected failure",
    ]


def test_strategy_cannot_read_a_block_not_yet_drawn(monkeypatch):
    """Each strategy is handed the block just drawn, once: a sequence that
    reads two blocks per weight vector fails before a second block is drawn."""
    drawn = []

    def counting_generate(*args, **kwargs):
        drawn.append(1)
        return generate(*args, **kwargs)

    def greedy(blocks, strategy, target):
        for _block in blocks:
            next(blocks)
            yield np.array(target)

    monkeypatch.setattr(sim, "generate", counting_generate)
    monkeypatch.setattr(sim, "weight_sequence", greedy)
    with pytest.raises(IndexError):
        run_experiment(_small_config(strategies=(6,), reps=1))
    assert len(drawn) == 1


def _experiment_peak(config):
    tracemalloc.start()
    try:
        run_experiment(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_working_set_does_not_grow_with_periods():
    """Blocks are fed to the strategies as they are drawn, so ten times
    the periods keeps about the same peak instead of ten times the blocks."""
    short = _experiment_peak(ScenarioConfig("t5", 30, 200, 4, 2, 3))
    long = _experiment_peak(ScenarioConfig("t5", 30, 200, 40, 2, 3))
    assert long < 1.5 * short


def test_config_validation():
    with pytest.raises(ValueError):
        _small_config(scenario="normal")
    with pytest.raises(ValueError):
        _small_config(p=4)
    with pytest.raises(ValueError):
        _small_config(periods=0)
    with pytest.raises(ValueError):
        _small_config(reps=0)
    with pytest.raises(ValueError):
        _small_config(strategies=(1, 9))
    with pytest.raises(ValueError):
        _small_config(strategies=())
    with pytest.raises(ValueError, match="requested once"):
        _small_config(strategies=(1, 1, 6))
    with pytest.raises(InsufficientSampleError, match=r"need n > p \+ 1, got p=8, n=9"):
        _small_config(n=9)  # windows too short for estimation
    # but the no-estimation strategy tolerates any positive window length
    _small_config(n=9, strategies=(6,))
    for n in (0, -1):
        with pytest.raises(ValueError, match="need n >= 1"):
            _small_config(n=n, strategies=(6,))


def test_scenario_registry():
    assert sim.SCENARIOS == ("t5", "capm", "ccc_garch", "varma")
