"""Monte Carlo experiment engine for the strategy comparison.

Builds synthetic asset universes with a fixed three-group eigenvalue
spectrum, generates returns under four data-generating scenarios and runs
the requested strategies side by side on the same draws, recording the
relative out-of-sample loss of every strategy after every rebalancing
period.

The experiment streams: repetitions run one at a time, and each block is
fed to every strategy before the next block is drawn. Memory therefore
holds one repetition's population, the current block and the strategies'
states, independent of the number of periods and repetitions. The draws,
and so the results, are those of generating every block up front. A
population derives the square root that ``ccc_garch`` or ``varma`` reads
on first use, so ``t5`` and ``capm`` compute none.

Scenarios
---------
``t5``
    Independent innovations with heavy tails: entries drawn from a t
    distribution with 5 degrees of freedom, standardized to unit variance.
    Standardizing changes no weight and no relative loss: GMV weights do
    not move when the returns are multiplied by a constant.
``capm``
    A single common factor added on top of the innovation model, so the
    true covariance of returns is the innovation covariance plus a rank-one
    loading term.
``ccc_garch``
    Per-asset GARCH(1,1) variances combined through a constant conditional
    correlation equal to the correlation of the configured covariance; the
    intercepts are calibrated so the unconditional covariance matches it.
``varma``
    A diagonal first-order vector autoregression initialized from its
    stationary distribution.

Both time-series scenarios run one day at a time, elementwise over the
assets and in this evaluation order:

- GARCH: ``h = (ω + α·(e·e)) + β·h``, then ``e = sqrt(h)·z``, where ``e`` is
  the previous day's centered return and ``z`` the day's correlated shock;
  the day's return is ``μ + e``.
- VARMA: ``x = (μ + a·x) + ε``, with ``ε`` the day's innovation.

Generated blocks are bit-identical across implementations of these loops
only while that order is kept; floating-point addition is not associative.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import SingularityError, mean_and_stderr, precision_ones_form, relative_loss, require_window
from .strategies import STRATEGY_IDS, weight_sequence

logger = logging.getLogger(__name__)

SCENARIOS = ("t5", "capm", "ccc_garch", "varma")

#: burn-in steps for the GARCH recursion before any returns are recorded
GARCH_BURN_IN = 500


@dataclass(frozen=True)
class PopulationModel:
    """A synthetic asset universe with every scenario's parameters drawn.

    The innovation covariance has a fixed spectrum: 20 percent of the
    eigenvalues at 0.2, 40 percent at 4 and the remainder (including the
    rounding leftover) at 1, rotated by a Haar-distributed orthogonal
    matrix. Every scenario's parameters are drawn at build time, so one
    population serves any scenario deterministically. The matrices only one
    scenario reads, ``corr_sqrt`` (``ccc_garch``), ``stationary_cov`` and
    ``stationary_sqrt`` (``varma``), are derived on first read and kept, so
    a matrix without a positive-definite square root raises
    :class:`~gmvshrink.core.SingularityError` at that read, not at build.
    """

    mean: np.ndarray
    cov: np.ndarray
    sqrt_cov: np.ndarray
    factor_loadings: np.ndarray
    arch_coeffs: np.ndarray
    persist_coeffs: np.ndarray
    garch_intercepts: np.ndarray
    ar_coeffs: np.ndarray

    @functools.cached_property
    def corr_sqrt(self):
        scale = 1.0 / np.sqrt(np.diag(self.cov))
        corr = self.cov * np.outer(scale, scale)
        return _symmetric_sqrt(0.5 * (corr + corr.T))

    @functools.cached_property
    def stationary_cov(self):
        # Sigma_kl / (1 - g_k g_l), positive-definite by the Schur product theorem
        # since 1/(1 - g_k g_l) is a Gram matrix of geometric series
        cov = self.cov / (1.0 - np.outer(self.ar_coeffs, self.ar_coeffs))
        return 0.5 * (cov + cov.T)

    @functools.cached_property
    def stationary_sqrt(self):
        return _symmetric_sqrt(self.stationary_cov)

    @property
    def n_assets(self):
        return self.mean.shape[0]

    def evaluation_cov(self, scenario):
        """Covariance entering the relative loss for a given scenario.

        This is the true covariance of generated returns: the innovation
        covariance for ``t5`` and ``ccc_garch``, the factor-model covariance
        for ``capm`` and the stationary covariance for ``varma``.
        """
        if scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}, expected one of {SCENARIOS}")
        if scenario in ("t5", "ccc_garch"):
            return self.cov
        if scenario == "capm":
            return self.cov + np.outer(self.factor_loadings, self.factor_loadings)
        return self.stationary_cov


def spectrum_for(p):
    """The configured eigenvalue multiset for dimension ``p``.

    ``floor(0.2 p)`` eigenvalues at 0.2 and ``floor(0.4 p)`` at 4; the
    remainder, including anything left by the rounding, sits at 1 so the
    extreme groups keep their exact proportions.
    """
    n_low = int(math.floor(0.2 * p))
    n_high = int(math.floor(0.4 * p))
    return np.concatenate(
        [np.full(n_low, 0.2), np.full(n_high, 4.0), np.ones(p - n_low - n_high)]
    )


def _symmetric_sqrt(mat):
    eigenvalues, eigenvectors = np.linalg.eigh(mat)
    if eigenvalues[0] <= 0.0:
        raise SingularityError("matrix is not positive-definite", n_assets=mat.shape[0])
    return (eigenvectors * np.sqrt(eigenvalues)) @ eigenvectors.T


def build_population(p, seed):
    """Draw a population deterministically from ``seed``.

    The draw order is fixed (eigenvectors, means, factor loadings, GARCH
    coefficients, autoregression coefficients) so equal seeds give
    bit-identical populations regardless of which scenario consumes them.
    """
    if p < 5:
        raise ValueError(f"population construction needs p >= 5, got p={p}")
    rng = np.random.default_rng(seed)

    eigenvalues = spectrum_for(p)
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    q = q * np.sign(np.diag(r))  # sign fix makes the rotation exactly Haar
    cov = (q * eigenvalues) @ q.T
    cov = 0.5 * (cov + cov.T)
    sqrt_cov = (q * np.sqrt(eigenvalues)) @ q.T

    mean = rng.uniform(-0.2, 0.2, p)
    factor_loadings = rng.uniform(-1.0, 1.0, p)
    arch_coeffs = rng.uniform(0.0, 0.1, p)
    persist_coeffs = rng.uniform(0.6, 0.7, p)
    ar_coeffs = rng.uniform(-0.9, 0.9, p)

    return PopulationModel(
        mean=mean,
        cov=cov,
        sqrt_cov=sqrt_cov,
        factor_loadings=factor_loadings,
        arch_coeffs=arch_coeffs,
        persist_coeffs=persist_coeffs,
        garch_intercepts=np.diag(cov) * (1.0 - arch_coeffs - persist_coeffs),
        ar_coeffs=ar_coeffs,
    )


def generate(pop, scenario, n, rng):
    """Generate a ``p x n`` returns block under one scenario.

    Blocks are independent across calls; the time-series scenarios restart
    from their stationary or unconditional state each time.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}, expected one of {SCENARIOS}")
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    p = pop.n_assets

    if scenario == "t5":
        x = rng.standard_t(5, (p, n))
        x /= math.sqrt(5.0 / 3.0)  # t(5) variance is 5/3
        return pop.mean[:, None] + pop.sqrt_cov @ x

    if scenario == "capm":
        x = rng.standard_normal((p, n))
        z = rng.standard_normal(n)
        return (
            pop.mean[:, None]
            + np.outer(pop.factor_loadings, z)
            + pop.sqrt_cov @ x
        )

    if scenario == "ccc_garch":
        # day-major shocks: one contiguous row per day
        shocks = (pop.corr_sqrt @ rng.standard_normal((p, GARCH_BURN_IN + n))).T.copy()
        centered = _garch_centered(
            shocks,
            np.diag(pop.cov),  # unconditional per-asset variance
            pop.garch_intercepts,
            pop.arch_coeffs,
            pop.persist_coeffs,
        )
        return np.add(pop.mean[:, None], centered[GARCH_BURN_IN:].T, out=np.empty((p, n)))

    # varma: diagonal AR(1) with innovation covariance equal to pop.cov.
    x = pop.sqrt_cov @ rng.standard_normal((p, n))
    stationary_mean = pop.mean / (1.0 - pop.ar_coeffs)
    prev = stationary_mean + pop.stationary_sqrt @ rng.standard_normal(p)
    for day in x.T:  # ε becomes ε + (μ + a·x), which is (μ + a·x) + ε bit for bit
        day += pop.mean + pop.ar_coeffs * prev
        prev = day
    return x


def _garch_centered(shocks, variance, intercepts, arch, persist):
    """Turn day-major GARCH(1,1) shocks into centered returns, in place.

    ``shocks`` has shape ``(days, p)``, one row per day; ``variance`` (the
    first day's conditional variance) and the coefficients are length ``p``.
    Row ``t`` ends as ``e_t = sqrt(h_t)·z_t`` with ``h_0`` the given variance
    and ``h_t = (ω + α·(e·e)) + β·h_{t-1}``, ``e`` the previous row's result.
    Every day is seven in-place ufunc calls evaluated in that order, so the
    result is bit-identical to the written expressions.
    """
    multiply, add, sqrt = np.multiply, np.add, np.sqrt
    h = np.array(variance)
    work = np.empty_like(h)
    sqrt(h, work)
    prev = shocks[0]
    multiply(work, prev, prev)
    for z in shocks[1:]:
        multiply(prev, prev, work)
        multiply(arch, work, work)
        add(intercepts, work, work)
        multiply(persist, h, h)
        add(work, h, h)
        sqrt(h, work)
        multiply(work, z, z)
        prev = z
    return shocks


class LossRow(NamedTuple):
    """One line of the experiment output."""

    scenario: str
    strategy: int
    period: int
    concentration: float
    mean_loss: float
    stderr: float
    failed_reps: int


@dataclass(frozen=True)
class ScenarioConfig:
    """Configuration of one simulation experiment, validated on construction.

    Unless only strategy 6 (holding the target) is requested, the window
    length must pass :func:`gmvshrink.core.require_window`, which raises
    :class:`~gmvshrink.core.InsufficientSampleError`. There is no scale
    setting: ``t5`` draws are always standardized, and rescaling returns
    changes no weight and no loss.
    """

    scenario: str
    p: int
    n: int
    periods: int
    reps: int
    seed: int
    strategies: tuple = STRATEGY_IDS

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}, expected one of {SCENARIOS}"
            )
        if self.p < 5:
            raise ValueError(f"need p >= 5, got p={self.p}")
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n={self.n}")
        if self.periods < 1:
            raise ValueError(f"need at least one period, got {self.periods}")
        if self.reps < 1:
            raise ValueError(f"need reps >= 1, got {self.reps}")
        unknown = [s for s in self.strategies if s not in STRATEGY_IDS]
        if unknown:
            raise ValueError(f"unknown strategies {unknown}, expected ids in {STRATEGY_IDS}")
        if not self.strategies:
            raise ValueError("no strategies requested")
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError(f"each strategy may be requested once, got {list(self.strategies)}")
        # every strategy but holding the target estimates from n-day windows
        if any(s != 6 for s in self.strategies):
            require_window(self.p, self.n)


@dataclass(frozen=True)
class LossTable:
    """Experiment result: one row per (strategy, period) plus metadata."""

    rows: tuple
    metadata: dict = field(default_factory=dict)

    def mean_loss(self, strategy, period):
        for row in self.rows:
            if row.strategy == strategy and row.period == period:
                return row.mean_loss
        raise KeyError(f"no row for strategy={strategy}, period={period}")


def _run_repetition(config, rep, target, losses):
    """Run repetition ``rep``, filling its row of ``losses`` in place.

    Blocks are drawn in period order and each is fed to every strategy
    still running before the next is drawn. Each strategy's sequence reads
    its blocks by popping a one-slot list that holds the block just drawn,
    so a strategy that asks for a block not yet drawn raises ``IndexError``.
    A strategy whose sequence raises a singularity at any period gets NaN
    for the whole repetition, which is how :func:`run_experiment` counts
    it, is logged and gets no further blocks.
    """
    rep_seq = np.random.SeedSequence(config.seed, spawn_key=(rep,))
    pop_seed, data_seed = rep_seq.spawn(2)
    pop = build_population(config.p, pop_seed)
    rng = np.random.default_rng(data_seed)
    eval_cov = pop.evaluation_cov(config.scenario)
    ones_form = precision_ones_form(eval_cov)

    live = {}
    for strategy in config.strategies:
        slot = []
        # the first iterable is evaluated here, so each sequence pops its own slot
        blocks = (take() for take in itertools.repeat(slot.pop))
        live[strategy] = (slot, weight_sequence(blocks, strategy, target))

    for i in range(config.periods):
        block = generate(pop, config.scenario, config.n, rng)
        for strategy, (slot, sequence) in list(live.items()):
            slot.append(block)
            try:
                losses[strategy][rep, i] = relative_loss(next(sequence), eval_cov, ones_form)
            except SingularityError as exc:
                del live[strategy]
                losses[strategy][rep, :] = np.nan
                logger.warning("strategy %d failed on rep %d: %s", strategy, rep, exc)


def run_experiment(config):
    """Run the Monte Carlo strategy comparison described by ``config``.

    Every repetition draws its own population and block sequence from a
    generator derived from ``(seed, rep)``, runs all requested strategies
    on the same blocks and records each strategy's relative loss after
    every period. A repetition that fails with a singularity for some
    strategy is excluded from that strategy's averages and counted, never
    silently dropped.

    Each repetition runs in its own call and feeds every block to all
    strategies before drawing the next (see :func:`_run_repetition`), so
    the working set is one repetition's population, the current block and
    the strategies' states, whatever ``periods`` and ``reps``. When several
    strategies fail in one repetition, their warnings are logged in the
    order of the periods at which they failed, in strategy order only
    within one period.
    """
    strategies = tuple(config.strategies)
    periods = config.periods

    losses = {s: np.full((config.reps, periods), np.nan) for s in strategies}
    target = np.full(config.p, 1.0 / config.p)

    for rep in range(config.reps):
        _run_repetition(config, rep, target, losses)

    rows = []
    for strategy in strategies:
        values = losses[strategy]
        ok = ~np.isnan(values[:, 0])
        for i in range(periods):
            mean, stderr = mean_and_stderr(values[ok, i])
            rows.append(
                LossRow(
                    scenario=config.scenario,
                    strategy=strategy,
                    period=i + 1,
                    concentration=config.p / config.n,
                    mean_loss=mean,
                    stderr=stderr,
                    failed_reps=int(np.count_nonzero(~ok)),
                )
            )

    metadata = {
        "scenario": config.scenario,
        "p": str(config.p),
        "n": str(config.n),
        "periods": str(config.periods),
        "reps": str(config.reps),
        "seed": str(config.seed),
        "strategies": ",".join(str(s) for s in strategies),
    }
    return LossTable(rows=tuple(rows), metadata=metadata)
