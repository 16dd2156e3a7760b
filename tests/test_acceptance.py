"""Acceptance gate: one test per advertised guarantee, at stated tolerances.

Each test ends by calling ``record``, which prints a single PASS/FAIL line
and appends it to ``RESULTS`` so the conftest hook can replay the block at
the end of the session. Criterion 3 fails as written: its per-history
gap to the realized oracle is dominated by noise in that oracle at p=100,
while the intensities track the oracle on average (see its comment).

The heavier tests time themselves against the stated wall-clock budgets;
the margins are wide (seconds against minutes), so a pass here is about
algorithmic cost, not machine speed.
"""

import math
import os
import subprocess
import sys
import time
from datetime import date, timedelta

import numpy as np

from gmvshrink import nonoverlap, overlap
from gmvshrink.backtest import RebalanceSchedule, run_backtest
from gmvshrink.core import relative_loss, sample_gmv_weights
from gmvshrink.rmt import GramSpec, cross_resolvent_constant, mc_quadratic_form
from gmvshrink.sim import ScenarioConfig, build_population, generate, run_experiment

RESULTS = []


def record(num, name, ok, detail=""):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  [{detail}]"
    RESULTS.append(line)
    print(line)
    assert ok, line


def test_criterion_01_risk_recursion_closed_form():
    # c = 0.5 throughout, so the reciprocal loss gains exactly 1 per period.
    start = time.perf_counter()
    _, losses = nonoverlap.replay_intensities(1.0, [200] * 20, 100)
    elapsed = time.perf_counter() - start
    worst = max(abs(1.0 / loss - (2.0 + i)) for i, loss in enumerate(losses))
    record(
        1,
        "risk recursion matches harmonic closed form",
        worst <= 1e-12 and elapsed < 1.0,
        f"max deviation {worst:.2e} over 20 periods, {elapsed:.3f}s",
    )


def test_criterion_02_extending_step_reduces_to_fresh_step():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_psi = 0.0
    worst_loss = 0.0
    for _ in range(100):
        c = float(rng.uniform(0.05, 0.95))
        r = float(rng.uniform(0.05, 8.0))
        psi_fresh = nonoverlap.optimal_intensity(c, r)
        psi_ext = overlap.optimal_intensity(r, 1.0, c)
        worst_psi = max(worst_psi, abs(psi_ext - psi_fresh))
        worst_loss = max(
            worst_loss,
            abs(overlap.next_loss(psi_fresh, c, r, 1.0) - nonoverlap.next_loss(psi_fresh, c, r)),
        )

    # Same statement at the data level: one observed block, both pipelines.
    p, n = 30, 80
    target = np.full(p, 1.0 / p)
    block = 0.01 * rng.standard_normal((p, n))
    st_fresh = nonoverlap.init(target, first_block=block, mode="fixed")
    st_ext = overlap.init(target, first_block=block, mode="fixed")
    same_data = np.array_equal(st_fresh.weights, st_ext.weights) and (
        st_fresh.loss == st_ext.loss
    )
    elapsed = time.perf_counter() - start

    ok = worst_psi <= 1e-12 and worst_loss <= 1e-12 and same_data and elapsed < 1.0
    record(
        2,
        "extending-window step reduces to fresh-window step at the first period",
        ok,
        f"max intensity gap {worst_psi:.2e}, max risk gap {worst_loss:.2e}, "
        f"first-step weights identical: {same_data}",
    )


def _exact_oracle(holding, sample, sigma):
    # Realized minimizer of the true loss of the convex combination
    # (1 - psi) * holding + psi * sample, computed with the population
    # covariance. This is the infeasible intensity the feasible one is
    # supposed to converge to.
    diff = holding - sample
    return float(holding @ sigma @ diff) / float(diff @ sigma @ diff)


def test_criterion_03_intensities_track_oracle():
    # Feasible intensities against the exact oracle, averaged over
    # independent histories, worst period taken. The fresh-window half is
    # also compared against the limiting formula evaluated at the true
    # holding loss, which separates estimation noise from oracle
    # realization noise. Both halves exceed the 0.05 bar (fresh about
    # 0.057, extending about 0.150) without a bias: the signed mean of
    # psi - oracle stays within 0.02 in every period, and the extending
    # recursion's tracked loss follows the true loss. What is left is the
    # noise of the realized oracle at p=100, which a mean absolute gap per
    # history cannot average away.
    start = time.perf_counter()
    p, n, periods, seeds = 100, 200, 5, 50
    target = np.full(p, 1.0 / p)
    fresh_gaps = np.empty((seeds, periods))
    formula_gaps = np.empty((seeds, periods))
    ext_gaps = np.empty((seeds, periods))

    for s in range(seeds):
        pop_seed, data_seed = np.random.SeedSequence(s).spawn(2)
        pop = build_population(p, pop_seed)
        rng = np.random.default_rng(data_seed)
        blocks = [generate(pop, "t5", n, rng) for _ in range(periods)]

        state = nonoverlap.init(target, mode="fixed")
        for i, block in enumerate(blocks):
            oracle = _exact_oracle(state.weights, sample_gmv_weights(block), pop.cov)
            formula = nonoverlap.optimal_intensity(
                p / n, relative_loss(state.weights, pop.cov)
            )
            state = nonoverlap.step(state, block)
            fresh_gaps[s, i] = abs(state.intensities[-1] - oracle)
            formula_gaps[s, i] = abs(state.intensities[-1] - formula)

        state = overlap.init(target, mode="fixed")
        pooled = blocks[0]
        for i, block in enumerate(blocks):
            if i:
                pooled = np.hstack([pooled, block])
            oracle = _exact_oracle(state.weights, sample_gmv_weights(pooled), pop.cov)
            state = overlap.step(state, block)
            ext_gaps[s, i] = abs(state.intensities[-1] - oracle)

    fresh_worst = float(fresh_gaps.mean(axis=0).max())
    formula_worst = float(formula_gaps.mean(axis=0).max())
    ext_worst = float(ext_gaps.mean(axis=0).max())
    elapsed = time.perf_counter() - start
    ok = fresh_worst <= 0.05 and ext_worst <= 0.05 and elapsed < 120.0
    record(
        3,
        "applied intensities track the exact oracle",
        ok,
        f"worst per-period mean gap: fresh {fresh_worst:.4f} "
        f"({formula_worst:.4f} against the limiting formula), "
        f"extending {ext_worst:.4f}",
    )


def test_criterion_04_one_window_moments_match_limits():
    start = time.perf_counter()
    spec = GramSpec(p=200, n=400)
    mean_inv, se_inv = mc_quadratic_form(spec, "inv", reps=100, seed=2026)
    mean_sq, se_sq = mc_quadratic_form(spec, "inv_sq", reps=100, seed=2026)
    elapsed = time.perf_counter() - start
    rel_inv = abs(mean_inv - 2.0) / 2.0
    rel_sq = abs(mean_sq - 8.0) / 8.0
    ok = rel_inv <= 0.05 and rel_sq <= 0.05 and elapsed < 60.0
    record(
        4,
        "one-window resolvent moments match their limits",
        ok,
        f"inverse {mean_inv:.4f} (rel {rel_inv:.3%}), "
        f"squared inverse {mean_sq:.4f} (rel {rel_sq:.3%}), {elapsed:.1f}s",
    )


def test_criterion_05_two_window_cross_moment():
    # The closed form is (1 - p/n)^{-1} (1 - p/N)^{-2} with N/n replaced by
    # (N - 1)/(n - 1), 3.5496 here; the exact finite-n mean of the
    # uncentered form is 3.592. Centering shifts the form only at O(1/n).
    start = time.perf_counter()
    spec = GramSpec(p=100, n=200, m=200)
    target = cross_resolvent_constant(200, 200, 100).d
    mean_c, se_c = mc_quadratic_form(spec, "cross", reps=100, seed=11)
    mean_cc, se_cc = mc_quadratic_form(spec, "cross_centered", reps=100, seed=11)
    elapsed = time.perf_counter() - start

    rel_c = abs(mean_c - target) / target
    rel_cc = abs(mean_cc - target) / target
    within_tol = rel_c <= 0.10 and rel_cc <= 0.10
    agree = abs(mean_c - mean_cc) <= 2.0 * math.hypot(se_c, se_cc)
    ok = within_tol and agree and elapsed < 60.0
    record(
        5,
        "two-window cross moment matches the closed-form constant",
        ok,
        f"closed form {target:.4f}; uncentered {mean_c:.3f}+-{se_c:.3f}, "
        f"centered {mean_cc:.3f}+-{se_cc:.3f}; variants agree: {agree}",
    )


def test_criterion_06_cross_constant_bridges_to_cross_coefficient():
    # 0.375 = (1 - 0.25) * 0.5: the scaled finite-size constant should sit
    # on top of the limiting nested cross coefficient, and the gap should
    # shrink as the matrix dimensions double at fixed shape.
    coeff = overlap.cross_term(0.5, 0.25)
    gap_small = abs(0.375 * cross_resolvent_constant(200, 200, 100).d - coeff)
    gap_large = abs(0.375 * cross_resolvent_constant(400, 400, 200).d - coeff)
    ok = gap_small < 0.005 and gap_large < gap_small
    record(
        6,
        "scaled cross constant bridges to the nested cross coefficient",
        ok,
        f"gap {gap_small:.2e} at p=100, {gap_large:.2e} at p=200",
    )


def test_criterion_07_strategy_risk_ordering_at_high_concentration():
    start = time.perf_counter()
    config = ScenarioConfig(
        scenario="t5", p=90, n=100, periods=10, reps=200, seed=90
    )
    table = run_experiment(config)
    elapsed = time.perf_counter() - start

    final = {s: table.mean_loss(s, 10) for s in range(1, 8)}
    chain = final[1] < final[7] < final[5]
    shrinkers = max(final[s] for s in (1, 2, 3, 4))
    references = min(final[s] for s in (5, 6, 7))
    separated = shrinkers < references
    ok = chain and separated and elapsed < 600.0
    record(
        7,
        "strategy risk ordering at concentration 0.9",
        ok,
        "final mean losses "
        + ", ".join(f"S{s}={final[s]:.3f}" for s in range(1, 8))
        + f", {elapsed:.1f}s",
    )


def test_criterion_08_sample_portfolio_risk_plateau():
    config = ScenarioConfig(
        scenario="t5", p=125, n=250, periods=1, reps=200, seed=8, strategies=(5,)
    )
    table = run_experiment(config)
    mean = table.mean_loss(5, 1)
    rel = abs(mean - 1.0)
    record(
        8,
        "plain sample portfolio hits its risk plateau",
        rel <= 0.10,
        f"mean loss {mean:.4f} against plateau 1.0 at concentration 0.5",
    )


def test_criterion_09_hold_target_report_is_exact():
    p = 150
    target = np.full(p, 1.0 / p)
    rng = np.random.default_rng(31)
    returns = 0.01 * rng.standard_normal((p, 40))
    _, report = run_backtest(returns, 6, RebalanceSchedule.uniform(10, 4), target)
    ok = (
        f"{report.mean_abs_weight:.4f}" == "0.0067"
        and f"{report.turnover:.4f}" == "0.0000"
        and report.frac_negative == 0.0
    )
    record(
        9,
        "hold-target backtest reports exact flat statistics",
        ok,
        f"mean abs weight {report.mean_abs_weight:.4f}, "
        f"turnover {report.turnover:.4f}, "
        f"fraction negative {report.frac_negative:g}",
    )


def test_criterion_10_turnover_ordering():
    p, window, periods, seeds = 150, 250, 8, 20
    target = np.full(p, 1.0 / p)
    schedule = RebalanceSchedule.uniform(window, periods)
    turnovers = {1: [], 7: [], 5: []}
    for s in range(seeds):
        pop_seed, data_seed = np.random.SeedSequence(s, spawn_key=(10,)).spawn(2)
        pop = build_population(p, pop_seed)
        rng = np.random.default_rng(data_seed)
        returns = generate(pop, "t5", window * periods, rng)
        for strategy in turnovers:
            _, report = run_backtest(returns, strategy, schedule, target)
            turnovers[strategy].append(report.turnover)
    median = {s: float(np.median(v)) for s, v in turnovers.items()}
    ok = median[1] < median[7] < median[5]
    record(
        10,
        "median turnover orders shrinkage below one-shot below raw",
        ok,
        f"S1={median[1]:.3f}, S7={median[7]:.3f}, S5={median[5]:.3f} over {seeds} seeds",
    )


def _write_returns_csv(path, p, days, seed):
    rng = np.random.default_rng(seed)
    values = 0.01 * rng.standard_normal((p, days))
    names = [f"a{k}" for k in range(1, p + 1)]
    lines = ["date," + ",".join(names)]
    day = date(2021, 1, 4)
    for t in range(days):
        cells = ",".join(f"{values[k, t]:.6f}" for k in range(p))
        lines.append(f"{day.isoformat()},{cells}")
        day += timedelta(days=1)
    path.write_text("\n".join(lines) + "\n")


def _run_cli(args, extra_env=None):
    env = os.environ.copy()
    if extra_env:
        env.update(extra_env)
    proc = subprocess.run(
        [sys.executable, "-m", "gmvshrink.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout


def test_criterion_11_cli_output_is_byte_deterministic(tmp_path):
    csv = tmp_path / "returns.csv"
    _write_returns_csv(csv, p=6, days=30, seed=5)
    threaded = {
        "OMP_NUM_THREADS": "4",
        "OPENBLAS_NUM_THREADS": "4",
        "MKL_NUM_THREADS": "4",
    }
    commands = {
        "simulate": [
            "simulate", "--scenario", "t5", "--p", "8", "--n", "20",
            "--T", "2", "--reps", "3", "--strategies", "1,5,6", "--seed", "3",
        ],
        "backtest": [
            "backtest", "--input", str(csv), "--strategy", "1",
            "--n", "12", "--seed", "3",
        ],
        "weights": [
            "weights", "--input", str(csv), "--strategy", "2",
            "--n", "12", "--seed", "3",
        ],
        "check-rmt": [
            "check-rmt", "--p", "20", "--n", "60", "--reps", "5", "--seed", "3",
        ],
    }

    stable = {}
    for name, args in commands.items():
        rc_a, out_a = _run_cli(args)
        rc_b, out_b = _run_cli(args)
        rc_c, out_c = _run_cli(args, extra_env=threaded)
        stable[name] = (
            rc_a == rc_b == rc_c and out_a == out_b and out_a == out_c and out_a != ""
        )
    ok = all(stable.values())
    record(
        11,
        "command line output is byte deterministic, thread settings included",
        ok,
        ", ".join(f"{name}: {'stable' if good else 'UNSTABLE'}" for name, good in stable.items()),
    )
