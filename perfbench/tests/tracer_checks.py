"""Checks of the benchmark's outside-in tracer.

Kept out of the repository's default test collection (the file name does
not match ``test_*.py``); run them from the repository root with::

    python3 -m pytest perfbench/tests/tracer_checks.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import gmvshrink.cli  # noqa: E402,F401  (pins BLAS threads, loads every module)
import numpy as np  # noqa: E402
from gmvshrink import backtest, cli, core, dataio, nonoverlap, overlap, rmt, sim, strategies  # noqa: E402

import client  # noqa: E402
from tracer import PACKAGE, Tracer  # noqa: E402

MODULES = (backtest, cli, core, dataio, nonoverlap, overlap, rmt, sim, strategies)


def _snapshot():
    """Every attribute of every gmvshrink module, plus the traced methods."""
    state = {}
    for name, module in sys.modules.items():
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for attribute, value in vars(module).items():
                state[(name, attribute)] = value
    for method in ("updated", "mean", "cov"):
        state[("PooledStats", method)] = vars(core.PooledStats)[method]
    return state


def _assert_same(before, after):
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


def test_rebinding_reaches_every_alias():
    solve_spd, gmv_weights = core.solve_spd, core.gmv_weights
    feasible, weight_sequence = nonoverlap.feasible_intensity, strategies.weight_sequence
    with Tracer() as tracer:
        assert rmt.solve_spd is core.solve_spd is not solve_spd
        assert strategies.gmv_weights is core.gmv_weights is not gmv_weights
        assert nonoverlap.gmv_weights is overlap.gmv_weights is core.gmv_weights
        assert overlap.feasible_intensity is nonoverlap.feasible_intensity is not feasible
        assert sim.weight_sequence is strategies.weight_sequence is not weight_sequence
        for module in MODULES:
            for attribute, value in vars(module).items():
                if (
                    callable(value)
                    and getattr(value, "__module__", "").startswith(PACKAGE + ".")
                    and not attribute.startswith("_")
                    and not isinstance(value, type)
                ):
                    assert hasattr(value, "__wrapped__"), f"{module.__name__}.{attribute}"

        x = np.random.default_rng(0).standard_normal((5, 40))
        rmt.solve_spd(x @ x.T, np.ones(5))
        spans = tracer.report()
    assert spans["core.solve_spd"]["calls"] == 1
    assert spans["core.cholesky"]["calls"] == 1
    assert tracer.cholesky_distinct == 1


def test_originals_restored_after_traced_run(tmp_path):
    before = _snapshot()
    linalg = core.linalg
    with pytest.raises(RuntimeError):
        with Tracer():
            assert core.linalg is not linalg
            raise RuntimeError("abandon the run")
    _assert_same(before, _snapshot())
    assert core.linalg is linalg

    _traced_run("monte-carlo", tmp_path)
    _assert_same(before, _snapshot())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_is_total_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    def items():
        for _ in range(2):
            clock.advance(0.5)
            yield leaf()

    def mid():
        clock.advance(1.0)
        leaf()
        clock.advance(3.0)
        for _ in items():
            clock.advance(10.0)  # the consumer's own time, not the generator's

    def root():
        clock.advance(5.0)
        mid()

    leaf = tracer.wrap("leaf", leaf)
    items = tracer.wrap("items", items)
    mid = tracer.wrap("mid", mid)
    root = tracer.wrap("root", root)
    root()

    spans = tracer.report()
    # items: two resumptions doing 0.5 + leaf 2.0 each, one final empty one
    assert spans["items"] == {"calls": 1, "total_s": 5.0, "self_s": 1.0, "errors": 0}
    assert spans["leaf"] == {"calls": 3, "total_s": 6.0, "self_s": 6.0, "errors": 0}
    assert spans["mid"] == {"calls": 1, "total_s": 31.0, "self_s": 24.0, "errors": 0}
    assert spans["root"] == {"calls": 1, "total_s": 36.0, "self_s": 5.0, "errors": 0}
    assert sum(s["self_s"] for s in spans.values()) == spans["root"]["total_s"]


def test_errors_are_counted_and_spans_closed():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fails():
        clock.advance(1.0)
        raise ValueError("boom")

    fails = tracer.wrap("fails", fails)
    with pytest.raises(ValueError):
        fails()
    assert tracer.report()["fails"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0, "errors": 1}
    assert tracer._stack == []


def _traced_run(workload, work_dir):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    job = {
        "workload": workload,
        "seed": 7,
        "seconds": 0,  # one command group
        "trace": 1,
        "work_dir": str(work_dir),
        "input": None,
        "layer_metrics": [m["name"] for m in spec["per_layer"]],
    }
    result = client.run_job(job)
    assert [c["error"] for c in result["timed"] + result["extra"]] == [None] * (
        len(result["timed"]) + len(result["extra"])
    )
    return result["layers"]


def test_per_unit_counts_repeat_exactly(tmp_path):
    first = _traced_run("monte-carlo", tmp_path / "a")
    second = _traced_run("monte-carlo", tmp_path / "b")
    counts = [name for name in first if name.endswith((".calls", ".distinct", ".errors"))]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    # Per cycle: two simulate reps (93 factorizations of 21 distinct
    # matrices each) and one check-rmt of 20 reps (120 of 100).
    assert first["core.cholesky.calls"] == 2 * 93 + 120
    assert first["core.cholesky.distinct"] == 2 * 21 + 100
    assert first["sim.generate.calls"] == 2 * 10
    assert first["rmt.mc_quadratic_form.calls"] == 4
    assert first["trace.errors"] == 0
