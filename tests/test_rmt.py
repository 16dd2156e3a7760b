"""Tests for the closed-form limits and the Monte Carlo harness.

Covers:
- single-window resolvent limits and their hand values
- the two-sample constant (frozen values, large-extension trend)
- agreement of the two-sample closed form with the simulated nested
  quadratic form at low concentration
- harness determinism, tail options and input validation
- the direction vector against the first column of the sign-fixed QR
  factor of its seeded draw

The simulated one-window forms against their limits (p=200, n=400) and
the two-window cross forms against each other and their closed form
(p=100, n=m=200) are acceptance criteria 4 and 5.
"""

import numpy as np
import pytest

from gmvshrink.rmt import (
    KINDS,
    GramSpec,
    cross_resolvent_constant,
    direction_vector,
    mc_quadratic_form,
    resolvent_limits,
)

# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_resolvent_limits_values():
    assert resolvent_limits(0.0) == (1.0, 1.0)
    inv, inv_sq = resolvent_limits(0.5)
    assert inv == pytest.approx(2.0)
    assert inv_sq == pytest.approx(8.0)
    inv, inv_sq = resolvent_limits(0.75)
    assert inv == pytest.approx(4.0)
    assert inv_sq == pytest.approx(64.0)


def test_resolvent_limits_validation():
    with pytest.raises(ValueError):
        resolvent_limits(1.0)
    with pytest.raises(ValueError):
        resolvent_limits(-0.1)


def test_cross_resolvent_constant_frozen_values():
    const = cross_resolvent_constant(200, 200, 100)
    assert const.d == pytest.approx(3.549622213984911, abs=1e-12)


def test_cross_resolvent_constant_validation():
    with pytest.raises(ValueError):
        cross_resolvent_constant(200, 200, 2)
    with pytest.raises(ValueError):
        cross_resolvent_constant(100, 200, 100)
    with pytest.raises(ValueError):
        cross_resolvent_constant(200, 0, 100)


def test_large_extension_approaches_single_window_limit():
    """As the extension grows the constant approaches (1 - p/n)^{-1}."""
    gaps = [abs(cross_resolvent_constant(200, m, 100).d - 2.0) for m in (10, 100, 1000, 10000)]
    for wider, narrower in zip(gaps, gaps[1:]):
        assert narrower < wider


# ---------------------------------------------------------------------------
# direction vector
# ---------------------------------------------------------------------------


def test_direction_vector_unit_norm_and_determinism():
    v = direction_vector(50, seed=5)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(v, direction_vector(50, seed=5))
    assert not np.array_equal(v, direction_vector(50, seed=6))


@pytest.mark.parametrize("p", [5, 50, 200])
def test_direction_vector_is_the_first_column_of_the_haar_factor(p):
    for seed in range(5):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        q, r = np.linalg.qr(rng.standard_normal((p, p)))
        expected = (q * np.sign(np.diag(r)))[:, 0]
        np.testing.assert_allclose(direction_vector(p, seed), expected, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------


def test_mc_is_deterministic_given_seed():
    spec = GramSpec(p=20, n=60)
    first = mc_quadratic_form(spec, "inv", reps=5, seed=11)
    second = mc_quadratic_form(spec, "inv", reps=5, seed=11)
    assert first == second


def test_mc_input_validation():
    spec = GramSpec(p=20, n=60)
    with pytest.raises(ValueError):
        mc_quadratic_form(spec, "nope", reps=5, seed=1)
    with pytest.raises(ValueError):
        mc_quadratic_form(spec, "inv", reps=0, seed=1)
    with pytest.raises(ValueError):
        mc_quadratic_form(spec, "cross", reps=5, seed=1)  # m defaults to 0
    with pytest.raises(ValueError, match="unknown tails"):
        mc_quadratic_form(spec, "inv", reps=1, seed=1, tails="cauchy")


def test_gram_spec_validation():
    with pytest.raises(ValueError):
        GramSpec(p=1, n=10)
    with pytest.raises(ValueError):
        GramSpec(p=10, n=10)
    with pytest.raises(ValueError):
        GramSpec(p=5, n=10, m=-1)
    with pytest.raises(ValueError):
        GramSpec(p=5, n=10, form="diagonal")
    # draws numpy cannot create
    for counts in ({"n": 10**20}, {"n": 2**61}, {"n": 10, "m": 10**20}):
        with pytest.raises(ValueError, match="too large for numpy"):
            GramSpec(p=5, **counts)


def test_heavy_tail_option_tracks_same_limit():
    """The limits are distribution-free within the unit-variance class."""
    mean, _ = mc_quadratic_form(GramSpec(p=100, n=200), "inv", reps=40, seed=19, tails="t9")
    assert mean == pytest.approx(2.0, rel=0.08)


def test_mc_fluctuations_shrink_with_dimension():
    """Deviation from the limit decays as the matrices grow."""
    small = [
        mc_quadratic_form(GramSpec(p=25, n=50), "inv", reps=30, seed=s)[0] for s in range(10)
    ]
    large = [
        mc_quadratic_form(GramSpec(p=100, n=200), "inv", reps=30, seed=s)[0] for s in range(10)
    ]
    assert np.mean(np.abs(np.array(large) - 2.0)) < np.mean(np.abs(np.array(small) - 2.0))


def test_cross_form_low_concentration_limit():
    """At vanishing concentration the nested form goes to one, and the
    closed form follows it."""
    spec = GramSpec(p=20, n=2000, m=2000)
    mean, _ = mc_quadratic_form(spec, "cross", reps=30, seed=29)
    assert mean == pytest.approx(1.0, rel=0.05)
    closed = cross_resolvent_constant(2000, 2000, 20).d
    assert closed == pytest.approx(1.020275721854412, abs=1e-12)
    assert closed == pytest.approx(mean, rel=0.05)


def test_kind_registry():
    assert KINDS == ("inv", "inv_sq", "cross", "cross_centered")
