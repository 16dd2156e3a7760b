"""Closed-form limits of high-dimensional quadratic forms and their Monte
Carlo verification harness.

The shrinkage recursions rest on deterministic equivalents of quadratic
forms through inverse Gram matrices of pure-noise data. This module exposes
those limits as exact closed forms and provides a simulation harness that
estimates the same quadratic forms directly, so the hardest asymptotics are
independently testable.

The nested-window constant returned by :func:`cross_resolvent_constant`
is the limit ``(1 - p/n)^{-1} (1 - p/N)^{-2}`` of the quadratic form through
two nested inverse Gram matrices of sizes ``n`` and ``N = n + m``. Scaled by
``(1 - p/n)(1 - p/N)`` it is the extending-window cross coefficient
``1 / (1 - p/N)`` of :func:`gmvshrink.overlap.cross_term`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import mean_and_stderr, sample_moments, solve_spd

KINDS = ("inv", "inv_sq", "cross", "cross_centered")

#: t distribution used by the heavy-tail option, scaled to unit variance.
_T_TAIL_DF = 9


@dataclass(frozen=True)
class GramSpec:
    """Dimensions and form of the simulated Gram matrices.

    ``form`` selects whether the single-window kinds center the data matrix
    before forming the Gram matrix; the cross kinds fix their own form
    (``cross`` uncentered, ``cross_centered`` centered).
    """

    p: int
    n: int
    m: int = 0
    form: str = "centered"

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"need p >= 2, got p={self.p}")
        if self.p >= self.n:
            raise ValueError(f"need p < n, got p={self.p}, n={self.n}")
        if self.m < 0:
            raise ValueError(f"need m >= 0, got m={self.m}")
        if self.form not in ("centered", "uncentered"):
            raise ValueError(f"unknown form {self.form!r}")


@dataclass(frozen=True)
class CrossResolventConstant:
    """Closed-form constant for the nested-window cross quadratic form."""

    d: float
    a: float
    b: float


def resolvent_limits(c):
    """Limits of the quadratic forms through one inverse Gram matrix.

    Returns ``((1 - c)^{-1}, (1 - c)^{-3})`` for the inverse and squared
    inverse respectively, valid for concentration ``c`` in ``(0, 1)``.
    Unit vectors with ``xi = theta`` are assumed, so the limits are the
    bare constants.
    """
    if not 0.0 <= c < 1.0:
        raise ValueError(f"concentration must lie in [0, 1), got {c}")
    inv = 1.0 / (1.0 - c)
    return inv, inv**3


def cross_resolvent_constant(n, m, p):
    """Closed-form constant ``d`` for nested windows of sizes n and n + m.

    ``d = (1 - p/n)^{-1} (1 - (p/n)/b)^{-2}``: the limit
    ``(1 - p/n)^{-1} (1 - p/N)^{-2}`` with the window ratio ``N/n`` replaced
    by its finite-size counterpart ``b``. ``a`` and ``b`` are the auxiliary
    constants; ``b / a`` always equals ``(n + m) / (n + m - p)`` exactly.
    """
    if not 2 < p < n:
        raise ValueError(f"need 2 < p < n, got p={p}, n={n}")
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    a = (n + m - p) / (n + m) * (n + m - 1) / (n - 1)
    b = (n + m - 1) / (n - 1)
    cn = p / n
    d = 1.0 / ((1.0 - cn) * (1.0 - cn / b) ** 2)
    return CrossResolventConstant(d=d, a=a, b=b)


def direction_vector(p, seed):
    """Unit-norm direction drawn once per harness run.

    First column of a seeded Gaussian p x p draw over its norm, which is the
    first column of its sign-fixed (Haar) QR factor. Both sides of every
    quadratic form use this one vector, so their inner product is one.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    x = rng.standard_normal((p, p))[:, 0]  # the whole p x p draw keeps each seed's direction
    return x / np.linalg.norm(x)


def _draw_matrix(rng, p, cols, tails):
    if tails == "normal":
        return rng.standard_normal((p, cols))
    if tails == "t9":
        return rng.standard_t(_T_TAIL_DF, (p, cols)) / math.sqrt(
            _T_TAIL_DF / (_T_TAIL_DF - 2)
        )
    raise ValueError(f"unknown tails {tails!r}, expected 'normal' or 't9'")


def _gram(x, center):
    return sample_moments(x)[1] if center else x @ x.T / (x.shape[1] - 1)


def mc_quadratic_form(spec, kind, reps, seed, tails="normal"):
    """Monte Carlo mean and standard error of one noise quadratic form.

    Parameters
    ----------
    spec : GramSpec
        Dimensions of the noise matrices; ``spec.m >= 1`` is required for
        the cross kinds.
    kind : {"inv", "inv_sq", "cross", "cross_centered"}
        ``inv`` and ``inv_sq`` evaluate the form through the inverse and
        squared-inverse Gram matrix of one window (centered or not per
        ``spec.form``); the cross kinds evaluate the form through the
        product of the inverse Gram matrices of a window of size ``n`` and
        its extension to ``n + m`` sharing the first ``n`` columns.
    reps : int
        Number of independent replications, at least 1.
    seed : int
        Base seed. Each replication derives its generator from
        ``(seed, rep_index)`` so results do not depend on scheduling.
    tails : {"normal", "t9"}
        Entry distribution, unit variance either way.

    Returns
    -------
    (float, float)
        Sample mean and its standard error (zero when ``reps == 1``).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {KINDS}")
    if reps < 1:
        raise ValueError(f"need reps >= 1, got {reps}")
    if kind in ("cross", "cross_centered") and spec.m < 1:
        raise ValueError(f"kind {kind!r} needs m >= 1, got m={spec.m}")

    xi = direction_vector(spec.p, seed)
    values = np.empty(reps)
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep + 1,)))
        if kind in ("inv", "inv_sq"):
            x = _draw_matrix(rng, spec.p, spec.n, tails)
            gram = _gram(x, center=spec.form == "centered")
            solved = solve_spd(gram, xi, n_obs=spec.n)
            if kind == "inv":
                values[rep] = xi @ solved
            else:
                values[rep] = solved @ solved
        else:
            center = kind == "cross_centered"
            x = _draw_matrix(rng, spec.p, spec.n + spec.m, tails)
            gram_small = _gram(x[:, : spec.n], center=center)
            gram_full = _gram(x, center=center)
            left = solve_spd(gram_small, xi, n_obs=spec.n)
            right = solve_spd(gram_full, xi, n_obs=spec.n + spec.m)
            values[rep] = left @ right

    return mean_and_stderr(values)
