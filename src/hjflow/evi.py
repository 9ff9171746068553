"""Numerical verification of the EVI inequality and its flow estimates.

Each check returns a signed violation (positive means the inequality failed by
that much); suites sample random instances and collect worst cases.  The upper
right time derivative is realized as a forward finite difference with a small
step delta, so residuals of exact-equality instances sit at O(delta).  Points
are coordinate rows (size,).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import ModelSpace
from .tataru import HCurve


def evi_residual(space: ModelSpace, x, rho, t: float, delta: float) -> float:
    """Forward-difference EVI residual L - R at time t along the flow from x.

    L approximates the upper right derivative of d^2(x(.), rho)/2 with step
    delta; R = E(rho) - E(x(t)) - kappa/2 d^2(x(t), rho).  Nonpositive up to
    O(delta) for valid flows.
    """
    if not delta > 0:  # also rejects NaN
        raise ValueError("delta must be positive")
    if t < 0:
        raise ValueError("negative time")
    x, rho = space._row(x), space._row(rho)
    vals = space.flow_values(x, np.array([t, t + delta], dtype=float))
    half_sq = 0.5 * space.sq_dist(vals, rho)
    lhs = (half_sq[1] - half_sq[0]) / delta
    rhs = space.energies(rho) - space.energies(vals[0]) - space.kappa * half_sq[0]
    return float(lhs - rhs)


def _contraction(space, x, y, ts, cx, cy) -> float:
    """max over ts of d(x(t), y(t)) - exp(-kappa t) d(x, y), from the flows cx of x
    and cy of y at ts."""
    dists = np.sqrt(space.sq_dist(cx, cy))
    bound = np.exp(-space.kappa * ts) * np.sqrt(space.sq_dist(x, y))
    return float(np.max(dists - bound))


def energy_identity_residual(space: ModelSpace, x, ts) -> float:
    """|E(end) - E(start) + trapezoid integral of the squared slopes| along the
    flow from x, sampled at the times ts: at least two, strictly increasing, >= 0."""
    ts = np.asarray(ts, dtype=float)
    if ts.size < 2 or np.any(np.diff(ts) <= 0):
        raise ValueError("trajectory needs at least two strictly increasing times")
    if ts[0] < 0:
        raise ValueError("negative time")
    vals = space.flow_values(space._row(x), ts)
    energies = space.energies(vals)
    dissipated = float(np.trapezoid(space.sq_slopes(vals), ts))
    return abs(energies[-1] - energies[0] + dissipated)


def _slope_decay(space, x, ts, cx) -> float:
    """max over ts of I(x(t)) - I(x) exp(-2 kappa t), from the flow cx of x at ts."""
    info = space.sq_slopes(cx)
    bound = space.sq_slopes(x) * np.exp(-2.0 * space.kappa * ts)
    return float(np.max(info - bound))


def _growth_rhs(space: ModelSpace, pi, mu, ts: np.ndarray) -> np.ndarray:
    """Right side of the integrated distance-growth inequality."""
    kappa = space.kappa
    d0_sq = space.sq_dist(pi, mu)
    e_gap = space.energies(pi) - space.energies(mu)
    info = space.sq_slopes(mu)
    if kappa != 0.0:
        ekt = np.exp(kappa * ts)
        return (0.5 * d0_sq + (ekt - 1.0) / kappa * e_gap
                + info / (2.0 * kappa**2) * (ekt + np.exp(-kappa * ts) - 2.0))
    return 0.5 * d0_sq + ts * e_gap + 0.5 * ts**2 * info


def _distance_growth(space, pi, ts, cmu, rhs) -> float:
    """max over ts of LHS - rhs of the integrated growth inequality, from the flow
    cmu of mu at ts; the left side is exp(kappa t) d^2(pi, mu(t)) / 2."""
    half_sq = 0.5 * space.sq_dist(cmu, pi)
    return float(np.max(np.exp(space.kappa * ts) * half_sq - rhs))


def _damped_distance_bound(space, pi, mu, ts, growth_rhs, eps_list) -> float:
    """max over ts and eps of exp(kappa_hat t) d_eps(pi, mu(t)) - sqrt(2 RHS) - sqrt(2 eps),
    with RHS = max(growth_rhs, 0); eps None means the plain metric.  One curve
    takes every smoothed eps as an instance, so mu flows once for all of them."""
    rhs = np.sqrt(2.0 * np.maximum(growth_rhs, 0.0))
    eps = np.array([e for e in eps_list if e is not None])
    worst = -math.inf
    if None in eps_list:
        worst = float(np.max(HCurve(space, pi, mu).h(ts) - rhs))
    if eps.size:
        gaps = np.sqrt(2.0 * eps)[:, None]
        worst = max(worst, float(np.max(HCurve(space, pi, mu, eps).h(ts) - rhs - gaps)))
    return worst


# ---------------------------------------------------------------------------
# randomized suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EviReport:
    rows: tuple
    max_residual: float
    worst_case: tuple


def suite_time_horizon(space: ModelSpace) -> float:
    return 20.0 / max(abs(space.kappa), 0.2)


def run_evi_suite(space: ModelSpace, rng: np.random.Generator, instances: int = 200,
                  delta: float = 1e-4) -> EviReport:
    """Randomized EVI checks; rows are (check, instance, value, bound, violation, pass)."""
    tol_evi = 10 * delta
    tol_other = 1e-3
    t_max = suite_time_horizon(space)
    rows = []
    worst = (-math.inf, None)
    for i in range(instances):
        x = space.sample(rng)
        rho = space.sample(rng)
        t = float(rng.uniform(0.0, min(t_max, 5.0)))
        times = np.linspace(0.0, t_max, 9)[1:]

        res = evi_residual(space, x, rho, t, delta)
        rows.append(("evi_residual", i, res, tol_evi, res - tol_evi, res <= tol_evi))
        if res > worst[0]:
            worst = (res, (x, t, rho))

        # the flows of x and rho at times and the growth bound serve every
        # check below that needs them; each is evaluated once
        cx = space.flow_values(x, times)
        crho = space.flow_values(rho, times)
        growth = _growth_rhs(space, x, rho, times)

        v = _contraction(space, x, rho, times, cx, crho)
        rows.append(("contraction", i, v, tol_other, v - tol_other, v <= tol_other))

        v = energy_identity_residual(space, x, np.linspace(0.0, 1.0, 2001))
        rows.append(("energy_identity", i, v, tol_other, v - tol_other, v <= tol_other))

        v = _slope_decay(space, x, times, cx)
        rows.append(("slope_decay", i, v, tol_other, v - tol_other, v <= tol_other))

        v = _distance_growth(space, x, times, crho, growth)
        rows.append(("distance_growth", i, v, tol_other, v - tol_other, v <= tol_other))

        v = _damped_distance_bound(space, x, rho, times, growth, (None, 0.1, 1.0))
        rows.append(("damped_distance_bound", i, v, tol_other, v - tol_other, v <= tol_other))
    return EviReport(rows=tuple(rows), max_residual=worst[0], worst_case=worst[1])
