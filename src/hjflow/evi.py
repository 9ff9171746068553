"""Numerical verification of the EVI inequality and its flow estimates.

Each check returns a signed violation (positive means the inequality failed by
that much); suites sample random instances and collect worst cases.  The upper
right time derivative is realized as a forward finite difference with a small
step delta, so residuals of exact-equality instances sit at O(delta).  Points
are coordinate rows (size,), or (N, size) for N instances on a leading axis:
every check reduces over its time axis only, and gives each instance the bits
of a one-instance call.  The suite draws all its instances first and then runs
each check once over all of them.  The energy identity never holds a whole
(instances, times, size) trajectory: it flows E to the two ends only, and the
squared slopes in time blocks of ``BLOCK_ELEMENTS`` flow elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import ModelSpace
from .tataru import BLOCK_ELEMENTS, HCurve


def evi_residual(space: ModelSpace, x, rho, t, delta: float):
    """Forward-difference EVI residual L - R at time t along the flow from x.

    L approximates the upper right derivative of d^2(x(.), rho)/2 with step
    delta; R = E(rho) - E(x(t)) - kappa/2 d^2(x(t), rho).  Nonpositive up to
    O(delta) for valid flows.  x and rho (..., size) and t (...) may hold
    instances on their leading axes.
    """
    if not delta > 0:  # also rejects NaN
        raise ValueError("delta must be positive")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("negative time")
    x, rho = space.rows(x), space.rows(rho)
    vals = space.flow_values(x, np.stack((t, t + delta), axis=-1))
    half_sq = 0.5 * space.sq_dist(vals, rho[..., None, :])
    lhs = (half_sq[..., 1] - half_sq[..., 0]) / delta
    rhs = space.energies(rho) - space.energies(vals[..., 0, :]) - space.kappa * half_sq[..., 0]
    return lhs - rhs


def _contraction(space, x, y, ts, cx, cy):
    """max over ts of d(x(t), y(t)) - exp(-kappa t) d(x, y), from the flows cx of x
    and cy of y at ts."""
    dists = np.sqrt(space.sq_dist(cx, cy))
    bound = np.exp(-space.kappa * ts) * np.sqrt(space.sq_dist(x, y))[..., None]
    return np.max(dists - bound, axis=-1)


def energy_identity_residual(space: ModelSpace, x, ts):
    """|E(end) - E(start) + trapezoid integral of the squared slopes| along the
    flow from x (..., size), sampled at the times ts: at least two, strictly
    increasing, >= 0; each flow call holds at most max(BLOCK_ELEMENTS, x.size)
    elements."""
    ts = np.asarray(ts, dtype=float)
    if ts.size < 2 or np.any(np.diff(ts) <= 0):
        raise ValueError("trajectory needs at least two strictly increasing times")
    if ts[0] < 0:
        raise ValueError("negative time")
    x = space.rows(x)
    ends = space.energies(space.flow_values(x, ts[[0, -1]]))
    step = max(1, BLOCK_ELEMENTS // x.size)
    slopes = np.concatenate([space.sq_slopes(space.flow_values(x, ts[i:i + step]))
                             for i in range(0, ts.size, step)], axis=-1)
    return abs(ends[..., 1] - ends[..., 0] + np.trapezoid(slopes, ts, axis=-1))


def _slope_decay(space, x, ts, cx):
    """max over ts of I(x(t)) - I(x) exp(-2 kappa t), from the flow cx of x at ts."""
    info = space.sq_slopes(cx)
    bound = space.sq_slopes(x)[..., None] * np.exp(-2.0 * space.kappa * ts)
    return np.max(info - bound, axis=-1)


def _growth_rhs(space: ModelSpace, pi, mu, ts: np.ndarray) -> np.ndarray:
    """Right side of the integrated distance-growth inequality."""
    kappa = space.kappa
    d0_sq = space.sq_dist(pi, mu)[..., None]
    e_gap = (space.energies(pi) - space.energies(mu))[..., None]
    info = space.sq_slopes(mu)[..., None]
    if kappa != 0.0:
        ekt = np.exp(kappa * ts)
        return (0.5 * d0_sq + (ekt - 1.0) / kappa * e_gap
                + info / (2.0 * kappa**2) * (ekt + np.exp(-kappa * ts) - 2.0))
    return 0.5 * d0_sq + ts * e_gap + 0.5 * ts**2 * info


def _distance_growth(space, pi, ts, cmu, rhs):
    """max over ts of LHS - rhs of the integrated growth inequality, from the flow
    cmu of mu at ts; the left side is exp(kappa t) d^2(pi, mu(t)) / 2."""
    half_sq = 0.5 * space.sq_dist(cmu, pi[..., None, :])
    return np.max(np.exp(space.kappa * ts) * half_sq - rhs, axis=-1)


def _damped_distance_bound(space, pi, mu, ts, growth_rhs, eps_list):
    """max over ts and eps of exp(kappa_hat t) d_eps(pi, mu(t)) - sqrt(2 RHS) - sqrt(2 eps),
    with RHS = max(growth_rhs, 0); eps None means the plain metric.  One curve
    over (instance, eps) takes every smoothed eps, so mu flows once for all of them."""
    rhs = np.sqrt(2.0 * np.maximum(growth_rhs, 0.0))
    eps = np.array([e for e in eps_list if e is not None])
    worst = np.full(rhs.shape[:-1], -math.inf)
    if None in eps_list:
        worst = np.max(HCurve(space, pi, mu).h(ts) - rhs, axis=-1)
    if eps.size:
        gaps = np.sqrt(2.0 * eps)[:, None]
        h = HCurve(space, pi[..., None, :], mu[..., None, :], eps).h(ts)
        worst = np.maximum(worst, np.max(h - rhs[..., None, :] - gaps, axis=(-2, -1)))
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
    """Randomized EVI checks; rows are (check, instance, value, bound).

    All instances are drawn first; then each check runs once over all of them."""
    tol_evi = 10 * delta
    tol_other = 1e-3
    t_max = suite_time_horizon(space)
    draws = [(space.sample(rng, (2,)), float(rng.uniform(0.0, min(t_max, 5.0))))
             for _ in range(instances)]
    points = np.reshape([p for p, _ in draws], (instances, 2, space.size))
    x, rho, t = points[:, 0], points[:, 1], [t for _, t in draws]
    times = np.linspace(0.0, t_max, 9)[1:]
    trajectory = np.linspace(0.0, 1.0, 2001)

    residuals = evi_residual(space, x, rho, t, delta).tolist()
    # the flows of x and rho at times and the growth bound serve every check
    # below that needs them; each is evaluated once
    cx = space.flow_values(x, times)
    crho = space.flow_values(rho, times)
    growth = _growth_rhs(space, x, rho, times)
    checks = {
        "contraction": _contraction(space, x, rho, times, cx, crho),
        "energy_identity": energy_identity_residual(space, x, trajectory),
        "slope_decay": _slope_decay(space, x, times, cx),
        "distance_growth": _distance_growth(space, x, times, crho, growth),
        "damped_distance_bound": _damped_distance_bound(space, x, rho, times, growth,
                                                        (None, 0.1, 1.0)),
    }
    columns = [v.tolist() for v in checks.values()]
    rows = []
    worst = (-math.inf, None)
    for i, res in enumerate(residuals):
        rows.append(("evi_residual", i, res, tol_evi))
        if res > worst[0]:
            worst = (res, (x[i], t[i], rho[i]))
        rows += [(name, i, v[i], tol_other) for name, v in zip(checks, columns)]
    return EviReport(rows=tuple(rows), max_residual=worst[0], worst_case=worst[1])
