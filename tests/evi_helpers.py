"""Test-only one-call forms of the flow estimates of ``hjflow.evi``.

Each helper checks its coordinate rows, evaluates the flows it needs at the
given times (the damped-distance bound takes mu, whose flow ``tataru.HCurve``
evaluates) and passes them to the kernel that ``run_evi_suite`` uses, so a
check here and a suite row read the same numbers.
"""

from __future__ import annotations

import numpy as np

from hjflow.evi import (
    _contraction,
    _damped_distance_bound,
    _distance_growth,
    _growth_rhs,
    _slope_decay,
)

from row_helpers import flow_values


def _times(times) -> np.ndarray:
    return np.asarray(list(times), dtype=float)


def contraction_violation(space, x, y, times) -> float:
    """max over times of d(x(t), y(t)) - exp(-kappa t) d(x, y)."""
    ts = _times(times)
    x, y = space.rows(x), space.rows(y)
    return _contraction(space, x, y, ts, flow_values(space, x, ts),
                        flow_values(space, y, ts))


def slope_decay_violation(space, x, times) -> float:
    """max over times of I(x(t)) - I(x) exp(-2 kappa t)."""
    ts = _times(times)
    x = space.rows(x)
    return _slope_decay(space, x, ts, flow_values(space, x, ts))


def distance_growth_violation(space, pi, mu, times) -> float:
    """max over times of LHS - RHS of the integrated growth inequality.

    For kappa != 0 the left side is exp(kappa t) d^2(pi, mu(t)) / 2; for
    kappa = 0 it is d^2(pi, mu(t)) / 2.
    """
    ts = _times(times)
    pi, mu = space.rows(pi), space.rows(mu)
    return _distance_growth(space, pi, ts, flow_values(space, mu, ts),
                            _growth_rhs(space, pi, mu, ts))


def damped_distance_bound_violation(space, pi, mu, times, eps_list=(None, 0.1, 1.0)) -> float:
    """Violation of the damped modified-distance bound along the flow.

    Checks exp(kappa_hat t) d_eps(pi, mu(t)) <= sqrt(2 RHS(t)) + sqrt(2 eps)
    where RHS is the integrated growth bound; eps None means the plain metric.
    """
    ts = _times(times)
    pi, mu = space.rows(pi), space.rows(mu)
    return _damped_distance_bound(space, pi, mu, ts, _growth_rhs(space, pi, mu, ts), eps_list)


def full_trajectory_energy_identity(space, x, ts) -> np.ndarray:
    """Oracle for ``energy_identity_residual``: the whole (..., T, size) flow of x
    at ts in one call, E at every time, |E(end) - E(start) + trapezoid of the
    squared slopes|."""
    ts = _times(ts)
    vals = space.flow_values(space.rows(x), ts)
    energies = space.energies(vals)
    dissipated = np.trapezoid(space.sq_slopes(vals), ts, axis=-1)
    return abs(energies[..., -1] - energies[..., 0] + dissipated)
