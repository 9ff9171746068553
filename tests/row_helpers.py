"""Test-only one-row forms of the row kernels of ``hjflow.spaces`` and of
``hjflow.tataru.tataru_batch``.

Each takes single coordinate rows (size,), checked by ``ModelSpace.rows``:
distances, energies and slopes are floats of the row kernels, ``flow_values``
is ``ModelSpace.flow_values`` of one checked start at checked times, ``d_eps`` is
psi_eps of half of ``sq_dist``, as ``tataru.HCurve.t_cap`` takes it, and
``tataru``/``tataru_eps`` are batches of one.
"""

from __future__ import annotations

import numpy as np

from hjflow.tataru import TataruResult, psi_eps, tataru_batch


def distance(space, x, y) -> float:
    return float(np.sqrt(space.sq_dist(space.rows(x), space.rows(y))))


def energy(space, x) -> float:
    return float(space.energies(space.rows(x)))


def slope(space, x) -> float:
    return float(np.sqrt(space.sq_slopes(space.rows(x))))


def information(space, x) -> float:
    """Squared slope; drives the energy dissipation identity."""
    return float(space.sq_slopes(space.rows(x)))


def flow_values(space, x, ts) -> np.ndarray:
    """The flow from the row x at the times ts >= 0, shape (len(ts), size)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.size and ts.min() < 0:
        raise ValueError("negative time")
    return space.flow_values(space._row(x), ts)


def flow(space, x, t: float) -> np.ndarray:
    """The row reached from x after time t along the gradient flow."""
    return flow_values(space, x, [float(t)])[0]


def d_eps(space, eps: float, x, y) -> float:
    """Modified distance psi_eps(d^2/2); satisfies d <= d_eps <= max(sqrt(2 eps), d)."""
    return float(psi_eps(eps, 0.5 * space.sq_dist(space.rows(x), space.rows(y))))


def tataru(space, pi, mu, kappa_override: float | None = None) -> TataruResult:
    """Tataru distance from pi to mu (flowing mu), with optional kappa override."""
    return tataru_batch(space, [pi], [mu], [kappa_override])[0]


def tataru_eps(space, eps: float, pi, mu, kappa_override: float | None = None) -> TataruResult:
    """Smoothed Tataru distance; its minimizer set is the argmin set Xi(pi)."""
    return tataru_batch(space, [pi], [mu], [kappa_override], eps=eps)[0]
