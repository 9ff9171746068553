"""Tataru distance, its smoothed variant, and the scalar time minimization.

The distance between pi and mu is the infimum over t >= 0 of
``t + exp(kappa_hat t) d(pi, mu(t))`` where mu(t) is the gradient flow started
at mu and kappa_hat = min(kappa, 0).  The smoothed variant replaces d by
``psi_eps(d^2 / 2)``, a C^2 approximation of r -> sqrt(2 r) that makes the
objective differentiable in the squared distance.

Both are minimized over t in [0, T_cap] on a coarse grid; the three best grid
minima are then refined together by a bracket zoom that evaluates the
objective on whole arrays of times, never one scalar time at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import FlowCurve, ModelSpace, SpacePoint

GRID_POINTS = 512
ZOOM_POINTS = 33
ZOOM_STEPS = 20
_ZOOM_UNIT = np.linspace(0.0, 1.0, ZOOM_POINTS)
VALUE_TOL = 1e-9


def psi_eps(eps: float, r) -> np.ndarray | float:
    """Smoothed square root: sqrt(2 r) for r >= eps, a matched quadratic below.

    Explicitly, for 0 <= r <= eps the value is
    ``sqrt(2 eps) + (r - eps)/sqrt(2 eps) - (r - eps)^2 / (2 (2 eps)^{3/2})``,
    which glues C^1 to sqrt(2 r) at r = eps.  Strictly increasing with a
    positive, strictly decreasing derivative.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise ValueError("psi_eps requires r >= 0")
    root = np.sqrt(2.0 * eps)
    low = root + (arr - eps) / root - np.square(arr - eps) / (2.0 * root**3)
    high = np.sqrt(2.0 * np.maximum(arr, eps))
    out = np.where(arr <= eps, low, high)
    return float(out) if np.isscalar(r) or out.ndim == 0 else out


def psi_eps_prime(eps: float, r) -> np.ndarray | float:
    """Derivative of psi_eps; positive, strictly decreasing."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise ValueError("psi_eps requires r >= 0")
    root = np.sqrt(2.0 * eps)
    low = 1.0 / root - (arr - eps) / root**3
    high = 1.0 / np.sqrt(2.0 * np.maximum(arr, eps))
    out = np.where(arr <= eps, low, high)
    return float(out) if np.isscalar(r) or out.ndim == 0 else out


def d_eps(space: ModelSpace, eps: float, x: SpacePoint, y: SpacePoint) -> float:
    """Modified distance psi_eps(d^2/2); satisfies d <= d_eps <= max(sqrt(2 eps), d)."""
    return float(psi_eps(eps, 0.5 * space.distance(x, y) ** 2))


@dataclass(frozen=True)
class TataruResult:
    """Value and minimizer set of the scalar time minimization."""

    value: float
    minimizers: np.ndarray
    t_cap: float
    grid_points: int

    @property
    def minimizer(self) -> float:
        return float(self.minimizers[0])


def _zoom(objective_batch, a: np.ndarray, b: np.ndarray, tol: float = 1e-11) -> np.ndarray:
    """Bracket zoom on all brackets [a[k], b[k]] at once; returns the midpoints.

    Each step evaluates objective_batch once, on a ZOOM_POINTS grid in every
    bracket, and shrinks each bracket to the grid neighbours of its argmin (a
    factor (ZOOM_POINTS - 1) / 2 per step) until all are at most tol wide.
    """
    rows = np.arange(a.size)
    for _ in range(ZOOM_STEPS):
        if not np.any(b - a > tol):
            break
        ts = a[:, None] + (b - a)[:, None] * _ZOOM_UNIT
        j = np.argmin(objective_batch(ts.ravel()).reshape(ts.shape), axis=1)
        a = ts[rows, np.maximum(j - 1, 0)]
        b = ts[rows, np.minimum(j + 1, ZOOM_POINTS - 1)]
    return 0.5 * (a + b)


def _minimize_over_time(objective_batch, objective_one, t_cap: float,
                        grid_points: int = GRID_POINTS) -> TataruResult:
    """Coarse grid plus one batched bracket zoom around the best local minima.

    ``objective_batch`` maps an array of times to objective values and does
    all the search; ``objective_one`` maps a scalar time to a value and is
    called once per refined minimum, at its zoomed midpoint.  The minimizer
    set collects all grid and refined minima whose value is within VALUE_TOL
    of the best one.
    """
    ts = np.linspace(0.0, t_cap, grid_points)
    vals = objective_batch(ts)
    # local minima, boundaries included
    padded = np.concatenate(([np.inf], vals, [np.inf]))
    local = np.flatnonzero((vals <= padded[:-2]) & (vals <= padded[2:]))
    order = local[np.argsort(vals[local], kind="stable")][:3]
    candidates = list(zip(ts[order].tolist(), vals[order].tolist()))
    a = ts[np.maximum(order - 1, 0)]
    b = ts[np.minimum(order + 1, grid_points - 1)]
    for t_star in _zoom(objective_batch, a[b > a], b[b > a]).tolist():
        candidates.append((t_star, objective_one(t_star)))
    best = min(v for _, v in candidates)
    mins = sorted(t for t, v in candidates if v <= best + VALUE_TOL)
    dedup: list[float] = []
    for t in mins:
        if not dedup or t - dedup[-1] > 1e-8:
            dedup.append(t)
    return TataruResult(value=best, minimizers=np.array(dedup), t_cap=t_cap,
                        grid_points=grid_points)


def _flow_objective(space: ModelSpace, pi: SpacePoint, curve: FlowCurve,
                    kappa_hat: float, eps: float | None):
    """(batch, one): t + exp(kappa_hat t) d(pi, mu(t)), or psi_eps(d^2/2) for eps,
    over an array of times resp. at one time; ``one`` evaluates ``batch``."""
    pvals = pi.values
    w = space.weight

    def batch(ts):
        diffs = curve.values_at(ts) - pvals[None, :]
        dist2 = w * np.sum(diffs * diffs, axis=1)
        inner = np.sqrt(dist2) if eps is None else psi_eps(eps, 0.5 * dist2)
        return ts + np.exp(kappa_hat * ts) * inner

    return batch, lambda t: float(batch(np.array([t]))[0])


def tataru(space: ModelSpace, pi: SpacePoint, mu: SpacePoint,
           kappa_override: float | None = None) -> TataruResult:
    """Tataru distance from pi to mu (flowing mu), with optional kappa override.

    The search interval [0, T_cap] with T_cap = d(pi, mu) + 1 is exhaustive:
    the objective at t = 0 equals d(pi, mu) and exceeds d(pi, mu) for
    t > T_cap since the objective dominates t.
    """
    kappa = space.kappa if kappa_override is None else kappa_override
    kappa_hat = min(kappa, 0.0)
    curve = space.flow_curve(mu)
    batch, one = _flow_objective(space, pi, curve, kappa_hat, eps=None)
    t_cap = space.distance(pi, mu) + 1.0
    return _minimize_over_time(batch, one, t_cap)


def tataru_eps(space: ModelSpace, eps: float, pi: SpacePoint, mu: SpacePoint,
               kappa_override: float | None = None) -> TataruResult:
    """Smoothed Tataru distance; its minimizer set is the argmin set Xi(pi)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    kappa = space.kappa if kappa_override is None else kappa_override
    kappa_hat = min(kappa, 0.0)
    curve = space.flow_curve(mu)
    batch, one = _flow_objective(space, pi, curve, kappa_hat, eps=eps)
    t_cap = d_eps(space, eps, pi, mu) + 1.0
    return _minimize_over_time(batch, one, t_cap)
