"""Tataru distance, its smoothed variant, and the time minimization behind both.

The distance between pi and mu is the infimum over t >= 0 of
``t + exp(kappa_hat t) d(pi, mu(t))`` where mu(t) is the gradient flow started
at mu and kappa_hat = min(kappa, 0).  The smoothed variant replaces d by
``psi_eps(d^2 / 2)``, a C^2 approximation of r -> sqrt(2 r) that makes the
objective differentiable in the squared distance.

``tataru_batch`` minimizes over t in [0, T_cap] for many (pi, mu, kappa)
instances at once, in blocks of instances: one coarse-grid objective call per
block, then a bracket zoom around the three best grid minima of every instance
with one objective call per step for all brackets of the block, then one call
for the refined values.  ``tataru`` and ``tataru_eps`` are its one-instance
case, so every instance gets the same numbers alone or in a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spaces import ModelSpace, SpacePoint

GRID_POINTS = 512
ZOOM_POINTS = 33
ZOOM_STEPS = 20
_ZOOM_UNIT = np.linspace(0.0, 1.0, ZOOM_POINTS)
VALUE_TOL = 1e-9
# grid points x coordinates evaluated per block of instances; bounds the memory
BLOCK_ELEMENTS = 2**14


def logsumexp(a, axis: int | None = None):
    """log(sum(exp(a))) over ``axis`` (all of ``a`` for None) with the bits of scipy's:
    the maxima leave the sum and are counted, and an all -inf slice gives -inf."""
    a = np.asarray(a, dtype=float)
    a_max = np.max(a, axis=axis, keepdims=True)
    top = a == a_max
    m = np.sum(top, axis=axis, keepdims=True, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max), axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
    out = np.where(a_max == -np.inf, -np.inf, out)
    return np.squeeze(out, axis)[()]


def psi_eps(eps: float, r) -> np.ndarray:
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
    return np.where(arr <= eps, low, high)


def psi_eps_prime(eps: float, r) -> np.ndarray:
    """Derivative of psi_eps; positive, strictly decreasing."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise ValueError("psi_eps requires r >= 0")
    root = np.sqrt(2.0 * eps)
    low = 1.0 / root - (arr - eps) / root**3
    high = 1.0 / np.sqrt(2.0 * np.maximum(arr, eps))
    return np.where(arr <= eps, low, high)


def d_eps(space: ModelSpace, eps: float, x: SpacePoint, y: SpacePoint) -> float:
    """Modified distance psi_eps(d^2/2); satisfies d <= d_eps <= max(sqrt(2 eps), d)."""
    return float(psi_eps(eps, 0.5 * space.distance(x, y) ** 2))


@dataclass(frozen=True)
class TataruResult:
    """Value and minimizer set of the time minimization."""

    value: float
    minimizers: np.ndarray
    t_cap: float
    grid_points: int

    @property
    def minimizer(self) -> float:
        return float(self.minimizers[0])


def _zoom(objective, rows: np.ndarray, a: np.ndarray, b: np.ndarray,
          tol: float = 1e-11) -> np.ndarray:
    """Bracket zoom on all brackets [a[k], b[k]] at once; returns the midpoints.

    Bracket k belongs to instance ``rows[k]``.  Each step evaluates
    ``objective`` once, on a ZOOM_POINTS grid in every bracket of the instances
    still zooming, and shrinks each bracket to the grid neighbours of its
    argmin (a factor (ZOOM_POINTS - 1) / 2 per step).  An instance zooms all its
    brackets until every one of them is at most tol wide.
    """
    mid = 0.5 * (a + b)
    live = np.arange(a.size)
    for _ in range(ZOOM_STEPS):
        wide = b - a > tol
        if not wide.all():
            zooming = np.bincount(rows, wide)[rows] > 0
            mid[live[~zooming]] = 0.5 * (a[~zooming] + b[~zooming])
            live, rows, a, b = live[zooming], rows[zooming], a[zooming], b[zooming]
            if not live.size:
                return mid
        ts = a[:, None] + (b - a)[:, None] * _ZOOM_UNIT
        j = objective(rows, ts).argmin(axis=1)
        k = np.arange(j.size)
        a = ts[k, np.maximum(j - 1, 0)]
        b = ts[k, np.minimum(j + 1, ZOOM_POINTS - 1)]
    mid[live] = 0.5 * (a + b)
    return mid


def _minimize(objective, t_caps: np.ndarray,
              grid_points: int = GRID_POINTS) -> list[TataruResult]:
    """Coarse grid plus a batched bracket zoom around each instance's best local minima.

    ``objective(rows, ts)`` maps instance indices (R,) into ``t_caps`` and
    times (R, T) to objective values (R, T).  It is called once on the grid of
    every instance, once per zoom step and once for the refined values.  The
    minimizer set of an instance collects all its grid and refined minima whose
    value is within VALUE_TOL of its best one.
    """
    n = t_caps.size
    rows = np.arange(n)
    ts = np.linspace(0.0, t_caps, grid_points, axis=1)
    vals = objective(rows, ts)
    # local minima, boundaries included; the three lowest of each instance,
    # ties in grid order (lexsort is stable)
    edge = np.full((n, 1), np.inf)
    padded = np.concatenate((edge, vals, edge), axis=1)
    inst, at = ((vals <= padded[:, :-2]) & (vals <= padded[:, 2:])).nonzero()
    by_value = np.lexsort((vals[inst, at], inst))
    inst, at = inst[by_value], at[by_value]
    rank = np.arange(inst.size) - inst.searchsorted(inst)
    top = rank < 3
    inst, at, rank = inst[top], at[top], rank[top]
    cand_t = np.full((n, 6), np.inf)
    cand_v = np.full((n, 6), np.inf)
    cand_t[inst, rank] = ts[inst, at]
    cand_v[inst, rank] = vals[inst, at]

    a = ts[inst, np.maximum(at - 1, 0)]
    b = ts[inst, np.minimum(at + 1, grid_points - 1)]
    keep = b > a
    inst, rank = inst[keep], rank[keep]
    t_star = _zoom(objective, inst, a[keep], b[keep])
    cand_t[inst, 3 + rank] = t_star
    cand_v[inst, 3 + rank] = objective(inst, t_star[:, None])[:, 0]

    best = cand_v.min(axis=1)
    near = np.sort(np.where(cand_v <= (best + VALUE_TOL)[:, None], cand_t, np.inf), axis=1)
    results = []
    for value, times, t_cap in zip(best.tolist(), near.tolist(), t_caps.tolist()):
        minimizers: list[float] = []
        for t in times:
            if t < np.inf and (not minimizers or t - minimizers[-1] > 1e-8):
                minimizers.append(t)
        results.append(TataruResult(value=value, minimizers=np.array(minimizers),
                                    t_cap=t_cap, grid_points=grid_points))
    return results


def _flow_objective(space: ModelSpace, pis: Sequence[SpacePoint], mus: Sequence[SpacePoint],
                    kappa_hats: Sequence[float], eps: float | None):
    """objective(rows, ts): t + exp(kappa_hat t) d(pi, mu(t)), or psi_eps(d^2/2)
    for eps, for the instances ``rows`` at the times ts of shape (len(rows), T)."""
    pvals = np.array([p.values for p in pis])
    starts = np.array([m.values for m in mus])
    k_hat = np.array(kappa_hats, dtype=float)

    def objective(rows, ts):
        dist2 = space.sq_dist(space.flow_values(starts.take(rows, 0), ts),
                              pvals.take(rows, 0)[:, None, :])
        inner = np.sqrt(dist2) if eps is None else psi_eps(eps, 0.5 * dist2)
        return ts + np.exp(k_hat.take(rows)[:, None] * ts) * inner

    return objective


def tataru_batch(space: ModelSpace, pis: Sequence[SpacePoint], mus: Sequence[SpacePoint],
                 kappas: Sequence[float | None] | None = None,
                 eps: float | None = None) -> list[TataruResult]:
    """Tataru distances (smoothed by eps unless None) from pis[i] to mus[i].

    ``kappas[i]`` overrides the space's kappa for instance i (None keeps it).
    The search interval [0, T_cap] with T_cap = d(pi, mu) + 1 (d_eps for the
    smoothed variant) is exhaustive: the objective at t = 0 equals that
    distance and exceeds it for t > T_cap since the objective dominates t.
    Instances are minimized in blocks of at most BLOCK_ELEMENTS grid points
    times coordinates (at least one instance); each result is the same, bit
    for bit, whatever block it lands in.
    """
    if eps is not None and eps <= 0:
        raise ValueError("eps must be positive")
    pis, mus = list(pis), list(mus)
    kappas = [None] * len(pis) if kappas is None else list(kappas)
    if not len(pis) == len(mus) == len(kappas):
        raise ValueError("pis, mus and kappas must have the same length")
    # the distances also check that every point belongs to the space
    if eps is None:
        t_caps = [space.distance(p, m) + 1.0 for p, m in zip(pis, mus)]
    else:
        t_caps = [d_eps(space, eps, p, m) + 1.0 for p, m in zip(pis, mus)]
    kappa_hats = [min(space.kappa if k is None else k, 0.0) for k in kappas]
    block = max(1, BLOCK_ELEMENTS // (GRID_POINTS * space.size))
    results: list[TataruResult] = []
    for lo in range(0, len(pis), block):
        hi = lo + block
        objective = _flow_objective(space, pis[lo:hi], mus[lo:hi], kappa_hats[lo:hi], eps)
        results += _minimize(objective, np.array(t_caps[lo:hi]))
    return results


def tataru(space: ModelSpace, pi: SpacePoint, mu: SpacePoint,
           kappa_override: float | None = None) -> TataruResult:
    """Tataru distance from pi to mu (flowing mu), with optional kappa override."""
    return tataru_batch(space, [pi], [mu], [kappa_override])[0]


def tataru_eps(space: ModelSpace, eps: float, pi: SpacePoint, mu: SpacePoint,
               kappa_override: float | None = None) -> TataruResult:
    """Smoothed Tataru distance; its minimizer set is the argmin set Xi(pi)."""
    return tataru_batch(space, [pi], [mu], [kappa_override], eps=eps)[0]
