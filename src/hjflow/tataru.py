"""Tataru distance, its smoothed variant, and the time minimization behind both.

The distance between pi and mu is the infimum over t >= 0 of
``t + exp(kappa_hat t) d(pi, mu(t))`` where mu(t) is the gradient flow started
at mu and kappa_hat = min(kappa, 0).  The smoothed variant replaces d by
``psi_eps(d^2 / 2)``, a C^2 approximation of r -> sqrt(2 r) that makes the
objective differentiable in the squared distance.

``HCurve`` is the one evaluator of h(t) = exp(kappa_hat t) D(pi, mu(t)), D = d
or psi_eps(d^2/2): the objective t + h and its cap here, the Laplace integrands,
the ladder's flow action and the damped-distance check all take h from it, and
no other module builds psi constants.

``tataru_batch`` minimizes over t in [0, T_cap] for many (pi, mu, kappa, eps)
instances at once, pi and mu given as coordinate rows: one coarse-grid
objective call per chunk of instances, of which only the three best useful
grid brackets of every instance are kept, then, per block of instances, a
bracket zoom with one objective call per step for all brackets of the block
and one call for the refined values.  As F(t) = t + h(t) >= t and F(0) =
D(pi, mu), a bracket is useful only if it starts within D + VALUE_TOL, and
the grid of an instance stops there.  Chunks and blocks are sized by BLOCK_ELEMENTS,
so a 64-point quantile space, whose grid fills a chunk with one instance,
still zooms five instances together.  It is the one entry point: a single
distance is a batch of one, and every instance gets the same numbers alone or
in a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spaces import ModelSpace

GRID_POINTS = 512
ZOOM_POINTS = 33
ZOOM_STEPS = 20
ZOOM_TOL = 1e-11
_ZOOM_UNIT = np.linspace(0.0, 1.0, ZOOM_POINTS)
VALUE_TOL = 1e-9
# bounds the memory of one objective call: with cap = max(BLOCK_ELEMENTS,
# GRID_POINTS * size) flow elements, the grid runs on chunks of
# cap // (GRID_POINTS * size) instances (at least one) and the zoom on blocks of
# cap // (3 * ZOOM_POINTS * size) instances, three brackets each
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


def _psi_consts(eps) -> tuple:
    """(eps, sqrt(2 eps), (2 eps)^{3/2}) as arrays shaped like the positive eps; the cube
    (2 eps) sqrt(2 eps) reads within 1.3 ulp of exact, the cubed root within 2.9 ulp."""
    eps = np.asarray(eps, dtype=float)
    if not np.all(eps > 0):  # also rejects NaN
        raise ValueError("eps must be positive")
    two_eps = 2.0 * eps
    root = np.sqrt(two_eps)
    return eps, root, two_eps * root


def _psi_r(r) -> np.ndarray:
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise ValueError("psi_eps requires r >= 0")
    return arr


def _psi(consts, arr: np.ndarray, value: bool = True, prime: bool = True):
    """(psi_eps, psi_eps') on the checked arr, each only when asked for (else None).

    ``consts`` = (eps, root, cube) of ``_psi_consts``, broadcasting against arr:
    one eps for all of arr or one per row.  Each element's arithmetic depends
    only on its own r and eps, so it is the same alone or in any batch.
    """
    eps, root, cube = consts
    # the low branch of the value comes first, before ``high`` is held, which
    # keeps the peak memory of a value-only call at that of the plain formula
    val = der = None
    if value:
        val = root + (arr - eps) / root - np.square(arr - eps) / (2.0 * cube)
    high = np.sqrt(2.0 * np.maximum(arr, eps))
    low = arr <= eps
    if value:
        val = np.where(low, val, high)
    if prime:
        der = np.where(low, 1.0 / root - (arr - eps) / cube, 1.0 / high)
    return val, der


def psi_eps(eps: float, r) -> np.ndarray:
    """Smoothed square root: sqrt(2 r) for r >= eps, a matched quadratic below.

    Explicitly, for 0 <= r <= eps the value is
    ``sqrt(2 eps) + (r - eps)/sqrt(2 eps) - (r - eps)^2 / (2 (2 eps)^{3/2})``,
    which glues C^1 to sqrt(2 r) at r = eps.  Strictly increasing with a
    positive, strictly decreasing derivative.
    """
    return _psi(_psi_consts(eps), _psi_r(r), prime=False)[0]


def psi_eps_prime(eps: float, r) -> np.ndarray:
    """Derivative of psi_eps; positive, strictly decreasing."""
    return _psi(_psi_consts(eps), _psi_r(r), value=False)[1]


def psi_eps_and_prime(eps: float, r) -> tuple[np.ndarray, np.ndarray]:
    """(psi_eps(eps, r), psi_eps_prime(eps, r)), bit for bit, from one check,
    one sqrt(2 eps) and one branch mask."""
    return _psi(_psi_consts(eps), _psi_r(r))


@dataclass(frozen=True)
class TataruResult:
    """Value and minimizer set of the time minimization."""

    value: float
    minimizers: np.ndarray
    t_cap: float


class HCurve:
    """The one evaluator of h(t) = exp(kappa_hat t) D(pi, mu(t)), D = d or psi_eps(d^2/2).

    Instances sit on the leading axes: ``pi`` holds coordinate rows (..., size)
    and ``mu`` rows that broadcast against them, both checked by the caller;
    ``kappa_hat`` is None (the space's), one value or one per instance, and
    ``eps`` None (D = d), one value or one per instance.  The psi constants
    are built here, once per curve.  Times ts (..., T) pair with the instances
    and give values (..., T).  ``h(ts, rows)`` takes the instances ``rows`` of
    a curve whose instances lie on one axis, kappa_hat and eps given per instance.
    """

    def __init__(self, space: ModelSpace, pi: np.ndarray, mu: np.ndarray, eps=None,
                 kappa_hat=None):
        self.space, self.pi, self.mu = space, pi, mu
        k_hat = space.kappa_hat if kappa_hat is None else kappa_hat
        self.kappa_hat = np.asarray(k_hat, dtype=float)[..., None]
        self.consts = None if eps is None else np.stack(_psi_consts(eps))[..., None]

    @staticmethod
    def _d(consts, sq: np.ndarray, prime: bool = False):
        """(D, D') of the squared distances sq, computed in the buffer of sq: D' is
        psi_eps'(d^2/2) when asked for, else None.  Halving or rooting sq in place
        gives the bits of ``0.5 * sq`` and ``np.sqrt(sq)`` with one array fewer."""
        if consts is None:
            return np.sqrt(sq, out=sq), None
        return _psi(consts, np.multiply(sq, 0.5, out=sq), prime=prime)

    def h(self, ts, rows=None) -> np.ndarray:
        """h at the times ts; the flow is dropped once its distances are taken."""
        pi, mu, k_hat, consts = self.pi, self.mu, self.kappa_hat, self.consts
        if rows is not None:
            pi, mu, k_hat = pi.take(rows, 0), mu.take(rows, 0), k_hat.take(rows, 0)
            consts = None if consts is None else consts.take(rows, 1)
        d = self._d(consts, self.space.sq_dist(self.space.flow_values(mu, ts),
                                               pi[..., None, :]))[0]
        return d * np.exp(k_hat * ts)

    def terms(self, ts) -> tuple:
        """(h, damping exp(kappa_hat t), D', flow values (..., T, size)) at the times ts."""
        vals = self.space.flow_values(self.mu, ts)
        sq = self.space.sq_dist(vals, self.pi[..., None, :])
        d, d_prime = self._d(self.consts, sq, prime=True)
        damping = np.exp(self.kappa_hat * ts)
        return damping * d, damping, d_prime, vals

    def d0(self) -> np.ndarray:
        """D(pi, mu), the objective at t = 0; d^2 comes from ``sq_dist``, not a root."""
        sq = self.space.sq_dist(self.pi, self.mu)[..., None]  # the constants' time axis
        return self._d(self.consts, sq)[0][..., 0]

    def t_cap(self) -> np.ndarray:
        """D(pi, mu) + 1, the search cap of the Tataru minimization."""
        return self.d0() + 1.0


def _zoom(objective, rows: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bracket zoom on all brackets [a[k], b[k]] at once; returns the midpoints.

    Bracket k belongs to instance ``rows[k]``.  Each step evaluates
    ``objective`` once, on a ZOOM_POINTS grid in every bracket of the instances
    still zooming, and shrinks each bracket to the grid neighbours of its
    argmin (a factor (ZOOM_POINTS - 1) / 2 per step).  An instance zooms all its
    brackets until every one of them is at most ZOOM_TOL wide.
    """
    mid = 0.5 * (a + b)
    live = np.arange(a.size)
    for _ in range(ZOOM_STEPS):
        wide = b - a > ZOOM_TOL
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


def _grid_brackets(objective, rows: np.ndarray, t_caps: np.ndarray, bounds: np.ndarray):
    """Coarse GRID_POINTS grid of the instances ``rows``: (instance, rank, time, value,
    a, b) of their three lowest useful local grid minima, boundaries included, ties in
    grid order, with the brackets [a, b] between the grid neighbours.  A minimum is useful
    when its bracket starts within bound + VALUE_TOL; the grid runs to the right
    neighbour of the chunk's last useful point, and no instance reads past its own."""
    ts = np.linspace(0.0, t_caps, GRID_POINTS, axis=1)
    last = np.minimum((ts <= (bounds + VALUE_TOL)[:, None]).sum(axis=1, keepdims=True),
                      GRID_POINTS - 1)
    cols = np.arange(min(last.max() + 2, GRID_POINTS))
    vals = objective(rows, ts[:, :cols.size])
    edge = np.full((rows.size, 1), np.inf)
    padded = np.concatenate((edge, vals, edge), axis=1)
    inst, at = ((vals <= padded[:, :-2]) & (vals <= padded[:, 2:]) & (cols <= last)).nonzero()
    by_value = np.lexsort((vals[inst, at], inst))  # stable: ties stay in grid order
    inst, at = inst[by_value], at[by_value]
    rank = np.arange(inst.size) - inst.searchsorted(inst)
    top = rank < 3
    inst, at, rank = inst[top], at[top], rank[top]
    return (rows[inst], rank, ts[inst, at], vals[inst, at],
            ts[inst, np.maximum(at - 1, 0)], ts[inst, np.minimum(at + 1, GRID_POINTS - 1)])


def _minimize(objective, t_caps: np.ndarray, bounds: np.ndarray,
              chunk: int | None = None) -> list[TataruResult]:
    """Coarse grid plus a batched bracket zoom around each instance's best local minima.

    ``objective(rows, ts)`` maps instance indices (R,) into ``t_caps`` and
    times (R, T) to objective values (R, T).  It is called once on the grid of
    every ``chunk`` instances (all of them for None), keeping only the three
    best useful brackets of each, then once per zoom step for all instances
    and once for the refined values.  The minimizer set of an instance
    collects all its grid and refined minima whose value is within VALUE_TOL
    of its best one.

    ``bounds[i]`` is F(0) of an objective F that dominates t (D(pi, mu) for
    Tataru), or t_caps[i] for the full grid.  A bracket that starts beyond
    bound + VALUE_TOL holds only values above best + VALUE_TOL, as best <= F(0),
    and the next useful one takes its place among the three best: the result is
    the full grid's when the full grid's three best are useful, and else refines
    a superset of its useful brackets, so its value is never larger.
    """
    n = t_caps.size
    chunk = n if chunk is None else chunk
    parts = [_grid_brackets(objective, np.arange(lo, min(lo + chunk, n)),
                            t_caps[lo:lo + chunk], bounds[lo:lo + chunk])
             for lo in range(0, n, chunk)]
    inst, rank, grid_t, grid_v, a, b = (np.concatenate(col) for col in zip(*parts))
    cand_t = np.full((n, 6), np.inf)
    cand_v = np.full((n, 6), np.inf)
    cand_t[inst, rank] = grid_t
    cand_v[inst, rank] = grid_v

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
        results.append(TataruResult(value=value, minimizers=np.array(minimizers), t_cap=t_cap))
    return results


def tataru_batch(space: ModelSpace, pis, mus, kappas: Sequence[float | None] | None = None,
                 eps: float | Sequence[float] | None = None) -> list[TataruResult]:
    """Tataru distances (smoothed by eps unless None) from the rows pis[i] to mus[i].

    ``pis`` and ``mus`` are coordinate rows (N, size), checked by ``ModelSpace.rows``.
    ``kappas[i]`` overrides the space's kappa for instance i (None keeps it).
    ``eps`` is None, one value for all instances or one value per instance.
    The search interval [0, T_cap] with T_cap = d(pi, mu) + 1 (d_eps for the
    smoothed variant) is exhaustive: the objective at t = 0 equals that
    distance and exceeds it for t > T_cap since the objective dominates t;
    that distance is the instance's bound in ``_minimize``.
    The grid runs on chunks of instances and the zoom on blocks of them (see
    BLOCK_ELEMENTS); each result is the same, bit for bit, whatever chunk and
    block it lands in.
    """
    pis, mus = space.rows(pis), space.rows(mus)
    n = len(pis)
    kappas = [None] * n if kappas is None else list(kappas)
    if not (pis.ndim == 2 and pis.shape == mus.shape and len(kappas) == n):
        raise ValueError("pis, mus and kappas must have the same length")
    if eps is not None:
        eps = np.asarray(eps, dtype=float)
        if eps.ndim and eps.shape != (n,):
            raise ValueError("eps must be one value or one per instance")
        eps = np.broadcast_to(eps, n)
    kappa_hats = [min(space.kappa if k is None else k, 0.0) for k in kappas]
    curve = HCurve(space, pis, mus, eps, kappa_hats)
    d0 = curve.d0()
    t_caps = d0 + 1.0
    cap = max(BLOCK_ELEMENTS, GRID_POINTS * space.size)
    chunk = cap // (GRID_POINTS * space.size)
    block = cap // (3 * ZOOM_POINTS * space.size)
    results: list[TataruResult] = []
    for lo in range(0, n, block):
        results += _minimize(lambda rows, ts, lo=lo: ts + curve.h(ts, rows + lo),
                             t_caps[lo:lo + block], d0[lo:lo + block], chunk=chunk)
    return results
