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
instances at once, pi and mu given as coordinate rows: a coarse grid keeps the three
best useful brackets of every instance, a zoom refines them.  As F(t) = t + h(t) >= t
and F(0) = D(pi, mu), a bracket is useful only if it starts within D + VALUE_TOL, and
each grid stops at the right neighbour of its last point there.  Objective calls are
sized by the work they hold (see BLOCK_ELEMENTS).  It is the one entry point: a single
distance is a batch of one, and every instance gets the same numbers alone or in a batch.
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
# bounds the memory of one objective call: its one flow array (HCurve.h takes the differences
# to pi in it) holds at most max(BLOCK_ELEMENTS, GRID_POINTS * size) elements: a full grid fits
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
        """h at the times ts; the flow takes its differences to pi and is dropped after."""
        pi, mu, k_hat, consts = self.pi, self.mu, self.kappa_hat, self.consts
        if rows is not None:
            pi, mu, k_hat = pi.take(rows, 0), mu.take(rows, 0), k_hat.take(rows, 0)
            consts = None if consts is None else consts.take(rows, 1)
        d = self._d(consts, self.space.sq_dist(self.space.flow_values(mu, ts),
                                               pi[..., None, :], overwrite_a=True))[0]
        damping = k_hat * ts if k_hat.any() else None  # exp(0 t) = 1: h is D, bit for bit
        return d if damping is None else d * np.exp(damping, out=damping)

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


def _runs(rows: np.ndarray, per_run: int):
    """(lo, hi) of the objective calls over the brackets of the sorted instance indices
    ``rows``: consecutive runs of whole instances, each as long as per_run allows."""
    lo = 0
    while lo < rows.size:
        hi = lo + per_run
        hi = int(rows.searchsorted(rows[hi])) if hi < rows.size else rows.size
        yield lo, hi
        lo = hi


def _zoom(objective, rows: np.ndarray, a: np.ndarray, b: np.ndarray, per_run: int):
    """Bracket zoom on all brackets [a[k], b[k]] at once; returns the midpoints.

    Bracket k belongs to instance ``rows[k]`` (sorted).  Each step evaluates
    ``objective`` on a ZOOM_POINTS grid in every bracket of the instances still
    zooming, in calls of at most per_run brackets (``_runs``), and shrinks each bracket
    to the grid neighbours of its argmin (a factor (ZOOM_POINTS - 1) / 2 per step).
    An instance zooms all its brackets until every one of them is at most ZOOM_TOL wide.
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
        for lo, hi in _runs(rows, per_run):
            ts = a[lo:hi, None] + (b[lo:hi] - a[lo:hi])[:, None] * _ZOOM_UNIT
            j = objective(rows[lo:hi], ts).argmin(axis=1)
            k = np.arange(j.size)
            a[lo:hi] = ts[k, np.maximum(j - 1, 0)]
            b[lo:hi] = ts[k, np.minimum(j + 1, ZOOM_POINTS - 1)]
    mid[live] = 0.5 * (a + b)
    return mid


def _grid_last(t_caps: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """min((np.linspace(0, t_cap, GRID_POINTS) <= bound + VALUE_TOL).sum(), GRID_POINTS - 1)
    without the grid: its times are j * step, and floor(bound / step) is j's within one."""
    step, bound = t_caps / (GRID_POINTS - 1), bounds + VALUE_TOL
    j = np.minimum(np.floor(bound / step), GRID_POINTS - 2)
    j -= j * step > bound
    j += (j < GRID_POINTS - 2) & ((j + 1.0) * step <= bound)
    return (j + 1.0).astype(np.intp)


def _grid_brackets(objective, rows: np.ndarray, t_caps: np.ndarray, last: np.ndarray):
    """Coarse GRID_POINTS grid of the instances ``rows``: (instance, rank, time, value,
    a, b) of their three lowest useful local grid minima, boundaries included, ties in
    grid order, with the brackets [a, b] between the grid neighbours.  A minimum is useful
    up to the column ``last`` of ``_grid_last``; the grid, np.linspace's times, runs to
    the right neighbour of the call's last useful point; no instance reads past its own."""
    cols = np.arange(min(last.max() + 2, GRID_POINTS))
    ts = cols * (t_caps / (GRID_POINTS - 1))[:, None]
    ts[:, GRID_POINTS - 1:] = t_caps[:, None]  # np.linspace's last time, if the call has it
    vals = objective(rows, ts)
    edge = np.full((rows.size, 1), np.inf)
    padded = np.concatenate((edge, vals, edge), axis=1)
    inst, at = ((vals <= padded[:, :-2]) & (vals <= padded[:, 2:]) & (cols <= last)).nonzero()
    by_value = np.lexsort((vals[inst, at], inst))  # stable: ties stay in grid order
    inst, at = inst[by_value], at[by_value]
    rank = np.arange(inst.size) - inst.searchsorted(inst)
    top = rank < 3
    inst, at, rank = inst[top], at[top], rank[top]
    return (rows[inst], rank, ts[inst, at], vals[inst, at],
            ts[inst, np.maximum(at - 1, 0)], ts[inst, np.minimum(at + 1, cols.size - 1)])


def _minimize(objective, t_caps: np.ndarray, bounds: np.ndarray, size: int) -> list[TataruResult]:
    """Coarse grid plus a batched bracket zoom around each instance's best local minima.

    ``objective(rows, ts)`` maps instance indices (R,) into ``t_caps`` and times
    (R, T) to objective values (R, T), in calls of at most max(BLOCK_ELEMENTS,
    GRID_POINTS * size) flow elements, size per time: on the grids of consecutive
    instances, keeping the three best useful brackets of each, then on whole
    instances' brackets per zoom step and for the refined values.  The minimizer set
    of an instance collects its grid and refined minima within VALUE_TOL of its best.

    ``bounds[i]`` is F(0) of an objective F that dominates t (D(pi, mu) for
    Tataru), or t_caps[i] for the full grid.  A bracket that starts beyond
    bound + VALUE_TOL holds only values above best + VALUE_TOL, as best <= F(0),
    and the next useful one takes its place among the three best: the result is
    the full grid's when the full grid's three best are useful, and else refines
    a superset of its useful brackets, so its value is never larger.
    """
    n = t_caps.size
    per_call, last = max(BLOCK_ELEMENTS // size, GRID_POINTS), _grid_last(t_caps, bounds)
    cols, parts, lo = np.minimum(last + 2, GRID_POINTS), [], 0
    while lo < n:  # the longest run of grids, padded to the widest, within per_call
        w = np.maximum.accumulate(cols[lo:lo + per_call // 2])
        hi = lo + int((w * np.arange(1, w.size + 1)).searchsorted(per_call, side="right"))
        rows = np.arange(lo, hi)
        parts.append(_grid_brackets(objective, rows, t_caps[lo:hi], last[rows, None]))
        lo = hi
    inst, rank, grid_t, grid_v, a, b = (np.concatenate(col) for col in zip(*parts))
    cand_t = np.full((n, 6), np.inf)
    cand_v = np.full((n, 6), np.inf)
    cand_t[inst, rank] = grid_t
    cand_v[inst, rank] = grid_v

    keep = b > a
    inst, rank = inst[keep], rank[keep]
    t_star = _zoom(objective, inst, a[keep], b[keep], per_call // ZOOM_POINTS)
    cand_t[inst, 3 + rank] = t_star
    for lo, hi in _runs(inst, per_call):
        cand_v[inst[lo:hi], 3 + rank[lo:hi]] = objective(inst[lo:hi], t_star[lo:hi, None])[:, 0]

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
    ``kappas[i]`` overrides the space's kappa for instance i (None keeps it); it must
    be finite.  ``eps`` is None, one value for all instances or one value per instance.
    The search interval [0, T_cap] with T_cap = d(pi, mu) + 1 (d_eps for the
    smoothed variant) is exhaustive: the objective at t = 0 equals that
    distance and exceeds it for t > T_cap since the objective dominates t;
    that distance is the instance's bound in ``_minimize``.  Each result is the
    same, bit for bit, whatever objective call its instance shares.
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
    kappas = np.array([space.kappa if k is None else k for k in kappas], dtype=float)
    if not np.isfinite(kappas).all():
        raise ValueError("kappas must be finite")
    curve = HCurve(space, pis, mus, eps, np.minimum(kappas, 0.0))
    d0 = curve.d0()
    if not np.isfinite(d0).all():
        raise ValueError("D(pi, mu) must be finite")
    return _minimize(lambda r, ts: ts + curve.h(ts, r), d0 + 1.0, d0, space.size) if n else []
