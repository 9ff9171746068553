"""Exponential measures, Laplace integrals and tilted-measure diagnostics.

Everything is accumulated in log space: the quantities of interest are the
normalized exponents -(1/m) log Lambda, and raw Lambda values underflow double
precision already for moderate m.  pi and mu are coordinate rows, checked by
``ModelSpace.rows``; the exponent h(t) comes from ``tataru.HCurve``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spaces import ModelSpace
from .tataru import HCurve, logsumexp, tataru_batch

_GL15 = np.polynomial.legendre.leggauss(15)
_GL7 = np.polynomial.legendre.leggauss(7)
_QUAD_REL_TOL = 1e-10
_SEED_PANELS = 64
_MAX_PANELS = 4096


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite measure with nonnegative weights summing to one, sorted atoms."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.shape != weights.shape or atoms.ndim != 1:
            raise ValueError("atoms and weights must be matching 1-d arrays")
        if np.any(weights < 0) or np.any(atoms < 0):
            raise ValueError("atoms and weights must be nonnegative")
        if np.any(np.diff(atoms) < 0):
            raise ValueError("atoms must be sorted")
        total = weights.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to one (got {total!r})")
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    def mass_within(self, center: float, radius: float) -> float:
        sel = np.abs(self.atoms - center) <= radius
        return float(self.weights[sel].sum())

    def expectation(self, values) -> float:
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


@functools.lru_cache(maxsize=256)
def discrete_exp_log_weights(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Atoms i/n, i = 1..n^2, and log weights of the normalized geometric law.

    Cached, since the ladder asks for the same (m, n) twice per sample; the
    arrays are read-only because every caller shares them."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    atoms = np.arange(1, n * n + 1, dtype=float) / n
    log_raw = -m * atoms
    log_w = log_raw - logsumexp(log_raw)
    atoms.setflags(write=False)
    log_w.setflags(write=False)
    return atoms, log_w


@dataclass(frozen=True)
class LaplaceValue:
    """Log-space value of a Laplace integral plus per-node contributions."""

    m: int
    log_value: float
    nodes: np.ndarray
    log_contrib: np.ndarray
    tail_log_bound: float = -np.inf
    panels: int = 0

    @property
    def neg_log(self) -> float:
        return -self.log_value / self.m

    def tilted_weights(self) -> np.ndarray:
        return np.exp(self.log_contrib - self.log_value)


def lambda_discrete(space: ModelSpace, eps: float, m: int, n: int, pi, mu) -> LaplaceValue:
    """Riemann-sum Laplace integral of exp(-m h) against the discrete
    exponential measure of rate m + 1."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    atoms, log_w = discrete_exp_log_weights(m + 1, n)
    log_contrib = log_w - m * HCurve(space, space.rows(pi), space._row(mu), eps).h(atoms)
    log_value = float(logsumexp(log_contrib))
    return LaplaceValue(m=m, log_value=log_value, nodes=atoms,
                        log_contrib=log_contrib)


def _panels(log_f, a: np.ndarray, b: np.ndarray):
    """Gauss-Kronrod-style panels on the intervals [a[k], b[k]], all nodes in
    one log_f call: per panel the 15-point log integral, the log of its gap to
    the 7-point rule, and the 15 nodes with their log contributions."""
    half = 0.5 * (b - a)[:, None]
    mid = 0.5 * (a + b)[:, None]
    ts = mid + half * _GL15[0]
    ts7 = mid + half * _GL7[0]
    log_vals = log_f(np.concatenate((ts.ravel(), ts7.ravel())))
    log_contrib = log_vals[:ts.size].reshape(ts.shape) + np.log(_GL15[1] * half)
    log_i15 = logsumexp(log_contrib, axis=1)
    log_i7 = logsumexp(log_vals[ts.size:].reshape(ts7.shape) + np.log(_GL7[1] * half), axis=1)
    top = np.maximum(log_i15, log_i7)
    with np.errstate(invalid="ignore", divide="ignore"):
        gap = np.abs(np.exp(log_i15 - top) - np.exp(log_i7 - top))
        log_err = np.where(np.isfinite(top) & (gap > 0), top + np.log(gap), -np.inf)
    return log_i15, log_err, ts, log_contrib


def _adaptive_log_quadrature(log_f, a: float, b: float):
    """log of int_a^b exp(log_f) dt by adaptive Gauss panels, fully in log space.

    The ``_SEED_PANELS`` seed panels are evaluated in one batch, then the panel
    with the largest error estimate is split until the summed estimate meets the
    relative tolerance ``_QUAD_REL_TOL``; both halves of a split are evaluated in
    one batch.  Raises ``RuntimeError`` at ``_MAX_PANELS`` panels.
    """
    edges = np.linspace(a, b, _SEED_PANELS + 1)
    # parallel arrays in split order: lo, hi, log integral, log error, nodes, contributions
    panels = (edges[:-1], edges[1:], *_panels(log_f, edges[:-1], edges[1:]))
    while True:
        lo, hi, logs, errs, nodes, contribs = panels
        log_total = float(logsumexp(logs))
        log_err_total = float(logsumexp(errs)) if np.any(np.isfinite(errs)) else -np.inf
        if log_err_total <= log_total + math.log(_QUAD_REL_TOL):
            break
        if lo.size >= _MAX_PANELS:
            achieved = math.exp(min(log_err_total - log_total, 700.0))
            raise RuntimeError(
                f"quadrature did not converge: achieved relative tolerance {achieved:.3e}"
            )
        # split the panel with the largest error estimate, the oldest of equal ones
        k = int(np.argmax(errs))
        mid = 0.5 * (lo[k] + hi[k])
        halves = (np.array([lo[k], mid]), np.array([mid, hi[k]]))
        panels = tuple(np.concatenate((np.delete(old, k, axis=0), new))
                       for old, new in zip(panels, (*halves, *_panels(log_f, *halves))))
    order = np.argsort(nodes.ravel(), kind="stable")
    return log_total, nodes.ravel()[order], contribs.ravel()[order], lo.size


def lambda_continuous(space: ModelSpace, eps: float, m: int, pi, mu) -> LaplaceValue:
    """Laplace integral of exp(-m h) against the exponential law of rate m + 1.

    Quadrature runs on [0, T] with T = T_cap + 5/(m+1), to the relative
    tolerance ``_QUAD_REL_TOL``.  The tail beyond T is appended as the
    frozen-exponent estimate exp(-(m+1)T - m h(T)), exact for
    constant exponents and exponentially accurate otherwise since the flow has
    settled by T; the analytic bracket exp(-(m+1)T) (valid since h >= 0) is
    recorded alongside, so the truncation is never silently ignored.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    hcurve = HCurve(space, space.rows(pi), space._row(mu), eps)
    t_quad = float(hcurve.t_cap()) + 5.0 / (m + 1)
    log_rate = math.log(m + 1.0)

    def log_f(ts):
        return log_rate - (m + 1.0) * ts - m * hcurve.h(ts)

    log_quad, nodes, log_contrib, n_panels = _adaptive_log_quadrature(log_f, 0.0, t_quad)
    log_tail = float(-(m + 1.0) * t_quad - m * hcurve.h(np.array([t_quad]))[0])
    log_value = float(np.logaddexp(log_quad, log_tail))
    nodes = np.append(nodes, t_quad)
    log_contrib = np.append(log_contrib, log_tail)
    return LaplaceValue(m=m, log_value=log_value, nodes=nodes,
                        log_contrib=log_contrib,
                        tail_log_bound=-(m + 1.0) * t_quad, panels=n_panels)


def varadhan_error_curve(space: ModelSpace, eps: float, pi, mu,
                         m_list) -> tuple[float, list[tuple[int, float, float]]]:
    """The target d_{T,eps}(pi, mu) and, for each m, the row (m, -(1/m) log Lambda_{eps,m},
    |-(1/m) log Lambda_{eps,m} - d_{T,eps}|), whose last entry is the Laplace-limit gap."""
    m_list = list(m_list)
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise ValueError("m_list must be increasing")
    target = tataru_batch(space, [pi], [mu], eps=eps)[0].value
    out = []
    for m in m_list:
        neg_log = lambda_continuous(space, eps, int(m), pi, mu).neg_log
        out.append((int(m), neg_log, abs(neg_log - target)))
    return target, out


def tilted_measure(space: ModelSpace, eps: float, m: int, pi, mu) -> DiscreteMeasure:
    """Probability measure with density proportional to exp(-m h) against the
    rate-(m+1) exponential law, on the quadrature grid; concentrates on the
    minimizers of t + h(t) as m grows."""
    val = lambda_continuous(space, eps, m, pi, mu)
    weights = val.tilted_weights()
    weights = weights / weights.sum()
    return DiscreteMeasure(atoms=val.nodes, weights=weights)
