"""Model metric spaces carrying exact EVI gradient flows.

Two finite-dimensional geometries sit behind one interface:

* a Euclidean box with a kappa-convex potential applied coordinatewise, and
* one-dimensional probability measures in quantile coordinates on a uniform
  grid of (0, 1), i.e. a discrete L2(0, 1) that is isometric to Wasserstein-2.

In both, the energy is the potential energy of the coordinates, the steepest
descent ODE is coordinatewise x' = -V'(x), and the evolution variational
inequality with parameter kappa = inf V'' holds exactly, which is what makes
these spaces usable as ground truth for everything built on top.  Every
potential here solves that ODE in closed form; no flow is integrated numerically.

Points are coordinate rows: arrays whose last axis holds the ``size``
coordinates, checked by ``ModelSpace.rows``.  Every metric and energy reduction
lives in ``ModelSpace``: the row kernels ``sq_dist``, ``energies`` and
``sq_slopes`` broadcast over coordinate rows.  Flows are evaluated by
``ModelSpace.flow_values`` alone, on start rows and times its callers checked.
The polynomial potentials evaluate V and V' as Horner products of ``np.square``
and multiplication, never libm ``pow``: those kernels run on every flow sample
that feeds an energy or a slope, and ``pow`` costs several times as much per
element at no better accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

MONOTONE_SLACK = 1e-9


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Potential:
    """Scalar confining potential with explicit derivatives, convexity bound and flow.

    ``kappa`` is a lower bound for V'' on the working box.  ``flow(x0, t)`` is
    the exact solution of x' = -V'(x) from the starts ``x0`` of shape (..., n)
    at the times ``t >= 0`` of shape (..., T), with shape (..., T, n); the
    leading axes pair each start with its own row of times.  The quartic and
    double-well flows write that result into one buffer with in-place ufuncs,
    in the order of operations of their closed forms, so a (2001, 64)
    trajectory allocates one array, not a chain of temporaries; ``v`` does the
    same on the float rows it gets, in one buffer (two for the double well).
    ``v`` and ``dv`` of the quartic and the double well are Horner products
    such as x^2 (x^2/4 + kappa/2) and x (x^2 + kappa), with no libm ``pow``:
    that is about six times faster per element, and each value stays within
    2 eps of the sum of its terms' magnitudes, as the ``pow`` form does.
    """

    form: str
    kappa: float
    v: Callable[[np.ndarray], np.ndarray]
    dv: Callable[[np.ndarray], np.ndarray]
    d2v: Callable[[np.ndarray], np.ndarray]
    flow: Callable[[np.ndarray, np.ndarray], np.ndarray]


def quadratic_potential(kappa: float) -> Potential:
    """V(x) = kappa x^2 / 2; the flow is exactly x exp(-kappa t)."""
    k = float(kappa)

    def v(x):
        out = np.square(x)
        out *= 0.5 * k
        return out

    return Potential(
        form="quadratic",
        kappa=k,
        v=v,
        dv=lambda x: k * np.asarray(x, dtype=float),
        d2v=lambda x: np.full_like(np.asarray(x, dtype=float), k),
        flow=lambda x0, t: np.exp(-k * t)[..., :, None] * x0[..., None, :],
    )


def quartic_potential() -> Potential:
    """V(x) = x^4 / 4, convex with kappa = 0 (tight at 0); flow x0 / sqrt(1 + 2 t x0^2)."""
    return Potential(
        form="quartic",
        kappa=0.0,
        v=_quartic_v,
        dv=lambda x: np.square(x) * x,
        d2v=lambda x: 3.0 * np.square(x),
        flow=_quartic_flow,
    )


def _quartic_v(x):
    """0.25 (x^2)^2 in one buffer."""
    out = np.square(x)
    out *= out
    out *= 0.25
    return out


def _quartic_flow(x0, t):
    """x0 / sqrt(1 + 2 (t x0^2)), written into one (..., T, n) buffer."""
    out = np.multiply(t[..., :, None], np.square(x0)[..., None, :])
    out *= 2.0
    out += 1.0
    np.sqrt(out, out=out)
    return np.divide(x0[..., None, :], out, out=out)


def double_well_potential(kappa: float) -> Potential:
    """V(x) = x^4 / 4 + kappa x^2 / 2 with kappa < 0; V'' >= kappa, tight at 0.

    w = x^-2 solves the linear ODE w' = 2 + 2 kappa w; multiplied through by
    x0^2 this gives x0 / sqrt(e^(2 kappa t) + x0^2 expm1(2 kappa t) / kappa),
    which keeps the sign of x0 and tends to +-sqrt(-kappa).  x0 = 0 stays 0
    until e^(2 kappa t) underflows at t > 372 / |kappa|, where it reads 0/0.
    """
    k = float(kappa)
    if not k < 0:  # also rejects NaN
        raise ValueError("double-well potential requires kappa < 0")

    def v(x):
        sq = np.square(x)
        out = sq * 0.25
        out += 0.5 * k
        out *= sq
        return out

    def flow(x0, t):
        # x0 / sqrt(e^kt + x0^2 expm1(kt) / k) in one (..., T, n) buffer
        kt = 2.0 * k * t[..., :, None]
        x0 = x0[..., None, :]
        out = np.multiply(np.square(x0), np.expm1(kt))
        out /= k
        out += np.exp(kt)
        np.sqrt(out, out=out)
        return np.divide(x0, out, out=out)

    return Potential(
        form="double_well",
        kappa=k,
        v=v,
        dv=lambda x: x * (np.square(x) + k),
        d2v=lambda x: 3.0 * np.square(x) + k,
        flow=flow,
    )


def make_potential(form: str, kappa: float | None = None) -> Potential:
    if form == "quadratic":
        return quadratic_potential(1.0 if kappa is None else kappa)
    if form == "quartic":
        return quartic_potential()
    if form == "double_well":
        return double_well_potential(-0.5 if kappa is None else kappa)
    raise ValueError(f"unknown potential form {form!r}")


def _ordered(rows: np.ndarray) -> np.ndarray:
    """Quantile rows (..., n), checked nondecreasing along the last axis."""
    gaps = np.diff(rows, axis=-1)
    if gaps.size and gaps.min() < -MONOTONE_SLACK:
        raise ValueError("quantiles must be nondecreasing")
    if gaps.size and gaps.min() < 0:
        # repair float-level order noise; anything larger raised above
        rows = np.maximum.accumulate(rows, axis=-1)
    return rows


# ---------------------------------------------------------------------------
# model space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpace:
    """Bundle of metric, energy, slope and gradient flow.

    ``kind`` is ``"euclidean"`` or ``"quantile"``; ``size`` is the coordinate
    dimension resp. the quantile grid size N.  Immutable and safe to share.
    """

    kind: str
    size: int
    potential: Potential
    box: float = 5.0
    sample_radius: float = 2.0

    def __post_init__(self):
        if self.kind not in ("euclidean", "quantile"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("size must be >= 1")

    # -- basic structure ----------------------------------------------------

    @property
    def kappa(self) -> float:
        return self.potential.kappa

    @property
    def kappa_hat(self) -> float:
        return min(self.potential.kappa, 0.0)

    @property
    def weight(self) -> float:
        """Coordinate weight of the metric: 1 (euclidean) or 1/N (quantile)."""
        return 1.0 if self.kind == "euclidean" else 1.0 / self.size

    def rows(self, vals) -> np.ndarray:
        """Coordinate rows (..., size), checked: the size, finite values and, for
        quantiles, the order (float noise repaired)."""
        arr = np.asarray(vals, dtype=float)
        if arr.ndim == 0 or arr.shape[-1] != self.size:
            raise ValueError("incompatible points")
        if not np.all(np.isfinite(arr)):
            raise ValueError("point coordinates must be finite")
        return _ordered(arr) if self.kind == "quantile" else arr

    def _row(self, vals) -> np.ndarray:
        """One coordinate row (size,), checked as ``rows`` checks it; a copy, so
        the pair that holds it does not see the caller's later writes."""
        arr = self.rows(vals)
        if arr.ndim != 1:
            raise ValueError("incompatible points")
        return arr.copy()

    # -- row kernels: metric, energy and slope --------------------------------
    # The last axis holds the coordinates and leading axes broadcast; no row
    # checks.  vecdot gives each row the same bits as a one-row call.

    @staticmethod
    def _sq_norms(v: np.ndarray) -> np.ndarray:
        """v . v over the last axis.  One coordinate gives np.square(v): a
        one-term vecdot is 0 + v^2, the same bits, at several times the cost."""
        return np.square(v[..., 0]) if v.shape[-1] == 1 else np.vecdot(v, v)

    def sq_dist(self, a: np.ndarray, b: np.ndarray, overwrite_a: bool = False) -> np.ndarray:
        """d^2 between the coordinate rows a and b; overwrite_a takes a - b in a where it fits."""
        out = a if overwrite_a and np.broadcast(a, b).shape == a.shape else None
        return self.weight * self._sq_norms(np.subtract(a, b, out=out))

    def energies(self, vals: np.ndarray) -> np.ndarray:
        """Energies E of the coordinate rows vals."""
        return self.weight * np.sum(self.potential.v(vals), axis=-1)

    def sq_slopes(self, vals: np.ndarray) -> np.ndarray:
        """Squared slopes |dE|^2 of the coordinate rows vals."""
        return self.weight * self._sq_norms(self.potential.dv(vals))

    # -- gradient flow --------------------------------------------------------

    def flow_values(self, starts: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Flow from the start values (..., n) at the times (..., T) >= 0; (..., T, n).

        No row checks: callers pass validated coordinates.  In quantile
        coordinates a guard keeps each flowed vector nondecreasing despite
        rounding: it checks the order first and runs ``np.maximum.accumulate``
        on the last axis, in place, only when some neighbour pair is out of
        order (or NaN).  On ordered rows the accumulation returns every element
        unchanged, so both ways give the same bits.
        """
        out = self.potential.flow(starts, times)
        if self.kind == "quantile" and not np.all(out[..., 1:] >= out[..., :-1]):
            np.maximum.accumulate(out, axis=-1, out=out)
        return out

    # -- sampling --------------------------------------------------------------

    def sample(self, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
        """Uniform draws in [-r, r]^size with r = min(sample_radius, box), sorted for
        quantiles: checked rows (*shape, size).  ``rng.uniform`` fills the array in
        order, so the rows equal as many one-row draws made one after another."""
        r = min(self.sample_radius, self.box)
        vals = rng.uniform(-r, r, size=(*shape, self.size))
        return np.sort(vals) if self.kind == "quantile" else vals


def euclidean_space(potential: Potential, dim: int = 1, **kw) -> ModelSpace:
    return ModelSpace(kind="euclidean", size=dim, potential=potential, **kw)


def quantile_space(potential: Potential, grid_size: int = 64, **kw) -> ModelSpace:
    return ModelSpace(kind="quantile", size=grid_size, potential=potential, **kw)
