"""Semi-Lagrangian resolvent solver and viscosity sub/supersolution checks.

The resolvent equation u - lam H u = h for the controlled steepest-descent
dynamics x' = -V'(x) + control is discretized on a uniform one-dimensional
grid as the fixed point u = T u of the Bellman operator

    (T u)(x) = max_{|c| <= U} dt (h(x)/lam - c^2/2) + beta u(x + dt (-V'(x) + c)),

with beta = 1 - dt/lam, linear interpolation and constant extension outside
the box.  This is a discounted Markov decision problem whose transition
matrix has two nonzeros per row, and it is solved exactly by Howard's policy
iteration: fix a control per grid point, solve the linear system
(I - beta P) u = r for that policy, improve the policy greedily, and stop when
no grid point gains.  The iterates increase monotonically, which is asserted.
The scheme's geometry (grid, controls, foot cells and interpolation weights)
depends on the potential, the box, dt, dx and the control set but not on h or
lam, so ``_scheme`` computes it once per scheme and every solve on that scheme
shares its read-only arrays.  Row i of I - beta P is nonzero only in columns i,
idx and idx + 1; a policy step solves it by LAPACK's banded LU (dgbsv) when those
columns stay within ``_MAX_BAND`` of the diagonal, and by sparse LU otherwise.
The answer carries a checked certificate: since T is a beta-contraction,
||u - u*|| <= ||T u - u|| / (1 - beta), and the solve raises unless that bound
is within ``tol``.

``check_viscosity`` then tests the defining inequality of a sub- resp.
supersolution at the near-maximizers resp. near-minimizers of u - f for a
dagger resp. ddagger Hamiltonian pair (f, g), with one f call on the whole
grid and one g call on the near-optimizers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgbsv
from scipy.sparse.linalg import spsolve

from .hamiltonians import HamiltonianPair, side_sign
from .spaces import ModelSpace


@dataclass(frozen=True)
class GridFunction:
    """Values on a uniform grid with clamped linear interpolation."""

    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        # read-only copies: freezing the caller's arrays would make them read-only too
        xs = np.array(self.xs, dtype=float)
        values = np.array(self.values, dtype=float)
        if xs.shape != values.shape or xs.ndim != 1:
            raise ValueError("grid and values must be matching 1-d arrays")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        xs.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)

    def __call__(self, x):
        return np.interp(x, self.xs, self.values)


@dataclass(frozen=True)
class ResolventSolution:
    """Solver output.

    ``iterations`` counts policy steps and ``bellman_residual`` is ||T u - u|| at
    the returned u.
    """

    u: GridFunction
    iterations: int
    contraction_factor: float
    dt: float
    dx: float
    fixed_point_tol: float
    bellman_residual: float

    @property
    def error_bound(self) -> float:
        """Certified sup-norm distance to the exact fixed point."""
        return self.bellman_residual / (1.0 - self.contraction_factor)


# minimum gain for a policy change; ties below it keep the current control
_POLICY_GAIN = 1e-13
# widest band kl + ku solved by banded LU; wider bands go to sparse LU.  Banded
# work grows as n kl (kl + ku) and sparse LU's as n, so the crossover does not
# move with n: on policies of the quadratic, quartic and double-well schemes with
# n = 201 to 4001, banded LU took 0.2 to 0.7 of sparse LU's time up to
# kl + ku = 102 and 0.8 to 2.5 times it from 122 to 244
_MAX_BAND = 64
_MAX_POLICY_STEPS = 200000
_GAP_TOL = 1e-6


def make_grid(box: float = 5.0, dx: float = 1.0 / 200.0) -> np.ndarray:
    n = int(round(2.0 * box / dx))
    return np.linspace(-box, box, n + 1)


# one scheme at a time: every caller finishes the solves of one scheme before the
# next, and a scheme at the default dx holds about 6 MB (2001 x 129 cells, 24 B each)
@lru_cache(maxsize=1)
def _scheme(potential, box: float, dt: float, dx: float, control_bound: float,
            n_controls: int) -> tuple[np.ndarray, ...]:
    """The read-only geometry (xs, controls, idx, w0, w1) shared by a scheme's solves:
    the foot of grid point i under control j lies in cell idx[i, j], with weights
    w0[i, j] and w1[i, j] on its two ends."""
    xs = make_grid(box, dx)
    controls = np.linspace(-control_bound, control_bound, n_controls)
    drift = -potential.dv(xs)
    targets = np.clip(xs[:, None] + dt * (drift[:, None] + controls[None, :]),
                      xs[0], xs[-1])
    idx = np.clip(np.searchsorted(xs, targets) - 1, 0, xs.size - 2)
    w1 = (targets - xs[idx]) / (xs[idx + 1] - xs[idx])
    w0 = 1.0 - w1
    scheme = (xs, controls, idx, w0, w1)
    for arr in scheme:
        arr.setflags(write=False)
    return scheme


def solve_resolvent(space: ModelSpace, lam: float, h, control_bound: float = 2.0,
                    dt: float | None = None, dx: float = 1.0 / 200.0,
                    n_controls: int = 129, tol: float = 1e-10) -> ResolventSolution:
    """Solve the discounted control problem of the module docstring.

    Runs policy iteration, at most ``_MAX_POLICY_STEPS`` policy steps, and raises
    ``RuntimeError`` unless the Bellman-residual certificate
    ||T u - u|| / (1 - beta) <= tol holds, so ``tol`` bounds the error against
    the exact fixed point.

    Parameters
    ----------
    space : euclidean, one-dimensional model space (raises otherwise)
    lam : discount scale; the contraction factor is beta = 1 - dt/lam
    h : callable or GridFunction, clamped to the box by constant extension;
        it is called once, on the read-only grid of the shared scheme
    control_bound : controls range over [-U, U] with 129 candidates by default
    dt : semi-Lagrangian step, defaults to lam/50; must satisfy 0 < dt < lam
    dx : grid step, positive and at most ``space.box``
    """
    if space.kind != "euclidean" or space.size != 1:
        raise ValueError("resolvent solver requires the one-dimensional euclidean space")
    for name, value in (("lam", lam), ("tol", tol), ("control_bound", control_bound)):
        if not 0 < value < np.inf:  # also rejects NaN
            raise ValueError(f"{name} must be finite and positive")
    dt = lam / 50.0 if dt is None else dt
    if not 0 < dt < lam:
        raise ValueError("dt must satisfy 0 < dt < lam (time step too large or not positive)")
    if not 0 < dx <= space.box:
        raise ValueError(f"dx must be positive and at most space.box = {space.box}")
    xs, controls, idx, w0, w1 = _scheme(space.potential, space.box, dt, dx,
                                        control_bound, n_controls)
    hv = np.asarray(h(xs), dtype=float)
    if not np.all(np.isfinite(hv)):
        raise ValueError("h must be finite on the grid")
    reward = dt * (hv[:, None] / lam - 0.5 * controls[None, :] ** 2)
    beta = 1.0 - dt / lam

    def q_values(u):  # u[1:][idx] is u[idx + 1] without the (n, K) index temporary
        return reward + beta * (w0 * u[idx] + w1 * u[1:][idx])

    sup_h = float(np.max(np.abs(hv)))
    u, iterations, q = _policy_iteration(q_values, hv, idx, w0, w1, reward, beta, sup_h)
    residual = float(np.max(np.abs(np.max(q, axis=1) - u)))
    if residual / (1.0 - beta) > tol:
        raise RuntimeError(
            f"policy iteration certificate failed: Bellman residual {residual:.3e} "
            f"/ (1 - beta) = {residual / (1.0 - beta):.3e} > tol {tol:.3e}"
        )
    if float(np.max(np.abs(u))) > sup_h + 1e-6:
        raise RuntimeError("discounted-reward bound |u| <= sup|h| violated")
    return ResolventSolution(u=GridFunction(xs, u), iterations=iterations,
                             contraction_factor=beta, dt=dt, dx=dx,
                             fixed_point_tol=tol, bellman_residual=residual)


def _policy_solve(idx, w0, w1, beta, r):
    """Solve (I - beta P) u = r, P with weights w0, w1 on columns idx, idx + 1.

    Banded LU when the band kl + ku is at most ``_MAX_BAND``, else sparse LU of
    ``_policy_matrix``.  Entry (i, j) sits in row kl + ku + i - j of dgbsv's band
    storage; each subtraction hits distinct positions, so a diagonal foot gives
    1 - beta w.
    """
    offset = np.arange(idx.size) - idx  # i - idx[i]
    kl, ku = max(0, int(offset.max())), max(0, 1 - int(offset.min()))
    if kl + ku > _MAX_BAND:
        return spsolve(_policy_matrix(idx, w0, w1, beta), r)
    ab = np.zeros((2 * kl + ku + 1, idx.size), order="F")
    ab[kl + ku] = 1.0
    ab[kl + ku + offset, idx] -= beta * w0
    ab[kl + ku - 1 + offset, idx + 1] -= beta * w1
    _, _, u, info = dgbsv(kl, ku, ab, r, overwrite_ab=True)
    if info != 0:
        raise RuntimeError(f"banded LU of I - beta P failed (dgbsv info {info})")
    return u


def _policy_matrix(idx, w0, w1, beta):
    """I - beta P for the transition P with weights w0, w1 on columns idx, idx + 1.

    One CSR matrix with the pattern and entries of scipy's
    ``identity - beta * P``: each row holds its diagonal 1 and -beta w0,
    -beta w1 in column order, a diagonal on idx or idx + 1 becomes 1 - beta w
    there, and zero entries are dropped.
    """
    n = idx.size
    rows = np.arange(n)
    cols = np.stack((rows, idx, idx + 1, rows), axis=1)
    vals = np.stack((rows < idx, (rows == idx) - beta * w0,
                     (rows == idx + 1) - beta * w1, rows > idx + 1), axis=1)
    keep = vals != 0
    indptr = np.zeros(n + 1, dtype=np.intc)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return sparse.csr_matrix((vals[keep], cols[keep].astype(np.intc), indptr),
                             shape=(n, n))


def _policy_iteration(q_values, u, idx, w0, w1, reward, beta, sup_h):
    """Howard's algorithm, starting from the greedy policy for u = h.

    Each policy step solves (I - beta P) u = r for the current policy
    (``_policy_solve``).  A policy changes only where the gain is strictly above
    ``_POLICY_GAIN``, so ties cannot make it cycle.  Returns the value of the
    final policy, the number of policy steps and the Q-values at the final u;
    raises after ``_MAX_POLICY_STEPS`` steps.
    """
    rows = np.arange(u.size)
    # the linear solve has condition number at most (1 + beta) / (1 - beta)
    roundoff = 1e-13 * (1.0 + sup_h) / (1.0 - beta)
    q = q_values(u)
    policy = np.argmax(q, axis=1)
    for iterations in range(1, _MAX_POLICY_STEPS + 1):
        u_new = _policy_solve(idx[rows, policy], w0[rows, policy], w1[rows, policy],
                              beta, reward[rows, policy])
        if iterations > 1 and float(np.max(u - u_new)) > roundoff:
            raise RuntimeError(
                f"policy iteration lost monotonicity at step {iterations}: "
                f"value dropped by {float(np.max(u - u_new)):.3e}"
            )
        u = u_new
        q = q_values(u)
        best = np.argmax(q, axis=1)
        improve = q[rows, best] > q[rows, policy] + _POLICY_GAIN
        if not np.any(improve):
            return u, iterations, q
        policy = np.where(improve, best, policy)
    raise RuntimeError(f"policy iteration did not converge in {_MAX_POLICY_STEPS} steps")


# ---------------------------------------------------------------------------
# viscosity checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ViscosityReport:
    side: str
    optimizers: np.ndarray
    slack: float
    tol: float
    passed: bool
    soft_passed: bool


def check_viscosity(u: GridFunction, pair: HamiltonianPair, h, lam: float,
                    tol: float) -> ViscosityReport:
    """Test sigma (u - lam g - h) <= tol at some near-maximizer of sigma (u - f).

    sigma = side_sign(pair.side): a dagger pair tests the subsolution
    inequality u - lam g - h <= tol at the near-maximizers of u - f, a ddagger
    pair the supersolution inequality u - lam g - h >= -tol at the
    near-minimizers.  Near-optimizers are grid points within ``_GAP_TOL`` of the
    optimum; the verdict is a pass when the inequality holds at one of them,
    which is the finite form of the sequence-based definition.  ``slack`` is
    u - lam g - h at the best of them.
    """
    sigma = side_sign(pair.side)
    xs = u.xs
    s = sigma * (u.values - pair.f(xs[:, None]))
    cand = np.flatnonzero(s >= float(np.max(s)) - _GAP_TOL)
    hv = np.asarray(h(xs), dtype=float)
    slacks = u.values[cand] - lam * pair.g(xs[cand, None]) - hv[cand]
    slack = float(slacks[np.argmin(sigma * slacks)])
    return ViscosityReport(side=pair.side, optimizers=xs[cand], slack=slack, tol=tol,
                           passed=sigma * slack <= tol, soft_passed=sigma * slack <= 2 * tol)


@dataclass(frozen=True)
class ComparisonResult:
    lhs: float
    rhs: float
    slack: float
    passed: bool


def comparison_gap(u: GridFunction, v: GridFunction, h_dag, h_ddag,
                   solver_tol: float, dx: float) -> ComparisonResult:
    """sup(u - v) against sup(h_dag - h_ddag) with the discretization slack.

    ``solver_tol`` is the certified bound on each solve's distance to its
    exact fixed point (``ResolventSolution.fixed_point_tol``).
    """
    if not np.array_equal(u.xs, v.xs):
        raise ValueError("grid mismatch")
    hd = np.asarray(h_dag(u.xs), dtype=float)
    hdd = np.asarray(h_ddag(u.xs), dtype=float)
    lhs = float(np.max(u.values - v.values))
    rhs = float(np.max(hd - hdd))
    slack = 2.0 * (solver_tol + 5.0 * dx)
    return ComparisonResult(lhs=lhs, rhs=rhs, slack=slack,
                            passed=lhs <= rhs + slack)
