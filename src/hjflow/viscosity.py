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
A greedy step needs the best of the K grid controls at every grid point.  The
controls whose feet share a cell, or are clipped at the box, form a run, and on
a run Q is a concave quadratic in c with curvature -dt, largest at c* = beta
(u_{k+1} - u_k) / (x_{k+1} - x_k), or at c* = 0 if clipped.  So only the two
grid controls around c* can win: any other loses by at least dt dc^2 / 2 for the
control step dc (6e-10 at 8193 controls and dt = 1/200), far above rounding.
Sweeps evaluate these candidates in ascending column order, keeping np.argmax's
lowest-column ties, so policies and values equal those of a full (n, K) sweep
bit for bit.  The scheme's geometry (grid, controls, feet and runs) depends on
the potential, the box, dt, dx and the control set but not on h or lam, so
``_scheme`` computes it once per scheme and every solve on that scheme shares
its read-only arrays.  Row i of I - beta P is nonzero only in columns i, idx and idx + 1;
a policy step solves it by LAPACK's banded LU (dgbsv, from the OpenBLAS that numpy's wheel
bundles, else scipy's) when those columns stay within ``_MAX_BAND`` of the diagonal, and
otherwise by sparse LU, whose scipy.sparse is imported on the first such band.
The answer carries a checked certificate: since T is a beta-contraction,
||u - u*|| <= ||T u - u|| / (1 - beta), and the solve raises unless that bound
is within ``tol``.

``check_viscosity`` then measures the defining inequality of a sub- resp.
supersolution at the near-maximizers resp. near-minimizers of u - f for a
dagger resp. ddagger Hamiltonian pair (f, g), with one f call on the whole
grid and one g call on the near-optimizers.  The checks return the measured
quantities; the verdict is the report's row rule.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hamiltonians import HamiltonianPair, side_sign
from .spaces import ModelSpace


def _lapack_dgbsv():
    """scipy's ``dgbsv`` for one right side, from numpy's bundled OpenBLAS, else scipy's."""
    try:  # dlsym also searches the libraries that numpy's core links
        gbsv = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_dgbsv_64_
    except (AttributeError, OSError):  # conda and MKL builds of numpy
        from scipy.linalg.lapack import dgbsv
        return dgbsv
    gbsv.restype = None  # every argument is a pointer; declaring argtypes adds 1.3 us a call
    ints = np.array([0, 0, 0, 1, 0, 0], np.int64)  # n, kl, ku, nrhs, ldab, info; calls share it
    ptr = (ctypes.c_char * 0).from_buffer  # a ctypes array is passed as a pointer to its data
    n, kl_, ku_, nrhs, ldab, info = (ctypes.byref(ptr(ints), 8 * i) for i in range(6))

    def dgbsv(kl, ku, ab, b, overwrite_ab=False):
        ab = np.array(ab, dtype=float, order="F", copy=None if overwrite_ab else True)
        x, piv = np.array(b, dtype=float), np.empty(len(b), np.int64)
        if x.ndim != 1 or ab.shape != (2 * kl + ku + 1, x.size):  # else LAPACK reads past them
            raise ValueError("dgbsv needs ab of shape (2 kl + ku + 1, n) and one b of size n")
        ints[0], ints[1], ints[2], ints[4] = x.size, kl, ku, ab.shape[0]
        gbsv(n, kl_, ku_, nrhs, ptr(ab.T), ldab, ptr(piv), ptr(x), n, info)
        return ab, piv - 1, x, ints.item(5)  # scipy's pivots count from 0
    return dgbsv


dgbsv = _lapack_dgbsv()


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
        if not np.isfinite(values).all():
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
# candidate Q-values a Bellman sweep holds at once, 128 kB an array
_CANDIDATES = 1 << 14


def make_grid(box: float = 5.0, dx: float = 1.0 / 200.0) -> np.ndarray:
    n = int(round(2.0 * box / dx))
    return np.linspace(-box, box, n + 1)


# one scheme at a time: every caller finishes the solves of one scheme before the
# next.  At the default dx and dt a scheme holds 4 MB of feet (2001 x 129, a cell and
# a weight each) and 1.1 MB of runs (2001 rows of 17, four numbers each)
@lru_cache(maxsize=1)
def _scheme(potential, box: float, dt: float, dx: float, control_bound: float,
            n_controls: int) -> tuple[np.ndarray, ...]:
    """The read-only geometry (xs, controls, cell, w1, idx, to_col, lo, hi) of a scheme.

    The foot of grid point i under control j, x_i + dt (drift_i + c_j) clipped to the
    box, lies in cell[i, j] with weight w1[i, j] on its right end.  (R, 1, n) arrays
    hold the r-th run lo..hi of every row, in cell idx, a row of fewer runs repeating
    its last; c* lies in column beta (u[idx + 1] - u[idx]) to_col + (K - 1) / 2.
    """
    xs = make_grid(box, dx)
    controls = np.linspace(-control_bound, control_bound, n_controls)
    feet = np.add.outer(-potential.dv(xs), controls)  # in place: no (n, K) temporaries
    feet *= dt
    feet += xs[:, None]
    key = np.searchsorted(xs, feet) - 1  # the cell, or -1 and n - 1 outside the box
    new = np.ones(key.shape, dtype=bool)  # the first column of each run
    np.not_equal(key[:, 1:], key[:, :-1], out=new[:, 1:])
    start = np.flatnonzero(new)
    rows, cols = np.divmod(start, n_controls)
    count = np.bincount(rows, minlength=xs.size)
    last = np.cumsum(count) - 1
    at = np.minimum(np.arange(count.max())[:, None, None] + (last + 1 - count), last)
    hi = np.where(at == last, n_controls - 1, np.append(cols, 0)[at + 1] - 1)
    run_key = key.ravel()[start[at]]
    idx = np.clip(run_key, 0, xs.size - 2)
    # columns per unit slope; 0 on a clipped run, whose c* is 0
    to_col = (run_key == idx) * (0.5 * (n_controls - 1) / control_bound) / (
        xs[idx + 1] - xs[idx])
    cell = np.clip(key, 0, xs.size - 2, out=key)
    w1 = np.subtract(np.clip(feet, xs[0], xs[-1], out=feet), xs[cell], out=feet)
    w1 /= (xs[1:] - xs[:-1])[cell]
    scheme = (xs, controls, cell, w1, idx, to_col, cols[at].astype(float), hi.astype(float))
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
    n_controls : odd, at least 3, so that c = 0 is one of the controls
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
    if n_controls < 3 or n_controls % 2 == 0:
        raise ValueError("n_controls must be odd and at least 3, so that c = 0 is a control")
    scheme = _scheme(space.potential, space.box, dt, dx, control_bound, n_controls)
    hv = np.asarray(h(scheme[0]), dtype=float)
    if not np.isfinite(hv).all():
        raise ValueError("h must be finite on the grid")
    beta = 1.0 - dt / lam
    sup_h = float(np.abs(hv).max())
    u, iterations, q_max = _policy_iteration(scheme, hv, hv / lam, dt, beta, sup_h)
    residual = float(np.abs(q_max - u).max())
    if residual / (1.0 - beta) > tol:
        raise RuntimeError(
            f"policy iteration certificate failed: Bellman residual {residual:.3e} "
            f"/ (1 - beta) = {residual / (1.0 - beta):.3e} > tol {tol:.3e}"
        )
    if float(np.abs(u).max()) > sup_h + 1e-6:
        raise RuntimeError("discounted-reward bound |u| <= sup|h| violated")
    return ResolventSolution(u=GridFunction(scheme[0], u), iterations=iterations,
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
        return _sparse_solve(_policy_matrix(idx, w0, w1, beta), r)
    height = 2 * kl + ku + 1
    ab = np.zeros(height * idx.size)  # column-major: entry (row, col) at col * height + row
    ab[kl + ku::height] = 1.0
    at = idx * height + kl + ku + offset
    ab[at] -= beta * w0
    ab[at + height - 1] -= beta * w1
    _, _, u, info = dgbsv(kl, ku, ab.reshape((height, idx.size), order="F"), r,
                          overwrite_ab=True)
    if info != 0:
        raise RuntimeError(f"banded LU of I - beta P failed (dgbsv info {info})")
    return u


def _sparse_solve(matrix, r):
    """scipy's SuperLU solve of the CSR ``matrix``, imported on first use."""
    from scipy.sparse.linalg import spsolve
    return spsolve(matrix, r)


def _policy_matrix(idx, w0, w1, beta):
    """I - beta P for the transition P with weights w0, w1 on columns idx, idx + 1.

    One CSR matrix with the pattern and entries of scipy's
    ``identity - beta * P``: each row holds its diagonal 1 and -beta w0,
    -beta w1 in column order, a diagonal on idx or idx + 1 becomes 1 - beta w
    there, and zero entries are dropped.
    """
    from scipy.sparse import csr_matrix
    n = idx.size
    rows = np.arange(n)
    cols = np.stack((rows, idx, idx + 1, rows), axis=1)
    vals = np.stack((rows < idx, (rows == idx) - beta * w0,
                     (rows == idx + 1) - beta * w1, rows > idx + 1), axis=1)
    keep = vals != 0
    indptr = np.zeros(n + 1, dtype=np.intc)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return csr_matrix((vals[keep], cols[keep].astype(np.intc), indptr), shape=(n, n))


def _policy_iteration(scheme, u, hl, dt, beta, sup_h):
    """Howard's algorithm, starting from the greedy policy for u = h.

    Each policy step solves (I - beta P) u = r for the current policy
    (``_policy_solve``).  A policy changes only where the gain is strictly above
    ``_POLICY_GAIN``, so ties cannot make it cycle.  Returns the value of the
    final policy, the number of policy steps and max_c Q at the final u;
    raises after ``_MAX_POLICY_STEPS`` steps.
    """
    xs, controls, cells, w1s, idx, to_col, lo, hi = scheme
    (n, n_controls), rows = w1s.shape, np.arange(xs.size)
    cells, w1s, at_row = cells.ravel(), w1s.ravel(), rows * n_controls
    half_c2 = 0.5 * controls ** 2
    pair = np.array([[0.0], [1.0]])
    size = max(1, _CANDIDATES // (2 * n))
    groups = [(g, idx[g:g + size], beta * to_col[g:g + size], lo[g:g + size], hi[g:g + size])
              for g in range(0, idx.shape[0], size)]

    def greedy(u):  # the best column and its Q-value among each run's two candidates
        for g, idx_g, to_col_g, lo_g, hi_g in groups:
            uk, uk1 = u[idx_g], u[1:][idx_g]
            # the columns below and above c*, clipped to the run; (K - 1) / 2 is c = 0's
            below = np.floor((uk1 - uk) * to_col_g + 0.5 * (n_controls - 1))
            j = np.minimum(np.maximum(below + pair, lo_g), hi_g).astype(np.intp)
            w1 = w1s[j + at_row]
            q = dt * (hl - half_c2[j]) + beta * ((1.0 - w1) * uk + w1 * uk1)
            pick = q.reshape(-1, n).argmax(axis=0) * n + rows
            j, q = j.take(pick), q.take(pick)
            if g:  # later runs win only by a strictly larger Q, as in np.argmax
                j, q = np.where(q > q_best, j, best), np.maximum(q, q_best)
            best, q_best = j, q
        return best, q_best

    # the linear solve has condition number at most (1 + beta) / (1 - beta)
    roundoff = 1e-13 * (1.0 + sup_h) / (1.0 - beta)
    policy, _ = greedy(u)
    for iterations in range(1, _MAX_POLICY_STEPS + 1):
        at = at_row + policy
        k, w1 = cells[at], w1s[at]
        w0, r = 1.0 - w1, dt * (hl - half_c2[policy])
        u_new = _policy_solve(k, w0, w1, beta, r)
        if iterations > 1 and float((u - u_new).max()) > roundoff:
            raise RuntimeError(
                f"policy iteration lost monotonicity at step {iterations}: "
                f"value dropped by {float(np.max(u - u_new)):.3e}"
            )
        u = u_new
        best, q_best = greedy(u)
        improve = q_best > r + beta * (w0 * u[k] + w1 * u[1:][k]) + _POLICY_GAIN
        if not improve.any():
            return u, iterations, q_best
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


def check_viscosity(u: GridFunction, pair: HamiltonianPair, h, lam: float) -> ViscosityReport:
    """The slack u - lam g - h at the near-optimizer where sigma * slack is least.

    sigma = side_sign(pair.side): a dagger pair measures the subsolution
    inequality u - lam g - h <= 0 at the near-maximizers of u - f, a ddagger
    pair the supersolution inequality u - lam g - h >= 0 at the
    near-minimizers.  Near-optimizers are grid points within ``_GAP_TOL`` of the
    optimum.  The inequality holds up to tol at one of them iff
    sigma * slack <= tol, which is the finite form of the sequence-based
    definition.
    """
    sigma = side_sign(pair.side)
    xs = u.xs
    s = sigma * (u.values - pair.f(xs[:, None]))
    cand = np.flatnonzero(s >= float(np.max(s)) - _GAP_TOL)
    hv = np.asarray(h(xs), dtype=float)
    slacks = u.values[cand] - lam * pair.g(xs[cand, None]) - hv[cand]
    slack = float(slacks[np.argmin(sigma * slacks)])
    return ViscosityReport(side=pair.side, optimizers=xs[cand], slack=slack)


@dataclass(frozen=True)
class ComparisonResult:
    lhs: float
    rhs: float
    slack: float


def comparison_gap(u: GridFunction, v: GridFunction, h_dag, h_ddag,
                   solver_tol: float, dx: float) -> ComparisonResult:
    """lhs = sup(u - v), rhs = sup(h_dag - h_ddag) and the discretization slack:
    the comparison principle asks lhs <= rhs + slack.

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
    return ComparisonResult(lhs=lhs, rhs=rhs, slack=slack)
