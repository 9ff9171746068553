import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg.lapack import dgbsv as scipy_dgbsv
from scipy.sparse.linalg import spsolve

from hjflow import viscosity
from hjflow.cli import main
from hjflow.cylinders import Affine
from hjflow.hamiltonians import HamiltonianPair, build_cyl_pair
from hjflow.spaces import euclidean_space, quadratic_potential
from hjflow.viscosity import (
    GridFunction,
    check_viscosity,
    comparison_gap,
    make_grid,
    solve_resolvent,
)

ROOT = Path(__file__).resolve().parent.parent


def smooth_h(x):
    x = np.asarray(x, dtype=float)
    return 0.8 * np.cos(0.7 * x + 0.3) + 0.5 * np.cos(1.3 * x + 1.1)


@pytest.fixture(scope="module")
def value_function(ou):
    sol = solve_resolvent(ou, 1.0, smooth_h, dt=1.0 / 100.0, dx=1.0 / 100.0)
    return sol


def test_constant_h_gives_constant_u(ou):
    sol = solve_resolvent(ou, 1.0, lambda x: np.full_like(np.asarray(x, float), 0.7),
                          dx=1.0 / 50.0)
    assert np.max(np.abs(sol.u.values - 0.7)) <= 1e-8


def test_constant_shift_equivariance(ou):
    s1 = solve_resolvent(ou, 1.0, smooth_h, dx=1.0 / 50.0)
    s2 = solve_resolvent(ou, 1.0, lambda x: smooth_h(x) - 0.4, dx=1.0 / 50.0)
    assert np.max(np.abs(s2.u.values - (s1.u.values - 0.4))) <= 1e-8


def test_lq_oracle_coarse(ou):
    # the bias is first order in dt; lam/100 comfortably meets 1e-2 sup-norm
    sol = solve_resolvent(ou, 1.0, lambda x: np.clip(x, -5, 5),
                          dt=1.0 / 100.0, dx=1.0 / 100.0)
    mask = np.abs(sol.u.xs) <= 2.0
    exact = sol.u.xs[mask] / 2.0 + 0.125
    rel = np.max(np.abs(sol.u.values[mask] - exact)) / np.max(np.abs(exact))
    assert rel < 1e-2


def test_time_step_too_large(ou):
    with pytest.raises(ValueError, match="time step too large"):
        solve_resolvent(ou, 1.0, smooth_h, dt=1.5)


@pytest.mark.parametrize("dt", [0.0, -0.01, float("nan")])
def test_rejects_bad_dt(ou, dt):
    with pytest.raises(ValueError, match="dt must satisfy 0 < dt < lam"):
        solve_resolvent(ou, 1.0, smooth_h, dt=dt, dx=0.1)


@pytest.mark.parametrize("dx", [20.0, 0.0, -0.1, float("nan"), float("inf")])
def test_rejects_bad_dx(ou, dx):
    with pytest.raises(ValueError, match="dx must be positive and at most space.box"):
        solve_resolvent(ou, 1.0, smooth_h, dx=dx)


@pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan"), float("inf")])
def test_rejects_bad_tol(ou, tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        solve_resolvent(ou, 1.0, smooth_h, dx=0.1, tol=tol)


@pytest.mark.parametrize("bound", [0.0, -2.0, float("nan"), float("inf")])
def test_rejects_bad_control_bound(ou, bound):
    with pytest.raises(ValueError, match="control_bound must be finite and positive"):
        solve_resolvent(ou, 1.0, smooth_h, dx=0.1, control_bound=bound)


@pytest.mark.parametrize("n_controls", [1, 2, 64])
def test_rejects_control_grids_without_zero(ou, n_controls):
    # an even grid leaves out c = 0, and K = 1 holds only -U: a constant h would no
    # longer be a fixed point, and h = -0.7 broke the bound |u| <= sup|h|
    with pytest.raises(ValueError, match="n_controls must be odd and at least 3"):
        solve_resolvent(ou, 1.0, lambda x: np.full_like(np.asarray(x, float), -0.7),
                        dx=0.05, n_controls=n_controls)


@pytest.mark.parametrize("n_controls", [3, 65])
@pytest.mark.parametrize("value", [-0.7, 0.7])
def test_constant_h_on_odd_control_grids(ou, n_controls, value):
    sol = solve_resolvent(ou, 1.0, lambda x: np.full_like(np.asarray(x, float), value),
                          dx=0.05, n_controls=n_controls)
    assert np.max(np.abs(sol.u.values - value)) <= 1e-8


def test_requires_one_dimensional_euclidean(quantile_ou):
    with pytest.raises(ValueError, match="one-dimensional"):
        solve_resolvent(quantile_ou, 1.0, smooth_h)


def test_monotone_in_h(ou):
    s1 = solve_resolvent(ou, 1.0, smooth_h, dx=1.0 / 50.0)
    s2 = solve_resolvent(ou, 1.0, lambda x: smooth_h(x) + 0.2 * np.square(np.sin(np.asarray(x))),
                         dx=1.0 / 50.0)
    assert np.all(s1.u.values <= s2.u.values + 1e-9)


def value_iteration(space, lam, h, control_bound=2.0, dt=None, dx=1.0 / 200.0,
                    n_controls=129, tol=1e-10, max_iter=200000):
    """Value iteration on the solver's scheme, the oracle for Howard's answer.

    Sweeps u <- max_c Q(u) from u = h until a sweep moves u by at most tol,
    which leaves an error of up to tol / (1 - beta), and raises if a sweep
    breaks the beta-contraction of the increments.
    """
    dt = lam / 50.0 if dt is None else dt
    xs, controls, idx, w1 = viscosity._scheme(space.potential, space.box, dt, dx,
                                              control_bound, n_controls)[:4]
    w0 = 1.0 - w1
    hv = np.asarray(h(xs), dtype=float)
    reward = dt * (hv[:, None] / lam - 0.5 * controls[None, :] ** 2)
    beta = 1.0 - dt / lam

    def q_values(u):
        return reward + beta * (w0 * u[idx] + w1 * u[idx + 1])

    u, last_increment = hv, np.inf
    for iterations in range(1, max_iter + 1):
        u_new = np.max(q_values(u), axis=1)
        increment = float(np.max(np.abs(u_new - u)))
        u = u_new
        if increment > beta * last_increment + 1e-12:
            raise RuntimeError(
                f"value iteration lost the contraction bound at step {iterations}: "
                f"{increment:.3e} > {beta:.4f} * {last_increment:.3e}"
            )
        last_increment = increment
        if increment <= tol:
            assert float(np.max(np.abs(u))) <= float(np.max(np.abs(hv))) + 1e-6
            residual = float(np.max(np.abs(np.max(q_values(u), axis=1) - u)))
            return viscosity.ResolventSolution(
                u=GridFunction(xs, u), iterations=iterations, contraction_factor=beta, dt=dt, dx=dx, fixed_point_tol=tol,
                bellman_residual=residual)
    raise RuntimeError(
        f"value iteration did not converge in {max_iter} steps; "
        f"residual {last_increment:.3e}"
    )


def test_solver_contraction_metadata(ou, value_function):
    """The certificate of ``solve_resolvent``'s own result, beside the oracle's:
    beta = 1 - dt/lam, the Bellman residual ||T u - u|| recomputed here with
    the oracle's operator, error_bound <= tol and at least one policy step."""
    oracle = value_iteration(ou, 1.0, smooth_h, dt=1.0 / 100.0, dx=1.0 / 100.0)
    assert oracle.bellman_residual <= 1e-10
    assert oracle.contraction_factor == pytest.approx(1 - oracle.dt / 1.0)
    assert oracle.iterations > 10
    sol = value_function  # solve_resolvent at the oracle's dt and dx, tol = 1e-10
    assert (sol.dt, sol.dx) == (oracle.dt, oracle.dx)
    assert sol.contraction_factor == 1 - sol.dt / 1.0
    # the full (n, K) Q table at the returned u: the solver evaluates only candidates
    xs, controls, idx, w1 = viscosity._scheme(ou.potential, ou.box, sol.dt, sol.dx, 2.0, 129)[:4]
    w0 = 1.0 - w1
    assert np.array_equal(xs, sol.u.xs)
    reward = sol.dt * (smooth_h(xs)[:, None] / 1.0 - 0.5 * controls[None, :] ** 2)
    u = sol.u.values
    q = reward + sol.contraction_factor * (w0 * u[idx] + w1 * u[idx + 1])
    assert sol.bellman_residual == float(np.max(np.abs(np.max(q, axis=1) - u)))
    assert sol.error_bound == sol.bellman_residual / (1 - sol.contraction_factor)
    assert sol.error_bound <= 1e-10
    assert sol.iterations >= 1


def test_value_function_is_subsolution(ou, value_function, rng):
    sol = value_function
    tol = 5 * sol.dx
    for _ in range(10):
        a = float(rng.uniform(0.1, 0.6))
        k = int(rng.integers(1, 3))
        w = rng.uniform(0.05, 0.5, size=k)
        rho = np.array([rng.uniform(-1.5, 1.5)])
        mus = [[rng.uniform(-1.5, 1.5)] for _ in range(k)]
        pair = build_cyl_pair(ou, "dagger", a, Affine(w, float(rng.uniform(0, 0.5))),
                              rho, mus)
        rep = check_viscosity(sol.u, pair, smooth_h, 1.0)
        assert rep.slack <= tol, rep
        # every reported optimizer is within gap_tol of sup (u - f), recomputed here
        s = sol.u.values - np.array([pair.f([x]) for x in sol.u.xs])
        at = np.searchsorted(sol.u.xs, rep.optimizers)
        assert np.array_equal(sol.u.xs[at], rep.optimizers)
        assert np.all(s[at] >= s.max() - 1e-6)


def test_value_function_is_supersolution(ou, value_function, rng):
    sol = value_function
    tol = 5 * sol.dx
    for _ in range(10):
        a = float(rng.uniform(0.1, 0.6))
        w = rng.uniform(0.05, 0.5, size=1)
        gamma = np.array([rng.uniform(-1.5, 1.5)])
        pis = [[rng.uniform(-1.5, 1.5)]]
        pair = build_cyl_pair(ou, "ddagger", a, Affine(w), gamma, pis)
        rep = check_viscosity(sol.u, pair, smooth_h, 1.0)
        assert rep.slack >= -tol, rep


def test_designed_subsolution_failure(ou, value_function):
    xs = value_function.u.xs
    ones = GridFunction(xs, np.ones_like(xs))
    x0 = float(xs[len(xs) // 2 + 7])
    pair = build_cyl_pair(ou, "dagger", 0.5, Affine([0.3]), np.array([x0]),
                          [[x0]])
    rep = check_viscosity(ones, pair, lambda x: np.zeros_like(np.asarray(x)), 1.0)
    assert not rep.slack <= 5 * value_function.dx
    assert rep.slack == pytest.approx(1.0, abs=1e-9)


def test_designed_supersolution_failure(ou, value_function):
    xs = value_function.u.xs
    minus = GridFunction(xs, -np.ones_like(xs))
    x0 = float(xs[len(xs) // 2 - 5])
    pair = build_cyl_pair(ou, "ddagger", 0.5, Affine([0.3]), np.array([x0]),
                          [[x0]])
    rep = check_viscosity(minus, pair, lambda x: np.zeros_like(np.asarray(x)), 1.0)
    assert not rep.slack >= -5 * value_function.dx
    assert rep.slack == pytest.approx(-1.0, abs=1e-9)


def test_min_h_is_subsolution_where_g_nonnegative(ou, value_function, rng):
    xs = value_function.u.xs
    hv = smooth_h(xs)
    umin = GridFunction(xs, np.full_like(xs, float(hv.min())))
    checked = skipped = 0
    for _ in range(10):
        a = float(rng.uniform(0.1, 0.6))
        w = rng.uniform(0.05, 0.5, size=1)
        rho = np.array([rng.uniform(-1.5, 1.5)])
        mus = [[rng.uniform(-1.5, 1.5)]]
        pair = build_cyl_pair(ou, "dagger", a, Affine(w), rho, mus)
        rep = check_viscosity(umin, pair, smooth_h, 1.0)
        g_at_opt = min(pair.g([x]) for x in rep.optimizers)
        if g_at_opt >= 0:
            checked += 1
            assert rep.slack <= 1e-9
        else:
            skipped += 1
    assert checked >= 1


def test_supersolution_shift_invariance(ou, value_function, rng):
    sol = value_function
    shifted = GridFunction(sol.u.xs, sol.u.values + 0.8)
    pair = build_cyl_pair(ou, "ddagger", 0.4, Affine([0.2]), np.array([0.5]),
                          [[-0.5]])
    rep = check_viscosity(shifted, pair, smooth_h, 1.0)
    assert rep.slack >= -5 * sol.dx


def test_check_rejects_wrong_side(ou, value_function):
    # the check takes its side from the pair, so only an unknown side is wrong
    pair = build_cyl_pair(ou, "dagger", 0.4, Affine([0.2]), np.array([0]), [[0.0]])
    wrong = HamiltonianPair(side="up", f=pair.f, g=pair.g)
    with pytest.raises(ValueError, match="unknown side 'up'"):
        check_viscosity(value_function.u, wrong, smooth_h, 1.0)
    with pytest.raises(ValueError, match="unknown side 'up'"):
        build_cyl_pair(ou, "up", 0.4, Affine([0.2]), np.array([0]), [[0.0]])


def test_comparison_same_h(ou):
    s = solve_resolvent(ou, 1.0, smooth_h, dx=1.0 / 50.0)
    res = comparison_gap(s.u, s.u, smooth_h, smooth_h, s.fixed_point_tol, s.dx)
    assert res.lhs <= res.rhs + res.slack
    assert res.lhs <= 1e-12
    assert res.rhs == 0.0


def test_comparison_constant_shift_tight(ou):
    s1 = solve_resolvent(ou, 1.0, smooth_h, dx=1.0 / 50.0)
    s2 = solve_resolvent(ou, 1.0, lambda x: smooth_h(x) - 0.3, dx=1.0 / 50.0)
    res = comparison_gap(s1.u, s2.u, smooth_h, lambda x: smooth_h(x) - 0.3,
                         s1.fixed_point_tol, s1.dx)
    assert res.lhs <= res.rhs + res.slack
    assert abs(res.lhs - 0.3) <= 1e-10
    assert abs(res.rhs - 0.3) <= 1e-12


def test_comparison_random_ordered_pairs(ou, rng):
    for _ in range(2):
        hd = smooth_h
        hdd = lambda x: smooth_h(x) - 0.15 * np.square(np.sin(1.1 * np.asarray(x)))
        su = solve_resolvent(ou, 1.0, hd, dx=1.0 / 50.0)
        sv = solve_resolvent(ou, 1.0, hdd, dx=1.0 / 50.0)
        res = comparison_gap(su.u, sv.u, hd, hdd, su.fixed_point_tol, su.dx)
        assert res.lhs <= res.rhs + res.slack


def test_comparison_grid_mismatch(ou):
    s1 = solve_resolvent(ou, 1.0, smooth_h, dx=1.0 / 50.0)
    s2 = solve_resolvent(ou, 1.0, smooth_h, dx=1.0 / 40.0)
    with pytest.raises(ValueError, match="grid mismatch"):
        comparison_gap(s1.u, s2.u, smooth_h, smooth_h, s1.fixed_point_tol, s1.dx)


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, 1.0]), np.array([1.0, np.nan]))


def test_grid_function_copies_the_callers_arrays():
    xs, values = np.linspace(0.0, 1.0, 5), np.zeros(5)
    u = GridFunction(xs, values)
    xs[0], values[0] = -1.0, 1.0  # the caller's arrays stay writable
    assert u.xs[0] == 0.0 and u.values[0] == 0.0
    for arr in (u.xs, u.values):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 2.0


def test_solver_nonconvergence_error(ou):
    with pytest.raises(RuntimeError, match="did not converge"):
        value_iteration(ou, 1.0, smooth_h, dx=1.0 / 50.0, max_iter=3)


def test_policy_iteration_step_cap(ou, monkeypatch):
    monkeypatch.setattr(viscosity, "_MAX_POLICY_STEPS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        solve_resolvent(ou, 1.0, smooth_h, dx=1.0 / 50.0)


def _random_bounded_grid_h(seed):
    knots = np.linspace(-5.0, 5.0, 41)
    return GridFunction(knots, np.random.default_rng(seed).uniform(-1.0, 1.0, knots.size))


H_FAMILIES = {
    "linear_clip": lambda x: np.clip(np.asarray(x, dtype=float), -5.0, 5.0),
    "fourier": lambda x: np.cos(0.9 * np.asarray(x, dtype=float) + 0.4),
    "constant": lambda x: np.full_like(np.asarray(x, dtype=float), 0.7),
    "random": _random_bounded_grid_h(2718),
}


@pytest.mark.parametrize("n_controls", [33, 129])
@pytest.mark.parametrize("dt_factor", [50.0, 200.0])
@pytest.mark.parametrize("family", sorted(H_FAMILIES))
@pytest.mark.parametrize("potential", ["quadratic", "quartic"])
def test_policy_iteration_matches_value_iteration(request, potential, family,
                                                  dt_factor, n_controls):
    space = request.getfixturevalue("ou" if potential == "quadratic" else "quartic")
    h, tol = H_FAMILIES[family], 1e-10
    kwargs = dict(dt=1.0 / dt_factor, dx=0.1, n_controls=n_controls, tol=tol)
    howard = solve_resolvent(space, 1.0, h, **kwargs)
    oracle = value_iteration(space, 1.0, h, **kwargs)
    assert howard.error_bound <= tol
    # VI stops with error up to beta tol / (1 - beta); Howard's is certified <= tol
    gap = np.max(np.abs(howard.u.values - oracle.u.values))
    assert gap <= tol / (1.0 - howard.contraction_factor)


def test_certificate_gates_the_solution(ou):
    with pytest.raises(RuntimeError, match="certificate"):
        solve_resolvent(ou, 1.0, smooth_h, dx=1.0 / 50.0, tol=1e-30)


def oracle_howard(space, lam, h, control_bound=2.0, dt=None, dx=1.0 / 200.0,
                  n_controls=129, tol=1e-10, max_iter=200000):
    """Howard's solve as it was before the scheme cache and the one-step assembly:
    geometry rebuilt per call and I - beta P formed as identity - beta * transition.
    Returns (u, iterations, final_increment, bellman_residual)."""
    dt = lam / 50.0 if dt is None else dt
    xs = make_grid(space.box, dx)
    hv = np.asarray(h(xs), dtype=float)
    controls = np.linspace(-control_bound, control_bound, n_controls)
    drift = -space.potential.dv(xs)
    targets = np.clip(xs[:, None] + dt * (drift[:, None] + controls[None, :]),
                      xs[0], xs[-1])
    idx = np.clip(np.searchsorted(xs, targets) - 1, 0, xs.size - 2)
    w1 = (targets - xs[idx]) / (xs[idx + 1] - xs[idx])
    w0 = 1.0 - w1
    reward = dt * (hv[:, None] / lam - 0.5 * controls[None, :] ** 2)
    beta = 1.0 - dt / lam

    def q_values(u):
        return reward + beta * (w0 * u[idx] + w1 * u[idx + 1])

    u = hv
    n = u.size
    rows = np.arange(n)
    indptr = np.arange(0, 2 * n + 1, 2)
    identity = sparse.identity(n, format="csr")
    q = q_values(u)
    policy = np.argmax(q, axis=1)
    for iterations in range(1, max_iter + 1):
        cols = np.stack((idx[rows, policy], idx[rows, policy] + 1), axis=1).ravel()
        weights = np.stack((w0[rows, policy], w1[rows, policy]), axis=1).ravel()
        transition = sparse.csr_matrix((weights, cols, indptr), shape=(n, n))
        u_new = spsolve(identity - beta * transition, reward[rows, policy])
        increment = float(np.max(np.abs(u_new - u)))
        u = u_new
        q = q_values(u)
        best = np.argmax(q, axis=1)
        improve = q[rows, best] > q[rows, policy] + viscosity._POLICY_GAIN
        if not np.any(improve):
            residual = float(np.max(np.abs(np.max(q, axis=1) - u)))
            assert residual / (1.0 - beta) <= tol
            return u, iterations, increment, residual
        policy = np.where(improve, best, policy)
    raise RuntimeError("oracle did not converge")


def dense_policy_matrix(idx, w0, w1, beta):
    """I - beta P as a dense array, entry by entry as both solvers form it."""
    rows = np.arange(idx.size)
    matrix = np.eye(idx.size)
    matrix[rows, idx] -= beta * w0
    matrix[rows, idx + 1] -= beta * w1
    return matrix


def longdouble_solve(matrix, rhs):
    """Gaussian elimination with partial pivoting in np.longdouble."""
    a, b = matrix.astype(np.longdouble), rhs.astype(np.longdouble)
    n = b.size
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        a[[k, p]], b[[k, p]] = a[[p, k]], b[[p, k]]
        f = a[k + 1:, k] / a[k, k]
        a[k + 1:, k:] -= f[:, None] * a[k, k:]
        b[k + 1:] -= f * b[k]
    x = np.zeros(n, dtype=np.longdouble)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x


def _band(idx):
    """(kl, ku) of I - beta P for feet idx, by the rule of ``_policy_solve``."""
    rows = np.arange(idx.size)
    return max(0, int(np.max(rows - idx))), max(0, int(np.max(idx + 1 - rows)))


def forward_error_ratio(u, idx, w0, w1, beta, rhs):
    """||u - u*|| over (band + 2) eps ||u*|| (1 + beta) / (1 - beta), u* the
    long-double solution of the policy system and band = kl + ku its bandwidth.

    A backward-stable LU of a band matrix has a backward error of order
    band * eps, and ||I - beta P|| ||(I - beta P)^-1|| <= (1 + beta) / (1 - beta),
    so a float64 solve by a stable LU reads below 1: at most 0.11 for the banded
    LU and 0.009 for SuperLU on ``ORACLE_CASES``.
    """
    exact = longdouble_solve(dense_policy_matrix(idx, w0, w1, beta), rhs)
    band = sum(_band(idx))
    bound = ((band + 2) * np.finfo(float).eps * float(np.max(np.abs(exact)))
             * (1.0 + beta) / (1.0 - beta))
    return float(np.max(np.abs(u - exact))) / bound


def solve_both(space, h, **kwargs):
    """``solve_resolvent`` and ``oracle_howard`` on one case, each with the last
    linear system it solved: the new solver's (idx, w0, w1, beta, rhs) and the
    oracle's (sparse matrix, rhs)."""
    policy_solve, sparse_lu = viscosity._policy_solve, spsolve
    new_systems, oracle_systems = [], []

    def record_policy_solve(*system):
        new_systems.append(system)
        return policy_solve(*system)

    def record_sparse(matrix, rhs):
        oracle_systems.append((matrix, rhs))
        return sparse_lu(matrix, rhs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(viscosity, "_policy_solve", record_policy_solve)
        patch.setitem(globals(), "spsolve", record_sparse)
        sol = solve_resolvent(space, 1.0, h, **kwargs)
        oracle = oracle_howard(space, 1.0, h, **kwargs)
    return sol, new_systems[-1], oracle, oracle_systems[-1]


def assert_matches_oracle(space, h, **kwargs):
    """Howard's solve against the sparse-LU oracle.

    Both must take the same number of policy steps to the same final policy,
    whose transition matrix and rewards agree bit for bit.  On a band up to
    ``_MAX_BAND`` the values differ only by roundoff, so each must lie within
    ``forward_error_ratio``'s bound of the long-double solution of that policy's
    system; on a wider band both solve it by the same sparse LU, bit for bit.
    """
    sol, system, (u, iterations, _, residual), (matrix, rhs) = solve_both(
        space, h, **kwargs)
    assert sol.iterations == iterations
    idx, w0, w1, beta, new_rhs = system
    assert np.array_equal(new_rhs, rhs)
    assert np.array_equal(dense_policy_matrix(idx, w0, w1, beta), matrix.toarray())
    assert forward_error_ratio(sol.u.values, *system) <= 1.0
    assert forward_error_ratio(u, *system) <= 1.0
    if sum(_band(idx)) > viscosity._MAX_BAND:
        assert np.array_equal(sol.u.values, u)
        assert sol.bellman_residual == residual


ORACLE_CASES = [
    *itertools.product(["ou", "quartic", "double_well"], sorted(H_FAMILIES),
                       [50.0, 200.0], [33, 129], [0.1]),
    ("double_well", "random", 50.0, 129, 0.05),
]


@pytest.mark.parametrize("potential,family,dt_factor,n_controls,dx", ORACLE_CASES)
def test_howard_matches_oracle_bit_for_bit(request, potential, family, dt_factor,
                                           n_controls, dx):
    # bit for bit in the policy; the values within a stated forward-error bound
    assert_matches_oracle(request.getfixturevalue(potential), H_FAMILIES[family],
                          dt=1.0 / dt_factor, dx=dx, n_controls=n_controls)


@pytest.fixture(scope="module")
def weak_ou():
    """Quadratic kappa = 0.1: near the box the drift is too weak to keep the feet in it."""
    return euclidean_space(quadratic_potential(0.1))


EDGE_ORACLE_CASES = {
    # runs of about 4000 controls, two per row
    "k8193": ("ou", "fourier", dict(dt=1.0 / 50.0, dx=0.1, n_controls=8193)),
    "k8193_dt200": ("double_well", "random", dict(dt=1.0 / 200.0, dx=0.1, n_controls=8193)),
    # every row's feet in one cell, so one run per row (0 is no grid point at this dx)
    "one_cell": ("ou", "random", dict(dt=1.0 / 50.0, dx=0.099, control_bound=0.01,
                                      n_controls=33)),
    # three grid points: u is constant but for rounding, so c* sits within
    # rounding of column (K - 1) / 2, and its candidates must still be adjacent
    "three_points": ("ou", "constant", dict(dt=1.0 / 50.0, dx=5.0, n_controls=3)),
    # feet clipped at both ends of the box, each end a run of its own
    "clipped": ("weak_ou", "linear_clip", dict(dt=1.0 / 50.0, dx=0.1)),
    "clipped_dt200": ("weak_ou", "random", dict(dt=1.0 / 200.0, dx=0.1)),
}


@pytest.mark.parametrize("case", sorted(EDGE_ORACLE_CASES))
def test_howard_matches_oracle_on_edge_schemes(request, case):
    potential, family, kwargs = EDGE_ORACLE_CASES[case]
    space = request.getfixturevalue(potential)
    assert_matches_oracle(space, H_FAMILIES[family], **kwargs)
    idx, to_col = viscosity._scheme(
        space.potential, space.box, kwargs["dt"], kwargs["dx"],
        kwargs.get("control_bound", 2.0), kwargs.get("n_controls", 129))[4:6]
    if case == "one_cell":
        assert idx.shape[0] == 1
    if case.startswith("clipped"):
        assert np.count_nonzero(to_col == 0.0) == 2  # the first row's first run, the last's last


def _random_scheme_case(seed):
    """A random scheme and h: coarse grids, few or many controls, small and large
    control bounds, and h constant up to 1e-14, where c* sits within rounding of a
    grid control."""
    rng = np.random.default_rng(seed)
    potential = [quadratic_potential(1.0), quadratic_potential(0.1),
                 quadratic_potential(2.0)][rng.integers(3)]
    kwargs = dict(dt=float(rng.choice([0.5, 0.1, 0.02, 0.005])),
                  dx=float(rng.choice([5.0, 2.5, 1.0, 0.5, 0.2, 0.1])),
                  n_controls=int(rng.choice([3, 5, 17, 129])),
                  control_bound=float(rng.choice([0.01, 0.5, 2.0, 50.0])))
    level, eps = float(rng.uniform(-1.0, 1.0)), float(rng.choice([0.0, 1e-14, 0.3]))
    return euclidean_space(potential), lambda x: level + eps * np.sin(3.0 * np.asarray(x)), kwargs


@pytest.mark.parametrize("chunk", range(8))
def test_howard_matches_oracle_on_random_schemes(chunk):
    # 200 cases, among them h constant up to 1e-14, where c* is within rounding of a column
    for seed in range(25 * chunk, 25 * chunk + 25):
        space, h, kwargs = _random_scheme_case(seed)
        assert_matches_oracle(space, h, **kwargs)


@pytest.mark.parametrize("candidates", ["default", "one run"])
@pytest.mark.parametrize("n_controls", [3, 33, 129])
@pytest.mark.parametrize("potential", ["ou", "quartic", "double_well", "weak_ou"])
def test_sweep_max_is_the_full_tables_bit_for_bit(request, monkeypatch, potential,
                                                  n_controls, candidates):
    """max_c Q at Howard's final u, taken over each run's two candidates, equals the
    row maxima of the full (n, K) Q table in every row, bit for bit."""
    if candidates == "one run":
        monkeypatch.setattr(viscosity, "_CANDIDATES", 1)
    space = request.getfixturevalue(potential)
    h, dt = H_FAMILIES["random"], 0.02
    scheme = viscosity._scheme(space.potential, space.box, dt, 0.1, 2.0, n_controls)
    xs, controls, idx, w1 = scheme[:4]
    hv, beta = h(xs), 1.0 - dt
    u, _, q_max = viscosity._policy_iteration(scheme, hv, hv, dt, beta, float(np.max(np.abs(hv))))
    q = dt * (hv[:, None] - 0.5 * controls[None, :] ** 2) + beta * (
        (1.0 - w1) * u[idx] + w1 * u[idx + 1])
    assert np.array_equal(q_max, np.max(q, axis=1))


def test_howard_matches_oracle_in_passes_of_one_run(ou, monkeypatch):
    # a sweep takes its runs in passes of at most _CANDIDATES candidates; merged
    # one run at a time, the passes must still give the one-pass policies
    monkeypatch.setattr(viscosity, "_CANDIDATES", 1)
    assert viscosity._scheme(ou.potential, ou.box, 0.1, 0.05, 2.0, 129)[4].shape[0] > 5
    assert_matches_oracle(ou, H_FAMILIES["random"], dt=0.1, dx=0.05, n_controls=129)


def test_warm_solve_holds_less_than_one_q_table(ou):
    """At dx = 0.005 a solve allocates less than one (n, K) float table: no sweep
    builds the Q table, and the rewards are never tabulated."""
    h = H_FAMILIES["fourier"]
    n = solve_resolvent(ou, 1.0, h, dx=0.005).u.xs.size  # builds the scheme
    tracemalloc.start()
    try:
        solve_resolvent(ou, 1.0, h, dx=0.005)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 129 * 8


@pytest.mark.parametrize("potential,family", [("ou", "fourier"), ("quartic", "random"),
                                              ("double_well", "linear_clip")])
def test_forward_error_bound_catches_wrong_solves(request, potential, family):
    sol, system, _, _ = solve_both(request.getfixturevalue(potential),
                                   H_FAMILIES[family], dt=0.02, dx=0.1, n_controls=33)
    idx, w0, w1, beta, rhs = system
    assert forward_error_ratio(sol.u.values, *system) <= 1.0
    # a float32 solve of the same system
    matrix = dense_policy_matrix(idx, w0, w1, beta)
    u32 = np.linalg.solve(matrix.astype(np.float32), rhs.astype(np.float32))
    assert forward_error_ratio(u32.astype(float), *system) > 1.0
    # w0 and w1 swapped on the one row where the swap moves the row the most
    k = int(np.argmax(np.abs((w0 - w1) * np.diff(sol.u.values)[idx])))
    swapped0, swapped1 = w0.copy(), w1.copy()
    swapped0[k], swapped1[k] = w1[k], w0[k]
    u_swapped = viscosity._policy_solve(idx, swapped0, swapped1, beta, rhs)
    assert forward_error_ratio(u_swapped, *system) > 1.0


def _random_policy(rng, n, low, high):
    """Feet idx = clip(i + offset, 0, n - 2), offsets in [low, high], random weights."""
    rows = np.arange(n)
    idx = np.clip(rows + rng.integers(low, high + 1, size=n), 0, n - 2)
    w1 = rng.uniform(0.0, 1.0, size=n)
    return idx, 1.0 - w1, w1


@pytest.mark.parametrize("case", ["diagonal_feet", "clipped_edges", "tridiagonal",
                                  "feet_left", "feet_right", "wide"])
def test_banded_solve_matches_dense_solve(rng, case):
    n, beta = 12, 0.97
    rows = np.arange(n)
    if case == "diagonal_feet":
        # even rows have the foot cell's left end on the diagonal, odd rows its right end
        idx = np.clip(np.where(rows % 2 == 0, rows, rows - 1), 0, n - 2)
        w1 = rng.uniform(0.0, 1.0, size=n)
        w0 = 1.0 - w1
    elif case == "clipped_edges":
        # feet clipped to the box: cell 0 with all weight on x_0, cell n - 2 on x_{n-1}
        idx = np.where(rows < n // 2, 0, n - 2)
        w0 = (rows < n // 2).astype(float)
        w1 = 1.0 - w0
    else:
        low, high = {"tridiagonal": (0, 0), "feet_left": (-4, -1),
                     "feet_right": (0, 5), "wide": (-7, 7)}[case]
        idx, w0, w1 = _random_policy(rng, n, low, high)
    kl, ku = _band(idx)
    # idx lies in [0, n - 2], so row 0 gives ku >= 1 and row n - 1 gives kl >= 1:
    # kl = ku = 1 is the narrowest band, and a one-sided policy keeps the other side at 1
    assert kl >= 1 and ku >= 1
    if case == "tridiagonal":
        assert (kl, ku) == (1, 1)
    elif case == "feet_left":
        assert ku == 1 and kl > 1
    elif case == "feet_right":
        assert kl == 1 and ku > 1
    rhs = rng.uniform(-1.0, 1.0, size=n)
    u = viscosity._policy_solve(idx, w0, w1, beta, rhs)
    dense = np.linalg.solve(dense_policy_matrix(idx, w0, w1, beta), rhs)
    assert np.allclose(u, dense, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("band, solver", [(viscosity._MAX_BAND, "dgbsv"),
                                          (viscosity._MAX_BAND + 1, "spsolve")])
def test_policy_solve_picks_banded_lu_up_to_max_band(rng, band, solver):
    n, beta = 150, 0.97
    rows = np.arange(n)
    # feet on the row's own cell (kl = ku = 1), except row 100 with its foot kl
    # cells to the left and row 20 with its right end ku cells to the right
    kl = band // 2
    ku = band - kl
    idx = np.minimum(rows, n - 2)
    idx[100], idx[20] = 100 - kl, 20 + ku - 1
    assert _band(idx) == (kl, ku)
    w1 = rng.uniform(0.0, 1.0, size=n)
    rhs = rng.uniform(-1.0, 1.0, size=n)
    called = []
    with pytest.MonkeyPatch.context() as patch:
        # SuperLU is reached through the seam that imports scipy.sparse on first use
        for name, attr in (("dgbsv", "dgbsv"), ("spsolve", "_sparse_solve")):
            def record(*args, _name=name, _f=getattr(viscosity, attr), **kwargs):
                called.append(_name)
                return _f(*args, **kwargs)
            patch.setattr(viscosity, attr, record)
        u = viscosity._policy_solve(idx, 1.0 - w1, w1, beta, rhs)
    assert called == [solver]
    dense = np.linalg.solve(dense_policy_matrix(idx, 1.0 - w1, w1, beta), rhs)
    assert np.allclose(u, dense, rtol=0.0, atol=1e-12)


def test_banded_solve_reports_a_singular_system():
    # beta = 1 with every foot on its own grid point makes every row of I - P zero
    n = 6
    idx = np.minimum(np.arange(n), n - 2)
    w0 = (np.arange(n) < n - 1).astype(float)
    with pytest.raises(RuntimeError, match="dgbsv info"):
        viscosity._policy_solve(idx, w0, 1.0 - w0, 1.0, np.ones(n))


def _band_system(rng, n, kl, ku):
    """A diagonally dominant (kl, ku) band matrix in dgbsv's storage, and a right side."""
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    ab[kl:] = rng.uniform(-1.0, 1.0, size=(kl + ku + 1, n))
    ab[kl + ku] = np.where(rng.random(n) < 0.5, -1.0, 1.0) * (kl + ku + 1.0)
    return ab, rng.uniform(-1.0, 1.0, size=n)


def _assert_same_dgbsv(kl, ku, ab, b, dgbsv=viscosity.dgbsv):
    """dgbsv against scipy's: the same bits of factors and solution, pivots and info."""
    (lub, piv, x, info), want = (f(kl, ku, ab.copy(order="F"), b.copy(), overwrite_ab=True)
                                 for f in (dgbsv, scipy_dgbsv))
    assert lub.tobytes() == want[0].tobytes() and x.tobytes() == want[2].tobytes()
    assert np.array_equal(piv, want[1])
    assert info == want[3] and isinstance(info, int)


@pytest.mark.parametrize("kl, ku", [(0, 0), (0, 5), (5, 0), (1, 1), (3, 2), (0, 64), (64, 0),
                                    (31, 33)])
def test_dgbsv_matches_scipy_bit_for_bit(rng, kl, ku):
    # numpy's bundled OpenBLAS against scipy's on random band systems, from the
    # diagonal alone to kl + ku = _MAX_BAND, with and without row swaps
    for n in (1, 2, 7, 101, 201):
        _assert_same_dgbsv(kl, ku, *_band_system(rng, n, kl, ku))
        if kl:  # small diagonals: rows are swapped
            ab, b = _band_system(rng, n, kl, ku)
            ab[kl + ku] *= 1e-3
            _assert_same_dgbsv(kl, ku, ab, b)


@pytest.mark.parametrize("case", ["random", "max_band"])
def test_dgbsv_matches_scipy_on_policy_systems(rng, case):
    # the systems _policy_solve builds, as it builds them, solved by both
    seen, dgbsv = [], viscosity.dgbsv

    def both(kl, ku, ab, b, overwrite_ab=False):
        _assert_same_dgbsv(kl, ku, ab, b, dgbsv)
        seen.append(kl + ku)
        return scipy_dgbsv(kl, ku, ab, b, overwrite_ab=overwrite_ab)

    for n in (3, 12, 150, 1001):
        if case == "random":
            idx, w0, w1 = _random_policy(rng, n, -min(n, 7), min(n, 7))
        else:  # feet kl cells left of row n - 1 and ku - 1 cells right of row 0
            idx = np.minimum(np.arange(n), n - 2)
            idx[0], idx[-1] = min(n - 2, viscosity._MAX_BAND // 2 - 1), max(
                0, n - 1 - viscosity._MAX_BAND // 2)
            w1 = rng.uniform(0.0, 1.0, size=n)
            w0 = 1.0 - w1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(viscosity, "dgbsv", both)
            viscosity._policy_solve(idx, w0, w1, 0.97, rng.uniform(-1.0, 1.0, size=n))
    assert len(seen) == 4
    if case == "max_band":
        assert seen[-1] == viscosity._MAX_BAND


def test_dgbsv_reports_a_singular_system_as_scipy_does():
    # a zero first column: U's first pivot is zero, info 1
    ab = np.zeros((4, 6), order="F")
    _assert_same_dgbsv(1, 1, ab, np.ones(6))
    assert viscosity.dgbsv(1, 1, ab, np.ones(6))[3] == 1


@pytest.mark.parametrize("failure", ["no_load", "no_symbol"])
def test_dgbsv_falls_back_to_scipy_when_numpy_ships_no_openblas(failure):
    # numpy's core cannot be opened, or links no BLAS with the symbol (conda, MKL)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(viscosity.ctypes, "CDLL",
                      _raise_os_error if failure == "no_load" else lambda path: object())
        assert viscosity._lapack_dgbsv() is scipy_dgbsv


def _raise_os_error(*args, **kwargs):
    raise OSError("cannot open shared object file")


def test_fallback_dgbsv_writes_the_same_bytes(tmp_path):
    # with the library lookup forced to fail, the solver workload's suites write the
    # same files through the fallback
    workload = json.loads((ROOT / "perfbench" / "workloads" / "solver.json").read_text())
    config = tmp_path / "solver.json"
    config.write_text(json.dumps(workload["config"]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(viscosity.ctypes, "CDLL", _raise_os_error)
        fallback = viscosity._lapack_dgbsv()
    outs = {}
    for name, dgbsv in (("numpy", viscosity.dgbsv), ("scipy", fallback)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(viscosity, "dgbsv", dgbsv)
            for suite in workload["suites"]:
                assert main([suite, "--config", str(config), "--out",
                             str(tmp_path / name)]) == 0
        outs[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert sorted(outs["numpy"]) == ["comparison.csv", "comparison.json", "resolvent.csv",
                                     "resolvent.json", "resolvent_solution.csv"]
    assert outs["numpy"] == outs["scipy"]


def test_scheme_cache_keys_on_every_input(ou, quartic):
    base = dict(dt=0.02, dx=0.1, control_bound=2.0, n_controls=33)
    variants = [
        (quartic, base),
        (euclidean_space(ou.potential, box=4.0), base),
        (ou, {**base, "dt": 0.005}),
        (ou, {**base, "dx": 0.05}),
        (ou, {**base, "control_bound": 1.0}),
        (ou, {**base, "n_controls": 129}),
    ]
    h = H_FAMILIES["fourier"]
    viscosity._scheme.cache_clear()
    for space, kwargs in variants:
        assert_matches_oracle(ou, h, **base)
        assert_matches_oracle(space, h, **kwargs)
    scheme = viscosity._scheme(ou.potential, ou.box, 0.02, 0.1, 2.0, 33)
    for arr in scheme:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
