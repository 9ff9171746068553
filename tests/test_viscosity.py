import itertools

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from hjflow import viscosity
from hjflow.cylinders import Affine
from hjflow.hamiltonians import HamiltonianPair, build_cyl_pair
from hjflow.spaces import euclidean_space
from hjflow.viscosity import (
    GridFunction,
    check_viscosity,
    comparison_gap,
    make_grid,
    solve_resolvent,
)


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
    xs, controls, idx, w0, w1 = viscosity._scheme(space.potential, space.box, dt, dx,
                                                  control_bound, n_controls)
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
    xs, controls, idx, w0, w1 = viscosity._scheme(ou.potential, ou.box, sol.dt, sol.dx, 2.0, 129)
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
        rep = check_viscosity(sol.u, pair, smooth_h, 1.0, tol)
        assert rep.passed, rep
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
        rep = check_viscosity(sol.u, pair, smooth_h, 1.0, tol)
        assert rep.passed, rep


def test_designed_subsolution_failure(ou, value_function):
    xs = value_function.u.xs
    ones = GridFunction(xs, np.ones_like(xs))
    x0 = float(xs[len(xs) // 2 + 7])
    pair = build_cyl_pair(ou, "dagger", 0.5, Affine([0.3]), np.array([x0]),
                          [[x0]])
    rep = check_viscosity(ones, pair, lambda x: np.zeros_like(np.asarray(x)),
                          1.0, tol=5 * value_function.dx)
    assert not rep.passed
    assert rep.slack == pytest.approx(1.0, abs=1e-9)


def test_designed_supersolution_failure(ou, value_function):
    xs = value_function.u.xs
    minus = GridFunction(xs, -np.ones_like(xs))
    x0 = float(xs[len(xs) // 2 - 5])
    pair = build_cyl_pair(ou, "ddagger", 0.5, Affine([0.3]), np.array([x0]),
                          [[x0]])
    rep = check_viscosity(minus, pair, lambda x: np.zeros_like(np.asarray(x)),
                          1.0, tol=5 * value_function.dx)
    assert not rep.passed
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
        rep = check_viscosity(umin, pair, smooth_h, 1.0, tol=1e-9)
        g_at_opt = min(pair.g([x]) for x in rep.optimizers)
        if g_at_opt >= 0:
            checked += 1
            assert rep.passed
        else:
            skipped += 1
    assert checked >= 1


def test_supersolution_shift_invariance(ou, value_function, rng):
    sol = value_function
    shifted = GridFunction(sol.u.xs, sol.u.values + 0.8)
    pair = build_cyl_pair(ou, "ddagger", 0.4, Affine([0.2]), np.array([0.5]),
                          [[-0.5]])
    rep = check_viscosity(shifted, pair, smooth_h, 1.0, tol=5 * sol.dx)
    assert rep.passed


def test_check_rejects_wrong_side(ou, value_function):
    # the check takes its side from the pair, so only an unknown side is wrong
    pair = build_cyl_pair(ou, "dagger", 0.4, Affine([0.2]), np.array([0]), [[0.0]])
    wrong = HamiltonianPair(side="up", f=pair.f, g=pair.g)
    with pytest.raises(ValueError, match="unknown side 'up'"):
        check_viscosity(value_function.u, wrong, smooth_h, 1.0, 0.01)
    with pytest.raises(ValueError, match="unknown side 'up'"):
        build_cyl_pair(ou, "up", 0.4, Affine([0.2]), np.array([0]), [[0.0]])


def test_comparison_same_h(ou):
    s = solve_resolvent(ou, 1.0, smooth_h, dx=1.0 / 50.0)
    res = comparison_gap(s.u, s.u, smooth_h, smooth_h, s.fixed_point_tol, s.dx)
    assert res.passed
    assert res.lhs <= 1e-12
    assert res.rhs == 0.0


def test_comparison_constant_shift_tight(ou):
    s1 = solve_resolvent(ou, 1.0, smooth_h, dx=1.0 / 50.0)
    s2 = solve_resolvent(ou, 1.0, lambda x: smooth_h(x) - 0.3, dx=1.0 / 50.0)
    res = comparison_gap(s1.u, s2.u, smooth_h, lambda x: smooth_h(x) - 0.3,
                         s1.fixed_point_tol, s1.dx)
    assert res.passed
    assert abs(res.lhs - 0.3) <= 1e-10
    assert abs(res.rhs - 0.3) <= 1e-12


def test_comparison_random_ordered_pairs(ou, rng):
    for _ in range(2):
        hd = smooth_h
        hdd = lambda x: smooth_h(x) - 0.15 * np.square(np.sin(1.1 * np.asarray(x)))
        su = solve_resolvent(ou, 1.0, hd, dx=1.0 / 50.0)
        sv = solve_resolvent(ou, 1.0, hdd, dx=1.0 / 50.0)
        res = comparison_gap(su.u, sv.u, hd, hdd, su.fixed_point_tol, su.dx)
        assert res.passed


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
        for name in ("dgbsv", "spsolve"):
            def record(*args, _name=name, _f=getattr(viscosity, name), **kwargs):
                called.append(_name)
                return _f(*args, **kwargs)
            patch.setattr(viscosity, name, record)
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
