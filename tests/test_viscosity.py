import itertools

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from hjflow import viscosity
from hjflow.cylinders import affine_phi
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
                u=GridFunction(xs, u), iterations=iterations, final_increment=increment,
                contraction_factor=beta, dt=dt, dx=dx, fixed_point_tol=tol,
                bellman_residual=residual)
    raise RuntimeError(
        f"value iteration did not converge in {max_iter} steps; "
        f"residual {last_increment:.3e}"
    )


def test_solver_contraction_metadata(ou):
    sol = value_iteration(ou, 1.0, smooth_h, dt=1.0 / 100.0, dx=1.0 / 100.0)
    assert sol.final_increment <= 1e-10
    assert sol.contraction_factor == pytest.approx(1 - sol.dt / 1.0)
    assert sol.iterations > 10


def test_value_function_is_subsolution(ou, value_function, rng):
    sol = value_function
    tol = 5 * sol.dx
    for _ in range(10):
        a = float(rng.uniform(0.1, 0.6))
        k = int(rng.integers(1, 3))
        w = rng.uniform(0.05, 0.5, size=k)
        rho = ou.point([rng.uniform(-1.5, 1.5)])
        mus = [[rng.uniform(-1.5, 1.5)] for _ in range(k)]
        pair = build_cyl_pair(ou, "dagger", a, affine_phi(w, float(rng.uniform(0, 0.5))),
                              rho, mus)
        rep = check_viscosity(sol.u, pair, smooth_h, 1.0, tol)
        assert rep.passed, rep
        # every reported optimizer is within gap_tol of sup (u - f), recomputed here
        s = sol.u.values - np.array([pair.f(ou.point([x]).values) for x in sol.u.xs])
        at = np.searchsorted(sol.u.xs, rep.optimizers)
        assert np.array_equal(sol.u.xs[at], rep.optimizers)
        assert np.all(s[at] >= s.max() - 1e-6)


def test_value_function_is_supersolution(ou, value_function, rng):
    sol = value_function
    tol = 5 * sol.dx
    for _ in range(10):
        a = float(rng.uniform(0.1, 0.6))
        w = rng.uniform(0.05, 0.5, size=1)
        gamma = ou.point([rng.uniform(-1.5, 1.5)])
        pis = [[rng.uniform(-1.5, 1.5)]]
        pair = build_cyl_pair(ou, "ddagger", a, affine_phi(w), gamma, pis)
        rep = check_viscosity(sol.u, pair, smooth_h, 1.0, tol)
        assert rep.passed, rep


def test_designed_subsolution_failure(ou, value_function):
    xs = value_function.u.xs
    ones = GridFunction(xs, np.ones_like(xs))
    x0 = float(xs[len(xs) // 2 + 7])
    pair = build_cyl_pair(ou, "dagger", 0.5, affine_phi([0.3]), ou.point([x0]),
                          [[x0]])
    rep = check_viscosity(ones, pair, lambda x: np.zeros_like(np.asarray(x)),
                          1.0, tol=5 * value_function.dx)
    assert not rep.passed
    assert rep.slack == pytest.approx(1.0, abs=1e-9)


def test_designed_supersolution_failure(ou, value_function):
    xs = value_function.u.xs
    minus = GridFunction(xs, -np.ones_like(xs))
    x0 = float(xs[len(xs) // 2 - 5])
    pair = build_cyl_pair(ou, "ddagger", 0.5, affine_phi([0.3]), ou.point([x0]),
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
        rho = ou.point([rng.uniform(-1.5, 1.5)])
        mus = [[rng.uniform(-1.5, 1.5)]]
        pair = build_cyl_pair(ou, "dagger", a, affine_phi(w), rho, mus)
        rep = check_viscosity(umin, pair, smooth_h, 1.0, tol=1e-9)
        g_at_opt = min(pair.g(ou.point([x]).values) for x in rep.optimizers)
        if g_at_opt >= 0:
            checked += 1
            assert rep.passed
        else:
            skipped += 1
    assert checked >= 1


def test_supersolution_shift_invariance(ou, value_function, rng):
    sol = value_function
    shifted = GridFunction(sol.u.xs, sol.u.values + 0.8)
    pair = build_cyl_pair(ou, "ddagger", 0.4, affine_phi([0.2]), ou.point([0.5]),
                          [[-0.5]])
    rep = check_viscosity(shifted, pair, smooth_h, 1.0, tol=5 * sol.dx)
    assert rep.passed


def test_check_rejects_wrong_side(ou, value_function):
    # the check takes its side from the pair, so only an unknown side is wrong
    pair = build_cyl_pair(ou, "dagger", 0.4, affine_phi([0.2]), ou.point([0]), [[0.0]])
    wrong = HamiltonianPair(side="up", f=pair.f, g=pair.g)
    with pytest.raises(ValueError, match="unknown side 'up'"):
        check_viscosity(value_function.u, wrong, smooth_h, 1.0, 0.01)
    with pytest.raises(ValueError, match="unknown side 'up'"):
        build_cyl_pair(ou, "up", 0.4, affine_phi([0.2]), ou.point([0]), [[0.0]])


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


def test_policy_iteration_step_cap(ou):
    with pytest.raises(RuntimeError, match="did not converge"):
        solve_resolvent(ou, 1.0, smooth_h, dx=1.0 / 50.0, max_iter=1)


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


def assert_matches_oracle(space, h, **kwargs):
    sol = solve_resolvent(space, 1.0, h, **kwargs)
    u, iterations, increment, residual = oracle_howard(space, 1.0, h, **kwargs)
    assert np.array_equal(sol.u.values, u)
    assert sol.iterations == iterations
    assert sol.final_increment == increment
    assert sol.bellman_residual == residual


ORACLE_CASES = [
    *itertools.product(["ou", "quartic", "double_well"], sorted(H_FAMILIES),
                       [50.0, 200.0], [33, 129], [0.1]),
    ("double_well", "random", 50.0, 129, 0.05),
]


@pytest.mark.parametrize("potential,family,dt_factor,n_controls,dx", ORACLE_CASES)
def test_howard_matches_oracle_bit_for_bit(request, potential, family, dt_factor,
                                           n_controls, dx):
    assert_matches_oracle(request.getfixturevalue(potential), H_FAMILIES[family],
                          dt=1.0 / dt_factor, dx=dx, n_controls=n_controls)


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
