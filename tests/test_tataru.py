import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjflow.spaces import (
    double_well_potential,
    euclidean_space,
    quadratic_potential,
    quantile_space,
    quartic_potential,
)
from hjflow.tataru import (
    GRID_POINTS,
    VALUE_TOL,
    _minimize_over_time,
    d_eps,
    psi_eps,
    psi_eps_prime,
    tataru,
    tataru_eps,
)


def golden_oracle(space, pi, mu, eps, t_cap, grid_points=GRID_POINTS):
    """Scalar reference for the time minimization: the same coarse grid, then
    golden-section search on a hand-written scalar objective around each of the
    three best local grid minima."""
    curve = space.flow_curve(mu)

    def objective(t):
        diff = curve.value_at(t) - pi.values
        dist2 = space.weight * float(np.dot(diff, diff))
        inner = np.sqrt(dist2) if eps is None else float(psi_eps(eps, 0.5 * dist2))
        return t + float(np.exp(space.kappa_hat * t)) * inner

    def golden(a, b, tol=1e-11):
        invphi = (np.sqrt(5.0) - 1.0) / 2.0
        x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
        f1, f2 = objective(x1), objective(x2)
        while b - a > tol:
            if f1 <= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - invphi * (b - a)
                f1 = objective(x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + invphi * (b - a)
                f2 = objective(x2)
        t = 0.5 * (a + b)
        return t, objective(t)

    ts = np.linspace(0.0, t_cap, grid_points)
    vals = np.array([objective(t) for t in ts])
    local = [i for i in range(grid_points)
             if (i == 0 or vals[i] <= vals[i - 1])
             and (i == grid_points - 1 or vals[i] <= vals[i + 1])]
    local.sort(key=lambda i: vals[i])
    candidates = []
    for i in local[:3]:
        candidates.append((ts[i], vals[i]))
        candidates.append(golden(ts[max(i - 1, 0)], ts[min(i + 1, grid_points - 1)]))
    best = min(v for _, v in candidates)
    mins = []
    for t in sorted(t for t, v in candidates if v <= best + VALUE_TOL):
        if not mins or t - mins[-1] > 1e-8:
            mins.append(t)
    return best, np.array(mins)


def test_psi_tagged_values():
    assert psi_eps(0.5, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert psi_eps(0.5, 0.0) == pytest.approx(0.375, abs=1e-15)
    assert psi_eps(0.5, 2.0) == pytest.approx(2.0, abs=1e-15)


def test_psi_rejects_bad_inputs():
    with pytest.raises(ValueError):
        psi_eps(0.0, 1.0)
    with pytest.raises(ValueError):
        psi_eps(0.5, -1.0)
    with pytest.raises(ValueError):
        psi_eps_prime(-1.0, 1.0)


@pytest.mark.parametrize("eps", [1e-4, 1e-2, 0.5])
def test_psi_grid_properties(eps):
    r = np.linspace(0.0, 8.0, 10001)
    vals = psi_eps(eps, r)
    der = psi_eps_prime(eps, r)
    assert np.all(np.diff(vals) > 0)
    assert np.all(der > 0)
    assert np.all(np.diff(der) < 1e-15)
    # sandwich around sqrt(2r) with saturation sqrt(2 eps)
    assert np.all(vals >= np.sqrt(2 * r) - 1e-12)
    assert np.all(vals <= np.maximum(np.sqrt(2 * eps), np.sqrt(2 * r)) + 1e-12)
    assert np.max(np.abs(vals - np.sqrt(2 * r))) <= np.sqrt(2 * eps) + 1e-12


@pytest.mark.parametrize("eps", [1e-4, 1e-2, 0.5])
def test_psi_product_bound(eps):
    r = np.linspace(0.0, 10.0, 5001)
    prod = r * psi_eps_prime(eps, 0.5 * r**2)
    assert np.all(prod >= 0)
    assert np.all(prod <= 1 + 1e-12)


@given(st.floats(min_value=1e-5, max_value=1.0), st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_psi_bounds_hypothesis(eps, r):
    val = psi_eps(eps, r)
    assert np.sqrt(2 * r) - 1e-12 <= val <= max(np.sqrt(2 * eps), np.sqrt(2 * r)) + 1e-12


def test_psi_derivative_matches_finite_difference():
    for eps in (0.03, 0.5):
        for r in (0.0, eps / 2, eps, 2 * eps, 3.0):
            h = 1e-7
            fd = (psi_eps(eps, r + h) - psi_eps(eps, max(r - h, 0.0))) / (h + min(r, h))
            assert psi_eps_prime(eps, r) == pytest.approx(fd, rel=1e-5, abs=1e-5)


def test_d_eps_examples(ou, rng):
    p = ou.point
    assert d_eps(ou, 0.5, p([0]), p([2])) == pytest.approx(2.0)
    x = p([1.0])
    assert d_eps(ou, 0.5, x, x) == pytest.approx(0.375)
    for eps in (1e-4, 1e-2):
        for _ in range(100):
            x, y = ou.sample(rng), ou.sample(rng)
            d = ou.distance(x, y)
            de = d_eps(ou, eps, x, y)
            assert d - 1e-12 <= de <= max(np.sqrt(2 * eps), d) + 1e-12
            assert abs(de - d) <= np.sqrt(2 * eps) + 1e-12


def test_tataru_ou_values(ou):
    p = ou.point
    r1 = tataru(ou, p([0]), p([1]))
    assert r1.value == pytest.approx(1.0, abs=1e-9)
    assert r1.minimizers[0] == pytest.approx(0.0, abs=1e-9)
    r3 = tataru(ou, p([0]), p([3]))
    assert r3.value == pytest.approx(1.0 + np.log(3), abs=1e-9)
    assert r3.minimizers[0] == pytest.approx(np.log(3), abs=1e-6)
    crit = ou.rest_point()
    r0 = tataru(ou, crit, crit)
    assert r0.value == 0.0
    assert r0.minimizers[0] == 0.0


def test_tataru_minimizers_achieve_value(ou, rng):
    for _ in range(20):
        pi, mu = ou.sample(rng), ou.sample(rng)
        res = tataru(ou, pi, mu)
        curve = ou.flow_curve(mu)
        for t in res.minimizers:
            diff = curve.value_at(float(t)) - pi.values
            obj = t + np.exp(ou.kappa_hat * t) * np.sqrt(float(np.dot(diff, diff)))
            assert obj <= res.value + 1e-9
        # grid values dominate the reported value
        ts = np.linspace(0, res.t_cap, 64)
        diffs = curve.values_at(ts) - pi.values[None, :]
        objs = ts + np.exp(ou.kappa_hat * ts) * np.sqrt(np.sum(diffs**2, axis=1))
        assert res.value <= np.min(objs) + 1e-9


def test_tataru_eps_examples(ou):
    crit = ou.rest_point()
    res = tataru_eps(ou, 0.5, crit, crit)
    assert res.value == pytest.approx(0.375, abs=1e-12)
    assert res.minimizers[0] == pytest.approx(0.0, abs=1e-9)
    p = ou.point
    res3 = tataru_eps(ou, 1e-4, p([0]), p([3]))
    assert abs(res3.value - (1 + np.log(3))) <= 2e-2


def test_tataru_eps_rejects_bad_eps(ou):
    with pytest.raises(ValueError):
        tataru_eps(ou, 0.0, ou.point([0]), ou.point([1]))


def test_smoothed_convergence_bound(ou, quantile_ou, rng):
    for space in (ou, quantile_ou):
        for eps in (1e-4, 1e-2):
            for _ in range(25):
                pi, mu = space.sample(rng), space.sample(rng)
                gap = abs(tataru_eps(space, eps, pi, mu).value - tataru(space, pi, mu).value)
                assert gap <= np.sqrt(2 * eps) + 1e-9


def test_lipschitz_in_both_arguments(ou, rng):
    for _ in range(50):
        mu, nu, mu2, nu2 = (ou.sample(rng) for _ in range(4))
        lhs = tataru(ou, mu, nu).value - tataru(ou, mu2, nu2).value
        assert lhs <= ou.distance(mu, mu2) + ou.distance(nu, nu2) + 1e-6


def test_flow_lipschitz(ou, double_well, rng):
    for space, n in ((ou, 30), (double_well, 10)):
        for _ in range(n):
            nu, nu_hat = space.sample(rng), space.sample(rng)
            base = tataru(space, nu, nu_hat).value
            for r in (1e-3, 1e-2, 1e-1):
                moved = space.flow(nu, r)
                assert (tataru(space, moved, nu_hat).value - base) / r <= 1 + 1e-6


def test_triangle_inequality(ou, quantile_ou, rng):
    for space, n in ((ou, 50), (quantile_ou, 15)):
        for _ in range(n):
            rho, mu, nu = (space.sample(rng) for _ in range(3))
            lhs = tataru(space, rho, nu).value
            rhs = tataru(space, rho, mu).value + tataru(space, mu, nu).value
            assert lhs <= rhs + 1e-6


def test_kappa_monotonicity(ou, rng):
    for _ in range(50):
        x, y = ou.sample(rng), ou.sample(rng)
        k2 = float(rng.uniform(-1, 1))
        k1 = k2 - float(rng.uniform(0, 1))
        assert (tataru(ou, x, y, kappa_override=k1).value
                <= tataru(ou, x, y, kappa_override=k2).value + 1e-9)


def test_tataru_double_well_multiwell_minimizers(double_well):
    # flow from a symmetric start stays near the saddle; the objective is
    # still well behaved and the minimizer set is found on the grid
    pi = double_well.point([1.0])
    mu = double_well.point([-1.0])
    res = tataru(double_well, pi, mu)
    assert res.value > 0
    assert res.minimizers.size >= 1


ORACLE_SPACES = {
    "quadratic": euclidean_space(quadratic_potential(1.0)),
    "quartic": euclidean_space(quartic_potential(), sample_radius=1.5),
    "double_well_quantile": quantile_space(double_well_potential(-0.5), grid_size=64),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SPACES))
@pytest.mark.parametrize("eps", [None, 1e-3, 0.3])
def test_zoom_minimization_matches_golden_oracle(name, eps):
    space = ORACLE_SPACES[name]
    rng = np.random.default_rng(20240817)
    for _ in range(12 if space.kind == "euclidean" else 4):
        pi, mu = space.sample(rng), space.sample(rng)
        res = tataru(space, pi, mu) if eps is None else tataru_eps(space, eps, pi, mu)
        value, minimizers = golden_oracle(space, pi, mu, eps, res.t_cap)
        assert abs(res.value - value) <= 1e-10
        assert res.minimizers.shape == minimizers.shape
        assert np.max(np.abs(res.minimizers - minimizers)) <= 1e-6


def test_zoom_refines_every_local_minimum_in_one_batch_per_step():
    # two wells of equal depth at t = 1 and t = 3: both bracket zooms share
    # each batch call and both minimizers are resolved well below the grid step
    calls = []

    def batch(ts):
        calls.append(ts.size)
        return np.minimum(np.square(ts - 1.0), np.square(ts - 3.0))

    res = _minimize_over_time(batch, lambda t: float(batch(np.array([t]))[0]), 4.0)
    assert res.value == pytest.approx(0.0, abs=1e-18)
    assert np.allclose(res.minimizers, [1.0, 3.0], atol=1e-9)
    # one grid call, then zoom steps on both brackets together (width
    # 2 * 4/511 shrinks 16-fold per step, 8 steps to 1e-11), then one scalar
    # value per refined minimum
    assert calls == [GRID_POINTS] + [66] * 8 + [1, 1]
