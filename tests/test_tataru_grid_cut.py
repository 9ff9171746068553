"""The coarse grid of the Tataru minimization stops past D(pi, mu) + VALUE_TOL.

F(t) = t + h(t) >= t and F(0) = D, so a grid bracket whose left end lies
beyond D + VALUE_TOL cannot hold the value or a minimizer.  ``full_grid_brackets``
keeps the full-grid ``tataru._grid_brackets`` as the oracle: every result must
equal its result bit for bit.
"""

import numpy as np
import pytest

import hjflow.tataru as TATARU_MODULE
from hjflow.spaces import (
    double_well_potential,
    euclidean_space,
    quadratic_potential,
    quantile_space,
    quartic_potential,
)
from hjflow.tataru import GRID_POINTS, VALUE_TOL, HCurve, _minimize, tataru_batch

from row_helpers import distance, flow


def full_grid_brackets(objective, rows, t_caps, last):
    """Oracle: the brackets of the three lowest local minima of the full grid,
    whatever the last useful points."""
    ts = np.linspace(0.0, t_caps, GRID_POINTS, axis=1)
    vals = objective(rows, ts)
    edge = np.full((rows.size, 1), np.inf)
    padded = np.concatenate((edge, vals, edge), axis=1)
    inst, at = ((vals <= padded[:, :-2]) & (vals <= padded[:, 2:])).nonzero()
    by_value = np.lexsort((vals[inst, at], inst))  # stable: ties stay in grid order
    inst, at = inst[by_value], at[by_value]
    rank = np.arange(inst.size) - inst.searchsorted(inst)
    top = rank < 3
    inst, at, rank = inst[top], at[top], rank[top]
    return (rows[inst], rank, ts[inst, at], vals[inst, at],
            ts[inst, np.maximum(at - 1, 0)], ts[inst, np.minimum(at + 1, GRID_POINTS - 1)])


def full_grid(monkeypatch, call):
    """call() with the grid of every instance run to its T_cap."""
    with monkeypatch.context() as m:
        m.setattr(TATARU_MODULE, "_grid_brackets", full_grid_brackets)
        return call()


def assert_same_results(got, want):
    assert len(got) == len(want)
    for res, full in zip(got, want):
        assert res.value == full.value
        assert np.array_equal(res.minimizers, full.minimizers)
        assert res.t_cap == full.t_cap


SPACES = {
    "ou": euclidean_space(quadratic_potential(1.0)),
    "quartic": euclidean_space(quartic_potential(), sample_radius=1.5),
    "double_well": euclidean_space(double_well_potential(-0.5), sample_radius=1.5),
    "quartic_3d": euclidean_space(quartic_potential(), dim=3, sample_radius=1.5),
    "quantile_ou": quantile_space(quadratic_potential(1.0), grid_size=8),
}


def instances(space, rng, n):
    """(pis, mus, kappas): every third pi lies on the flow of its mu, so its
    minimum sits at t > 0, close below D; every fourth kappa is overridden."""
    mus = [space.sample(rng) for _ in range(n)]
    pis = [flow(space, mu, float(rng.uniform(0.05, 2.0))) if i % 3 == 1 else space.sample(rng)
           for i, mu in enumerate(mus)]
    kappas = [float(rng.uniform(-1.0, 1.0)) if i % 4 == 2 else None for i in range(n)]
    return np.stack(pis), np.stack(mus), kappas


@pytest.mark.parametrize("name", sorted(SPACES))
@pytest.mark.parametrize("eps", [None, 1e-3, 0.3])
def test_grid_cut_matches_full_grid_oracle(name, eps, monkeypatch):
    space = SPACES[name]
    pis, mus, kappas = instances(space, np.random.default_rng(41), 40)
    got = tataru_batch(space, pis, mus, kappas, eps=eps)
    want = full_grid(monkeypatch, lambda: tataru_batch(space, pis, mus, kappas, eps=eps))
    assert_same_results(got, want)
    assert any(res.minimizers[0] > 0.0 for res in got)


@pytest.mark.parametrize("name", sorted(SPACES))
@pytest.mark.parametrize("eps", [None, 1e-3, 0.3])
def test_objective_at_zero_is_the_bound(name, eps):
    # the cut rests on best <= F(0) = D: the grid value at t = 0 is D bit for bit
    space = SPACES[name]
    pis, mus, kappas = instances(space, np.random.default_rng(43), 40)
    kappa_hats = [min(space.kappa if k is None else k, 0.0) for k in kappas]
    curve = HCurve(space, pis, mus, None if eps is None else np.full(40, eps), kappa_hats)
    zeros = np.zeros((40, 1))
    assert np.array_equal((zeros + curve.h(zeros))[:, 0], curve.d0())
    assert np.array_equal(curve.t_cap(), curve.d0() + 1.0)


def test_minimum_in_the_last_grid_step_before_d(ou, monkeypatch):
    # pi = 1, mu = 1.03 under mu e^{-t}: F(t) = t + |1.03 e^{-t} - 1| is smallest
    # at log(1.03), 4.4e-4 below D = 0.03 and in the same grid step, so the grid
    # minimum is the last grid point within D; a grid that stops one step
    # before D finds only F at that point, 8e-7 too high
    pi, mu = np.array([1.0]), np.array([1.03])
    (res,) = tataru_batch(ou, [pi], [mu])
    step = res.t_cap / (GRID_POINTS - 1)
    t_star, d = np.log(1.03), distance(ou, pi, mu)
    k = int(t_star // step)
    assert k == int(d // step) == 14
    assert t_star - k * step > 0.5 * step
    assert res.value == pytest.approx(t_star, abs=1e-10)
    # F - t_star grows like (t_star - t)^2 / 2 on the left: t is known to ~1e-8
    np.testing.assert_allclose(res.minimizers, [t_star], atol=1e-8)
    assert_same_results([res], full_grid(monkeypatch, lambda: tataru_batch(ou, [pi], [mu])))


def test_grid_stops_one_point_past_the_last_useful_bracket(ou, monkeypatch):
    # D = 3 on [0, 4]: the grid points j * 4/511 <= 3 + VALUE_TOL are j <= 383,
    # the bracket of 384 starts within D, and 385 is its right neighbour: 386
    # of 512 times.  D = 1 on [0, 2]: j <= 255, so 258 times.
    shapes = []
    h = HCurve.h

    def spy(self, ts, rows=None):
        shapes.append(ts.shape)
        return h(self, ts, rows)

    monkeypatch.setattr(HCurve, "h", spy)
    pis, mus = np.zeros((2, 1)), np.array([[3.0], [1.0]])
    assert [distance(ou, p, m) for p, m in zip(pis, mus)] == [3.0, 1.0]
    for rows, grid in ((slice(0, 1), (1, 386)), (slice(1, 2), (1, 258)), (slice(0, 2), (2, 386))):
        shapes.clear()
        tataru_batch(ou, pis[rows], mus[rows])
        assert shapes[0] == grid


def test_bracket_starting_within_the_bound_is_kept():
    # F(t) = t + min(D, 10 |t - t_star|) with F(0) = D = 1.0015 on [0, 2]: the
    # grid point 256 (1.00196) lies past D, but its bracket starts at 255
    # (0.99804) and holds the dip t_star = 1.001, the minimum; the grid minimum
    # at 0 is D
    d, t_star = 1.0015, 1.001
    t_caps, bounds = np.array([2.0]), np.array([d])

    def objective(rows, ts):
        return ts + np.minimum(d, 10.0 * np.abs(ts - t_star))

    ts = np.linspace(0.0, 2.0, GRID_POINTS)
    assert ts[255] <= d < ts[256] and objective(None, ts[None, :256])[0, 0] == d
    (res,) = _minimize(objective, t_caps, bounds, 1)
    assert res.value == pytest.approx(t_star, abs=1e-10)
    np.testing.assert_allclose(res.minimizers, [t_star], atol=1e-9)
    (full,) = _minimize(objective, t_caps, t_caps, 1)
    assert res.value == full.value and np.array_equal(res.minimizers, full.minimizers)
    assert res.value < d - VALUE_TOL


def linspace_last(t_caps, bounds):
    """Oracle: the grid's own count of times within bound + VALUE_TOL, at most
    GRID_POINTS - 1, from the full (n, GRID_POINTS) grid."""
    ts = np.linspace(0.0, t_caps, GRID_POINTS, axis=1)
    return np.minimum((ts <= (bounds + VALUE_TOL)[:, None]).sum(axis=1), GRID_POINTS - 1)


def assert_last_matches_linspace(t_caps, bounds):
    got = TATARU_MODULE._grid_last(t_caps, bounds)
    assert got.dtype.kind == "i"
    np.testing.assert_array_equal(got, linspace_last(t_caps, bounds))


@pytest.mark.parametrize("name", sorted(SPACES))
@pytest.mark.parametrize("eps", [None, 1e-12, 1e-3, 0.3, 1e3])
def test_grid_last_matches_linspace_count(name, eps):
    # pi = mu (D = 0, or psi_eps(0) with eps), pi on the flow of mu, random
    # pairs and far pairs; eps tiny and large
    space = SPACES[name]
    rng = np.random.default_rng(47)
    pis, mus, _ = instances(space, rng, 300)
    pis[::5] = mus[::5]
    pis[1::7] = mus[1::7] + 40.0 * np.sign(rng.uniform(-1.0, 1.0, pis[1::7].shape))
    pis = space.rows(np.sort(pis) if space.kind == "quantile" else pis)
    d0 = HCurve(space, pis, mus, None if eps is None else np.full(300, eps)).d0()
    assert np.any(d0[::5] == d0.min())
    assert_last_matches_linspace(d0 + 1.0, d0)


def test_grid_last_on_and_beside_grid_points():
    # bounds with bound + VALUE_TOL exactly on a grid time j * step, and one ulp
    # either side of that bound; any t_cap, j from 0 to GRID_POINTS - 1
    rng = np.random.default_rng(53)
    t_caps = np.concatenate((rng.uniform(1.0, 6.0, 4000), 10.0 ** rng.uniform(0.0, 8.0, 4000)))
    j = rng.integers(0, GRID_POINTS, t_caps.size)
    times = np.linspace(0.0, t_caps, GRID_POINTS, axis=1)[np.arange(t_caps.size), j]
    bounds = times - VALUE_TOL
    on = bounds + VALUE_TOL == times
    assert on.sum() > 1000
    for b in (bounds, np.nextafter(bounds, -np.inf), np.nextafter(bounds, np.inf)):
        assert_last_matches_linspace(t_caps, b)
    assert_last_matches_linspace(t_caps[on], bounds[on])


def test_grid_last_when_every_grid_time_counts():
    # D large against 1: every grid time before t_cap = D + 1 lies within D, so
    # the last useful point is GRID_POINTS - 1; D = t_cap counts t_cap too
    d = np.array([0.0, 1e-300, 509.0, 510.0, 511.0, 1e3, 1e6, 1e12, 1e300])
    assert_last_matches_linspace(d + 1.0, d)
    assert list(TATARU_MODULE._grid_last(d + 1.0, d)[-4:]) == [GRID_POINTS - 1] * 4
    t_caps = np.array([1.0, 2.0, 3.5])
    assert_last_matches_linspace(t_caps, t_caps)
    assert list(TATARU_MODULE._grid_last(t_caps, t_caps)) == [GRID_POINTS - 1] * 3


def test_full_grid_ends_at_t_cap_itself():
    # F(t) = -t is least at t_cap, where np.linspace puts t_cap itself, not
    # 511 * (t_cap / 511), one ulp off for the first two t_caps
    t_caps = np.array([1.9962, 1.9964, 4.0])
    assert list((GRID_POINTS - 1) * (t_caps / (GRID_POINTS - 1)) != t_caps) == [True, True, False]
    results = _minimize(lambda rows, ts: -ts, t_caps, t_caps, 1)
    for res, t_cap in zip(results, t_caps):
        assert res.value == -t_cap
