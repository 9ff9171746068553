import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

import hjflow.tataru as TATARU_MODULE
from hjflow import cli
from hjflow.config import config_from_dict
from hjflow.reporting import Report
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
    ZOOM_POINTS,
    HCurve,
    _minimize,
    _psi_consts,
    logsumexp,
    psi_eps,
    psi_eps_and_prime,
    psi_eps_prime,
    tataru_batch,
)

import precision_helpers as ld
from precision_helpers import assert_kernel_no_worse, pow_free
from row_helpers import d_eps, distance, flow, flow_values, tataru, tataru_eps


def test_logsumexp_matches_scipy():
    rng = np.random.default_rng(17)
    for trial in range(500):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 30)))
        a = rng.normal(scale=rng.uniform(0.1, 50.0), size=shape)
        if trial % 3 == 0:
            a = np.round(a)  # ties at the maximum
        if trial % 4 == 0:
            a[rng.uniform(size=shape) < 0.3] = -np.inf
        if trial % 25 == 0:
            a[0] = -np.inf  # an all -inf row
        for axis in (None, 1, -1):
            want = scipy_logsumexp(a, axis=axis)
            got = logsumexp(a, axis=axis)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want), (a, axis)
        assert logsumexp(a[0]) == scipy_logsumexp(a[0])
    assert logsumexp(np.full(3, -np.inf)) == -np.inf


def golden_oracle(space, pi, mu, eps, t_cap, grid_points=GRID_POINTS):
    """Scalar reference for the time minimization: the same coarse grid, then
    golden-section search on a hand-written scalar objective around each of the
    three best local grid minima."""
    def objective(t):
        diff = flow_values(space, mu, [t])[0] - pi
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
    assert d_eps(ou, 0.5, np.array([0]), np.array([2])) == pytest.approx(2.0)
    x = np.array([1.0])
    assert d_eps(ou, 0.5, x, x) == pytest.approx(0.375)
    for eps in (1e-4, 1e-2):
        for _ in range(100):
            x, y = ou.sample(rng), ou.sample(rng)
            d = distance(ou, x, y)
            de = d_eps(ou, eps, x, y)
            assert d - 1e-12 <= de <= max(np.sqrt(2 * eps), d) + 1e-12
            assert abs(de - d) <= np.sqrt(2 * eps) + 1e-12


def test_tataru_ou_values(ou):
    r1 = tataru(ou, np.array([0]), np.array([1]))
    assert r1.value == pytest.approx(1.0, abs=1e-9)
    assert r1.minimizers[0] == pytest.approx(0.0, abs=1e-9)
    r3 = tataru(ou, np.array([0]), np.array([3]))
    assert r3.value == pytest.approx(1.0 + np.log(3), abs=1e-9)
    assert r3.minimizers[0] == pytest.approx(np.log(3), abs=1e-6)
    crit = np.zeros(ou.size)
    r0 = tataru(ou, crit, crit)
    assert r0.value == 0.0
    assert r0.minimizers[0] == 0.0


def test_tataru_minimizers_achieve_value(ou, rng):
    for _ in range(20):
        pi, mu = ou.sample(rng), ou.sample(rng)
        res = tataru(ou, pi, mu)
        for t in res.minimizers:
            diff = flow_values(ou, mu, [float(t)])[0] - pi
            obj = t + np.exp(ou.kappa_hat * t) * np.sqrt(float(np.dot(diff, diff)))
            assert obj <= res.value + 1e-9
        # grid values dominate the reported value
        ts = np.linspace(0, res.t_cap, 64)
        diffs = flow_values(ou, mu, ts) - pi[None, :]
        objs = ts + np.exp(ou.kappa_hat * ts) * np.sqrt(np.sum(diffs**2, axis=1))
        assert res.value <= np.min(objs) + 1e-9


def test_tataru_eps_examples(ou):
    crit = np.zeros(ou.size)
    res = tataru_eps(ou, 0.5, crit, crit)
    assert res.value == pytest.approx(0.375, abs=1e-12)
    assert res.minimizers[0] == pytest.approx(0.0, abs=1e-9)
    res3 = tataru_eps(ou, 1e-4, np.array([0]), np.array([3]))
    assert abs(res3.value - (1 + np.log(3))) <= 2e-2


def test_tataru_eps_rejects_bad_eps(ou):
    with pytest.raises(ValueError):
        tataru_eps(ou, 0.0, np.array([0]), np.array([1]))


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
        assert lhs <= distance(ou, mu, mu2) + distance(ou, nu, nu2) + 1e-6


def test_flow_lipschitz(ou, double_well, rng):
    for space, n in ((ou, 30), (double_well, 10)):
        for _ in range(n):
            nu, nu_hat = space.sample(rng), space.sample(rng)
            base = tataru(space, nu, nu_hat).value
            for r in (1e-3, 1e-2, 1e-1):
                moved = flow(space, nu, r)
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
    pi = np.array([1.0])
    mu = np.array([-1.0])
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


def _two_wells(ts):
    return np.minimum(np.square(ts - 1.0), np.square(ts - 3.0))


def _one_well(ts):
    return np.abs(ts - 0.01)


def test_zoom_refines_every_local_minimum_in_one_batch_per_step():
    # two wells of equal depth at t = 1 and t = 3: both bracket zooms share
    # each objective call and both minimizers are resolved well below the grid step
    calls = []

    def objective(rows, ts):
        calls.append(ts.size)
        return _two_wells(ts)

    (res,) = _minimize(objective, np.array([4.0]), np.array([4.0]), 1)
    assert res.value == pytest.approx(0.0, abs=1e-18)
    assert np.allclose(res.minimizers, [1.0, 3.0], atol=1e-9)
    # one grid call, then zoom steps on both brackets together (width
    # 2 * 4/511 shrinks 16-fold per step, 8 steps to 1e-11), then one call
    # for the values of both refined minima
    assert calls == [GRID_POINTS] + [66] * 8 + [2]


def test_zoom_stops_each_instance_on_its_own():
    # instance 0 has the two wells on [0, 4] (8 zoom steps); instance 1 has one
    # well on [0, 0.04], whose bracket 2 * 0.04/511 is below 1e-11 after 6 steps
    calls = []
    wells = (_two_wells, _one_well)

    def objective(rows, ts):
        calls.append(ts.shape)
        return np.stack([wells[r](t) for r, t in zip(rows, ts)]).reshape(ts.shape)

    t_caps = np.array([4.0, 0.04])
    both = _minimize(objective, t_caps, t_caps, 1)
    assert calls == ([(2, GRID_POINTS)] + [(3, 33)] * 6 + [(2, 33)] * 2 + [(3, 1)])
    assert np.allclose(both[0].minimizers, [1.0, 3.0], atol=1e-9)
    assert np.allclose(both[1].minimizers, [0.01], atol=1e-9)
    for well, t_cap, res in zip(wells, (4.0, 0.04), both):
        (alone,) = _minimize(lambda rows, ts, well=well: well(ts), np.array([t_cap]),
                             np.array([t_cap]), 1)
        assert res.value == alone.value
        assert np.array_equal(res.minimizers, alone.minimizers)
        assert res.t_cap == alone.t_cap


def per_instance_rows(cfg) -> list:
    """Oracle: the tataru suite's rows from the per-instance loop, one tataru
    call per (pi, mu, kappa) triple, interleaved with the sampling."""
    space = cfg.space.build()
    rng = np.random.default_rng([cfg.seed, cli.SUITE_IDS["tataru"]])
    rep = Report(name="tataru")
    tol = 1e-6
    n = cfg.tataru.instances
    for i in range(n):
        mu1, nu1 = space.sample(rng), space.sample(rng)
        mu2, nu2 = space.sample(rng), space.sample(rng)
        lhs = tataru(space, mu1, nu1).value - tataru(space, mu2, nu2).value
        bound = distance(space, mu1, mu2) + distance(space, nu1, nu2)
        rep.check("lipschitz", i, lhs, bound + tol)
    for i in range(n):
        nu, nu_hat = space.sample(rng), space.sample(rng)
        base = tataru(space, nu, nu_hat).value
        worst = -np.inf
        for r in (1e-3, 1e-2, 1e-1):
            moved = flow(space, nu, r)
            rate = (tataru(space, moved, nu_hat).value - base) / r
            worst = max(worst, rate)
        rep.check("flow_lipschitz", i, worst, 1.0 + tol)
    for i in range(n):
        rho, mid, nu = space.sample(rng), space.sample(rng), space.sample(rng)
        lhs = tataru(space, rho, nu).value
        rhs = tataru(space, rho, mid).value + tataru(space, mid, nu).value
        rep.check("triangle", i, lhs, rhs + tol)
    for i in range(n):
        x, y = space.sample(rng), space.sample(rng)
        k2 = float(rng.uniform(-1.0, 1.0))
        k1 = k2 - float(rng.uniform(0.0, 1.0))
        lo = tataru(space, x, y, kappa_override=k1).value
        hi = tataru(space, x, y, kappa_override=k2).value
        rep.check("kappa_monotone", i, lo, hi + 1e-9)
    return rep.rows


_QUANTILE_PI = np.sort(np.random.default_rng(3).uniform(-2.0, 2.0, 64)).tolist()
_QUANTILE_MU = np.sort(np.random.default_rng(4).uniform(-2.0, 2.0, 64)).tolist()
SUITE_CONFIGS = {
    # 12 instances give 133 triples: grid calls of about 42 cut grids of some
    # 390 times, and one zoom call per step
    "quadratic_1d": {"space": {"potential": "quadratic", "kappa": 1.0},
                     "tataru": {"instances": 12}},
    # grid calls of up to 14 instances, one zoom call per step
    "quartic_3d": {"space": {"potential": "quartic", "size": 3, "sample_radius": 1.5},
                   "tataru": {"instances": 12, "pi": [0.0, 0.5, -1.0], "mu": [1.0, 2.0, 3.0]}},
    # grid calls of one to four instances, zoom calls of up to 15 brackets
    "double_well_quantile": {"space": {"kind": "quantile", "potential": "double_well",
                                       "kappa": -0.5, "size": 64},
                             "tataru": {"instances": 2, "pi": _QUANTILE_PI,
                                        "mu": _QUANTILE_MU}},
}


@pytest.mark.parametrize("name", sorted(SUITE_CONFIGS))
def test_batched_tataru_suite_matches_per_instance_oracle(name, tmp_path):
    cfg = config_from_dict({"seed": 19, **SUITE_CONFIGS[name]})
    rows = cli.run_tataru(cfg, tmp_path).rows
    assert len(rows) == 4 * cfg.tataru.instances
    assert rows == per_instance_rows(cfg)


@pytest.mark.parametrize("name", sorted(SUITE_CONFIGS))
def test_batched_tataru_suite_is_independent_of_block_size(name, monkeypatch, tmp_path):
    cfg = config_from_dict({"seed": 19, **SUITE_CONFIGS[name]})
    oracle = per_instance_rows(cfg)
    # seven full grids' times per call: grid calls of about 9 instances and zoom
    # calls of 108 brackets on the euclidean spaces, grid calls of 19 and 4
    # instances and one zoom call per step on the quantile space
    size = cfg.space.build().size
    monkeypatch.setattr(TATARU_MODULE, "BLOCK_ELEMENTS", 7 * GRID_POINTS * size)
    assert cli.run_tataru(cfg, tmp_path).rows == oracle


@pytest.mark.parametrize("eps", [None, 1e-3, 0.3])
def test_tataru_batch_matches_single_calls(eps, monkeypatch):
    space = euclidean_space(quartic_potential(), dim=3, sample_radius=1.5)
    rng = np.random.default_rng(5)
    pis = [space.sample(rng) for _ in range(23)]
    mus = [space.sample(rng) for _ in range(23)]
    kappas = [None if i % 3 else float(rng.uniform(-1.0, 1.0)) for i in range(23)]
    monkeypatch.setattr(TATARU_MODULE, "BLOCK_ELEMENTS", 4 * GRID_POINTS * space.size)
    batch = tataru_batch(space, np.stack(pis), np.stack(mus), kappas, eps=eps)
    for pi, mu, kappa, res in zip(pis, mus, kappas, batch):
        alone = (tataru(space, pi, mu, kappa) if eps is None
                 else tataru_eps(space, eps, pi, mu, kappa))
        assert res.value == alone.value
        assert np.array_equal(res.minimizers, alone.minimizers)
        assert res.t_cap == alone.t_cap


def test_tataru_batch_rejects_mismatched_inputs(ou):
    with pytest.raises(ValueError, match="same length"):
        tataru_batch(ou, [[0.0]], [[1.0], [2.0]])
    with pytest.raises(ValueError, match="positive"):
        tataru_batch(ou, [[0.0]], [[1.0]], eps=0.0)
    with pytest.raises(ValueError, match="one per instance"):
        tataru_batch(ou, [[0.0], [1.0]], [[1.0], [2.0]], eps=[0.1, 0.2, 0.3])
    # a NaN or infinite kappa would give the value inf with no minimizer, above
    # F(0) = d(pi, mu) = 3
    for kappa in (np.nan, -np.inf, np.inf):
        with pytest.raises(ValueError, match="finite"):
            tataru_batch(ou, [[0.0]], [[3.0]], [kappa])
        with pytest.raises(ValueError, match="finite"):
            tataru_batch(ou, [[0.0], [0.0]], [[3.0], [1.0]], [None, kappa], eps=0.1)
    assert tataru_batch(ou, np.empty((0, 1)), np.empty((0, 1))) == []
    assert tataru_batch(ou, np.empty((0, 1)), np.empty((0, 1)), [], eps=[]) == []


@pytest.mark.parametrize("eps", [None, 0.1])
def test_tataru_batch_rejects_an_infinite_distance(ou, eps):
    # d(pi, mu)^2 overflows: the search cap would be inf and the grid empty
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"D\(pi, mu\) must be finite"):
            tataru_batch(ou, [[1e200]], [[0.0]], eps=eps)
        with pytest.raises(ValueError, match=r"D\(pi, mu\) must be finite"):
            tataru_batch(ou, [[0.0], [1e200]], [[1.0], [0.0]], eps=eps)


def assert_same_results(got, want):
    assert len(got) == len(want)
    for res, alone in zip(got, want):
        assert res.value == alone.value
        assert np.array_equal(res.minimizers, alone.minimizers)
        assert res.t_cap == alone.t_cap


QUANTILE_64 = quantile_space(double_well_potential(-0.5), grid_size=64)


@pytest.mark.parametrize("eps_mode", ["none", "one", "each"])
@pytest.mark.parametrize("grids", [1, 3])
def test_tataru_batch_on_quantile_space_matches_single_calls(eps_mode, grids, monkeypatch):
    # grids 1: the 2**14 default, one full grid's times per call, so the grid
    # calls hold the cut grids of a few instances and the zoom calls 15
    # brackets; grids 3: three full grids' times, 46 brackets per zoom call
    space = QUANTILE_64
    if grids > 1:
        monkeypatch.setattr(TATARU_MODULE, "BLOCK_ELEMENTS", grids * GRID_POINTS * space.size)
    cap = max(TATARU_MODULE.BLOCK_ELEMENTS, GRID_POINTS * space.size)
    assert cap // (GRID_POINTS * space.size) == grids
    assert cap // (ZOOM_POINTS * space.size) == (15 if grids == 1 else 46)
    rng = np.random.default_rng(31)
    n = 7
    mus = [space.sample(rng) for _ in range(n)]
    # odd instances put pi on the flow of mu, where d^2/2 falls below eps and
    # psi_eps takes its quadratic branch
    pis = [flow(space, mu, float(rng.uniform(0.5, 3.0))) if i % 2 else space.sample(rng)
           for i, mu in enumerate(mus)]
    kappas = [None if i % 3 else float(rng.uniform(-1.0, 0.5)) for i in range(n)]
    eps = {"none": [None] * n, "one": [0.2] * n,
           "each": rng.uniform(0.05, 0.7, size=n).tolist()}[eps_mode]
    arg = {"none": None, "one": 0.2, "each": eps}[eps_mode]
    batch = tataru_batch(space, np.stack(pis), np.stack(mus), kappas, eps=arg)
    singles = [tataru(space, pi, mu, k) if e is None else tataru_eps(space, e, pi, mu, k)
               for pi, mu, k, e in zip(pis, mus, kappas, eps)]
    assert_same_results(batch, singles)


@pytest.mark.parametrize("eps", [None, np.array((0.05, 0.3, 0.7, 0.3, 0.05))])
def test_minimize_grid_chunks_match_one_grid_call(eps):
    space = QUANTILE_64
    rng = np.random.default_rng(8)
    n = 5
    mus = [space.sample(rng) for _ in range(n)]
    pis = [flow(space, mu, float(rng.uniform(0.5, 3.0))) if i % 2 else space.sample(rng)
           for i, mu in enumerate(mus)]
    kappa_hats = np.full(n, space.kappa_hat)
    t_caps = np.array([distance(space, p, m) + 1.0 for p, m in zip(pis, mus)])
    pis, mus = np.stack(pis), np.stack(mus)

    def objective(lo, hi):
        curve = HCurve(space, pis[lo:hi], mus[lo:hi], None if eps is None else eps[lo:hi],
                       kappa_hats[lo:hi])
        return lambda rows, ts: ts + curve.h(ts, rows)

    # the objective at t = 0 bounds each grid, so call-mates run grids of
    # different lengths, padded to the longest
    bounds = HCurve(space, pis, mus, eps, kappa_hats).d0()
    # reference: every instance minimized alone, with an objective of its own
    alone = [_minimize(objective(i, i + 1), t_caps[i:i + 1], bounds[i:i + 1], space.size)[0]
             for i in range(n)]
    assert all(np.isfinite(res.value) and res.minimizers.size for res in alone)
    # size only sets the times per call: GRID_POINTS, twice that, and all n grids
    for size in (space.size, 16, 1):
        assert_same_results(_minimize(objective(0, n), t_caps, bounds, size), alone)


def spied_calls(monkeypatch) -> list:
    """(rows, ts shape) of every objective call that ``_minimize`` makes from now on."""
    calls = []
    minimize = TATARU_MODULE._minimize

    def spy(objective, t_caps, bounds, size):
        def seen(rows, ts):
            calls.append((rows.copy(), ts.shape))
            return objective(rows, ts)
        return minimize(seen, t_caps, bounds, size)

    monkeypatch.setattr(TATARU_MODULE, "_minimize", spy)
    return calls


def assert_packed_calls(calls, n, widths, size):
    """The objective calls of one n-instance minimization: grid calls over consecutive
    instances, each as long as the bound lets it be, then zoom calls (ZOOM_POINTS
    times per bracket) and final calls (one), each on whole instances; no call holds
    more than max(BLOCK_ELEMENTS, GRID_POINTS * size) flow elements.  Returns the
    zoom calls' rows."""
    cap = max(TATARU_MODULE.BLOCK_ELEMENTS, GRID_POINTS * size)
    assert all(np.prod(shape) * size <= cap for _, shape in calls)
    grid, lo = 0, 0
    while lo < n:
        rows, shape = calls[grid]
        assert np.array_equal(rows, np.arange(lo, lo + rows.size))
        assert shape == (rows.size, widths[rows].max())
        lo, grid = lo + rows.size, grid + 1
        if lo < n:  # the next instance would overflow the call
            assert (rows.size + 1) * widths[rows[0]:lo + 1].max() * size > cap
    rest = calls[grid:]
    final = [rows for rows, shape in rest if shape[1] == 1]
    zoom = len(rest) - len(final)
    assert [shape[1] for _, shape in rest] == [ZOOM_POINTS] * zoom + [1] * len(final)
    brackets = np.bincount(np.concatenate(final), minlength=n)
    assert np.all(brackets >= 1)
    for rows, _ in rest:
        # no call splits the brackets of one instance
        assert np.array_equal(np.bincount(rows, minlength=n)[rows], brackets[rows])
    return [rows for rows, _ in rest[:zoom]]


@pytest.mark.parametrize("eps_mode", ["none", "one", "each"])
@pytest.mark.parametrize("space", [
    euclidean_space(quadratic_potential(1.0)),
    euclidean_space(quartic_potential(), dim=3, sample_radius=1.5),
    QUANTILE_64,
], ids=["ou", "quartic_3d", "double_well_quantile"])
def test_objective_calls_are_bounded_and_keep_instances_whole(space, eps_mode, monkeypatch):
    # enough instances that the first zoom step takes more than one call
    n = {1: 700, 3: 240, 64: 34}[space.size]
    rng = np.random.default_rng(23)
    mus = space.sample(rng, (n,))
    pis = np.stack([flow(space, mu, float(rng.uniform(0.05, 2.0))) if i % 3 == 1
                    else space.sample(rng) for i, mu in enumerate(mus)])
    kappas = [float(rng.uniform(-1.0, 1.0)) if i % 4 == 2 else None for i in range(n)]
    eps = {"none": None, "one": 0.2, "each": rng.uniform(0.05, 0.7, size=n)}[eps_mode]
    calls = spied_calls(monkeypatch)
    tataru_batch(space, pis, mus, kappas, eps=eps)
    d0 = HCurve(space, pis, mus, eps).d0()
    widths = np.minimum(TATARU_MODULE._grid_last(d0 + 1.0, d0) + 2, GRID_POINTS)
    zoom = assert_packed_calls(calls, n, widths, space.size)
    assert zoom[0].size < n  # every instance has a bracket


def test_zoom_calls_keep_two_bracket_instances_whole():
    # instances with two wells (two brackets) and with one, at the 15 brackets per
    # zoom call of a 64-point space: runs end before an instance that would not fit
    calls = []
    wells = (_two_wells, _one_well)
    n = 40

    def objective(rows, ts):
        calls.append((rows.copy(), ts.shape))
        return np.stack([wells[r % 2 if r % 5 else 0](t) for r, t in zip(rows, ts)])

    t_caps = np.where(np.arange(n) % 2 & (np.arange(n) % 5 > 0), 0.04, 4.0)
    results = _minimize(objective, t_caps, t_caps, 64)
    assert_packed_calls(calls, n, np.full(n, GRID_POINTS), 64)
    zoom = [rows for rows, shape in calls if shape[1] == ZOOM_POINTS]
    assert max(rows.size for rows in zoom) == 15
    assert any(rows.size == 14 for rows in zoom)
    for i, res in enumerate(results):
        assert np.allclose(res.minimizers, [1.0, 3.0] if t_caps[i] == 4.0 else [0.01], atol=1e-9)


def test_curved_flows_tataru_suite_packs_its_grids(monkeypatch, tmp_path):
    # the tataru suite on the 64-point double well at 3 instances minimizes
    # 34 triples; one grid per call would make 34 grid calls
    rng = np.random.default_rng(7)
    cfg = config_from_dict({
        "seed": 7, "space": {"kind": "quantile", "potential": "double_well", "kappa": -0.5,
                             "size": 64},
        "tataru": {"instances": 3, "pi": np.sort(rng.uniform(-2.0, 2.0, 64)).tolist(),
                   "mu": np.sort(rng.uniform(-2.0, 2.0, 64)).tolist()}})
    calls = spied_calls(monkeypatch)
    cli.run_tataru(cfg, tmp_path)
    grid, covered = 0, 0
    while covered < 34:  # the grid calls come first and cover each triple once
        covered, grid = covered + calls[grid][0].size, grid + 1
    assert covered == 34 and calls[grid][1][1] == ZOOM_POINTS
    assert grid <= 10


def test_psi_eps_and_prime_equal_both_functions():
    rng = np.random.default_rng(12)
    for eps in (1e-4, 0.05, 0.5, 3.0):
        r = np.concatenate((rng.uniform(0.0, 2.0 * eps, 500), rng.uniform(0.0, 10.0, 500),
                            [0.0, eps, np.nextafter(eps, 0.0), np.nextafter(eps, 1.0)]))
        for arg in (r, r.reshape(4, -1), float(r[3]), eps):
            value, prime = psi_eps_and_prime(eps, arg)
            assert np.array_equal(value, psi_eps(eps, arg))
            assert np.array_equal(prime, psi_eps_prime(eps, arg))
    with pytest.raises(ValueError, match="positive"):
        psi_eps_and_prime(0.0, 1.0)
    with pytest.raises(ValueError, match="r >= 0"):
        psi_eps_and_prime(0.5, -1.0)


def test_flow_objective_with_eps_per_instance_equals_scalar_psi():
    # each row takes the bits of psi_eps with its own eps on its quadratic
    # branch, where the cube (2 eps)^{3/2} counts; short times keep t + psi
    # from rounding a difference away
    space = QUANTILE_64
    rng = np.random.default_rng(9)
    eps = rng.uniform(0.05, 0.7, size=16).tolist()
    n = len(eps)
    mus = [space.sample(rng) for _ in range(n)]
    pis = [flow(space, mu, float(rng.uniform(1e-3, 1e-2))) for mu in mus]
    curve = HCurve(space, np.stack(pis), np.stack(mus), eps, [space.kappa_hat] * n)
    rows = np.concatenate((np.arange(n), [3, 0]))
    ts = np.tile(np.linspace(0.0, 0.02, 257), (rows.size, 1))
    got = ts + curve.h(ts, rows)
    for k, i in enumerate(rows):
        dist2 = space.sq_dist(flow_values(space, mus[i], ts[k]), pis[i])
        assert np.all(0.5 * dist2 <= eps[i])
        want = ts[k] + np.exp(space.kappa_hat * ts[k]) * psi_eps(eps[i], 0.5 * dist2)
        assert np.array_equal(got[k], want)


# ---------------------------------------------------------------------------
# the psi constants and T_cap against long double, and without libm pow
# ---------------------------------------------------------------------------


def test_psi_consts_no_worse_than_cubing_the_root(monkeypatch):
    # (2 eps) sqrt(2 eps) reads at most 1.3 ulp from the exact cube, the pow
    # of the rounded root 2.9 ulp
    rng = np.random.default_rng(13)
    eps = np.concatenate((rng.uniform(1e-4, 1.0, 20000), 10.0 ** rng.uniform(-8.0, 3.0, 2000)))
    old = np.array([ld.old_psi_consts(e) for e in eps]).T
    got = _psi_consts(pow_free(monkeypatch, eps))
    for new, was, ref in zip(got, old, ld.psi_consts(eps)):
        assert new.shape == eps.shape
        assert_kernel_no_worse(new, was, ref)
    assert np.array_equal(got[0], eps) and np.array_equal(got[1], old[1])
    with pytest.raises(ValueError, match="positive"):
        _psi_consts([0.1, np.nan])


@pytest.mark.parametrize("space", [
    euclidean_space(quadratic_potential(1.0)),
    euclidean_space(quartic_potential(), dim=3, sample_radius=1.5),
    QUANTILE_64,
], ids=["ou", "quartic_3d", "double_well_quantile"])
def test_t_cap_no_worse_than_squaring_the_distance_back(space):
    rng = np.random.default_rng(14)
    n = 4000
    pis = np.stack([space.sample(rng) for _ in range(n)])
    mus = np.stack([space.sample(rng) for _ in range(n)])
    sq = space.sq_dist(pis, mus)
    eps = 0.5 * sq * np.exp(rng.uniform(-1.0, 1.0, n))  # half the instances on each branch
    assert 0.4 * n < np.sum(0.5 * sq > eps) < 0.6 * n
    old = ld.old_t_cap(space, pis, mus, np.array([ld.old_psi_consts(e) for e in eps]).T)
    ld.assert_t_cap(HCurve(space, pis, mus, eps).t_cap(), old, sq, eps)


@pytest.mark.parametrize("eps", [None, 0.2, "each"])
def test_tataru_batch_calls_no_libm_pow(eps, monkeypatch):
    space = euclidean_space(quartic_potential(), dim=3, sample_radius=1.5)
    rng = np.random.default_rng(15)
    pis = np.stack([space.sample(rng) for _ in range(6)])
    mus = np.stack([space.sample(rng) for _ in range(6)])
    if eps == "each":
        eps = rng.uniform(0.05, 0.7, size=6)
    want = tataru_batch(space, pis, mus, eps=eps)
    pis, mus = pow_free(monkeypatch, pis, mus)
    if eps is not None:
        eps = pow_free(monkeypatch, eps)
    assert_same_results(tataru_batch(space, pis, mus, eps=eps), want)
