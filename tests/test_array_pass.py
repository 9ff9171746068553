"""The sampled checks draw all their instances first and evaluate them in one
array pass.  These tests hold each pass to the per-sample loop it replaced,
kept here as an oracle that calls the same builders and kernels on one
instance at a time: every row must be equal, tuple for tuple, with ``==``.
They also pin the row kernels against the expressions they replaced, and count
builder, curve and flow calls so that a per-sample loop cannot come back.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import hjflow.evi
import hjflow.hamiltonians
from hjflow.cylinders import Affine, SoftminPsi, TruncatedAffine
from hjflow.evi import (
    _contraction,
    _damped_distance_bound,
    _distance_growth,
    _growth_rhs,
    _slope_decay,
    energy_identity_residual,
    evi_residual,
    run_evi_suite,
    suite_time_horizon,
)
from hjflow.hamiltonians import (
    build_chain_pair,
    build_cyl_pair,
    build_h0_pair,
    chain_inequality_report,
    composite_phi_for_push,
)
from hjflow.spaces import (
    ModelSpace,
    double_well_potential,
    euclidean_space,
    quadratic_potential,
    quantile_space,
    quartic_potential,
)
from hjflow.tataru import BLOCK_ELEMENTS

SPACES = ("ou", "quartic", "double_well", "quantile_ou")
SEEDS = (3, 17, 2024)


# ---------------------------------------------------------------------------
# the per-sample loops, as the suites ran them
# ---------------------------------------------------------------------------


def loop_evi_suite(space, rng, instances, delta=1e-4):
    """(rows, max residual, worst case) of ``run_evi_suite`` as a loop over instances."""
    tol_evi = 10 * delta
    tol_other = 1e-3
    t_max = suite_time_horizon(space)
    rows = []
    worst = (-math.inf, None)
    for i in range(instances):
        x = space.sample(rng)
        rho = space.sample(rng)
        t = float(rng.uniform(0.0, min(t_max, 5.0)))
        times = np.linspace(0.0, t_max, 9)[1:]

        res = float(evi_residual(space, x, rho, t, delta))
        rows.append(("evi_residual", i, res, tol_evi))
        if res > worst[0]:
            worst = (res, (x, t, rho))

        cx = space.flow_values(x, times)
        crho = space.flow_values(rho, times)
        growth = _growth_rhs(space, x, rho, times)

        v = float(_contraction(space, x, rho, times, cx, crho))
        rows.append(("contraction", i, v, tol_other))

        v = float(energy_identity_residual(space, x, np.linspace(0.0, 1.0, 2001)))
        rows.append(("energy_identity", i, v, tol_other))

        v = float(_slope_decay(space, x, times, cx))
        rows.append(("slope_decay", i, v, tol_other))

        v = float(_distance_growth(space, x, times, crho, growth))
        rows.append(("distance_growth", i, v, tol_other))

        v = float(_damped_distance_bound(space, x, rho, times, growth, (None, 0.1, 1.0)))
        rows.append(("damped_distance_bound", i, v, tol_other))
    return rows, worst[0], worst[1]


def loop_1to2_rows(space, samples, rng):
    """(rows, the n drawn) of the 1to2 link, one sample at a time."""
    rows, drawn = [], set()
    for i in range(samples):
        a = rng.uniform(0.2, 1.5)
        b = rng.uniform(0.2, 1.5)
        c = rng.uniform(-1.0, 1.0)
        eps = rng.uniform(0.05, 0.7)
        m = int(rng.integers(1, 41))
        n = int(rng.integers(1, 6))
        rho = space.sample(rng)
        mu = space.sample(rng)
        pi = space.sample(rng)
        phi, ts = composite_phi_for_push(space, eps, b, c, m, n)
        pair1 = build_cyl_pair(space, "dagger", a, phi, rho, space.flow_values(mu, ts))
        pair2 = build_chain_pair(space, 2, "dagger",
                                 {"a": a, "b": b, "c": c, "eps": eps,
                                  "m": m, "n": n, "rho": rho, "mu": mu})
        g1 = pair1.g(pi)
        g2 = pair2.g(pi)
        rows.append(("chain-1to2", i, g1 - g2, 1e-9))
        drawn.add(n)
    return rows, drawn


def loop_0to1_rows(space, samples, rng):
    """(rows, the k drawn) of the 0to1 link, one sample at a time."""
    rows, drawn = [], set()
    for i in range(samples):
        a = rng.uniform(0.2, 1.5)
        k = int(rng.integers(1, 3))
        weights = rng.uniform(0.1, 1.0, size=k)
        const = rng.uniform(0.0, 0.5)
        rho = space.sample(rng)
        mus = [space.sample(rng) for _ in range(k)]
        pi = space.sample(rng)
        pair1 = build_cyl_pair(space, "dagger", a, Affine(weights, const), rho, mus)
        inner_value = pair1.f(pi)  # equals a r0 + w . r + const at pi
        n = int(np.ceil(inner_value)) + 1
        pair0 = build_h0_pair(space, "dagger", TruncatedAffine(n, [a, *weights], const),
                              [rho, *mus])
        g0 = pair0.g(pi)
        g1 = pair1.g(pi)
        rows.append(("chain-0to1", i, abs(g0 - g1), 1e-9))
        drawn.add(k)
    return rows, drawn


# ---------------------------------------------------------------------------
# one array pass against the loops
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("space_name", SPACES)
def test_evi_suite_rows_equal_the_instance_loop(request, space_name, seed):
    space = request.getfixturevalue(space_name)
    rep = run_evi_suite(space, np.random.default_rng(seed), instances=12)
    rows, max_residual, (x, t, rho) = loop_evi_suite(space, np.random.default_rng(seed), 12)
    assert list(rep.rows) == rows
    assert rep.max_residual == max_residual
    got_x, got_t, got_rho = rep.worst_case
    assert np.array_equal(got_x, x) and got_t == t and np.array_equal(got_rho, rho)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("space_name", SPACES)
def test_1to2_rows_equal_the_sample_loop(request, space_name, seed):
    space = request.getfixturevalue(space_name)
    rows, drawn = loop_1to2_rows(space, 40, np.random.default_rng(seed))
    assert drawn == {1, 2, 3, 4, 5}
    assert list(chain_inequality_report(space, "1to2", 40, np.random.default_rng(seed))) == rows


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("space_name", SPACES)
def test_0to1_rows_equal_the_sample_loop(request, space_name, seed):
    space = request.getfixturevalue(space_name)
    rows, drawn = loop_0to1_rows(space, 30, np.random.default_rng(seed))
    assert drawn == {1, 2}
    assert list(chain_inequality_report(space, "0to1", 30, np.random.default_rng(seed))) == rows


def test_chunked_groups_equal_the_sample_loops():
    """On a 64-point quantile space the groups are split into chunks (ten
    samples per chunk at n = 5); the rows stay those of the loops."""
    space = quantile_space(double_well_potential(-0.5), grid_size=64)
    assert BLOCK_ELEMENTS // (25 * space.size) < 30
    for link, loop in (("1to2", loop_1to2_rows), ("0to1", loop_0to1_rows)):
        rows, _ = loop(space, 60, np.random.default_rng(29))
        assert list(chain_inequality_report(space, link, 60, np.random.default_rng(29))) == rows


@pytest.mark.parametrize("space_name", SPACES)
def test_pairs_with_instances_give_each_instance_its_own_bits(request, space_name):
    """f and g of the cylindrical, bounded and level-2 pairs built on N instances
    equal those of the N one-instance pairs, at one row per instance and at a
    grid of rows broadcast against all instances."""
    space = request.getfixturevalue(space_name)
    rng = np.random.default_rng(31)
    N, k, n = 4, 2, 3
    a, b, eps = (rng.uniform(0.2, 1.5, size=N) for _ in range(3))
    c, const = rng.uniform(-1.0, 1.0, size=N), rng.uniform(0.0, 0.5, size=N)
    m = rng.integers(1, 41, size=N)
    w = rng.uniform(0.1, 1.0, size=(N, k))
    base, mu = space.sample(rng, (N,)), space.sample(rng, (N,))
    anchors = space.sample(rng, (N, k))
    x = space.sample(rng, (N,))
    grid = space.sample(rng, (3, 1))  # (3, 1, size): every row against every instance

    def builders(i):
        """The three pairs of instance i, or of all instances for i = slice(None)."""
        phi, ts = composite_phi_for_push(space, eps[i], b[i], c[i], m[i], n)
        return (build_cyl_pair(space, "dagger", a[i], phi, base[i], space.flow_values(mu[i], ts)),
                build_cyl_pair(space, "ddagger", a[i], Affine(w[i], const[i]), base[i],
                               anchors[i]),
                build_h0_pair(space, "ddagger", TruncatedAffine(3, w[i], const[i]), anchors[i]),
                build_chain_pair(space, 2, "dagger", {"a": a[i], "b": b[i], "c": c[i],
                                                      "eps": eps[i], "m": m[i], "n": n,
                                                      "rho": base[i], "mu": mu[i]}))

    one = [builders(i) for i in range(N)]
    for j, pair in enumerate(builders(slice(None))):
        for fn in ("f", "g"):
            want = [getattr(one[i][j], fn) for i in range(N)]
            assert getattr(pair, fn)(x).tolist() == [want[i](x[i]) for i in range(N)]
            assert getattr(pair, fn)(grid).tolist() == [[want[i](row[0]) for i in range(N)]
                                                        for row in grid]


def test_softmin_node_with_instances_gives_each_instance_its_own_bits():
    rng = np.random.default_rng(37)
    N, K = 5, 9
    eps, b, m = rng.uniform(0.05, 0.7, N), rng.uniform(0.2, 1.5, N), rng.integers(1, 41, N)
    c, w, log_w = rng.uniform(-1, 1, N), rng.uniform(0.2, 1.0, K), rng.normal(size=(N, K))
    r = rng.uniform(0.0, 3.0, size=(N, K))
    value, grad = SoftminPsi(eps=eps, m=m.astype(float), b=b, c=c, w=w, log_w=log_w).vag(r)
    for i in range(N):
        one = SoftminPsi(eps=eps[i], m=float(m[i]), b=b[i], c=c[i], w=w, log_w=log_w[i])
        v, g = one.vag(r[i])
        assert value[i] == v and np.array_equal(grad[i], g)


# ---------------------------------------------------------------------------
# array draws
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("space", [euclidean_space(quartic_potential(), dim=3),
                                   quantile_space(quadratic_potential(1.0), grid_size=8)],
                         ids=["euclidean", "quantile"])
def test_array_sample_equals_sequential_samples(space):
    rows = space.sample(np.random.default_rng(5), (4, 3))
    rng = np.random.default_rng(5)
    one_by_one = [[space.sample(rng) for _ in range(3)] for _ in range(4)]
    assert rows.shape == (4, 3, space.size)
    assert np.array_equal(rows, one_by_one)
    assert np.array_equal(space.sample(np.random.default_rng(5)),
                          space.sample(np.random.default_rng(5), ()))


# ---------------------------------------------------------------------------
# the row kernels against the expressions they replaced
# ---------------------------------------------------------------------------

OLD_V = {
    "quadratic": lambda x, k: 0.5 * k * np.square(x),
    "quartic": lambda x, k: 0.25 * np.square(np.square(x)),
    "double_well": lambda x, k: np.square(x) * (0.25 * np.square(x) + 0.5 * k),
}


@pytest.mark.parametrize("size", (1, 3, 64))
@pytest.mark.parametrize("potential", [quadratic_potential(1.0), quartic_potential(),
                                       double_well_potential(-0.5)],
                         ids=["quadratic", "quartic", "double_well"])
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_row_kernels_keep_the_bits_of_the_old_expressions(potential, size):
    rng = np.random.default_rng(size)
    for space in (euclidean_space(potential, dim=size),
                  quantile_space(potential, grid_size=size)):
        scale = np.exp(rng.uniform(-370.0, 200.0, size=(200, 1, 1)))
        a = np.sort(rng.normal(size=(200, 4, size)) * scale, axis=-1)
        b = np.sort(rng.normal(size=(200, 4, size)) * scale, axis=-1)
        old_v = OLD_V[potential.form](a, potential.kappa)
        assert np.array_equal(potential.v(a), old_v)
        assert np.array_equal(space.energies(a), space.weight * np.sum(old_v, axis=-1))
        diffs, grads = a - b, potential.dv(a)
        assert np.array_equal(space.sq_dist(a, b), space.weight * np.vecdot(diffs, diffs))
        assert np.array_equal(space.sq_slopes(a), space.weight * np.vecdot(grads, grads))


# ---------------------------------------------------------------------------
# guards: no per-sample loop comes back
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, owner, names) -> dict:
    counts = dict.fromkeys(names, 0)
    for name in names:
        target = getattr(owner, name)

        def counted(*args, _name=name, _target=target, **kwargs):
            counts[_name] += 1
            return _target(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.mark.parametrize("samples", (10, 60))
def test_ladder_links_build_each_pair_family_once_per_group(ou, monkeypatch, samples):
    builders = ("build_cyl_pair", "build_h0_pair", "build_chain_pair")
    counts = _count_calls(monkeypatch, hjflow.hamiltonians, builders)
    chain_inequality_report(ou, "1to2", samples, np.random.default_rng(8))
    assert 1 <= counts["build_cyl_pair"] <= 5 and 1 <= counts["build_chain_pair"] <= 5
    counts.update(dict.fromkeys(builders, 0))
    chain_inequality_report(ou, "0to1", samples, np.random.default_rng(8))
    assert 1 <= counts["build_cyl_pair"] <= 2 and 1 <= counts["build_h0_pair"] <= 2


def test_evi_suite_evaluates_all_instances_at_once(ou, monkeypatch):
    """HCurve constructions do not grow with the instances, every flow call holds
    all instances on its leading axis, and the energy identity runs once over all
    of them; flow evaluations grow only by its time blocks of at most
    BLOCK_ELEMENTS flow elements."""
    curves = _count_calls(monkeypatch, hjflow.evi, ("HCurve",))
    identities, identity = [], hjflow.evi.energy_identity_residual
    shapes, flow_values = [], ModelSpace.flow_values

    def recorded_identity(space, x, ts):
        identities.append(np.shape(x))
        return identity(space, x, ts)

    def recorded_flow(self, starts, times):
        out = flow_values(self, starts, times)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(hjflow.evi, "energy_identity_residual", recorded_identity)
    monkeypatch.setattr(ModelSpace, "flow_values", recorded_flow)
    counted = []
    for instances in (10, 40):
        curves["HCurve"], identities[:], shapes[:] = 0, [], []
        run_evi_suite(ou, np.random.default_rng(9), instances=instances)
        assert identities == [(instances, ou.size)]
        assert all(shape[0] == instances for shape in shapes)
        blocks = -(-2001 // (BLOCK_ELEMENTS // (instances * ou.size)))
        counted.append((curves["HCurve"], len(shapes) - 1 - blocks))
    assert counted[0] == counted[1]
