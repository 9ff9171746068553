import ast
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from hjflow.evi import energy_identity_residual
from hjflow.spaces import (
    double_well_potential,
    euclidean_space,
    make_potential,
    quadratic_potential,
    quantile_space,
    quartic_potential,
)

from precision_helpers import LD, NoPow, assert_kernel_no_worse, pow_free
from row_helpers import distance, energy, flow, flow_values, information, slope

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hjflow"


def test_distance_examples(ou, quantile_ou):
    assert distance(ou, np.array([0]), np.array([2])) == 2.0
    x = np.array([1.3])
    assert distance(ou, x, x) == 0.0
    q2 = quantile_space(quadratic_potential(1.0), grid_size=2)
    assert distance(q2, np.array([0, 0]), np.array([1, 1])) == pytest.approx(1.0)


def test_distance_incompatible_points(ou, quantile_ou):
    # rows of another space's size; the size is all a row carries, so a 1-d
    # euclidean row passes on a 1-point quantile space
    for space, row in ((ou, np.zeros(8)), (quantile_ou, [0.0]), (ou, 0.0)):
        with pytest.raises(ValueError, match="incompatible points"):
            space.rows(row)
    two_d = euclidean_space(quadratic_potential(1.0), dim=2)
    with pytest.raises(ValueError, match="incompatible points"):
        distance(two_d, [0.0, 0.0], [0.0])
    # builders and flows take one row, not a stack of them
    with pytest.raises(ValueError, match="incompatible points"):
        flow_values(ou, [[0.0]], [0.0])
    assert two_d.rows(np.zeros((3, 2))).shape == (3, 2)


def test_quantile_point_must_be_nondecreasing():
    q3 = quantile_space(quadratic_potential(1.0), grid_size=3)
    q3.rows([0.0, 0.0, 1.0])
    q2 = quantile_space(quadratic_potential(1.0), grid_size=2)
    with pytest.raises(ValueError, match="nondecreasing"):
        q2.rows([1.0, 0.0])
    with pytest.raises(ValueError, match="nondecreasing"):
        q2.rows([[0.0, 1.0], [1.0, 0.0]])
    # order noise at float level is repaired, not rejected
    assert np.array_equal(q2.rows([1.0, 1.0 - 1e-12]), [1.0, 1.0])


def test_point_coordinates_must_be_finite(ou):
    with pytest.raises(ValueError, match="finite"):
        ou.rows([np.inf])
    with pytest.raises(ValueError, match="finite"):
        ou.rows([[0.0], [np.nan]])


@pytest.mark.parametrize("make", [
    lambda: euclidean_space(quadratic_potential(1.0)),
    lambda: euclidean_space(quartic_potential(), dim=3, box=1.0),
    lambda: quantile_space(double_well_potential(-0.5), grid_size=64),
])
def test_sample_returns_the_drawn_row(make):
    # the draw of the former point path: uniform in [-r, r] with r clipped to
    # the box, sorted on quantile spaces, from the same generator state
    space = make()
    rng, twin = np.random.default_rng(7), np.random.default_rng(7)
    for radius in (None, 0.5, 10.0, None):
        drawn = space if radius is None else replace(space, sample_radius=radius)
        got = drawn.sample(rng)
        r = min(drawn.sample_radius, space.box)
        want = twin.uniform(-r, r, size=space.size)
        if space.kind == "quantile":
            want = np.sort(want)
        assert got.shape == (space.size,)
        assert np.array_equal(got, want)
        assert np.array_equal(space.rows(got), got)


def geodesic_point(space, x, y, t):
    """The point at parameter t in [0, 1] on the geodesic from x to y: the coordinates
    interpolate linearly in both geometries."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("parameter out of range")
    return space.rows((1.0 - t) * space.rows(x) + t * space.rows(y))


def test_geodesic_examples(ou):
    x, y = np.array([0]), np.array([2])
    assert distance(ou, geodesic_point(ou, x, y, 0.0), x) == 0.0
    assert distance(ou, geodesic_point(ou, x, y, 1.0), y) == 0.0
    assert geodesic_point(ou, x, y, 0.5)[0] == pytest.approx(1.0)
    q2 = quantile_space(quadratic_potential(1.0), grid_size=2)
    mid = geodesic_point(q2, np.array([0, 0]), np.array([2, 4]), 0.25)
    assert np.allclose(mid, [0.5, 1.0])


def test_geodesic_parameter_out_of_range(ou):
    with pytest.raises(ValueError, match="parameter out of range"):
        geodesic_point(ou, np.array([0]), np.array([1]), 1.5)


def test_energy_and_slope_examples(ou):
    x = np.array([3])
    assert (energy(ou, x), slope(ou, x)) == (4.5, 3.0)
    assert slope(ou, np.zeros(ou.size)) == 0.0
    q2 = quantile_space(quadratic_potential(1.0), grid_size=2)
    y = np.array([1, 3])
    assert energy(q2, y) == pytest.approx(2.5)
    assert slope(q2, y) == pytest.approx(np.sqrt(5))
    assert information(q2, np.array([1, 3])) == pytest.approx(5.0)


def test_flow_examples(ou):
    moved = flow(ou, np.array([1]), np.log(2))
    assert moved[0] == pytest.approx(0.5, abs=1e-14)
    x = np.array([0.7])
    assert distance(ou, flow(ou, x, 0.0), x) == 0.0
    with pytest.raises(ValueError, match="negative time"):
        flow(ou, x, -0.1)


@pytest.mark.parametrize("make", [quartic_potential, lambda: double_well_potential(-0.5)])
def test_flow_semigroup(make):
    space = euclidean_space(make())
    x = np.array([1.2])
    one = flow(space, flow(space, x, 0.4), 0.9)
    both = flow(space, x, 1.3)
    assert distance(space, one, both) <= 1e-7


def test_flow_quartic_closed_form():
    # dx/dt = -x^3 integrates to x0 / sqrt(1 + 2 x0^2 t)
    space = euclidean_space(quartic_potential())
    x0 = 1.4
    for t in (0.3, 1.0, 4.0):
        got = flow(space, np.array([x0]), t)[0]
        assert got == pytest.approx(x0 / np.sqrt(1 + 2 * x0**2 * t), abs=1e-9)


@pytest.mark.parametrize("make", [quartic_potential,
                                  lambda: double_well_potential(-0.5),
                                  lambda: double_well_potential(-2.0)])
def test_closed_form_flow_matches_rk45(make):
    # RK45 at tight tolerances is the oracle for the closed-form flows
    pot = make()
    rng = np.random.default_rng(7)
    ts = np.linspace(0.0, 100.0, 401)
    for _ in range(20):
        x0 = rng.uniform(-3.0, 3.0, size=3)
        x0[rng.integers(3)] = 0.0
        ref = solve_ivp(lambda _t, y: -pot.dv(y), (0.0, 100.0), x0, method="RK45",
                        t_eval=ts, rtol=1e-11, atol=1e-13)
        assert ref.success
        got = pot.flow(x0, ts)
        assert got.shape == (ts.size, 3)
        assert np.max(np.abs(got - ref.y.T)) <= 1e-9
        assert np.array_equal(got[0], x0)
        if pot.form == "double_well":
            assert np.allclose(got[-1], np.sign(x0) * np.sqrt(-pot.kappa), atol=1e-12)
    space = quantile_space(pot, grid_size=32, sample_radius=3.0)
    x = space.sample(rng)
    vals = flow_values(space, x, ts)
    assert np.all(np.diff(vals, axis=1) >= 0)
    assert np.all(np.diff(pot.flow(x, ts), axis=1) >= -1e-14)


@pytest.mark.parametrize("make", [lambda: quadratic_potential(0.7), quartic_potential,
                                  lambda: double_well_potential(-0.5)],
                         ids=["quadratic", "quartic", "double_well"])
def test_flow_broadcasts_over_starts_and_rows_of_times(make):
    # (N, n) starts with (N, T) times give (N, T, n), bit for bit the stack of
    # the per-start 1-d calls; every potential gets a zero coordinate
    pot = make()
    rng = np.random.default_rng(13)
    starts = rng.uniform(-2.5, 2.5, size=(6, 3))
    starts[2, 1] = 0.0
    starts[4] = 0.0
    times = np.sort(rng.uniform(0.0, 8.0, size=(6, 9)), axis=1)
    got = pot.flow(starts, times)
    assert got.shape == (6, 9, 3)
    assert np.array_equal(got, np.stack([pot.flow(x0, t) for x0, t in zip(starts, times)]))
    assert np.array_equal(got[4], np.zeros((9, 3)))


def test_flow_values_broadcast_with_quantile_guard():
    space = quantile_space(double_well_potential(-0.5), grid_size=16, sample_radius=3.0)
    rng = np.random.default_rng(17)
    points = [space.sample(rng) for _ in range(4)]
    times = np.sort(rng.uniform(0.0, 20.0, size=(4, 11)), axis=1)
    got = space.flow_values(np.stack(points), times)
    want = np.stack([flow_values(space, p, t) for p, t in zip(points, times)])
    assert np.array_equal(got, want)
    assert np.all(np.diff(got, axis=-1) >= 0)


@pytest.mark.parametrize("t_max, repairs", [(1.0, False), (40.0, True)])
def test_flow_values_repairs_quantile_order_only_where_broken(t_max, repairs):
    # near the wells at +-sqrt(0.5) rounding puts neighbours out of order,
    # at short times it does not; the checked guard equals the unconditional one
    pot = double_well_potential(-0.5)
    space = quantile_space(pot, grid_size=64)
    rng = np.random.default_rng(0)
    starts = np.stack([space.sample(rng) for _ in range(3)])
    times = np.tile(np.linspace(0.0, t_max, 9), (3, 1))
    raw = pot.flow(starts, times)
    assert (not np.all(raw[..., 1:] >= raw[..., :-1])) == repairs
    assert np.array_equal(space.flow_values(starts, times), np.maximum.accumulate(raw, axis=-1))


OLD_FLOWS = {
    # the closed forms as single expressions, before they were written into one buffer
    "quartic": lambda x0, t: x0[..., None, :] / np.sqrt(
        1.0 + 2.0 * (t[..., :, None] * np.square(x0)[..., None, :])),
    "double_well": lambda x0, t: x0[..., None, :] / np.sqrt(
        np.exp(2.0 * -0.5 * t[..., :, None])
        + np.square(x0[..., None, :]) * np.expm1(2.0 * -0.5 * t[..., :, None]) / -0.5),
}


@pytest.mark.parametrize("form", sorted(OLD_FLOWS))
def test_one_buffer_flows_equal_the_closed_form_expressions(form):
    pot = make_potential(form, -0.5 if form == "double_well" else None)
    rng = np.random.default_rng(23)
    starts = rng.uniform(-3.0, 3.0, size=(5, 64))
    starts[1, :7] = 0.0
    times = np.sort(rng.uniform(0.0, 50.0, size=(5, 33)), axis=1)
    for x0, t in ((starts, times), (starts[0], times[0]), (starts[0], times)):
        assert np.array_equal(pot.flow(x0, t), OLD_FLOWS[form](x0, t))


def test_flow_trajectory_examples(ou):
    single = flow_values(ou, np.array([2]), [0.0])
    assert single.shape == (1, 1)
    assert single[0][0] == 2.0

    vals = flow_values(ou, np.array([1]), [0.0, 1.0, 2.0])
    assert np.allclose(ou.energies(vals), [0.5, np.exp(-2) / 2, np.exp(-4) / 2])
    assert np.allclose(ou.sq_slopes(vals), [1.0, np.exp(-2), np.exp(-4)])

    # the energy identity, the one consumer of a whole trajectory, needs
    # strictly increasing times that start at t >= 0
    with pytest.raises(ValueError, match="strictly increasing"):
        energy_identity_residual(ou, np.array([1]), [0.5, 0.2])
    with pytest.raises(ValueError, match="negative time"):
        energy_identity_residual(ou, np.array([1]), [-0.5, 0.2])


@pytest.mark.parametrize("make", [
    lambda: euclidean_space(quadratic_potential(1.0)),
    lambda: euclidean_space(quartic_potential(), dim=3, sample_radius=1.5),
    lambda: quantile_space(double_well_potential(-0.5), grid_size=64),
])
def test_flow_trajectory_matches_per_point_kernels(make, rng):
    space = make()
    x = space.sample(rng)
    points = flow_values(space, x, np.linspace(0.0, 2.0, 201))
    assert points.shape == (201, space.size)
    assert np.array_equal(points[0], x)
    assert np.array_equal(space.energies(points), [energy(space, p) for p in points])
    assert np.array_equal(space.sq_slopes(points), [information(space, p) for p in points])

    # the row kernels broadcast over leading axes, and each row gets the bits
    # of the one-row kernels
    ts = np.linspace(0.0, 2.0, 51)
    a, b = (np.stack([flow_values(space, space.sample(rng), ts) for _ in range(3)])
            for _ in range(2))
    for rows, others in ((a[0, 0], b[0, 0]), (a[0], b[0]), (a, b), (a, b[0, 0])):
        assert rows.shape in ((space.size,), (51, space.size), (3, 51, space.size))
        pa = list(rows.reshape(-1, space.size))
        pb = list(np.broadcast_to(others, rows.shape).reshape(-1, space.size))
        dists = np.sqrt(space.sq_dist(rows, others))
        assert dists.shape == rows.shape[:-1]
        assert np.array_equal(dists.ravel(), [distance(space, p, q) for p, q in zip(pa, pb)])
        assert np.array_equal(space.energies(rows).ravel(), [energy(space, p) for p in pa])
        assert np.array_equal(space.sq_slopes(rows).ravel(), [information(space, p) for p in pa])


def test_trajectory_energies_nonincreasing(double_well, rng):
    x = double_well.sample(rng)
    energies = double_well.energies(flow_values(double_well, x, np.linspace(0, 3, 50)))
    assert np.all(np.diff(energies) <= 1e-10)


def test_triangle_inequality_random_triples(ou, quantile_ou, rng):
    for space in (ou, quantile_ou):
        for _ in range(1000):
            x, y, z = (space.sample(rng) for _ in range(3))
            assert distance(space, x, z) <= distance(space, x, y) + distance(space, y, z) + 1e-12


def test_geodesic_constant_speed(ou, quantile_ou, rng):
    for space in (ou, quantile_ou):
        for _ in range(200):
            x, y = space.sample(rng), space.sample(rng)
            s, t = sorted(rng.uniform(0, 1, size=2))
            lhs = distance(space, geodesic_point(space, x, y, s),
                           geodesic_point(space, x, y, t))
            assert abs(lhs - (t - s) * distance(space, x, y)) <= 1e-12


def test_quantile_monotonicity_preserved(rng):
    space = quantile_space(double_well_potential(-0.5), grid_size=16, sample_radius=1.5)
    x = space.sample(rng)
    y = space.sample(rng)
    for t in (0.25, 0.75):
        assert np.all(np.diff(geodesic_point(space, x, y, t)) >= 0)
    vals = flow_values(space, x, np.linspace(0, 2, 20))
    assert np.all(np.diff(vals, axis=1) >= 0)


@pytest.mark.parametrize("form,kappa", [("quadratic", 1.0), ("quadratic", 2.5),
                                        ("quartic", None), ("double_well", -0.5)])
def test_potential_convexity_bound(form, kappa):
    # at h = 1e-3 the difference quotient's truncation error (h^2 |V''''| / 12
    # <= 5e-7) and its rounding (about 4 eps |V| / h^2, 1.4e-7 at |x| = 5) are
    # far below atol, so atol alone bounds the curvature error
    pot = make_potential(form, kappa)
    xs = np.linspace(-5, 5, 2001)
    h = 1e-3
    second = (pot.v(xs + h) - 2 * pot.v(xs) + pot.v(xs - h)) / h**2
    assert np.all(second >= pot.kappa - 1e-4)
    assert np.allclose(pot.d2v(xs), second, rtol=0, atol=1e-4)


def _exact_terms(form, kappa, x):
    """The terms of V, V' and V'' at the float x, each an exact Fraction."""
    x = Fraction(x)
    k = None if kappa is None else Fraction(kappa)
    if form == "quadratic":
        return [k * x**2 / 2], [k * x], [k]
    if form == "quartic":
        return [x**4 / 4], [x**3], [3 * x**2]
    return [x**4 / 4, k * x**2 / 2], [x**3, k * x], [3 * x**2, k]


@pytest.mark.parametrize("form,kappa", [("quadratic", 2.5), ("quartic", None),
                                        ("double_well", -0.5), ("double_well", -2.0)])
def test_potential_kernels_exact_and_pow_free(form, kappa, monkeypatch, rng):
    # v, dv and d2v each stay within 2 eps of the sum of their terms' magnitudes
    # (gamma_3: at most three roundings), checked in exact rational arithmetic
    # on the grid plus +-1, +-sqrt(2), +-sqrt(|kappa|) and +-sqrt(2 |kappa|) for
    # kappa in {-0.5, -2}, where V and V' of the double wells cancel
    pot = make_potential(form, kappa)
    roots = np.sqrt([0.5, 1.0, 2.0, 4.0])
    xs = np.concatenate([np.linspace(-5, 5, 2001), roots, -roots])
    eps = Fraction(np.finfo(float).eps)
    for i, kernel in enumerate((pot.v, pot.dv, pot.d2v)):
        got = np.asarray(kernel(xs.view(NoPow)))
        assert got.shape == xs.shape
        for x, y in zip(xs, got):
            terms = _exact_terms(form, kappa, x)[i]
            assert abs(Fraction(y) - sum(terms)) <= 2 * eps * sum(abs(t) for t in terms)

    # the row kernels, the flow built on them and the energy identity that
    # reads its trajectory from them call no libm pow either
    space = quantile_space(pot, grid_size=16, sample_radius=3.0)
    x, ts = pow_free(monkeypatch, space.sample(rng), np.linspace(0.0, 2.0, 21))
    vals = space.flow_values(x, ts)
    energies, sq_slopes = space.energies(vals), space.sq_slopes(vals)
    assert np.all(np.isfinite(energies)) and np.all(np.isfinite(sq_slopes))
    dissipated = float(np.trapezoid(sq_slopes, ts))
    assert energy_identity_residual(space, x, ts) == abs(energies[-1] - energies[0] + dissipated)


@pytest.mark.parametrize("form,kappa", [("quadratic", 2.5), ("quartic", None),
                                        ("double_well", -0.5)])
def test_trajectory_sq_slopes_no_worse_than_squaring_the_slope_back(form, kappa, rng):
    # against the squared slopes that the energy identity reads; the oracle is
    # the former square root that the energy identity squared back
    space = quantile_space(make_potential(form, kappa), grid_size=16, sample_radius=3.0)
    for _ in range(20):
        vals = flow_values(space, space.sample(rng), np.linspace(0.0, 2.0, 201))
        sq = space.sq_slopes(vals)
        assert_kernel_no_worse(space.sq_slopes(vals), np.sqrt(sq) ** 2, sq.astype(LD))


def test_double_well_requires_negative_kappa():
    with pytest.raises(ValueError):
        double_well_potential(0.5)


def test_energy_dissipation_identity(quartic):
    x = np.array([1.1])
    ts = np.linspace(0.0, 1.0, 4001)
    vals = flow_values(quartic, x, ts)
    energies = quartic.energies(vals)
    drop = energies[-1] - energies[0]
    assert drop <= 0
    assert abs(drop + np.trapezoid(quartic.sq_slopes(vals), ts)) <= 1e-6


@given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
@settings(max_examples=50, deadline=None)
def test_distance_symmetry_hypothesis(a, b):
    space = euclidean_space(quadratic_potential(1.0))
    x, y = np.array([a]), np.array([b])
    assert distance(space, x, y) == distance(space, y, x)
    assert distance(space, x, y) >= 0


def test_sample_stays_in_radius(ou, quantile_ou, rng):
    for space in (ou, quantile_ou):
        for _ in range(50):
            p = space.sample(rng)
            assert np.all(np.abs(p) <= space.sample_radius + 1e-12)


def _flow_reads(node: ast.AST) -> int:
    """The number of ``.flow`` attribute reads under node."""
    return sum(isinstance(n, ast.Attribute) and n.attr == "flow" for n in ast.walk(node))


def test_flows_have_one_entry_point():
    """No module but ``spaces.py`` reads a potential's ``flow``, and in
    ``spaces.py`` only ``ModelSpace.flow_values`` does: every flow the package
    evaluates goes through it.  The wrappers around it are gone."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert "spaces.py" in trees
    assert sorted(name for name, tree in trees.items() if _flow_reads(tree)) == ["spaces.py"]
    readers = [node for node in ast.walk(trees["spaces.py"])
               if isinstance(node, ast.FunctionDef) and _flow_reads(node)]
    assert [node.name for node in readers] == ["flow_values"]
    assert _flow_reads(readers[0]) == _flow_reads(trees["spaces.py"])
    for name in ("FlowCurve", "FlowTrajectory", "flow_curve", "flow_trajectory"):
        assert not any(isinstance(node, (ast.Name, ast.Attribute, ast.ClassDef, ast.FunctionDef))
                       and name in (getattr(node, "id", None), getattr(node, "attr", None),
                                    getattr(node, "name", None))
                       for tree in trees.values() for node in ast.walk(tree))
