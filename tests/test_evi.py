import json
import tracemalloc

import numpy as np
import pytest

import hjflow.evi
from hjflow.cli import main
from hjflow.config import load_config
from hjflow.evi import (
    energy_identity_residual,
    evi_residual,
    run_evi_suite,
    suite_time_horizon,
)

from evi_helpers import (
    contraction_violation,
    damped_distance_bound_violation,
    distance_growth_violation,
    full_trajectory_energy_identity,
    slope_decay_violation,
)
from hjflow.spaces import ModelSpace, double_well_potential, quantile_space


def test_evi_residual_quadratic_equality(ou):
    res = evi_residual(ou, np.array([1]), np.array([0.5]), 0.2, 1e-4)
    assert abs(res) <= 1e-3


def test_evi_residual_stationary(ou):
    crit = np.zeros(ou.size)
    assert evi_residual(ou, crit, crit, 0.7, 1e-4) == 0.0


def test_evi_residual_quartic(quartic, rng):
    for _ in range(20):
        x, rho = quartic.sample(rng), quartic.sample(rng)
        res = evi_residual(quartic, x, rho, float(rng.uniform(0, 2)), 1e-4)
        assert res <= 1e-3


def test_evi_residual_rejects_bad_delta(ou):
    with pytest.raises(ValueError):
        evi_residual(ou, np.array([1]), np.array([0]), 0.1, 0.0)


def test_contraction_quadratic_exact(ou):
    v = contraction_violation(ou, np.array([1]), np.array([-1]), [0.1, 0.5, 2.0, 5.0])
    assert abs(v) <= 1e-9  # exact equality for the linear drift
    x = np.array([0.3])
    assert contraction_violation(ou, x, x, [0.5, 1.0]) <= 1e-15


def test_contraction_quartic(quartic, rng):
    for _ in range(10):
        x, y = quartic.sample(rng), quartic.sample(rng)
        assert contraction_violation(quartic, x, y, [0.2, 1.0, 3.0]) <= 1e-6


def test_energy_identity_stationary(ou):
    crit = np.zeros(ou.size)
    assert energy_identity_residual(ou, crit, np.linspace(0, 1, 11)) == 0.0


def test_energy_identity_quadratic(ou):
    # closed forms: E = exp(-2t)/2, I = exp(-2t), integral (1 - e^-2)/2
    assert energy_identity_residual(ou, np.array([1]), np.linspace(0, 1, 1001)) <= 1e-6


def test_energy_identity_quartic(quartic):
    assert energy_identity_residual(quartic, np.array([1.2]), np.linspace(0, 1, 2001)) <= 1e-4


def test_energy_identity_needs_two_samples(ou):
    with pytest.raises(ValueError, match="at least two"):
        energy_identity_residual(ou, np.array([1]), [0.0])


@pytest.fixture(scope="module")
def quantile_double_well():
    """The 64-point quantile double well of the curved-flows benchmark."""
    return quantile_space(double_well_potential(-0.5), grid_size=64)


def _identity_flow_shapes(space, x, ts):
    """energy_identity_residual(space, x, ts) and the shape of every flow it took."""
    shapes, flow_values = [], ModelSpace.flow_values

    def recorded(self, starts, times):
        out = flow_values(self, starts, times)
        shapes.append(out.shape)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ModelSpace, "flow_values", recorded)
        return energy_identity_residual(space, x, ts), shapes


@pytest.mark.parametrize("space_name", ["ou", "quartic", "double_well", "quantile_double_well"])
@pytest.mark.parametrize("instances", [1, 3, 20])
@pytest.mark.parametrize("block_elements", [None, 7])
def test_energy_identity_matches_the_full_trajectory_bit_for_bit(
        request, monkeypatch, rng, space_name, instances, block_elements):
    """Ends-only energies and time-blocked slopes give the bits of the whole
    trajectory, for every instance and for each instance on its own; the 2001
    times are no multiple of the block, and each flow call holds at most
    max(BLOCK_ELEMENTS, x.size) elements.  block_elements = 7 rows per flow
    call forces many blocks on every space."""
    space = request.getfixturevalue(space_name)
    x = space.sample(rng, (instances,))
    if block_elements is not None:
        monkeypatch.setattr(hjflow.evi, "BLOCK_ELEMENTS", block_elements * x.size)
    cap = max(hjflow.evi.BLOCK_ELEMENTS, x.size)
    ts = np.linspace(0.0, 1.0, 2001)
    assert ts.size % (cap // x.size) != 0
    got, shapes = _identity_flow_shapes(space, x, ts)
    expected = full_trajectory_energy_identity(space, x, ts)
    assert got.shape == (instances,) and np.array_equal(got, expected)
    for i in {0, instances - 1}:
        assert energy_identity_residual(space, x[i], ts) == expected[i]
    # the two ends, then the blocks in order
    assert shapes[0] == (instances, 2, space.size)
    assert sum(shape[1] for shape in shapes[1:]) == ts.size
    assert all(np.prod(shape) <= cap for shape in shapes)
    assert len(shapes) == 1 + -(-ts.size // (cap // x.size))


def test_energy_identity_holds_less_than_one_trajectory_array(quantile_double_well, rng):
    """The (3, 2001, 64) identity peaks below one (2001, 64) float array: it
    never holds a trajectory of one instance, let alone of three."""
    x, ts = quantile_double_well.sample(rng, (3,)), np.linspace(0.0, 1.0, 2001)
    energy_identity_residual(quantile_double_well, x, ts)
    tracemalloc.start()
    try:
        energy_identity_residual(quantile_double_well, x, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ts.size * quantile_double_well.size * 8


def test_slope_decay_quadratic_exact(ou):
    assert abs(slope_decay_violation(ou, np.array([1]), [0.3, 1.0, 4.0])) <= 1e-9
    crit = np.zeros(ou.size)
    assert slope_decay_violation(ou, crit, [1.0]) == 0.0


def test_slope_decay_quartic(quartic, rng):
    for _ in range(10):
        assert slope_decay_violation(quartic, quartic.sample(rng), [0.5, 2.0]) <= 1e-6


def test_distance_growth_trivial(ou):
    crit = np.zeros(ou.size)
    assert distance_growth_violation(ou, crit, crit, [0.5, 1.0]) == 0.0


def test_distance_growth_quadratic(ou):
    v = distance_growth_violation(ou, np.array([0]), np.array([1]),
                                  np.linspace(0.1, 5.0, 25))
    assert v <= 1e-6


def test_distance_growth_quartic(quartic, rng):
    for _ in range(10):
        pi, mu = quartic.sample(rng), quartic.sample(rng)
        assert distance_growth_violation(quartic, pi, mu, np.linspace(0.1, 4, 20)) <= 1e-4


def test_distance_growth_negative_kappa(double_well, rng):
    for _ in range(10):
        pi, mu = double_well.sample(rng), double_well.sample(rng)
        assert distance_growth_violation(double_well, pi, mu,
                                         np.linspace(0.1, 4, 20)) <= 1e-4


def test_damped_distance_bound(ou, double_well, rng):
    for space in (ou, double_well):
        for _ in range(10):
            pi, mu = space.sample(rng), space.sample(rng)
            v = damped_distance_bound_violation(space, pi, mu, np.linspace(0.1, 3, 15))
            assert v <= 1e-6


def test_suite_all_pass(ou, quartic, double_well, rng):
    for space in (ou, quartic, double_well):
        rep = run_evi_suite(space, rng, instances=15)
        assert all(r[2] <= r[3] for r in rep.rows), [r for r in rep.rows if r[2] > r[3]][:3]
        assert rep.max_residual <= 10 * 1e-4


def test_suite_on_quantile_space(quantile_ou, rng):
    rep = run_evi_suite(quantile_ou, rng, instances=10)
    assert all(r[2] <= r[3] for r in rep.rows)


def per_check_suite_rows(space, rng, instances, delta=1e-4):
    """Oracle: run_evi_suite's rows from the public per-check functions, each
    evaluating its own flows, as the suite did before it shared them."""
    tol_evi, tol_other = 10 * delta, 1e-3
    t_max = suite_time_horizon(space)
    rows = []
    for i in range(instances):
        x = space.sample(rng)
        rho = space.sample(rng)
        t = float(rng.uniform(0.0, min(t_max, 5.0)))
        times = np.linspace(0.0, t_max, 9)[1:]
        res = evi_residual(space, x, rho, t, delta)
        rows.append(("evi_residual", i, res, tol_evi))
        for name, v in (("contraction", contraction_violation(space, x, rho, times)),
                        ("energy_identity", energy_identity_residual(space, x, np.linspace(0.0, 1.0, 2001))),
                        ("slope_decay", slope_decay_violation(space, x, times)),
                        ("distance_growth", distance_growth_violation(space, x, rho, times)),
                        ("damped_distance_bound",
                         damped_distance_bound_violation(space, x, rho, times))):
            rows.append((name, i, v, tol_other))
    return rows


@pytest.mark.parametrize("space_name", ["ou", "quartic", "double_well", "quantile_ou"])
def test_suite_rows_equal_the_per_check_functions(space_name, request):
    # the suite evaluates each flow at ``times`` and the growth bound once per
    # instance; every row must keep the bits of the separate checks
    space = request.getfixturevalue(space_name)
    rep = run_evi_suite(space, np.random.default_rng(41), instances=6)
    assert list(rep.rows) == per_check_suite_rows(space, np.random.default_rng(41), 6)


@pytest.mark.parametrize("space", [
    {},
    {"kind": "quantile", "size": 8, "potential": "double_well", "kappa": -0.5},
], ids=["default", "double_well_quantile"])
def test_json_worst_case_replays_the_worst_evi_residual_row(tmp_path, space):
    # the JSON report names the instance behind the largest evi_residual row as
    # plain lists; evi_residual on them gives that row's value bit for bit
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 5, "space": space, "evi": {"instances": 7}}))
    out = tmp_path / "out"
    assert main(["evi-check", "--config", str(cfg_path), "--out", str(out),
                 "--format", "json"]) == 0
    data = json.loads((out / "evi_check.json").read_text())
    worst = data["diagnostics"]["worst_evi_residual"]
    assert sorted(worst) == ["residual", "rho", "t", "x"]
    values = [r["value"] for r in data["rows"] if r["check"] == "evi_residual"]
    assert len(values) == 7 and worst["residual"] == max(values)
    cfg = load_config(cfg_path)
    replay = evi_residual(cfg.space.build(), worst["x"], worst["rho"], worst["t"], cfg.evi.delta)
    assert replay == worst["residual"]
