import csv
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import hjflow.laplace as laplace
from hjflow.cli import main, run_laplace
from hjflow.config import default_config
from hjflow.laplace import (
    DiscreteMeasure,
    _adaptive_log_quadrature,
    _panels,
    discrete_exp_log_weights,
    lambda_continuous,
    lambda_discrete,
    tilted_measure,
    varadhan_error_curve,
)
from hjflow.reporting import fmt17
from hjflow.tataru import HCurve, psi_eps

from precision_helpers import assert_t_cap, old_psi_consts, old_t_cap
from row_helpers import flow_values, tataru_eps


def test_discrete_measure_validation():
    DiscreteMeasure(atoms=[0.5, 1.0], weights=[0.25, 0.75])
    with pytest.raises(ValueError, match="sum"):
        DiscreteMeasure(atoms=[0.5, 1.0], weights=[0.25, 0.25])
    with pytest.raises(ValueError, match="sorted"):
        DiscreteMeasure(atoms=[1.0, 0.5], weights=[0.5, 0.5])
    with pytest.raises(ValueError, match="nonnegative"):
        DiscreteMeasure(atoms=[0.5], weights=[-1.0])


def discrete_exp_measure(m, n):
    """Geometric approximation of the exponential law of rate m.

    Atoms i/n for i = 1..n^2 with weights proportional to exp(-m i / n),
    normalized in log space.
    """
    atoms, log_w = discrete_exp_log_weights(m, n)
    weights = np.exp(log_w)
    weights = weights / weights.sum()
    return DiscreteMeasure(atoms=atoms, weights=weights)


def test_discrete_exp_measure_single_atom():
    m = discrete_exp_measure(1, 1)
    assert np.allclose(m.atoms, [1.0])
    assert np.allclose(m.weights, [1.0])
    # the normalizing constant is 1/exp(-1) = e
    assert m.weights[0] / np.exp(-m.atoms[0]) == pytest.approx(np.e)


def test_discrete_exp_measure_geometric_oracle():
    m = discrete_exp_measure(1, 2)
    assert np.allclose(m.atoms, [0.5, 1.0, 1.5, 2.0])
    raw = np.exp(-m.atoms)
    assert np.allclose(m.weights, raw / raw.sum())


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=12))
@settings(max_examples=60, deadline=None)
def test_discrete_exp_measure_normalized(m, n):
    meas = discrete_exp_measure(m, n)
    assert abs(meas.weights.sum() - 1.0) <= 1e-12
    assert meas.atoms.size == n * n


def test_lambda_discrete_constant_exponent(ou):
    crit = np.zeros(ou.size)
    for m in (1, 5, 50, 700):
        val = lambda_discrete(ou, 0.5, m, 3, crit, crit)
        assert val.neg_log == pytest.approx(0.375, abs=1e-12)


def test_lambda_discrete_zero_exponent_shim(ou, monkeypatch):
    # with the modified distance forced to zero the integral is the total mass
    class ZeroH(HCurve):
        def h(self, ts, rows=None):
            return np.zeros(np.atleast_1d(ts).size)

    monkeypatch.setattr(laplace, "HCurve", ZeroH)
    val = lambda_discrete(ou, 0.5, 9, 4, [1.0], [-2.0])
    assert val.log_value == pytest.approx(0.0, abs=1e-12)
    assert math.exp(val.log_value) == pytest.approx(1.0)


def test_lambda_discrete_tracks_smoothed_distance(ou):
    val = lambda_discrete(ou, 0.1, 50, 40, [0.0], [3.0])
    target = tataru_eps(ou, 0.1, np.array([0]), np.array([3])).value
    assert abs(val.neg_log - target) <= 0.15


def test_lambda_underflow_never_returns_zero(ou):
    # Lambda itself underflows to 0.0; the value offers only its finite log
    val = lambda_discrete(ou, 0.1, 2000, 10, [0.0], [3.0])
    assert np.isfinite(val.log_value)
    assert math.exp(val.log_value) == 0.0
    assert not hasattr(val, "value")


def test_lambda_continuous_constant_pullout(ou):
    crit = np.zeros(ou.size)
    for m in (1, 10, 1000):
        val = lambda_continuous(ou, 0.5, m, crit, crit)
        assert val.neg_log == pytest.approx(psi_eps(0.5, 0.0), abs=1e-12)


def test_riemann_refinement_converges(ou):
    ref = lambda_continuous(ou, 0.1, 20, [0.0], [3.0])
    gaps = []
    for n in (10, 40, 160):
        dv = lambda_discrete(ou, 0.1, 20, n, [0.0], [3.0])
        gaps.append(abs(dv.log_value - ref.log_value))
    assert gaps[0] > gaps[1] > gaps[2]


def test_neg_log_error_decreases_in_m(ou):
    target = tataru_eps(ou, 0.1, np.array([0]), np.array([3])).value
    errs = [abs(lambda_continuous(ou, 0.1, m, [0.0], [3.0]).neg_log - target)
            for m in (10, 100, 1000)]
    assert errs[0] > errs[1] > errs[2]


def test_laplace_sandwich(ou, rng):
    """Two-sided bracket: the normalized exponent sits between the minimum of
    t + h(t) minus the normalization slack and any probed value plus O(1/m)."""
    eps, m, n = 0.2, 25, 12
    for _ in range(5):
        pi, mu = ou.sample(rng), ou.sample(rng)
        val = lambda_discrete(ou, eps, m, n, pi, mu)
        atoms = discrete_exp_measure(m + 1, n).atoms
        diffs = flow_values(ou, mu, atoms) - pi[None, :]
        h = np.exp(ou.kappa_hat * atoms) * psi_eps(eps, 0.5 * np.sum(diffs**2, axis=1))
        v_star = tataru_eps(ou, eps, pi, mu).value
        slack = (logsumexp(-atoms) - logsumexp(-(m + 1) * atoms)) / m
        assert val.neg_log >= v_star - slack - 1e-12
        i = int(np.argmin(atoms + h))
        upper = (atoms[i] + h[i]) + (atoms[i] + logsumexp(-(m + 1) * atoms) * (-1.0)) / m
        assert val.neg_log <= upper + 1e-12


def test_varadhan_error_curve_constant(ou):
    crit = np.zeros(ou.size)
    _, rows = varadhan_error_curve(ou, 0.5, crit, crit, [1, 10, 100])
    assert all(err <= 1e-10 for _, _, err in rows)


def test_varadhan_error_curve_requires_increasing_m(ou):
    with pytest.raises(ValueError, match="increasing"):
        varadhan_error_curve(ou, 0.5, [0.0], [1.0], [10, 10])


def test_varadhan_error_curve_decreasing_random(ou, rng):
    for _ in range(2):
        pi, mu = ou.sample(rng), ou.sample(rng)
        _, rows = varadhan_error_curve(ou, 0.1, pi, mu, [10, 10000])
        assert rows[-1][2] < rows[0][2]


def test_run_laplace_curve_writes_computed_neg_log_from_one_minimization(tmp_path,
                                                                         monkeypatch):
    cfg = default_config()
    lc = cfg.laplace
    space = cfg.space.build()
    tataru_module = sys.modules["hjflow.tataru"]
    minimized = []

    class Counted(HCurve):
        def __init__(self, space, pi, mu, eps=None, kappa_hat=None):
            minimized.append((pi.tolist(), mu.tolist(), None if eps is None else eps.tolist()))
            super().__init__(space, pi, mu, eps, kappa_hat)

    # tataru_batch builds one curve per call, for all its instances; laplace's
    # own curves are bound in laplace and not counted
    monkeypatch.setattr(tataru_module, "HCurve", Counted)
    run_laplace(cfg, tmp_path)
    assert minimized.count(([list(lc.pi)], [list(lc.mu)], [lc.epsilon])) == 1
    with open(tmp_path / "laplace_converge_curve.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["m"]) for r in rows] == list(lc.m_list)
    for r, m in zip(rows, lc.m_list):
        val = lambda_continuous(space, lc.epsilon, m, lc.pi, lc.mu)
        assert r["neg_log"] == fmt17(val.neg_log)


def test_exactly_solved_laplace_instances_pass(tmp_path, capsys):
    """A quadratic potential with kappa <= 0 solves the Laplace instance exactly:
    the curve's errors and the refinement gaps end at 0.  An error equal to the
    one before it is not an increase, so the rows pass (<=, not <)."""
    configs = (
        {"space": {"kind": "quantile", "size": 8, "potential": "quadratic", "kappa": 0.0},
         "laplace": {"pi": [0.0] * 8, "mu": [3.0] * 8}},
        {"space": {"kind": "euclidean", "size": 1, "potential": "quadratic", "kappa": -0.3}},
    )
    for k, config in enumerate(configs):
        cfg_path, out = tmp_path / f"cfg{k}.json", tmp_path / f"out{k}"
        cfg_path.write_text(json.dumps(config))
        assert main(["laplace-converge", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(out / "laplace_converge.csv", newline="", encoding="utf-8") as fh:
            rows = {r["check"]: r for r in csv.DictReader(fh)}
        monotone = rows["varadhan_monotone"]
        assert [monotone[c] for c in ("value", "bound", "pass")] == ["0", "0", "true"]


def test_hcurve_t_cap_no_worse_than_squaring_the_distance_back(ou, quantile_ou):
    # the quadrature cap d_eps + 1 of lambda_continuous
    rng = np.random.default_rng(23)
    for space in (ou, quantile_ou):
        rows = [(space.sample(rng), space.sample(rng)) for _ in range(300)]
        sq = np.array([space.sq_dist(pi, mu) for pi, mu in rows])
        eps = 0.5 * sq * np.exp(rng.uniform(-1.0, 1.0, sq.size))
        new = [HCurve(space, pi, mu, e).t_cap() for e, (pi, mu) in zip(eps, rows)]
        old = [old_t_cap(space, pi, mu, old_psi_consts(e)) for e, (pi, mu) in zip(eps, rows)]
        assert_t_cap(new, old, sq, eps)


def test_tilted_measure_constant_tilt_is_base_measure(ou):
    # constant exponent cancels: the tilted measure is the quadrature
    # discretization of the exponential law of rate m + 1
    crit = np.zeros(ou.size)
    m = 40
    tm = tilted_measure(ou, 0.5, m, crit, crit)
    assert tm.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert tm.expectation(tm.atoms) == pytest.approx(1.0 / (m + 1), abs=1e-9)
    # Laplace transform of the exponential law, exact to quadrature tolerance
    for s in (0.5, 2.0, 10.0):
        assert tm.expectation(np.exp(-s * tm.atoms)) == pytest.approx(
            (m + 1) / (m + 1 + s), abs=1e-8)


def test_tilted_measure_concentrates(ou):
    tm = tilted_measure(ou, 1e-3, 1000, [0.0], [3.0])
    assert tm.mass_within(np.log(3), 0.1) >= 0.95
    assert tm.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_tilted_mean_weight_converges(ou):
    eps = 1e-3
    pi, mu = np.array([0]), np.array([3])
    res = tataru_eps(ou, eps, pi, mu)
    t_star = float(res.minimizers[0])

    def mean_h(m):
        tm = tilted_measure(ou, eps, m, pi, mu)
        diffs = flow_values(ou, mu, tm.atoms) - pi[None, :]
        h = np.exp(ou.kappa_hat * tm.atoms) * psi_eps(eps, 0.5 * np.sum(diffs**2, axis=1))
        return tm.expectation(h)

    dstar = flow_values(ou, mu, [t_star])[0] - pi
    h_star = float(psi_eps(eps, 0.5 * float(np.dot(dstar, dstar))))
    gaps = [abs(mean_h(m) - h_star) for m in (50, 500, 5000)]
    assert gaps[2] < gaps[0]
    assert gaps[2] <= 0.01


def test_quadrature_nonconvergence_reports_tolerance(monkeypatch):
    def log_f(ts):
        return -1e4 * np.square(ts - 0.37)

    monkeypatch.setattr(laplace, "_QUAD_REL_TOL", 1e-13)
    monkeypatch.setattr(laplace, "_SEED_PANELS", 2)
    monkeypatch.setattr(laplace, "_MAX_PANELS", 4)
    with pytest.raises(RuntimeError, match="tolerance"):
        _adaptive_log_quadrature(log_f, 0.0, 1.0)


def test_laplace_rejects_bad_parameters(ou):
    with pytest.raises(ValueError):
        lambda_discrete(ou, 0.1, 0, 5, [0.0], [1.0])
    with pytest.raises(ValueError):
        lambda_continuous(ou, 0.1, 0, [0.0], [1.0])
    with pytest.raises(ValueError):
        discrete_exp_measure(0, 5)


def scalar_panel(log_f, a, b):
    """One 15/7-point Gauss panel on [a, b], evaluated on its own: the reference
    for the batched panels."""
    nodes15, weights15 = np.polynomial.legendre.leggauss(15)
    nodes7, weights7 = np.polynomial.legendre.leggauss(7)
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    ts = mid + half * nodes15
    log_contrib = log_f(ts) + np.log(weights15 * half)
    log_i15 = float(logsumexp(log_contrib))
    log_i7 = float(logsumexp(log_f(mid + half * nodes7) + np.log(weights7 * half)))
    top = max(log_i15, log_i7)
    gap = abs(math.exp(log_i15 - top) - math.exp(log_i7 - top)) if np.isfinite(top) else 0.0
    log_err = top + math.log(gap) if gap > 0 else -np.inf
    return log_i15, log_err, ts, log_contrib


@pytest.mark.parametrize("space_name", ["ou", "double_well", "quantile_ou"])
@pytest.mark.parametrize("m", [1, 100, 10000])
def test_batched_panels_match_one_panel_at_a_time(request, space_name, m):
    space = request.getfixturevalue(space_name)
    rng = np.random.default_rng(m)
    pi, mu = space.sample(rng), space.sample(rng)
    hcurve = HCurve(space, pi, mu, 0.1)

    def log_f(ts):
        return math.log(m + 1.0) - (m + 1.0) * ts - m * hcurve.h(ts)

    edges = np.linspace(0.0, hcurve.t_cap() + 5.0 / (m + 1), 65)
    log_i, log_err, ts, contrib = _panels(log_f, edges[:-1], edges[1:])
    for k in range(64):
        ref_i, ref_err, ref_ts, ref_contrib = scalar_panel(log_f, edges[k], edges[k + 1])
        assert ts[k] == pytest.approx(ref_ts, rel=1e-14, abs=1e-14)
        assert contrib[k] == pytest.approx(ref_contrib, rel=1e-14, abs=1e-14)
        assert log_i[k] == pytest.approx(ref_i, rel=1e-14, abs=1e-14)
        # the error estimate is a difference of two nearly equal sums, so it is
        # compared on the scale of the panel integral, which is how it is used
        assert abs(math.exp(log_err[k] - log_i[k]) - math.exp(ref_err - ref_i)) <= 1e-14
