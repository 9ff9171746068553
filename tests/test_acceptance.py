"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (run with -s or look at the pytest
verdicts).  Tolerances are pinned here and nowhere else.
"""

import json

import numpy as np
import pytest

from hjflow.cli import main as cli_main
from hjflow.cylinders import Affine
from hjflow.evi import evi_residual, run_evi_suite
from hjflow.hamiltonians import (
    build_chain_pair,
    build_cyl_pair,
    chain_inequality_report,
    side_sign,
)
from hjflow.laplace import (
    lambda_continuous,
    lambda_discrete,
    tilted_measure,
    varadhan_error_curve,
)
from hjflow.spaces import (
    double_well_potential,
    euclidean_space,
    quadratic_potential,
    quantile_space,
    quartic_potential,
)
from hjflow.tataru import psi_eps, psi_eps_prime
from hjflow.viscosity import (
    GridFunction,
    check_viscosity,
    comparison_gap,
    solve_resolvent,
)

from evi_helpers import contraction_violation, slope_decay_violation
from row_helpers import distance, flow, tataru, tataru_eps


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def ou():
    return euclidean_space(quadratic_potential(1.0))


@pytest.fixture(scope="module")
def smooth_h():
    def h(x):
        x = np.asarray(x, dtype=float)
        return 0.8 * np.cos(0.9 * x + 0.4) + 0.4 * np.cos(1.7 * x + 1.2)

    return h


@pytest.fixture(scope="module")
def value_function(ou, smooth_h):
    # dt = lam/100 keeps the scheme bias well inside the 5 dx acceptance slack
    return solve_resolvent(ou, 1.0, smooth_h, dt=1.0 / 100.0, dx=1.0 / 200.0)


def test_criterion_01_evi_exact_quadratic(ou):
    rng = np.random.default_rng(101)
    delta = 1e-4
    worst_res, worst_flow = -np.inf, -np.inf
    times = np.linspace(0.5, 20.0, 8)
    for _ in range(200):
        x, rho = ou.sample(rng), ou.sample(rng)
        t = float(rng.uniform(0.0, 5.0))
        worst_res = max(worst_res, abs(evi_residual(ou, x, rho, t, delta)))
        worst_flow = max(worst_flow, contraction_violation(ou, x, rho, times))
        worst_flow = max(worst_flow, slope_decay_violation(ou, x, times))
    ok = worst_res <= 1e-3 and worst_flow <= 1e-9
    verdict(1, "EVI exactness, quadratic potential", ok,
            f"max residual {worst_res:.2e}, max flow violation {worst_flow:.2e}")


def test_criterion_02_evi_kappa_convex():
    rng = np.random.default_rng(102)
    worst = -np.inf
    for space in (euclidean_space(quartic_potential(), sample_radius=1.5),
                  euclidean_space(double_well_potential(-0.5), sample_radius=1.5)):
        rep = run_evi_suite(space, rng, instances=200, delta=1e-4)
        worst = max(worst, max(r[2] for r in rep.rows))
        if not all(r[2] <= r[3] for r in rep.rows):
            bad = [r for r in rep.rows if not r[2] <= r[3]][0]
            verdict(2, "EVI checks, quartic and double-well", False, str(bad))
    verdict(2, "EVI checks, quartic and double-well", worst <= 1e-3,
            f"max violation {worst:.2e} over 200+200 instances")


def test_criterion_03_psi_eps():
    vals_ok = (psi_eps(0.5, 0.5) == 1.0 and psi_eps(0.5, 0.0) == 0.375
               and psi_eps(0.5, 2.0) == 2.0)
    grid_ok = True
    for eps in (1e-4, 1e-2, 0.5):
        r = np.linspace(0.0, 10.0, 10000)
        vals = psi_eps(eps, r)
        der = psi_eps_prime(eps, r)
        grid_ok &= bool(np.max(np.abs(vals - np.sqrt(2 * r))) <= np.sqrt(2 * eps) + 1e-12)
        grid_ok &= bool(np.all(der > 0) and np.all(np.diff(der) <= 0))
        grid_ok &= bool(np.all(np.diff(vals) > 0))
    verdict(3, "smoothed square root values and bounds", vals_ok and grid_ok)


def test_criterion_04_tataru_values_and_properties(ou):
    v1 = tataru(ou, np.array([0]), np.array([1])).value
    v3 = tataru(ou, np.array([0]), np.array([3])).value
    values_ok = abs(v1 - 1.0) <= 1e-6 and abs(v3 - (1 + np.log(3))) <= 1e-6

    rng = np.random.default_rng(104)
    tol = 1e-6
    worst = -np.inf
    for _ in range(500):
        m1, n1, m2, n2 = (ou.sample(rng) for _ in range(4))
        lhs = tataru(ou, m1, n1).value - tataru(ou, m2, n2).value
        worst = max(worst, lhs - distance(ou, m1, m2) - distance(ou, n1, n2))
    lipschitz_ok = worst <= tol

    worst = -np.inf
    for _ in range(500):
        nu, nu_hat = ou.sample(rng), ou.sample(rng)
        base = tataru(ou, nu, nu_hat).value
        for r in (1e-3, 1e-2, 1e-1):
            worst = max(worst, (tataru(ou, flow(ou, nu, r), nu_hat).value - base) / r)
    flow_ok = worst <= 1 + 1e-6

    worst = -np.inf
    for _ in range(500):
        rho, mid, nu = (ou.sample(rng) for _ in range(3))
        worst = max(worst, tataru(ou, rho, nu).value
                    - tataru(ou, rho, mid).value - tataru(ou, mid, nu).value)
    triangle_ok = worst <= tol

    worst = -np.inf
    for _ in range(500):
        x, y = ou.sample(rng), ou.sample(rng)
        k2 = float(rng.uniform(-1, 1))
        k1 = k2 - float(rng.uniform(0, 1))
        worst = max(worst, tataru(ou, x, y, kappa_override=k1).value
                    - tataru(ou, x, y, kappa_override=k2).value)
    kappa_ok = worst <= 1e-9

    ok = values_ok and lipschitz_ok and flow_ok and triangle_ok and kappa_ok
    verdict(4, "Tataru values and Lipschitz/triangle/kappa suites", ok,
            f"values {values_ok}, lipschitz {lipschitz_ok}, flow {flow_ok}, "
            f"triangle {triangle_ok}, kappa {kappa_ok}")


def test_criterion_05_smoothed_tataru_convergence(ou):
    quant = quantile_space(quadratic_potential(1.0), grid_size=16)
    rng = np.random.default_rng(105)
    worst_ratio = -np.inf
    for eps in (1e-4, 1e-2):
        bound = np.sqrt(2 * eps)
        for space in (ou, quant):
            for _ in range(50):
                pi, mu = space.sample(rng), space.sample(rng)
                gap = abs(tataru_eps(space, eps, pi, mu).value
                          - tataru(space, pi, mu).value)
                worst_ratio = max(worst_ratio, gap / bound)
    verdict(5, "smoothed Tataru convergence", worst_ratio <= 1.0 + 1e-9,
            f"worst gap / sqrt(2 eps) = {worst_ratio:.3f} over 100 pairs per eps")


def test_criterion_06_laplace_varadhan(ou):
    crit = np.zeros(ou.size)
    worst_const = max(abs(lambda_continuous(ou, 0.5, m, crit, crit).neg_log
                          - psi_eps(0.5, 0.0)) for m in (1, 10, 100, 1000, 10000))
    const_ok = worst_const <= 1e-10

    _, curve = varadhan_error_curve(ou, 0.1, [0.0], [3.0], [10, 100, 1000, 10000])
    final_ok = curve[-1][2] < 0.05 and curve[-1][2] < curve[0][2]

    ref = lambda_continuous(ou, 0.1, 20, [0.0], [3.0])
    gaps = [abs(lambda_discrete(ou, 0.1, 20, n, [0.0], [3.0]).log_value
                - ref.log_value) for n in (10, 40, 160)]
    refine_ok = gaps[0] > gaps[1] > gaps[2]
    ok = const_ok and final_ok and refine_ok
    verdict(6, "Laplace/Varadhan limits", ok,
            f"const err {worst_const:.1e}; curve {[(m, round(e, 4)) for m, _, e in curve]}; "
            f"refinement gaps {[round(g, 5) for g in gaps]}")


def test_criterion_07_tilted_concentration(ou):
    tm = tilted_measure(ou, 1e-3, 1000, [0.0], [3.0])
    mass = tm.mass_within(np.log(3), 0.1)
    verdict(7, "tilted-measure concentration", mass >= 0.95,
            f"mass within 0.1 of ln 3 at m=1000: {mass:.4f}")


def test_criterion_08_chain_1to2(ou):
    rng = np.random.default_rng(108)
    worst = max(row[2] for row in chain_inequality_report(ou, "1to2", 500, rng))
    verdict(8, "ladder inequality 1 -> 2", worst <= 1e-9,
            f"max(g1 - g2) = {worst:.3e} over 500 samples")


def test_criterion_09_chain_4to5(ou):
    rng = np.random.default_rng(109)
    worst = max(row[2] for row in chain_inequality_report(ou, "4to5", 500, rng))
    verdict(9, "ladder inequality 4 -> 5", worst <= 1e-6,
            f"max(LHS - 1) = {worst:.3e} over 500 samples")


def test_criterion_10_level56_identity(ou):
    rng = np.random.default_rng(110)
    g_ok, f_ok = True, True
    for _ in range(50):
        a, b = float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.2, 1.5))
        c = float(rng.uniform(-1, 1))
        eps = float(rng.uniform(1e-4, 0.5))
        rho, mu, pi = ou.sample(rng), ou.sample(rng), ou.sample(rng)
        p5 = build_chain_pair(ou, 5, "dagger", dict(a=a, b=b, c=c, eps=eps, rho=rho, mu=mu))
        p6 = build_chain_pair(ou, 6, "dagger", dict(a=a, b=b, c=c, rho=rho, mu=mu))
        g_ok &= p5.g(pi) == p6.g(pi)
        f_ok &= abs(p5.f(pi) - p6.f(pi)) <= b * np.sqrt(2 * eps) + 1e-12
    verdict(10, "levels 5/6 share g, f gap bounded", g_ok and f_ok,
            f"g bit-identical: {g_ok}, f gap within b sqrt(2 eps): {f_ok}")


def test_criterion_11_resolvent_lq_oracle(ou):
    # first-order dt bias: lam/200 sits a factor ~4 inside the 1e-2 threshold
    sol = solve_resolvent(ou, 1.0, lambda x: np.clip(x, -5, 5),
                          dt=1.0 / 200.0, dx=1.0 / 200.0)
    mask = np.abs(sol.u.xs) <= 2.0
    exact = sol.u.xs[mask] / 2.0 + 0.125
    rel = float(np.max(np.abs(sol.u.values[mask] - exact)) / np.max(np.abs(exact)))

    const = solve_resolvent(ou, 1.0, lambda x: np.full_like(np.asarray(x, float), 0.7))
    const_err = float(np.max(np.abs(const.u.values - 0.7)))

    h = lambda x: np.cos(0.8 * np.asarray(x, dtype=float))
    s1 = solve_resolvent(ou, 1.0, h)
    s2 = solve_resolvent(ou, 1.0, lambda x: h(x) - 0.25)
    shift_err = float(np.max(np.abs(s2.u.values - (s1.u.values - 0.25))))

    ok = rel < 1e-2 and const_err <= 1e-8 and shift_err <= 1e-8
    verdict(11, "resolvent linear-quadratic oracle", ok,
            f"sup-norm rel err {rel:.2e} on |x|<=2; const {const_err:.1e}; "
            f"shift {shift_err:.1e}")


def test_criterion_12_viscosity_verdicts(ou, smooth_h, value_function):
    rng = np.random.default_rng(112)
    sol = value_function
    tol = 5 * sol.dx

    def sample_pair(side):
        a = float(rng.uniform(0.1, 0.6))
        k = int(rng.integers(1, 3))
        w = rng.uniform(0.05, 0.5, size=k)
        c = float(rng.uniform(0.0, 0.5))
        base = np.array([rng.uniform(-1.5, 1.5)])
        anchors = [[rng.uniform(-1.5, 1.5)] for _ in range(k)]
        if side == "dagger":
            return build_cyl_pair(ou, "dagger", a, Affine(w, c), base, anchors)
        return build_cyl_pair(ou, "ddagger", a, Affine(w, c), base, anchors)

    def holds(u, pair, h):
        """The sub- resp. supersolution inequality up to tol at a near-optimizer."""
        return side_sign(pair.side) * check_viscosity(u, pair, h, 1.0).slack <= tol

    sub_ok = all(holds(sol.u, sample_pair("dagger"), smooth_h) for _ in range(50))
    sup_ok = all(holds(sol.u, sample_pair("ddagger"), smooth_h) for _ in range(50))

    xs = sol.u.xs
    zeros_h = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    x0 = float(xs[len(xs) // 2 + 11])
    fail_pair = build_cyl_pair(ou, "dagger", 0.5, Affine([0.3]), np.array([x0]),
                               [[x0]])
    fail_sub = holds(GridFunction(xs, np.ones_like(xs)), fail_pair, zeros_h)
    fail_pair_d = build_cyl_pair(ou, "ddagger", 0.5, Affine([0.3]), np.array([x0]),
                                 [[x0]])
    fail_sup = holds(GridFunction(xs, -np.ones_like(xs)), fail_pair_d, zeros_h)
    designed_ok = (not fail_sub) and (not fail_sup)

    ok = sub_ok and sup_ok and designed_ok
    verdict(12, "viscosity verdicts for the value function", ok,
            f"50 sub pass: {sub_ok}; 50 super pass: {sup_ok}; designed failures "
            f"fail: {designed_ok} (slack tol {tol})")


def test_criterion_13_comparison_principle(ou):
    rng = np.random.default_rng(113)
    dx = 1.0 / 100.0
    all_ok = True
    for _ in range(20):
        terms = [(float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.3, 1.5)),
                  float(rng.uniform(0, 2 * np.pi))) for _ in range(3)]

        def h_dag(x, terms=terms):
            x = np.asarray(x, dtype=float)
            return sum(a * np.cos(w * x + p) for a, w, p in terms)

        amp = float(rng.uniform(0.05, 0.4))
        freq = float(rng.uniform(0.5, 1.5))
        phase = float(rng.uniform(0, 2 * np.pi))

        def h_ddag(x, h_dag=h_dag, amp=amp, freq=freq, phase=phase):
            x = np.asarray(x, dtype=float)
            return h_dag(x) - amp * np.square(np.sin(freq * x + phase))

        su = solve_resolvent(ou, 1.0, h_dag, dx=dx)
        sv = solve_resolvent(ou, 1.0, h_ddag, dx=dx)
        res = comparison_gap(su.u, sv.u, h_dag, h_ddag, su.fixed_point_tol, dx)
        all_ok &= res.lhs <= res.rhs + res.slack

    h = lambda x: np.cos(0.9 * np.asarray(x, dtype=float))
    h_shift = lambda x: h(x) - 0.3
    su = solve_resolvent(ou, 1.0, h, dx=dx)
    sv = solve_resolvent(ou, 1.0, h_shift, dx=dx)
    res = comparison_gap(su.u, sv.u, h, h_shift, su.fixed_point_tol, dx)
    tight_ok = res.lhs <= res.rhs + res.slack and abs(res.lhs - res.rhs) <= res.slack
    verdict(13, "comparison principle", all_ok and tight_ok,
            f"20 ordered pairs pass: {all_ok}; shift pair equality gap "
            f"{abs(res.lhs - res.rhs):.2e} <= slack {res.slack:.3f}")


def test_criterion_14_determinism(tmp_path):
    cfg = {
        "schema": 1,
        "seed": 31415,
        "evi": {"instances": 3},
        "tataru": {"instances": 3, "dump_objective": True},
        "laplace": {"m_list": [10, 100], "concentration_m": 1000, "refine_n": [10, 40]},
        "ham_chain": {"link": "1to2", "samples": 3},
        "resolvent": {"dx": 0.02, "dt_factor": 20},
        "comparison": {"pairs": 1, "dx": 0.02},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = cli_main(["all", "--config", str(cfg_path), "--out", str(out1)])
    code2 = cli_main(["all", "--config", str(cfg_path), "--out", str(out2)])
    identical = True
    names = sorted(p.name for p in out1.glob("*.csv"))
    for name in names:
        identical &= (out1 / name).read_bytes() == (out2 / name).read_bytes()
    ok = code1 == 0 and code2 == 0 and identical and len(names) >= 7
    verdict(14, "seeded reruns are byte-identical", ok,
            f"{len(names)} CSV artifacts compared, exit codes {code1}/{code2}")
