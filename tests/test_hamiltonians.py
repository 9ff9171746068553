import ast
from pathlib import Path

import numpy as np
import pytest

from hjflow.cylinders import Affine, CylNode, SoftminPsi, TruncatedAffine
from hjflow.hamiltonians import (
    build_chain_pair,
    build_cyl_pair,
    build_h0_pair,
    chain_inequality_report,
    composite_phi_for_push,
)
from hjflow.spaces import double_well_potential, euclidean_space
from hjflow.tataru import psi_eps, psi_eps_prime

from cylinder_helpers import finite_difference_grad, identity_phi
from row_helpers import distance, energy, flow, flow_values, tataru_eps

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hjflow"


def five_term_g_dagger(space, a, weights, const, rho, mus, pi):
    """Independent re-evaluation of the upper-bound g for an affine base."""
    kappa = space.kappa
    d0 = distance(space, pi, rho)
    e_pi = energy(space, pi)
    total = a * (energy(space, rho) - e_pi - 0.5 * kappa * d0**2)
    total += 0.5 * a**2 * d0**2
    cross = 0.0
    for w, mu in zip(weights, mus):
        di = distance(space, pi, mu)
        total += w * (energy(space, mu) - e_pi - 0.5 * kappa * di**2)
        cross += w * di
    total += 0.5 * cross**2
    total += a * d0 * cross
    return total


def test_cyl_dagger_hand_example(ou):
    pair = build_cyl_pair(ou, "dagger", 1.0, identity_phi(), np.array([0]), [[0.0]])
    pi = np.array([1])
    assert pair.f(pi) == pytest.approx(1.0)
    assert pair.g(pi) == pytest.approx(0.0, abs=1e-14)


def test_cyl_dagger_degenerate(ou):
    crit = np.zeros(ou.size)
    pair = build_cyl_pair(ou, "dagger", 1.0, Affine([1.0], 0.3), crit, [crit])
    assert pair.f(crit) == pytest.approx(0.3)  # phi(0)
    assert pair.g(crit) == pytest.approx(0.0, abs=1e-14)


def test_cyl_dagger_matches_independent_reevaluation(quartic, rng):
    for _ in range(20):
        a = float(rng.uniform(0.2, 1.5))
        k = int(rng.integers(1, 4))
        weights = rng.uniform(0.1, 1.0, size=k)
        const = float(rng.uniform(-0.5, 0.5))
        rho = quartic.sample(rng)
        mus = [quartic.sample(rng) for _ in range(k)]
        pi = quartic.sample(rng)
        pair = build_cyl_pair(quartic, "dagger", a, Affine(weights, const), rho, mus)
        oracle = five_term_g_dagger(quartic, a, weights, const, rho, mus, pi)
        assert pair.g(pi) == pytest.approx(oracle, abs=1e-12)


def test_cyl_dagger_rejects_bad_inputs(ou):
    with pytest.raises(ValueError, match="positive"):
        build_cyl_pair(ou, "dagger", 0.0, identity_phi(), np.array([0]), [[0.0]])
    with pytest.raises(ValueError, match="not in class T"):
        build_cyl_pair(ou, "dagger", 1.0, Affine([-1.0]), np.array([0]), [[0.0]])


def test_cyl_ddagger_hand_example(ou):
    crit = np.zeros(ou.size)
    pair = build_cyl_pair(ou, "ddagger", 1.0, identity_phi(), crit, [crit])
    assert pair.f(crit) == pytest.approx(0.0)
    assert pair.g(crit) == pytest.approx(0.0, abs=1e-14)
    mu = np.array([1])
    assert pair.f(mu) == pytest.approx(-1.0)
    assert pair.g(mu) == pytest.approx(1.0, abs=1e-14)


def test_cyl_ddagger_below_dagger_style_bound(ou, rng):
    # the subtracted cross terms keep the lower g beneath the Cauchy-Schwarz
    # style upper variant with + (sum grad d)^2 / 2
    for _ in range(20):
        a = float(rng.uniform(0.2, 1.5))
        weights = rng.uniform(0.1, 1.0, size=2)
        gamma = ou.sample(rng)
        pis = [ou.sample(rng) for _ in range(2)]
        mu = ou.sample(rng)
        pair = build_cyl_pair(ou, "ddagger", a, Affine(weights), gamma, pis)
        e_mu = energy(ou, mu)
        d0 = distance(ou, mu, gamma)
        upper = a * (e_mu - energy(ou, gamma) + 0.5 * ou.kappa * d0**2) + 0.5 * a**2 * d0**2
        cross = 0.0
        for w, p in zip(weights, pis):
            di = distance(ou, mu, p)
            upper += w * (e_mu - energy(ou, p) + 0.5 * ou.kappa * di**2)
            cross += w * di
        upper += 0.5 * cross**2 + a * d0 * cross
        assert pair.g(mu) <= upper + 1e-12


def test_h0_pair_examples(ou, rng):
    crit = np.zeros(ou.size)
    phi = TruncatedAffine(2, [1.0])
    for side, sign in (("dagger", 1.0), ("ddagger", -1.0)):
        pair = build_h0_pair(ou, side, phi, [crit])
        assert pair.f(crit) == pytest.approx(sign * 0.0)
        assert pair.g(crit) == pytest.approx(0.0, abs=1e-14)

    # overlap with the quadratic-free cylindrical pair below the knee
    pair0 = build_h0_pair(ou, "dagger", phi, [crit])
    for _ in range(10):
        pi = np.array([rng.uniform(-1.8, 1.8)])  # half squared distance <= 1.62 < 2
        r = 0.5 * distance(ou, pi, crit) ** 2
        assert r < 2
        # below the knee iota is the identity, so g matches the affine base
        direct = (1.0 * (energy(ou, crit) - energy(ou, pi) - 0.5 * ou.kappa * 2 * r)
                  + 0.5 * (np.sqrt(2 * r)) ** 2)
        assert pair0.g(pi) == pytest.approx(direct, abs=1e-12)


def test_h0_requires_bounded(ou):
    with pytest.raises(ValueError, match="class T_b"):
        build_h0_pair(ou, "dagger", identity_phi(), [[0.0]])
    # the unbounded flat families
    softmin, ts = composite_phi_for_push(ou, eps=0.3, b=0.9, c=0.1, m=6, n=2)
    for phi, k in ((Affine([1.0]), 1), (Affine([0.4, 0.3], 0.1), 2), (softmin, ts.size)):
        with pytest.raises(ValueError, match="class T_b"):
            build_h0_pair(ou, "dagger", phi, np.zeros((k, ou.size)))


def test_h0_ddagger_below_cauchy_schwarz_bound(ou, rng):
    # the subtracted off-diagonal products keep the lower g beneath the
    # dagger-style variant with + (sum grad d)^2 / 2 on the same energy terms
    weights = np.array([0.7, 0.9])
    phi = TruncatedAffine(4, weights)
    anchors = [ou.sample(rng), ou.sample(rng)]
    pair = build_h0_pair(ou, "ddagger", phi, anchors)
    for _ in range(10):
        mu = ou.sample(rng)
        dists = np.array([distance(ou, mu, a) for a in anchors])
        r = 0.5 * dists**2
        grad = phi.vag(r)[1]
        e_mu = energy(ou, mu)
        energy_terms = sum(
            g * (e_mu - energy(ou, a) + 0.5 * ou.kappa * d**2)
            for g, a, d in zip(grad, anchors, dists)
        )
        upper = energy_terms + 0.5 * float(np.dot(grad, dists)) ** 2
        assert pair.g(mu) <= upper + 1e-12


def test_composite_phi_partials_match_finite_differences(ou, rng):
    phi, ts = composite_phi_for_push(ou, eps=0.3, b=0.9, c=0.1, m=6, n=2)
    for _ in range(5):
        r = rng.uniform(0.05, 2.0, size=ts.size)
        _, grad = phi.vag(r)
        assert np.allclose(grad, finite_difference_grad(phi, r), atol=1e-6)
        assert np.all(grad > 0)


def test_softmin_node_partials_match_finite_differences(rng):
    # kappa_hat < 0: unequal weights w_i = exp(kappa_hat t_i), on a batch of rows
    space = euclidean_space(double_well_potential(-0.5), sample_radius=1.5)
    for m, n in ((1, 1), (7, 3), (40, 5)):
        phi, ts = composite_phi_for_push(space, eps=0.2, b=1.1, c=-0.3, m=m, n=n)
        assert np.all(np.diff(phi.w) < 0)
        r = rng.uniform(0.05, 2.0, size=(4, 3, ts.size))
        _, grad = phi.vag(r)
        assert np.allclose(grad, finite_difference_grad(phi, r), atol=1e-6)


def test_softmin_node_class_t_underflow_and_rejection(ou):
    # m = 40 and widely spread r: all softmin weight on the near coordinate, the
    # others underflow to exact-zero partials, which no row check refuses: the
    # node is in class T by its parameters, checked when it was built
    phi, ts = composite_phi_for_push(ou, eps=0.3, b=0.9, c=0.1, m=40, n=5)
    r = np.full((2, ts.size), 1e3)
    r[0, 0] = r[1, -1] = 0.01
    _, grad = phi.vag(r)
    assert grad[0, 0] > 0 and grad[1, -1] > 0
    assert np.count_nonzero(grad == 0) == 2 * (ts.size - 1)
    # a nonpositive or NaN scale b, or one nonpositive or NaN weight w_i, is
    # out of class: the node is refused when it is built
    for b in (0.0, -0.9, np.nan):
        with pytest.raises(ValueError, match="not in class T"):
            SoftminPsi(eps=0.3, m=40.0, b=b, c=0.1, w=phi.w, log_w=phi.log_w)
    for bad in (0.0, -0.2, np.nan):
        w = phi.w.copy()
        w[3] = bad
        with pytest.raises(ValueError, match="not in class T"):
            SoftminPsi(eps=0.3, m=40.0, b=0.9, c=0.1, w=w, log_w=phi.log_w)


@pytest.mark.parametrize("n", (1, 3, 5))
def test_composite_phi_is_one_array_node(ou, n):
    """The composite is a single array node: no child combinators to walk per vag."""
    phi, ts = composite_phi_for_push(ou, eps=0.3, b=0.9, c=0.1, m=6, n=n)
    assert type(phi) is SoftminPsi
    for value in vars(phi).values():
        assert not isinstance(value, (CylNode, tuple, list))
    for arr in (phi.w, phi.log_w):
        assert isinstance(arr, np.ndarray) and arr.shape == (n * n,) == ts.shape


def test_ddagger_f_bounded_above(ou, rng):
    c = 0.4
    pair = build_cyl_pair(ou, "ddagger", 0.8, Affine([0.5], c), ou.sample(rng),
                          [ou.sample(rng)])
    for _ in range(20):
        assert pair.f(ou.sample(rng)) <= -c + 1e-12


def test_tataru_pair_examples(ou):
    pair = build_chain_pair(ou, 6, "dagger",
                            dict(a=1.0, b=1.0, c=0.0, rho=np.array([0]), mu=np.array([1])))
    assert pair.f([0]) == pytest.approx(1.0, abs=1e-9)
    assert pair.g([0]) == pytest.approx(1.5)
    crit = np.zeros(ou.size)
    pair2 = build_chain_pair(ou, 6, "dagger", dict(a=1.0, b=0.5, c=0.7, rho=crit, mu=crit))
    assert pair2.f(crit) == pytest.approx(0.7)
    assert pair2.g(crit) == pytest.approx(0.5 + 0.125)
    with pytest.raises(ValueError, match="positive"):
        build_chain_pair(ou, 6, "dagger", dict(a=1.0, b=0.0, c=0.0, rho=crit, mu=crit))


def test_pairs_and_curves_keep_their_rows_when_the_caller_writes_to_them(quartic, rng):
    # builders hold copies of the rows they are given, the flow anchors of the
    # ladder pairs among them
    base, anchor = quartic.sample(rng), quartic.sample(rng)
    anchors = np.stack([quartic.sample(rng) for _ in range(2)])
    params = dict(a=0.7, b=0.4, c=0.1, eps=0.2, m=5, n=2, rho=base, mu=anchor)
    pairs = [build_cyl_pair(quartic, "dagger", 0.7, Affine([0.4, 0.3]), base, anchors),
             build_h0_pair(quartic, "ddagger", TruncatedAffine(2, [0.4, 0.3]), anchors),
             *(build_chain_pair(quartic, level, "dagger", params) for level in (2, 4, 5))]
    x = np.stack([quartic.sample(rng) for _ in range(3)])
    before = [(pair.f(x), pair.g(x)) for pair in pairs]
    for row in (base, anchor, anchors):
        row += 1.0
    after = [(pair.f(x), pair.g(x)) for pair in pairs]
    for (f0, g0), (f1, g1) in zip(before, after):
        assert np.array_equal(f0, f1) and np.array_equal(g0, g1)


def test_tataru_pair_lipschitz_on_box(ou, rng):
    a, b = 0.8, 0.6
    pair = build_chain_pair(ou, 6, "dagger",
                            dict(a=a, b=b, c=0.0, rho=np.array([0.5]), mu=np.array([-1.0])))
    diam = 2 * ou.box
    const = a * diam + b + a * diam
    for _ in range(20):
        x, y = ou.sample(rng), ou.sample(rng)
        lhs = abs(pair.f(x) - pair.f(y))
        assert lhs <= const * distance(ou, x, y) + 1e-9


def test_tataru_pair_ddagger_mirror(ou):
    crit = np.zeros(ou.size)
    pair = build_chain_pair(ou, 6, "ddagger",
                            dict(a=1.0, b=1.0, c=0.0, gamma=crit, pi=np.array([1])))
    mu = np.array([0])
    # f = -1/2 d^2(mu, crit) - b d_T(mu, anchor) + 0 with d_T((0), (1)) = 1
    assert pair.f(mu) == pytest.approx(-1.0, abs=1e-9)
    assert pair.g(mu) == pytest.approx(-1.0 - 0.5)


def test_chain_level2_constant_instance(ou):
    crit = np.zeros(ou.size)
    pair = build_chain_pair(ou, 2, "dagger",
                            dict(a=1.0, b=1.0, c=0.25, eps=0.5, m=7, n=3,
                                 rho=crit, mu=crit))
    assert pair.f(crit) == pytest.approx(0.25 + psi_eps(0.5, 0.0), abs=1e-12)


def test_chain_level4_sup_at_minimizer(ou):
    eps = 1e-3
    pair = build_chain_pair(ou, 4, "dagger",
                            dict(a=1.0, b=1.0, c=0.0, eps=eps, rho=np.array([0]),
                                 mu=np.array([3])))
    pi = np.array([0])
    res = tataru_eps(ou, eps, pi, np.array([3]))
    assert res.minimizers.size == 1
    assert res.minimizers[0] == pytest.approx(np.log(3), abs=1e-2)
    # kappa_hat = 0: sup term reduces to the energy gap at t*, scaled by psi'
    t_star = float(res.minimizers[0])
    flow_val = flow(ou, np.array([3]), t_star)
    gap = energy(ou, flow_val) - energy(ou, pi)
    dist2 = distance(ou, pi, flow_val) ** 2
    expected_sup = gap * psi_eps_prime(eps, 0.5 * dist2)
    # pi = rho: the quadratic, cross and energy-gap terms vanish, b^2/2 stays
    base = 0.5
    assert pair.g(pi) == pytest.approx(base + expected_sup, abs=1e-6)


def test_chain_level5_level6_identity(ou, rng):
    for _ in range(10):
        a, b = float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.2, 1.5))
        c = float(rng.uniform(-1, 1))
        eps = float(rng.uniform(1e-4, 0.5))
        rho, mu, pi = ou.sample(rng), ou.sample(rng), ou.sample(rng)
        p5 = build_chain_pair(ou, 5, "dagger", dict(a=a, b=b, c=c, eps=eps, rho=rho, mu=mu))
        p6 = build_chain_pair(ou, 6, "dagger", dict(a=a, b=b, c=c, rho=rho, mu=mu))
        assert p5.g(pi) == p6.g(pi)  # bit-identical shared closed form
        assert abs(p5.f(pi) - p6.f(pi)) <= b * np.sqrt(2 * eps) + 1e-12


def test_chain_missing_parameter(ou):
    crit = np.zeros(ou.size)
    with pytest.raises(ValueError, match="missing parameter 'n' for level 2"):
        build_chain_pair(ou, 2, "dagger", dict(a=1, b=1, c=0, eps=0.1, m=3,
                                               rho=crit, mu=crit))
    with pytest.raises(ValueError, match="level"):
        build_chain_pair(ou, 7, "dagger", dict())
    with pytest.raises(ValueError, match="side"):
        build_chain_pair(ou, 5, "up", dict(a=1, b=1, c=0, eps=0.1, rho=crit, mu=crit))


def test_chain_ddagger_requires_its_anchors(ou):
    crit = np.zeros(ou.size)
    with pytest.raises(ValueError, match="missing parameter 'gamma'"):
        build_chain_pair(ou, 5, "ddagger", dict(a=1, b=1, c=0, eps=0.1,
                                                rho=crit, mu=crit))
    pair = build_chain_pair(ou, 5, "ddagger", dict(a=1, b=1, c=0, eps=0.1,
                                                   gamma=crit, pi=crit))
    assert pair.g(crit) == pytest.approx(-1.0 - 0.5)


def max_gap(rows) -> float:
    """The largest value column: g1 - g2, LHS - 1 or |g0 - g1| by link."""
    return max(row[2] for row in rows)


def test_chain_inequality_links(ou, rng):
    rows = chain_inequality_report(ou, "1to2", 30, rng)
    assert max_gap(rows) <= 1e-9
    rows = chain_inequality_report(ou, "4to5", 30, rng)
    assert max_gap(rows) <= 1e-6
    rows = chain_inequality_report(ou, "0to1", 30, rng)
    assert max_gap(rows) <= 1e-9
    with pytest.raises(ValueError, match="unknown chain link"):
        chain_inequality_report(ou, "2to3", 1, rng)


def test_chain_inequality_other_spaces(double_well, quantile_ou, rng):
    for space in (double_well, quantile_ou):
        assert max_gap(chain_inequality_report(space, "1to2", 10, rng)) <= 1e-9
        assert max_gap(chain_inequality_report(space, "4to5", 10, rng)) <= 1e-6


def test_chain_1to2_holds_on_double_well_probe_instances():
    # the level-2 g keeps its max(1/m, h) floor in the damping integral; on the
    # double well (kappa_hat < 0, where the floor matters) the generic
    # cylindrical g stays below it on every sampled instance
    space = euclidean_space(double_well_potential(-0.5), sample_radius=1.5)
    rows = chain_inequality_report(space, "1to2", 50, np.random.default_rng(20240817))
    assert len(rows) == 50
    assert all(row[2] <= row[3] for row in rows)
    assert max_gap(rows) < 0


def test_chain_1to2_degenerate_sample(ou):
    crit = np.zeros(ou.size)
    b, c, eps, m, n = 0.7, 0.1, 0.3, 5, 2
    phi, ts = composite_phi_for_push(ou, eps, b, c, m, n)
    pair1 = build_cyl_pair(ou, "dagger", 1.0, phi, crit, flow_values(ou, crit, ts))
    pair2 = build_chain_pair(ou, 2, "dagger",
                             dict(a=1.0, b=b, c=c, eps=eps, m=m, n=n, rho=crit, mu=crit))
    g1, g2 = pair1.g(crit), pair2.g(crit)
    assert np.isfinite(g1) and np.isfinite(g2)
    assert g1 <= g2 + 1e-12
    assert pair1.f(crit) == pytest.approx(pair2.f(crit), abs=1e-12)


def test_pair_evaluations_deterministic(ou, rng):
    pair = build_chain_pair(ou, 6, "dagger",
                            dict(a=0.9, b=0.8, c=0.1, rho=np.array([0.3]), mu=np.array([-0.7])))
    x = np.array([1.234])
    assert pair.f(x) == pair.f(x)
    assert pair.g(x) == pair.g(x)
    pair2 = build_chain_pair(ou, 3, "dagger",
                             dict(a=0.9, b=0.8, c=0.1, eps=0.2, m=9,
                                  rho=np.array([0.3]), mu=np.array([-0.7])))
    assert pair2.f(x) == pair2.f(x)
    assert pair2.g(x) == pair2.g(x)


def test_dagger_f_bounded_below(ou, rng):
    # after removing the constant, the quadratic and base terms are nonnegative
    for _ in range(5):
        a = float(rng.uniform(0.2, 1.5))
        c = float(rng.uniform(-1, 1))
        weights = rng.uniform(0.1, 1.0, size=2)
        pair = build_cyl_pair(ou, "dagger", a, Affine(weights, c), ou.sample(rng),
                              [ou.sample(rng), ou.sample(rng)])
        for _ in range(20):
            assert pair.f(ou.sample(rng)) >= c - 1e-12


def test_chain_end_to_end_limit(ou):
    """Along m = n^2 the level-2 g converges to the level-4 g, which the
    closed-form level-5 g dominates.

    The flow-action term of level 4 at the minimizer is strictly below 1 in
    general (0.5 on this instance), so level 2 does NOT converge to level 5;
    the ladder gives convergence to 4 plus the 4 -> 5 inequality.
    """
    params = dict(a=0.8, b=1.1, c=0.0, eps=1e-3, rho=np.array([0.0]), mu=np.array([3.0]))
    pi = np.array([0.0])
    p4 = build_chain_pair(ou, 4, "dagger", params)
    p5 = build_chain_pair(ou, 5, "dagger", params)
    g4, g5 = p4.g(pi), p5.g(pi)
    assert g4 <= g5 + 1e-12
    gaps = []
    for n in (4, 8, 16):
        p2 = build_chain_pair(ou, 2, "dagger", {**params, "m": n * n, "n": n})
        gaps.append(abs(p2.g(pi) - g4))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 0.05
    # and the 4 -> 5 gap on this instance is genuinely positive (about b/2)
    assert g5 - g4 == pytest.approx(1.1 * 0.5, abs=0.01)


def test_level2_level3_agree_for_large_n(ou):
    params = dict(a=0.7, b=0.9, c=0.2, eps=0.15, m=12, rho=np.array([0.4]), mu=np.array([2.0]))
    pair3 = build_chain_pair(ou, 3, "dagger", params)
    pi = np.array([-0.5])
    gaps = []
    for n in (5, 20, 80):
        pair2 = build_chain_pair(ou, 2, "dagger", {**params, "n": n})
        gaps.append(abs(pair2.f(pi) - pair3.f(pi)))
    assert gaps[0] > gaps[1] > gaps[2]
    # the Riemann-sum gap decays like (m+1)/(2n)
    assert gaps[2] < 0.01


def _callers(name: str) -> list:
    """(module, top-level definition) of every call of ``name`` in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(stmt):
                func = node.func if isinstance(node, ast.Call) else None
                if getattr(func, "id", getattr(func, "attr", None)) == name:
                    out.append((path.name, getattr(stmt, "name", None)))
    return sorted(out)


def test_pairs_are_built_in_one_place():
    """Only ``_pair`` builds a ``HamiltonianPair``, and only the builders of the
    three families call it: the cylindrical pairs and the closed-form ladder."""
    assert PACKAGE.is_dir()
    assert _callers("HamiltonianPair") == [("hamiltonians.py", "_pair")]
    assert _callers("_pair") == [("hamiltonians.py", name)
                                 for name in ("_closed_pair", "build_cyl_pair", "build_h0_pair")]
