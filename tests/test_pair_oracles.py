"""Oracles for the sign-parametrized pair builders, the flow-action kernel, the
one viscosity check, the evaluation of pairs on rows and the ladder's level-1
composite.

The hand-mirrored dagger/ddagger builders, the ladder with its own copy of the
flow action, the 4to5 loop, the separate sub/supersolution checks, the
viscosity check that evaluated f and g one grid point at a time and the
composite as a combinator tree (``SumExpNegLog`` over ``Affine(Psi(Coord(i)))``)
are kept here verbatim, except that the oracles take one coordinate row at a
time and evaluate distances, energies and Tataru distances by the one-row
helpers of ``row_helpers``.  Where the arithmetic is the same, the current code
must match them bit for bit: the array node ``SoftminPsi`` against the tree,
the 4to5 rows, the 1to2 rows, the 0to1 rows (built on the tree of
``cylinder_helpers``, as the link once built them) and the viscosity checks.

The pair values f and g are composites whose arithmetic changed: the oracles
square the float distance (d0**2, dists**2, cross**2), the pairs take d^2 from
``sq_dist`` and square by x * x, and on spaces with more than one coordinate
the oracles' flow actions sum the products where the pairs reduce by
``np.vecdot``.  So both the oracle and the current values are held to the
composite rule of ``precision_helpers``: within PAIR_TERMS eps times the sum
of the magnitudes of their terms of a long double reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import pytest
from scipy.special import logsumexp

import hjflow.spaces
import hjflow.viscosity
from hjflow import hamiltonians as new
from hjflow.cylinders import Affine as FlatAffine
from hjflow.cylinders import SoftminPsi, TruncatedAffine
from hjflow.laplace import (
    _adaptive_log_quadrature,
    discrete_exp_log_weights,
    lambda_continuous,
)
from hjflow.spaces import (
    ModelSpace,
    double_well_potential,
    euclidean_space,
    quantile_space,
    quartic_potential,
)
from hjflow.tataru import HCurve, psi_eps, psi_eps_prime, tataru_batch
from hjflow.viscosity import GridFunction, ViscosityReport, check_viscosity, make_grid

import precision_helpers as ld
from cylinder_helpers import (
    Affine,
    Coord,
    CylindricalTestFunction,
    Iota,
    TreeNode,
    affine_phi,
    truncate_cylinder,
)
from precision_helpers import LD, assert_kernel_no_worse, assert_within_terms, pow_free
from row_helpers import d_eps, distance, energy, flow_values, tataru, tataru_eps

# ---------------------------------------------------------------------------
# oracles, verbatim
# ---------------------------------------------------------------------------

CHAIN_LEVELS = (2, 3, 4, 5, 6)


@dataclass(frozen=True)
class HamiltonianPair:
    family: str
    side: str
    params: dict = field(repr=False)
    f: Callable[[np.ndarray], float] = field(repr=False)
    g: Callable[[np.ndarray], float] = field(repr=False)


def _kappas(space: ModelSpace, kappa_override: float | None = None) -> tuple[float, float]:
    """(kappa, kappa_hat): quadratic corrections use the first, damping the second."""
    kappa = space.kappa if kappa_override is None else kappa_override
    return kappa, min(kappa, 0.0)


def _anchor_data(space: ModelSpace, anchors) -> tuple[np.ndarray, np.ndarray]:
    vals = np.stack(anchors)
    energies = np.array([energy(space, a) for a in anchors])
    return vals, energies


def _anchor_dists(space: ModelSpace, anchor_vals: np.ndarray, pt: np.ndarray) -> np.ndarray:
    diffs = anchor_vals - pt[None, :]
    return np.sqrt(space.weight * np.sum(diffs * diffs, axis=1))


def build_cyl_dagger(space: ModelSpace, a: float, phi: TreeNode, rho: np.ndarray,
                     mus) -> HamiltonianPair:
    """Upper-bound pair on cylinders f = a/2 d^2(., rho) + phi(d^2(., mus)/2)."""
    if a <= 0:
        raise ValueError("a must be positive")
    mus = tuple(mus)
    cyl = CylindricalTestFunction(base=phi, anchors=mus)
    anchor_vals, anchor_e = _anchor_data(space, mus)
    e_rho = energy(space, rho)
    kappa, _ = _kappas(space)

    def f(pi: np.ndarray) -> float:
        r = 0.5 * _anchor_dists(space, anchor_vals, pi) ** 2
        v, _ = cyl.base_value_and_grad(r)
        return 0.5 * a * distance(space, pi, rho) ** 2 + v

    def g(pi: np.ndarray) -> float:
        dists = _anchor_dists(space, anchor_vals, pi)
        _, grad = cyl.base_value_and_grad(0.5 * dists**2)
        d0 = distance(space, pi, rho)
        e_pi = energy(space, pi)
        cross = float(np.dot(grad, dists))
        out = a * (e_rho - e_pi - 0.5 * kappa * d0**2) + 0.5 * a**2 * d0**2
        out += float(np.dot(grad, anchor_e - e_pi - 0.5 * kappa * dists**2))
        out += 0.5 * cross**2 + a * d0 * cross
        return out

    params = {"a": a, "rho": rho, "anchors": mus}
    return HamiltonianPair(family="cyl", side="dagger", params=params, f=f, g=g)


def build_cyl_ddagger(space: ModelSpace, a: float, phi: TreeNode, gamma: np.ndarray,
                      pis) -> HamiltonianPair:
    """Lower-bound mirror with the subtracted square and cross terms."""
    if a <= 0:
        raise ValueError("a must be positive")
    pis = tuple(pis)
    cyl = CylindricalTestFunction(base=phi, anchors=pis)
    anchor_vals, anchor_e = _anchor_data(space, pis)
    e_gamma = energy(space, gamma)
    kappa, _ = _kappas(space)

    def f(mu: np.ndarray) -> float:
        r = 0.5 * _anchor_dists(space, anchor_vals, mu) ** 2
        v, _ = cyl.base_value_and_grad(r)
        return -0.5 * a * distance(space, mu, gamma) ** 2 - v

    def g(mu: np.ndarray) -> float:
        dists = _anchor_dists(space, anchor_vals, mu)
        _, grad = cyl.base_value_and_grad(0.5 * dists**2)
        d0 = distance(space, mu, gamma)
        e_mu = energy(space, mu)
        cross = float(np.dot(grad, dists))
        out = a * (e_mu - e_gamma + 0.5 * kappa * d0**2) + 0.5 * a**2 * d0**2
        out += float(np.dot(grad, e_mu - anchor_e + 0.5 * kappa * dists**2))
        out += -0.5 * cross**2 - a * d0 * cross
        return out

    params = {"a": a, "gamma": gamma, "anchors": pis}
    return HamiltonianPair(family="cyl", side="ddagger", params=params, f=f, g=g)


def build_h0_pair(space: ModelSpace, side: str, phi: TreeNode, anchors) -> HamiltonianPair:
    """Pairs on bounded cylinders f = +-phi(d^2(., anchors)/2)."""
    anchors = tuple(anchors)
    cyl = CylindricalTestFunction(base=phi, anchors=anchors)
    if not cyl.bounded():
        raise ValueError("requires class T_b (bounded test function)")
    anchor_vals, anchor_e = _anchor_data(space, anchors)
    kappa, _ = _kappas(space)

    if side == "dagger":
        def f(pi: np.ndarray) -> float:
            r = 0.5 * _anchor_dists(space, anchor_vals, pi) ** 2
            v, _ = cyl.base_value_and_grad(r)
            return v

        def g(pi: np.ndarray) -> float:
            dists = _anchor_dists(space, anchor_vals, pi)
            _, grad = cyl.base_value_and_grad(0.5 * dists**2)
            e_pi = energy(space, pi)
            cross = float(np.dot(grad, dists))
            out = float(np.dot(grad, anchor_e - e_pi - 0.5 * kappa * dists**2))
            return out + 0.5 * cross**2

    elif side == "ddagger":
        def f(mu: np.ndarray) -> float:
            r = 0.5 * _anchor_dists(space, anchor_vals, mu) ** 2
            v, _ = cyl.base_value_and_grad(r)
            return -v

        def g(mu: np.ndarray) -> float:
            dists = _anchor_dists(space, anchor_vals, mu)
            _, grad = cyl.base_value_and_grad(0.5 * dists**2)
            e_mu = energy(space, mu)
            prods = grad * dists
            s1 = float(np.dot(prods, prods))
            s = float(prods.sum())
            # 1/2 sum_i p_i^2 - 1/2 sum_{i != j} p_i p_j  ==  s1 - s^2 / 2
            out = float(np.dot(grad, e_mu - anchor_e + 0.5 * kappa * dists**2))
            return out + s1 - 0.5 * s**2

    else:
        raise ValueError(f"unknown side {side!r}")

    params = {"anchors": anchors}
    return HamiltonianPair(family="cyl0", side=side, params=params, f=f, g=g)


def _tataru_g_dagger(space, a, b, rho, e_rho, kappa):
    def g(pi: np.ndarray) -> float:
        d0 = distance(space, pi, rho)
        return (a * (e_rho - energy(space, pi)) - 0.5 * a * kappa * d0**2
                + b + 0.5 * a**2 * d0**2 + a * b * d0 + 0.5 * b**2)
    return g


def _tataru_g_ddagger(space, a, b, gamma, e_gamma, kappa):
    def g(mu: np.ndarray) -> float:
        d0 = distance(space, mu, gamma)
        return (a * (energy(space, mu) - e_gamma) + 0.5 * a * kappa * d0**2
                - b + 0.5 * a**2 * d0**2 - a * b * d0 - 0.5 * b**2)
    return g


def build_tataru_pair(space: ModelSpace, side: str, a: float, b: float, c: float,
                      base_point: np.ndarray, flow_anchor: np.ndarray,
                      kappa_override: float | None = None) -> HamiltonianPair:
    """f = +-(a/2 d^2 + b d_T) + c with the closed-form g.

    ``base_point`` anchors the quadratic; ``flow_anchor`` is the point whose
    gradient flow enters the Tataru minimization.
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    kappa, _ = _kappas(space, kappa_override)
    space._row(flow_anchor)  # fail at build time on an anchor outside the space
    e_base = energy(space, base_point)

    def d_t(pt: np.ndarray) -> float:
        return tataru(space, pt, flow_anchor, kappa_override).value

    if side == "dagger":
        def f(pi: np.ndarray) -> float:
            return 0.5 * a * distance(space, pi, base_point) ** 2 + b * d_t(pi) + c
        g = _tataru_g_dagger(space, a, b, base_point, e_base, kappa)
    elif side == "ddagger":
        def f(mu: np.ndarray) -> float:
            return -0.5 * a * distance(space, mu, base_point) ** 2 - b * d_t(mu) + c
        g = _tataru_g_ddagger(space, a, b, base_point, e_base, kappa)
    else:
        raise ValueError(f"unknown side {side!r}")

    params = {"a": a, "b": b, "c": c, "base": base_point, "anchor": flow_anchor}
    return HamiltonianPair(family="tataru", side=side, params=params, f=f, g=g)


def _require(params: dict, level: int, *names):
    missing = [name for name in names if params.get(name) is None]
    if missing:
        raise ValueError(f"missing parameter {missing[0]!r} for level {level}")
    return [params[name] for name in names]


def build_chain_pair(space: ModelSpace, level: int, side: str, params: dict) -> HamiltonianPair:
    """One rung of the approximation ladder.

    Levels 2 and 3 use the exponentially tilted Riemann sum resp. integral of
    exp(-m h) with the (1/m v h)-regularized damping term; level 4 replaces the
    integral by the smoothed Tataru distance and a sup over its minimizer set;
    levels 5 and 6 use the closed-form g (identical by construction) with the
    smoothed resp. exact Tataru distance in f.
    """
    if level not in CHAIN_LEVELS:
        raise ValueError(f"level must be one of {CHAIN_LEVELS}")
    if side not in ("dagger", "ddagger"):
        raise ValueError(f"unknown side {side!r}")
    sign = 1.0 if side == "dagger" else -1.0
    base_key, anchor_key = ("rho", "mu") if side == "dagger" else ("gamma", "pi")

    a, b, c, base_point, flow_anchor = _require(params, level, "a", "b", "c",
                                                base_key, anchor_key)
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    kappa, kappa_hat = _kappas(space)
    e_base = energy(space, base_point)
    space._row(flow_anchor)  # fail at build time on an anchor outside the space

    def quad_prefix(pt: np.ndarray) -> float:
        """All g terms except the +-b flow-action slot."""
        d0 = distance(space, pt, base_point)
        e_pt = energy(space, pt)
        if side == "dagger":
            return (a * (e_base - e_pt) - 0.5 * a * kappa * d0**2
                    + 0.5 * a**2 * d0**2 + a * b * d0 + 0.5 * b**2)
        return (a * (e_pt - e_base) + 0.5 * a * kappa * d0**2
                + 0.5 * a**2 * d0**2 - a * b * d0 - 0.5 * b**2)

    def flow_pieces(pt: np.ndarray, ts: np.ndarray, eps: float):
        """(h, damping, psi', flow energies) along the anchor flow at times ts."""
        vals = flow_values(space, flow_anchor, ts)
        diffs = vals - pt[None, :]
        dist2 = space.weight * np.sum(diffs * diffs, axis=1)
        damping = np.exp(kappa_hat * np.asarray(ts, dtype=float))
        h = damping * psi_eps(eps, 0.5 * dist2)
        psi_p = psi_eps_prime(eps, 0.5 * dist2)
        flow_e = space.weight * np.sum(space.potential.v(vals), axis=1)
        return h, damping, psi_p, flow_e

    if level in (2, 3):
        eps, m = _require(params, level, "eps", "m")
        m = int(m)

        if level == 2:
            n = int(_require(params, level, "n")[0])
            atoms, log_w = discrete_exp_log_weights(m + 1, n)

            def tilt_data(pt: np.ndarray):
                h, damping, psi_p, flow_e = flow_pieces(pt, atoms, eps)
                log_contrib = log_w - m * h
                log_lam = float(logsumexp(log_contrib))
                return log_lam, np.exp(log_contrib - log_lam), h, damping, psi_p, flow_e

        else:
            log_rate = np.log(m + 1.0)

            def tilt_data(pt: np.ndarray):
                t_quad = d_eps(space, eps, pt, flow_anchor) + 1.0 + 5.0 / (m + 1)

                def log_f(ts):
                    h, _, _, _ = flow_pieces(pt, ts, eps)
                    return log_rate - (m + 1.0) * ts - m * h

                log_quad, nodes, log_contrib, _ = _adaptive_log_quadrature(log_f, 0.0, t_quad)
                # frozen-exponent tail estimate, as in the standalone integral
                h_end, _, _, _ = flow_pieces(pt, np.array([t_quad]), eps)
                log_tail = float(-(m + 1.0) * t_quad - m * h_end[0])
                log_lam = float(np.logaddexp(log_quad, log_tail))
                nodes = np.append(nodes, t_quad)
                log_contrib = np.append(log_contrib, log_tail)
                h, damping, psi_p, flow_e = flow_pieces(pt, nodes, eps)
                return log_lam, np.exp(log_contrib - log_lam), h, damping, psi_p, flow_e

        def f(pt: np.ndarray) -> float:
            log_lam = tilt_data(pt)[0]
            return sign * (0.5 * a * distance(space, pt, base_point) ** 2
                           + b * (-log_lam / m)) + c

        def g(pt: np.ndarray) -> float:
            _, tilt, h, damping, psi_p, flow_e = tilt_data(pt)
            gap = flow_e - energy(space, pt)
            term_energy = b * float(np.dot(tilt, psi_p * damping * gap))
            term_reg = -0.5 * b * kappa_hat * float(np.dot(tilt, np.maximum(1.0 / m, h)))
            return quad_prefix(pt) + sign * (term_energy + term_reg)

        return HamiltonianPair(family=f"chain{level}", side=side,
                               params=dict(params), f=f, g=g)

    if level == 4:
        eps = _require(params, level, "eps")[0]

        def f(pt: np.ndarray) -> float:
            value = tataru_eps(space, eps, pt, flow_anchor).value
            return sign * (0.5 * a * distance(space, pt, base_point) ** 2
                           + b * value) + c

        def g(pt: np.ndarray) -> float:
            ts = tataru_eps(space, eps, pt, flow_anchor).minimizers
            h, damping, psi_p, flow_e = flow_pieces(pt, ts, eps)
            gap = flow_e - energy(space, pt)
            # h = damping * d_eps along the flow, so -kappa_hat/2 h is the
            # damped-distance correction of the flow action
            expr = damping * gap * psi_p - 0.5 * kappa_hat * h
            return quad_prefix(pt) + sign * b * float(np.max(expr))

        return HamiltonianPair(family="chain4", side=side, params=dict(params), f=f, g=g)

    # levels 5 and 6: closed-form g, shared bit for bit
    eps = _require(params, level, "eps")[0] if level == 5 else None

    def f(pt: np.ndarray) -> float:
        if eps is None:
            value = tataru(space, pt, flow_anchor).value
        else:
            value = tataru_eps(space, eps, pt, flow_anchor).value
        return sign * (0.5 * a * distance(space, pt, base_point) ** 2 + b * value) + c

    if side == "dagger":
        g = _tataru_g_dagger(space, a, b, base_point, e_base, kappa)
    else:
        g = _tataru_g_ddagger(space, a, b, base_point, e_base, kappa)
    return HamiltonianPair(family=f"chain{level}", side=side, params=dict(params), f=f, g=g)


# the composite tree; ``logsumexp`` here is scipy's, which hjflow's matches bit for bit
@dataclass(frozen=True)
class Psi(TreeNode):
    """Smoothed square root of a child value."""

    eps: float
    child: TreeNode

    def vag(self, r):
        v, g, s = self.child.vag(r)
        return psi_eps(self.eps, v), psi_eps_prime(self.eps, v)[..., None] * g, s

    def bounded(self):
        return self.child.bounded()

    def structurally_positive(self):
        return self.child.structurally_positive()


@dataclass(frozen=True)
class SumExpNegLog(TreeNode):
    """const + scale * (-1/m) log sum_i exp(log_coeff_i - m * child_i).

    The partials are scale times the softmin weights times the children's
    partials, hence positive whenever scale > 0 and the children are in class.
    """

    m: float
    scale: float
    log_coeffs: tuple
    children: tuple
    const: float = 0.0

    def vag(self, r):
        vals = []
        grads = []
        sat = np.zeros(r.shape[:-1], dtype=bool)
        for node in self.children:
            v, g, s = node.vag(r)
            vals.append(v)
            grads.append(g)
            sat |= s
        exponents = np.asarray(self.log_coeffs) - self.m * np.stack(vals, axis=-1)
        lse = logsumexp(exponents, axis=-1)
        soft = np.exp(exponents - lse[..., None])
        value = self.const + self.scale * (-lse / self.m)
        grad = self.scale * sum(soft[..., i, None] * g for i, g in enumerate(grads))
        return value, grad, sat

    def bounded(self):
        return all(node.bounded() for node in self.children)

    def structurally_positive(self):
        return self.scale > 0 and all(n.structurally_positive() for n in self.children)


def composite_phi_for_push(space: ModelSpace, eps: float, b: float, c: float,
                           m: int, n: int) -> tuple[TreeNode, np.ndarray]:
    """The explicit log-sum-exp composite whose cylindrical pair has f equal
    to the level-2 test function; returns (node, atom times)."""
    ts, log_w = discrete_exp_log_weights(m + 1, n)
    children = tuple(
        Affine(terms=((float(np.exp(space.kappa_hat * t)), Psi(eps, Coord(i))),))
        for i, t in enumerate(ts)
    )
    node = SumExpNegLog(m=float(m), scale=b, log_coeffs=tuple(log_w),
                        children=children, const=c)
    return node, ts


def old_4to5_rows(space: ModelSpace, samples: int, rng: np.random.Generator,
                  tol: float = 1e-6) -> list:
    rows = []
    _, kappa_hat = _kappas(space)
    for i in range(samples):
        eps = rng.uniform(0.05, 0.7)
        mu = space.sample(rng)
        pi = space.sample(rng)
        res = tataru_eps(space, eps, pi, mu)
        e_pi = energy(space, pi)
        lhs_best = -np.inf
        for t in res.minimizers:
            vals = flow_values(space, mu, [float(t)])[0]
            dist2 = space.weight * float(np.dot(vals - pi, vals - pi))
            damping = float(np.exp(kappa_hat * t))
            flow_e = space.weight * float(np.sum(space.potential.v(vals)))
            lhs = (damping * (flow_e - e_pi) * psi_eps_prime(eps, 0.5 * dist2)
                   - 0.5 * kappa_hat * damping * psi_eps(eps, 0.5 * dist2))
            lhs_best = max(lhs_best, lhs)
        violation = lhs_best - 1.0
        rows.append(("chain-4to5", i, lhs_best, 1.0, violation, violation <= tol))
    return rows


def old_1to2_rows(space: ModelSpace, samples: int, rng: np.random.Generator,
                  tol: float = 1e-9) -> list:
    """The 1to2 link as it was built on the tree: one sample at a time, the
    composite a ``SumExpNegLog`` tree, through the current builders."""
    rows = []
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
        tree, ts = composite_phi_for_push(space, eps, b, c, m, n)
        pair1 = new.build_cyl_pair(space, "dagger", a, CylindricalTestFunction(tree), rho,
                                   space.flow_values(mu, ts))
        pair2 = new.build_chain_pair(space, 2, "dagger",
                                     {"a": a, "b": b, "c": c, "eps": eps,
                                      "m": m, "n": n, "rho": rho, "mu": mu})
        g1 = pair1.g(pi)
        g2 = pair2.g(pi)
        violation = g1 - g2
        rows.append(("chain-1to2", i, g1, g2, violation, violation <= tol))
    return rows


def old_0to1_rows(space: ModelSpace, samples: int, rng: np.random.Generator,
                  tol: float = 1e-9) -> list:
    """The 0to1 link as it was built on the tree: ``truncate_cylinder`` of
    ``affine_phi`` with the quadratic anchor first, through the current builders."""
    rows = []
    for i in range(samples):
        a = rng.uniform(0.2, 1.5)
        k = int(rng.integers(1, 3))
        weights = rng.uniform(0.1, 1.0, size=k)
        const = rng.uniform(0.0, 0.5)
        rho = space.sample(rng)
        mus = [space.sample(rng) for _ in range(k)]
        pi = space.sample(rng)
        phi0 = affine_phi(weights, const)
        cyl_fun = CylindricalTestFunction(base=phi0, anchors=tuple(mus))
        pair1 = new.build_cyl_pair(space, "dagger", a, cyl_fun, rho, mus)
        inner_value = pair1.f(pi)  # equals a r0 + phi0(r) at pi
        n = int(np.ceil(inner_value)) + 1
        truncated = truncate_cylinder(cyl_fun, a, rho, n)
        pair0 = new.build_h0_pair(space, "dagger", truncated, truncated.anchors)
        g0 = pair0.g(pi)
        g1 = pair1.g(pi)
        violation = abs(g0 - g1)
        rows.append(("chain-0to1", i, g0, g1, violation, violation <= tol))
    return rows


@dataclass(frozen=True)
class OldViscosityReport:
    side: str
    optimizers: np.ndarray
    optimality_gap: float
    slack: float
    tol: float
    passed: bool
    soft_passed: bool


def _pair_on_grid(space: ModelSpace, pair: HamiltonianPair, xs: np.ndarray,
                  which: str) -> np.ndarray:
    fn = pair.f if which == "f" else pair.g
    return np.array([fn([x]) for x in xs])


def check_subsolution(space: ModelSpace, u: GridFunction, pair: HamiltonianPair,
                      h, lam: float, tol: float,
                      gap_tol: float = 1e-6) -> OldViscosityReport:
    """Test u - lam g - h <= tol at some near-optimizer of u - f.

    Near-optimizers are grid points within gap_tol of sup(u - f); the verdict
    is a pass when the inequality holds at one of them, which is the finite
    form of the sequence-based subsolution definition.
    """
    if pair.side != "dagger":
        raise ValueError("subsolution check expects a dagger-side pair")
    xs = u.xs
    fv = _pair_on_grid(space, pair, xs, "f")
    s = u.values - fv
    top = float(np.max(s))
    cand = np.flatnonzero(s >= top - gap_tol)
    hv = np.asarray(h(xs), dtype=float)
    slacks = np.array([
        u.values[i] - lam * pair.g(np.array([xs[i]])) - hv[i] for i in cand
    ])
    best = int(np.argmin(slacks))
    slack = float(slacks[best])
    return OldViscosityReport(side="dagger", optimizers=xs[cand],
                           optimality_gap=float(top - np.max(s[cand])),
                           slack=slack, tol=tol, passed=slack <= tol,
                           soft_passed=slack <= 2 * tol)


def check_supersolution(space: ModelSpace, v: GridFunction, pair: HamiltonianPair,
                        h, lam: float, tol: float,
                        gap_tol: float = 1e-6) -> OldViscosityReport:
    """Mirror check: v - lam g - h >= -tol at a near-optimizer of inf(v - f)."""
    if pair.side != "ddagger":
        raise ValueError("supersolution check expects a ddagger-side pair")
    xs = v.xs
    fv = _pair_on_grid(space, pair, xs, "f")
    s = v.values - fv
    bottom = float(np.min(s))
    cand = np.flatnonzero(s <= bottom + gap_tol)
    hv = np.asarray(h(xs), dtype=float)
    slacks = np.array([
        v.values[i] - lam * pair.g(np.array([xs[i]])) - hv[i] for i in cand
    ])
    best = int(np.argmax(slacks))
    slack = float(slacks[best])
    return OldViscosityReport(side="ddagger", optimizers=xs[cand],
                           optimality_gap=float(np.min(s[cand]) - bottom),
                           slack=slack, tol=tol, passed=slack >= -tol,
                           soft_passed=slack >= -2 * tol)


def per_point_check_viscosity(space: ModelSpace, u: GridFunction, pair, h, lam: float,
                              tol: float, gap_tol: float = 1e-6) -> ViscosityReport:
    """Test sigma (u - lam g - h) <= tol at some near-maximizer of sigma (u - f).

    sigma = side_sign(pair.side): a dagger pair tests the subsolution
    inequality u - lam g - h <= tol at the near-maximizers of u - f, a ddagger
    pair the supersolution inequality u - lam g - h >= -tol at the
    near-minimizers.  Near-optimizers are grid points within gap_tol of the
    optimum; the verdict is a pass when the inequality holds at one of them,
    which is the finite form of the sequence-based definition.  ``slack`` is
    u - lam g - h at the best of them.
    """
    sigma = new.side_sign(pair.side)
    xs = u.xs
    s = sigma * (u.values - np.array([pair.f([x]) for x in xs]))
    cand = np.flatnonzero(s >= float(np.max(s)) - gap_tol)
    hv = np.asarray(h(xs), dtype=float)
    slacks = np.array([
        u.values[i] - lam * pair.g(np.array([xs[i]])) - hv[i] for i in cand
    ])
    slack = float(slacks[np.argmin(sigma * slacks)])
    return ViscosityReport(side=pair.side, optimizers=xs[cand], slack=slack, tol=tol,
                           passed=sigma * slack <= tol, soft_passed=sigma * slack <= 2 * tol)


# ---------------------------------------------------------------------------
# the current code against the oracles
# ---------------------------------------------------------------------------

INSTANCES = 200
SPACES = ("ou", "quartic", "double_well", "quartic_3d", "quantile_ou")
SIDES = ("dagger", "ddagger")


@pytest.fixture(scope="module")
def quartic_3d():
    return euclidean_space(quartic_potential(), dim=3, sample_radius=1.5)


@pytest.fixture(scope="module")
def double_well_quantile():
    return quantile_space(double_well_potential(-0.5), grid_size=64)


@pytest.fixture(params=SPACES)
def space(request):
    return request.getfixturevalue(request.param)


def _random_phi(rng: np.random.Generator, k: int) -> TreeNode:
    """An affine base, or a positive combination of smoothed square roots."""
    weights = rng.uniform(0.1, 1.0, size=k)
    if rng.uniform() < 0.5:
        return affine_phi(weights, float(rng.uniform(-0.5, 0.5)))
    eps = float(rng.uniform(0.05, 0.7))
    return Affine(terms=tuple((float(w), Psi(eps, Coord(j))) for j, w in enumerate(weights)),
                  const=float(rng.uniform(-0.5, 0.5)))


# ---------------------------------------------------------------------------
# long double references of the pair values
# ---------------------------------------------------------------------------
# Each reference evaluates a pair's formula at the double rows x with d^2,
# energies, psi_eps and phi in long double, and returns (f, f_terms, g,
# g_terms) with the sums of the magnitudes of their terms.  What comes out of a
# minimization or a quadrature (Tataru values and minimizers, quadrature nodes
# and weights) and the flow samples are double inputs that the oracles and the
# current code share.

# the seeded instances below read at most 2.7, for the oracles and the pairs alike
PAIR_TERMS = 4.0


def _ld_phi(node: TreeNode, r: np.ndarray):
    """(value, partials, value magnitude, partials magnitude) of a tree of
    Coord, Affine, Psi and Iota nodes at the long double rows r."""
    if isinstance(node, Coord):
        grad = np.zeros(r.shape, LD)
        grad[..., node.index] = 1
        return r[..., node.index], grad, r[..., node.index], grad
    if isinstance(node, Affine):
        const = np.full(r.shape[:-1], LD(node.const))
        out = [const, np.zeros(r.shape, LD), np.abs(const), np.zeros(r.shape, LD)]
        for w, child in node.terms:
            out = [acc + LD(w) * part for acc, part in zip(out, _ld_phi(child, r))]
        return tuple(out)
    v, g, v_mag, g_mag = _ld_phi(node.child, r)
    if isinstance(node, Psi):
        value, prime = ld.psi(node.eps, v)
        return value, prime[..., None] * g, value, prime[..., None] * g_mag
    # Iota: 1 - s cancels near the upper knee, so an error in v counts in full
    s = np.clip((v - node.n) / 2, 0, 1)
    value = np.where(v <= node.n, v, node.n + 2 * s - s * s)
    prime_mag = 1 - s + np.where((s > 0) & (s < 1), v_mag / 2, 0)
    return value, (1 - s)[..., None] * g, v_mag, prime_mag[..., None] * g_mag


def _ld_cylinder(space: ModelSpace, phi: TreeNode, anchors, x: np.ndarray):
    """(phi, its magnitude, grad phi, its magnitude, d, the anchor energy terms
    E_anchor - E - kappa/2 d^2, their magnitudes) at the rows x."""
    anchors = np.stack(anchors)
    sq = ld.sq_dist(space, anchors, x[..., None, :])
    v, grad, v_mag, g_mag = _ld_phi(phi, sq / 2)
    (e, e_mag), (e_a, ea_mag) = ld.energies(space, x), ld.energies(space, anchors)
    kappa = LD(space.kappa)
    terms = e_a - e[..., None] - kappa / 2 * sq
    terms_mag = ea_mag + e_mag[..., None] + abs(kappa) / 2 * sq
    return v, v_mag, grad, g_mag, np.sqrt(sq), terms, terms_mag


def ref_cyl(space: ModelSpace, side: str, a: float, phi: TreeNode, base, anchors, x):
    """f = sigma [a/2 d0^2 + phi(d^2/2)] and the five-term g."""
    sigma, a = LD(new.side_sign(side)), LD(a)
    v, v_mag, grad, g_mag, d, terms, terms_mag = _ld_cylinder(space, phi, anchors, x)
    s0 = ld.sq_dist(space, x, base)
    (e, e_mag), (e_b, eb_mag) = ld.energies(space, x), ld.energies(space, base)
    kappa, d0 = LD(space.kappa), np.sqrt(s0)
    cross, cross_mag = np.sum(grad * d, axis=-1), np.sum(g_mag * d, axis=-1)
    g = (sigma * a * (e_b - e - kappa / 2 * s0) + a * a / 2 * s0
         + sigma * np.sum(grad * terms, axis=-1) + sigma * (cross * cross / 2 + a * d0 * cross))
    g_terms = (a * (eb_mag + e_mag + abs(kappa) / 2 * s0) + a * a / 2 * s0
               + np.sum(g_mag * terms_mag, axis=-1) + cross_mag**2 / 2 + a * d0 * cross_mag)
    return sigma * (a / 2 * s0 + v), a / 2 * s0 + v_mag, g, g_terms


def ref_h0(space: ModelSpace, side: str, phi: TreeNode, anchors, x):
    """f = sigma phi(d^2/2) and g of the bounded cylinder pair."""
    v, v_mag, grad, g_mag, d, terms, terms_mag = _ld_cylinder(space, phi, anchors, x)
    g_terms = np.sum(g_mag * terms_mag, axis=-1)
    p, p_mag = grad * d, g_mag * d
    if side == "dagger":
        g = np.sum(grad * terms, axis=-1) + np.sum(p, axis=-1) ** 2 / 2
        return v, v_mag, g, g_terms + np.sum(p_mag, axis=-1) ** 2 / 2
    g = -np.sum(grad * terms, axis=-1) + np.sum(p * p, axis=-1) - np.sum(p, axis=-1) ** 2 / 2
    return -v, v_mag, g, g_terms + np.sum(p_mag * p_mag, axis=-1) + np.sum(p_mag, axis=-1) ** 2 / 2


def ref_ladder(space: ModelSpace, side: str, a: float, b: float, c: float, base, x,
               value, value_mag, slot, slot_mag):
    """f = sigma (a/2 d0^2 + b value) + c and the closed-form g with the flow-action
    slot sigma slot; value and slot with the magnitudes of their terms."""
    sigma, a, b = LD(new.side_sign(side)), LD(a), LD(b)
    s0 = ld.sq_dist(space, x, base)
    (e, e_mag), (e_b, eb_mag) = ld.energies(space, x), ld.energies(space, base)
    kappa, d0 = LD(space.kappa), np.sqrt(s0)
    g = (sigma * a * (e_b - e) - sigma * a * kappa / 2 * s0 + a * a / 2 * s0
         + sigma * a * b * d0 + sigma * b * b / 2 + sigma * slot)
    g_terms = (a * (eb_mag + e_mag) + a * abs(kappa) / 2 * s0 + a * a / 2 * s0
               + a * b * d0 + b * b / 2 + slot_mag)
    return sigma * (a / 2 * s0 + b * value) + LD(c), a / 2 * s0 + b * value_mag + abs(c), g, g_terms


def _ld_flow_terms(space: ModelSpace, eps: float, row, anchor, ts):
    """(h, damping psi_eps', energy gap and its magnitude) along the flow of
    anchor at the times ts, measured against the row."""
    vals = flow_values(space, anchor, ts)
    psi, prime = ld.psi(eps, ld.sq_dist(space, vals, row) / 2)
    damping = np.exp(LD(space.kappa_hat) * np.asarray(ts, dtype=LD))
    (e_f, ef_mag), (e, e_mag) = ld.energies(space, vals), ld.energies(space, row)
    return damping * psi, damping * prime, e_f - e, ef_mag + e_mag


def ref_max_action(space: ModelSpace, eps: float, b: float, row, anchor, minimizers):
    """(b max flow action over the minimizers, its magnitude) at level 4."""
    h, dprime, gap, gap_mag = _ld_flow_terms(space, eps, row, anchor, minimizers)
    k_hat = LD(space.kappa_hat)
    return (b * np.max(dprime * gap - k_hat / 2 * h),
            b * np.max(dprime * gap_mag + abs(k_hat) / 2 * h))


def ref_tilted(space: ModelSpace, eps: float, m: int, b: float, row, anchor, nodes, log_w):
    """(-log Lambda / m, b tilted flow action) with their magnitudes, as
    (value, magnitude, slot, magnitude), for the log contributions log_w - m h
    at the nodes.  An error in a log contribution moves its softmin weight by
    that much relatively, hence the factor 1 + |exponent| in the magnitudes."""
    h, dprime, gap, gap_mag = _ld_flow_terms(space, eps, row, anchor, nodes)
    log_c = np.asarray(log_w, dtype=LD) - m * h
    top = np.max(log_c)
    log_lam = top + np.log(np.sum(np.exp(log_c - top)))
    tilt = np.exp(log_c - log_lam)
    cond = tilt * (1 + np.abs(log_c) + abs(log_lam))
    k_hat, reg = LD(space.kappa_hat), np.maximum(LD(1) / m, h)
    slot = b * np.sum(tilt * dprime * gap) - b * k_hat / 2 * np.sum(tilt * reg)
    slot_mag = b * np.sum(cond * dprime * gap_mag) + b * abs(k_hat) / 2 * np.sum(cond * reg)
    value_mag = (abs(log_lam) + np.max(np.abs(log_w) + m * h)) / m
    return -log_lam / m, value_mag, slot, slot_mag


def _assert_pairs(ref, old, pair, pts) -> None:
    """f and g of the oracle, point by point, and of the current pair, on the
    rows pts at once, within PAIR_TERMS eps terms of the reference (f, f_terms,
    g, g_terms)."""
    f_ref, f_terms, g_ref, g_terms = ref
    for fn, want, terms in (("f", f_ref, f_terms), ("g", g_ref, g_terms)):
        got = getattr(pair, fn)(pts)
        assert got.shape == (len(pts),)
        assert_within_terms(got, want, terms, PAIR_TERMS)
        assert_within_terms([getattr(old, fn)(pt) for pt in pts], want, terms, PAIR_TERMS)


def test_cyl_pair_matches_mirrored_builders(space):
    rng = np.random.default_rng(601)
    for _ in range(INSTANCES):
        a = float(rng.uniform(0.2, 1.5))
        k = int(rng.integers(1, 4))
        phi = _random_phi(rng, k)
        base = space.sample(rng)
        anchors = [space.sample(rng) for _ in range(k)]
        pts = np.stack((space.sample(rng), base, anchors[0]))
        old = {"dagger": build_cyl_dagger(space, a, phi, base, anchors),
               "ddagger": build_cyl_ddagger(space, a, phi, base, anchors)}
        for side in SIDES:
            pair = new.build_cyl_pair(space, side, a, CylindricalTestFunction(phi), base,
                                      np.stack(anchors))
            assert pair.side == side
            _assert_pairs(ref_cyl(space, side, a, phi, base, anchors, pts),
                          old[side], pair, pts)


def test_h0_pair_matches_both_branches(space):
    rng = np.random.default_rng(602)
    for _ in range(INSTANCES):
        k = int(rng.integers(1, 4))
        phi = Iota(int(rng.integers(1, 4)), affine_phi(rng.uniform(0.1, 1.0, size=k)))
        anchors = [space.sample(rng) for _ in range(k)]
        # reaches past the knee now and then, in some rows of a batch only
        wide = replace(space, sample_radius=3.0)
        pts = np.stack([wide.sample(rng) for _ in range(3)])
        for side in SIDES:
            _assert_pairs(ref_h0(space, side, phi, anchors, pts),
                          build_h0_pair(space, side, phi, anchors),
                          new.build_h0_pair(space, side, CylindricalTestFunction(phi),
                                            np.stack(anchors)), pts)


def _tataru_values(space: ModelSpace, pts, anchor, eps):
    """The shared Tataru results of the rows pts against the anchor row."""
    return tataru_batch(space, pts, np.broadcast_to(anchor, pts.shape), eps=eps)


def test_tataru_pairs_match_closed_form_oracle(space):
    rng = np.random.default_rng(603)
    for i in range(INSTANCES):
        side = SIDES[i % 2]
        a, b = float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.2, 1.5))
        c = float(rng.uniform(-1.0, 1.0))
        eps = float(rng.uniform(1e-4, 0.5))
        base, anchor = space.sample(rng), space.sample(rng)
        pts = np.stack([space.sample(rng), space.sample(rng)])
        keys = ("rho", "mu") if side == "dagger" else ("gamma", "pi")
        params = {"a": a, "b": b, "c": c, "eps": eps, keys[0]: base, keys[1]: anchor}
        level = (4, 5, 6)[i % 3]  # 4: the Tataru pair itself, exact or at eps = 1e-3
        if level == 4 and (i // 3) % 2:
            eps = 1e-3
            old = build_chain_pair(space, 5, side, {**params, "eps": eps})
            pair = new.build_chain_pair(space, 5, side, {**params, "eps": eps})
        elif level == 4:
            eps = None
            old = build_tataru_pair(space, side, a, b, c, base, anchor)
            pair = new.build_chain_pair(space, 6, side, params)
        else:
            eps = eps if level == 5 else None
            old = build_chain_pair(space, level, side, params)
            pair = new.build_chain_pair(space, level, side, params)
        values = np.array([r.value for r in _tataru_values(space, pts, anchor, eps)])
        _assert_pairs(ref_ladder(space, side, a, b, c, base, pts, values, np.abs(values),
                                 LD(b), LD(b)), old, pair, pts)


def _ladder_leaves(space: ModelSpace, level: int, params: dict, anchor, pts) -> np.ndarray:
    """(value, magnitude, slot, magnitude) of the ladder at level 2, 3 or 4 in
    long double, each of shape (len(pts),)."""
    eps, b = params["eps"], params["b"]
    out = []
    if level == 4:
        for row, res in zip(pts, _tataru_values(space, pts, anchor, eps)):
            out.append((res.value, abs(res.value),
                        *ref_max_action(space, eps, b, row, anchor, res.minimizers)))
        return np.array(out, dtype=LD).T
    m = params["m"]
    for row in pts:
        if level == 2:
            nodes, log_w = discrete_exp_log_weights(m + 1, params["n"])
        else:  # the quadrature's nodes and the log weights of its contributions
            lam = lambda_continuous(space, eps, m, row, anchor)
            nodes = lam.nodes
            log_w = lam.log_contrib + m * HCurve(space, row, anchor, eps).h(nodes)
        out.append(ref_tilted(space, eps, m, b, row, anchor, nodes, log_w))
    return np.array(out, dtype=LD).T


@pytest.mark.parametrize("level", (2, 3, 4))
def test_ladder_matches_hand_copied_flow_action(space, level):
    rng = np.random.default_rng(604 + level)
    # the quadrature of level 3 is the slow part
    instances = INSTANCES if level != 3 else INSTANCES // 4
    for i in range(instances):
        side = SIDES[i % 2]
        keys = ("rho", "mu") if side == "dagger" else ("gamma", "pi")
        params = {"a": float(rng.uniform(0.2, 1.5)), "b": float(rng.uniform(0.2, 1.5)),
                  "c": float(rng.uniform(-1.0, 1.0)), "eps": float(rng.uniform(0.05, 0.7)),
                  "m": int(rng.integers(1, 41)), "n": int(rng.integers(1, 6)),
                  keys[0]: space.sample(rng), keys[1]: space.sample(rng)}
        pts = np.stack([space.sample(rng) for _ in range(4)])
        ref = ref_ladder(space, side, params["a"], params["b"], params["c"], params[keys[0]],
                         pts, *_ladder_leaves(space, level, params, params[keys[1]], pts))
        _assert_pairs(ref, build_chain_pair(space, level, side, params),
                      new.build_chain_pair(space, level, side, params), pts)


def test_pairs_map_rows_to_values(space):
    """(size,) gives a 0-d value, (N, size) gives (N,) and (2, 3, size) gives
    (2, 3); a row of the wrong size, a non-finite row or (on quantiles) a
    decreasing row raises."""
    rng = np.random.default_rng(607)
    base, anchor = space.sample(rng), space.sample(rng)
    params = {"a": 0.7, "b": 0.4, "c": 0.1, "eps": 0.2, "m": 5, "n": 2,
              "rho": base, "mu": anchor}
    pairs = [new.build_cyl_pair(space, "dagger", 0.7, CylindricalTestFunction(affine_phi([0.4])),
                                base, [anchor]),
             new.build_h0_pair(space, "ddagger",
                               CylindricalTestFunction(Iota(2, affine_phi([0.4]))), [anchor]),
             *(new.build_chain_pair(space, level, "dagger", params) for level in (2, 4, 6))]
    x = np.stack([space.sample(rng) for _ in range(6)])
    bad = x.copy()
    bad[3, 0] = np.nan
    for pair in pairs:
        for fn in (pair.f, pair.g):
            assert np.shape(fn(x[0])) == ()
            assert fn(x).shape == (6,)
            assert fn(x.reshape(2, 3, space.size)).shape == (2, 3)
            with pytest.raises(ValueError, match="incompatible points"):
                fn(np.zeros((6, space.size + 1)))
            with pytest.raises(ValueError, match="finite"):
                fn(bad)
            if space.kind == "quantile":
                with pytest.raises(ValueError, match="nondecreasing"):
                    fn(x[:, ::-1])


def test_pair_distances_no_worse_than_squaring_the_distance_back(space):
    # d0^2 is f of a cylinder pair with a = 2 and no anchors, r = d^2/2 is f of
    # a bounded identity cylinder; both against their input sq_dist, which the
    # pairs took the square root of and squared back
    rng = np.random.default_rng(610)
    x = np.stack([space.sample(rng) for _ in range(2000)])
    base = space.sample(rng)
    sq = space.sq_dist(x, base)
    no_anchors = np.empty((0, space.size))
    d0sq = new.build_cyl_pair(space, "dagger", 2.0, CylindricalTestFunction(affine_phi([])),
                              base, no_anchors).f(x)
    assert_kernel_no_worse(d0sq, np.float_power(np.sqrt(sq), 2), sq.astype(LD))
    r = new.build_h0_pair(space, "dagger", CylindricalTestFunction(Iota(100, affine_phi([1.0]))),
                          base[None]).f(x)
    assert_kernel_no_worse(r, 0.5 * np.sqrt(sq) ** 2, sq.astype(LD) / 2)


def test_pairs_call_no_libm_pow(space, monkeypatch):
    """f and g of every pair family, built on and evaluated at NoPow rows."""
    rng = np.random.default_rng(611)
    x = np.stack([space.sample(rng) for _ in range(3)])
    base, anchor = space.sample(rng), space.sample(rng)
    phi = Affine(terms=((0.4, Psi(0.2, Coord(0))), (0.3, Coord(1))), const=0.1)
    want = []
    for guarded in (False, True):
        if guarded:
            x, base, anchor = pow_free(monkeypatch, x, base, anchor)
        params = {"a": 0.7, "b": 0.4, "c": 0.1, "eps": 0.2, "m": 5, "n": 2,
                  "rho": base, "mu": anchor, "gamma": base, "pi": anchor}
        pairs = [pair for side in SIDES for pair in (
            new.build_cyl_pair(space, side, 0.7, CylindricalTestFunction(phi), base,
                               np.stack((anchor, base))),
            new.build_h0_pair(space, side, CylindricalTestFunction(Iota(2, phi)),
                              np.stack((anchor, base))),
            *(new.build_chain_pair(space, level, side, params) for level in CHAIN_LEVELS))]
        values = [fn(x) for pair in pairs for fn in (pair.f, pair.g)]
        if guarded:
            assert all(np.array_equal(got, was) for got, was in zip(values, want))
        want = values


def test_rows_are_never_turned_back_into_points(space):
    """Rows are the only representation: ``hjflow.spaces`` has no point type to
    turn them into, ``sample`` draws a row, and the f and g of ladder levels 2
    to 6, ``tataru_batch``, ``HCurve.terms`` and ``lambda_continuous``
    run on (N, size) and (2, 3, size) rows, the second giving the values of the
    first in its shape."""
    for name in ("EuclideanPoint", "QuantilePoint", "SpacePoint"):
        assert not hasattr(hjflow.spaces, name)
    assert not hasattr(ModelSpace, "point")
    rng = np.random.default_rng(609)
    x = np.stack([space.sample(rng) for _ in range(6)])
    assert type(x[0]) is np.ndarray and x.shape == (6, space.size)
    anchor = space.sample(rng)
    params = {"a": 0.7, "b": 0.4, "c": 0.1, "eps": 0.2, "m": 5, "n": 2,
              "rho": space.sample(rng), "mu": anchor}
    for level in CHAIN_LEVELS:
        pair = new.build_chain_pair(space, level, "dagger", params)
        for fn in (pair.f, pair.g):
            value = fn(x)
            assert value.shape == (6,) and np.all(np.isfinite(value))
            assert np.array_equal(fn(x.reshape(2, 3, space.size)), value.reshape(2, 3))
    values = [r.value for r in tataru_batch(space, x, x[::-1], eps=0.2)]
    assert len(values) == 6 and np.all(np.isfinite(values))
    ts = np.linspace(0.0, 2.0, 7)
    terms = HCurve(space, x.reshape(2, 3, space.size), anchor, 0.2).terms(ts)
    flat = HCurve(space, x, anchor, 0.2).terms(ts)
    assert terms[0].shape == terms[2].shape == (2, 3, ts.size)
    assert all(np.array_equal(got, want.reshape(got.shape)) for got, want in zip(terms, flat))
    assert np.isfinite(lambda_continuous(space, 0.2, 5, x[0], anchor).log_value)


def test_class_check_rejects_exactly_the_bad_rows():
    """A batch fails the positivity class exactly when one of its rows does."""
    # partial 1 - psi'(r) = 1 - 1/sqrt(2 r): negative below r = 1/2 only
    dipping = CylindricalTestFunction(
        base=Affine(terms=((1.0, Coord(0)), (-1.0, Psi(0.01, Coord(0))))), anchors=(None,))
    dipping.base_value_and_grad(np.array([[2.0], [3.0]]))
    with pytest.raises(ValueError, match="not in class T"):
        dipping.base_value_and_grad(np.array([[2.0], [0.1], [3.0]]))
    # a zero partial in the one saturated row (inner value >= 3) is excused
    knee = CylindricalTestFunction(
        base=Iota(1, Affine(terms=((1.0, Coord(0)), (-0.5, Psi(0.01, Coord(0)))))),
        anchors=(None,))
    _, grad = knee.base_value_and_grad(np.array([[0.8], [10.0]]))
    assert grad[0, 0] > 0 and grad[1, 0] == 0
    # ... but saturation in one row does not excuse a zero partial in another
    flat = CylindricalTestFunction(base=Iota(1, affine_phi([1.0, 0.0])),
                                   anchors=(None, None))
    flat.base_value_and_grad(np.array([[5.0, 0.0]]))
    with pytest.raises(ValueError, match="not in class T"):
        flat.base_value_and_grad(np.array([[5.0, 0.0], [0.5, 0.0]]))


def _softmin_tree(eps: float, m: float, b: float, c: float, w, log_w) -> SumExpNegLog:
    """The tree of ``SoftminPsi(eps, m, b, c, w, log_w)``, as ``composite_phi_for_push``
    builds it for the weights w = exp(kappa_hat t)."""
    children = tuple(Affine(terms=((float(wi), Psi(eps, Coord(i))),)) for i, wi in enumerate(w))
    return SumExpNegLog(m=m, scale=b, log_coeffs=tuple(log_w), children=children, const=c)


def test_flat_families_are_refused_exactly_where_the_tree_wrapper_refuses_rows():
    """A flat family is refused at construction exactly when the tree wrapper
    refuses a generic unsaturated row of the same function; otherwise it gives
    the tree's values and partials bit for bit.  (A NaN weight the wrapper lets
    through, as NaN partials compare neither < 0 nor == 0; the families refuse it.)"""
    r = np.random.default_rng(613).uniform(0.05, 0.5, size=(4, 3))  # no row saturates
    eps, m, log_w = 0.2, 7.0, np.log([0.5, 0.3, 0.2])
    cases = []
    for w in ([0.4, 0.8, 0.3], [0.4, 0.0, 0.3], [0.4, -0.2, 0.3]):
        cases += [
            (lambda w=w: FlatAffine(w, 0.1), affine_phi(w, 0.1)),
            (lambda w=w: TruncatedAffine(3, w, 0.1), Iota(3, affine_phi(w, 0.1))),
            (lambda w=w: SoftminPsi(eps=eps, m=m, b=0.9, c=0.1, w=np.array(w), log_w=log_w),
             _softmin_tree(eps, m, 0.9, 0.1, w, log_w))]
    w = [0.4, 0.8, 0.3]
    for b in (0.0, -0.9):
        cases.append((lambda b=b: SoftminPsi(eps=eps, m=m, b=b, c=0.1, w=np.array(w),
                                             log_w=log_w),
                      _softmin_tree(eps, m, b, 0.1, w, log_w)))
    refused = []
    for build, tree in cases:
        try:
            want = CylindricalTestFunction(tree).base_value_and_grad(r)
        except ValueError:
            with pytest.raises(ValueError, match="not in class T"):
                build()
            refused.append(True)
            continue
        got = build().vag(r)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        refused.append(False)
    assert refused == [False] * 3 + [True] * 8


@pytest.mark.parametrize("space_name", ("ou", "quartic_3d", "double_well_quantile"))
def test_0to1_rows_match_tree_loop(request, space_name):
    space = request.getfixturevalue(space_name)
    rows = new.chain_inequality_report(space, "0to1", INSTANCES, np.random.default_rng(612))
    assert list(rows) == old_0to1_rows(space, INSTANCES, np.random.default_rng(612))


def test_4to5_rows_match_minimizer_loop(space):
    rows = new.chain_inequality_report(space, "4to5", INSTANCES,
                                       np.random.default_rng(605))
    assert list(rows) == old_4to5_rows(space, INSTANCES, np.random.default_rng(605))


@pytest.mark.parametrize("shape", ((), (4,), (3, 2)))
@pytest.mark.parametrize("space_name", ("ou", "double_well"))
def test_softmin_node_matches_composite_tree(request, space_name, shape):
    """The array node reproduces the tree's values and partials bit for bit (the
    tree sets no flag): the same per-element arithmetic, and each one-hot sum has
    one nonzero term."""
    space = request.getfixturevalue(space_name)  # kappa_hat = 0 resp. < 0
    rng = np.random.default_rng(607)
    for n in range(1, 6):
        for m in (1, 7, 40):
            eps, b = float(rng.uniform(0.05, 0.7)), float(rng.uniform(0.2, 1.5))
            c = float(rng.uniform(-1.0, 1.0))
            node, ts = new.composite_phi_for_push(space, eps, b, c, m, n)
            tree, tree_ts = composite_phi_for_push(space, eps, b, c, m, n)
            assert np.array_equal(ts, tree_ts)
            assert tree.structurally_positive()
            assert node.bounded() == tree.bounded()
            # some coordinates on the quadratic branch of psi_eps, below eps
            scale = rng.uniform(0.0, 1.0, size=ts.size)
            r = scale * rng.uniform(0.0, 3.0, size=(*shape, ts.size))
            (v, g), (tv, tg, tsat) = node.vag(r), tree.vag(r)
            for got, want in ((v, tv), (g, tg)):
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(got, want)
            assert np.shape(tsat) == shape and not np.any(tsat)


@pytest.mark.parametrize("space_name", ("ou", "quartic_3d", "double_well_quantile"))
def test_1to2_rows_match_composite_tree(request, space_name):
    space = request.getfixturevalue(space_name)
    rows = new.chain_inequality_report(space, "1to2", INSTANCES, np.random.default_rng(608))
    assert list(rows) == old_1to2_rows(space, INSTANCES, np.random.default_rng(608))


@pytest.mark.parametrize("space_name", ("ou", "quartic", "double_well"))
def test_check_viscosity_matches_sub_and_super_checks(request, monkeypatch, space_name):
    space = request.getfixturevalue(space_name)
    rng = np.random.default_rng(606)
    xs = make_grid(space.box, 1.0)
    for i in range(INSTANCES):
        amp, freq, phase = rng.uniform(0.2, 1.0, size=3)
        values = amp * np.cos(freq * xs + 3 * phase)
        if i % 3 == 0:
            values = np.round(values, 1)  # plateaus: many near-optimizers and ties
        u = GridFunction(xs, values)
        h = lambda x, w=rng.uniform(0.5, 1.5): 0.5 * np.sin(w * np.asarray(x, dtype=float))
        a = float(rng.uniform(0.1, 0.6))
        k = int(rng.integers(1, 3))
        phi = affine_phi(rng.uniform(0.05, 0.5, size=k), float(rng.uniform(0.0, 0.5)))
        base = np.array([rng.uniform(-1.5, 1.5)])
        anchors = [np.array([rng.uniform(-1.5, 1.5)]) for _ in range(k)]
        lam, tol = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 0.5))
        gap_tol = (1e-6, 1e-2, 0.3)[i % 3]
        monkeypatch.setattr(hjflow.viscosity, "_GAP_TOL", gap_tol)
        for side, old_check in (("dagger", check_subsolution),
                                ("ddagger", check_supersolution)):
            pair = new.build_cyl_pair(space, side, a, CylindricalTestFunction(phi), base,
                                      np.stack(anchors))
            rep = check_viscosity(u, pair, h, lam, tol)
            for old in (old_check(space, u, pair, h, lam, tol, gap_tol),
                        per_point_check_viscosity(space, u, pair, h, lam, tol, gap_tol)):
                assert rep.side == old.side
                assert np.array_equal(rep.optimizers, old.optimizers)
                assert rep.slack == old.slack
                assert (rep.passed, rep.soft_passed) == (old.passed, old.soft_passed)
