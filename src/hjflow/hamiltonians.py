"""Construction and evaluation of the Hamiltonian (f, g) pair families.

Families (dagger side shown; the ddagger side mirrors signs):

* cylindrical with a leading quadratic: f = a/2 d^2(., rho) + phi(d^2(., mu_i)/2)
  and the five-term g built from energy gaps, the kappa-quadratic corrections,
  and the squared/crossed gradient terms;
* bounded cylindrical (no leading quadratic), with the subtracted off-diagonal
  products on the lower side;
* Tataru pairs f = a/2 d^2 + b d_T + c with the closed-form g;
* the approximation ladder, levels 2..6, walking from exponential Riemann sums
  over the flow to the Tataru pair.

Convention used throughout: exponential damping factors use
kappa_hat = min(kappa, 0); the quadratic correction -kappa/2 d^2 uses kappa
itself.  Both are routed through ``_kappas`` so the distinction lives in one
place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import logsumexp

from .cylinders import (
    Affine,
    Coord,
    CylNode,
    CylindricalTestFunction,
    Psi,
    SumExpNegLog,
    affine_phi,
    truncate_cylinder,
)
from .laplace import _adaptive_log_quadrature, discrete_exp_log_weights
from .spaces import ModelSpace, SpacePoint
from .tataru import d_eps, psi_eps, psi_eps_prime, tataru, tataru_eps

CHAIN_LEVELS = (2, 3, 4, 5, 6)


def _kappas(space: ModelSpace, kappa_override: float | None = None) -> tuple[float, float]:
    """(kappa, kappa_hat): quadratic corrections use the first, damping the second."""
    kappa = space.kappa if kappa_override is None else kappa_override
    return kappa, min(kappa, 0.0)


@dataclass(frozen=True)
class HamiltonianPair:
    """An (f, g) evaluator pair tagged by family and side; immutable and pure."""

    family: str
    side: str
    params: dict = field(repr=False)
    f: Callable[[SpacePoint], float] = field(repr=False)
    g: Callable[[SpacePoint], float] = field(repr=False)


def _anchor_data(space: ModelSpace, anchors) -> tuple[np.ndarray, np.ndarray]:
    vals = np.stack([a.values for a in anchors])
    energies = np.array([space.energy(a) for a in anchors])
    return vals, energies


def _anchor_dists(space: ModelSpace, anchor_vals: np.ndarray, pt: SpacePoint) -> np.ndarray:
    diffs = anchor_vals - pt.values[None, :]
    return np.sqrt(space.weight * np.sum(diffs * diffs, axis=1))


# ---------------------------------------------------------------------------
# cylindrical pairs with a leading quadratic
# ---------------------------------------------------------------------------


def build_cyl_dagger(space: ModelSpace, a: float, phi: CylNode, rho: SpacePoint,
                     mus) -> HamiltonianPair:
    """Upper-bound pair on cylinders f = a/2 d^2(., rho) + phi(d^2(., mus)/2)."""
    if a <= 0:
        raise ValueError("a must be positive")
    mus = tuple(mus)
    cyl = CylindricalTestFunction(base=phi, anchors=mus)
    anchor_vals, anchor_e = _anchor_data(space, mus)
    e_rho = space.energy(rho)
    kappa, _ = _kappas(space)

    def f(pi: SpacePoint) -> float:
        r = 0.5 * _anchor_dists(space, anchor_vals, pi) ** 2
        v, _ = cyl.base_value_and_grad(r)
        return 0.5 * a * space.distance(pi, rho) ** 2 + v

    def g(pi: SpacePoint) -> float:
        dists = _anchor_dists(space, anchor_vals, pi)
        _, grad = cyl.base_value_and_grad(0.5 * dists**2)
        d0 = space.distance(pi, rho)
        e_pi = space.energy(pi)
        cross = float(np.dot(grad, dists))
        out = a * (e_rho - e_pi - 0.5 * kappa * d0**2) + 0.5 * a**2 * d0**2
        out += float(np.dot(grad, anchor_e - e_pi - 0.5 * kappa * dists**2))
        out += 0.5 * cross**2 + a * d0 * cross
        return out

    params = {"a": a, "rho": rho, "anchors": mus}
    return HamiltonianPair(family="cyl", side="dagger", params=params, f=f, g=g)


def build_cyl_ddagger(space: ModelSpace, a: float, phi: CylNode, gamma: SpacePoint,
                      pis) -> HamiltonianPair:
    """Lower-bound mirror with the subtracted square and cross terms."""
    if a <= 0:
        raise ValueError("a must be positive")
    pis = tuple(pis)
    cyl = CylindricalTestFunction(base=phi, anchors=pis)
    anchor_vals, anchor_e = _anchor_data(space, pis)
    e_gamma = space.energy(gamma)
    kappa, _ = _kappas(space)

    def f(mu: SpacePoint) -> float:
        r = 0.5 * _anchor_dists(space, anchor_vals, mu) ** 2
        v, _ = cyl.base_value_and_grad(r)
        return -0.5 * a * space.distance(mu, gamma) ** 2 - v

    def g(mu: SpacePoint) -> float:
        dists = _anchor_dists(space, anchor_vals, mu)
        _, grad = cyl.base_value_and_grad(0.5 * dists**2)
        d0 = space.distance(mu, gamma)
        e_mu = space.energy(mu)
        cross = float(np.dot(grad, dists))
        out = a * (e_mu - e_gamma + 0.5 * kappa * d0**2) + 0.5 * a**2 * d0**2
        out += float(np.dot(grad, e_mu - anchor_e + 0.5 * kappa * dists**2))
        out += -0.5 * cross**2 - a * d0 * cross
        return out

    params = {"a": a, "gamma": gamma, "anchors": pis}
    return HamiltonianPair(family="cyl", side="ddagger", params=params, f=f, g=g)


# ---------------------------------------------------------------------------
# bounded cylindrical pairs (no leading quadratic)
# ---------------------------------------------------------------------------


def build_h0_pair(space: ModelSpace, side: str, phi: CylNode, anchors) -> HamiltonianPair:
    """Pairs on bounded cylinders f = +-phi(d^2(., anchors)/2)."""
    anchors = tuple(anchors)
    cyl = CylindricalTestFunction(base=phi, anchors=anchors)
    if not cyl.bounded():
        raise ValueError("requires class T_b (bounded test function)")
    anchor_vals, anchor_e = _anchor_data(space, anchors)
    kappa, _ = _kappas(space)

    if side == "dagger":
        def f(pi: SpacePoint) -> float:
            r = 0.5 * _anchor_dists(space, anchor_vals, pi) ** 2
            v, _ = cyl.base_value_and_grad(r)
            return v

        def g(pi: SpacePoint) -> float:
            dists = _anchor_dists(space, anchor_vals, pi)
            _, grad = cyl.base_value_and_grad(0.5 * dists**2)
            e_pi = space.energy(pi)
            cross = float(np.dot(grad, dists))
            out = float(np.dot(grad, anchor_e - e_pi - 0.5 * kappa * dists**2))
            return out + 0.5 * cross**2

    elif side == "ddagger":
        def f(mu: SpacePoint) -> float:
            r = 0.5 * _anchor_dists(space, anchor_vals, mu) ** 2
            v, _ = cyl.base_value_and_grad(r)
            return -v

        def g(mu: SpacePoint) -> float:
            dists = _anchor_dists(space, anchor_vals, mu)
            _, grad = cyl.base_value_and_grad(0.5 * dists**2)
            e_mu = space.energy(mu)
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


# ---------------------------------------------------------------------------
# Tataru pairs and the shared closed-form g
# ---------------------------------------------------------------------------


def _tataru_g_dagger(space, a, b, rho, e_rho, kappa):
    def g(pi: SpacePoint) -> float:
        d0 = space.distance(pi, rho)
        return (a * (e_rho - space.energy(pi)) - 0.5 * a * kappa * d0**2
                + b + 0.5 * a**2 * d0**2 + a * b * d0 + 0.5 * b**2)
    return g


def _tataru_g_ddagger(space, a, b, gamma, e_gamma, kappa):
    def g(mu: SpacePoint) -> float:
        d0 = space.distance(mu, gamma)
        return (a * (space.energy(mu) - e_gamma) + 0.5 * a * kappa * d0**2
                - b + 0.5 * a**2 * d0**2 - a * b * d0 - 0.5 * b**2)
    return g


def build_tataru_pair(space: ModelSpace, side: str, a: float, b: float, c: float,
                      base_point: SpacePoint, flow_anchor: SpacePoint,
                      kappa_override: float | None = None) -> HamiltonianPair:
    """f = +-(a/2 d^2 + b d_T) + c with the closed-form g.

    ``base_point`` anchors the quadratic; ``flow_anchor`` is the point whose
    gradient flow enters the Tataru minimization.
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    kappa, _ = _kappas(space, kappa_override)
    space.flow_curve(flow_anchor)  # fail at build time on an anchor outside the space
    e_base = space.energy(base_point)

    def d_t(pt: SpacePoint) -> float:
        return tataru(space, pt, flow_anchor, kappa_override).value

    if side == "dagger":
        def f(pi: SpacePoint) -> float:
            return 0.5 * a * space.distance(pi, base_point) ** 2 + b * d_t(pi) + c
        g = _tataru_g_dagger(space, a, b, base_point, e_base, kappa)
    elif side == "ddagger":
        def f(mu: SpacePoint) -> float:
            return -0.5 * a * space.distance(mu, base_point) ** 2 - b * d_t(mu) + c
        g = _tataru_g_ddagger(space, a, b, base_point, e_base, kappa)
    else:
        raise ValueError(f"unknown side {side!r}")

    params = {"a": a, "b": b, "c": c, "base": base_point, "anchor": flow_anchor}
    return HamiltonianPair(family="tataru", side=side, params=params, f=f, g=g)


# ---------------------------------------------------------------------------
# the approximation ladder, levels 2..6
# ---------------------------------------------------------------------------


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
    e_base = space.energy(base_point)
    curve = space.flow_curve(flow_anchor)

    def quad_prefix(pt: SpacePoint) -> float:
        """All g terms except the +-b flow-action slot."""
        d0 = space.distance(pt, base_point)
        e_pt = space.energy(pt)
        if side == "dagger":
            return (a * (e_base - e_pt) - 0.5 * a * kappa * d0**2
                    + 0.5 * a**2 * d0**2 + a * b * d0 + 0.5 * b**2)
        return (a * (e_pt - e_base) + 0.5 * a * kappa * d0**2
                + 0.5 * a**2 * d0**2 - a * b * d0 - 0.5 * b**2)

    def flow_pieces(pt: SpacePoint, ts: np.ndarray, eps: float):
        """(h, damping, psi', flow energies) along the anchor flow at times ts."""
        vals = curve.values_at(ts)
        diffs = vals - pt.values[None, :]
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

            def tilt_data(pt: SpacePoint):
                h, damping, psi_p, flow_e = flow_pieces(pt, atoms, eps)
                log_contrib = log_w - m * h
                log_lam = float(logsumexp(log_contrib))
                return log_lam, np.exp(log_contrib - log_lam), h, damping, psi_p, flow_e

        else:
            rel_tol = params.get("quad_rel_tol", 1e-10)
            log_rate = np.log(m + 1.0)

            def tilt_data(pt: SpacePoint):
                t_quad = d_eps(space, eps, pt, flow_anchor) + 1.0 + 5.0 / (m + 1)

                def log_f(ts):
                    h, _, _, _ = flow_pieces(pt, ts, eps)
                    return log_rate - (m + 1.0) * ts - m * h

                log_quad, nodes, log_contrib, _ = _adaptive_log_quadrature(
                    log_f, 0.0, t_quad, rel_tol=rel_tol)
                # frozen-exponent tail estimate, as in the standalone integral
                h_end, _, _, _ = flow_pieces(pt, np.array([t_quad]), eps)
                log_tail = float(-(m + 1.0) * t_quad - m * h_end[0])
                log_lam = float(np.logaddexp(log_quad, log_tail))
                nodes = np.append(nodes, t_quad)
                log_contrib = np.append(log_contrib, log_tail)
                h, damping, psi_p, flow_e = flow_pieces(pt, nodes, eps)
                return log_lam, np.exp(log_contrib - log_lam), h, damping, psi_p, flow_e

        def f(pt: SpacePoint) -> float:
            log_lam = tilt_data(pt)[0]
            return sign * (0.5 * a * space.distance(pt, base_point) ** 2
                           + b * (-log_lam / m)) + c

        def g(pt: SpacePoint) -> float:
            _, tilt, h, damping, psi_p, flow_e = tilt_data(pt)
            gap = flow_e - space.energy(pt)
            term_energy = b * float(np.dot(tilt, psi_p * damping * gap))
            term_reg = -0.5 * b * kappa_hat * float(np.dot(tilt, np.maximum(1.0 / m, h)))
            return quad_prefix(pt) + sign * (term_energy + term_reg)

        return HamiltonianPair(family=f"chain{level}", side=side,
                               params=dict(params), f=f, g=g)

    if level == 4:
        eps = _require(params, level, "eps")[0]

        def f(pt: SpacePoint) -> float:
            value = tataru_eps(space, eps, pt, flow_anchor).value
            return sign * (0.5 * a * space.distance(pt, base_point) ** 2
                           + b * value) + c

        def g(pt: SpacePoint) -> float:
            ts = tataru_eps(space, eps, pt, flow_anchor).minimizers
            h, damping, psi_p, flow_e = flow_pieces(pt, ts, eps)
            gap = flow_e - space.energy(pt)
            # h = damping * d_eps along the flow, so -kappa_hat/2 h is the
            # damped-distance correction of the flow action
            expr = damping * gap * psi_p - 0.5 * kappa_hat * h
            return quad_prefix(pt) + sign * b * float(np.max(expr))

        return HamiltonianPair(family="chain4", side=side, params=dict(params), f=f, g=g)

    # levels 5 and 6: closed-form g, shared bit for bit
    eps = _require(params, level, "eps")[0] if level == 5 else None

    def f(pt: SpacePoint) -> float:
        if eps is None:
            value = tataru(space, pt, flow_anchor).value
        else:
            value = tataru_eps(space, eps, pt, flow_anchor).value
        return sign * (0.5 * a * space.distance(pt, base_point) ** 2 + b * value) + c

    if side == "dagger":
        g = _tataru_g_dagger(space, a, b, base_point, e_base, kappa)
    else:
        g = _tataru_g_ddagger(space, a, b, base_point, e_base, kappa)
    return HamiltonianPair(family=f"chain{level}", side=side, params=dict(params), f=f, g=g)


# ---------------------------------------------------------------------------
# chain inequality sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainReport:
    link: str
    samples: int
    max_violation: float
    rows: tuple


def composite_phi_for_push(space: ModelSpace, eps: float, b: float, c: float,
                           m: int, n: int) -> tuple[CylNode, np.ndarray]:
    """The explicit log-sum-exp composite whose cylindrical pair has f equal
    to the level-2 test function; returns (node, atom times)."""
    ts, log_w = discrete_exp_log_weights(m + 1, n)
    _, kappa_hat = _kappas(space)
    children = tuple(
        Affine(terms=((float(np.exp(kappa_hat * t)), Psi(eps, Coord(i))),))
        for i, t in enumerate(ts)
    )
    node = SumExpNegLog(m=float(m), scale=b, log_coeffs=tuple(log_w),
                        children=children, const=c)
    return node, ts


def chain_inequality_report(space: ModelSpace, link: str, samples: int,
                            rng: np.random.Generator, tol: float | None = None) -> ChainReport:
    """Sampled verification of one ladder inequality.

    ``1to2``: g of the generic cylindrical pair on the explicit composite is
    dominated by the level-2 g.  ``4to5``: the flow-action expression at the
    minimizer set stays below 1.  ``0to1``: bounded and unbounded pairs agree
    below the truncation knee.
    """
    rows = []
    if link == "1to2":
        tol = 1e-9 if tol is None else tol
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
            anchors = [space.point(v) for v in space.flow_curve(mu).values_at(ts)]
            pair1 = build_cyl_dagger(space, a, phi, rho, anchors)
            pair2 = build_chain_pair(space, 2, "dagger",
                                     {"a": a, "b": b, "c": c, "eps": eps,
                                      "m": m, "n": n, "rho": rho, "mu": mu})
            g1 = pair1.g(pi)
            g2 = pair2.g(pi)
            violation = g1 - g2
            rows.append(("chain-1to2", i, g1, g2, violation, violation <= tol))
    elif link == "4to5":
        tol = 1e-6 if tol is None else tol
        _, kappa_hat = _kappas(space)
        for i in range(samples):
            eps = rng.uniform(0.05, 0.7)
            mu = space.sample(rng)
            pi = space.sample(rng)
            curve = space.flow_curve(mu)
            res = tataru_eps(space, eps, pi, mu)
            e_pi = space.energy(pi)
            lhs_best = -np.inf
            for t in res.minimizers:
                vals = curve.value_at(float(t))
                dist2 = space.weight * float(np.dot(vals - pi.values, vals - pi.values))
                damping = float(np.exp(kappa_hat * t))
                flow_e = space.weight * float(np.sum(space.potential.v(vals)))
                lhs = (damping * (flow_e - e_pi) * psi_eps_prime(eps, 0.5 * dist2)
                       - 0.5 * kappa_hat * damping * psi_eps(eps, 0.5 * dist2))
                lhs_best = max(lhs_best, lhs)
            violation = lhs_best - 1.0
            rows.append(("chain-4to5", i, lhs_best, 1.0, violation, violation <= tol))
    elif link == "0to1":
        tol = 1e-9 if tol is None else tol
        for i in range(samples):
            a = rng.uniform(0.2, 1.5)
            k = int(rng.integers(1, 3))
            weights = rng.uniform(0.1, 1.0, size=k)
            const = rng.uniform(0.0, 0.5)
            rho = space.sample(rng)
            mus = [space.sample(rng) for _ in range(k)]
            pi = space.sample(rng)
            phi0 = affine_phi(weights, const)
            pair1 = build_cyl_dagger(space, a, phi0, rho, mus)
            inner_value = pair1.f(pi)  # equals a r0 + phi0(r) at pi
            n = int(np.ceil(inner_value)) + 1
            cyl_fun = CylindricalTestFunction(base=phi0, anchors=tuple(mus))
            truncated = truncate_cylinder(cyl_fun, a, rho, n)
            pair0 = build_h0_pair(space, "dagger", truncated.base, truncated.anchors)
            g0 = pair0.g(pi)
            g1 = pair1.g(pi)
            violation = abs(g0 - g1)
            rows.append(("chain-0to1", i, g0, g1, violation, violation <= tol))
    else:
        raise ValueError(f"unknown chain link {link!r}")

    max_violation = max(row[4] for row in rows) if rows else 0.0
    return ChainReport(link=link, samples=samples, max_violation=max_violation,
                       rows=tuple(rows))
