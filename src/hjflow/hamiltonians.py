"""Construction and evaluation of the Hamiltonian (f, g) pair families.

Every pair has a side: "dagger" (the upper pair of the subsolution test) or
"ddagger" (the lower pair of the supersolution test).  ``side_sign`` maps it
to sigma = +1 resp. -1, and each builder writes its pair once: f carries the
factor sigma, and so does every term of g that changes sign between the sides.
The terms that keep their sign (a^2/2 d0^2, and on the bounded lower side the
subtracted off-diagonal products) are written out as such.  One builder per family:

* ``build_cyl_pair``, cylindrical with a leading quadratic: f = sigma [a/2 d0^2
  + phi(d^2/2)] with d0 = d(., base), d = d(., anchors) and the five-term
  g = sigma [a (E(base) - E - kappa/2 d0^2) + grad phi . (E(anchors) - E - kappa/2 d^2)
  + cross^2/2 + a d0 cross] + a^2/2 d0^2, where cross = grad phi . d;
* ``build_h0_pair``, bounded cylindrical (no leading quadratic), with the
  subtracted off-diagonal products on the lower side;
* ``build_chain_pair``, the approximation ladder, levels 2..6, from exponential
  Riemann sums over the flow to the Tataru pairs of levels 5 and 6.  Every rung
  is f = sigma (a/2 d0^2 + b value) + c with the closed-form g of ``_closed_pair``;
  only the value and the flow-action slot of g change between rungs.

``f`` and ``g`` take coordinate rows x (..., size), checked once by
``ModelSpace.rows``, and return values (...): one ``vag`` of the cylinder
family (``Affine``, ``TruncatedAffine`` or ``SoftminPsi``) for the cylindrical
pairs, one ``HCurve.terms`` broadcast over (rows, atoms) at level 2, one
``tataru_batch`` call at levels 4 to 6 (level 4 adds one ``HCurve.terms`` over
the minimizer sets), a loop over rows at level 3 only.  Anchor sets, base
points and flow anchors are rows too, checked once when a pair is built, as a
cylinder family checks class T once, on its parameters.  Levels 2 to 4 take h,
damping and psi_eps' from ``tataru.HCurve``; the 1to2 link flows its anchors
with ``ModelSpace.flow_values``.  The cylindrical pairs and levels 2, 5 and 6
take N instances on a leading axis (parameters (N,), base rows (N, size),
anchor rows (N, k, size)), so the sampled ladder links draw all their samples
first and evaluate them in one array pass.

Exponential damping factors use kappa_hat = min(kappa, 0); the quadratic
correction -kappa/2 d^2 uses kappa itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cylinders import Affine, CylNode, SoftminPsi, TruncatedAffine
from .laplace import discrete_exp_log_weights, lambda_continuous
from .spaces import ModelSpace
from .tataru import BLOCK_ELEMENTS, HCurve, logsumexp, tataru_batch

CHAIN_LEVELS = (2, 3, 4, 5, 6)


def side_sign(side: str) -> float:
    """sigma = +1 for the dagger side, -1 for the ddagger side."""
    if side == "dagger":
        return 1.0
    if side == "ddagger":
        return -1.0
    raise ValueError(f"unknown side {side!r}")


@dataclass(frozen=True)
class HamiltonianPair:
    """An immutable, pure (f, g) pair tagged by side; f, g map rows (..., size) to (...)."""

    side: str
    f: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    g: Callable[[np.ndarray], np.ndarray] = field(repr=False)


def _pair(space: ModelSpace, side: str, f, g) -> HamiltonianPair:
    """The pair of f and g on checked rows."""
    return HamiltonianPair(side=side, f=lambda x: f(space.rows(x)),
                           g=lambda x: g(space.rows(x)))


def _cylinder(space: ModelSpace, phi: CylNode, anchors):
    """(anchor energies, at) with at(x) = (phi(r), grad phi(r), d^2) for the rows x,
    d^2 = sq_dist(x, anchors) and r = d^2/2.

    ``anchors`` are coordinate rows (k, size), or (N, k, size) for N instances,
    checked once by ``ModelSpace.rows`` and copied, as the base points are."""
    anchor_vals = space.rows(anchors).copy()

    def at(x: np.ndarray):
        sq = space.sq_dist(anchor_vals, x[..., None, :])
        return (*phi.vag(0.5 * sq), sq)

    return space.energies(anchor_vals), at


# ---------------------------------------------------------------------------
# cylindrical pairs with a leading quadratic
# ---------------------------------------------------------------------------


def build_cyl_pair(space: ModelSpace, side: str, a, phi: CylNode, base,
                   anchors) -> HamiltonianPair:
    """f = sigma [a/2 d^2(., base) + phi(d^2(., anchors)/2)] with the five-term g."""
    sigma = side_sign(side)
    if not np.all(a > 0):  # also rejects NaN
        raise ValueError("a must be positive")
    anchor_e, at = _cylinder(space, phi, anchors)
    base = space.rows(base).copy()
    e_base = space.energies(base)
    kappa = space.kappa

    def f(x):
        return sigma * (0.5 * a * space.sq_dist(x, base) + at(x)[0])

    def g(x):
        _, grad, sq = at(x)
        d0sq, e, cross = space.sq_dist(x, base), space.energies(x), np.vecdot(grad, np.sqrt(sq))
        out = sigma * a * (e_base - e - 0.5 * kappa * d0sq) + 0.5 * a * a * d0sq
        out += sigma * np.vecdot(grad, anchor_e - e[..., None] - 0.5 * kappa * sq)
        return out + sigma * (0.5 * cross * cross + a * np.sqrt(d0sq) * cross)

    return _pair(space, side, f, g)


# ---------------------------------------------------------------------------
# bounded cylindrical pairs (no leading quadratic)
# ---------------------------------------------------------------------------


def build_h0_pair(space: ModelSpace, side: str, phi: CylNode, anchors) -> HamiltonianPair:
    """Pairs on bounded cylinders f = sigma phi(d^2(., anchors)/2)."""
    sigma = side_sign(side)
    if not phi.bounded():
        raise ValueError("requires class T_b (bounded test function)")
    anchor_e, at = _cylinder(space, phi, anchors)
    kappa = space.kappa

    def g(x):
        _, grad, sq = at(x)
        e = space.energies(x)
        out = sigma * np.vecdot(grad, anchor_e - e[..., None] - 0.5 * kappa * sq)
        prods = grad * np.sqrt(sq)
        s = prods.sum(axis=-1)
        if sigma > 0:
            return out + 0.5 * s * s
        # 1/2 sum_i p_i^2 - 1/2 sum_{i != j} p_i p_j  ==  s1 - s^2 / 2
        return out + np.vecdot(prods, prods) - 0.5 * s * s

    return _pair(space, side, lambda x: sigma * at(x)[0], g)


# ---------------------------------------------------------------------------
# the approximation ladder, levels 2..6
# ---------------------------------------------------------------------------


def _closed_pair(space: ModelSpace, side: str, a, b, c, base: np.ndarray, value,
                 slot) -> HamiltonianPair:
    """f = sigma (a/2 d^2(., base) + b value) + c with the closed-form g.

    ``slot(x)`` is b times the flow action: b for the Tataru distance (levels 5
    and 6), b times the tilted resp. maximal flow action at levels 2 to 4.
    """
    sigma = side_sign(side)
    kappa = space.kappa
    e_base = space.energies(base)

    def f(x):
        return sigma * (0.5 * a * space.sq_dist(x, base) + b * value(x)) + c

    def g(x):
        d0sq = space.sq_dist(x, base)
        return (sigma * a * (e_base - space.energies(x)) - sigma * 0.5 * a * kappa * d0sq
                + 0.5 * a * a * d0sq + sigma * a * b * np.sqrt(d0sq) + sigma * 0.5 * b * b
                + sigma * slot(x))

    return _pair(space, side, f, g)


def _tataru_results(space: ModelSpace, x: np.ndarray, anchor: np.ndarray, eps):
    """(eps, rows, anchors, results) of one ``tataru_batch`` call: the rows x
    (..., size) and the anchor rows broadcast together and flattened to
    (N, size), and eps, if not None, broadcast to (N,)."""
    x, anchors = np.broadcast_arrays(x, anchor)
    if eps is not None:
        eps = np.broadcast_to(eps, x.shape[:-1]).reshape(-1)
    rows, anchors = x.reshape(-1, space.size), anchors.reshape(-1, space.size)
    return eps, rows, anchors, tataru_batch(space, rows, anchors, eps=eps)


def _tataru_value(space: ModelSpace, anchor: np.ndarray, eps):
    return lambda x: np.reshape([r.value for r in _tataru_results(space, x, anchor, eps)[3]],
                                np.broadcast_shapes(x.shape, anchor.shape)[:-1])


def _require(params: dict, level: int, *names):
    missing = [name for name in names if params.get(name) is None]
    if missing:
        raise ValueError(f"missing parameter {missing[0]!r} for level {level}")
    return [params[name] for name in names]


def _max_flow_action(space: ModelSpace, eps, pis: np.ndarray, mus: np.ndarray,
                     results: list) -> np.ndarray:
    """Max over the minimizer set of each Tataru result of the flow action
    exp(kappa_hat t) [(E(mu(t)) - E(pi)) psi_eps'(d^2/2) - kappa_hat/2 psi_eps(d^2/2)]
    with d = d(pi, mu(t)), for rows pis, mus (N, size) and eps one value or one per
    row.  Minimizer sets are padded to the widest with their own entries: no max moves."""
    width = max(r.minimizers.size for r in results)
    ts = np.array([np.resize(r.minimizers, width) for r in results])
    h, damping, psi_p, vals = HCurve(space, pis, mus, eps).terms(ts)
    # -kappa_hat/2 h is the damped-distance correction of the flow action
    action = (damping * (space.energies(vals) - space.energies(pis)[:, None]) * psi_p
              - 0.5 * space.kappa_hat * h)
    return action.max(axis=1)


def build_chain_pair(space: ModelSpace, level: int, side: str, params: dict) -> HamiltonianPair:
    """One rung of the approximation ladder.

    Levels 2 and 3 use the exponentially tilted Riemann sum resp. integral of
    exp(-m h) with the (1/m v h)-regularized damping term; level 4 replaces the
    integral by the smoothed Tataru distance and a sup over its minimizer set;
    levels 5 and 6 are the Tataru pair (closed-form g) with the smoothed resp.
    exact Tataru distance in f.  Level 3 loops over the rows, one adaptive
    quadrature each, because their panel sets are ragged.  At levels 2, 5 and
    6 a, b, c, eps, m and the rows may hold N instances, on a leading axis
    (n, which sets the atoms of level 2, is one for all); x (..., size)
    broadcasts against them, and every instance gets the bits of its own
    one-instance pair.
    """
    if level not in CHAIN_LEVELS:
        raise ValueError(f"level must be one of {CHAIN_LEVELS}")
    base_key, anchor_key = ("rho", "mu") if side_sign(side) > 0 else ("gamma", "pi")
    a, b, c, base_point, flow_anchor = _require(params, level, "a", "b", "c",
                                                base_key, anchor_key)
    if not (np.all(a > 0) and np.all(b > 0)):  # also rejects NaN
        raise ValueError("a and b must be positive")
    base, anchor = space.rows(base_point).copy(), space.rows(flow_anchor).copy()
    if level >= 5:
        eps = _require(params, level, "eps")[0] if level == 5 else None
        return _closed_pair(space, side, a, b, c, base, _tataru_value(space, anchor, eps),
                            lambda x: b)

    if level == 4:
        eps = _require(params, level, "eps")[0]

        def slot4(x):
            action = _max_flow_action(space, *_tataru_results(space, x, anchor, eps))
            return b * action.reshape(x.shape[:-1])

        return _closed_pair(space, side, a, b, c, base, _tataru_value(space, anchor, eps), slot4)

    eps, m = _require(params, level, "eps", "m")
    m = np.asarray(m).astype(int)
    m_col = m[..., None]  # m against the nodes of each instance

    def tilted(x, log_lam, tilt, terms):
        """(-log Lambda / m, b times the tilted flow action) at the rows x, as (..., 2)."""
        h, damping, psi_p, vals = terms
        gap = space.energies(vals) - space.energies(x)[..., None]
        term_energy = b * np.vecdot(tilt, psi_p * damping * gap)
        term_reg = -0.5 * b * space.kappa_hat * np.vecdot(tilt, np.maximum(1.0 / m_col, h))
        return np.stack((-log_lam / m, term_energy + term_reg), axis=-1)

    if level == 2:
        n = int(_require(params, level, "n")[0])
        atoms, log_w = _exp_log_weights(m, n)

        def ladder_terms(x):
            terms = HCurve(space, x, anchor, eps).terms(atoms)
            log_contrib = log_w - m_col * terms[0]
            log_lam = logsumexp(log_contrib, axis=-1)
            return tilted(x, log_lam, np.exp(log_contrib - log_lam[..., None]), terms)

    else:
        def ladder_terms(x):
            out = []
            for row in x.reshape(-1, space.size):
                lam = lambda_continuous(space, eps, int(m), row, anchor)
                terms = HCurve(space, row, anchor, eps).terms(lam.nodes)
                out.append(tilted(row, lam.log_value, lam.tilted_weights(), terms))
            return np.reshape(out, (*x.shape[:-1], 2))

    return _closed_pair(space, side, a, b, c, base, lambda x: ladder_terms(x)[..., 0],
                        lambda x: ladder_terms(x)[..., 1])


# ---------------------------------------------------------------------------
# chain inequality sampling
# ---------------------------------------------------------------------------


def _exp_log_weights(m, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The atoms and log weights of ``discrete_exp_log_weights(m + 1, n)``, for
    one m or one m per instance (then one row of log weights per instance)."""
    laws = [discrete_exp_log_weights(k + 1, n) for k in np.ravel(m).tolist()]
    return laws[0][0], np.reshape([log_w for _, log_w in laws], (*np.shape(m), n * n))


def composite_phi_for_push(space: ModelSpace, eps, b, c, m,
                           n: int) -> tuple[SoftminPsi, np.ndarray]:
    """The explicit log-sum-exp composite whose cylindrical pair has f equal
    to the level-2 test function; returns (node, atom times).

    One array node over the K = n^2 atoms t_i of ``discrete_exp_log_weights``:
    c - (b/m) log sum_i exp(log_w_i - m exp(kappa_hat t_i) psi_eps(r_i)), with
    r_i the half-squared distance to the flow at t_i.  eps, b, c and m may hold
    one value per instance, as the level-2 pair's do."""
    ts, log_w = _exp_log_weights(m, n)
    node = SoftminPsi(eps=eps, m=np.asarray(m, dtype=float), b=b, c=c,
                      w=np.exp(space.kappa_hat * ts), log_w=log_w)
    return node, ts


def _groups(space: ModelSpace, keys: np.ndarray, width):
    """(key, sample indices) of each key, in chunks whose flow or anchor rows hold
    at most max(BLOCK_ELEMENTS, width(key) * size) elements."""
    for key in sorted(set(keys.tolist())):  # np.unique would load numpy.ma on first use
        idx = np.flatnonzero(keys == key)
        step = max(1, BLOCK_ELEMENTS // (width(key) * space.size))
        for lo in range(0, idx.size, step):
            yield key, idx[lo:lo + step]


def chain_inequality_report(space: ModelSpace, link: str, samples: int,
                            rng: np.random.Generator) -> tuple:
    """Sampled verification of one ladder inequality: the check rows
    (check, instance, value, bound), one per sample.

    Every link draws all its samples first, in the order of one sample after
    another, and then evaluates them in one array pass.  ``1to2``: g of the
    generic cylindrical pair on the explicit composite is dominated by the
    level-2 g, g1 - g2 <= 1e-9; samples are grouped by n, which sets the K = n^2
    atoms.  ``4to5``: the flow-action expression LHS at the minimizer set stays
    below 1, LHS - 1 <= 1e-6; one ``tataru_batch`` call minimizes all samples,
    each with its own eps, and one ``_max_flow_action`` call maximizes.
    ``0to1``: bounded and unbounded pairs agree below the truncation knee,
    |g0 - g1| <= 1e-9; samples are grouped by their k anchors.  Groups are not
    padded to a common width, which would change the order of the sums, and are
    split into chunks (``_groups``).
    """
    if link not in ("1to2", "4to5", "0to1"):
        raise ValueError(f"unknown chain link {link!r}")
    if not samples:
        return ()
    rows = [None] * samples
    if link == "1to2":
        draws = [(rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5), rng.uniform(-1.0, 1.0),
                  rng.uniform(0.05, 0.7), int(rng.integers(1, 41)), int(rng.integers(1, 6)),
                  space.sample(rng, (3,))) for _ in range(samples)]
        a, b, c, eps, m, ns, points = (np.array(col) for col in zip(*draws))
        for n, idx in _groups(space, ns, lambda n: n * n):
            rho, mu, pi = np.moveaxis(points[idx], 1, 0)  # rows (N, size) each
            phi, ts = composite_phi_for_push(space, eps[idx], b[idx], c[idx], m[idx], n)
            pair1 = build_cyl_pair(space, "dagger", a[idx], phi, rho, space.flow_values(mu, ts))
            pair2 = build_chain_pair(space, 2, "dagger",
                                     {"a": a[idx], "b": b[idx], "c": c[idx], "eps": eps[idx],
                                      "m": m[idx], "n": n, "rho": rho, "mu": mu})
            for i, g1, g2 in zip(idx.tolist(), pair1.g(pi).tolist(), pair2.g(pi).tolist()):
                rows[i] = ("chain-1to2", i, g1 - g2, 1e-9)
    elif link == "4to5":
        draws = [(rng.uniform(0.05, 0.7), space.sample(rng, (2,))) for _ in range(samples)]
        epss, points = zip(*draws)
        mus, pis = np.moveaxis(np.array(points), 1, 0)
        lhs = _max_flow_action(space, epss, pis, mus, tataru_batch(space, pis, mus, eps=epss))
        rows = [("chain-4to5", i, v - 1.0, 1e-6) for i, v in enumerate(lhs.tolist())]
    else:
        draws = []
        for _ in range(samples):
            a, k = rng.uniform(0.2, 1.5), int(rng.integers(1, 3))
            draws.append((a, k, rng.uniform(0.1, 1.0, size=k), rng.uniform(0.0, 0.5),
                          space.sample(rng, (k + 2,))))  # rho, k anchors, pi
        ks = np.array([k for _, k, _, _, _ in draws])
        for k, idx in _groups(space, ks, lambda k: k + 1):
            a, _, weights, const, points = (np.array(col) for col in
                                            zip(*(draws[i] for i in idx.tolist())))
            rho, mus, pi = points[:, 0], points[:, 1:-1], points[:, -1]
            pair1 = build_cyl_pair(space, "dagger", a, Affine(weights, const), rho, mus)
            n = np.ceil(pair1.f(pi)).astype(int) + 1  # a r0 + w . r + const at pi
            # iota_n(a r0 + w . r + const), the quadratic anchor rho first
            pair0 = build_h0_pair(space, "dagger",
                                  TruncatedAffine(n, np.column_stack((a, weights)), const),
                                  points[:, :-1])
            for i, g0, g1 in zip(idx.tolist(), pair0.g(pi).tolist(), pair1.g(pi).tolist()):
                rows[i] = ("chain-0to1", i, abs(g0 - g1), 1e-9)
    return tuple(rows)
