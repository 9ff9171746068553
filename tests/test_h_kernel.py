"""Oracles for the one h kernel, ``tataru.HCurve``, and the guard that keeps it one.

h(t) = exp(kappa_hat t) D(pi, mu(t)), D = d or psi_eps(d^2/2), was written four
times in three modules: ``laplace.HCurve``, ``tataru._flow_objective`` with
``tataru._t_cap``, the psi and damping lines of ``hamiltonians._max_flow_action``
and ``evi._damped_distance_bound``.  They are kept here verbatim as oracles,
apart from their imports, the ``old_`` prefix of their names and the flows they
take from ``row_helpers.flow_values`` since the flow curve they held is gone,
and the kernel must match each of them bit for bit: its arithmetic is theirs,
element by element.
"""

from __future__ import annotations

import ast
import math
import tracemalloc
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from hjflow import hamiltonians, tataru
from hjflow.evi import _damped_distance_bound
from hjflow.spaces import (ModelSpace, double_well_potential, euclidean_space, quantile_space,
                           quartic_potential)
from hjflow.tataru import HCurve, _psi, _psi_consts, psi_eps, psi_eps_and_prime, tataru_batch

from row_helpers import flow_values

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hjflow"
SPACES = ("ou", "quartic", "double_well", "quartic_3d", "quantile_ou")


@pytest.fixture(scope="module")
def quartic_3d():
    return euclidean_space(quartic_potential(), dim=3, sample_radius=1.5)


# ---------------------------------------------------------------------------
# oracles, verbatim
# ---------------------------------------------------------------------------


def old_t_cap(space: ModelSpace, pis: np.ndarray, mus: np.ndarray, consts) -> np.ndarray:
    """T_cap of the rows pis and mus: d(pi, mu) + 1 for consts None, else
    psi_eps(d^2/2) + 1 for the psi constants ``consts`` (see ``_psi``), with
    d^2/2 taken from ``sq_dist``, never from the square root."""
    sq = space.sq_dist(pis, mus)
    if consts is None:
        return np.sqrt(sq) + 1.0
    return _psi(consts, 0.5 * sq, prime=False)[0] + 1.0


class OldHCurve:
    """Evaluator of h(t) = exp(kappa_hat t) psi_eps(d^2(pi, mu(t)) / 2).

    Bundles the flow curve of the anchor mu with the squared distances that
    the Laplace integrands need (``h``) and with the flow-action terms of the
    Hamiltonian ladder (``action_terms``).  ``pi`` holds rows (..., size) and
    ``mu`` is one row (size,); the flow of mu is evaluated once per call and
    every row of pi is measured against it, so T times give values (..., T).
    """

    def __init__(self, space: ModelSpace, eps: float, pi, mu):
        if not eps > 0:  # also rejects NaN
            raise ValueError("eps must be positive")
        self.space = space
        self.eps = eps
        self.pi = space.rows(pi)
        self.mu = space.rows(mu)
        if self.mu.ndim != 1:
            raise ValueError("mu must be one row")

    def _half_dist2(self, vals: np.ndarray) -> np.ndarray:
        return 0.5 * self.space.sq_dist(vals, self.pi[..., None, :])

    def damping(self, ts) -> np.ndarray:
        return np.exp(self.space.kappa_hat * np.asarray(ts, dtype=float))

    def h(self, ts) -> np.ndarray:
        return self.damping(ts) * psi_eps(self.eps, self._half_dist2(flow_values(self.space, self.mu, ts)))

    def action_terms(self, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(h, damping, psi_eps', flow energies) at the times ts, from one flow evaluation."""
        vals = flow_values(self.space, self.mu, ts)
        psi, psi_p = psi_eps_and_prime(self.eps, self._half_dist2(vals))
        damping = self.damping(ts)
        return damping * psi, damping, psi_p, self.space.energies(vals)

    def t_cap(self) -> np.ndarray:
        """d_eps(pi, mu) + 1, the search cap of the smoothed Tataru distance."""
        return old_t_cap(self.space, self.pi, self.mu, _psi_consts(self.eps))


def old_flow_objective(space: ModelSpace, pis: np.ndarray, mus: np.ndarray,
                       kappa_hats: Sequence[float], consts: np.ndarray | None):
    """objective(rows, ts): t + exp(kappa_hat t) d(pi, mu(t)), or psi_eps(d^2/2)
    with the psi constants consts[i] (N, 3) of ``_psi_consts`` for instance i
    unless consts is None, for the instances ``rows`` at the times ts of shape
    (len(rows), T); pis and mus are coordinate rows (N, size)."""
    k_hat = np.array(kappa_hats, dtype=float)

    def objective(rows, ts):
        dist2 = space.sq_dist(space.flow_values(mus.take(rows, 0), ts),
                              pis.take(rows, 0)[:, None, :])
        if consts is None:
            inner = np.sqrt(dist2)
        else:
            inner = _psi(consts.take(rows, 0).T[:, :, None], 0.5 * dist2, prime=False)[0]
        return ts + np.exp(k_hat.take(rows)[:, None] * ts) * inner

    return objective


def old_max_flow_action(space: ModelSpace, eps, pis: np.ndarray, mus: np.ndarray,
                        results: list) -> np.ndarray:
    """Max over the minimizer set of each Tataru result of the flow action
    exp(kappa_hat t) [(E(mu(t)) - E(pi)) psi_eps'(d^2/2) - kappa_hat/2 psi_eps(d^2/2)]
    with d = d(pi, mu(t)), for rows pis, mus (N, size) and eps one value or one per
    row.  Minimizer sets are padded to the widest with their own entries: no max moves."""
    width = max(r.minimizers.size for r in results)
    ts = np.array([np.resize(r.minimizers, width) for r in results])
    vals = space.flow_values(mus, ts)
    consts = np.stack(_psi_consts(np.broadcast_to(eps, len(results))))
    psi, psi_p = _psi(consts[..., None], 0.5 * space.sq_dist(vals, pis[:, None, :]))
    damping = np.exp(space.kappa_hat * ts)
    # damping * psi_eps = h along the flow, so -kappa_hat/2 h is the
    # damped-distance correction of the flow action
    action = (damping * (space.energies(vals) - space.energies(pis)[:, None]) * psi_p
              - 0.5 * space.kappa_hat * (damping * psi))
    return action.max(axis=1)


def old_damped_distance_bound(space, pi, ts, cmu, growth_rhs, eps_list) -> float:
    """max over ts and eps of exp(kappa_hat t) d_eps(pi, mu(t)) - sqrt(2 RHS) - sqrt(2 eps),
    from the flow cmu of mu at ts, with RHS = max(growth_rhs, 0); eps None means the
    plain metric."""
    dist2 = space.sq_dist(cmu, pi)
    rhs = np.sqrt(2.0 * np.maximum(growth_rhs, 0.0))
    damping = np.exp(space.kappa_hat * ts)
    worst = -math.inf
    for eps in eps_list:
        if eps is None:
            deps_vals = np.sqrt(dist2)
            gap = 0.0
        else:
            deps_vals = psi_eps(eps, 0.5 * dist2)
            gap = math.sqrt(2.0 * eps)
        worst = max(worst, float(np.max(damping * deps_vals - rhs - gap)))
    return worst


# ---------------------------------------------------------------------------
# the kernel against the oracles
# ---------------------------------------------------------------------------


def _rows(space, rng, shape) -> np.ndarray:
    return np.reshape([space.sample(rng) for _ in range(math.prod(shape))],
                      (*shape, space.size))


def _eps(mode: str, rng, n: int):
    return {"none": None, "one": 0.2, "each": rng.uniform(0.05, 0.7, size=n)}[mode]


def _times(rng, shape) -> np.ndarray:
    # short times as well, where pi near mu puts psi_eps on its quadratic branch
    return np.sort(np.concatenate((rng.uniform(0.0, 0.05, shape), rng.uniform(0.0, 4.0, shape)),
                                  axis=-1), axis=-1)


@pytest.mark.parametrize("shape", [(), (5,), (2, 3)], ids=["rank1", "rank2", "rank3"])
@pytest.mark.parametrize("space_name", SPACES)
def test_kernel_matches_old_laplace_hcurve(request, space_name, shape):
    """One eps, the space's kappa_hat, times (T,) and pi rows of rank 1 to 3."""
    space = request.getfixturevalue(space_name)
    rng = np.random.default_rng(31)
    for eps in (0.05, 0.3, 2.0):
        pi, mu = _rows(space, rng, shape), space.sample(rng)
        ts = _times(rng, 40)
        old, curve = OldHCurve(space, eps, pi, mu), HCurve(space, pi, mu, eps)
        assert np.array_equal(curve.h(ts), old.h(ts))
        h, damping, d_prime, vals = curve.terms(ts)
        for got, want in zip((h, damping, d_prime, space.energies(vals)), old.action_terms(ts)):
            assert np.array_equal(got, want)
        assert h.shape == (*shape, ts.size)
        assert np.array_equal(curve.t_cap(), old.t_cap())


@pytest.mark.parametrize("eps_mode", ["none", "one", "each"])
@pytest.mark.parametrize("space_name", SPACES)
def test_kernel_matches_old_flow_objective_and_t_cap(request, space_name, eps_mode):
    """Instances with their own kappa override, times (R, T) on picked rows."""
    space = request.getfixturevalue(space_name)
    rng = np.random.default_rng(32)
    n = 9
    pis, mus = _rows(space, rng, (n,)), _rows(space, rng, (n,))
    pis[1::3] = space.flow_values(mus[1::3], np.full((3, 1), 0.02))[:, 0]  # near the flow
    kappas = [None if i % 3 else float(rng.uniform(-1.0, 0.5)) for i in range(n)]
    kappa_hats = [min(space.kappa if k is None else k, 0.0) for k in kappas]
    eps = _eps(eps_mode, rng, n)
    consts = None if eps is None else np.stack(_psi_consts(np.broadcast_to(eps, n)), axis=-1)
    curve = HCurve(space, pis, mus, None if eps is None else np.broadcast_to(eps, n),
                   kappa_hats)
    old = old_flow_objective(space, pis, mus, kappa_hats, consts)
    rows = np.array([4, 0, 8, 4, 2])
    ts = _times(rng, (rows.size, 33))
    assert np.array_equal(ts + curve.h(ts, rows), old(rows, ts))
    ts = _times(rng, (n, 33))
    assert np.array_equal(ts + curve.h(ts), old(np.arange(n), ts))
    assert np.array_equal(curve.t_cap(), old_t_cap(space, pis, mus, None if consts is None
                                                   else consts.T))


@pytest.mark.parametrize("eps_mode", ["one", "each"])
@pytest.mark.parametrize("space_name", SPACES)
def test_kernel_matches_old_flow_action_lines(request, space_name, eps_mode):
    """The flow action of ladder level 4 and the 4to5 link, minimizer sets (R, T)."""
    space = request.getfixturevalue(space_name)
    rng = np.random.default_rng(33)
    n = 8
    pis, mus = _rows(space, rng, (n,)), _rows(space, rng, (n,))
    eps = _eps(eps_mode, rng, n)
    results = tataru_batch(space, pis, mus, eps=eps)
    assert np.array_equal(hamiltonians._max_flow_action(space, eps, pis, mus, results),
                          old_max_flow_action(space, eps, pis, mus, results))


@pytest.mark.parametrize("space_name", SPACES)
def test_kernel_matches_old_damped_distance_bound(request, space_name):
    space = request.getfixturevalue(space_name)
    rng = np.random.default_rng(34)
    ts = np.linspace(0.0, 8.0, 9)[1:]
    for _ in range(10):
        pi, mu = space.sample(rng), space.sample(rng)
        growth = rng.uniform(-0.5, 3.0, ts.size)
        for eps_list in ((None, 0.1, 1.0), (0.02,)):
            want = old_damped_distance_bound(space, pi, ts, flow_values(space, mu, ts),
                                             growth, eps_list)
            assert _damped_distance_bound(space, pi, mu, ts, growth, eps_list) == want


def test_kernel_rejects_bad_eps(ou):
    pi, mu = np.zeros((2, 1)), np.ones((2, 1))
    for eps in (0.0, -1.0, np.nan, [0.1, np.nan]):
        with pytest.raises(ValueError, match="positive"):
            HCurve(ou, pi, mu, eps)


# ---------------------------------------------------------------------------
# the guard: one kernel
# ---------------------------------------------------------------------------


def _names(tree: ast.AST) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_h_has_one_kernel():
    """Only ``tataru.py`` touches the psi constants, and ``HCurve`` is defined once."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    touching = sorted(name for name, tree in trees.items()
                      if name != "tataru.py" and _names(tree) & {"_psi", "_psi_consts"})
    assert touching == []
    homes = [name for name, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) and node.name == "HCurve"]
    assert homes == ["tataru.py"]


def _peak(call) -> int:
    """Peak bytes that ``call`` holds, by tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_h_takes_distances_in_the_flow_buffer_with_the_same_bits(monkeypatch):
    """On a 64-point quantile double well, h and tataru_batch give the bits of the
    two-array form sq_dist(flow, pi), and a zoom-sized h call holds no more than
    its flow does: the second flow-sized array is gone.  (On glibc, a temporary of
    128 kB or more can be a fresh mapping whose pages fault in on every call.)"""
    space = quantile_space(double_well_potential(-0.5), grid_size=64)
    rng = np.random.default_rng(35)
    pis, mus = _rows(space, rng, (15,)), _rows(space, rng, (15,))
    eps = rng.uniform(0.05, 0.7, size=15)
    ts = np.sort(rng.uniform(0.0, 3.0, (15, tataru.ZOOM_POINTS)), axis=-1)
    rows = np.array([3, 0, 14, 3])

    def run():
        curve = HCurve(space, pis, mus, eps, np.full(15, space.kappa_hat))  # per instance
        one = HCurve(space, pis[:4], mus[0], 0.2)  # pi adds instances: no flow buffer
        return (curve.h(ts), curve.h(ts[rows], rows), one.h(ts[0]),
                tataru_batch(space, pis, mus, eps=eps), tataru_batch(space, pis, mus))

    in_place = run()
    curve, flow_bytes = HCurve(space, pis, mus, eps), ts.size * space.size * 8
    h_peak, flow_peak = (_peak(f) for f in (lambda: curve.h(ts),
                                             lambda: space.flow_values(mus, ts)))
    assert flow_bytes <= flow_peak <= h_peak < flow_peak + flow_bytes / 4
    real = ModelSpace.sq_dist
    with monkeypatch.context() as patch:
        patch.setattr(ModelSpace, "sq_dist",
                      lambda self, a, b, overwrite_a=False: real(self, a, b))
        two_arrays = run()
    for got, want in zip(in_place[:3], two_arrays[:3]):
        assert got.tobytes() == want.tobytes()
    for got, want in zip(in_place[3:], two_arrays[3:]):
        for a, b in zip(got, want):
            assert (a.value, a.t_cap) == (b.value, b.t_cap)
            assert a.minimizers.tobytes() == b.minimizers.tobytes()
