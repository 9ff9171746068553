"""Tataru pairs with their parameters per instance, and the ham-chain suite's
level-5/6 rows from one level-5 and one level-6 pair over all ten draws.

``per_iteration_ham_chain_rows`` keeps the per-iteration loop, two pairs and
two one-instance Tataru minimizations per draw, as the oracle of those rows.
"""

import numpy as np
import pytest

from hjflow import cli
from hjflow.config import config_from_dict
from hjflow.hamiltonians import build_chain_pair, chain_inequality_report
from hjflow.reporting import Report
from hjflow.spaces import double_well_potential, euclidean_space, quantile_space

QUANTILE_64 = quantile_space(double_well_potential(-0.5), grid_size=64)


def per_iteration_ham_chain_rows(cfg) -> list:
    """Oracle: the ham-chain suite's rows, the level-5/6 rows drawn and evaluated
    one iteration at a time."""
    space = cfg.space.build()
    rng = np.random.default_rng([cfg.seed, cli.SUITE_IDS["ham-chain"]])
    rep = Report(name="ham-chain")
    for row in chain_inequality_report(space, cfg.ham_chain.link, cfg.ham_chain.samples, rng):
        rep.check(*row)
    for i in range(10):
        a, b = float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.2, 1.5))
        c = float(rng.uniform(-1.0, 1.0))
        eps = float(rng.uniform(1e-4, 0.5))
        rho, mu, pi = space.sample(rng), space.sample(rng), space.sample(rng)
        p5 = build_chain_pair(space, 5, "dagger", dict(a=a, b=b, c=c, eps=eps, rho=rho, mu=mu))
        p6 = build_chain_pair(space, 6, "dagger", dict(a=a, b=b, c=c, rho=rho, mu=mu))
        g5, g6 = p5.g(pi), p6.g(pi)
        rep.check("g5_equals_g6", i, abs(g5 - g6), 0.0)
        f_gap = abs(p5.f(pi) - p6.f(pi))
        bound = b * np.sqrt(2 * eps)
        rep.check("f5_f6_gap", i, f_gap, bound + 1e-12)
    return rep.rows


HAM_CHAIN_CONFIGS = {
    "quadratic_1d": {"space": {"potential": "quadratic", "kappa": 1.0},
                     "ham_chain": {"link": "0to1", "samples": 3}},
    "double_well_1d": {"space": {"potential": "double_well", "kappa": -1.0},
                       "ham_chain": {"link": "4to5", "samples": 3}},
    "double_well_quantile": {"space": {"kind": "quantile", "potential": "double_well",
                                       "kappa": -0.5, "size": 64},
                             "ham_chain": {"link": "4to5", "samples": 3}},
}


@pytest.mark.parametrize("name", sorted(HAM_CHAIN_CONFIGS))
@pytest.mark.parametrize("seed", [7, 19])
def test_batched_level56_rows_match_per_iteration_oracle(name, seed, tmp_path):
    cfg = config_from_dict({"seed": seed, **HAM_CHAIN_CONFIGS[name]})
    rows = cli.run_ham_chain(cfg, tmp_path).rows
    assert len(rows) == cfg.ham_chain.samples + 20
    assert rows == per_iteration_ham_chain_rows(cfg)
    assert [r.check for r in rows[-20:]] == ["g5_equals_g6", "f5_f6_gap"] * 10


def tataru_pair(space, side, a, b, c, base, anchor, eps):
    """The Tataru pair of ``build_chain_pair``: level 5 with eps, level 6 without."""
    keys = ("rho", "mu") if side == "dagger" else ("gamma", "pi")
    params = {"a": a, "b": b, "c": c, "eps": eps, keys[0]: base, keys[1]: anchor}
    return build_chain_pair(space, 6 if eps is None else 5, side, params)


def draws(space, rng, n=10):
    """Per-instance a, b, c, eps (n,) and rows rho, mu, pi (n, size)."""
    a, b = rng.uniform(0.2, 1.5, n), rng.uniform(0.2, 1.5, n)
    c, eps = rng.uniform(-1.0, 1.0, n), rng.uniform(1e-4, 0.5, n)
    rows = [np.stack([space.sample(rng) for _ in range(n)]) for _ in range(3)]
    return (a, b, c, eps, *rows)


@pytest.mark.parametrize("space", [euclidean_space(double_well_potential(-0.5), dim=2),
                                   QUANTILE_64], ids=["double_well_2d", "double_well_quantile"])
@pytest.mark.parametrize("side", ["dagger", "ddagger"])
@pytest.mark.parametrize("smoothed", [False, True])
def test_per_instance_pair_matches_one_instance_pairs(space, side, smoothed):
    a, b, c, eps, base, anchor, x = draws(space, np.random.default_rng(3))
    if not smoothed:
        eps = [None] * 10
    batch = tataru_pair(space, side, a, b, c, base, anchor, np.array(eps) if smoothed else None)
    singles = [tataru_pair(space, side, float(a[i]), float(b[i]), float(c[i]),
                           base[i], anchor[i], eps[i]) for i in range(10)]
    for fn in ("f", "g"):
        got = getattr(batch, fn)(x)
        assert got.shape == (10,)
        assert np.array_equal(got, [getattr(one, fn)(x[i]) for i, one in enumerate(singles)])
        # one row x against all ten instances
        got = getattr(batch, fn)(x[0])
        assert np.array_equal(got, [getattr(one, fn)(x[0]) for one in singles])


def test_per_instance_chain_pairs_match_one_instance_pairs(ou):
    a, b, c, eps, rho, mu, pi = draws(ou, np.random.default_rng(5))
    for level in (5, 6):
        params = dict(a=a, b=b, c=c, eps=eps, rho=rho, mu=mu)
        batch = build_chain_pair(ou, level, "dagger", params)
        for i in range(10):
            one = build_chain_pair(ou, level, "dagger", {k: v[i] for k, v in params.items()})
            assert batch.f(pi)[i] == one.f(pi[i])
            assert batch.g(pi)[i] == one.g(pi[i])


@pytest.mark.parametrize("name, value", [("a", 0.0), ("a", -0.3), ("b", 0.0), ("b", np.nan),
                                         ("a", np.nan), ("b", -1e-300)])
def test_per_instance_pair_rejects_a_non_positive_instance(ou, name, value):
    a, b, c, eps, rho, mu, _ = draws(ou, np.random.default_rng(6))
    params = dict(a=a, b=b, c=c, eps=eps, rho=rho, mu=mu)
    params[name] = params[name].copy()
    params[name][7] = value
    with pytest.raises(ValueError, match="positive"):
        tataru_pair(ou, "dagger", params["a"], params["b"], c, rho, mu, eps)
    for level in (5, 6):
        with pytest.raises(ValueError, match="positive"):
            build_chain_pair(ou, level, "ddagger", {**params, "gamma": rho, "pi": mu})
