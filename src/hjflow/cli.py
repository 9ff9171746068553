"""Command-line drivers: configuration, suite orchestration, report emission.

Subcommands: evi-check, tataru, laplace-converge, ham-chain, resolvent,
comparison, all.  Every suite consumes the shared JSON config (or defaults),
derives its randomness from the seed, writes deterministic CSV/JSON artifacts
into the output directory.  Exit codes: 0 when every check passed, 1 when a
check failed, 2 on a config error, 3 on an internal error (one stderr line).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
from numpy.random import default_rng  # numpy 2 loads it on first use: here, not in a verdict

from . import __version__
from .config import ConfigError, ExperimentConfig, _finite, default_config, load_config, validate
from .cylinders import Affine
from .evi import run_evi_suite
from .hamiltonians import build_chain_pair, build_cyl_pair, chain_inequality_report, side_sign
from .laplace import lambda_continuous, lambda_discrete, tilted_measure, varadhan_error_curve
from .reporting import Report, fmt17, write_csv, write_json, write_table
from .tataru import GRID_POINTS, HCurve, psi_eps, tataru_batch
from .viscosity import check_viscosity, comparison_gap, solve_resolvent

SUITE_IDS = {
    "evi-check": 1,
    "tataru": 2,
    "laplace-converge": 3,
    "ham-chain": 4,
    "resolvent": 5,
    "comparison": 6,
}


def _rng(cfg: ExperimentConfig, suite: str) -> np.random.Generator:
    return default_rng([cfg.seed, SUITE_IDS[suite]])


def _report(name: str, cfg: ExperimentConfig) -> Report:
    return Report(name=name, config_echo=cfg.to_dict(), version=__version__)


# ---------------------------------------------------------------------------
# suite drivers
# ---------------------------------------------------------------------------


def run_evi(cfg: ExperimentConfig, out_dir: Path) -> Report:
    space = cfg.space.build()
    rng = _rng(cfg, "evi-check")
    rep = _report("evi-check", cfg)
    suite = run_evi_suite(space, rng, instances=cfg.evi.instances, delta=cfg.evi.delta)
    for row in suite.rows:
        rep.check(*row)
    if suite.worst_case is not None:
        # replays the worst evi_residual row: evi_residual(space, x, rho, t, delta)
        x, t, rho = suite.worst_case
        rep.diagnostics["worst_evi_residual"] = {
            "residual": suite.max_residual, "x": x.tolist(), "t": t, "rho": rho.tolist()}
    return rep


def _config_point(space, values, path: str) -> np.ndarray:
    """The config list ``values`` of finite numbers as one coordinate row of ``space``."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(path, f"must be a list of numbers (space.size is {space.size})")
    for value in values:
        _finite(value, path)
    try:
        return space.rows(values)
    except ValueError as exc:
        raise ConfigError(path, f"{exc} (space.size is {space.size})") from exc


def _config_pair(space, section: str, pi, mu) -> tuple[np.ndarray, np.ndarray]:
    """``section.pi`` and ``section.mu`` as rows of ``space``, at a finite D(pi, mu)."""
    pi, mu = _config_point(space, pi, f"{section}.pi"), _config_point(space, mu, f"{section}.mu")
    with np.errstate(over="ignore"):  # an overflowing d^2 is the config error below
        d0 = HCurve(space, pi, mu).d0()
    if not np.isfinite(d0):
        raise ConfigError(f"{section}.pi", "D(pi, mu) must be finite")
    return pi, mu


def run_tataru(cfg: ExperimentConfig, out_dir: Path) -> Report:
    space = cfg.space.build()
    rng = _rng(cfg, "tataru")
    rep = _report("tataru", cfg)
    tol = 1e-6

    pi, mu = _config_pair(space, "tataru", cfg.tataru.pi, cfg.tataru.mu)
    # Draw every sample first, property by property, and note which (pi, mu,
    # kappa) triples each row needs; then minimize all triples, the config pair
    # first, in one batch.
    triples = [(pi, mu, None)]

    def ask(pi, mu, kappa=None) -> int:
        triples.append((pi, mu, kappa))
        return len(triples) - 1

    # one array draw per property but the last, and one flow call for the moved points
    n = cfg.tataru.instances
    points = space.sample(rng, (n, 4))  # mu1, nu1, mu2, nu2 of each instance
    bounds = np.sqrt(space.sq_dist(points[:, 0], points[:, 2])) + np.sqrt(
        space.sq_dist(points[:, 1], points[:, 3]))
    lipschitz = [(ask(mu1, nu1), ask(mu2, nu2), bound)
                 for (mu1, nu1, mu2, nu2), bound in zip(points, bounds.tolist())]
    steps = (1e-3, 1e-2, 1e-1)
    points = space.sample(rng, (n, 2))  # nu, nu_hat
    moved = space.flow_values(points[:, 0], np.array(steps))
    flow_lipschitz = [(ask(nu, nu_hat), [(r, ask(row, nu_hat)) for r, row in zip(steps, rows)])
                      for (nu, nu_hat), rows in zip(points, moved)]
    triangle = [(ask(rho, nu), ask(rho, mid), ask(mid, nu))
                for rho, mid, nu in space.sample(rng, (n, 3))]
    monotone = []
    for _ in range(n):
        x, y = space.sample(rng), space.sample(rng)
        k2 = float(rng.uniform(-1.0, 1.0))
        k1 = k2 - float(rng.uniform(0.0, 1.0))
        monotone.append((ask(x, y, k1), ask(x, y, k2)))
    results = tataru_batch(space, *zip(*triples))
    res, value = results[0], [r.value for r in results]
    print(f"tataru value: {res.value:.12g}  minimizers: "
          + ", ".join(f"{t:.12g}" for t in res.minimizers))
    if cfg.tataru.dump_objective:
        ts = np.linspace(0.0, res.t_cap, GRID_POINTS)
        obj = ts + HCurve(space, pi, mu).h(ts)
        write_table(out_dir / "tataru_objective.csv", ("t", "objective"),
                    ((fmt17(t), fmt17(o)) for t, o in zip(ts, obj)))

    for i, (one, two, bound) in enumerate(lipschitz):
        rep.check("lipschitz", i, value[one] - value[two], bound + tol)
    for i, (base, moved) in enumerate(flow_lipschitz):
        worst = -np.inf
        for r, k in moved:
            worst = max(worst, (value[k] - value[base]) / r)
        rep.check("flow_lipschitz", i, worst, 1.0 + tol)
    for i, (direct, first, second) in enumerate(triangle):
        rep.check("triangle", i, value[direct], value[first] + value[second] + tol)
    for i, (low, high) in enumerate(monotone):
        rep.check("kappa_monotone", i, value[low], value[high] + 1e-9)
    return rep


def run_laplace(cfg: ExperimentConfig, out_dir: Path) -> Report:
    space = cfg.space.build()
    rep = _report("laplace-converge", cfg)
    lc = cfg.laplace
    pi, mu = _config_pair(space, "laplace", lc.pi, lc.mu)

    # constant-exponent instance: exact at every m when the damping is trivial
    if space.kappa_hat == 0.0:
        crit = np.zeros(space.size)
        target = psi_eps(lc.epsilon, 0.0)
        for m in (1, 10, 100, 1000):
            val = lambda_continuous(space, lc.epsilon, m, crit, crit)
            rep.check("constant_exact", m, abs(val.neg_log - target), 1e-10)

    target, curve_rows = varadhan_error_curve(space, lc.epsilon, pi, mu, lc.m_list)
    write_table(out_dir / "laplace_converge_curve.csv",
                ("m", "n", "neg_log", "target", "abs_error"),
                ((m, "inf", fmt17(neg_log), fmt17(target), fmt17(err))
                 for m, neg_log, err in curve_rows))
    final_err = curve_rows[-1][2]
    rep.check("varadhan_final_error", curve_rows[-1][0], final_err, 0.05)
    rep.check("varadhan_monotone", f"{curve_rows[0][0]}->{curve_rows[-1][0]}",
              final_err, curve_rows[0][2])

    ref = lambda_continuous(space, lc.epsilon, lc.refine_m, pi, mu)
    prev = np.inf
    for n in lc.refine_n:
        dv = lambda_discrete(space, lc.epsilon, lc.refine_m, int(n), pi, mu)
        gap = abs(dv.log_value - ref.log_value)
        rep.check("riemann_refinement", n, gap, prev)
        prev = gap

    tm = tilted_measure(space, lc.concentration_epsilon, lc.concentration_m, pi, mu)
    res = tataru_batch(space, [pi], [mu], eps=lc.concentration_epsilon)[0]
    mass = max(tm.mass_within(float(t), 0.1) for t in res.minimizers)
    rep.check("tilt_concentration", lc.concentration_m, -mass, -0.95)  # mass >= 0.95

    # mean exponent under the tilted measure approaches its value at the minimizer
    hcurve = HCurve(space, pi, mu, lc.concentration_epsilon)
    mean_h = tm.expectation(hcurve.h(tm.atoms))
    h_star = float(hcurve.h(res.minimizers[:1])[0])
    rep.check("tilt_mean_weight", lc.concentration_m, abs(mean_h - h_star), 0.05)
    return rep


def run_ham_chain(cfg: ExperimentConfig, out_dir: Path) -> Report:
    space = cfg.space.build()
    rng = _rng(cfg, "ham-chain")
    rep = _report("ham-chain", cfg)
    for row in chain_inequality_report(space, cfg.ham_chain.link, cfg.ham_chain.samples, rng):
        rep.check(*row)

    # shared closed form at levels 5/6: identical g, f gap bounded by sqrt(2 eps);
    # ten draws first, then one level-5 and one level-6 pair over all of them
    draws = [(rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5), rng.uniform(-1.0, 1.0),
              rng.uniform(1e-4, 0.5), space.sample(rng), space.sample(rng), space.sample(rng))
             for _ in range(10)]
    a, b, c, eps, rho, mu, pi = (np.array(col) for col in zip(*draws))
    p5 = build_chain_pair(space, 5, "dagger", dict(a=a, b=b, c=c, eps=eps, rho=rho, mu=mu))
    p6 = build_chain_pair(space, 6, "dagger", dict(a=a, b=b, c=c, rho=rho, mu=mu))
    gaps, bounds = abs(p5.f(pi) - p6.f(pi)), b * np.sqrt(2 * eps)
    for i, (g5, g6, gap, bound) in enumerate(zip(p5.g(pi), p6.g(pi), gaps, bounds)):
        rep.check("g5_equals_g6", i, abs(g5 - g6), 0.0)
        rep.check("f5_f6_gap", i, gap, bound + 1e-12)
    return rep


def _h_family(name: str, param: float, box: float):
    if name == "constant":
        return lambda x: np.full_like(np.asarray(x, dtype=float), param)
    if name == "linear_clip":
        return lambda x: np.clip(param * np.asarray(x, dtype=float), -box, box)
    if name == "fourier":
        return lambda x: param * np.cos(0.9 * np.asarray(x, dtype=float) + 0.4)
    raise ConfigError("resolvent.h", f"unknown h family {name!r}")


def _random_bounded_h(rng: np.random.Generator):
    terms = [(float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.3, 1.5)),
              float(rng.uniform(0.0, 2 * np.pi))) for _ in range(3)]

    def h(x):
        x = np.asarray(x, dtype=float)
        return sum(a * np.cos(w * x + p) for a, w, p in terms)

    return h


def run_resolvent(cfg: ExperimentConfig, out_dir: Path) -> Report:
    space = cfg.space.build()
    if space.kind != "euclidean" or space.size != 1:
        raise ConfigError("space.size" if space.kind == "euclidean" else "space.kind",
                          "resolvent suite requires the euclidean 1-d space")
    rep = _report("resolvent", cfg)
    rc = cfg.resolvent
    lam = rc.lam
    h = _h_family(rc.h, rc.h_param, space.box)

    def solve(reward):
        return solve_resolvent(space, lam, reward, control_bound=rc.control_bound,
                               dt=lam / rc.dt_factor, dx=rc.dx,
                               n_controls=rc.n_controls, tol=rc.tol)

    sol = solve(h)
    write_table(out_dir / "resolvent_solution.csv", ("x", "u"),
                ((fmt17(x), fmt17(u)) for x, u in zip(sol.u.xs, sol.u.values)))
    rep.check("fixed_point", 0, sol.error_bound, rc.tol)
    rep.diagnostics["main_solve"] = {"iterations": sol.iterations, "error_bound": sol.error_bound,
                                     "bellman_residual": sol.bellman_residual}

    const = solve(_h_family("constant", 0.7, space.box))
    rep.check("constant_h", 0, np.max(np.abs(const.u.values - 0.7)), 1e-8)

    shifted = solve(lambda x: h(x) - 0.3)
    rep.check("shift_equivariance", 0, np.max(np.abs(shifted.u.values - (sol.u.values - 0.3))),
              1e-8)

    # linear-reward oracle for the quadratic potential: u(x) = x/2 + 1/8.
    # Solved at dt = lam/200: the scheme bias is first order in dt and the
    # default lam/50 step sits right at the 1e-2 relative threshold.
    if space.potential.form == "quadratic" and space.potential.kappa == 1.0 and lam == 1.0:
        lq = solve_resolvent(space, lam, _h_family("linear_clip", 1.0, space.box),
                             dt=lam / 200.0, dx=rc.dx, tol=rc.tol)
        mask = np.abs(lq.u.xs) <= 2.0
        exact = lq.u.xs[mask] / 2.0 + 0.125
        rel = float(np.max(np.abs(lq.u.values[mask] - exact)) / np.max(np.abs(exact)))
        rep.check("lq_oracle", 0, rel, 1e-2)

    # viscosity verdicts for the solved value function: sigma * slack against
    # twice the discretization tolerance 5 dx
    rng = _rng(cfg, "resolvent")
    for i in range(10):
        a = float(rng.uniform(0.1, 0.6))
        k = int(rng.integers(1, 3))
        w = rng.uniform(0.05, 0.5, size=k)
        c = float(rng.uniform(0.0, 0.5))
        base = [rng.uniform(-1.5, 1.5)]
        anchors = [[rng.uniform(-1.5, 1.5)] for _ in range(k)]
        for side, name in (("dagger", "subsolution"), ("ddagger", "supersolution")):
            pair = build_cyl_pair(space, side, a, Affine(w, c), base, anchors)
            slack = check_viscosity(sol.u, pair, h, lam).slack
            rep.check(name, i, side_sign(side) * slack, 10 * rc.dx)
    return rep


def run_comparison(cfg: ExperimentConfig, out_dir: Path) -> Report:
    space = cfg.space.build()
    if space.kind != "euclidean" or space.size != 1:
        raise ConfigError("space.size" if space.kind == "euclidean" else "space.kind",
                          "comparison suite requires the euclidean 1-d space")
    rng = _rng(cfg, "comparison")
    rep = _report("comparison", cfg)
    lam = cfg.comparison.lam
    dx = cfg.comparison.dx
    for i in range(cfg.comparison.pairs):
        h_dag = _random_bounded_h(rng)
        gap_amp = float(rng.uniform(0.05, 0.4))
        gap_freq = float(rng.uniform(0.5, 1.5))
        gap_phase = float(rng.uniform(0.0, 2 * np.pi))

        def h_ddag(x, h_dag=h_dag, a=gap_amp, w=gap_freq, p=gap_phase):
            x = np.asarray(x, dtype=float)
            return h_dag(x) - a * np.square(np.sin(w * x + p))

        su = solve_resolvent(space, lam, h_dag, dx=dx)
        sv = solve_resolvent(space, lam, h_ddag, dx=dx)
        res = comparison_gap(su.u, sv.u, h_dag, h_ddag, su.fixed_point_tol, dx)
        rep.check("comparison_gap", i, res.lhs, res.rhs + res.slack)

    # constant shift attains the bound up to solver slack
    h_dag = _random_bounded_h(rng)
    h_ddag = lambda x: h_dag(x) - 0.3
    su = solve_resolvent(space, lam, h_dag, dx=dx)
    sv = solve_resolvent(space, lam, h_ddag, dx=dx)
    res = comparison_gap(su.u, sv.u, h_dag, h_ddag, su.fixed_point_tol, dx)
    rep.check("comparison_shift_tight", 0, abs(res.lhs - res.rhs), res.slack)
    return rep


SUITES = {
    "evi-check": run_evi,
    "tataru": run_tataru,
    "laplace-converge": run_laplace,
    "ham-chain": run_ham_chain,
    "resolvent": run_resolvent,
    "comparison": run_comparison,
}


def run_experiment(name: str, cfg: ExperimentConfig, out_dir: Path,
                   fmt: str = "csv") -> Report:
    """Dispatch one suite, write its artifacts, return the in-memory report."""
    if name not in SUITES:
        raise ConfigError("command", f"unknown check name {name!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    report = SUITES[name](cfg, out_dir)
    stem = name.replace("-", "_")
    write_csv(report, out_dir / f"{stem}.csv")
    # the solver suites always get the JSON mirror with the config echo
    if fmt == "json" or name in ("resolvent", "comparison"):
        write_json(report, out_dir / f"{stem}.json")
    print(report.summary_line())
    return report


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are config errors: the path is the argument
    that argparse names, else ``command line``."""

    def error(self, message):
        path, sep, reason = message.partition(": ")
        if path.startswith("argument ") and sep:
            raise ConfigError(path.removeprefix("argument "), reason)
        raise ConfigError("command line", message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="hjflow",
        description="Numerical checks for gradient-flow Hamiltonians and viscosity solutions",
    )
    parser.add_argument("--version", action="version", version=f"hjflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="JSON config path")
    common.add_argument("--seed", type=int, default=None, help="override config seed")
    common.add_argument("--out", type=str, default=None, help="output directory")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    for name in (*SUITES, "all"):
        sub.add_parser(name, parents=[common])

    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config) if args.config else default_config()
        if args.seed is not None:
            cfg = ExperimentConfig(**{**cfg.__dict__, "seed": args.seed})
        validate(cfg)
        field, out_dir = ("--out", Path(args.out)) if args.out else ("out", Path(cfg.out))
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(field, f"cannot create the output directory: {exc}") from exc
        names = list(SUITES) if args.command == "all" else [args.command]
        ok = True
        for name in names:
            report = run_experiment(name, cfg, out_dir, fmt=args.format)
            ok = ok and report.passed
        return 0 if ok else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
