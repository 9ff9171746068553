"""Span recorder that wraps hjflow's layer functions from outside the package.

``install(tracer)`` replaces every module-level binding of each traced
function (the defining module and every module that imported it by name) and
the traced methods on their classes.  Each call records one span: name, start,
end and the index of its parent span.  Counters are added where the work is
done (ODE right-hand-side evaluations, value-iteration sweeps, quadrature
panels, objective evaluations, bytes written).  ``metrics()`` derives the
per-layer numbers: calls, inclusive time, self time and the counters.

Wrappers hand back the wrapped function's result unchanged (pairs are copied
with wrapped ``f``/``g``), so a traced run writes the same CSVs as an
untraced one.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from array import array
from pathlib import Path

SUITES = ("evi-check", "tataru", "laplace-converge", "ham-chain", "resolvent", "comparison")

# Span names grouped by what is reported for them.  With COUNTERS they give
# every per-layer metric of BENCHMARK.json except trace.*, which run.py adds.
CALLS_AND_TIME = (
    "spaces.flow_values", "spaces.ode_solve", "spaces.point", "spaces.kernels",
    "spaces.flow_trajectory", "tataru.distance", "tataru.minimize", "laplace.integral",
    "laplace.quadrature", "cylinders.vag", "hamiltonians.pair_f", "hamiltonians.pair_g",
    "viscosity.solve", "viscosity.check", "reporting.write",
)
SELF_TIME = (
    "evi.suite", "tataru.minimize", "hamiltonians.chain_report", "viscosity.check",
    *(f"cli.suite.{s}" for s in SUITES),
)
COUNTERS = (
    "spaces.ode_solve.nfev", "tataru.grid_evals", "tataru.scalar_evals",
    "laplace.quadrature.panels", "viscosity.solve.iterations",
    "viscosity.solve.cell_updates", "reporting.write.bytes",
)
TIME_ONLY = ("evi.suite", "hamiltonians.chain_report", "config.load",
             *(f"cli.suite.{s}" for s in SUITES))

# Counts the report lists as deterministic; run.py checks that every count
# repeats exactly between traced runs of one seed.
DETERMINISTIC = (
    "spaces.ode_solve.nfev", "viscosity.solve.iterations", "tataru.scalar_evals",
    "laplace.quadrature.panels", "spaces.point.calls",
)


def metric_units() -> dict:
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {}
    for name in CALLS_AND_TIME:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for name in TIME_ONLY:
        units[f"{name}.s"] = "s"
    for name in SELF_TIME:
        units[f"{name}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "bytes" if name.endswith(".bytes") else "count"
    return units


class Tracer:
    """In-memory spans plus named counters for one process."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")  # 1 when no span of the same name is open
        self._stack = [-1]
        self._open: list[int] = []
        self.counters: dict[str, int] = {name: 0 for name in COUNTERS}
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def count(self, name: str, n: int) -> None:
        self.counters[name] += int(n)

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` recording a span per call.

        Hooks see the call's arguments by parameter name.  ``before(arguments)``
        may substitute some of them (used to count objective calls);
        ``after(result, arguments)``, with defaults filled in, returns the
        result to hand back and may record counters.
        """
        nid = self._name_id(name)
        start, end, names, parents, outer = self.start, self.end, self.name, self.parent, self.outer
        stack, is_open = self._stack, self._open
        clock = time.perf_counter
        sig = inspect.signature(fn) if before or after else None

        def traced(*args, **kwargs):
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                if before is not None:
                    before(bound.arguments)
                    args, kwargs = bound.args, bound.kwargs
            idx = len(start)
            names.append(nid)
            parents.append(stack[-1])
            outer.append(is_open[nid] == 0)
            start.append(0.0)
            end.append(0.0)
            is_open[nid] += 1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                is_open[nid] -= 1
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                bound.apply_defaults()
                result = after(result, bound.arguments)
            return result

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict:
        """Per-name calls, inclusive seconds (outermost spans) and self seconds."""
        import numpy as np

        n = len(self.names)
        names = np.frombuffer(self.name, dtype=np.intc)
        parents = np.frombuffer(self.parent, dtype=np.intc)
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        calls = np.bincount(names, minlength=n)
        incl = np.bincount(names, weights=np.where(outer, dur, 0.0), minlength=n)
        self_s = np.bincount(names, weights=dur - child, minlength=n)

        def get(values, name, empty):
            nid = self._ids.get(name)
            return empty if nid is None else values[nid].item()

        out = {}
        for name in CALLS_AND_TIME:
            out[f"{name}.calls"] = get(calls, name, 0)
            out[f"{name}.s"] = get(incl, name, 0.0)
        for name in TIME_ONLY:
            out[f"{name}.s"] = get(incl, name, 0.0)
        for name in SELF_TIME:
            out[f"{name}.self_s"] = get(self_s, name, 0.0)
        out.update(self.counters)
        return out


def _replace_bindings(target, wrapper) -> int:
    """Point every ``hjflow`` module attribute bound to ``target`` at ``wrapper``."""
    replaced = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hjflow" or mod_name.startswith("hjflow.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is target:
                setattr(mod, attr, wrapper)
                replaced += 1
    return replaced


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of an imported ``hjflow``; call before the run."""
    import hjflow.cli  # noqa: F401  (binds every module that is traced)
    from hjflow import config, cylinders, evi, hamiltonians, laplace, reporting, spaces, viscosity

    # the package re-exports the function ``tataru`` under the module's name
    tataru_mod = sys.modules["hjflow.tataru"]

    # A hook whose target a refactor removed is skipped and listed in
    # ``tracer.missing``; its layer then reads 0 instead of the run failing.
    def module_fn(module, attr: str, name: str, before=None, after=None) -> None:
        target = getattr(module, attr, None)
        if target is None:
            tracer.missing.append(f"{module.__name__}.{attr}")
            return
        _replace_bindings(target, tracer.wrap(name, target, before, after))

    def method(module, cls_name: str, attr: str, name: str) -> None:
        cls = getattr(module, cls_name, None)
        if cls is None or attr not in cls.__dict__:
            tracer.missing.append(f"{module.__name__}.{cls_name}.{attr}")
            return
        setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr]))

    # spaces
    method(spaces, "FlowCurve", "values_at", "spaces.flow_values")
    method(spaces, "ModelSpace", "point", "spaces.point")
    for attr in ("distance", "energy", "slope", "information"):
        method(spaces, "ModelSpace", attr, "spaces.kernels")
    method(spaces, "ModelSpace", "flow_trajectory", "spaces.flow_trajectory")

    def count_nfev(result, arguments):
        tracer.count("spaces.ode_solve.nfev", result.nfev)
        return result

    module_fn(spaces, "solve_ivp", "spaces.ode_solve", after=count_nfev)

    # evi
    module_fn(evi, "run_evi_suite", "evi.suite")

    # tataru
    module_fn(tataru_mod, "tataru", "tataru.distance")
    module_fn(tataru_mod, "tataru_eps", "tataru.distance")
    def count_objectives(arguments):
        batch = arguments["objective_batch"]
        one = arguments["objective_one"]

        def counted_batch(ts):
            tracer.count("tataru.grid_evals", len(ts))
            return batch(ts)

        def counted_one(t):
            tracer.count("tataru.scalar_evals", 1)
            return one(t)

        arguments["objective_batch"] = counted_batch
        arguments["objective_one"] = counted_one

    module_fn(tataru_mod, "_minimize_over_time", "tataru.minimize", before=count_objectives)

    # laplace
    module_fn(laplace, "lambda_continuous", "laplace.integral")
    module_fn(laplace, "lambda_discrete", "laplace.integral")

    def count_panels(result, arguments):
        tracer.count("laplace.quadrature.panels", result[3])
        return result

    module_fn(laplace, "_adaptive_log_quadrature", "laplace.quadrature", after=count_panels)

    # cylinders: every combinator's own vag
    pending = [cylinders.CylNode]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls is not cylinders.CylNode and "vag" in cls.__dict__:
            setattr(cls, "vag", tracer.wrap("cylinders.vag", cls.__dict__["vag"]))

    # hamiltonians: pairs come back with traced f and g
    def trace_pair(pair, arguments):
        return dataclasses.replace(
            pair,
            f=tracer.wrap("hamiltonians.pair_f", pair.f),
            g=tracer.wrap("hamiltonians.pair_g", pair.g),
        )

    for attr in ("build_cyl_dagger", "build_cyl_ddagger", "build_h0_pair",
                 "build_tataru_pair", "build_chain_pair"):
        module_fn(hamiltonians, attr, f"hamiltonians.build.{attr}", after=trace_pair)
    module_fn(hamiltonians, "chain_inequality_report", "hamiltonians.chain_report")

    # viscosity
    def count_sweeps(result, arguments):
        tracer.count("viscosity.solve.iterations", result.iterations)
        tracer.count("viscosity.solve.cell_updates",
                     result.iterations * result.u.xs.size * arguments["n_controls"])
        return result

    module_fn(viscosity, "solve_resolvent", "viscosity.solve", after=count_sweeps)
    module_fn(viscosity, "check_subsolution", "viscosity.check")
    module_fn(viscosity, "check_supersolution", "viscosity.check")

    # reporting
    def count_bytes(result, arguments):
        tracer.count("reporting.write.bytes", Path(result).stat().st_size)
        return result

    module_fn(reporting, "write_csv", "reporting.write", after=count_bytes)
    module_fn(reporting, "write_json", "reporting.write", after=count_bytes)

    # config
    module_fn(config, "load_config", "config.load")
