"""Step-size study for the semi-Lagrangian resolvent solver.

Solves the linear-reward instance on the quadratic space for a range of time
steps and reports the sup-norm relative error against the closed-form value
x/2 + 1/8 on |x| <= 2.  The error is first order in dt, which is why the
oracle check runs at dt = lam/200 while the pass/fail suites keep the default
lam/50 (their tolerances scale with 5 dx instead).  Each row also gives the
number of policy steps and the solver's certified error bound
||T u - u|| / (1 - beta), which is far below the discretization error.
"""

import sys
import time
from pathlib import Path

import numpy as np

from hjflow.reporting import write_table
from hjflow.spaces import euclidean_space, quadratic_potential
from hjflow.viscosity import solve_resolvent


def main(out_path: str | Path = "out/resolvent_accuracy.csv") -> int:
    space = euclidean_space(quadratic_potential(1.0))
    h = lambda x: np.clip(x, -space.box, space.box)
    rows = []
    for factor in (25, 50, 100, 200, 400):
        t0 = time.time()
        sol = solve_resolvent(space, 1.0, h, dt=1.0 / factor)
        mask = np.abs(sol.u.xs) <= 2.0
        exact = sol.u.xs[mask] / 2.0 + 0.125
        abs_err = float(np.max(np.abs(sol.u.values[mask] - exact)))
        rel_err = abs_err / float(np.max(np.abs(exact)))
        rows.append((factor, sol.dt, sol.iterations, sol.error_bound, abs_err, rel_err,
                     time.time() - t0))
        print(f"dt=lam/{factor:<4d} policy steps={sol.iterations:<3d} "
              f"certified={sol.error_bound:.1e} "
              f"abs={abs_err:.3e} rel={rel_err:.3e} ({rows[-1][-1]:.2f}s)")
    write_table(out_path, ("dt_factor", "dt", "policy_steps", "certified_error_bound",
                           "abs_error", "rel_error", "seconds"), rows)
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
