"""Verdict gate: the check rows a config implies, and the rows a run wrote.

Works on the workload's JSON config, without importing ``hjflow``, so the
gate does not trust the program it checks.  Every field the row set depends
on must be spelled out in the workload config.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

CSV_HEADER = ["check", "instance", "value", "bound", "violation", "pass"]
JSON_MIRRORED = ("resolvent", "comparison")


def expected_rows(suite: str, cfg: dict) -> set[tuple[str, str]]:
    """(check, instance) pairs that ``hjflow <suite>`` writes for ``cfg``."""
    def per_instance(checks, n):
        return {(c, str(i)) for c in checks for i in range(n)}

    space = cfg["space"]
    if suite == "evi-check":
        return per_instance(("evi_residual", "contraction", "energy_identity", "slope_decay",
                             "distance_growth", "damped_distance_bound"),
                            cfg["evi"]["instances"])
    if suite == "tataru":
        return per_instance(("lipschitz", "flow_lipschitz", "triangle", "kappa_monotone"),
                            cfg["tataru"]["instances"])
    if suite == "laplace-converge":
        lc = cfg["laplace"]
        m_list = lc["m_list"]
        rows = {("varadhan_final_error", str(m_list[-1])),
                ("varadhan_monotone", f"{m_list[0]}->{m_list[-1]}"),
                ("tilt_concentration", str(lc["concentration_m"])),
                ("tilt_mean_weight", str(lc["concentration_m"]))}
        rows |= {("riemann_refinement", str(n)) for n in lc["refine_n"]}
        # the quartic potential ignores the configured kappa and has kappa = 0
        if space["potential"] == "quartic" or space["kappa"] >= 0:
            rows |= {("constant_exact", str(m)) for m in (1, 10, 100, 1000)}
        return rows
    if suite == "ham-chain":
        hc = cfg["ham_chain"]
        return (per_instance((f"chain-{hc['link']}",), hc["samples"])
                | per_instance(("g5_equals_g6", "f5_f6_gap"), 10))
    if suite == "resolvent":
        rows = {("fixed_point", "0"), ("constant_h", "0"), ("shift_equivariance", "0")}
        if (space["potential"] == "quadratic" and space["kappa"] == 1.0
                and cfg["resolvent"]["lam"] == 1.0):
            rows.add(("lq_oracle", "0"))
        return rows | per_instance(("subsolution", "supersolution"), 10)
    if suite == "comparison":
        return (per_instance(("comparison_gap",), cfg["comparison"]["pairs"])
                | {("comparison_shift_tight", "0")})
    raise ValueError(f"unknown suite {suite!r}")


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError(f"{path.name}: bad header")
    for r in rows[1:]:
        if len(r) != 6 or r[5] not in ("true", "false"):
            raise ValueError(f"{path.name}: malformed row {r!r}")
        for cell in r[2:5]:
            float(cell)
    return rows[1:]


def check_suite(suite: str, cfg: dict, out_dir: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one suite's artifacts in ``out_dir``.

    A failed operation is a row that fails, a row that is missing, duplicated
    or not implied by the config, or an artifact that does not re-parse.
    """
    expected = expected_rows(suite, cfg)
    stem = suite.replace("-", "_")
    problems: list[str] = []
    try:
        rows = _read_csv(out_dir / f"{stem}.csv")
    except (OSError, ValueError) as exc:
        return len(expected), len(expected), [f"{suite}: {exc}"]
    keys = [(r[0], r[1]) for r in rows]
    seen = set(keys)
    failed = sum(1 for r in rows if r[5] != "true")
    missing = expected - seen
    extra = len(keys) - len(seen) + len(seen - expected)
    failed += len(missing) + extra
    if failed:
        problems.append(f"{suite}: {failed} failed, {len(missing)} missing, "
                        f"{extra} unexpected or duplicated rows")
    if suite in JSON_MIRRORED:
        try:
            mirror = json.loads((out_dir / f"{stem}.json").read_text(encoding="utf-8"))
            mirrored = [(r["check"], r["instance"], "true" if r["pass"] else "false")
                        for r in mirror["rows"]]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            mirrored = exc
        if mirrored != [(r[0], r[1], r[5]) for r in rows]:
            failed += 1
            problems.append(f"{suite}: JSON mirror does not match the CSV ({mirrored!r:.80})")
    return len(expected), failed, problems


def csv_digest(out_dir: Path) -> str:
    """sha256 over every CSV a run wrote, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()
