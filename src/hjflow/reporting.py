"""Check-row reports with deterministic CSV/JSON emission.

CSV values use '.' decimals and 17 significant digits so reruns with the same
seed are byte-identical across platforms.  JSON is strict (RFC 8259): a
non-finite number is written as the CSV's string for it, "inf", "-inf" or "nan".
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

CSV_HEADER = ("check", "instance", "value", "bound", "violation", "pass")


def fmt17(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int,)):
        return str(x)
    return format(float(x), ".17g")


@dataclass(frozen=True)
class CheckRow:
    """One check: ``value`` must not exceed ``bound``.  The violation and the
    verdict follow from them when the row is made, and from nothing else."""

    check: str
    instance: str
    value: float
    bound: float
    violation: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "violation", self.value - self.bound)
        object.__setattr__(self, "passed", self.value <= self.bound)

    def as_csv(self) -> tuple:
        return (self.check, self.instance, fmt17(self.value), fmt17(self.bound),
                fmt17(self.violation), "true" if self.passed else "false")


@dataclass
class Report:
    """Per-suite report: rows plus config echo, tool version and the JSON-only
    diagnostics (kept out of the CSV, so reruns stay byte-identical)."""

    name: str
    rows: list = field(default_factory=list)
    config_echo: dict = field(default_factory=dict)
    version: str = ""
    diagnostics: dict = field(default_factory=dict)

    def check(self, name: str, instance, value: float, bound: float) -> None:
        """Add the row ``value <= bound`` of check ``name`` at ``instance``."""
        self.rows.append(CheckRow(name, str(instance), float(value), float(bound)))

    @property
    def passed(self) -> bool:
        """True iff the report has rows and every row passed; an empty report fails."""
        return bool(self.rows) and all(r.passed for r in self.rows)

    def summary(self) -> dict:
        n_pass = sum(1 for r in self.rows if r.passed)
        worst = {}
        for r in self.rows:
            worst[r.check] = max(worst.get(r.check, r.violation), r.violation)
        return {
            "suite": self.name,
            "checks": len(self.rows),
            "passed": n_pass,
            "failed": len(self.rows) - n_pass,
            "max_violation": worst,
        }

    def summary_line(self) -> str:
        s = self.summary()
        verdict = "PASS" if self.passed else "FAIL"
        worst = ", ".join(f"{name} {v:.3e}" for name, v in s["max_violation"].items())
        return (f"[{self.name}] {verdict}: {s['passed']}/{s['checks']} checks passed, "
                f"max violation per check: {worst or 'none'}")


def write_table(path: str | Path, header, rows) -> Path:
    """Write a CSV file: the header, then one line per row, each ended by a newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_csv(report: Report, path: str | Path) -> Path:
    return write_table(path, CSV_HEADER, (r.as_csv() for r in report.rows))


def _strict(obj):
    """obj with every non-finite float replaced by its ``fmt17`` string."""
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return fmt17(obj) if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_json(report: Report, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "suite": report.name,
        "version": report.version,
        "config": report.config_echo,
        "summary": report.summary(),
        "diagnostics": report.diagnostics,
        "rows": [
            {
                "check": r.check,
                "instance": r.instance,
                "value": r.value,
                "bound": r.bound,
                "violation": r.violation,
                "pass": r.passed,
            }
            for r in report.rows
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_strict(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path
