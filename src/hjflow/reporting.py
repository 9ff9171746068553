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
    check: str
    instance: str
    value: float
    bound: float
    violation: float
    passed: bool

    def as_csv(self) -> tuple:
        return (self.check, self.instance, fmt17(self.value), fmt17(self.bound),
                fmt17(self.violation), "true" if self.passed else "false")


def row(check: str, instance, value: float, bound: float, violation: float,
        passed: bool) -> CheckRow:
    return CheckRow(check=check, instance=str(instance), value=float(value),
                    bound=float(bound), violation=float(violation), passed=bool(passed))


@dataclass
class Report:
    """Per-suite report: rows plus config echo, tool version and the JSON-only
    diagnostics (kept out of the CSV, so reruns stay byte-identical)."""

    name: str
    rows: list = field(default_factory=list)
    config_echo: dict = field(default_factory=dict)
    version: str = ""
    diagnostics: dict = field(default_factory=dict)

    def add(self, check: str, instance, value: float, bound: float, violation: float,
            passed: bool) -> None:
        self.rows.append(row(check, instance, value, bound, violation, passed))

    def extend_tuples(self, tuples) -> None:
        self.rows.extend(row(*t) for t in tuples)

    @property
    def passed(self) -> bool:
        """True iff the report has rows and every row passed; an empty report fails."""
        return bool(self.rows) and all(r.passed for r in self.rows)

    def summary(self) -> dict:
        n_pass = sum(1 for r in self.rows if r.passed)
        worst = max((r.violation for r in self.rows), default=0.0)
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
        return (f"[{self.name}] {verdict}: {s['passed']}/{s['checks']} checks passed, "
                f"max violation {s['max_violation']:.3e}")


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
