"""The row rule of ``hjflow.reporting``: a row says value <= bound, its
violation is value - bound and it passes iff value <= bound.  No caller passes
the violation or the verdict, so no written row can contradict the rule."""

import csv
import inspect
import json
import math
import struct

import pytest

from hjflow.cli import SUITES, main
from hjflow.reporting import CheckRow, Report


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_every_default_row_obeys_the_row_rule(tmp_path, capsys):
    """Default ``hjflow all``: every CSV row and every JSON mirror row.  The
    CSV's .17g cells and the JSON numbers both parse back to the exact floats."""
    assert main(["all", "--out", str(tmp_path), "--format", "json"]) == 0
    stems = sorted(path.stem for path in tmp_path.glob("*.json"))
    assert stems == sorted(name.replace("-", "_") for name in SUITES)
    rows, infinite = 0, 0
    for stem in stems:
        with open(tmp_path / f"{stem}.csv", newline="", encoding="utf-8") as fh:
            csv_rows = list(csv.DictReader(fh))
        json_rows = json.loads((tmp_path / f"{stem}.json").read_text(encoding="utf-8"))["rows"]
        assert [(r["check"], r["instance"]) for r in csv_rows] == [
            (r["check"], r["instance"]) for r in json_rows]
        assert {r["pass"] for r in csv_rows} <= {"true", "false"}
        for row in (*csv_rows, *json_rows):
            value, bound, violation = (float(row[c]) for c in ("value", "bound", "violation"))
            assert _bits(violation) == _bits(value - bound), row
            assert (row["pass"] in (True, "true")) == (value <= bound), row
            infinite += math.isinf(violation)
        rows += len(csv_rows)
    assert rows > 0
    assert infinite > 0  # the first riemann_refinement row: bound inf, violation -inf


def test_report_has_one_row_method_and_no_verdict_argument():
    methods = {name: member for name, member in inspect.getmembers(Report, inspect.isfunction)
               if not name.startswith("_")}
    assert sorted(methods) == ["check", "summary", "summary_line"]
    for name, member in methods.items():
        assert not {"violation", "passed"} & set(inspect.signature(member).parameters), name
    assert list(inspect.signature(Report.check).parameters) == [
        "self", "name", "instance", "value", "bound"]
    with pytest.raises(TypeError):
        CheckRow("check_a", "0", 1.0, 2.0, -1.0, True)
    row = CheckRow("check_a", "0", 1.0, 2.0)
    assert (row.violation, row.passed) == (-1.0, True)
