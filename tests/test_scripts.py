"""Smoke tests for the scripts under scripts/, run in-process."""

import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_resolvent_accuracy_error_halves_with_dt(tmp_path):
    out = tmp_path / "ra.csv"
    assert _load("resolvent_accuracy").main(out) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["dt_factor"]) for row in rows] == [25, 50, 100, 200, 400]
    assert all(float(row["certified_error_bound"]) <= 1e-10 for row in rows)
    # first order in dt: each halving of dt halves the error
    errors = [float(row["rel_error"]) for row in rows]
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(1.8 <= ratio <= 2.2 for ratio in ratios), ratios
