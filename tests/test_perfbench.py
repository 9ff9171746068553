"""The benchmark's traced runs pass on this tree.

A traced run wraps layer functions by name and checks the counts each workload
expects (``trace_expect``), so a change that renames, merges or re-signs a
traced function fails here before it fails in the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["solver", "closed_form", "curved_flows"])
def test_traced_benchmark_run_is_correct(workload):
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
    assert json.loads(res.stdout.splitlines()[-1])["correct"] is True
