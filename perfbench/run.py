"""hjflow benchmark: time to verdict per workload, or a traced per-layer run.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload solver --seed 1 --seconds 20 --trace 0

Each measured verdict runs in a fresh child process (``child.py``) with its
own output directory and single-threaded BLAS.  Children run one after
another, at least three, for as long as the next one is expected to end
within ``--seconds``.  Every verdict goes through the gate in
``verdict.py``; only verdicts that pass it are timed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians over
the children.  ``--trace 1`` alternates untraced and traced children (at
least two traced) and reports the per-layer metrics of ``spans.py``; it also
checks that traced and untraced runs write byte-identical CSVs and that the
deterministic counts repeat exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a report with quartiles, tail percentiles, sample counts and provenance.
Exit status: 0 when correct, 1 when a verdict or check failed, 2 when the
benchmark cannot run here (no ``src/hjflow`` next to it, bad arguments).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import verdict  # noqa: E402

HARD_LIMIT_S = 170.0  # a run must end within 180 s
MIN_VERDICTS = 3
MIN_TRACED = 2
SINGLE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run in this directory or with these arguments."""


def load_workload(name: str, seed: int) -> tuple[list[str], dict, dict]:
    """(suites, hjflow config, workload spec) for ``name``; inputs depend on ``seed`` only."""
    path = HERE / "workloads" / f"{name}.json"
    if not path.is_file():
        raise BenchError(f"unknown workload {name!r}")
    spec = json.loads(path.read_text(encoding="utf-8"))
    cfg = json.loads(json.dumps(spec["config"]))
    cfg["seed"] = seed
    if spec.get("generate_tataru_points"):
        # the 1-d defaults do not fit a quantile space: draw sorted grid points
        rng = random.Random(seed)
        size = cfg["space"]["size"]
        for key in ("pi", "mu"):
            cfg["tataru"][key] = sorted(rng.uniform(-2.0, 2.0) for _ in range(size))
    return spec["suites"], cfg, spec


def provenance(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hjflow").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"seed": seed, "git_commit": commit, "src_sha256": src.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu}


class Runner:
    """Starts children one at a time and gates each verdict."""

    def __init__(self, suites: list[str], cfg: dict, work: Path, deadline: float):
        self.suites = suites
        self.cfg = cfg
        self.work = work
        self.deadline = deadline
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(cfg), encoding="utf-8")
        self.env = {**os.environ, **{var: "1" for var in SINGLE_THREAD}}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self._count = 0

    def child(self, *flags: str) -> dict | None:
        """Run one child; returns its result when its verdict passed the gate."""
        self._count += 1
        out_dir = self.work / f"child-{self._count}"
        out_dir.mkdir()
        timeout = max(self.deadline - time.monotonic(), 1.0)
        cmd = [sys.executable, str(HERE / "child.py"), str(self.config_path), str(out_dir),
               ",".join(self.suites), repr(time.monotonic()), *flags]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=str(ROOT), capture_output=True,
                                  text=True, timeout=timeout, check=False)
        except subprocess.TimeoutExpired:  # run() kills and reaps the child
            return self._fail(out_dir, "child exceeded the time limit")
        result_path = out_dir / "result.json"
        if proc.returncode != 0 or not result_path.is_file():
            return self._fail(out_dir, f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        src = (ROOT / "src" / "hjflow").resolve()
        if Path(result["hjflow_file"]).resolve().parent != src:
            raise BenchError(f"imported hjflow from {result['hjflow_file']}, not {src}")
        if "--setup-only" in flags:
            shutil.rmtree(out_dir)
            return result
        ok = True
        for suite in self.suites:
            attempted, failed, problems = verdict.check_suite(suite, self.cfg, out_dir)
            self.attempted += attempted
            self.failed += failed
            self.problems += problems
            if result["suites"].get(suite) != "ok":
                self.problems.append(f"{suite} raised: {result['suites'].get(suite)}")
                ok = False
            ok = ok and failed == 0
        result["csv_sha256"] = verdict.csv_digest(out_dir)
        self.digests.add(result["csv_sha256"])
        shutil.rmtree(out_dir)
        return result if ok else None

    def _fail(self, out_dir: Path, message: str) -> None:
        expected = sum(len(verdict.expected_rows(s, self.cfg)) for s in self.suites)
        self.attempted += expected
        self.failed += expected
        self.problems.append(message)
        shutil.rmtree(out_dir, ignore_errors=True)
        return None


def summarize(values: list[float]) -> dict:
    """Median, quartiles, the highest percentile with >= 10 samples beyond it, count."""
    xs = sorted(values)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs), "samples": values}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        out.update(q1=q1, q3=q3)
    if n >= 11:
        out["tail"] = {"percentile": round(100.0 * (n - 10) / n, 1), "value": xs[n - 11]}
    return out


def end_to_end(runner: Runner, seconds: float, started: float) -> tuple[dict, dict]:
    runner.child("--setup-only")  # fills the byte-code and page caches; not timed
    window_end = time.monotonic() + seconds
    results = []
    n_children = 0
    last = 0.0  # a child is started only when one like the last would end in time
    while n_children < MIN_VERDICTS or time.monotonic() + last < window_end:
        if time.monotonic() - started > HARD_LIMIT_S * 0.8:
            break
        n_children += 1
        t0 = time.monotonic()
        res = runner.child()
        last = time.monotonic() - t0
        if res is not None:
            results.append(res)
    if not results:
        return {}, {}
    samples = {
        "verdict_s": [r["verdict_s"] for r in results],
        "verdict_cpu_s": [r["verdict_cpu_s"] for r in results],
        "setup_s": [r["setup_s"] for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }
    stats = {name: summarize(vals) for name, vals in samples.items()}
    values = {name: s["median"] for name, s in stats.items()}
    stats["versions"] = results[0]["versions"]
    stats["children"] = n_children
    return values, stats


def traced(runner: Runner, seconds: float, started: float, spec: dict) -> tuple[dict, dict]:
    window_end = time.monotonic() + seconds
    plain, layered = [], []
    last = 0.0
    while (len(layered) < MIN_TRACED or not plain
           or time.monotonic() + last < window_end):
        if time.monotonic() - started > HARD_LIMIT_S * 0.8:
            break
        t0 = time.monotonic()
        res = runner.child()
        if res is not None:
            plain.append(res)
        res = runner.child("--trace")
        last = time.monotonic() - t0
        if res is not None:
            layered.append(res)
    if not plain or len(layered) < MIN_TRACED:
        runner.problems.append(f"{len(layered)} traced and {len(plain)} untraced verdicts passed")
        return {}, {}
    units = spans.metric_units()
    values = {}
    for name, unit in units.items():
        series = [r["layers"][name] for r in layered]
        if unit == "s":
            values[name] = statistics.median(series)
        else:
            if len(set(series)) != 1:
                runner.problems.append(f"count {name} differs between traced runs: {series}")
            values[name] = series[0]
    for name, want in spec.get("trace_expect", {}).items():
        if values[name] != want:
            runner.problems.append(f"{name} = {values[name]}, expected {want}")
    traced_s = statistics.median(r["verdict_s"] for r in layered)
    plain_s = statistics.median(r["verdict_s"] for r in plain)
    values["trace.verdict_s"] = traced_s
    values["trace.untraced_verdict_s"] = plain_s
    values["trace.overhead_s"] = traced_s - plain_s
    stats = {"traced_children": len(layered), "untraced_children": len(plain),
             "versions": layered[0]["versions"],
             "missing_hooks": layered[0]["missing_hooks"],
             "deterministic_counts": {name: values[name] for name in spans.DETERMINISTIC}}
    return values, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    try:
        if not (ROOT / "src" / "hjflow" / "__init__.py").is_file():
            raise BenchError(f"no hjflow sources at {ROOT / 'src' / 'hjflow'}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        section = "per_layer" if args.trace else "end_to_end"
        declared = {m["name"]: m["unit"] for m in bench[section]}
        if args.seed < 0:
            raise BenchError("--seed must be >= 0")
        suites, cfg, spec = load_workload(args.workload, args.seed)
        runs_dir = ROOT / ".perfbench_runs"
        runs_dir.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir))
        try:
            runner = Runner(suites, cfg, work, started + HARD_LIMIT_S)
            if args.trace:
                values, stats = traced(runner, args.seconds, started, spec)
                units = {**spans.metric_units(), "trace.verdict_s": "s",
                         "trace.untraced_verdict_s": "s", "trace.overhead_s": "s"}
                if len(runner.digests) > 1:
                    runner.problems.append("traced and untraced runs wrote different CSVs")
            else:
                values, stats = end_to_end(runner, args.seconds, started)
                units = {"verdict_s": "s", "verdict_cpu_s": "s", "setup_s": "s",
                         "peak_rss_mb": "MB"}
                if len(runner.digests) > 1:
                    runner.problems.append("runs of one seed wrote different CSVs")
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                runs_dir.rmdir()
            except OSError:
                pass
        if units != declared:
            raise BenchError(f"metrics {sorted(set(units) ^ set(declared))} do not match "
                             f"BENCHMARK.json {section}")
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    correct = bool(values) and runner.failed == 0 and not runner.problems
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "failed_ratio": {"value": runner.failed / max(runner.attempted, 1), "unit": "ratio"},
        "problems": runner.problems[:20],
        "stats": stats,
        "elapsed_s": time.monotonic() - started,
    }
    print(json.dumps({"report": report}))
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
    print(json.dumps({"correct": correct, "attempted": max(runner.attempted, 1),
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
