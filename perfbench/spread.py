"""Run-to-run spread of the end-to-end metrics, against the bounds of BENCHMARK.json.

Usage (from the root of a source checkout):

    python3 perfbench/spread.py --workloads solver,closed_form,curved_flows \
        --seeds 1-10 [--sets 2] [--log FILE]

Runs ``run.py --trace 0`` once per (set, seed, workload), interleaving the
workloads seed by seed.  For each workload and metric it prints the median of
the runs and the quartile spread, (q3 - q1) / median from
``statistics.quantiles(values, n=4)``.  A spread at or above the metric's
bound is marked WIDE (``setup_s`` is exempt); one at or above a third of it
is marked "noisy".  With ``--sets 2`` it also prints how much worse the
second set's median is than the first, which must stay within the bound.
Exit status 1 when any run fails or any of these limits is broken.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--log", default=None, help="append every run's last line here")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    ok = True
    medians: dict = {}
    for set_no in range(args.sets):
        values = {(w, m): [] for w in workloads for m in metrics}
        pooled = {(w, m): [] for w in workloads for m in metrics}
        for seed in seeds:
            for w in workloads:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                     "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                    cwd=str(ROOT), capture_output=True, text=True, check=False)
                lines = proc.stdout.strip().splitlines() or ["{}"]
                last = lines[-1]
                if args.log:
                    with open(args.log, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps({"set": set_no, "workload": w, "seed": seed,
                                             "exit": proc.returncode, "result": last}) + "\n")
                result = json.loads(last)
                if proc.returncode != 0 or not result.get("correct"):
                    print(f"set {set_no} {w} seed {seed}: FAILED (exit {proc.returncode}) "
                          f"{proc.stderr.strip()[-300:]}")
                    ok = False
                    continue
                stats = json.loads(lines[-2])["report"]["stats"]
                for m in metrics:
                    values[(w, m)].append(result["metrics"][m]["value"])
                    pooled[(w, m)].extend(stats[m]["samples"])
                print(f"set {set_no} {w} seed {seed}: " + " ".join(
                    f"{m}={result['metrics'][m]['value']:.4g}" for m in metrics), flush=True)
        print(f"\nset {set_no}: {len(seeds)} seeds")
        for (w, m), vals in values.items():
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            sp = spread(vals)
            bound = metrics[m]["bound"]
            mark = "ok"
            if sp >= bound / 3:
                mark = "noisy"
            if sp >= bound and m != "setup_s":
                mark = "WIDE"
                ok = False
            line = f"  {w:14s} {m:14s} median {med:10.4f}  spread {sp:6.3f}  bound {bound}  {mark}"
            if (w, m) in medians:
                worse = (med - medians[(w, m)]) / medians[(w, m)]
                if metrics[m]["better"] == "higher":
                    worse = -worse
                line += f"  worse than set 0 by {worse:+.3f}"
                if worse > bound:
                    line += " OUT OF BOUND"
                    ok = False
            else:
                medians[(w, m)] = med
            print(line)
        print("  every child of every run, pooled:")
        for (w, m), vals in pooled.items():
            if not vals:
                continue
            xs = sorted(vals)
            n = len(xs)
            tail = f"p{100.0 * (n - 10) / n:.0f} {xs[n - 11]:.4f}" if n >= 11 else "no tail"
            print(f"  {w:14s} {m:14s} median {statistics.median(xs):10.4f}  {tail}  n {n}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
