"""One measured hjflow verdict in a fresh process; started by ``run.py``.

Usage: child.py CONFIG OUT_DIR SUITES SPAWNED_AT [--trace] [--setup-only]

SUITES is a comma-separated list; SPAWNED_AT is the parent's
``time.monotonic()`` just before this process was started, so set-up time
covers interpreter start, the ``hjflow``/scipy import, ``load_config`` and
``cfg.space.build()``.  The verdict is timed from the first suite call to the
last report written.  The result is written to OUT_DIR/result.json; suite
output printed by ``hjflow`` is swallowed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str]) -> int:
    config_path, out_dir, suites, spawned_at = argv[:4]
    flags = set(argv[4:])
    out_dir = Path(out_dir)
    result: dict = {"suites": {}}

    tracer = None
    if "--trace" in flags:
        import spans

        tracer = spans.Tracer()
    import hjflow
    import hjflow.cli
    import hjflow.config
    import numpy
    import scipy

    if tracer is not None:
        spans.install(tracer)
    cfg = hjflow.config.load_config(config_path)
    cfg.space.build()
    result["setup_s"] = time.monotonic() - float(spawned_at)
    result["hjflow_file"] = hjflow.__file__
    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__, "hjflow": hjflow.__version__}

    if "--setup-only" not in flags:
        sink = io.StringIO()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        for name in suites.split(","):
            try:
                with contextlib.redirect_stdout(sink):
                    if tracer is None:
                        hjflow.cli.run_experiment(name, cfg, out_dir)
                    else:
                        tracer.wrap(f"cli.suite.{name}", hjflow.cli.run_experiment)(
                            name, cfg, out_dir)
                result["suites"][name] = "ok"
            except Exception:  # a suite that raises is a failed operation, not a crash
                result["suites"][name] = traceback.format_exc(limit=4)
        result["verdict_s"] = time.perf_counter() - wall0
        result["verdict_cpu_s"] = time.process_time() - cpu0
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["missing_hooks"] = tracer.missing
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (out_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
