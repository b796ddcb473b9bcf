"""``runner serve fig6`` in this process, optionally with the layer trace.

Usage (the parent in ``run.py`` sets the hermetic environment)::

    python perfbench/serve_child.py <trace 0|1> <report.json>

The runner's own ``serve`` command does the work, so the deployment is
exactly what ``python -m repro.experiments.runner serve fig6`` builds; it
prints its ``serving ... on http://host:port`` line when ready and drains
on SIGTERM.  Each line the parent writes to stdin is answered on stdout
with ``cpu <seconds>``, this process's CPU time so far (all threads), so
the parent can charge CPU time to set-up and to each load window.  After
the drain this process writes its report (import time, peak memory and,
when traced, the per-layer metrics) to ``report.json``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time


def main(argv: list) -> int:
    traced, report_path = argv[0] == "1", argv[1]
    import_start = time.process_time()
    import repro.api  # noqa: F401 - the import being timed
    from repro.experiments import runner

    import_s = time.process_time() - import_start

    tracer = counters = None
    if traced:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import layertrace

        tracer = layertrace.Tracer()
        counters = layertrace.install(tracer)
        build = _timed_server_build(tracer)

    threading.Thread(target=_answer_cpu_queries, daemon=True).start()
    code = runner.main(["serve", "fig6", "--host", "127.0.0.1", "--port", "0"])
    report = {
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["layers"] = layertrace.report(tracer, counters)
        report["build_s"] = build["s"]
        report["build_top_level_s"] = build["top_level_s"]
    with open(report_path, "w") as handle:
        json.dump(report, handle)
    return code


def _answer_cpu_queries() -> None:
    for _ in sys.stdin:
        print(f"cpu {time.process_time():.9f}", flush=True)


def _timed_server_build(tracer) -> dict:
    """Record how long building the deployment takes and how much of that
    the top-level layer spans cover (the trace coverage on this workload),
    both on the tracer's clock."""
    from repro.service import server

    measured: dict = {}
    original = server.ServiceServer.__init__

    def init(self, *args, **kwargs):
        covered = tracer.top_level_s
        start = tracer.clock()
        original(self, *args, **kwargs)
        measured["s"] = tracer.clock() - start
        measured["top_level_s"] = tracer.top_level_s - covered

    server.ServiceServer.__init__ = init
    return measured


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
