"""One cold ``run(spec)`` in this fresh process, reported as JSON on stdout.

Usage (the parent in ``run.py`` sets the hermetic environment)::

    python perfbench/offline_child.py <scenario> <eval-seed|default> <trace 0|1>

``setup_s`` and ``run_s`` are CPU seconds of this process: from its start
until the spec is resolved, and of ``run(spec)``.  CPU time leaves out the
time the shared host gives to other tenants, which made wall time spread
by a third between runs; ``run_wall_s`` is the wall time, for reference.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time


def main(argv: list) -> int:
    scenario, seed, traced = argv[0], argv[1], argv[2] == "1"
    import_start = time.process_time()
    from repro import api

    import_s = time.process_time() - import_start
    spec = api.get_scenario(scenario)
    if seed != "default":
        spec = spec.with_updates({"evaluation.seeds": [int(seed)]})
    setup_s = time.process_time()

    tracer = counters = None
    if traced:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import layertrace

        tracer = layertrace.Tracer()
        counters = layertrace.install(tracer)

    run_start, wall_start = time.process_time(), time.perf_counter()
    result = api.run(spec)
    run_s = time.process_time() - run_start
    run_wall_s = time.perf_counter() - wall_start

    data = result.to_dict()
    ratios = [
        ratio
        for group in ("policies", "strategies")
        for values in data[group].values()
        for ratio in values
    ]
    out = {
        "setup_s": setup_s,
        "import_s": import_s,
        "run_s": run_s,
        "run_wall_s": run_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": hashlib.sha256(result.to_json().encode("utf-8")).hexdigest(),
        "ratios": len(ratios),
        "bad_ratios": sum(1 for r in ratios if not (math.isfinite(r) and r >= 1.0 - 1e-9)),
    }
    if tracer is not None:
        out["layers"] = layertrace.report(tracer, counters)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
