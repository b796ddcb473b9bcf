"""Self-tests for the benchmark harness (not for the ``repro`` package).

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent


def _load_harness():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The benchmark's modules import each other as scripts in one directory; the
# directory leaves ``sys.path`` again once they are loaded.
sys.path.insert(0, str(BENCH_DIR))
try:
    import layertrace
    import loadgen

    harness = _load_harness()
finally:
    sys.path.remove(str(BENCH_DIR))

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- self time --------------------------------------------------------------


def test_self_time_subtracts_directly_nested_spans():
    clock = FakeClock()
    tracer = layertrace.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf_span()
        clock.now += 3.0

    def outer():
        clock.now += 5.0
        middle_span()
        middle_span()

    leaf_span = tracer.timed("leaf", leaf)
    middle_span = tracer.timed("middle", middle)
    tracer.timed("outer", outer)()

    assert tracer.self_time["leaf"] == pytest.approx(4.0)
    assert tracer.self_time["middle"] == pytest.approx(8.0)
    assert tracer.self_time["outer"] == pytest.approx(5.0)
    assert tracer.top_level_s == pytest.approx(17.0)
    assert dict(tracer.calls) == {"leaf": 2, "middle": 2, "outer": 1}


def test_reentering_a_layer_adds_time_but_not_calls():
    clock = FakeClock()
    tracer = layertrace.Tracer(clock=clock)

    def inner():
        clock.now += 1.0

    def entry():
        clock.now += 2.0
        inner_span()

    inner_span = tracer.timed("layer", inner)
    tracer.timed("layer", entry)()

    assert tracer.self_time["layer"] == pytest.approx(3.0)
    assert tracer.calls["layer"] == 1
    assert tracer.top_level_s == pytest.approx(3.0)


def test_counted_wrapper_counts_without_a_span():
    tracer = layertrace.Tracer()
    double = tracer.counted("op", lambda x: 2 * x)
    assert [double(i) for i in range(3)] == [0, 2, 4]
    assert tracer.counts["op"] == 3
    assert tracer.top_level_s == 0.0


# -- open-loop timing against a stalled server -------------------------------


class _StallingHandler(BaseHTTPRequestHandler):
    """Answers instantly, except that the first request stalls the server."""

    stall_s = 0.4
    lock = threading.Lock()
    stalled = threading.Event()

    def log_message(self, *args):
        pass

    def do_POST(self):  # noqa: N802 - stdlib naming
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        with self.lock:
            if not self.stalled.is_set():
                self.stalled.set()
                time.sleep(self.stall_s)
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_latency_counts_from_due_time_and_lateness_shows_the_stall():
    _StallingHandler.stalled.clear()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        offsets = [0.02 * i for i in range(8)]
        records = loadgen.drive("127.0.0.1", server.server_address[1], offsets, [b"{}"] * 8)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert all(r.ok for r in records)
    stall = _StallingHandler.stall_s
    # Both connections are held by the stall; later requests go out late
    # and their due-time latency carries the wait their service time lacks.
    assert records[1].latency_s >= stall * 0.6
    assert records[2].late_s >= stall * 0.4
    assert records[2].done - records[2].sent < records[2].latency_s
    for record in records:
        assert record.latency_s >= record.done - record.sent
    summary = harness.latency_summary(records, limit_ms=1000.0)
    assert summary["p50_ms"] >= stall * 1000.0 * 0.3
    assert max(summary["late_ms"]) >= stall * 1000.0 * 0.4


def test_failed_requests_miss_the_latency_limit():
    answered = loadgen.Record(due=0.0, sent=0.0, done=0.001, status=200, payload=b"{}")
    shed = loadgen.Record(due=0.0, sent=0.0, done=0.001, status=503, payload=b"{}")
    summary = harness.latency_summary([answered, shed, shed, shed], limit_ms=50.0)
    assert summary["failed"] == 3
    assert summary["p50_ms"] >= 50.0
    assert summary["tail_ms"] >= 50.0


# -- metric names -------------------------------------------------------------


def test_every_metric_name_is_well_formed_and_declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
    per_layer = {m["name"] for m in spec["per_layer"]}
    traced = set(layertrace.report(layertrace.Tracer(), None)) - {"trace.top_level_s"}
    assert traced <= per_layer
    assert set(harness.SERVICE_LAYER_METRICS) <= per_layer
    assert set(harness.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_layer_map_covers_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    readme = (BENCH_DIR / "README.md").read_text()
    mapped = set(re.findall(r"^\| `([A-Za-z0-9_.-]+)`", readme, flags=re.MULTILINE))
    assert {m["name"] for m in spec["per_layer"]} <= mapped


# -- output checks -------------------------------------------------------------


def _fake_bench(tmp_path, *stdout_lines: str, seed: int = 0):
    """A bench whose children print ``stdout_lines``, one per child."""
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    bench = harness.Bench(tmp_path, seed=seed, seconds=1.0, trace=False)
    lines = iter(stdout_lines)

    def popen(script, *args, **kwargs):
        return subprocess.Popen([sys.executable, "-c", f"print({next(lines)!r})"], **kwargs)

    bench.popen = popen
    return bench


def _child_output(digest: str) -> str:
    return json.dumps(
        {
            "setup_s": 0.5,
            "import_s": 0.5,
            "run_s": 1.0,
            "run_wall_s": 1.1,
            "peak_rss_mb": 100.0,
            "digest": digest,
            "ratios": 4,
            "bad_ratios": 0,
        }
    )


def test_pinned_digest_passes(tmp_path):
    bench = _fake_bench(tmp_path, _child_output(harness.PINNED_DIGESTS["fig6"]))
    try:
        assert harness.Offline(bench, "fig6").repetition(0) is not None
    finally:
        bench.close()
    assert (bench.attempted, bench.failed) == (1, 0)


def test_tampered_digest_is_a_failed_operation(tmp_path):
    tampered = "0" + harness.PINNED_DIGESTS["fig6"][1:]
    bench = _fake_bench(tmp_path, _child_output(tampered))
    try:
        assert harness.Offline(bench, "fig6").repetition(0) is None
    finally:
        bench.close()
    assert (bench.attempted, bench.failed) == (1, 1)
    assert "pinned" in bench.problems[0]


def test_each_input_must_repeat_its_digest(tmp_path):
    bench = _fake_bench(
        tmp_path, *(_child_output(digest) for digest in "aab"), seed=1
    )
    offline = harness.Offline(bench, "fig6")
    try:
        assert offline.inputs == [3, 4, 5]
        assert offline.repetition(0) is not None  # seed 3 gives "a"
        assert offline.repetition(1) is not None  # seed 4's first digest
        assert offline.repetition(3) is None  # seed 3 again, now "b"
    finally:
        bench.close()
    assert (bench.attempted, bench.failed) == (3, 1)
    assert "differs" in bench.problems[0]


def test_other_seeds_require_equal_digests_across_runs():
    assert harness.digest_problems({"digest": "a", "ratios": 3, "bad_ratios": 0}, None, "a") == []
    assert harness.digest_problems({"digest": "b", "ratios": 3, "bad_ratios": 0}, None, "a")
    assert harness.digest_problems({"digest": "a", "ratios": 3, "bad_ratios": 1}, None, None)


def test_missing_source_tree_refuses_to_run(tmp_path):
    with pytest.raises(harness.BenchError):
        harness.Bench(tmp_path, seed=0, seconds=1.0, trace=False)
