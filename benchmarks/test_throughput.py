"""Benchmark for §VIII-D training-throughput parity.

Paper prose: "Both agents learnt at the same rate of roughly 70 frames per
second" on 6 CPU cores (500k steps ≈ 2 hours) — i.e. the GNN adds no
meaningful training-time overhead because the LP reward dominates.
Expected shape: MLP and GNN steps/second within a small factor of each
other (we assert < 8x to stay robust on loaded CI machines; typical
measured overhead here is 1-2x).
"""

import pytest

from benchmarks.conftest import run_once
from repro import api
from repro.api.presets import throughput_spec
from repro.experiments.reporting import format_scenario

# Full experiment runs: excluded from tier-1 (see pyproject addopts);
# run with `pytest benchmarks -m ''` or the nightly benchmark workflow.
pytestmark = pytest.mark.slow


@pytest.mark.benchmark(group="throughput")
def test_throughput_parity(benchmark, bench_scale):
    result = run_once(benchmark, api.run, throughput_spec(scale=bench_scale, seed=0))
    print()
    print(format_scenario(result))

    mlp_fps, gnn_fps = result.throughput["mlp"], result.throughput["gnn"]
    assert mlp_fps > 0.0
    assert gnn_fps > 0.0
    gnn_overhead = mlp_fps / gnn_fps  # GNN slowdown factor (1.0 = parity)
    assert gnn_overhead < 8.0, gnn_overhead
