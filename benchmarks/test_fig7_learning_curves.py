"""Benchmark regenerating Figure 7: learning curves for MLP and GNN.

Paper series: mean total reward per episode over 500k timesteps; both
policies improve from ≈ -130 toward ≈ -80; the GNN plateaus earlier and
ends higher.  Expected shape at any scale: both curves are finite,
monotone-ish in trend, and the series has one point per PPO update.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro import api
from repro.api.presets import fig7_spec
from repro.experiments.reporting import format_scenario

# Full experiment runs: excluded from tier-1 (see pyproject addopts);
# run with `pytest benchmarks -m ''` or the nightly benchmark workflow.
pytestmark = pytest.mark.slow


@pytest.mark.benchmark(group="fig7")
def test_fig7_learning_curves(benchmark, bench_scale):
    result = run_once(benchmark, api.run, fig7_spec(scale=bench_scale, seed=0))
    print()
    print(format_scenario(result))

    mlp, gnn = result.curves["mlp"][0], result.curves["gnn"][0]
    for curve in (mlp, gnn):
        assert len(curve.timesteps) == bench_scale.total_timesteps // bench_scale.n_steps
        assert all(np.isfinite(r) for r in curve.mean_episode_rewards)
        # Rewards are negative utilisation-ratio sums: strictly below zero.
        assert all(r < 0.0 for r in curve.mean_episode_rewards)

    # Same training volume for both agents (the paper's parity premise).
    assert mlp.timesteps == gnn.timesteps
