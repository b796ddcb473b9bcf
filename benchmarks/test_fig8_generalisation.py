"""Benchmark regenerating Figure 8: generalising to unseen graphs.

Paper series: mean max-utilisation ratios for GNN and GNN-Iterative under
(a) random ±1-2 node/edge modifications of Abilene (bars ≈ 1.15-1.25,
below the ≈1.5 shortest-path line) and (b) entirely different graphs
(bars ≈ 1.8-2.2 — much higher, because softmin's approximations are far
from the multipath optimum on some structures).  Expected shape: policies
evaluate successfully on graphs never seen in training; the
"different graphs" ratios exceed the "modifications" ratios.
"""

import pytest

from benchmarks.conftest import run_once
from repro import api
from repro.api.presets import fig8_different_spec, fig8_modifications_spec
from repro.experiments.reporting import format_scenario

# Full experiment runs: excluded from tier-1 (see pyproject addopts);
# run with `pytest benchmarks -m ''` or the nightly benchmark workflow.
pytestmark = pytest.mark.slow


def run_both_settings(scale):
    """Both Figure 8 settings: (modifications, different graphs)."""
    return (
        api.run(fig8_modifications_spec(scale=scale, seed=0)),
        api.run(fig8_different_spec(scale=scale, seed=0)),
    )


@pytest.mark.benchmark(group="fig8")
def test_fig8_generalisation(benchmark, bench_scale):
    modifications, different = run_once(benchmark, run_both_settings, bench_scale)
    for result in (modifications, different):
        print()
        print(format_scenario(result))

    for result in (modifications, different):
        assert result.ratio("gnn") >= 1.0 - 1e-6
        assert result.ratio("gnn_iterative") >= 1.0 - 1e-6
        assert result.ratio("shortest_path") >= 1.0 - 1e-6
        assert result.policies["gnn"].count > 0 and result.policies["gnn_iterative"].count > 0

    # The generalisation gap: random unseen structures are harder for the
    # softmin translation than modified Abilene (paper's 'oddity' about the
    # very different bar heights).  Averaged over both policies.
    mods = (modifications.ratio("gnn") + modifications.ratio("gnn_iterative")) / 2
    diff = (different.ratio("gnn") + different.ratio("gnn_iterative")) / 2
    assert diff >= mods * 0.8, (mods, diff)
