"""Tests for the experiment harness (quick-preset end-to-end runs)."""

import numpy as np
import pytest

from repro import api, batch_evaluate, batch_evaluate_routing
from repro.api.presets import (
    fig6_spec,
    fig7_spec,
    fig8_different_spec,
    fig8_modifications_spec,
    throughput_spec,
)
from repro.engine import EvaluationResult
from repro.experiments.config import PRESETS, ExperimentScale, get_preset, scaled
from repro.experiments.reporting import format_scenario
from repro.graphs import abilene
from repro.policies import GNNPolicy, IterativeGNNPolicy
from repro.routing import shortest_path_routing
from repro.traffic import cyclical_sequence


class TestConfig:
    def test_presets_exist(self):
        assert set(PRESETS) == {"quick", "standard", "paper"}

    def test_paper_preset_matches_publication(self):
        paper = get_preset("paper")
        assert paper.total_timesteps == 500_000
        assert paper.sequence_length == 60
        assert paper.cycle_length == 10
        assert paper.memory_length == 5
        assert paper.num_train_sequences == 7
        assert paper.num_test_sequences == 3

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            get_preset("galactic")

    def test_scaled_override(self):
        scale = scaled("quick", total_timesteps=999)
        assert scale.total_timesteps == 999
        assert scale.memory_length == get_preset("quick").memory_length

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentScale(total_timesteps=10, n_steps=64, batch_size=8, n_epochs=1)
        with pytest.raises(ValueError):
            ExperimentScale(
                total_timesteps=100,
                n_steps=64,
                batch_size=8,
                n_epochs=1,
                sequence_length=3,
                memory_length=5,
            )


class TestEvaluate:
    def _setup(self):
        net = abilene()
        seqs = [cyclical_sequence(net.num_nodes, 8, 4, seed=i) for i in range(2)]
        return net, seqs

    def test_evaluation_result_statistics(self):
        result = EvaluationResult((1.0, 2.0, 3.0))
        assert result.mean == pytest.approx(2.0)
        assert result.count == 3
        assert result.std == pytest.approx(np.std([1.0, 2.0, 3.0]))

    def test_evaluate_untrained_gnn_policy(self):
        net, seqs = self._setup()
        policy = GNNPolicy(memory_length=3, latent=8, hidden=8, num_processing_steps=2, seed=0)
        result = batch_evaluate(policy, net, seqs, memory_length=3).per_network[0]
        # one ratio per post-warmup DM per sequence
        assert result.count == 2 * (8 - 3)
        assert result.mean >= 1.0 - 1e-6

    def test_evaluate_iterative_policy(self):
        net, seqs = self._setup()
        policy = IterativeGNNPolicy(memory_length=3, latent=8, hidden=8, num_processing_steps=2, seed=0)
        result = batch_evaluate(policy, net, seqs, memory_length=3, iterative=True).per_network[0]
        assert result.count == 2 * (8 - 3)

    def test_shortest_path_baseline(self):
        net, seqs = self._setup()
        result = batch_evaluate_routing(
            shortest_path_routing, net, seqs, memory_length=3
        ).per_network[0]
        assert result.count == 2 * (8 - 3)
        assert result.mean >= 1.0

    def test_deterministic_evaluation(self):
        net, seqs = self._setup()
        policy = GNNPolicy(memory_length=3, latent=8, hidden=8, seed=0)
        a = batch_evaluate(policy, net, seqs, memory_length=3)
        b = batch_evaluate(policy, net, seqs, memory_length=3)
        assert a.ratios == b.ratios


class TestRunners:
    """Test-sized runs of each figure's scenario preset through the API."""

    TINY = ExperimentScale(
        total_timesteps=64,
        n_steps=32,
        batch_size=16,
        n_epochs=1,
        sequence_length=8,
        cycle_length=4,
        memory_length=3,
        num_train_sequences=1,
        num_test_sequences=1,
        latent=4,
        hidden=8,
        num_processing_steps=1,
        mlp_hidden=(16,),
        num_train_graphs=2,
        num_test_graphs=1,
    )

    def test_fig6_runs_and_reports(self):
        result = api.run(fig6_spec(scale=self.TINY, seed=0))
        rows = result.rows()
        assert [label for label, _ in rows] == ["mlp", "gnn", "gnn_iterative", "shortest_path"]
        assert all(mean >= 1.0 - 1e-6 for _, mean in rows)
        text = format_scenario(result)
        assert "Fig. 6" in text and "mlp" in text

    def test_fig7_runs_and_reports(self):
        result = api.run(fig7_spec(scale=self.TINY, seed=0))
        [mlp], [gnn] = result.curves["mlp"], result.curves["gnn"]
        assert len(mlp.timesteps) == 2  # 64 steps / 32 per update
        assert len(gnn.mean_episode_rewards) == 2
        text = format_scenario(result)
        assert "Fig. 7" in text and "learning curves" in text

    def test_fig8_runs_and_reports(self):
        for builder in (fig8_modifications_spec, fig8_different_spec):
            result = api.run(builder(scale=self.TINY, seed=0))
            rows = result.rows()
            assert [label for label, _ in rows] == ["gnn", "gnn_iterative", "shortest_path"]
            assert all(mean >= 1.0 - 1e-6 for _, mean in rows)
            assert "Fig. 8" in format_scenario(result)

    def test_throughput_runs(self):
        result = api.run(throughput_spec(scale=self.TINY, seed=0))
        assert result.throughput["mlp"] > 0
        assert result.throughput["gnn"] > 0
        assert "fps" in format_scenario(result)

    def test_cli_parser(self):
        from repro.experiments.runner import build_parser

        args = build_parser().parse_args(
            ["run", "fig6", "--preset", "quick", "--timesteps", "128"]
        )
        assert args.command == "run"
        assert args.scenario == "fig6"
        assert args.timesteps == 128
