"""Cross-module integration tests.

These exercise the full GDDR loop — demand sequence → observation → policy
→ softmin translation → simulator → LP-normalised reward → PPO update —
and assert the qualitative properties the paper's evaluation rests on.
"""

import numpy as np
import pytest

from repro import (
    GNNPolicy,
    IterativeGNNPolicy,
    MLPPolicy,
    MultiGraphRoutingEnv,
    PPO,
    PPOConfig,
    RoutingEnv,
    abilene,
    batch_evaluate,
    batch_evaluate_routing,
    cyclical_sequence,
)
from repro.envs import IterativeRoutingEnv, RewardComputer
from repro.graphs import random_modification
from repro.routing import ecmp_routing, shortest_path_routing
from repro.traffic import train_test_sequences


@pytest.fixture(scope="module")
def fixed_setup():
    net = abilene()
    train, test = train_test_sequences(
        net.num_nodes, num_train=2, num_test=1, length=12, cycle_length=4, seed=0
    )
    return net, train, test, RewardComputer()


class TestEndToEndTraining:
    def test_training_improves_over_initial_policy(self, fixed_setup):
        """A short PPO run must beat the untrained policy on held-out data.

        This is the essence of Figure 7's 'both policies do learn'.
        """
        net, train, test, rewarder = fixed_setup
        policy = GNNPolicy(memory_length=3, latent=8, hidden=16, num_processing_steps=2, seed=3)
        before = batch_evaluate(
            policy, net, test, memory_length=3, reward_computer=rewarder
        ).mean

        env = RoutingEnv(net, train, memory_length=3, reward_computer=rewarder, seed=1)
        cfg = PPOConfig(n_steps=64, batch_size=32, n_epochs=4, learning_rate=1e-3)
        PPO(policy, env, cfg, seed=1).learn(640)

        after = batch_evaluate(
            policy, net, test, memory_length=3, reward_computer=rewarder
        ).mean
        # Allow a small tolerance: the run is short, but it must not regress
        # badly and typically improves.
        assert after <= before + 0.05

    def test_all_three_policies_produce_finite_rewards(self, fixed_setup):
        net, train, _, rewarder = fixed_setup
        cfg = PPOConfig(n_steps=32, batch_size=16, n_epochs=1)

        mlp = MLPPolicy(net.num_nodes, net.num_edges, memory_length=3, hidden=(16,), seed=0)
        env = RoutingEnv(net, train, memory_length=3, reward_computer=rewarder, seed=0)
        ppo = PPO(mlp, env, cfg, seed=0)
        ppo.learn(32)
        assert np.isfinite(ppo.stats.recent_mean_reward())

        gnn = GNNPolicy(memory_length=3, latent=4, hidden=8, num_processing_steps=1, seed=0)
        env = RoutingEnv(net, train, memory_length=3, reward_computer=rewarder, seed=0)
        ppo = PPO(gnn, env, cfg, seed=0)
        ppo.learn(32)
        assert np.isfinite(ppo.stats.recent_mean_reward())

        it = IterativeGNNPolicy(memory_length=3, latent=4, hidden=8, num_processing_steps=1, seed=0)
        env = IterativeRoutingEnv(net, train, memory_length=3, reward_computer=rewarder, seed=0)
        ppo = PPO(it, env, cfg, seed=0)
        ppo.learn(64)
        assert ppo.num_timesteps == 64

    def test_lp_cache_shared_across_train_and_eval(self, fixed_setup):
        net, train, test, _ = fixed_setup
        rewarder = RewardComputer()
        env = RoutingEnv(net, train, memory_length=3, reward_computer=rewarder, seed=0)
        env.reset()
        env.step(np.zeros(net.num_edges))
        solves_after_step = len(rewarder.cache)
        assert solves_after_step >= 1
        env.reset()
        env.step(np.zeros(net.num_edges))
        # Cyclical DMs: revisiting costs no new solves.
        assert len(rewarder.cache) <= solves_after_step + 1


class TestGeneralisationLoop:
    def test_gnn_policy_trained_on_mixture_runs_on_unseen_graph(self):
        """The Figure 8 workflow: train on a mixture, apply to a new graph
        with zero extra work."""
        base = abilene()
        graphs = [base, random_modification(base, seed=1)]
        pairs = [
            (g, [cyclical_sequence(g.num_nodes, 8, 4, seed=10 + i)])
            for i, g in enumerate(graphs)
        ]
        env = MultiGraphRoutingEnv(pairs, memory_length=3, seed=0)
        policy = GNNPolicy(memory_length=3, latent=4, hidden=8, num_processing_steps=1, seed=0)
        PPO(policy, env, PPOConfig(n_steps=32, batch_size=16, n_epochs=1), seed=0).learn(32)

        unseen = random_modification(base, seed=99)
        test_seq = [cyclical_sequence(unseen.num_nodes, 8, 4, seed=77)]
        result = batch_evaluate(policy, unseen, test_seq, memory_length=3).per_network[0]
        assert result.mean >= 1.0 - 1e-6
        assert np.isfinite(result.mean)

    def test_mlp_cannot_cross_topologies(self):
        """The negative result motivating GDDR."""
        base = abilene()
        modified = random_modification(base, seed=5, num_changes=1, kinds=("add_node",))
        policy = MLPPolicy(base.num_nodes, base.num_edges, memory_length=3, seed=0)
        seq = [cyclical_sequence(modified.num_nodes, 8, 4, seed=0)]
        with pytest.raises(ValueError):
            batch_evaluate(policy, modified, seq, memory_length=3)


class TestQualitativeShapes:
    def test_uniform_softmin_close_to_ecmp_baseline(self, fixed_setup):
        """Zero-action softmin (uniform weights) should be in the same league
        as ECMP — the structural reason untrained agents already beat
        single-path shortest path on Abilene."""
        net, _, test, rewarder = fixed_setup
        policy_ratios = []
        ecmp = ecmp_routing(net)
        for seq in test:
            for step in range(3, len(seq)):
                policy_ratios.append(
                    rewarder.utilisation_ratio(net, ecmp, seq.matrix(step))
                )
        sp = batch_evaluate_routing(
            shortest_path_routing, net, test, memory_length=3, reward_computer=rewarder
        )
        assert np.mean(policy_ratios) <= sp.mean + 1e-9

    def test_reward_bounded_below_by_minus_ratio_of_worst_link(self, fixed_setup):
        net, train, _, rewarder = fixed_setup
        env = RoutingEnv(net, train, memory_length=3, reward_computer=rewarder, seed=0)
        env.reset()
        rng = np.random.default_rng(0)
        for _ in range(3):
            _, reward, done, info = env.step(rng.uniform(-1, 1, net.num_edges))
            assert reward <= -(1.0 - 1e-6)
            assert reward == pytest.approx(-info["utilisation_ratio"])
            if done:
                env.reset()
