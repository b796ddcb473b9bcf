"""ISP-backbone traffic engineering: MLP vs GNN on a fixed topology.

The scenario from the paper's introduction: an autonomous system routes
internal traffic with temporal regularities (daily/weekly cycles) and
wants to minimise worst-link congestion.  This example trains the
Valadarsky-style MLP baseline and the GDDR one-shot GNN on the same
Abilene workload and compares them against shortest-path routing and the
hindsight LP optimum — a configurable-scale version of the paper's
Figure 6 experiment.

Run:  python examples/isp_backbone_comparison.py [--timesteps 4096]
"""

import argparse

from repro import (
    GNNPolicy,
    MLPPolicy,
    PPO,
    PPOConfig,
    RoutingEnv,
    abilene,
    batch_evaluate,
    batch_evaluate_routing,
    shortest_path_routing,
)
from repro.envs import RewardComputer
from repro.traffic import train_test_sequences

MEMORY = 5


def train(policy, network, sequences, rewarder, timesteps, seed):
    env = RoutingEnv(network, sequences, memory_length=MEMORY, reward_computer=rewarder, seed=seed)
    config = PPOConfig(n_steps=256, batch_size=64, n_epochs=4, learning_rate=5e-4)
    ppo = PPO(policy, env, config, seed=seed)
    ppo.learn(timesteps)
    return ppo.stats.recent_mean_reward()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timesteps", type=int, default=4096)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    network = abilene()
    train_seqs, test_seqs = train_test_sequences(
        network.num_nodes, num_train=7, num_test=3, length=60, cycle_length=10, seed=args.seed
    )
    rewarder = RewardComputer()

    print(f"Workload: {len(train_seqs)} train / {len(test_seqs)} test sequences, "
          f"60 DMs each, cycle 10, memory {MEMORY} (paper Fig. 6 setup)")
    print(f"Training each agent for {args.timesteps} timesteps...\n")

    mlp = MLPPolicy(network.num_nodes, network.num_edges, memory_length=MEMORY, seed=args.seed)
    mlp_train_reward = train(mlp, network, train_seqs, rewarder, args.timesteps, args.seed + 1)
    print(f"  MLP trained   (final mean episode reward {mlp_train_reward:.1f})")

    gnn = GNNPolicy(memory_length=MEMORY, seed=args.seed)
    gnn_train_reward = train(gnn, network, train_seqs, rewarder, args.timesteps, args.seed + 2)
    print(f"  GNN trained   (final mean episode reward {gnn_train_reward:.1f})")

    print("\nHeld-out test performance (mean max-utilisation ratio, 1.0 = optimal):")
    common = dict(memory_length=MEMORY, reward_computer=rewarder)
    results = [
        ("MLP (Valadarsky et al.)", batch_evaluate(mlp, network, test_seqs, **common).mean),
        ("GNN (GDDR)", batch_evaluate(gnn, network, test_seqs, **common).mean),
        (
            "shortest path",
            batch_evaluate_routing(shortest_path_routing, network, test_seqs, **common).mean,
        ),
    ]
    for label, mean in sorted(results, key=lambda r: r[1]):
        print(f"  {label:<26} {mean:.3f}")


if __name__ == "__main__":
    main()
