"""Experiment scale presets.

The paper trains for 500k timesteps on 60-DM sequences (cycle 10, memory
5, 7 train / 3 test).  A pure-numpy reproduction cannot afford that in a
test suite, so every experiment takes an :class:`ExperimentScale`:

* ``quick``    — seconds; exercises every code path (CI and pytest-benchmark);
* ``standard`` — minutes; enough training for the paper's qualitative
  shapes (learned policies beat shortest path, GNN ≥ MLP) to emerge;
* ``paper``    — the published schedule; hours on a CPU, as in the paper
  ("2 hours on a commodity PC" per agent at ~70 fps).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs shared by all experiment runners.

    Sequence parameters follow paper §VIII-D; PPO parameters follow the
    stable-baselines defaults the paper used.
    """

    # Training volume
    total_timesteps: int
    n_steps: int
    batch_size: int
    n_epochs: int
    learning_rate: float = 3e-4
    # Per-agent tuned hyperparameters (the paper tuned each agent with
    # OpenTuner before training, §VIII-C).  The MLP baseline needs a
    # gentler schedule than the GNN to stay stable at reduced training
    # scale.
    mlp_learning_rate: float = 1e-4
    mlp_initial_log_std: float = -1.2
    mlp_linear_lr_decay: bool = True
    gnn_initial_log_std: float = -0.7
    # Workload (paper: 60-DM sequences, cycle 10, memory 5, 7 train, 3 test)
    sequence_length: int = 60
    cycle_length: int = 10
    memory_length: int = 5
    num_train_sequences: int = 7
    num_test_sequences: int = 3
    # Policy sizes
    latent: int = 16
    hidden: int = 32
    num_processing_steps: int = 3
    mlp_hidden: tuple = (64, 64)
    # Routing translation
    softmin_gamma: float = 2.0
    weight_scale: float = 3.0
    # Fig. 8 pools
    num_train_graphs: int = 4
    num_test_graphs: int = 2

    def __post_init__(self):
        if self.total_timesteps < self.n_steps:
            raise ValueError("total_timesteps must be >= n_steps")
        if self.sequence_length <= self.memory_length:
            raise ValueError("sequence_length must exceed memory_length")


PRESETS: dict[str, ExperimentScale] = {
    "quick": ExperimentScale(
        total_timesteps=256,
        n_steps=64,
        batch_size=32,
        n_epochs=2,
        sequence_length=12,
        cycle_length=4,
        memory_length=3,
        num_train_sequences=2,
        num_test_sequences=1,
        latent=8,
        hidden=16,
        num_processing_steps=2,
        num_train_graphs=2,
        num_test_graphs=1,
    ),
    "standard": ExperimentScale(
        total_timesteps=12_000,
        n_steps=256,
        batch_size=64,
        n_epochs=4,
        sequence_length=30,
        cycle_length=5,
        memory_length=5,
        num_train_sequences=4,
        num_test_sequences=2,
        num_train_graphs=4,
        num_test_graphs=2,
    ),
    "paper": ExperimentScale(
        total_timesteps=500_000,
        n_steps=2048,
        batch_size=128,
        n_epochs=4,
        sequence_length=60,
        cycle_length=10,
        memory_length=5,
        num_train_sequences=7,
        num_test_sequences=3,
        num_train_graphs=6,
        num_test_graphs=3,
    ),
}


def get_preset(name: str) -> ExperimentScale:
    """Fetch a preset by name with a helpful error."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None


def scale_field_names() -> list[str]:
    """The override keys :func:`scaled` (and spec validation) accept."""
    return [f.name for f in fields(ExperimentScale)]


def scaled(preset: str, **overrides) -> ExperimentScale:
    """A preset with fields overridden (e.g. ``scaled('quick', total_timesteps=512)``).

    Unknown field names raise a :class:`ValueError` naming the bad key and
    listing the valid ones, instead of the dataclass's raw ``TypeError``.
    """
    valid = scale_field_names()
    unknown = sorted(set(overrides) - set(valid))
    if unknown:
        raise ValueError(
            f"unknown ExperimentScale field(s) {unknown}; valid fields: {valid}"
        )
    return replace(get_preset(preset), **overrides)
