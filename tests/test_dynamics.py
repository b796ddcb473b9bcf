"""The dynamics axis: time-varying networks as a first-class spec dimension.

Covers the delta/timeline data layer (fingerprint keying, variant
memoisation, demand overlays), the hand-computed failure/recovery oracle
through the batch engine and the environment, spec-level validation and
hash stability (pre-dynamics spec hashes must stay byte-identical),
null-dynamics bit-identity across ``run``/``sweep``, service rejection, and the CLI
introspection surface (``list --json`` / ``describe``).
"""

import json

import numpy as np
import pytest

from repro import api
from repro.api.presets import (
    fig6_spec,
    get_scenario,
    link_failure_flap_spec,
    zoo_large_sparse_linkflap_spec,
)
from repro.api.registry import DYNAMICS
from repro.api.spec import DynamicsSpec, ScenarioSpec, SpecValidationError
from repro.api.sweep import sweep
from repro.engine.evaluate import batch_evaluate_routing, warm_lp_cache
from repro.envs.reward import RewardComputer
from repro.envs.routing_env import RoutingEnv
from repro.experiments.runner import main
from repro.flows.lp import network_fingerprint
from repro.graphs.dynamics import NetworkDelta, NetworkTimeline, identity_timeline
from repro.graphs.modifications import failed_links, remove_random_edge
from repro.graphs.network import Network
from repro.routing.shortest_path import shortest_path_routing
from repro.traffic.sequences import DemandSequence
from repro.utils.seeding import rng_from_seed

# Captured from HEAD before the dynamics axis landed: the axis must not
# perturb any pre-existing spec hash (results stores key on these).
FIG6_HASH = "b859a860b24aeccf233a10a00b02915b0988989d03a5c3d364a9abfa8fd96059"
ZOO_LARGE_SPARSE_HASH = "59adcceca3f9a6acc413c40ac0de3cc2ab6cb15d3ed8f35a3fcbf63782b1e676"
# The other figure presets, captured before their legacy runners were
# deleted: the presets alone must keep addressing the same stored results.
FIG7_HASH = "84acf9ec3ff51df2c5dd93e0de7ced7788306ad8b0fcadb664c670ebbaaceb4f"
FIG8_MODIFICATIONS_HASH = "ae8283e7a886c2caa1d5b8b33253e5d717b71da99441a8dd26f3a3f6fa83bed5"
FIG8_DIFFERENT_HASH = "b8fa232245d15471439a9ed48a610c7b205baf22f278197255c49f39963ec9ee"


def cycle4() -> Network:
    """A 4-cycle: two disjoint 2-hop paths between opposite corners."""
    return Network.from_undirected(4, [(0, 1), (1, 2), (2, 3), (0, 3)], 10.0, name="cyc4")


def saturating_sequence(length: int) -> DemandSequence:
    """Every step demands exactly one link capacity from node 0 to node 2."""
    demand = np.zeros((4, 4))
    demand[0, 2] = 10.0
    return DemandSequence(np.stack([demand] * length), cycle_length=0)


# ---------------------------------------------------------------------------
# NetworkDelta — the structural perturbation unit
# ---------------------------------------------------------------------------


class TestNetworkDelta:
    def test_identity_applies_to_the_base_object_itself(self):
        net = cycle4()
        assert NetworkDelta().is_identity
        assert NetworkDelta().apply(net) is net

    def test_link_removal_drops_both_directed_edges(self):
        net = cycle4()
        variant = NetworkDelta(removed_links=((1, 2),)).apply(net)
        assert variant.num_edges == net.num_edges - 2
        assert (1, 2) not in variant.edges and (2, 1) not in variant.edges
        assert variant.num_nodes == net.num_nodes

    def test_links_normalise_to_sorted_undirected_pairs(self):
        assert NetworkDelta(removed_links=((2, 1),)).removed_links == ((1, 2),)
        with pytest.raises(ValueError, match="duplicate"):
            NetworkDelta(removed_links=((1, 2), (2, 1)))

    def test_unknown_link_and_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError, match="not links of"):
            NetworkDelta(removed_links=((0, 2),)).apply(cycle4())
        with pytest.raises(ValueError, match="positive and finite"):
            NetworkDelta(capacity_scale=(1.0, 0.0))
        with pytest.raises(ValueError, match="positive and finite"):
            NetworkDelta(capacity_scale=(1.0, float("inf")))

    def test_capacity_scale_multiplies_base_capacities(self):
        net = cycle4()
        scale = tuple(0.5 if i == 0 else 1.0 for i in range(net.num_edges))
        variant = NetworkDelta(capacity_scale=scale).apply(net)
        assert variant.capacities[0] == pytest.approx(5.0)
        assert variant.capacities[1] == pytest.approx(10.0)
        with pytest.raises(ValueError, match="entries for a"):
            NetworkDelta(capacity_scale=(1.0,)).apply(net)

    def test_variants_key_caches_by_delta_fingerprint(self):
        """The ROADMAP item 5 hook: sha256(base || delta) in the LP slot."""
        net = cycle4()
        delta = NetworkDelta(removed_links=((1, 2),))
        variant = delta.apply(net)
        base_fp = network_fingerprint(net)
        assert network_fingerprint(variant) != base_fp
        # Deterministic across applications (and processes: pure content).
        assert network_fingerprint(delta.apply(cycle4())) == network_fingerprint(variant)
        # Distinct deltas of the same base fingerprint differently.
        other = NetworkDelta(removed_links=((0, 1),)).apply(net)
        assert network_fingerprint(other) != network_fingerprint(variant)
        # The originating delta stays attached for incremental re-solvers.
        base, attached = variant._dynamics_delta
        assert base is net and attached == delta

    def test_fingerprint_bytes_distinguish_scale_from_removal(self):
        ident = NetworkDelta().fingerprint_bytes()
        removed = NetworkDelta(removed_links=((1, 2),)).fingerprint_bytes()
        scaled = NetworkDelta(capacity_scale=(2.0,) * 8).fingerprint_bytes()
        assert len({ident, removed, scaled}) == 3


# ---------------------------------------------------------------------------
# NetworkTimeline — the per-step schedule
# ---------------------------------------------------------------------------


class TestNetworkTimeline:
    def test_variants_memoise_per_distinct_delta(self):
        net = cycle4()
        outage = NetworkDelta(removed_links=((1, 2),))
        timeline = NetworkTimeline(net, [NetworkDelta(), outage, outage, NetworkDelta()])
        assert timeline.network_at(0) is net
        assert timeline.network_at(1) is timeline.network_at(2)
        assert timeline.network_at(3) is net
        assert len(timeline.networks()) == 2
        with pytest.raises(IndexError):
            timeline.network_at(4)

    def test_identity_timeline_is_trivial(self):
        timeline = identity_timeline(cycle4(), 5)
        assert timeline.is_trivial and len(timeline) == 5

    def test_trivial_overlay_collapses_to_none(self):
        net = cycle4()
        factors = np.ones((3, 4, 4))
        timeline = NetworkTimeline(net, [NetworkDelta()] * 3, demand_factors=factors)
        assert timeline.demand_factors is None and timeline.is_trivial
        sequence = saturating_sequence(3)
        assert timeline.transform_sequence(sequence) is sequence

    def test_demand_overlay_scales_sequences_elementwise(self):
        net = cycle4()
        factors = np.ones((3, 4, 4))
        factors[1, :, 2] = 4.0
        timeline = NetworkTimeline(net, [NetworkDelta()] * 3, demand_factors=factors)
        assert not timeline.is_trivial
        transformed = timeline.transform_sequence(saturating_sequence(3))
        assert transformed.matrix(0)[0, 2] == pytest.approx(10.0)
        assert transformed.matrix(1)[0, 2] == pytest.approx(40.0)
        assert transformed.matrix(2)[0, 2] == pytest.approx(10.0)

    def test_shape_and_length_validation(self):
        net = cycle4()
        with pytest.raises(ValueError, match="at least one step"):
            NetworkTimeline(net, [])
        with pytest.raises(ValueError, match="shape"):
            NetworkTimeline(net, [NetworkDelta()], demand_factors=np.ones((2, 4, 4)))
        timeline = NetworkTimeline(
            net, [NetworkDelta()] * 2, demand_factors=np.full((2, 4, 4), 2.0)
        )
        with pytest.raises(ValueError, match="exceeds timeline"):
            timeline.transform_sequence(saturating_sequence(3))


# ---------------------------------------------------------------------------
# The failure/recovery oracle — hand-computed, engine and environment level
# ---------------------------------------------------------------------------
#
# On the 4-cycle, demand 10.0 from node 0 to node 2 has two disjoint 2-hop
# paths.  Shortest-path routing commits to one (utilisation 1.0); the LP
# optimum splits across both (utilisation 0.5) — ratio 2.0.  Removing link
# (1, 2) leaves a single path that routing and the optimum share — ratio
# exactly 1.0.  A mid-sequence fail/recover timeline must therefore score
# [2.0, 1.0, 2.0, ...] step by step.

OUTAGE = NetworkDelta(removed_links=((1, 2),))


def flap_factory(network: Network, length: int) -> NetworkTimeline:
    """Fail (1, 2) at step 2 only, recover immediately after."""
    deltas = [OUTAGE if t == 2 else NetworkDelta() for t in range(length)]
    return NetworkTimeline(network, deltas)


class TestFailureRecoveryOracle:
    def test_engine_scores_each_step_against_its_network(self):
        result = batch_evaluate_routing(
            shortest_path_routing,
            cycle4(),
            [saturating_sequence(5)],
            memory_length=1,
            dynamics=flap_factory,
        )
        ratios = result.per_network[0].ratios
        # Scored steps 1..4; the outage sits at step 2.
        assert ratios == pytest.approx((2.0, 1.0, 2.0, 2.0))

    def test_engine_without_dynamics_matches_static_evaluation(self):
        with_none = batch_evaluate_routing(
            shortest_path_routing, cycle4(), [saturating_sequence(5)], memory_length=1
        )
        with_trivial = batch_evaluate_routing(
            shortest_path_routing,
            cycle4(),
            [saturating_sequence(5)],
            memory_length=1,
            dynamics=identity_timeline,
        )
        assert with_none.per_network[0].ratios == with_trivial.per_network[0].ratios
        assert with_none.per_network[0].ratios == pytest.approx((2.0,) * 4)

    def test_concrete_strategy_rejected_for_varying_networks(self):
        with pytest.raises(ValueError, match="factory"):
            batch_evaluate_routing(
                shortest_path_routing(cycle4()),
                cycle4(),
                [saturating_sequence(5)],
                memory_length=1,
                dynamics=flap_factory,
            )

    def test_environment_steps_through_the_perturbed_network(self):
        net = cycle4()
        env = RoutingEnv(
            net,
            [saturating_sequence(5)],
            memory_length=1,
            sample_sequences=False,
            seed=0,
            dynamics=flap_factory(net, 5),
        )
        observation = env.reset()
        assert observation.network is net
        # Step 1 (intact): the action spans the full 8-edge graph; the next
        # observation carries the 6-edge outage variant.
        observation, _, done, info = env.step(np.zeros(8))
        assert not done and observation.network.num_edges == 6
        assert info["utilisation_ratio"] > 0.0
        # Step 2 (outage): an 8-edge action no longer fits...
        with pytest.raises(ValueError, match="action has shape"):
            env.step(np.zeros(8))
        # ...and routing over the single surviving path is exactly optimal,
        # whatever the agent's weights.
        observation, reward, done, info = env.step(np.zeros(6))
        assert info["utilisation_ratio"] == pytest.approx(1.0)
        assert reward == pytest.approx(-1.0)
        assert observation.network is net  # recovered

    def test_warm_pass_presolves_each_variant_separately(self):
        net = cycle4()
        rewarder = RewardComputer()
        count = warm_lp_cache(
            net,
            [saturating_sequence(5)],
            rewarder,
            memory_length=1,
            timeline=flap_factory(net, 5),
        )
        # One distinct matrix on the base network + the same matrix on the
        # outage variant: two (network, matrix) pairs, not one.
        assert count == 2
        assert warm_lp_cache(net, [saturating_sequence(5)], rewarder, 1) == 1


# ---------------------------------------------------------------------------
# Registered dynamics components
# ---------------------------------------------------------------------------


class TestDynamicsComponents:
    def test_registry_serves_all_bundled_models(self):
        assert {"static", "link_flap", "capacity_drift", "regional_skew", "flash_crowd"} <= set(
            DYNAMICS.names()
        )

    def test_static_is_the_identity_timeline(self):
        timeline = DYNAMICS.get("static")(cycle4(), 6)
        assert timeline.is_trivial and len(timeline) == 6

    def test_link_flap_fails_and_recovers_inside_the_window(self):
        net = cycle4()
        timeline = DYNAMICS.get("link_flap")(
            net, 6, num_failures=1, fail_step=2, recover_step=4, seed=0
        )
        assert timeline.network_at(0) is net
        assert timeline.network_at(2).num_edges == net.num_edges - 2
        assert timeline.network_at(3) is timeline.network_at(2)
        assert timeline.network_at(4) is net

    def test_link_flap_is_deterministic_in_the_spec_seed(self):
        net = cycle4()
        a = DYNAMICS.get("link_flap")(net, 6, seed=3)
        b = DYNAMICS.get("link_flap")(net, 6, seed=3)
        assert a.deltas == b.deltas

    def test_link_flap_window_validation(self):
        with pytest.raises(SpecValidationError, match="num_failures >= 1"):
            DYNAMICS.get("link_flap")(cycle4(), 6, num_failures=0)
        with pytest.raises(SpecValidationError, match="0 <= start < end"):
            DYNAMICS.get("link_flap")(cycle4(), 6, fail_step=4, recover_step=3)
        with pytest.raises(SpecValidationError, match="0 <= start < end"):
            DYNAMICS.get("link_flap")(cycle4(), 6, fail_step=1, recover_step=9)
        with pytest.raises(SpecValidationError, match="without disconnecting"):
            DYNAMICS.get("link_flap")(cycle4(), 6, num_failures=4)

    def test_capacity_drift_keeps_capacities_positive_and_heterogeneous(self):
        net = cycle4()
        timeline = DYNAMICS.get("capacity_drift")(
            net, 8, amplitude=0.5, heterogeneity=0.3, seed=1
        )
        assert not timeline.is_trivial
        for step in range(8):
            variant = timeline.network_at(step)
            assert variant.num_edges == net.num_edges
            assert np.all(np.asarray(variant.capacities) > 0.0)
        # Random phases desynchronise the links: capacities differ per edge.
        caps = np.asarray(timeline.network_at(1).capacities)
        assert np.ptp(caps) > 0.0
        with pytest.raises(SpecValidationError, match="amplitude"):
            DYNAMICS.get("capacity_drift")(net, 8, amplitude=1.0)

    def test_regional_skew_scales_demand_into_the_region_only(self):
        net = cycle4()
        timeline = DYNAMICS.get("regional_skew")(net, 3, fraction=0.25, factor=3.0, seed=0)
        factors = timeline.demand_factors
        assert factors is not None and factors.shape == (3, 4, 4)
        region = np.where(factors[0, 0] == 3.0)[0]
        assert region.size == 1  # round(0.25 * 4) = 1 node
        untouched = np.delete(factors[0], region, axis=1)
        assert np.all(untouched == 1.0)

    def test_flash_crowd_bursts_only_inside_the_window(self):
        net = cycle4()
        timeline = DYNAMICS.get("flash_crowd")(
            net, 8, hotspots=1, factor=5.0, start=3, duration=2, seed=0
        )
        factors = timeline.demand_factors
        assert np.all(factors[2] == 1.0)
        assert np.any(factors[3] == 5.0) and np.any(factors[4] == 5.0)
        assert np.all(factors[5] == 1.0)
        with pytest.raises(SpecValidationError, match="hotspots"):
            DYNAMICS.get("flash_crowd")(net, 8, hotspots=9)

    def test_failed_links_names_the_missing_link(self):
        # link_flap turns a degraded variant into its outage delta this way.
        net = cycle4()
        variant = remove_random_edge(net, rng_from_seed(0))
        [link] = failed_links(net, variant)
        assert link in {(0, 1), (1, 2), (2, 3), (0, 3)}
        assert failed_links(net, net) == []


# ---------------------------------------------------------------------------
# Spec axis: validation, normalisation, hash stability
# ---------------------------------------------------------------------------


class TestDynamicsSpec:
    def test_unknown_model_rejected_eagerly(self):
        with pytest.raises(api.UnknownComponentError, match="dynamics"):
            DynamicsSpec("wormhole")

    def test_static_takes_no_params(self):
        with pytest.raises(SpecValidationError, match="identity model"):
            DynamicsSpec("static", {"seed": 1})

    def test_explicit_static_normalises_to_none(self):
        base = get_scenario("zoo-large-sparse")
        explicit = base.with_updates({"dynamics": "static"})
        assert explicit.dynamics is None
        assert explicit == base
        assert explicit.spec_hash() == base.spec_hash()

    def test_dynamics_omitted_from_to_dict_at_default(self):
        assert "dynamics" not in fig6_spec().to_dict()
        assert "dynamics" in zoo_large_sparse_linkflap_spec().to_dict()

    def test_pre_dynamics_spec_hashes_are_byte_identical_to_head(self):
        assert fig6_spec().spec_hash() == FIG6_HASH
        assert get_scenario("zoo-large-sparse").spec_hash() == ZOO_LARGE_SPARSE_HASH
        assert get_scenario("fig7").spec_hash() == FIG7_HASH
        assert get_scenario("fig8-modifications").spec_hash() == FIG8_MODIFICATIONS_HASH
        assert get_scenario("fig8-different").spec_hash() == FIG8_DIFFERENT_HASH

    def test_dynamic_spec_round_trips_through_json(self):
        spec = zoo_large_sparse_linkflap_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        shorthand = ScenarioSpec.from_dict(
            {"name": "d", "routing": {"strategies": ["ecmp"]}, "dynamics": "link_flap"}
        )
        assert shorthand.dynamics == DynamicsSpec("link_flap")

    def test_iterative_policies_rejected_under_dynamics(self):
        with pytest.raises(SpecValidationError, match="iterative"):
            ScenarioSpec(
                name="bad",
                routing={"policies": ["gnn_iterative"]},
                dynamics={"name": "link_flap"},
            )

    def test_bad_dynamics_params_surface_as_validation_error(self):
        spec = link_failure_flap_spec().with_updates({"dynamics.params.banana": 1})
        with pytest.raises(SpecValidationError, match="rejected params|unexpected"):
            api.run(spec)


# ---------------------------------------------------------------------------
# Null-dynamics bit-identity and sweep == run for dynamic scenarios
# ---------------------------------------------------------------------------


def tiny_flap_spec(seeds=(0,)) -> ScenarioSpec:
    """A training-free dynamic scenario cheap enough to run repeatedly."""
    return ScenarioSpec(
        name="flap-fast",
        traffic={"model": "bimodal", "length": 8, "cycle_length": 4,
                 "num_train": 1, "num_test": 1},
        routing={"strategies": ["shortest_path", "ecmp"]},
        dynamics={"name": "link_flap", "params": {"fail_step": 4, "recover_step": 6}},
        evaluation={"metrics": ["utilisation_ratio"], "seeds": list(seeds)},
    )


class TestRunAndSweep:
    def test_null_dynamics_run_is_bit_identical(self):
        base = tiny_flap_spec().with_updates({"dynamics": None})
        explicit = base.with_updates({"dynamics": "static"})
        a, b = api.run(base), api.run(explicit)
        for label in a.strategies:
            assert a.strategies[label].ratios == b.strategies[label].ratios

    def test_dynamics_changes_scored_ratios(self):
        static = api.run(tiny_flap_spec().with_updates({"dynamics": None}))
        dynamic = api.run(tiny_flap_spec())
        assert any(
            static.strategies[label].ratios != dynamic.strategies[label].ratios
            for label in static.strategies
        )

    def test_sweep_matches_run_for_a_dynamic_scenario(self, tmp_path):
        spec = tiny_flap_spec(seeds=(0, 1))
        direct = api.run(spec)
        fanned = sweep(
            spec,
            executor="queue",
            queue=tmp_path / "q",
            store=tmp_path / "store",
            workers=2,
            queue_options={"poll_interval": 0.1, "timeout": 240},
        )
        assert fanned.executions == 2
        for label in direct.strategies:
            assert fanned.result.strategies[label].ratios == direct.strategies[label].ratios

    def test_run_scores_the_linkflap_preset_per_step(self):
        result = api.run(zoo_large_sparse_linkflap_spec())
        for label, entry in result.strategies.items():
            assert entry.count == 5 and np.all(np.asarray(entry.ratios) >= 1.0 - 1e-9)


# ---------------------------------------------------------------------------
# Service: dynamic scenarios are rejected, never silently served statically
# ---------------------------------------------------------------------------


class TestServiceRejection:
    def test_service_spec_rejects_dynamic_scenarios(self):
        with pytest.raises(SpecValidationError, match="cannot serve a dynamic"):
            api.ServiceSpec(scenario=tiny_flap_spec())

    def test_explicit_static_scenario_deploys_identically(self):
        base = api.ServiceSpec(scenario=tiny_flap_spec().with_updates({"dynamics": None}))
        explicit = api.ServiceSpec(
            scenario=tiny_flap_spec().with_updates({"dynamics": "static"})
        )
        assert base.spec_hash() == explicit.spec_hash()

    def test_serve_cli_rejects_dynamic_scenario_with_exit_2(self, capsys):
        code = main(["serve", "link-failure-flap", "--port", "0"])
        assert code == 2
        assert "dynamic" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI introspection: list --json and describe
# ---------------------------------------------------------------------------


class TestCliIntrospection:
    def test_list_includes_the_dynamics_axis(self, capsys):
        assert main(["list", "dynamics"]) == 0
        out = capsys.readouterr().out
        assert "link_flap" in out and "flash_crowd" in out

    def test_list_json_is_machine_readable(self, capsys):
        assert main(["list", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert set(catalog) == {
            "topologies", "traffic", "strategies", "policies", "dynamics", "scenarios",
        }
        by_name = {entry["name"]: entry for entry in catalog["dynamics"]}
        flap = by_name["link_flap"]
        assert flap["description"] and flap["doc"]
        params = {p["name"]: p for p in flap["params"]}
        assert params["num_failures"]["default"] == 1
        assert params["network"]["required"] and params["length"]["required"]

    def test_describe_prints_params_with_defaults(self, capsys):
        assert main(["describe", "dynamics", "link_flap"]) == 0
        out = capsys.readouterr().out
        assert "dynamics/link_flap" in out
        assert "num_failures" in out and "default=1" in out

    def test_describe_json_round_trips(self, capsys):
        assert main(["describe", "traffic", "bimodal", "--json"]) == 0
        entry = json.loads(capsys.readouterr().out)
        assert entry["axis"] == "traffic" and entry["name"] == "bimodal"

    def test_describe_unknown_component_exits_2(self, capsys):
        assert main(["describe", "dynamics", "wormhole"]) == 2
        assert "unknown" in capsys.readouterr().err
