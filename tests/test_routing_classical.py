"""Tests for shortest-path/ECMP and the LP-derived oblivious baselines."""

import numpy as np
import pytest

from repro.flows.lp import solve_optimal_max_utilisation
from repro.flows.simulator import link_loads, max_link_utilisation, utilisation_ratio
from repro.graphs import TOPOLOGY_NAMES, Network, abilene, topology
from repro.routing.oblivious import cancel_flow_cycles, lp_derived_routing, oblivious_routing
from repro.routing.shortest_path import (
    ecmp_routing,
    inverse_capacity_weights,
    shortest_path_routing,
)
from repro.routing.strategy import validate_routing
from repro.traffic import bimodal_matrix
from tests import oracles
from tests.helpers import line_network, square_network, triangle_network


def all_pairs(net):
    return [(s, t) for s in range(net.num_nodes) for t in range(net.num_nodes) if s != t]


class TestShortestPath:
    def test_single_path_per_destination(self):
        net = square_network()
        routing = shortest_path_routing(net)
        for s, t in all_pairs(net):
            validate_routing(routing, s, t)
            # single-path: at most one outgoing ratio per vertex, and binary
            vector = routing.ratios(s, t)
            assert set(np.round(vector, 9)) <= {0.0, 1.0}

    def test_line_graph_unique_route(self):
        net = line_network(4)
        routing = shortest_path_routing(net)
        loads = link_loads(net, routing, _dm(net, 0, 3, 6.0))
        assert loads[net.edge_index[(0, 1)]] == pytest.approx(6.0)
        assert loads[net.edge_index[(1, 2)]] == pytest.approx(6.0)
        assert loads[net.edge_index[(2, 3)]] == pytest.approx(6.0)

    def test_respects_weights(self):
        net = triangle_network()
        weights = np.ones(net.num_edges)
        weights[net.edge_index[(0, 2)]] = 10.0
        routing = shortest_path_routing(net, weights)
        vector = routing.ratios(0, 2)
        assert vector[net.edge_index[(0, 1)]] == 1.0  # detour is cheaper
        assert vector[net.edge_index[(0, 2)]] == 0.0

    def test_rejects_nonpositive_weights(self):
        net = triangle_network()
        nan_weight = np.ones(net.num_edges)
        nan_weight[0] = np.nan  # NaN fails every comparison; must not drop the link
        for weights in (np.zeros(net.num_edges), nan_weight):
            for build in (shortest_path_routing, ecmp_routing):
                with pytest.raises(ValueError, match="positive"):
                    build(net, weights)

    def test_rejects_bad_weight_shape(self):
        with pytest.raises(ValueError, match="shape"):
            shortest_path_routing(triangle_network(), np.ones(3))


class TestECMP:
    def test_even_split_on_equal_paths(self):
        # Square without diagonal: 0->2 has two 2-hop paths.
        from repro.graphs import Network

        net = Network.from_undirected(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        routing = ecmp_routing(net)
        vector = routing.ratios(0, 2)
        assert vector[net.edge_index[(0, 1)]] == pytest.approx(0.5)
        assert vector[net.edge_index[(0, 3)]] == pytest.approx(0.5)

    def test_all_pairs_valid(self):
        net = abilene()
        routing = ecmp_routing(net)
        for s, t in all_pairs(net):
            validate_routing(routing, s, t)

    def test_ecmp_never_worse_than_single_path_on_uniform(self):
        net = abilene()
        dm = bimodal_matrix(net.num_nodes, seed=3)
        sp = max_link_utilisation(net, shortest_path_routing(net), dm)
        ecmp = max_link_utilisation(net, ecmp_routing(net), dm)
        assert ecmp <= sp * (1.0 + 1e-9)

    def test_inverse_capacity_weights(self):
        net = triangle_network().with_capacities([10.0, 20.0, 10.0, 20.0, 10.0, 20.0])
        weights = inverse_capacity_weights(net)
        assert weights[0] == pytest.approx(2.0)
        assert weights[1] == pytest.approx(1.0)


def _weightings(net):
    """Unit, random real and small-integer weights (the last forces ties)."""
    rng = np.random.default_rng(net.num_edges)
    return {
        "unit": None,
        "uniform": rng.uniform(0.1, 5.0, net.num_edges),
        "integer": rng.integers(1, 4, net.num_edges).astype(np.float64),
    }


class TestBatchedTablesMatchOracle:
    """The batched tables equal the per-destination loops byte for byte."""

    @pytest.mark.parametrize("name", TOPOLOGY_NAMES)
    def test_every_zoo_member_every_weighting(self, name):
        net = topology(name)
        for label, weights in _weightings(net).items():
            for batched, loop in (
                (shortest_path_routing, oracles.shortest_path_routing),
                (ecmp_routing, oracles.ecmp_routing),
            ):
                expected = loop(net, weights).destination_table()
                table = batched(net, weights).destination_table()
                assert table.tobytes() == expected.tobytes(), (name, label, batched.__name__)

    def test_unreachable_pairs_and_one_way_edges(self):
        # Nothing reaches node 3, and the cycle 0 -> 1 -> 2 runs one way.
        net = Network(4, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 2)])
        for weights in (None, np.array([1.0, 1.0, 1.0, 2.0, 1.0])):
            for batched, loop in (
                (shortest_path_routing, oracles.shortest_path_routing),
                (ecmp_routing, oracles.ecmp_routing),
            ):
                expected = loop(net, weights).destination_table()
                assert batched(net, weights).destination_table().tobytes() == expected.tobytes()

    def test_weights_below_the_tie_tolerance(self):
        # Every path ties within the tolerance, even edges out of the
        # destination itself; those must still carry nothing.
        net = abilene()
        weights = np.full(net.num_edges, 1e-12)
        for batched, loop in (
            (shortest_path_routing, oracles.shortest_path_routing),
            (ecmp_routing, oracles.ecmp_routing),
        ):
            expected = loop(net, weights).destination_table()
            assert batched(net, weights).destination_table().tobytes() == expected.tobytes()


class TestObliviousRouting:
    def test_valid_for_all_pairs(self):
        net = abilene()
        routing = oblivious_routing(net)
        for s, t in all_pairs(net):
            validate_routing(routing, s, t)

    def test_lp_derived_achieves_optimum_on_reference(self):
        net = abilene()
        reference = bimodal_matrix(net.num_nodes, seed=8)
        routing = lp_derived_routing(net, reference)
        optimal = solve_optimal_max_utilisation(net, reference).max_utilisation
        achieved = max_link_utilisation(net, routing, reference)
        assert achieved == pytest.approx(optimal, rel=1e-5)

    def test_oblivious_reasonable_on_unseen_demand(self):
        net = abilene()
        dm = bimodal_matrix(net.num_nodes, seed=9)
        ratio = utilisation_ratio(net, oblivious_routing(net), dm)
        assert 1.0 - 1e-9 <= ratio < 2.0

    def test_cancel_flow_cycles_removes_circulation(self):
        net = triangle_network()
        flows = np.zeros(net.num_edges)
        # A pure 3-cycle plus a real path 0->1.
        flows[net.edge_index[(0, 1)]] = 2.0  # 1 path + 1 circulating
        flows[net.edge_index[(1, 2)]] = 1.0
        flows[net.edge_index[(2, 0)]] = 1.0
        cleaned = cancel_flow_cycles(net, flows)
        assert cleaned[net.edge_index[(1, 2)]] == pytest.approx(0.0)
        assert cleaned[net.edge_index[(2, 0)]] == pytest.approx(0.0)
        assert cleaned[net.edge_index[(0, 1)]] == pytest.approx(1.0)

    def test_cancel_flow_cycles_preserves_acyclic_flow(self):
        net = line_network(3)
        flows = np.zeros(net.num_edges)
        flows[net.edge_index[(0, 1)]] = 3.0
        flows[net.edge_index[(1, 2)]] = 3.0
        np.testing.assert_allclose(cancel_flow_cycles(net, flows), flows)


def _dm(net, s, t, d):
    dm = np.zeros((net.num_nodes, net.num_nodes))
    dm[s, t] = d
    return dm
