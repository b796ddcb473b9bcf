"""Tests for the Figure 8 random topology-modification operator."""

import numpy as np
import pytest

from repro.graphs import TOPOLOGY_NAMES, Network, abilene, random_modification, topology
from repro.graphs import modifications
from repro.graphs.modifications import (
    MODIFICATION_KINDS,
    add_random_edge,
    add_random_node,
    remove_random_edge,
    remove_random_node,
)
from tests import oracles
from tests.helpers import line_network, triangle_network


def undirected_links(net: Network) -> set:
    return {tuple(sorted(e)) for e in net.edges}


class TestIndividualOperators:
    def test_add_edge_increases_count(self):
        net = abilene()
        rng = np.random.default_rng(0)
        out = add_random_edge(net, rng)
        assert len(undirected_links(out)) == len(undirected_links(net)) + 1
        assert out.is_strongly_connected()

    def test_add_edge_on_complete_graph_returns_none(self):
        complete = Network.from_undirected(3, [(0, 1), (1, 2), (0, 2)])
        assert add_random_edge(complete, np.random.default_rng(0)) is None

    def test_remove_edge_keeps_connectivity(self):
        net = abilene()
        rng = np.random.default_rng(1)
        out = remove_random_edge(net, rng)
        assert len(undirected_links(out)) == len(undirected_links(net)) - 1
        assert out.is_strongly_connected()

    def test_remove_edge_on_tree_returns_none(self):
        tree = line_network(4)
        assert remove_random_edge(tree, np.random.default_rng(0)) is None

    def test_add_node_appends_connected_node(self):
        net = triangle_network()
        out = add_random_node(net, np.random.default_rng(2), degree=2)
        assert out.num_nodes == 4
        assert out.is_strongly_connected()
        assert len(out.neighbours(3)) == 2

    def test_remove_node_relabels_and_stays_connected(self):
        net = abilene()
        out = remove_random_node(net, np.random.default_rng(3))
        assert out.num_nodes == 10
        assert out.is_strongly_connected()

    def test_remove_node_refuses_tiny_graph(self):
        assert remove_random_node(triangle_network(), np.random.default_rng(0)) is None


def assert_same_network(actual, expected):
    if expected is None:
        assert actual is None
        return
    assert actual == expected
    assert actual.name == expected.name


#: Two or three components with no isolated node (nothing is removable),
#: and a 4-cycle beside an isolated node (the one removable node).
DISCONNECTED = {
    "two-pairs": Network.from_undirected(4, [(0, 1), (2, 3)]),
    "three-components": Network.from_undirected(6, [(0, 1), (2, 3), (4, 5)]),
    "isolated-node": Network.from_undirected(5, [(0, 1), (1, 2), (2, 3), (3, 0)]),
}


#: Edge and node removal as the per-candidate loops and as the networkx
#: bridge / articulation-point passes did them.
EDGE_ORACLES = (oracles.remove_random_edge, oracles.bridge_remove_random_edge)
NODE_ORACLES = (oracles.remove_random_node, oracles.cut_vertex_remove_random_node)


class TestMatchesOracle:
    """The lowlink pass draws exactly what the loops and networkx drew."""

    @pytest.mark.parametrize("name", TOPOLOGY_NAMES)
    def test_remove_edge_chained_draws(self, name):
        for seed in range(4):
            for oracle in EDGE_ORACLES:
                rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                net = expected = topology(name)
                for _ in range(2):
                    net = remove_random_edge(net, rng)
                    expected = oracle(expected, oracle_rng)
                    assert_same_network(net, expected)

    @pytest.mark.parametrize("name", TOPOLOGY_NAMES)
    def test_remove_node(self, name):
        for seed in range(4):
            for oracle in NODE_ORACLES:
                assert_same_network(
                    remove_random_node(topology(name), np.random.default_rng(seed)),
                    oracle(topology(name), np.random.default_rng(seed)),
                )

    @pytest.mark.parametrize("name", TOPOLOGY_NAMES)
    def test_random_modification(self, name, monkeypatch):
        seeds = range(6)
        actual = [random_modification(topology(name), seed=seed) for seed in seeds]
        monkeypatch.setattr(modifications, "remove_random_edge", oracles.bridge_remove_random_edge)
        monkeypatch.setattr(
            modifications, "remove_random_node", oracles.cut_vertex_remove_random_node
        )
        for seed, net in zip(seeds, actual):
            assert_same_network(net, random_modification(topology(name), seed=seed))

    @pytest.mark.parametrize("label", sorted(DISCONNECTED))
    def test_disconnected_inputs(self, label):
        net = DISCONNECTED[label]
        for seed in range(3):
            for operator, oracle in [(remove_random_edge, o) for o in EDGE_ORACLES] + [
                (remove_random_node, o) for o in NODE_ORACLES
            ]:
                assert_same_network(
                    operator(net, np.random.default_rng(seed)),
                    oracle(net, np.random.default_rng(seed)),
                )
        assert remove_random_edge(net, np.random.default_rng(0)) is None

    def test_isolated_node_is_the_one_removable_node(self):
        assert remove_random_node(DISCONNECTED["isolated-node"], np.random.default_rng(0)) == (
            Network.from_undirected(4, [(0, 1), (0, 3), (1, 2), (2, 3)])
        )


class TestRandomModification:
    def test_result_always_connected(self):
        net = abilene()
        for seed in range(20):
            out = random_modification(net, seed=seed)
            assert out.is_strongly_connected(), seed

    def test_change_counts_one_or_two(self):
        net = abilene()
        out = random_modification(net, seed=4, num_changes=2, kinds=("add_edge",))
        assert len(undirected_links(out)) == len(undirected_links(net)) + 2

    def test_deterministic_under_seed(self):
        net = abilene()
        assert random_modification(net, seed=7) == random_modification(net, seed=7)

    def test_kind_restriction_respected(self):
        net = abilene()
        out = random_modification(net, seed=5, num_changes=1, kinds=("add_node",))
        assert out.num_nodes == net.num_nodes + 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown modification"):
            random_modification(abilene(), seed=0, kinds=("teleport",))

    def test_invalid_num_changes(self):
        with pytest.raises(ValueError):
            random_modification(abilene(), seed=0, num_changes=0)

    def test_all_kinds_listed(self):
        assert set(MODIFICATION_KINDS) == {"add_edge", "remove_edge", "add_node", "remove_node"}

    def test_name_records_changes(self):
        out = random_modification(abilene(), seed=11, num_changes=1, kinds=("remove_edge",))
        assert out.name.startswith("abilene")
        assert out.name != "abilene"
