"""Property-based tests (hypothesis) on the library's core invariants.

These encode the paper's formal requirements as properties over random
graphs, weights and demands:

* softmin is always a probability distribution favouring small inputs;
* softmin routing always yields a valid, loop-free, delivering routing;
* DAG pruning is always acyclic and preserves reachability;
* shortest-path and ECMP tables route along shortest paths, loop-free,
  and do not depend on how nodes are labelled;
* removing a random edge never disconnects the graph;
* the lowlink pass finds exactly networkx's bridges and articulation
  points, and strong connectivity agrees with networkx;
* the LP optimum lower-bounds every concrete routing's utilisation;
* flow is conserved end-to-end through the simulator;
* autodiff segment ops agree with their numpy definitions.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.flows.lp import solve_optimal_max_utilisation
from repro.flows.simulator import link_loads, max_link_utilisation
from repro.graphs.generators import random_connected_network
from repro.graphs.modifications import _bridges_and_cut_vertices, remove_random_edge
from repro.graphs.network import Network
from repro.routing.dag import prune_by_distance, prune_graph_frontier
from repro.routing.shortest_path import ecmp_routing, shortest_path_routing
from repro.routing.softmin import softmin, softmin_routing
from repro.routing.strategy import validate_routing
from repro.tensor import Tensor, segment_mean, segment_sum
from repro.traffic import bimodal_matrix
from tests import oracles

# Keep deadlines generous: LP solves inside properties are slow-ish.
PROPERTY_SETTINGS = dict(max_examples=20, deadline=None)


def network_for(seed: int, num_nodes: int, extra_edges: int):
    extra = min(extra_edges, num_nodes * (num_nodes - 1) // 2 - (num_nodes - 1))
    return random_connected_network(num_nodes, extra, seed=seed, capacity=100.0)


@st.composite
def graph_and_weights(draw):
    seed = draw(st.integers(0, 10_000))
    num_nodes = draw(st.integers(4, 9))
    extra = draw(st.integers(1, 6))
    net = network_for(seed, num_nodes, extra)
    weights = draw(
        st.lists(
            st.floats(0.05, 20.0, allow_nan=False, allow_infinity=False),
            min_size=net.num_edges,
            max_size=net.num_edges,
        )
    )
    return net, np.asarray(weights)


@st.composite
def graph_and_integer_weights(draw):
    """A connected graph (possibly a tree) with weights in {1, 2, 3}.

    Integer weights make path lengths exact, so equal-cost paths tie
    exactly and ECMP has real choices to split over.
    """
    seed = draw(st.integers(0, 10_000))
    num_nodes = draw(st.integers(3, 9))
    extra = draw(st.integers(0, 8))
    net = network_for(seed, num_nodes, extra)
    weights = draw(st.lists(st.integers(1, 3), min_size=net.num_edges, max_size=net.num_edges))
    return net, np.asarray(weights, dtype=np.float64)


class TestSoftminProperties:
    @given(
        values=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=12),
        gamma=st.floats(0.0, 20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_softmin_is_probability_vector(self, values, gamma):
        out = softmin(np.asarray(values), gamma)
        assert out.sum() == pytest.approx(1.0)
        assert np.all(out >= 0.0)

    @given(
        values=st.lists(st.floats(-20, 20, allow_nan=False), min_size=2, max_size=8, unique=True),
        gamma=st.floats(0.1, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_softmin_favours_minimum(self, values, gamma):
        arr = np.asarray(values)
        out = softmin(arr, gamma)
        assert out[np.argmin(arr)] == pytest.approx(out.max())


class TestDagProperties:
    @given(data=graph_and_weights())
    @settings(**PROPERTY_SETTINGS)
    def test_distance_pruning_acyclic_and_covering(self, data):
        net, weights = data
        import networkx as nx

        for target in range(net.num_nodes):
            mask = prune_by_distance(net, weights, target)
            g = nx.DiGraph()
            g.add_nodes_from(range(net.num_nodes))
            g.add_edges_from(net.edges[e] for e in range(net.num_edges) if mask[e])
            assert nx.is_directed_acyclic_graph(g)
            for v in range(net.num_nodes):
                if v != target:
                    assert nx.has_path(g, v, target)

    @given(data=graph_and_weights(), source=st.integers(0, 8), target=st.integers(0, 8))
    @settings(**PROPERTY_SETTINGS)
    def test_frontier_pruning_acyclic_with_path(self, data, source, target):
        net, weights = data
        source %= net.num_nodes
        target %= net.num_nodes
        if source == target:
            return
        import networkx as nx

        mask = prune_graph_frontier(net, weights, source, target)
        g = nx.DiGraph()
        g.add_nodes_from(range(net.num_nodes))
        g.add_edges_from(net.edges[e] for e in range(net.num_edges) if mask[e])
        assert nx.is_directed_acyclic_graph(g)
        assert nx.has_path(g, source, target)


class TestRoutingProperties:
    @given(data=graph_and_weights(), gamma=st.floats(0.2, 10.0))
    @settings(**PROPERTY_SETTINGS)
    def test_softmin_routing_valid_for_every_flow(self, data, gamma):
        net, weights = data
        routing = softmin_routing(net, weights, gamma=gamma)
        for s in range(net.num_nodes):
            for t in range(net.num_nodes):
                if s != t:
                    validate_routing(routing, s, t)

    @given(data=graph_and_weights(), seed=st.integers(0, 1000))
    @settings(**PROPERTY_SETTINGS)
    def test_lp_lower_bounds_all_routings(self, data, seed):
        net, weights = data
        dm = bimodal_matrix(net.num_nodes, seed=seed, low_mean=5.0, high_mean=10.0, std=1.0)
        optimal = solve_optimal_max_utilisation(net, dm).max_utilisation
        for routing in (
            softmin_routing(net, weights, gamma=2.0),
            shortest_path_routing(net),
            ecmp_routing(net),
        ):
            achieved = max_link_utilisation(net, routing, dm)
            assert achieved >= optimal - 1e-7

    @given(data=graph_and_weights(), seed=st.integers(0, 1000))
    @settings(**PROPERTY_SETTINGS)
    def test_flow_conservation_through_simulator(self, data, seed):
        net, weights = data
        dm = bimodal_matrix(net.num_nodes, seed=seed, low_mean=5.0, high_mean=10.0, std=1.0)
        routing = softmin_routing(net, weights, gamma=1.5)
        loads = link_loads(net, routing, dm)
        # Every destination absorbs exactly its incoming demand: check the
        # global balance node-by-node: inflow - outflow == received - sent.
        for v in range(net.num_nodes):
            inflow = sum(loads[e] for e in net.in_edges[v])
            outflow = sum(loads[e] for e in net.out_edges[v])
            received = dm[:, v].sum()
            sent = dm[v, :].sum()
            assert inflow - outflow == pytest.approx(received - sent, abs=1e-6)


class TestShortestPathTableProperties:
    @given(data=graph_and_integer_weights())
    @settings(**PROPERTY_SETTINGS)
    def test_rows_sum_to_one_on_shortest_paths(self, data):
        net, weights = data
        distances = net.shortest_path_distances(weights)  # [v, t]
        for routing in (shortest_path_routing, ecmp_routing):
            table = routing(net, weights).destination_table()
            for t in range(net.num_nodes):
                for v in range(net.num_nodes):
                    out = np.asarray(net.out_edges[v])
                    if v == t or not np.isfinite(distances[v, t]):
                        assert np.all(table[t, out] == 0.0)
                        continue
                    assert table[t, out].sum() == pytest.approx(1.0)
                    for edge_id in out[table[t, out] > 0.0]:
                        u = net.edges[edge_id][1]
                        assert distances[v, t] == weights[edge_id] + distances[u, t]

    @given(data=graph_and_integer_weights())
    @settings(**PROPERTY_SETTINGS)
    def test_shortest_path_takes_lowest_tied_edge(self, data):
        net, weights = data
        distances = net.shortest_path_distances(weights)
        table = shortest_path_routing(net, weights).destination_table()
        for t in range(net.num_nodes):
            for v in range(net.num_nodes):
                if v == t:
                    continue
                tied = [
                    e
                    for e in net.out_edges[v]
                    if distances[v, t] == weights[e] + distances[net.edges[e][1], t]
                ]
                chosen = [e for e in net.out_edges[v] if table[t, e] > 0.0]
                assert chosen == [min(tied)]
                assert table[t, chosen[0]] == 1.0

    @given(data=graph_and_integer_weights())
    @settings(**PROPERTY_SETTINGS)
    def test_shortest_path_hops_reach_target_without_loops(self, data):
        net, weights = data
        table = shortest_path_routing(net, weights).destination_table()
        for t in range(net.num_nodes):
            for start in range(net.num_nodes):
                v, steps = start, 0
                while v != t:
                    (edge_id,) = [e for e in net.out_edges[v] if table[t, e] == 1.0]
                    v = net.edges[edge_id][1]
                    steps += 1
                    assert steps <= net.num_nodes - 1

    @given(data=graph_and_integer_weights(), seed=st.integers(0, 1000))
    @settings(**PROPERTY_SETTINGS)
    def test_ecmp_follows_node_relabelling_and_edge_order(self, data, seed):
        net, weights = data
        rng = np.random.default_rng(seed)
        relabel = rng.permutation(net.num_nodes)
        shuffle = rng.permutation(net.num_edges)
        moved = Network(
            net.num_nodes, [(relabel[u], relabel[v]) for u, v in (net.edges[e] for e in shuffle)]
        )
        table = ecmp_routing(net, weights).destination_table()
        moved_table = ecmp_routing(moved, weights[shuffle]).destination_table()
        # Moved edge i is original edge shuffle[i]; moved node relabel[t] is t.
        np.testing.assert_array_equal(moved_table[relabel][:, np.argsort(shuffle)], table)

    @given(data=graph_and_integer_weights())
    @settings(**PROPERTY_SETTINGS)
    def test_tables_match_the_per_destination_loops(self, data):
        net, weights = data
        for batched, loop in (
            (shortest_path_routing, oracles.shortest_path_routing),
            (ecmp_routing, oracles.ecmp_routing),
        ):
            expected = loop(net, weights).destination_table()
            assert batched(net, weights).destination_table().tobytes() == expected.tobytes()


class TestEdgeRemovalProperties:
    @given(data=graph_and_integer_weights(), seed=st.integers(0, 1000))
    @settings(**PROPERTY_SETTINGS)
    def test_remove_random_edge_keeps_graph_connected(self, data, seed):
        net, _ = data
        links = {tuple(sorted(edge)) for edge in net.edges}
        out = remove_random_edge(net, np.random.default_rng(seed))
        if out is None:  # only a tree has no removable link
            assert len(links) == net.num_nodes - 1
            return
        assert out.num_nodes == net.num_nodes
        assert out.is_strongly_connected()
        remaining = {tuple(sorted(edge)) for edge in out.edges}
        assert remaining < links and len(remaining) == len(links) - 1


@st.composite
def undirected_link_set(draw):
    """Any simple undirected graph on 1-12 nodes: often disconnected, often
    with isolated nodes."""
    num_nodes = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    links = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return num_nodes, links


@st.composite
def one_way_digraph(draw):
    """A connected skeleton whose links each run both ways or one way only."""
    seed = draw(st.integers(0, 10_000))
    num_nodes = draw(st.integers(2, 9))
    extra = draw(st.integers(0, 6))
    net = network_for(seed, num_nodes, extra)
    links = sorted({tuple(sorted(edge)) for edge in net.edges})
    ways = draw(
        st.lists(
            st.sampled_from(["both", "forward", "backward"]),
            min_size=len(links),
            max_size=len(links),
        )
    )
    edges = []
    for (u, v), way in zip(links, ways):
        if way != "backward":
            edges.append((u, v))
        if way != "forward":
            edges.append((v, u))
    return Network(net.num_nodes, edges)


class TestGraphStructureProperties:
    @given(data=undirected_link_set())
    @settings(max_examples=300, deadline=None)
    def test_lowlink_pass_matches_networkx(self, data):
        num_nodes, links = data
        graph = nx.Graph()
        graph.add_nodes_from(range(num_nodes))
        graph.add_edges_from(links)
        bridges, cut = _bridges_and_cut_vertices(num_nodes, links)
        assert bridges == {tuple(sorted(bridge)) for bridge in nx.bridges(graph)}
        assert cut == set(nx.articulation_points(graph))

    @given(net=one_way_digraph())
    @settings(max_examples=200, deadline=None)
    def test_strong_connectivity_matches_networkx(self, net):
        assert net.is_strongly_connected() == nx.is_strongly_connected(net.to_networkx())


class TestSegmentOpProperties:
    @given(
        values=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=30),
        num_segments=st.integers(1, 6),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_segment_sum_matches_numpy(self, values, num_segments, seed):
        arr = np.asarray(values)[:, None]
        ids = np.random.default_rng(seed).integers(0, num_segments, size=len(values))
        out = segment_sum(Tensor(arr), ids, num_segments).numpy()
        expected = np.zeros((num_segments, 1))
        np.add.at(expected, ids, arr)
        np.testing.assert_allclose(out, expected, atol=1e-9)

    @given(
        values=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=30),
        num_segments=st.integers(1, 6),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_segment_mean_bounded_by_extremes(self, values, num_segments, seed):
        arr = np.asarray(values)[:, None]
        ids = np.random.default_rng(seed).integers(0, num_segments, size=len(values))
        out = segment_mean(Tensor(arr), ids, num_segments).numpy().ravel()
        for segment in range(num_segments):
            members = arr.ravel()[ids == segment]
            if members.size:
                assert members.min() - 1e-9 <= out[segment] <= members.max() + 1e-9
            else:
                assert out[segment] == 0.0


class TestDemandProperties:
    @given(n=st.integers(2, 20), seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_bimodal_always_valid_demand_matrix(self, n, seed):
        dm = bimodal_matrix(n, seed=seed)
        assert dm.shape == (n, n)
        assert np.all(dm >= 0.0)
        assert np.all(np.diag(dm) == 0.0)
