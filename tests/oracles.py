"""Reference implementations kept as differential oracles.

Each function here is the straightforward implementation a production
module used before it was rewritten for speed.  They are slow on purpose:
one Python-level step per destination, vertex or candidate, exactly as
they ran before.  Tests compare the production results against them bit for
bit, and ``benchmarks/test_microbench.py`` times them for the ``frozen``
floors in ``benchmarks/BENCH_baseline.json``.
"""

from __future__ import annotations

from typing import Optional

import networkx as nx
import numpy as np

from repro.graphs.modifications import _rebuild, _undirected_links
from repro.graphs.network import Network
from repro.routing.shortest_path import _TIE_TOLERANCE, _resolve_weights
from repro.routing.strategy import DestinationRouting

# ---------------------------------------------------------------------------
# Shortest-path and ECMP tables: one Python Dijkstra per destination.
# ---------------------------------------------------------------------------


def _next_hop_edges(
    network: Network, distances: np.ndarray, weights: np.ndarray, v: int
) -> list[int]:
    """Edge ids out of ``v`` lying on some shortest path to the target."""
    hops = []
    for edge_id in network.out_edges[v]:
        u = network.edges[edge_id][1]
        if np.isfinite(distances[u]) and abs(
            weights[edge_id] + distances[u] - distances[v]
        ) <= _TIE_TOLERANCE * max(1.0, distances[v]):
            hops.append(edge_id)
    return hops


def shortest_path_routing(
    network: Network, weights: Optional[np.ndarray] = None
) -> DestinationRouting:
    """Single-path shortest-path routing (lowest edge id breaks ties)."""
    weights = _resolve_weights(network, weights)
    table = np.zeros((network.num_nodes, network.num_edges))
    for t in range(network.num_nodes):
        distances = network.shortest_path_distances(weights, target=t)
        for v in range(network.num_nodes):
            if v == t or not np.isfinite(distances[v]):
                continue
            hops = _next_hop_edges(network, distances, weights, v)
            if hops:
                table[t, hops[0]] = 1.0
    return DestinationRouting(network, table)


def ecmp_routing(
    network: Network, weights: Optional[np.ndarray] = None
) -> DestinationRouting:
    """Equal-cost multi-path: even split over all shortest next hops."""
    weights = _resolve_weights(network, weights)
    table = np.zeros((network.num_nodes, network.num_edges))
    for t in range(network.num_nodes):
        distances = network.shortest_path_distances(weights, target=t)
        for v in range(network.num_nodes):
            if v == t or not np.isfinite(distances[v]):
                continue
            hops = _next_hop_edges(network, distances, weights, v)
            for edge_id in hops:
                table[t, edge_id] = 1.0 / len(hops)
    return DestinationRouting(network, table)


# ---------------------------------------------------------------------------
# Topology modifications: one whole-graph connectivity check per candidate.
# ---------------------------------------------------------------------------


def _is_connected(num_nodes: int, links: set[tuple[int, int]]) -> bool:
    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    graph.add_edges_from(links)
    return nx.is_connected(graph)


def remove_random_edge(network: Network, rng: np.random.Generator) -> Optional[Network]:
    """Remove one link whose deletion keeps the graph connected."""
    links = _undirected_links(network)
    candidates = [link for link in links if _is_connected(network.num_nodes, links - {link})]
    if not candidates:
        return None
    links.discard(candidates[int(rng.integers(0, len(candidates)))])
    return _rebuild(network.num_nodes, links, network, "-e")


def remove_random_node(network: Network, rng: np.random.Generator) -> Optional[Network]:
    """Delete one node whose removal keeps the remainder connected.

    The surviving nodes are relabelled to ``0..n-2`` preserving order.
    """
    if network.num_nodes <= 3:
        return None
    links = _undirected_links(network)
    candidates = []
    for victim in range(network.num_nodes):
        remaining = {link for link in links if victim not in link}
        graph = nx.Graph()
        graph.add_nodes_from(n for n in range(network.num_nodes) if n != victim)
        graph.add_edges_from(remaining)
        if graph.number_of_nodes() >= 2 and nx.is_connected(graph):
            candidates.append(victim)
    if not candidates:
        return None
    victim = candidates[int(rng.integers(0, len(candidates)))]
    relabel = {old: new for new, old in enumerate(n for n in range(network.num_nodes) if n != victim)}
    new_links = {
        (min(relabel[u], relabel[v]), max(relabel[u], relabel[v]))
        for u, v in links
        if victim not in (u, v)
    }
    return _rebuild(network.num_nodes - 1, new_links, network, "-n")
