"""Reference implementations kept as differential oracles.

Each function here is the straightforward implementation a production
module used before it was rewritten for speed.  They are slow on purpose:
one Python-level step per destination, vertex or candidate, exactly as
they ran before.  Tests compare the production results against them bit for
bit, and ``benchmarks/test_microbench.py`` times them for the ``frozen``
floors in ``benchmarks/BENCH_baseline.json``.

The last section keeps the networkx-backed random generators and one-pass
bridge / articulation-point removals that ran before the graphs package
stopped importing networkx; production must draw exactly what they drew.
"""

from __future__ import annotations

from typing import Optional

import networkx as nx
import numpy as np

from repro.graphs.generators import _require_nodes
from repro.graphs.modifications import _rebuild, _undirected_links
from repro.graphs.network import DEFAULT_CAPACITY, Network
from repro.routing.shortest_path import _TIE_TOLERANCE, _resolve_weights
from repro.routing.strategy import DestinationRouting
from repro.utils.seeding import SeedLike, rng_from_seed

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


# ---------------------------------------------------------------------------
# networkx-backed generators and one-pass removals.
# ---------------------------------------------------------------------------


def _links_from_graph(graph: nx.Graph) -> list[tuple[int, int]]:
    return sorted(tuple(sorted((int(u), int(v)))) for u, v in graph.edges())


def _connect_components(graph: nx.Graph, rng: np.random.Generator) -> None:
    """Join disconnected components with random bridging links."""
    components = [sorted(c) for c in nx.connected_components(graph)]
    while len(components) > 1:
        a = components.pop()
        b = components[-1]
        u = int(rng.choice(a))
        v = int(rng.choice(b))
        graph.add_edge(u, v)
        components[-1] = sorted(set(b) | set(a))


def erdos_renyi_network(
    num_nodes: int,
    edge_probability: float,
    seed: SeedLike = None,
    capacity: float = DEFAULT_CAPACITY,
) -> Network:
    """Erdős–Rényi G(n, p), repaired to be connected."""
    num_nodes = _require_nodes(num_nodes)
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError(f"edge_probability must be in [0,1], got {edge_probability}")
    rng = rng_from_seed(seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            if rng.random() < edge_probability:
                graph.add_edge(u, v)
    _connect_components(graph, rng)
    return Network.from_undirected(
        num_nodes, _links_from_graph(graph), capacity, name=f"er-{num_nodes}"
    )


def barabasi_albert_network(
    num_nodes: int,
    attachment: int = 2,
    seed: SeedLike = None,
    capacity: float = DEFAULT_CAPACITY,
) -> Network:
    """Barabási–Albert preferential attachment (scale-free degree mix)."""
    num_nodes = _require_nodes(num_nodes)
    if attachment < 1 or attachment >= num_nodes:
        raise ValueError(f"attachment must be in [1, {num_nodes - 1}], got {attachment}")
    rng = rng_from_seed(seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(attachment + 1))
    for u in range(attachment + 1):
        for v in range(u + 1, attachment + 1):
            graph.add_edge(u, v)
    repeated: list[int] = [n for e in graph.edges() for n in e]
    for new_node in range(attachment + 1, num_nodes):
        targets: set[int] = set()
        while len(targets) < attachment:
            targets.add(int(rng.choice(repeated)))
        graph.add_node(new_node)
        for t in targets:
            graph.add_edge(new_node, t)
            repeated += [new_node, t]
    return Network.from_undirected(
        num_nodes, _links_from_graph(graph), capacity, name=f"ba-{num_nodes}"
    )


def waxman_network(
    num_nodes: int,
    alpha: float = 0.6,
    beta: float = 0.4,
    seed: SeedLike = None,
    capacity: float = DEFAULT_CAPACITY,
) -> Network:
    """Waxman random geometric graph — the classic ISP-topology model."""
    num_nodes = _require_nodes(num_nodes)
    rng = rng_from_seed(seed)
    positions = rng.uniform(0.0, 1.0, size=(num_nodes, 2))
    max_dist = float(np.sqrt(2.0))
    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            d = float(np.linalg.norm(positions[u] - positions[v]))
            if rng.random() < alpha * np.exp(-d / (beta * max_dist)):
                graph.add_edge(u, v)
    _connect_components(graph, rng)
    return Network.from_undirected(
        num_nodes, _links_from_graph(graph), capacity, name=f"waxman-{num_nodes}"
    )


def _graph(num_nodes: int, links: set[tuple[int, int]]) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    graph.add_edges_from(links)
    return graph


def bridge_remove_random_edge(network: Network, rng: np.random.Generator) -> Optional[Network]:
    """Remove one link whose deletion keeps the graph connected."""
    links = _undirected_links(network)
    graph = _graph(network.num_nodes, links)
    if not nx.is_connected(graph):
        return None
    # A link can go unless it is a bridge: one pass finds them all.
    bridges = {tuple(sorted(bridge)) for bridge in nx.bridges(graph)}
    candidates = [link for link in links if link not in bridges]
    if not candidates:
        return None
    links.discard(candidates[int(rng.integers(0, len(candidates)))])
    return _rebuild(network.num_nodes, links, network, "-e")


def cut_vertex_remove_random_node(
    network: Network, rng: np.random.Generator
) -> Optional[Network]:
    """Delete one node whose removal keeps the remainder connected.

    The surviving nodes are relabelled to ``0..n-2`` preserving order.
    """
    if network.num_nodes <= 3:
        return None
    links = _undirected_links(network)
    graph = _graph(network.num_nodes, links)
    if nx.is_connected(graph):
        # A node can go unless it is a cut vertex: one pass finds them all.
        cut = set(nx.articulation_points(graph))
        candidates = [v for v in range(network.num_nodes) if v not in cut]
    elif nx.number_connected_components(graph) == 2:
        # Only an isolated node beside one connected remainder can go.
        candidates = [v for v in range(network.num_nodes) if graph.degree(v) == 0]
    else:
        candidates = []
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
