"""Random topology perturbations for the generalisation experiments.

Figure 8 trains/tests on "the same graph with small modifications … the
addition or deletion of one or two edges or nodes (chosen randomly)".  This
module implements exactly that operator, with the safety constraints an
evaluation needs: the result is always connected (so routing between every
pair remains feasible) and never degenerates below two nodes.
"""

from __future__ import annotations

from typing import Optional, Sequence

import networkx as nx
import numpy as np

from repro.graphs.network import Network
from repro.utils.seeding import SeedLike, rng_from_seed

MODIFICATION_KINDS = ("add_edge", "remove_edge", "add_node", "remove_node")


def _undirected_links(network: Network) -> set[tuple[int, int]]:
    return {tuple(sorted(edge)) for edge in network.edges}


def _rebuild(num_nodes: int, links: set[tuple[int, int]], network: Network, suffix: str) -> Network:
    capacity = float(network.capacities[0])
    return Network.from_undirected(
        num_nodes, sorted(links), capacity, name=f"{network.name}{suffix}"
    )


def _graph(num_nodes: int, links: set[tuple[int, int]]) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    graph.add_edges_from(links)
    return graph


def add_random_edge(network: Network, rng: np.random.Generator) -> Optional[Network]:
    """Add one absent undirected link, or ``None`` if the graph is complete."""
    links = _undirected_links(network)
    candidates = [
        (u, v)
        for u in range(network.num_nodes)
        for v in range(u + 1, network.num_nodes)
        if (u, v) not in links
    ]
    if not candidates:
        return None
    links.add(candidates[int(rng.integers(0, len(candidates)))])
    return _rebuild(network.num_nodes, links, network, "+e")


def remove_random_edge(network: Network, rng: np.random.Generator) -> Optional[Network]:
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


def failed_links(base: Network, variant: Network) -> list[tuple[int, int]]:
    """The undirected links of ``base`` absent from ``variant``, sorted."""
    return sorted(_undirected_links(base) - _undirected_links(variant))


def add_random_node(network: Network, rng: np.random.Generator, degree: int = 2) -> Network:
    """Append a node attached to ``degree`` random existing nodes."""
    new_node = network.num_nodes
    degree = min(degree, network.num_nodes)
    attach = rng.choice(network.num_nodes, size=degree, replace=False)
    links = _undirected_links(network)
    for target in attach:
        links.add((int(target), new_node))
    return _rebuild(network.num_nodes + 1, links, network, "+n")


def remove_random_node(network: Network, rng: np.random.Generator) -> Optional[Network]:
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


def random_modification(
    network: Network,
    seed: SeedLike = None,
    num_changes: Optional[int] = None,
    kinds: Sequence[str] = MODIFICATION_KINDS,
) -> Network:
    """Apply one or two random add/remove node/edge changes (paper §VIII-D).

    Parameters
    ----------
    network:
        The base topology (e.g. Abilene).
    seed:
        Seed or generator controlling the perturbation.
    num_changes:
        1 or 2; drawn uniformly when omitted, as in the paper.
    kinds:
        Subset of :data:`MODIFICATION_KINDS` to draw from.

    Infeasible draws (e.g. removing an edge from a tree) are re-drawn; the
    function always returns a connected network different from or equal in
    distribution to the paper's operator.
    """
    for kind in kinds:
        if kind not in MODIFICATION_KINDS:
            raise ValueError(f"unknown modification kind {kind!r}")
    rng = rng_from_seed(seed)
    if num_changes is None:
        num_changes = int(rng.integers(1, 3))
    if num_changes < 1:
        raise ValueError("num_changes must be >= 1")

    operators = {
        "add_edge": add_random_edge,
        "remove_edge": remove_random_edge,
        "add_node": add_random_node,
        "remove_node": remove_random_node,
    }
    current = network
    applied = 0
    attempts = 0
    while applied < num_changes and attempts < 50 * num_changes:
        attempts += 1
        kind = kinds[int(rng.integers(0, len(kinds)))]
        result = operators[kind](current, rng)
        if result is not None:
            current = result
            applied += 1
    return current
