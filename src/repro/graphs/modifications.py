"""Random topology perturbations for the generalisation experiments.

Figure 8 trains/tests on "the same graph with small modifications … the
addition or deletion of one or two edges or nodes (chosen randomly)".  This
module implements exactly that operator, with the safety constraints an
evaluation needs: the result is always connected (so routing between every
pair remains feasible) and never degenerates below two nodes.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graphs.network import Network, undirected_components
from repro.utils.seeding import SeedLike, rng_from_seed

MODIFICATION_KINDS = ("add_edge", "remove_edge", "add_node", "remove_node")


def _undirected_links(network: Network) -> set[tuple[int, int]]:
    return {tuple(sorted(edge)) for edge in network.edges}


def _rebuild(num_nodes: int, links: set[tuple[int, int]], network: Network, suffix: str) -> Network:
    capacity = float(network.capacities[0])
    return Network.from_undirected(
        num_nodes, sorted(links), capacity, name=f"{network.name}{suffix}"
    )


def _bridges_and_cut_vertices(
    num_nodes: int, links: set[tuple[int, int]]
) -> tuple[set[tuple[int, int]], set[int]]:
    """Bridges (as sorted pairs) and cut vertices, from one lowlink DFS.

    Iterative Hopcroft-Tarjan over every component.  The tree link into
    ``node`` is a bridge when its subtree has no back link above ``node``
    (``low[node] > disc[parent]``); a non-root ``parent`` is a cut vertex
    when some child's subtree has none above ``parent`` (``>=``), a root
    when it has more than one DFS child.  Links are simple, so skipping
    the parent node skips exactly the tree link.
    """
    adjacency: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v in links:
        adjacency[u].append(v)
        adjacency[v].append(u)
    disc = [-1] * num_nodes
    low = [0] * num_nodes
    bridges: set[tuple[int, int]] = set()
    cut: set[int] = set()
    clock = 0
    for root in range(num_nodes):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        root_children = 0
        stack = [(root, -1, iter(adjacency[root]))]
        while stack:
            node, parent, neighbours = stack[-1]
            for v in neighbours:
                if disc[v] < 0:
                    disc[v] = low[v] = clock
                    clock += 1
                    stack.append((v, node, iter(adjacency[v])))
                    break
                if v != parent and disc[v] < low[node]:
                    low[node] = disc[v]
            else:
                stack.pop()
                if parent < 0:
                    continue
                low[parent] = min(low[parent], low[node])
                if low[node] > disc[parent]:
                    bridges.add((min(parent, node), max(parent, node)))
                if parent == root:
                    root_children += 1
                elif low[node] >= disc[parent]:
                    cut.add(parent)
        if root_children > 1:
            cut.add(root)
    return bridges, cut


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
    if len(undirected_components(network.num_nodes, links)) != 1:
        return None
    # A link can go unless it is a bridge: one pass finds them all.
    bridges, _ = _bridges_and_cut_vertices(network.num_nodes, links)
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
    components = undirected_components(network.num_nodes, links)
    if len(components) == 1:
        # A node can go unless it is a cut vertex: one pass finds them all.
        _, cut = _bridges_and_cut_vertices(network.num_nodes, links)
        candidates = [v for v in range(network.num_nodes) if v not in cut]
    elif len(components) == 2:
        # Only an isolated node beside one connected remainder can go.
        candidates = [part[0] for part in components if len(part) == 1]
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
