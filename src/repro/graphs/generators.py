"""Random topology generators.

Used for the Figure 8 "different graphs" pool and for property-based tests.
Every generator guarantees a connected undirected skeleton (so the bidirected
network is strongly connected), takes an explicit seed, and returns a
bidirected :class:`~repro.graphs.network.Network`.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.network import DEFAULT_CAPACITY, Network, undirected_components
from repro.utils.seeding import SeedLike, rng_from_seed


def _require_nodes(num_nodes: int) -> int:
    if num_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {num_nodes}")
    return int(num_nodes)


def _connect_components(
    num_nodes: int, links: set[tuple[int, int]], rng: np.random.Generator
) -> None:
    """Join disconnected components with random bridging links."""
    components = undirected_components(num_nodes, links)
    while len(components) > 1:
        a = components.pop()
        b = components[-1]
        u = int(rng.choice(a))
        v = int(rng.choice(b))
        links.add((min(u, v), max(u, v)))
        components[-1] = sorted(set(b) | set(a))


def random_spanning_tree(num_nodes: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """A uniform-ish random tree via a random node attachment process."""
    order = rng.permutation(num_nodes)
    links = []
    for i in range(1, num_nodes):
        parent = order[int(rng.integers(0, i))]
        links.append(tuple(sorted((int(order[i]), int(parent)))))
    return links


def random_connected_network(
    num_nodes: int,
    extra_edges: int,
    seed: SeedLike = None,
    capacity: float = DEFAULT_CAPACITY,
    name: str = "",
) -> Network:
    """Random connected graph: spanning tree plus ``extra_edges`` chords.

    This is the workhorse generator for generalisation experiments — its edge
    count is exact (``num_nodes - 1 + extra_edges`` links), which makes graph
    sweeps controllable.
    """
    num_nodes = _require_nodes(num_nodes)
    max_extra = num_nodes * (num_nodes - 1) // 2 - (num_nodes - 1)
    if extra_edges < 0 or extra_edges > max_extra:
        raise ValueError(f"extra_edges must be in [0, {max_extra}], got {extra_edges}")
    rng = rng_from_seed(seed)
    links = set(random_spanning_tree(num_nodes, rng))
    while len(links) < num_nodes - 1 + extra_edges:
        u, v = rng.integers(0, num_nodes, size=2)
        if u == v:
            continue
        links.add(tuple(sorted((int(u), int(v)))))
    return Network.from_undirected(
        num_nodes, sorted(links), capacity, name=name or f"random-{num_nodes}"
    )


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
    links = {
        (u, v)
        for u in range(num_nodes)
        for v in range(u + 1, num_nodes)
        if rng.random() < edge_probability
    }
    _connect_components(num_nodes, links, rng)
    return Network.from_undirected(num_nodes, sorted(links), capacity, name=f"er-{num_nodes}")


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
    # Seed clique, listed in nested-loop order: ``repeated`` holds every
    # link end, so a node is drawn in proportion to its degree.
    links = [(u, v) for u in range(attachment + 1) for v in range(u + 1, attachment + 1)]
    repeated: list[int] = [n for link in links for n in link]
    for new_node in range(attachment + 1, num_nodes):
        targets: set[int] = set()
        while len(targets) < attachment:
            targets.add(int(rng.choice(repeated)))
        for t in targets:
            links.append((t, new_node))
            repeated += [new_node, t]
    return Network.from_undirected(num_nodes, sorted(links), capacity, name=f"ba-{num_nodes}")


def waxman_network(
    num_nodes: int,
    alpha: float = 0.6,
    beta: float = 0.4,
    seed: SeedLike = None,
    capacity: float = DEFAULT_CAPACITY,
) -> Network:
    """Waxman random geometric graph — the classic ISP-topology model.

    Nodes are placed uniformly in the unit square; a link between nodes at
    distance ``d`` appears with probability ``alpha * exp(-d / (beta * L))``
    where ``L`` is the maximum possible distance.  Repaired to be connected.
    """
    num_nodes = _require_nodes(num_nodes)
    rng = rng_from_seed(seed)
    positions = rng.uniform(0.0, 1.0, size=(num_nodes, 2))
    max_dist = float(np.sqrt(2.0))
    links = set()
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            d = float(np.linalg.norm(positions[u] - positions[v]))
            if rng.random() < alpha * np.exp(-d / (beta * max_dist)):
                links.add((u, v))
    _connect_components(num_nodes, links, rng)
    return Network.from_undirected(num_nodes, sorted(links), capacity, name=f"waxman-{num_nodes}")


def different_graphs_pool(
    base_nodes: int,
    count: int,
    seed: SeedLike = None,
    capacity: float = DEFAULT_CAPACITY,
) -> list[Network]:
    """Random pool of graphs between half and double ``base_nodes`` in size.

    Matches the paper's Figure 8 selection rule ("between double and half the
    size of the Abilene graph") using a mix of generator families.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = rng_from_seed(seed)
    lower = max(4, base_nodes // 2)
    upper = base_nodes * 2
    pool: list[Network] = []
    families = ("tree+chords", "waxman", "ba")
    for i in range(count):
        n = int(rng.integers(lower, upper + 1))
        family = families[i % len(families)]
        child_seed = int(rng.integers(0, 2**31 - 1))
        if family == "tree+chords":
            extra = int(rng.integers(2, max(3, n // 2) + 1))
            pool.append(random_connected_network(n, extra, seed=child_seed, capacity=capacity))
        elif family == "waxman":
            pool.append(waxman_network(n, seed=child_seed, capacity=capacity))
        else:
            pool.append(barabasi_albert_network(n, attachment=2, seed=child_seed, capacity=capacity))
    return pool
