"""Reference implementations kept as differential oracles.

Each function here is the straightforward implementation a production
module used before it was rewritten for speed.  They are slow on purpose:
one Python-level step per destination, vertex or candidate, exactly as
they ran before.  Tests compare the production results against them (bit
for bit, or to 1e-8 where the rewrite reassociates float sums), and
``benchmarks/test_microbench.py`` and ``benchmarks/engine_bench.py`` time
them for the ``frozen`` floors in ``benchmarks/BENCH_baseline.json`` and
the acceptance speedups.

The networkx section keeps the random generators and one-pass bridge /
articulation-point removals that ran before the graphs package stopped
importing networkx; production must draw exactly what they drew.

The last two sections are the evaluation path's references: the scalar
softmin translation and flow simulation the batch engine replaced (pinned
to it at 1e-8, and the normaliser every gated microbenchmark is divided
by), and the LP pipelines the structure-reusing layer replaced — the
per-commodity loop assembly with a fresh ``linprog`` per matrix, and the
paper's per-(source, destination) formulation.  Both LP solvers call the
production input validator, so they reject exactly what it rejects.
"""

from __future__ import annotations

from typing import Optional

import networkx as nx
import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.engine.simulator_batch import _NEGATIVE_FLOW_TOLERANCE, RoutingLoopError
from repro.flows.lp import (
    LP_OBJECTIVES,
    InfeasibleRoutingError,
    OptimalRouting,
    _validate_inputs,
    demand_destinations,
)
from repro.graphs.generators import _require_nodes
from repro.graphs.modifications import _rebuild, _undirected_links
from repro.graphs.network import DEFAULT_CAPACITY, Network
from repro.routing.dag import prune_by_distance
from repro.routing.shortest_path import _TIE_TOLERANCE, _resolve_weights
from repro.routing.softmin import DEFAULT_GAMMA, _ratios_for_mask, _validate_weights
from repro.routing.strategy import DestinationRouting, RoutingStrategy
from repro.utils.seeding import SeedLike, rng_from_seed
from repro.utils.validation import check_square_matrix

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


# ---------------------------------------------------------------------------
# Softmin translation and flow simulation: one scalar step per destination.
# ---------------------------------------------------------------------------


def softmin_routing(
    network: Network, weights: np.ndarray, gamma: float = DEFAULT_GAMMA
) -> DestinationRouting:
    """Distance-pruned softmin table, one Dijkstra and vertex loop per destination."""
    weights = _validate_weights(network, weights)
    if gamma < 0.0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    table = np.zeros((network.num_nodes, network.num_edges))
    for t in range(network.num_nodes):
        mask = prune_by_distance(network, weights, t)
        table[t] = _ratios_for_mask(network, weights, mask, t, gamma)
    return DestinationRouting(network, table)


def _forwarding_matrix(network: Network, ratios: np.ndarray, target: int) -> np.ndarray:
    """Dense ``P`` with ``P[u, v] = Σ ratios of edges u→v``; row ``target`` zero."""
    p = np.zeros((network.num_nodes, network.num_nodes))
    for edge_id, (u, v) in enumerate(network.edges):
        if ratios[edge_id] != 0.0:
            p[u, v] += ratios[edge_id]
    p[target, :] = 0.0
    return p


def _solve_throughflow(
    network: Network, ratios: np.ndarray, injections: np.ndarray, target: int
) -> np.ndarray:
    """Solve ``(I - Pᵀ) x = b`` for the node throughflow ``x`` (scalar path)."""
    p = _forwarding_matrix(network, ratios, target)
    system = np.eye(network.num_nodes) - p.T
    try:
        x = np.linalg.solve(system, injections)
    except np.linalg.LinAlgError as error:
        raise RoutingLoopError(
            f"routing to destination {target} traps flow in a loop: {error}"
        ) from None
    if np.any(x < -_NEGATIVE_FLOW_TOLERANCE * max(1.0, float(np.abs(injections).sum()))):
        raise RoutingLoopError(
            f"routing to destination {target} yields negative throughflow; "
            "the splitting ratios are inconsistent"
        )
    return np.maximum(x, 0.0)


def _link_loads_scalar(
    network: Network, routing: RoutingStrategy, demand: np.ndarray
) -> np.ndarray:
    """The original per-destination / per-flow solve loop."""
    loads = np.zeros(network.num_edges)
    senders = network.senders
    if isinstance(routing, DestinationRouting):
        for t in range(network.num_nodes):
            injections = demand[:, t].copy()
            injections[t] = 0.0
            if injections.sum() <= 0.0:
                continue
            ratios = routing.ratios(int(np.argmax(injections)), t)
            x = _solve_throughflow(network, ratios, injections, t)
            loads += x[senders] * ratios
    else:
        for s in range(network.num_nodes):
            for t in range(network.num_nodes):
                d = demand[s, t]
                if s == t or d <= 0.0:
                    continue
                ratios = routing.ratios(s, t)
                injections = np.zeros(network.num_nodes)
                injections[s] = d
                x = _solve_throughflow(network, ratios, injections, t)
                loads += x[senders] * ratios
    return loads


def link_loads(
    network: Network, routing: RoutingStrategy, demand_matrix: np.ndarray
) -> np.ndarray:
    """Total flow per edge, one dense solve per destination (or per flow)."""
    demand = check_square_matrix("demand_matrix", demand_matrix)
    if demand.shape[0] != network.num_nodes:
        raise ValueError(
            f"demand matrix size {demand.shape[0]} does not match network "
            f"({network.num_nodes} nodes)"
        )
    return _link_loads_scalar(network, routing, demand)


# ---------------------------------------------------------------------------
# Optimal-routing LP: loop-assembled constraints and fresh linprog solves.
# ---------------------------------------------------------------------------


def loop_assemble(network: Network, destinations, objective: str = "max"):
    """Reference loop assembly (the pre-structure-cache implementation).

    Returns ``(a_eq, a_ub, cost)`` exactly as the original per-commodity
    ``lil_matrix`` + ``sparse.hstack`` code built them (``a_ub`` is ``None``
    for the average objective).  The oracle the vectorized assembly is
    tested against, and the legacy side of the LP-phase comparison in
    ``benchmarks/engine_bench.py``.
    """
    if objective not in LP_OBJECTIVES:
        raise ValueError(f"objective must be one of {LP_OBJECTIVES}, got {objective!r}")
    n, m = network.num_nodes, network.num_edges
    destinations = [int(t) for t in destinations]
    k = len(destinations)
    has_u = objective == "max"
    num_vars = k * m + (1 if has_u else 0)
    u_index = k * m

    incidence = sparse.lil_matrix((n, m))
    for e, (u, v) in enumerate(network.edges):
        incidence[u, e] = 1.0
        incidence[v, e] = -1.0
    incidence = incidence.tocsr()

    eq_rows = []
    for ci, t in enumerate(destinations):
        keep = np.array([v for v in range(n) if v != t])
        block = incidence[keep]
        padded = sparse.hstack(
            [
                sparse.csr_matrix((n - 1, ci * m)),
                block,
                sparse.csr_matrix((n - 1, (k - ci - 1) * m + (1 if has_u else 0))),
            ]
        )
        eq_rows.append(padded)
    a_eq = sparse.vstack(eq_rows).tocsr()

    if has_u:
        ub = sparse.lil_matrix((m, num_vars))
        for e in range(m):
            for ci in range(k):
                ub[e, ci * m + e] = 1.0
            ub[e, u_index] = -float(network.capacities[e])
        a_ub = ub.tocsr()
        cost = np.zeros(num_vars)
        cost[u_index] = 1.0
    else:
        a_ub = None
        cost = np.tile(1.0 / (m * network.capacities), k)
    return a_eq, a_ub, cost


def reference_solve(network: Network, demand_matrix: np.ndarray) -> OptimalRouting:
    """The pre-structure-cache pipeline: loop assembly + fresh ``linprog``.

    Solves the identical destination-aggregated LP with no structure or
    model reuse.  The legacy side of the LP-phase comparison and an
    independent oracle for the re-solve equivalence tests.
    """
    demand = _validate_inputs(network, demand_matrix)
    m = network.num_edges
    destinations = [int(t) for t in demand_destinations(demand)]
    if not destinations:
        return OptimalRouting(0.0, np.zeros(m), np.zeros((0, m)))
    k = len(destinations)
    u_index = k * m
    a_eq, a_ub, cost = loop_assemble(network, destinations, "max")
    keep = [np.array([v for v in range(network.num_nodes) if v != t]) for t in destinations]
    b_eq = np.concatenate([demand[rows, t] for rows, t in zip(keep, destinations)])
    result = linprog(
        cost,
        A_ub=a_ub,
        b_ub=np.zeros(m),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    if not result.success:
        raise InfeasibleRoutingError(
            f"optimal-routing LP failed on {network!r}: {result.message}"
        )
    solution = result.x
    commodity_flows = solution[: k * m].reshape(k, m)
    return OptimalRouting(
        float(solution[u_index]), commodity_flows.sum(axis=0), commodity_flows
    )


def solve_mcf_per_pair(
    network: Network, demand_matrix: np.ndarray
) -> OptimalRouting:
    """Textbook per-(s, t) commodity MCF (paper §II-A) — the test oracle.

    One commodity per non-zero demand entry; variables are the *fractions*
    ``f_i(e)`` of commodity ``i`` on edge ``e``, exactly as in the paper's
    constraint list, so capacity rows read
    ``sum_i f_i(e) * d_i <= U * c(e)``.

    Intentionally stays on the original loop-assembled ``linprog`` pipeline
    so it remains an implementation-independent cross-check for the
    structure-cached fast path.
    """
    demand = _validate_inputs(network, demand_matrix)
    n, m = network.num_nodes, network.num_edges

    commodities = [
        (s, t, demand[s, t]) for s in range(n) for t in range(n) if demand[s, t] > 0.0
    ]
    if not commodities:
        return OptimalRouting(0.0, np.zeros(m), np.zeros((0, m)))

    k = len(commodities)
    num_vars = k * m + 1
    u_index = k * m

    incidence = sparse.lil_matrix((n, m))
    for e, (u, v) in enumerate(network.edges):
        incidence[u, e] = 1.0
        incidence[v, e] = -1.0
    incidence = incidence.tocsr()

    eq_rows, eq_rhs = [], []
    for ci, (s, t, _) in enumerate(commodities):
        keep = np.array([v for v in range(n) if v != t])
        block = incidence[keep]
        padded = sparse.hstack(
            [
                sparse.csr_matrix((n - 1, ci * m)),
                block,
                sparse.csr_matrix((n - 1, (k - ci - 1) * m + 1)),
            ]
        )
        eq_rows.append(padded)
        # Net outflow (in fraction units) is 1 at the source, 0 elsewhere.
        rhs = np.array([1.0 if v == s else 0.0 for v in keep])
        eq_rhs.append(rhs)
    a_eq = sparse.vstack(eq_rows).tocsr()
    b_eq = np.concatenate(eq_rhs)

    ub = sparse.lil_matrix((m, num_vars))
    for e in range(m):
        for ci, (_, _, d) in enumerate(commodities):
            ub[e, ci * m + e] = d
        ub[e, u_index] = -float(network.capacities[e])
    a_ub = ub.tocsr()
    b_ub = np.zeros(m)

    cost = np.zeros(num_vars)
    cost[u_index] = 1.0

    result = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    if not result.success:
        raise InfeasibleRoutingError(
            f"per-pair MCF LP failed on {network!r}: {result.message}"
        )

    solution = result.x
    fractions = solution[: k * m].reshape(k, m)
    demands = np.array([d for _, _, d in commodities])
    commodity_flows = fractions * demands[:, None]
    edge_flows = commodity_flows.sum(axis=0)
    return OptimalRouting(float(solution[u_index]), edge_flows, commodity_flows)
