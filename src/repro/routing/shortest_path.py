"""Classical shortest-path routing baselines.

The paper compares every learned policy against "shortest-path routing … a
simple classical method" (§VIII-A, the dotted lines in Figures 6 and 8).
Two variants are provided:

* :func:`shortest_path_routing` — single next hop per (vertex, destination),
  like plain OSPF/RIP with unique path selection;
* :func:`ecmp_routing` — equal-cost multi-path: flow splits evenly across
  all next hops on shortest paths, like OSPF with ECMP enabled.

Both are destination-based routings; weights default to unit (hop count) and
may be any positive per-edge vector (e.g. inverse capacity).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.engine.softmin_batch import _edge_segments, batch_distances_to_targets
from repro.graphs.network import Network
from repro.routing.strategy import DestinationRouting

_TIE_TOLERANCE = 1e-9


def _resolve_weights(network: Network, weights: Optional[np.ndarray]) -> np.ndarray:
    if weights is None:
        return np.ones(network.num_edges)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (network.num_edges,):
        raise ValueError(
            f"weights has shape {weights.shape}, expected ({network.num_edges},)"
        )
    if not np.all(weights > 0.0):  # also rejects NaN
        raise ValueError("shortest-path weights must be strictly positive")
    return weights


def _tied_next_hops(
    network: Network, weights: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every out-edge on some shortest path, for all destinations at once.

    One multi-source Dijkstra gives ``D[t, v] = dist(v, t)``; edge
    ``(v, u)`` is a next hop toward ``t`` when ``v != t``, both ends reach
    ``t`` and ``w + D[t, u]`` ties ``D[t, v]`` within the tolerance.
    Returns ``(targets, edge_ids, first)``: the hops as parallel arrays,
    grouped per (destination, vertex) in ascending edge id, with ``first``
    marking the first hop of each group.
    """
    weights = _resolve_weights(network, weights)
    distances = batch_distances_to_targets(network, weights)
    # |w + D[t, u] - D[t, v]| <= tol * max(1, D[t, v]), evaluated in place
    # to keep the (targets, edges) temporaries few.
    tail = distances[:, network.senders]
    slack = distances[:, network.receivers] + weights
    tied = np.isfinite(tail) & np.isfinite(slack)
    with np.errstate(invalid="ignore"):
        slack -= tail
    np.abs(slack, out=slack)
    np.maximum(tail, 1.0, out=tail)
    tail *= _TIE_TOLERANCE
    tied &= slack <= tail
    tied[network.senders, np.arange(network.num_edges)] = False  # v == t

    # Edges grouped by tail vertex, stable, so ascending edge id per vertex.
    order, starts, seg_of_pos = _edge_segments(network)
    targets, positions = np.nonzero(tied[:, order])
    groups = targets * len(starts) + seg_of_pos[positions]
    first = np.diff(groups, prepend=-1) != 0
    return targets, order[positions], first


def shortest_path_routing(
    network: Network, weights: Optional[np.ndarray] = None
) -> DestinationRouting:
    """Single-path shortest-path routing (lowest edge id breaks ties)."""
    targets, edge_ids, first = _tied_next_hops(network, weights)
    table = np.zeros((network.num_nodes, network.num_edges))
    table[targets[first], edge_ids[first]] = 1.0
    return DestinationRouting(network, table)


def ecmp_routing(
    network: Network, weights: Optional[np.ndarray] = None
) -> DestinationRouting:
    """Equal-cost multi-path: even split over all shortest next hops."""
    targets, edge_ids, first = _tied_next_hops(network, weights)
    sizes = np.diff(np.flatnonzero(first), append=len(first))
    table = np.zeros((network.num_nodes, network.num_edges))
    table[targets, edge_ids] = 1.0 / np.repeat(sizes, sizes)
    return DestinationRouting(network, table)


def inverse_capacity_weights(network: Network) -> np.ndarray:
    """OSPF's recommended metric: weight inversely proportional to capacity."""
    reference = float(network.capacities.max())
    return reference / network.capacities
