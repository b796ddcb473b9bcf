"""Vectorized softmin translation: all destinations in one array program.

The scalar pipeline (the per-destination loop over
:mod:`repro.routing.softmin`'s helpers, kept as the reference in
``tests/oracles.py``) runs one Dijkstra per destination and then loops
over every vertex and out-edge in Python.  This
module computes the same destination-based splitting-ratio table as a batch:

1. all weighted distance-to-target vectors at once, as the ``(n, n)`` matrix
   ``D[t, v] = dist(v, t)`` via one C-level multi-source Dijkstra on the
   transposed graph (:func:`scipy.sparse.csgraph.dijkstra`);
2. the strictly-decreasing-distance DAG masks for every destination as one
   ``(n, e)`` boolean array (:func:`batch_prune_by_distance`);
3. the per-vertex softmin over out-edge scores ``w[e] + D[t, head(e)]`` via
   segment reductions (``np.minimum.reduceat`` / ``np.add.reduceat``) over
   edges grouped by tail vertex, for all destinations simultaneously.

The result is numerically equivalent to the scalar implementation (the
per-path distance sums and per-vertex softmax normalisations associate in
the same order), which the equivalence tests in ``tests/test_engine.py``
assert to 1e-8.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.graphs.network import Network
from repro.utils.caching import KeyedLRU


class _GraphStructure:
    """Weight-independent per-topology state for the batched translation.

    Rebuilding scipy CSR matrices and the tail-vertex edge grouping on every
    call dominates the softmin hot path on small graphs (PPO reward
    computations call it once per environment step with fresh weights but an
    unchanged topology).  Everything here depends only on the edge list, so
    it is computed once per structural fingerprint and reused:

    * ``indptr``/``indices`` — the canonical CSR pattern of the *transposed*
      graph, plus ``perm`` mapping edge weights into its data slots.  The
      canonical CSR form of a matrix is unique, so assembling from the
      cached pattern yields bit-identical Dijkstra inputs to the previous
      build-transpose-convert sequence.
    * ``order``/``starts``/``seg_of_pos`` — edge ids grouped by tail vertex
      for the segment reductions (stable order, matching the scalar
      implementation's iteration order).

    ``perm`` is ``None`` when the edge list carries parallel duplicate
    edges (COO assembly would sum them); those graphs fall back to the
    per-call construction.
    """

    __slots__ = ("indptr", "indices", "perm", "order", "starts", "seg_of_pos")

    def __init__(self, network: Network):
        n = network.num_nodes
        e = network.num_edges
        # Tag each edge with its id (1-based so an empty slot cannot alias
        # edge 0), push through the COO->CSR conversion of the transposed
        # graph, and read the slot permutation back out of ``data``.
        template = csr_matrix(
            (np.arange(1, e + 1, dtype=np.float64), (network.receivers, network.senders)),
            shape=(n, n),
        )
        if template.nnz == e:
            self.indptr = template.indptr
            self.indices = template.indices
            self.perm = template.data.astype(np.int64) - 1
        else:  # parallel edges collapsed: cannot cache the pattern
            self.indptr = self.indices = self.perm = None
        self.order = np.argsort(network.senders, kind="stable")
        sorted_senders = network.senders[self.order]
        new_segment = np.r_[True, sorted_senders[1:] != sorted_senders[:-1]]
        self.starts = np.flatnonzero(new_segment)
        self.seg_of_pos = np.cumsum(new_segment) - 1


#: Structures are tiny (a few index arrays) and keyed on the exact edge
#: list, so a modest LRU covers every topology a process touches.
_STRUCTURE_CACHE = KeyedLRU(max_entries=128)


def _graph_structure(network: Network) -> _GraphStructure:
    # Networks are immutable, so the structure is memoised on the instance;
    # the LRU still shares one structure across equal re-built topologies.
    structure = getattr(network, "_softmin_structure", None)
    if structure is None:
        key = (network.num_nodes, network.edges)
        structure = _STRUCTURE_CACHE.lookup(key, lambda: _GraphStructure(network))
        network._softmin_structure = structure
    return structure


def _edge_segments(network: Network) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group edge ids by tail vertex for segment reductions.

    Returns ``(order, starts, seg_of_pos)`` where ``order`` sorts edges by
    sender (stable, so edge-id order is preserved within a vertex — the same
    order the scalar implementation iterates), ``starts`` holds each
    segment's first position in the sorted layout, and ``seg_of_pos`` maps a
    sorted position back to its segment index.
    """
    structure = _graph_structure(network)
    return structure.order, structure.starts, structure.seg_of_pos


def batch_distances_to_targets(network: Network, weights: np.ndarray) -> np.ndarray:
    """All-destination weighted distances ``D[t, v] = dist(v, t)``.

    One multi-source Dijkstra on the transposed graph replaces ``n``
    Python-level Dijkstra runs.  Unreachable pairs are ``inf``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n = network.num_nodes
    structure = _graph_structure(network)
    if structure.perm is not None:
        # dist(v, t) in the original graph == dist(t, v) in the transposed
        # graph, whose CSR pattern is cached; only the data slots change.
        # Assemble without the csr_matrix constructor: its index validation
        # re-checks the (already canonical, cached) pattern on every call
        # and costs more than the Dijkstra run itself on small graphs.
        transposed = csr_matrix.__new__(csr_matrix)
        transposed.data = weights[structure.perm]
        transposed.indices = structure.indices
        transposed.indptr = structure.indptr
        transposed._shape = (n, n)
    else:
        graph = csr_matrix((weights, (network.senders, network.receivers)), shape=(n, n))
        transposed = graph.transpose().tocsr()
    return dijkstra(transposed, directed=True)


def _keep_mask(network: Network, distances: np.ndarray) -> np.ndarray:
    """The strictly-decreasing-distance rule over precomputed distances."""
    tail = distances[:, network.senders]
    head = distances[:, network.receivers]
    return np.isfinite(tail) & np.isfinite(head) & (tail > head)


def batch_prune_by_distance(network: Network, weights: np.ndarray) -> np.ndarray:
    """Strictly-decreasing-distance DAG masks for every destination.

    Row ``t`` equals :func:`repro.routing.dag.prune_by_distance` for target
    ``t``: keep edge ``(u, v)`` iff both endpoints reach ``t`` and
    ``dist(u, t) > dist(v, t)``.  Shape ``(num_nodes, num_edges)``.
    """
    return _keep_mask(network, batch_distances_to_targets(network, weights))


def batch_softmin_ratios(
    network: Network, weights: np.ndarray, gamma: float
) -> np.ndarray:
    """Softmin splitting-ratio table for **all** destinations at once.

    Returns the ``(num_nodes, num_edges)`` array whose row ``t`` matches the
    scalar per-destination translation (distance pruner): at each vertex the
    allowed out-edges ``e = (v, u)`` score ``w[e] + dist(u, t)`` and receive
    the softmin (paper Equation 3) of those scores.

    Parameters
    ----------
    network:
        Topology.
    weights:
        Strictly positive per-edge weights (validated by the caller,
        :func:`repro.routing.softmin.softmin_routing`).
    gamma:
        Non-negative softmin spread.
    """
    if gamma < 0.0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    weights = np.asarray(weights, dtype=np.float64)
    distances = batch_distances_to_targets(network, weights)

    keep = _keep_mask(network, distances)
    # (n, e); inf where the head vertex cannot reach the destination.
    scores = weights[np.newaxis, :] + distances[:, network.receivers]

    order, starts, seg_of_pos = _edge_segments(network)
    scores_sorted = np.where(keep[:, order], scores[:, order], np.inf)

    # Per-(destination, vertex) softmin, numerically stabilised by the
    # segment minimum exactly like the scalar `softmin` helper.
    seg_min = np.minimum.reduceat(scores_sorted, starts, axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        exps = np.exp(-gamma * (scores_sorted - seg_min[:, seg_of_pos]))
    exps[~np.isfinite(exps)] = 0.0  # pruned edges of empty/partial segments

    seg_sum = np.add.reduceat(exps, starts, axis=1)
    denom = seg_sum[:, seg_of_pos]
    ratios_sorted = np.divide(exps, denom, out=np.zeros_like(exps), where=denom > 0.0)

    ratios = np.zeros_like(ratios_sorted)
    ratios[:, order] = ratios_sorted
    return ratios
