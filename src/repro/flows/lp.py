"""Optimal multicommodity-flow routing via linear programming.

The paper's environment computes the reward denominator by solving the
splittable multicommodity-flow (MCF) problem that minimises the maximum link
utilisation ``U_max`` (paper §II-A, Equation 1), using Google OR-Tools.  We
solve the identical LP with HiGHS.

:func:`solve_optimal_max_utilisation` uses the **destination-aggregated**
formulation: one commodity per destination node, variables ``f_t(e)`` (flow
destined to ``t`` on edge ``e``).  O(|V|·|E|) variables.  For splittable
flow this has the same optimum as the paper's textbook per-(source,
destination) formulation (flows to the same destination can always be
merged without increasing any link load); ``tests/oracles.py`` keeps that
per-pair LP, and the loop-assembled fresh-``linprog`` pipeline this module
replaced, as the cross-check oracles.

Structure reuse
---------------
The constraint system depends only on the *(network, destination-support)*
pair — across demand matrices with the same active destinations only the
equality right-hand side changes.  The fast path exploits that three ways:

* **vectorized assembly** — the block-diagonal replicated incidence matrix
  is built from COO index arrays (``np.repeat``/``np.tile`` + one
  ``coo_matrix`` call) instead of per-commodity ``lil_matrix`` +
  ``sparse.hstack`` loops (:class:`LinearProgramStructure`);
* **constraint-structure cache** — assembled structures live in a keyed LRU
  :class:`LinearProgramCache` (mirroring the engine's
  ``FactorisationCache``), so repeated solves over the same support are
  RHS-only re-solves of an already-assembled LP.  A structure holds only
  that LP; the HiGHS solver it is loaded into is one per thread, created
  on first use, since loading a model resets the solver's state anyway;
* **warm-started solves** — when scipy's vendored HiGHS bindings are
  available, every solve is primed with a primal-feasible shortest-path
  routing via ``setSolution`` (HiGHS crossovers it to a basis), cutting the
  simplex iteration count by an order of magnitude on sparse demands.
  Without the bindings the same structures solve through
  :func:`scipy.optimize.linprog` unchanged.

LP *optima* are additionally memoised per ``(network fingerprint, demand
bytes)`` in :class:`OptimalUtilisationCache` (in-memory LRU) and optionally
persisted across processes in a :class:`LPOptimumStore` (ResultStore-style
on-disk layout, see :mod:`repro.api.store`), so repeated sweeps and grid
cells never re-solve a demand matrix they have seen before.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.sparse.csgraph import dijkstra

from repro.faults import fault_point
from repro.graphs.network import Network
from repro.utils.caching import (
    KeyedLRU,
    atomic_write_text,
    quarantine_entry,
    sharded_digests,
    sharded_entry_path,
)
from repro.utils.resilience import CircuitBreaker
from repro.utils.validation import check_square_matrix

# The HiGHS bindings scipy vendors for linprog (scipy >= 1.15).  Probed
# defensively: any missing symbol downgrades to the linprog fallback rather
# than failing at import time on older/newer scipy layouts.
try:  # pragma: no cover - exercised indirectly via direct_solver_available
    from scipy.optimize._highspy import _core as _highs

    for _symbol in (
        "_Highs",
        "HighsLp",
        "HighsModelStatus",
        "HighsSolution",
        "MatrixFormat",
        "kHighsInf",
    ):
        if not hasattr(_highs, _symbol):
            _highs = None
            break
except ImportError:  # pragma: no cover
    _highs = None


def direct_solver_available() -> bool:
    """Whether warm-started direct-HiGHS solves are available (else linprog)."""
    return _highs is not None


# Each thread's HiGHS solver, shared by every structure that thread solves.
_SOLVERS = threading.local()


def _thread_solver():
    """This thread's HiGHS solver, created on first use."""
    solver = getattr(_SOLVERS, "highs", None)
    if solver is None:
        solver = _highs._Highs()
        solver.setOptionValue("output_flag", False)
        _SOLVERS.highs = solver
    return solver


#: Circuit breaker guarding the direct-HiGHS solve path.  After
#: ``failure_threshold`` consecutive *unexpected* failures (not LP
#: infeasibility, which is a legitimate typed outcome) solves trip to the
#: ``linprog`` fallback — same optimum to 1e-8 — and a
#: single probe is retried after the cooldown (half-open).
DIRECT_SOLVER_BREAKER = CircuitBreaker("lp.direct", failure_threshold=3, cooldown_s=30.0)


#: Objectives :class:`LinearProgramStructure` can assemble.
LP_OBJECTIVES = ("max", "average")


@dataclass(frozen=True)
class OptimalRouting:
    """Result of an optimal-routing LP solve.

    Attributes
    ----------
    max_utilisation:
        The optimal ``U_max``: the smallest achievable maximum link
        utilisation for the demand matrix.  0.0 for an all-zero demand.
    edge_flows:
        Total flow per edge under the optimal solution, aligned with
        ``network.edges``.
    commodity_flows:
        Per-commodity edge flows; shape ``(num_commodities, num_edges)``.
        Commodity meaning depends on the formulation (per destination or
        per pair).
    """

    max_utilisation: float
    edge_flows: np.ndarray
    commodity_flows: np.ndarray

    @property
    def is_zero(self) -> bool:
        """True when the demand matrix carried no traffic."""
        return self.max_utilisation == 0.0


class InfeasibleRoutingError(RuntimeError):
    """Raised when the LP cannot be solved (e.g. disconnected demand pair)."""


def _validate_inputs(network: Network, demand_matrix: np.ndarray) -> np.ndarray:
    demand = check_square_matrix("demand_matrix", demand_matrix)
    if demand.shape[0] != network.num_nodes:
        raise ValueError(
            f"demand matrix is {demand.shape[0]}x{demand.shape[0]} but network has "
            f"{network.num_nodes} nodes"
        )
    if not np.all(np.isfinite(demand)):
        raise ValueError("demands must be finite")
    if np.any(demand < 0.0):
        raise ValueError("demands must be non-negative")
    if np.any(np.diag(demand) != 0.0):
        raise ValueError("demand matrix diagonal must be zero")
    return demand


def network_fingerprint(network: Network) -> bytes:
    """Structural digest of a network: node count, edge list, capacities.

    Unlike ``hash(network)`` this cannot collide across distinct topologies
    (short of a SHA-256 collision), so it is safe as a cache key — two
    different networks hashing equal must still map to different LP optima.
    Networks are immutable, so the digest is memoised on the instance (the
    reward path hits this for every environment step).
    """
    cached = getattr(network, "_lp_fingerprint", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(int(network.num_nodes).to_bytes(8, "little"))
    digest.update(np.ascontiguousarray(network.senders).tobytes())
    digest.update(np.ascontiguousarray(network.receivers).tobytes())
    digest.update(np.ascontiguousarray(network.capacities).tobytes())
    result = digest.digest()
    network._lp_fingerprint = result
    return result


def demand_destinations(demand: np.ndarray) -> np.ndarray:
    """Ascending destination nodes with any incoming demand."""
    return np.flatnonzero(np.asarray(demand).sum(axis=0) > 0.0)


# ---------------------------------------------------------------------------
# Constraint assembly
# ---------------------------------------------------------------------------


class LinearProgramStructure:
    """Assembled constraints for one (network, destination-support) pair.

    For a fixed support only the equality right-hand side depends on the
    demand matrix, so one structure serves every demand matrix with the
    same active destinations: :meth:`solve` computes ``b_eq`` and re-solves
    against the cached matrices (on the direct-HiGHS path, the assembled
    ``HighsLp`` is loaded into the calling thread's solver and primed with
    a shortest-path warm start).

    Assembly is fully vectorized: the block-diagonal replication of the
    node-edge incidence matrix is expressed as COO index arrays built with
    ``np.repeat``/``np.tile`` and materialised in a single ``coo_matrix``
    call — no per-commodity Python loop, no ``sparse.hstack``.
    """

    def __init__(self, network: Network, destinations, objective: str = "max"):
        if objective not in LP_OBJECTIVES:
            raise ValueError(f"objective must be one of {LP_OBJECTIVES}, got {objective!r}")
        self.network = network
        self.destinations = np.asarray([int(t) for t in destinations], dtype=np.int64)
        self.objective = objective
        if len(self.destinations) == 0:
            raise ValueError("a structure needs at least one destination")

        n, m = network.num_nodes, network.num_edges
        k = len(self.destinations)
        self.num_commodities = k
        self.has_u = objective == "max"
        self.num_vars = k * m + (1 if self.has_u else 0)
        self.u_index = k * m if self.has_u else None

        # Incidence entries (row=node, col=edge): +1 where the edge leaves
        # the node, -1 where it enters.  Each commodity keeps every entry
        # except its destination's row, which is deleted (rows above shift
        # down by one) and the block lands at column offset ci * m.
        ent_rows = np.concatenate([network.senders, network.receivers])
        ent_cols = np.concatenate([np.arange(m), np.arange(m)])
        ent_data = np.concatenate([np.ones(m), -np.ones(m)])
        dest = self.destinations[:, None]
        rows = np.broadcast_to(ent_rows, (k, 2 * m))
        keep = rows != dest
        offsets = np.arange(k, dtype=np.int64)[:, None]
        eq_rows = (offsets * (n - 1) + rows - (rows > dest))[keep]
        eq_cols = (offsets * m + ent_cols)[keep]
        eq_data = np.broadcast_to(ent_data, (k, 2 * m))[keep]
        self.a_eq = sparse.coo_matrix(
            (eq_data, (eq_rows, eq_cols)), shape=(k * (n - 1), self.num_vars)
        ).tocsr()

        if self.has_u:
            # Capacity rows: sum_t f_t(e) - c(e) * U <= 0.
            ub_rows = np.concatenate([np.tile(np.arange(m), k), np.arange(m)])
            ub_cols = np.concatenate([np.arange(k * m), np.full(m, self.u_index)])
            ub_data = np.concatenate([np.ones(k * m), -np.asarray(network.capacities)])
            self.a_ub = sparse.coo_matrix(
                (ub_data, (ub_rows, ub_cols)), shape=(m, self.num_vars)
            ).tocsr()
            self.cost = np.zeros(self.num_vars)
            self.cost[self.u_index] = 1.0
        else:
            self.a_ub = None
            self.cost = np.tile(1.0 / (m * network.capacities), k)

        # b_eq gather mask: commodity ci's RHS is demand[:, t] with row t
        # dropped, laid out commodity-major.
        self._rhs_mask = np.ones((k, n), dtype=bool)
        self._rhs_mask[np.arange(k), self.destinations] = False

        self._lp = None  # assembled HighsLp (direct path only)
        self._lp_lock = threading.Lock()  # guards its row bounds while loading
        self._warm = None  # lazily-built shortest-path warm-start data
        self.solves = 0

    # -- RHS ------------------------------------------------------------

    def equality_rhs(self, demand: np.ndarray) -> np.ndarray:
        """``b_eq`` for this support: per-commodity net outflow demands."""
        return np.asarray(demand)[:, self.destinations].T[self._rhs_mask]

    # -- warm start -----------------------------------------------------

    def _warm_data(self):
        """Per-destination shortest-path trees (distances, successor edges).

        Depends only on the topology, so it is computed once per structure:
        one multi-target scipy Dijkstra on the transposed graph plus a
        vectorized first-tight-edge successor selection per commodity.
        """
        if self._warm is None:
            net = self.network
            n, m = net.num_nodes, net.num_edges
            graph = sparse.csr_matrix(
                (np.ones(m), (net.senders, net.receivers)), shape=(n, n)
            )
            dist = dijkstra(graph.T.tocsr(), directed=True, indices=self.destinations)
            succ = np.full((self.num_commodities, n), -1, dtype=np.int64)
            order = []
            edge_ids = np.arange(m)
            for ci in range(self.num_commodities):
                # Unit weights keep distances integral, so the tight-edge
                # test is exact.  Reversed assignment leaves the lowest
                # tight edge id as each node's successor (deterministic).
                tight = dist[ci, net.senders] == dist[ci, net.receivers] + 1.0
                succ[ci, net.senders[tight][::-1]] = edge_ids[tight][::-1]
                finite = np.flatnonzero(
                    np.isfinite(dist[ci]) & (np.arange(n) != self.destinations[ci])
                )
                order.append(finite[np.argsort(-dist[ci, finite], kind="stable")])
            self._warm = (dist, succ, order)
        return self._warm

    def _shortest_path_start(self, demand: np.ndarray) -> Optional[np.ndarray]:
        """A primal-feasible solution routing every demand on shortest paths.

        Returns ``None`` when some positive demand cannot reach its
        destination — the cold solve then reports infeasibility through the
        usual channel.
        """
        dist, succ, order = self._warm_data()
        net = self.network
        k, m = self.num_commodities, net.num_edges
        flows = np.zeros((k, m))
        for ci, t in enumerate(self.destinations):
            column = np.asarray(demand)[:, t]
            if np.any((column > 0.0) & ~np.isfinite(dist[ci])):
                return None
            acc = column.astype(np.float64).copy()
            for u in order[ci]:
                carried = acc[u]
                if carried <= 0.0:
                    continue
                edge = succ[ci, u]
                flows[ci, edge] += carried
                acc[net.receivers[edge]] += carried
        if not self.has_u:
            return flows.ravel()
        peak = float((flows.sum(axis=0) / net.capacities).max())
        return np.concatenate([flows.ravel(), [peak]])

    # -- solving --------------------------------------------------------

    def _failure(self, detail: str) -> InfeasibleRoutingError:
        label = "optimal-routing" if self.objective == "max" else "average-utilisation"
        return InfeasibleRoutingError(
            f"{label} LP failed on {self.network!r}: {detail}"
        )

    def _result(self, x: np.ndarray, objective_value: float) -> OptimalRouting:
        k, m = self.num_commodities, self.network.num_edges
        commodity_flows = x[: k * m].reshape(k, m)
        return OptimalRouting(
            float(objective_value), commodity_flows.sum(axis=0), commodity_flows
        )

    def solve(self, demand: np.ndarray, warm_start: bool = True) -> OptimalRouting:
        """Solve for one demand matrix on this support (RHS-only re-solve).

        The direct-HiGHS path sits behind :data:`DIRECT_SOLVER_BREAKER`:
        an unexpected solver failure falls back to ``linprog`` for *this*
        solve (identical optimum to 1e-8), and after K consecutive
        failures the breaker opens and solves go straight to ``linprog``
        until a cooldown probe succeeds.  :class:`InfeasibleRoutingError`
        is a legitimate typed outcome, never a breaker failure.
        """
        self.solves += 1
        b_eq = self.equality_rhs(demand)
        if _highs is None or not DIRECT_SOLVER_BREAKER.allows():
            return self._solve_linprog(b_eq)
        try:
            fault_point("lp.solve")
            result = self._solve_direct(demand, b_eq, warm_start)
        except InfeasibleRoutingError:
            DIRECT_SOLVER_BREAKER.record_success()
            raise
        except Exception as exc:
            DIRECT_SOLVER_BREAKER.record_failure()
            # A wedged solver would poison this thread's later re-solves;
            # drop it so the next direct attempt starts from a new one.
            _SOLVERS.highs = None
            warnings.warn(
                f"direct LP solve failed ({exc!r}); falling back to linprog",
                RuntimeWarning,
                stacklevel=2,
            )
            return self._solve_linprog(b_eq)
        DIRECT_SOLVER_BREAKER.record_success()
        return result

    def _solve_linprog(self, b_eq: np.ndarray) -> OptimalRouting:
        result = linprog(
            self.cost,
            A_ub=self.a_ub,
            b_ub=None if self.a_ub is None else np.zeros(self.a_ub.shape[0]),
            A_eq=self.a_eq,
            b_eq=b_eq,
            bounds=(0, None),
            method="highs",
        )
        if not result.success:
            raise self._failure(result.message)
        objective = result.x[self.u_index] if self.has_u else result.fun
        return self._result(result.x, objective)

    def _assemble_lp(self):
        a_all = self.a_eq if self.a_ub is None else sparse.vstack([self.a_eq, self.a_ub])
        a_all = a_all.tocsc()
        lp = _highs.HighsLp()
        lp.num_col_ = self.num_vars
        lp.num_row_ = a_all.shape[0]
        lp.col_cost_ = self.cost
        lp.col_lower_ = np.zeros(self.num_vars)
        lp.col_upper_ = np.full(self.num_vars, _highs.kHighsInf)
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = a_all.indptr
        lp.a_matrix_.index_ = a_all.indices
        lp.a_matrix_.value_ = a_all.data
        return lp

    def _solve_direct(
        self, demand: np.ndarray, b_eq: np.ndarray, warm_start: bool
    ) -> OptimalRouting:
        solver = _thread_solver()
        num_ub = 0 if self.a_ub is None else self.a_ub.shape[0]
        with self._lp_lock:
            if self._lp is None:
                self._lp = self._assemble_lp()
            lp = self._lp
            lp.row_lower_ = np.concatenate([b_eq, np.full(num_ub, -_highs.kHighsInf)])
            lp.row_upper_ = np.concatenate([b_eq, np.zeros(num_ub)])
            solver.passModel(lp)  # copies the LP: other threads may now load it
        if warm_start:
            start = self._shortest_path_start(demand)
            if start is not None:
                solution = _highs.HighsSolution()
                solution.col_value = start
                solution.value_valid = True
                solver.setSolution(solution)
        solver.run()
        status = solver.getModelStatus()
        if status != _highs.HighsModelStatus.kOptimal:
            raise self._failure(solver.modelStatusToString(status))
        x = np.asarray(solver.getSolution().col_value)
        objective = x[self.u_index] if self.has_u else solver.getInfo().objective_function_value
        return self._result(x, objective)


class LinearProgramCache(KeyedLRU):
    """Keyed LRU of :class:`LinearProgramStructure` instances.

    Keys are exact: ``(network fingerprint, objective, destination
    support)``.  A hit returns the shared structure and its assembled LP,
    so demand matrices over the same support pay only an RHS update plus a
    warm-started re-solve, mirroring how the engine's
    ``FactorisationCache`` shares ``splu`` factorisations.  Entries hold no
    solver: those are one per thread, however many entries there are.
    """

    def __init__(self, max_entries: int = 32):
        super().__init__(max_entries)

    def structure(
        self, network: Network, destinations, objective: str = "max"
    ) -> LinearProgramStructure:
        key = (
            network_fingerprint(network),
            objective,
            tuple(int(t) for t in destinations),
        )
        return self.lookup(
            key, lambda: LinearProgramStructure(network, destinations, objective)
        )


#: Structures shared by every solve not handed a private cache — separate
#: ``RewardComputer`` instances and repeated scenario runs in one process
#: reuse each other's assembled systems.
SHARED_LP_CACHE = LinearProgramCache(max_entries=32)

# Per-thread cache override installed by :func:`use_lp_cache` — the same
# ambient-injection pattern as ``repro.engine.backend``'s thread-local
# backend default.
_AMBIENT = threading.local()


def shared_lp_cache() -> LinearProgramCache:
    """The ambient default :class:`LinearProgramCache`.

    Normally the process-wide :data:`SHARED_LP_CACHE`; inside a
    :func:`use_lp_cache` block on the calling thread, that thread's
    injected cache instead.
    """
    override = getattr(_AMBIENT, "lp_cache", None)
    return override if override is not None else SHARED_LP_CACHE


@contextmanager
def use_lp_cache(cache: LinearProgramCache):
    """Route this thread's default-cache LP solves through ``cache``.

    Lets a long-lived deployment (the routing service) keep private warm
    structures (assembled LPs; the solvers stay one per thread) without
    threading ``lp_cache=`` through every layer, and without other threads
    observing the override.
    """
    previous = getattr(_AMBIENT, "lp_cache", None)
    _AMBIENT.lp_cache = cache
    try:
        yield cache
    finally:
        _AMBIENT.lp_cache = previous


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def solve_optimal_max_utilisation(
    network: Network,
    demand_matrix: np.ndarray,
    *,
    lp_cache: Optional[LinearProgramCache] = None,
) -> OptimalRouting:
    """Minimise the maximum link utilisation for ``demand_matrix``.

    Destination-aggregated formulation.  Variables are ``f_t(e) >= 0`` for
    every destination ``t`` with incoming demand and every edge ``e``, plus
    the scalar ``U``:

    * minimise ``U``
    * flow conservation: for every such ``t`` and node ``v != t``,
      ``sum_out f_t - sum_in f_t = D[v, t]``
    * capacity: for every edge, ``sum_t f_t(e) <= U * c(e)``.

    The constraint structure is fetched from ``lp_cache`` (default: the
    ambient cache from :func:`shared_lp_cache`), so repeated solves over
    the same destination support are RHS-only re-solves.

    Raises
    ------
    InfeasibleRoutingError
        If some demand's source cannot reach its destination.
    """
    demand = _validate_inputs(network, demand_matrix)
    destinations = demand_destinations(demand)
    if len(destinations) == 0:
        return OptimalRouting(0.0, np.zeros(network.num_edges), np.zeros((0, network.num_edges)))
    cache = lp_cache if lp_cache is not None else shared_lp_cache()
    return cache.structure(network, destinations, "max").solve(demand)


def solve_optimal_average_utilisation(
    network: Network,
    demand_matrix: np.ndarray,
    *,
    lp_cache: Optional[LinearProgramCache] = None,
) -> OptimalRouting:
    """Minimise the *average* link utilisation (paper §IX-A further work).

    Same constraint structure as :func:`solve_optimal_max_utilisation` but
    the objective is ``(1/|E|) Σ_e flow_e / c_e`` — total capacity-weighted
    traffic volume — instead of the bottleneck.  The optimum concentrates
    flow on short paths (it is achieved by weighted shortest paths), which
    makes it a useful contrast objective for the routing ablations.

    The returned :attr:`OptimalRouting.max_utilisation` field carries the
    optimal *average* utilisation for this solver.
    """
    demand = _validate_inputs(network, demand_matrix)
    destinations = demand_destinations(demand)
    if len(destinations) == 0:
        return OptimalRouting(0.0, np.zeros(network.num_edges), np.zeros((0, network.num_edges)))
    cache = lp_cache if lp_cache is not None else shared_lp_cache()
    return cache.structure(network, destinations, "average").solve(demand)


# ---------------------------------------------------------------------------
# Optimum memoisation: in-memory LRU + optional on-disk persistence
# ---------------------------------------------------------------------------

#: Environment variable naming a directory for the process-default
#: :class:`LPOptimumStore`; set by ``runner --lp-store`` so sweep worker
#: processes inherit it.
LP_STORE_ENV = "REPRO_LP_STORE"

#: Bump when the on-disk entry schema changes; older entries read as misses.
LP_STORE_FORMAT = 1


class LPOptimumStore:
    """On-disk cache of LP optima keyed by (network fingerprint, DM hash).

    Same layout discipline as :class:`repro.api.store.ResultStore`: entries
    live at ``<root>/<hh>/<digest>.json`` where ``hh`` is the first two hex
    digits, writes are atomic (temp file + ``os.replace``), and unreadable
    or wrong-format entries read as misses.  Because the key covers the
    exact topology bytes and the exact demand bytes, repeated sweeps and
    grid cells across processes never re-solve a matrix any of them has
    already solved.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def __repr__(self) -> str:
        return f"LPOptimumStore({str(self.directory)!r}, entries={len(self)})"

    @staticmethod
    def digest(network: Network, demand_matrix: np.ndarray) -> str:
        payload = hashlib.sha256()
        payload.update(network_fingerprint(network))
        payload.update(np.ascontiguousarray(np.asarray(demand_matrix)).tobytes())
        return payload.hexdigest()

    def path_for(self, digest: str) -> Path:
        return sharded_entry_path(self.directory, digest)

    def get(self, network: Network, demand_matrix: np.ndarray) -> Optional[float]:
        """The stored optimum, or ``None`` on a miss.

        A present-but-corrupt entry (truncated, bad JSON, wrong format,
        non-numeric optimum) is quarantined as ``*.json.corrupt`` with a
        one-line warning, then reported as a miss.
        """
        path = self.path_for(self.digest(network, demand_matrix))
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            quarantine_entry(path, f"unreadable: {exc}")
            return None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            quarantine_entry(path, f"invalid JSON: {exc}")
            return None
        if not isinstance(data, dict) or data.get("format") != LP_STORE_FORMAT:
            quarantine_entry(path, f"unsupported entry format {data.get('format')!r}")
            return None
        optimum = data.get("optimum")
        if not isinstance(optimum, (int, float)) or isinstance(optimum, bool):
            quarantine_entry(path, f"non-numeric optimum {optimum!r}")
            return None
        return float(optimum)

    def put(self, network: Network, demand_matrix: np.ndarray, optimum: float) -> Path:
        """Persist one optimum atomically; returns the entry path."""
        digest = self.digest(network, demand_matrix)
        payload = json.dumps(
            {"format": LP_STORE_FORMAT, "key": digest, "optimum": float(optimum)}
        )
        fault_point("lp_store.put")
        return atomic_write_text(self.path_for(digest), payload)

    def hashes(self) -> list[str]:
        """Every stored key, sorted."""
        return sharded_digests(self.directory)

    def __len__(self) -> int:
        return len(self.hashes())


def default_lp_store() -> Optional[LPOptimumStore]:
    """The :data:`LP_STORE_ENV`-configured store, or ``None`` when unset."""
    directory = os.environ.get(LP_STORE_ENV)
    return LPOptimumStore(directory) if directory else None


class OptimalUtilisationCache(KeyedLRU):
    """Memoises LP optima per (network fingerprint, demand-matrix bytes).

    The RL environment revisits the same cyclical DMs thousands of times per
    training run; caching the LP result makes the reward computation cheap
    after the first episode (the paper notes the LP step makes training
    CPU-bound — this cache is the practical mitigation).

    True LRU: hits refresh recency (``OrderedDict.move_to_end``), so the
    working set of a cyclical sequence never gets evicted by one-off
    matrices.  Keys are structural fingerprints, not ``hash(network)`` —
    hash collisions across distinct networks must miss, not silently return
    the wrong optimum.

    Parameters
    ----------
    max_entries:
        In-memory LRU capacity.
    lp_cache:
        Optional private :class:`LinearProgramCache` for the constraint
        structures; ``None`` uses the process-shared cache.
    store:
        Optional :class:`LPOptimumStore` (or a directory path for one) for
        cross-process persistence.  ``None`` falls back to the
        :data:`LP_STORE_ENV` environment variable, so ``runner --lp-store``
        reaches every cache in every worker without plumbing.
    """

    def __init__(
        self,
        max_entries: int = 4096,
        lp_cache: Optional[LinearProgramCache] = None,
        store: Union[LPOptimumStore, str, Path, None] = None,
    ):
        super().__init__(max_entries)
        self.lp_cache = lp_cache
        if store is None:
            store = default_lp_store()
        elif not isinstance(store, LPOptimumStore):
            store = LPOptimumStore(store)
        self.store = store

    def _key(self, network: Network, demand_matrix: np.ndarray) -> tuple:
        return (network_fingerprint(network), np.asarray(demand_matrix).tobytes())

    def peek(self, network: Network, demand_matrix: np.ndarray) -> Optional[float]:
        """The cached/persisted optimum without solving, or ``None``."""
        key = self._key(network, demand_matrix)
        cached = self.get(key)
        if cached is not None:
            return cached
        if self.store is not None:
            persisted = self.store.get(network, demand_matrix)
            if persisted is not None:
                self.insert(key, persisted)
                self.hits += 1
                return persisted
        return None

    def put(self, network: Network, demand_matrix: np.ndarray, optimum: float) -> None:
        """Record an externally-computed optimum (parallel warm-up merge).

        Persistence is best-effort: the optimum is already in memory, so a
        failed on-disk write (full disk, injected fault) degrades to a
        warning instead of killing the run — the next process just
        re-solves that matrix once.
        """
        self.insert(self._key(network, demand_matrix), float(optimum))
        if self.store is not None:
            try:
                self.store.put(network, demand_matrix, optimum)
            except (OSError, RuntimeError) as exc:
                warnings.warn(
                    f"LP optimum persist failed ({exc!r}); continuing with the "
                    "in-memory value",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def optimal_max_utilisation(self, network: Network, demand_matrix: np.ndarray) -> float:
        cached = self.peek(network, demand_matrix)
        if cached is not None:
            return cached
        self.misses += 1
        optimum = solve_optimal_max_utilisation(
            network, demand_matrix, lp_cache=self.lp_cache
        ).max_utilisation
        self.put(network, demand_matrix, optimum)
        return optimum


__all__ = [
    "DIRECT_SOLVER_BREAKER",
    "LP_OBJECTIVES",
    "LP_STORE_ENV",
    "LP_STORE_FORMAT",
    "InfeasibleRoutingError",
    "LPOptimumStore",
    "LinearProgramCache",
    "LinearProgramStructure",
    "OptimalRouting",
    "OptimalUtilisationCache",
    "SHARED_LP_CACHE",
    "default_lp_store",
    "demand_destinations",
    "direct_solver_available",
    "network_fingerprint",
    "shared_lp_cache",
    "solve_optimal_average_utilisation",
    "solve_optimal_max_utilisation",
    "use_lp_cache",
]
