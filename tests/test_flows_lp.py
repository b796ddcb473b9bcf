"""Tests for the optimal-routing LP oracle.

Includes the key substitution check promised in DESIGN.md: the
destination-aggregated formulation must agree with the paper's per-pair
formulation on every tested instance.
"""

import hashlib
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.flows import lp as lp_module
from repro.flows.lp import (
    DIRECT_SOLVER_BREAKER,
    InfeasibleRoutingError,
    LinearProgramCache,
    LinearProgramStructure,
    LPOptimumStore,
    OptimalUtilisationCache,
    _loop_assemble,
    _reference_solve,
    demand_destinations,
    direct_solver_available,
    network_fingerprint,
    solve_mcf_per_pair,
    solve_optimal_average_utilisation,
    solve_optimal_max_utilisation,
)
from repro.graphs import Network, abilene, random_connected_network, topology
from repro.traffic import bimodal_matrix, gravity_matrix, sparse_matrix
from tests.helpers import line_network, square_network, triangle_network


def dm_single(n, s, t, d):
    dm = np.zeros((n, n))
    dm[s, t] = d
    return dm


class TestKnownOptima:
    def test_line_graph_single_flow(self):
        # 0-1-2-3 line, capacity 10: flow 5 from 0 to 3 loads every link 0.5.
        net = line_network(4, capacity=10.0)
        result = solve_optimal_max_utilisation(net, dm_single(4, 0, 3, 5.0))
        assert result.max_utilisation == pytest.approx(0.5)

    def test_triangle_two_disjoint_paths(self):
        # 0->2 direct or via 1: optimal splits demand across both.
        net = triangle_network(capacity=10.0)
        result = solve_optimal_max_utilisation(net, dm_single(3, 0, 2, 10.0))
        assert result.max_utilisation == pytest.approx(0.5)

    def test_square_three_paths(self):
        # 0->2: direct diagonal, via 1, via 3 -> three edge-disjoint paths.
        net = square_network(capacity=9.0)
        result = solve_optimal_max_utilisation(net, dm_single(4, 0, 2, 9.0))
        assert result.max_utilisation == pytest.approx(1.0 / 3.0)

    def test_zero_demand(self):
        net = triangle_network()
        result = solve_optimal_max_utilisation(net, np.zeros((3, 3)))
        assert result.is_zero
        assert result.max_utilisation == 0.0

    def test_utilisation_scales_linearly_with_demand(self):
        net = square_network(capacity=10.0)
        dm = gravity_matrix(4, seed=0, total_demand=20.0)
        u1 = solve_optimal_max_utilisation(net, dm).max_utilisation
        u2 = solve_optimal_max_utilisation(net, 2.0 * dm).max_utilisation
        assert u2 == pytest.approx(2.0 * u1, rel=1e-6)

    def test_utilisation_scales_inversely_with_capacity(self):
        dm = gravity_matrix(4, seed=1, total_demand=20.0)
        u1 = solve_optimal_max_utilisation(square_network(capacity=10.0), dm).max_utilisation
        u2 = solve_optimal_max_utilisation(square_network(capacity=20.0), dm).max_utilisation
        assert u1 == pytest.approx(2.0 * u2, rel=1e-6)

    def test_capacity_constraint_respected_in_flows(self):
        net = abilene()
        dm = bimodal_matrix(net.num_nodes, seed=0)
        result = solve_optimal_max_utilisation(net, dm)
        np.testing.assert_array_less(
            result.edge_flows, net.capacities * result.max_utilisation * (1 + 1e-6)
        )

    def test_flow_conservation_in_solution(self):
        net = square_network()
        dm = gravity_matrix(4, seed=2, total_demand=10.0)
        result = solve_optimal_max_utilisation(net, dm)
        destinations = [t for t in range(4) if dm[:, t].sum() > 0]
        for flows, t in zip(result.commodity_flows, destinations):
            for v in range(4):
                if v == t:
                    continue
                outflow = flows[list(net.out_edges[v])].sum()
                inflow = flows[list(net.in_edges[v])].sum()
                assert outflow - inflow == pytest.approx(dm[v, t], abs=1e-7)


class TestFormulationEquivalence:
    """Destination aggregation == per-pair commodities (splittable MCF)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs_and_demands(self, seed):
        net = random_connected_network(6, 4, seed=seed, capacity=100.0)
        dm = bimodal_matrix(6, seed=seed, low_mean=10.0, high_mean=30.0, std=3.0)
        agg = solve_optimal_max_utilisation(net, dm).max_utilisation
        pair = solve_mcf_per_pair(net, dm).max_utilisation
        assert agg == pytest.approx(pair, rel=1e-6)

    def test_abilene_bimodal(self):
        net = abilene()
        dm = bimodal_matrix(net.num_nodes, seed=42)
        agg = solve_optimal_max_utilisation(net, dm).max_utilisation
        pair = solve_mcf_per_pair(net, dm).max_utilisation
        assert agg == pytest.approx(pair, rel=1e-6)

    def test_per_pair_zero_demand(self):
        assert solve_mcf_per_pair(triangle_network(), np.zeros((3, 3))).is_zero


class TestValidation:
    def test_rejects_negative_demand(self):
        with pytest.raises(ValueError, match="non-negative"):
            solve_optimal_max_utilisation(triangle_network(), -np.ones((3, 3)))

    def test_rejects_nonzero_diagonal(self):
        dm = np.zeros((3, 3))
        dm[1, 1] = 5.0
        with pytest.raises(ValueError, match="diagonal"):
            solve_optimal_max_utilisation(triangle_network(), dm)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="nodes"):
            solve_optimal_max_utilisation(triangle_network(), np.zeros((4, 4)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            solve_optimal_max_utilisation(triangle_network(), np.zeros((3, 4)))

    def test_infeasible_when_unreachable(self):
        net = Network(3, [(0, 1), (1, 2), (2, 1), (1, 0)])  # no path into/out of 2<->0 direct
        dm = dm_single(3, 2, 0, 1.0)
        # 2 -> 1 -> 0 exists, so this IS feasible; make a truly unreachable pair:
        net2 = Network(3, [(0, 1), (1, 0), (1, 2)])  # nothing leaves 2
        with pytest.raises(InfeasibleRoutingError):
            solve_optimal_max_utilisation(net2, dm_single(3, 2, 0, 1.0))


class TestVectorizedAssembly:
    """The COO index-array assembly matches the loop reference exactly."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("objective", ["max", "average"])
    def test_random_graphs_identical_matrices(self, seed, objective):
        net = random_connected_network(6 + seed, 4 + seed, seed=seed, capacity=50.0)
        dm = bimodal_matrix(net.num_nodes, seed=seed)
        destinations = demand_destinations(dm)
        structure = LinearProgramStructure(net, destinations, objective)
        a_eq, a_ub, cost = _loop_assemble(net, destinations, objective)
        np.testing.assert_array_equal(structure.a_eq.toarray(), a_eq.toarray())
        if objective == "max":
            np.testing.assert_array_equal(structure.a_ub.toarray(), a_ub.toarray())
        else:
            assert structure.a_ub is None and a_ub is None
        np.testing.assert_array_equal(structure.cost, cost)

    def test_sparse_demand_subset_support(self):
        net = random_connected_network(10, 8, seed=3, capacity=50.0)
        dm = np.zeros((10, 10))
        dm[0, 7] = 5.0
        dm[2, 7] = 1.0
        dm[4, 1] = 3.0
        destinations = demand_destinations(dm)
        np.testing.assert_array_equal(destinations, [1, 7])
        structure = LinearProgramStructure(net, destinations)
        a_eq, a_ub, _ = _loop_assemble(net, destinations)
        np.testing.assert_array_equal(structure.a_eq.toarray(), a_eq.toarray())
        np.testing.assert_array_equal(structure.a_ub.toarray(), a_ub.toarray())

    def test_equality_rhs_matches_loop_order(self):
        net = random_connected_network(7, 5, seed=1, capacity=50.0)
        dm = bimodal_matrix(7, seed=1)
        destinations = [int(t) for t in demand_destinations(dm)]
        structure = LinearProgramStructure(net, destinations)
        expected = np.concatenate(
            [
                dm[np.array([v for v in range(7) if v != t]), t]
                for t in destinations
            ]
        )
        np.testing.assert_array_equal(structure.equality_rhs(dm), expected)

    def test_rejects_unknown_objective(self):
        net = triangle_network()
        with pytest.raises(ValueError, match="objective"):
            LinearProgramStructure(net, [0], "median")
        with pytest.raises(ValueError, match="objective"):
            _loop_assemble(net, [0], "median")


class TestStructureCache:
    """RHS-only re-solves through a shared structure stay exact."""

    def test_same_support_is_one_structure(self):
        cache = LinearProgramCache()
        net = abilene()
        dm1 = bimodal_matrix(net.num_nodes, seed=0)
        dm2 = bimodal_matrix(net.num_nodes, seed=1)
        solve_optimal_max_utilisation(net, dm1, lp_cache=cache)
        solve_optimal_max_utilisation(net, dm2, lp_cache=cache)
        assert cache.misses == 1 and cache.hits == 1
        assert len(cache) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_resolve_matches_fresh_and_per_pair_oracle(self, seed):
        """A structure-cached re-solve equals the fresh solve and the oracle."""
        rng = np.random.default_rng(seed)
        net = random_connected_network(7, 5, seed=seed, capacity=100.0)
        base = sparse_matrix(7, seed=seed, density=0.3, mean=20.0, std=4.0)
        if not np.any(base > 0.0):
            base[0, 1] = 10.0
        cache = LinearProgramCache()
        solve_optimal_max_utilisation(net, base, lp_cache=cache)  # warm the structure
        rescaled = np.where(base > 0.0, base * rng.uniform(0.5, 2.0, base.shape), 0.0)
        resolved = solve_optimal_max_utilisation(net, rescaled, lp_cache=cache)
        assert cache.hits >= 1  # the second solve reused the structure
        fresh = _reference_solve(net, rescaled).max_utilisation
        oracle = solve_mcf_per_pair(net, rescaled).max_utilisation
        assert resolved.max_utilisation == pytest.approx(fresh, abs=1e-8)
        assert resolved.max_utilisation == pytest.approx(oracle, abs=1e-8)

    def test_average_objective_through_cache(self):
        cache = LinearProgramCache()
        net = square_network(capacity=10.0)
        dm = gravity_matrix(4, seed=0, total_demand=20.0)
        first = solve_optimal_average_utilisation(net, dm, lp_cache=cache)
        again = solve_optimal_average_utilisation(net, 2.0 * dm, lp_cache=cache)
        assert cache.misses == 1 and cache.hits == 1
        assert again.max_utilisation == pytest.approx(2.0 * first.max_utilisation, rel=1e-6)

    def test_infeasible_on_fresh_and_reused_structure(self):
        # Node 3 has no outgoing edge, so demand from 3 is unroutable; the
        # destination support {2} stays identical across both solves, so
        # the second one exercises the RHS-only re-solve error path.
        net = Network(4, [(0, 1), (1, 2), (2, 1), (1, 0), (2, 3)])
        cache = LinearProgramCache()
        feasible = np.zeros((4, 4))
        feasible[0, 2] = 1.0
        solve_optimal_max_utilisation(net, feasible, lp_cache=cache)
        infeasible = np.zeros((4, 4))
        infeasible[3, 2] = 1.0
        with pytest.raises(InfeasibleRoutingError):
            solve_optimal_max_utilisation(net, infeasible, lp_cache=cache)
        assert cache.hits == 1  # the failing solve went through the cached structure
        # the structure stays usable after a failed solve
        result = solve_optimal_max_utilisation(net, feasible, lp_cache=cache)
        assert result.max_utilisation > 0.0

    def test_lru_eviction_of_structures(self):
        cache = LinearProgramCache(max_entries=2)
        net = abilene()
        for t in (1, 2, 3):
            dm = np.zeros((net.num_nodes,) * 2)
            dm[0, t] = 1.0
            solve_optimal_max_utilisation(net, dm, lp_cache=cache)
        assert len(cache) == 2
        with pytest.raises(ValueError):
            LinearProgramCache(max_entries=0)


def result_digest(result) -> str:
    """Bytes of an LP result: the optimum and every commodity flow."""
    payload = hashlib.sha256(np.float64(result.max_utilisation).tobytes())
    payload.update(np.ascontiguousarray(result.commodity_flows).tobytes())
    return payload.hexdigest()


#: Solves one nsfnet bimodal demand on a fresh structure in a clean process.
CLEAN_SOLVE = """
import sys
from repro.flows.lp import LinearProgramStructure
from repro.graphs import topology
from repro.traffic import bimodal_matrix
from tests.test_flows_lp import result_digest
net = topology("nsfnet")
structure = LinearProgramStructure(net, range(net.num_nodes))
print(result_digest(structure.solve(bimodal_matrix(net.num_nodes, seed=int(sys.argv[1])))))
"""


@pytest.mark.skipif(not direct_solver_available(), reason="direct HiGHS bindings unavailable")
class TestThreadSolvers:
    """Structures hold only the assembled LP; each thread has its own solver."""

    @pytest.fixture(autouse=True)
    def clean_breaker(self):
        DIRECT_SOLVER_BREAKER.reset()
        yield
        DIRECT_SOLVER_BREAKER.reset()

    def test_threads_sharing_a_structure_match_serial_solves(self):
        net = abilene()
        structure = LinearProgramStructure(net, range(net.num_nodes))
        demands = [bimodal_matrix(net.num_nodes, seed=seed) for seed in range(16)]
        serial = [result_digest(structure.solve(dm)) for dm in demands]

        class SlowLoad(lp_module._highs._Highs):
            """Yields the GIL before loading, so any race on the shared LP shows."""

            def passModel(self, lp):
                time.sleep(0.002)
                return super().passModel(lp)

        threaded = [None] * len(demands)
        barrier = threading.Barrier(2)

        def worker(offset):
            solver = SlowLoad()
            solver.setOptionValue("output_flag", False)
            lp_module._SOLVERS.highs = solver
            barrier.wait()
            for i in range(offset, len(demands), 2):
                threaded[i] = result_digest(structure.solve(demands[i]))

        threads = [threading.Thread(target=worker, args=(offset,)) for offset in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert threaded == serial

    def test_failed_run_drops_only_this_threads_solver(self, monkeypatch):
        net = topology("nsfnet")
        structure = LinearProgramStructure(net, range(net.num_nodes))
        demand = bimodal_matrix(net.num_nodes, seed=5)

        # Another thread solves first and keeps its solver across the failure.
        solved, failed, verdict = threading.Event(), threading.Event(), {}

        def bystander():
            structure.solve(demand)
            own = lp_module._SOLVERS.highs
            solved.set()
            failed.wait(timeout=60)
            verdict["kept"] = lp_module._SOLVERS.highs is own

        other = threading.Thread(target=bystander)
        other.start()
        assert solved.wait(timeout=60)

        class FailingRun(lp_module._highs._Highs):
            def run(self):
                raise RuntimeError("injected HiGHS failure")

        flaky = FailingRun()
        flaky.setOptionValue("output_flag", False)
        monkeypatch.setattr(lp_module._SOLVERS, "highs", flaky, raising=False)
        with pytest.warns(RuntimeWarning, match="falling back to linprog"):
            fallback = structure.solve(demand)
        failed.set()
        other.join(timeout=60)
        assert not other.is_alive()
        assert verdict == {"kept": True}
        assert lp_module._SOLVERS.highs is None
        assert result_digest(fallback) == result_digest(
            structure._solve_linprog(structure.equality_rhs(demand))
        )

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            again = structure.solve(demand)
        assert type(lp_module._SOLVERS.highs) is lp_module._highs._Highs
        assert DIRECT_SOLVER_BREAKER.state == "closed"
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c", CLEAN_SOLVE, "5"],
            cwd=root,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert result_digest(again) == proc.stdout.strip()


class TestCache:
    def test_cache_hits_do_not_resolve(self):
        cache = OptimalUtilisationCache()
        net = triangle_network()
        dm = dm_single(3, 0, 2, 4.0)
        first = cache.optimal_max_utilisation(net, dm)
        assert len(cache) == 1
        second = cache.optimal_max_utilisation(net, dm)
        assert first == second
        assert len(cache) == 1

    def test_cache_distinguishes_networks(self):
        cache = OptimalUtilisationCache()
        dm = dm_single(3, 0, 2, 4.0)
        cache.optimal_max_utilisation(triangle_network(10.0), dm)
        cache.optimal_max_utilisation(triangle_network(20.0), dm)
        assert len(cache) == 2

    def test_cache_eviction(self):
        cache = OptimalUtilisationCache(max_entries=2)
        net = triangle_network()
        for d in (1.0, 2.0, 3.0):
            cache.optimal_max_utilisation(net, dm_single(3, 0, 2, d))
        assert len(cache) == 2

    def test_cache_validates_max_entries(self):
        with pytest.raises(ValueError):
            OptimalUtilisationCache(max_entries=0)

    def test_eviction_is_lru_not_fifo(self):
        """Hits refresh recency: re-reading an old entry protects it.

        The pre-fix FIFO (``pop(next(iter(...)))``) evicted the *oldest
        insertion* regardless of use, so a cyclical sequence's working set
        could be evicted by one-off matrices even while being hit on every
        step.
        """
        cache = OptimalUtilisationCache(max_entries=2)
        net = triangle_network()
        dm_a, dm_b, dm_c = (dm_single(3, 0, 2, d) for d in (1.0, 2.0, 3.0))
        cache.optimal_max_utilisation(net, dm_a)
        cache.optimal_max_utilisation(net, dm_b)
        cache.optimal_max_utilisation(net, dm_a)  # refresh A's recency
        cache.optimal_max_utilisation(net, dm_c)  # evicts B, not A
        misses_before = cache.misses
        cache.optimal_max_utilisation(net, dm_a)
        assert cache.misses == misses_before, "A was evicted despite being most-recent"
        cache.optimal_max_utilisation(net, dm_b)
        assert cache.misses == misses_before + 1, "B should have been the LRU victim"


class TestFingerprintKeys:
    def test_hash_collision_does_not_alias_networks(self):
        """Same ``hash()`` on distinct networks must not return a stale optimum.

        The pre-fix key was ``hash(network)``: any two networks whose
        hashes collided silently shared cache entries, so the second lookup
        returned the first network's optimum.  Structural fingerprints
        cannot collide.
        """

        class CollidingNetwork(Network):
            def __hash__(self):
                return 1234

        slim = CollidingNetwork(3, [(0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0)], 10.0)
        fat = CollidingNetwork(3, [(0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0)], 20.0)
        assert hash(slim) == hash(fat)
        assert network_fingerprint(slim) != network_fingerprint(fat)
        cache = OptimalUtilisationCache()
        dm = dm_single(3, 0, 2, 10.0)
        u_slim = cache.optimal_max_utilisation(slim, dm)
        u_fat = cache.optimal_max_utilisation(fat, dm)
        assert len(cache) == 2
        assert u_slim == pytest.approx(2.0 * u_fat, rel=1e-6)

    def test_fingerprint_sensitive_to_structure(self):
        a = triangle_network()
        assert network_fingerprint(a) == network_fingerprint(triangle_network())
        assert network_fingerprint(a) != network_fingerprint(triangle_network(20.0))
        assert network_fingerprint(a) != network_fingerprint(line_network(3))


class TestOptimumStore:
    def test_roundtrip_and_cross_cache_reuse(self, tmp_path):
        net = triangle_network()
        dm = dm_single(3, 0, 2, 4.0)
        first = OptimalUtilisationCache(store=tmp_path)
        value = first.optimal_max_utilisation(net, dm)
        assert first.misses == 1
        # A brand-new cache over the same directory hits the store, not HiGHS.
        second = OptimalUtilisationCache(store=tmp_path)
        assert second.optimal_max_utilisation(net, dm) == value
        assert second.misses == 0 and second.hits == 1

    def test_store_keys_on_network_and_demand(self, tmp_path):
        store = LPOptimumStore(tmp_path)
        net = triangle_network()
        dm = dm_single(3, 0, 2, 4.0)
        store.put(net, dm, 0.5)
        assert store.get(net, dm) == 0.5
        assert store.get(net, 2.0 * dm) is None
        assert store.get(triangle_network(20.0), dm) is None
        assert len(store) == 1

    def test_corrupt_entries_read_as_misses(self, tmp_path):
        store = LPOptimumStore(tmp_path)
        net = triangle_network()
        dm = dm_single(3, 0, 2, 4.0)
        path = store.put(net, dm, 0.5)
        path.write_text("{not json")
        assert store.get(net, dm) is None
        path.write_text('{"format": 999, "optimum": 0.5}')
        assert store.get(net, dm) is None
        path.write_text('{"format": 1, "optimum": "half"}')
        assert store.get(net, dm) is None
        store.put(net, dm, 0.75)  # overwrites the corrupt entry
        assert store.get(net, dm) == 0.75

    def test_env_variable_configures_default_store(self, tmp_path, monkeypatch):
        from repro.flows.lp import LP_STORE_ENV

        monkeypatch.setenv(LP_STORE_ENV, str(tmp_path))
        net = triangle_network()
        dm = dm_single(3, 0, 2, 4.0)
        writer = OptimalUtilisationCache()
        value = writer.optimal_max_utilisation(net, dm)
        reader = OptimalUtilisationCache()
        assert reader.optimal_max_utilisation(net, dm) == value
        assert reader.misses == 0
        assert len(LPOptimumStore(tmp_path)) == 1
