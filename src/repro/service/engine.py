"""The warm half of the routing service: deployment state + batch ticks.

A :class:`ServiceEngine` is everything expensive about a deployment, paid
once at construction: the topology built, every learned policy trained,
every fixed strategy materialised, and the three cache layers primed —
private :class:`~repro.flows.lp.LinearProgramCache` (assembled constraint
structures), private
:class:`~repro.engine.backend.FactorisationCache` (per-destination ``splu``
factors), and the rewarder's :class:`~repro.flows.lp.OptimalUtilisationCache`
(LP optima per demand matrix, backed by the on-disk optimum store when
``$REPRO_LP_STORE`` is set).  After that, :meth:`evaluate_batch` answers a
whole coalesced tick of requests with RHS-only LP re-solves and cached
back-substitutions.

The evaluation path is deliberately the *same code* the offline runner
uses — :func:`~repro.engine.simulator_batch.destination_link_loads_sequence`
for destination-based strategies, the environments' softmin/weights
translation for policies, :meth:`RewardComputer.ratio_from_achieved` for
the denominators — so served numbers match
:func:`repro.engine.batch_evaluate_routing` / :func:`repro.api.run` on the
same spec (bit-identical on the common path; 1e-8 where solver model reuse
differs).

Cache injection is ambient and thread-local (:func:`use_lp_cache`,
:func:`use_factorisation_cache`): the engine binds its private caches
around each tick instead of threading handles through the environment
layer, and two engines (old and new, during a reload) never share state.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Optional, Sequence

import numpy as np

from repro.api.results import ScenarioResult
from repro.api.runner import _SeedRun, _strategy_factory, run as run_scenario
from repro.api.service import RouteEntry, RouteRequest, ServiceSpec
from repro.api.spec import SpecValidationError
from repro.api.store import ResultStore
from repro.engine.backend import (
    FactorisationCache,
    check_backend,
    default_backend,
    use_factorisation_cache,
)
from repro.engine.evaluate import warm_lp_cache
from repro.engine.simulator_batch import destination_link_loads_sequence
from repro.envs.observation import GraphObservation
from repro.envs.reward import RewardComputer, weights_from_action
from repro.envs.routing_env import demand_normaliser
from repro.flows.lp import LinearProgramCache, use_lp_cache
from repro.flows.simulator import max_link_utilisation
from repro.routing.strategy import DestinationRouting
from repro.utils.seeding import rng_from_seed


class ServiceEngine:
    """One deployment's warm state plus its batch evaluation path.

    Parameters
    ----------
    spec:
        The deployment.  The scenario must be single-topology — the
        request surface routes demand matrices over one network.
    echo:
        Print per-update training diagnostics while policies train.
    """

    def __init__(self, spec: ServiceSpec, echo: bool = False):
        self.spec = spec
        scenario = spec.scenario
        self.backend = check_backend(scenario.evaluation.backend)
        self.lp_cache = LinearProgramCache(max_entries=32)
        self.fact_cache = FactorisationCache(max_entries=256)
        self._rng = rng_from_seed(scenario.evaluation.seeds[0])
        self._run_lock = threading.Lock()
        self._run_result: Optional[ScenarioResult] = None

        with self._bindings():
            run = _SeedRun(scenario, scenario.evaluation.seeds[0], echo)
            if not run.single:
                raise SpecValidationError(
                    "the routing service requires a single-topology scenario "
                    f"(topology {scenario.topology.name!r} builds a pool)"
                )
            # ServiceSpec already rejects dynamic scenarios; guard again in
            # case an engine is constructed around the spec layer, so a
            # time-varying scenario is never scored on its base graph.
            if run.dynamics is not None:
                raise SpecValidationError(
                    "the routing service cannot serve a dynamic scenario; "
                    "evaluate it offline with run()/sweep()"
                )
            # Swap in a rewarder wired to the private structure cache before
            # anything trains or warms, so every LP this deployment solves
            # lands in engine-owned state.
            run.rewarder = RewardComputer(lp_cache=self.lp_cache)
            self._seed_run = run
            self.rewarder = run.rewarder
            self.network = run.test_graphs[0]
            scale = run.scale
            self.memory_length = scale.memory_length
            self.softmin_gamma = scale.softmin_gamma
            self.weight_scale = scale.weight_scale
            self.demand_scale = demand_normaliser(run.train_seqs)

            # label -> ("strategy", strategy) | ("policy", (policy, iterative)),
            # in scenario order (policies first, matching result dictionaries).
            self.entries: dict = {}
            if scenario.routing.policies:
                trained = run.train_policies()
                for label, (policy, iterative, _) in trained.items():
                    self.entries[label] = ("policy", (policy, iterative))
            for sspec in scenario.routing.strategies:
                self.entries[sspec.key] = (
                    "strategy",
                    _strategy_factory(sspec)(self.network),
                )
            self._warm()

    # -- warm-up -------------------------------------------------------

    @contextmanager
    def _bindings(self):
        """Install this engine's private caches as the thread's defaults."""
        with use_lp_cache(self.lp_cache), use_factorisation_cache(self.fact_cache):
            yield

    def _warm(self) -> None:
        """Presolve what the held-out workload will ask for.

        LP optima (and with them the assembled constraint structures) for
        every distinct test demand matrix, then one
        stacked load solve per destination-based strategy so the sparse
        backend's factorisations exist before the first request.
        """
        sequences = self._seed_run.test_seqs
        demands = [
            sequence.matrix(step)
            for sequence in sequences
            for step in range(self.memory_length, len(sequence))
        ]
        if not demands:
            return
        warm_lp_cache(
            self.network,
            sequences,
            self.rewarder,
            self.memory_length,
            workers=self.spec.scenario.evaluation.lp_workers,
        )
        first = np.stack(demands[:1])
        for kind, obj in self.entries.values():
            if kind == "strategy" and isinstance(obj, DestinationRouting):
                destination_link_loads_sequence(
                    self.network, obj.destination_table(), first, backend=self.backend
                )

    # -- evaluation ----------------------------------------------------

    def evaluate_batch(self, requests: Sequence[RouteRequest]) -> list:
        """Answer one coalesced tick of requests.

        Returns one element per request, aligned by index: a list of
        :class:`RouteEntry` on success, or the exception that failed that
        request.  Errors are isolated per request — an infeasible demand
        matrix never fails the rest of its tick.  Destination-based
        strategies evaluate the whole tick's matrices in one stacked
        multi-RHS solve per strategy, exactly like
        :func:`repro.engine.batch_evaluate_routing`.
        """
        n = self.network.num_nodes
        entries: list = [[] for _ in requests]
        errors: list = [None] * len(requests)
        for i, request in enumerate(requests):
            if request.demand.shape != (n, n):
                errors[i] = SpecValidationError(
                    f"request demand has shape {request.demand.shape}, but the "
                    f"deployed topology has {n} nodes"
                )
                continue
            unknown = sorted(set(request.labels) - set(self.entries))
            if unknown:
                errors[i] = SpecValidationError(
                    f"unknown routing label(s) {unknown}; this deployment "
                    f"serves {sorted(self.entries)}"
                )
        with self._bindings():
            for label, (kind, obj) in self.entries.items():
                idxs = [
                    i
                    for i, request in enumerate(requests)
                    if errors[i] is None
                    and (not request.labels or label in request.labels)
                ]
                if not idxs:
                    continue
                if kind == "strategy":
                    self._strategy_tick(label, obj, requests, idxs, entries, errors)
                else:
                    self._policy_tick(label, obj, requests, idxs, entries, errors)
        return [
            errors[i] if errors[i] is not None else entries[i]
            for i in range(len(requests))
        ]

    def _entry(self, label: str, achieved: float, demand: np.ndarray) -> RouteEntry:
        """Ratio + optimal from an achieved ``U_max``, rewarder semantics.

        All-zero demand has the defined ratio 1.0 and a 0.0 optimal,
        matching :meth:`RewardComputer.ratio_from_achieved`.
        """
        if not np.any(demand > 0.0):
            return RouteEntry(label, 1.0, float(achieved), 0.0)
        ratio = self.rewarder.ratio_from_achieved(self.network, achieved, demand)
        optimal = self.rewarder.cache.peek(self.network, demand)
        return RouteEntry(label, float(ratio), float(achieved), float(optimal))

    def _strategy_tick(self, label, strategy, requests, idxs, entries, errors):
        if isinstance(strategy, DestinationRouting):
            stacked = np.stack([requests[i].demand for i in idxs])
            try:
                loads = destination_link_loads_sequence(
                    self.network,
                    strategy.destination_table(),
                    stacked,
                    backend=self.backend,
                )
            except Exception as exc:
                for i in idxs:
                    errors[i] = exc
                return
            utilisations = (loads / self.network.capacities).max(axis=1)
            for i, utilisation in zip(idxs, utilisations):
                try:
                    entries[i].append(
                        self._entry(label, float(utilisation), requests[i].demand)
                    )
                except Exception as exc:
                    errors[i] = exc
            return
        with default_backend(self.backend):
            for i in idxs:
                demand = requests[i].demand
                try:
                    achieved = (
                        max_link_utilisation(self.network, strategy, demand)
                        if np.any(demand > 0.0)
                        else 0.0
                    )
                    entries[i].append(self._entry(label, achieved, demand))
                except Exception as exc:
                    errors[i] = exc

    def _policy_tick(self, label, entry, requests, idxs, entries, errors):
        policy, iterative = entry
        if iterative:
            exc = SpecValidationError(
                f"policy {label!r} is iterative (one edge per sub-step) and "
                "cannot answer per-request evaluation; use the /run endpoint"
            )
            for i in idxs:
                errors[i] = exc
            return
        with default_backend(self.backend):
            for i in idxs:
                try:
                    entries[i].append(self._policy_entry(label, policy, requests[i]))
                except Exception as exc:
                    errors[i] = exc

    def _policy_entry(self, label, policy, request: RouteRequest) -> RouteEntry:
        n = self.network.num_nodes
        history = request.history
        if history is None:
            history = np.zeros((self.memory_length, n, n))
        elif history.shape[0] != self.memory_length:
            raise SpecValidationError(
                f"request history has {history.shape[0]} steps, but the "
                f"deployment observes memory_length={self.memory_length}"
            )
        observation = GraphObservation(self.network, history / self.demand_scale)
        action, _, _ = policy.act(observation, self._rng, deterministic=True)
        weights = weights_from_action(action, self.weight_scale)
        routing = self.rewarder.routing_from_weights(
            self.network, weights, self.softmin_gamma
        )
        demand = request.demand
        achieved = (
            max_link_utilisation(self.network, routing, demand)
            if np.any(demand > 0.0)
            else 0.0
        )
        return self._entry(label, achieved, demand)

    # -- full runs -----------------------------------------------------

    def run_result(self) -> ScenarioResult:
        """The scenario's complete offline result, computed once.

        Executes :func:`repro.api.run` under this engine's cache bindings
        (warm structures and optima carry over) and memoises — in memory
        always, and through the spec-hashed
        :class:`~repro.api.store.ResultStore` when the deployment names a
        ``result_store`` directory, so a restarted service reuses the
        stored entry instead of re-running.
        """
        with self._run_lock:
            if self._run_result is None:
                scenario = self.spec.scenario
                store = (
                    ResultStore(self.spec.result_store)
                    if self.spec.result_store
                    else None
                )
                result = store.get(scenario) if store is not None else None
                if result is None:
                    with self._bindings():
                        result = run_scenario(scenario)
                    if store is not None:
                        store.put(scenario, result)
                self._run_result = result
            return self._run_result

    # -- introspection -------------------------------------------------

    def labels(self) -> list:
        """Every routing label this deployment serves, in scenario order."""
        return list(self.entries)

    def evaluable_labels(self) -> list:
        """Labels that answer per-request evaluation (iterative policies
        only run through the offline ``/run`` path)."""
        return [
            label
            for label, (kind, obj) in self.entries.items()
            if kind == "strategy" or not obj[1]
        ]

    def stats(self) -> dict:
        """Cache counters and deployment identity, JSON-ready."""

        def counters(cache) -> dict:
            return {"hits": cache.hits, "misses": cache.misses, "entries": len(cache)}

        return {
            "scenario": self.spec.scenario.name,
            "spec_hash": self.spec.spec_hash(),
            "scenario_hash": self.spec.scenario.spec_hash(),
            "backend": self.backend,
            "labels": self.labels(),
            "num_nodes": self.network.num_nodes,
            "num_edges": self.network.num_edges,
            "caches": {
                "lp_structures": counters(self.lp_cache),
                "factorisations": counters(self.fact_cache),
                "optima": counters(self.rewarder.cache),
            },
        }


__all__ = ["ServiceEngine"]
