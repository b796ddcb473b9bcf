"""Outside-in layer tracing: timing wrappers installed around public calls.

Nothing in ``src/`` knows about this module.  :func:`install` replaces each
layer's public entry points (module functions, class methods, registered
factories) with wrappers that record a span per call on a :class:`Tracer`.
A span's *self time* is its duration minus the time of the wrapped spans
nested directly inside it, so a layer is never charged for the layers it
calls.  A call that re-enters the layer it is already in (``reward`` calling
``utilisation_ratio``) adds to the layer's time but not to its call count.

Spans read the calling thread's CPU clock (``time.thread_time``), so time
the host gives to other tenants is not charged to a layer, and spans on
the service's batcher thread exclude the HTTP threads' work.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import threading
import time
from collections import defaultdict

import numpy as np

#: Function and method entry points per span: (module, attribute path, span).
#: A span name is ``<layer>.<what>``; the reported per-layer metrics are
#: ``<span>_s`` (self time) and ``<span>_calls``.
TIMED = (
    ("repro.graphs.modifications", "remove_random_edge", "graphs.edge_removal"),
    ("repro.graphs.dynamics", "NetworkTimeline.network_at", "graphs.timeline"),
    ("repro.graphs.dynamics", "NetworkTimeline.networks", "graphs.timeline"),
    ("repro.graphs.dynamics", "NetworkDelta.apply", "graphs.timeline"),
    ("repro.traffic.sequences", "train_test_sequences", "traffic.sequences"),
    ("repro.routing.shortest_path", "shortest_path_routing", "routing.tables"),
    ("repro.routing.shortest_path", "ecmp_routing", "routing.tables"),
    ("repro.routing.softmin", "softmin_routing", "routing.softmin"),
    ("repro.engine.softmin_batch", "batch_softmin_ratios", "routing.softmin"),
    ("repro.tensor.tensor", "Tensor.backward", "tensor.backward"),
    ("repro.rl.ppo", "PPO.collect_rollout", "rl.rollout"),
    ("repro.rl.ppo", "PPO.update", "rl.update"),
    ("repro.envs.reward", "RewardComputer.reward", "envs.reward"),
    ("repro.envs.reward", "RewardComputer.utilisation_ratio", "envs.reward"),
    ("repro.envs.reward", "RewardComputer.ratio_from_achieved", "envs.reward"),
    ("repro.engine.evaluate", "warm_lp_cache", "lp.warm"),
    ("repro.flows.lp", "LinearProgramStructure.solve", "lp.solve"),
    ("repro.engine.evaluate", "batch_evaluate", "engine.evaluate"),
    ("repro.engine.evaluate", "batch_evaluate_routing", "engine.evaluate"),
    ("repro.flows.simulator", "link_loads", "engine.load_solve"),
    ("repro.engine.simulator_batch", "destination_link_loads", "engine.load_solve"),
    ("repro.engine.simulator_batch", "destination_link_loads_sequence", "engine.load_solve"),
    ("repro.engine.simulator_batch", "flow_link_loads", "engine.load_solve"),
    ("repro.engine.backend", "factorise_balance_system", "engine.factorise"),
    ("repro.service.engine", "ServiceEngine.evaluate_batch", "service.tick"),
)

#: Policy forward passes: these methods on every ``ActorCriticPolicy`` class.
POLICY_METHODS = ("act", "act_batch", "evaluate")

#: Registered factories timed when the runner fetches them, by registry kind.
REGISTRY_SPANS = {
    "topology": "graphs.topology",
    "policy": "policies.build",
    "dynamics model": "graphs.timeline",
}

#: Spans whose individual durations are kept for percentiles.
SAMPLED = ("service.tick",)

#: The cache classes whose hit/miss counters give the ratio metrics.
CACHES = {
    "lp.structure": ("repro.flows.lp", "LinearProgramCache"),
    "lp.optimum": ("repro.flows.lp", "OptimalUtilisationCache"),
    "engine.factorisation": ("repro.engine.backend", "FactorisationCache"),
}


class _Frame:
    __slots__ = ("name", "start", "children")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.children = 0.0


class Tracer:
    """Span and counter registry; spans nest per thread."""

    def __init__(self, clock=time.thread_time):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_time: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self.samples: dict = defaultdict(list)
        self.top_level_s = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> _Frame:
        frame = _Frame(name, self.clock())
        self._stack().append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        duration = self.clock() - frame.start
        stack = self._stack()
        stack.pop()
        parent = stack[-1] if stack else None
        with self._lock:
            self.self_time[frame.name] += duration - frame.children
            if parent is None:
                self.top_level_s += duration
            if parent is None or parent.name != frame.name:
                self.calls[frame.name] += 1
            if frame.name in SAMPLED:
                self.samples[frame.name].append(duration)
        if parent is not None:
            parent.children += duration

    def timed(self, name: str, fn):
        """``fn`` wrapped so every call records a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(frame)

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped so every call adds one to counter ``name`` (untimed).

        Lock-free for speed: counted calls run on one thread at a time in
        every traced process (the run, or the service's batcher thread).
        """
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module global bound to ``original`` at ``replacement``.

    ``from x import f`` copies the function into the importer's namespace,
    so patching the defining module alone would miss most call sites.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _wrap_method(tracer: Tracer, cls: type, attr: str, span: str) -> None:
    fn = cls.__dict__.get(attr)
    if fn is None:
        return
    setattr(cls, attr, tracer.timed(span, fn))


def _subclasses(cls: type) -> list:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


class CacheCounters:
    """Every live instance of the traced cache classes, for hit ratios."""

    def __init__(self):
        self.instances: dict = {key: [] for key in CACHES}

    def ratio(self, key: str) -> float:
        """Hits over lookups across all instances; 0.0 with no lookups."""
        hits = sum(cache.hits for cache in self.instances[key])
        misses = sum(cache.misses for cache in self.instances[key])
        return hits / (hits + misses) if hits + misses else 0.0


def install(tracer: Tracer) -> CacheCounters:
    """Wrap every layer entry point of the already-imported ``repro`` package.

    Call after ``import repro.api`` and before the work to trace.  Returns
    the cache tracker whose ratios the report reads.
    """
    for module_name in {entry[0] for entry in TIMED} | {"repro.tensor.ops", "repro.api.registry"}:
        importlib.import_module(module_name)

    for module_name, path, span in TIMED:
        owner, attr = _resolve(module_name, path)
        if isinstance(owner, type):
            _wrap_method(tracer, owner, attr, span)
        else:
            original = getattr(owner, attr)
            _rebind(original, tracer.timed(span, original))

    from repro.policies.base import ActorCriticPolicy

    for cls in _subclasses(ActorCriticPolicy):
        for attr in POLICY_METHODS:
            _wrap_method(tracer, cls, attr, "policies.forward")

    ops = sys.modules["repro.tensor.ops"]
    for attr, original in list(vars(ops).items()):
        if not attr.startswith("_") and getattr(original, "__module__", None) == ops.__name__:
            _rebind(original, tracer.counted("tensor.op", original))

    from repro.envs.iterative_env import IterativeRoutingEnv
    from repro.envs.routing_env import RoutingEnv

    for env_cls in (RoutingEnv, IterativeRoutingEnv):
        env_cls.step = tracer.counted("rl.env_step", env_cls.__dict__["step"])

    from repro.api.registry import Registry

    original_get = Registry.get

    def get(self, name):
        factory = original_get(self, name)
        span = REGISTRY_SPANS.get(self.kind)
        return factory if span is None else tracer.timed(span, factory)

    Registry.get = get

    # Instances made at import (the shared module-level caches) are found
    # on the heap; later ones register themselves as they are built.
    counters = CacheCounters()
    live = gc.get_objects()
    for key, (module_name, class_name) in CACHES.items():
        cls = getattr(importlib.import_module(module_name), class_name)
        counters.instances[key].extend(obj for obj in live if type(obj) is cls)
        cls.__init__ = _tracking_init(cls.__init__, counters.instances[key])
    return counters


def _tracking_init(init, registry: list):
    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        registry.append(self)

    return wrapper


def percentile(values, q: float) -> float:
    """``np.percentile`` of ``values``, 0.0 when empty."""
    return float(np.percentile(values, q)) if len(values) else 0.0


#: Per-layer metric -> (kind, source).  ``self`` reads a span's self time,
#: ``calls`` its outermost call count, ``count`` an untimed counter.
SPAN_METRICS = {
    "graphs.topology_s": ("self", "graphs.topology"),
    "graphs.edge_removal_s": ("self", "graphs.edge_removal"),
    "graphs.edge_removal_calls": ("calls", "graphs.edge_removal"),
    "graphs.timeline_s": ("self", "graphs.timeline"),
    "traffic.sequences_s": ("self", "traffic.sequences"),
    "routing.tables_s": ("self", "routing.tables"),
    "routing.tables_calls": ("calls", "routing.tables"),
    "routing.softmin_s": ("self", "routing.softmin"),
    "routing.softmin_calls": ("calls", "routing.softmin"),
    "policies.build_s": ("self", "policies.build"),
    "policies.forward_s": ("self", "policies.forward"),
    "policies.forward_calls": ("calls", "policies.forward"),
    "tensor.op_calls": ("count", "tensor.op"),
    "tensor.backward_s": ("self", "tensor.backward"),
    "rl.rollout_s": ("self", "rl.rollout"),
    "rl.update_s": ("self", "rl.update"),
    "rl.env_steps": ("count", "rl.env_step"),
    "envs.reward_s": ("self", "envs.reward"),
    "envs.reward_calls": ("calls", "envs.reward"),
    "lp.warm_s": ("self", "lp.warm"),
    "lp.solve_s": ("self", "lp.solve"),
    "lp.solves": ("calls", "lp.solve"),
    "engine.evaluate_s": ("self", "engine.evaluate"),
    "engine.load_solve_s": ("self", "engine.load_solve"),
    "engine.factorise_s": ("self", "engine.factorise"),
    "engine.factorise_calls": ("calls", "engine.factorise"),
}


def report(tracer: Tracer, counters: CacheCounters | None) -> dict:
    """The tracer's per-layer metrics, JSON-ready."""
    out = {}
    for metric, (kind, source) in SPAN_METRICS.items():
        if kind == "self":
            out[metric] = tracer.self_time.get(source, 0.0)
        elif kind == "calls":
            out[metric] = tracer.calls.get(source, 0)
        else:
            out[metric] = tracer.counts.get(source, 0)
    if counters is not None:
        out["lp.structure_hit_ratio"] = counters.ratio("lp.structure")
        out["lp.optimum_hit_ratio"] = counters.ratio("lp.optimum")
        out["engine.factorisation_hit_ratio"] = counters.ratio("engine.factorisation")
    ticks = tracer.samples.get("service.tick", [])
    out["service.tick_ms.p50"] = percentile(ticks, 50) * 1000.0
    out["service.tick_ms.p99"] = percentile(ticks, 99) * 1000.0
    out["trace.top_level_s"] = tracer.top_level_s
    return out
