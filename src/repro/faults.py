"""Deterministic, seedable fault injection for the serve/sweep stack.

The reproduction pins *correctness* with bit-identity tests; this module
pins *resilience* the same way.  A :class:`FaultPlan` maps named fault
sites (``"lp.solve"``, ``"queue.claim"``, ...) to a :class:`FaultRule`
describing what goes wrong there — a raised error, an added delay, or a
hard process crash — and exactly when, driven either by a 0-based call
``schedule`` or by a seeded per-site PRNG ``probability``.  The same plan
therefore reproduces the same fault sequence on every run, so chaos tests
are as deterministic as the rest of the suite.

Arming:

``inject(plan)``
    Context manager.  Arms the plan process-wide *and* exports it through
    the ``REPRO_FAULT_PLAN`` environment variable so worker subprocesses
    spawned inside the block inherit it (they arm themselves from the env
    at import time).  Both are restored on exit.

``REPRO_FAULT_PLAN``
    JSON plan in the environment; armed automatically at import.

When no plan is armed, each :func:`fault_point` call is a single module
global read and ``None`` check — zero measurable overhead on the hot
paths (enforced by the benchmark regression gate).
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Tuple

__all__ = [
    "CRASH_EXIT_CODE",
    "FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "FAULT_SITES",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "fault_point",
    "inject",
]

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Exit status used by ``kind="crash"`` faults, distinct from common shell
#: and python statuses so tests can assert the crash was the injected one.
CRASH_EXIT_CODE = 86

FAULT_KINDS: Tuple[str, ...] = ("error", "delay", "crash")

#: Registered injection sites.  ``fault_point`` rejects unknown sites so a
#: typo in a plan fails loudly instead of silently never firing; sites
#: prefixed ``test.`` are always accepted for the framework's own tests.
FAULT_SITES: Tuple[str, ...] = (
    "lp.solve",
    "backend.factorise",
    "store.put",
    "lp_store.put",
    "queue.claim",
    "queue.heartbeat",
    "queue.complete",
    "service.tick",
)


class FaultInjected(RuntimeError):
    """Raised at a fault site by an armed ``kind="error"`` rule."""

    def __init__(self, site: str, fire: int):
        super().__init__(f"injected fault at {site!r} (fire #{fire})")
        self.site = site
        self.fire = fire


def _check_site(site: str) -> str:
    if site not in FAULT_SITES and not site.startswith("test."):
        raise ValueError(
            f"unknown fault site {site!r}; registered sites: {', '.join(FAULT_SITES)}"
        )
    return site


@dataclass(frozen=True)
class FaultRule:
    """What goes wrong at one site, and when.

    Exactly one of ``probability`` (seeded Bernoulli per call) or
    ``schedule`` (explicit 0-based call indices) selects the firing
    calls.  ``limit`` caps the total number of fires; ``delay_s`` is the
    sleep for ``kind="delay"``.
    """

    kind: str
    probability: Optional[float] = None
    schedule: Optional[Tuple[int, ...]] = None
    seed: int = 0
    delay_s: float = 0.05
    limit: Optional[int] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if (self.probability is None) == (self.schedule is None):
            raise ValueError("exactly one of probability/schedule must be set")
        if self.probability is not None and not 0.0 < self.probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1], got {self.probability}")
        if self.schedule is not None:
            object.__setattr__(self, "schedule", tuple(int(i) for i in self.schedule))
            if any(i < 0 for i in self.schedule):
                raise ValueError("schedule indices must be >= 0")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be >= 1")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.probability is not None:
            out["probability"] = self.probability
        if self.schedule is not None:
            out["schedule"] = list(self.schedule)
        if self.seed:
            out["seed"] = self.seed
        if self.delay_s != 0.05:
            out["delay_s"] = self.delay_s
        if self.limit is not None:
            out["limit"] = self.limit
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultRule":
        unknown = set(data) - {"kind", "probability", "schedule", "seed", "delay_s", "limit"}
        if unknown:
            raise ValueError(f"unknown fault rule keys: {sorted(unknown)}")
        sched = data.get("schedule")
        return cls(
            kind=data["kind"],
            probability=data.get("probability"),
            schedule=tuple(sched) if sched is not None else None,
            seed=int(data.get("seed", 0)),
            delay_s=float(data.get("delay_s", 0.05)),
            limit=data.get("limit"),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A mapping of fault sites to the rules armed at them."""

    rules: Dict[str, FaultRule] = field(default_factory=dict)

    def __post_init__(self):
        for site in self.rules:
            _check_site(site)

    def to_dict(self) -> dict:
        return {site: rule.to_dict() for site, rule in sorted(self.rules.items())}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        return cls({site: FaultRule.from_dict(rule) for site, rule in data.items()})

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("fault plan JSON must be an object of site -> rule")
        return cls.from_dict(data)

    @classmethod
    def single(cls, site: str, **rule) -> "FaultPlan":
        """Convenience: a plan with one rule at one site."""
        return cls({site: FaultRule(**rule)})


class _Armed:
    """Runtime state of an armed plan: per-site counters and PRNGs."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._calls: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {
            site: random.Random(f"{rule.seed}:{site}")
            for site, rule in plan.rules.items()
            if rule.probability is not None
        }

    def should_fire(self, site: str) -> Optional[Tuple[FaultRule, int]]:
        rule = self.plan.rules.get(site)
        if rule is None:
            return None
        with self._lock:
            index = self._calls.get(site, 0)
            self._calls[site] = index + 1
            fired = self._fired.get(site, 0)
            if rule.limit is not None and fired >= rule.limit:
                return None
            if rule.schedule is not None:
                fire = index in rule.schedule
            else:
                fire = self._rngs[site].random() < rule.probability
            if not fire:
                return None
            self._fired[site] = fired + 1
            return rule, fired

    def counts(self) -> Dict[str, Tuple[int, int]]:
        with self._lock:
            return {
                site: (self._calls.get(site, 0), self._fired.get(site, 0))
                for site in self.plan.rules
            }


# Deliberately a module global, not thread-local: service batcher threads
# and worker heartbeat threads must observe a plan armed from a test's
# main thread.  Disarmed fast path == one global read + None check.
_ACTIVE: Optional[_Armed] = None


def active_plan() -> Optional[FaultPlan]:
    """The currently armed plan, or None."""
    armed = _ACTIVE
    return armed.plan if armed is not None else None


def fault_counts() -> Dict[str, Tuple[int, int]]:
    """Per-site ``(calls, fires)`` for the armed plan ({} when disarmed)."""
    armed = _ACTIVE
    return armed.counts() if armed is not None else {}


def fault_point(site: str) -> None:
    """Declare a fault site.  No-op unless an armed rule fires here.

    ``kind="error"`` raises :class:`FaultInjected`; ``kind="delay"``
    sleeps ``delay_s``; ``kind="crash"`` terminates the process with
    ``os._exit(CRASH_EXIT_CODE)`` — no cleanup, no atexit — emulating
    ``kill -9`` / OOM at exactly this point.
    """
    armed = _ACTIVE
    if armed is None:
        return
    _check_site(site)
    hit = armed.should_fire(site)
    if hit is None:
        return
    rule, fire = hit
    if rule.kind == "delay":
        time.sleep(rule.delay_s)
        return
    if rule.kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    raise FaultInjected(site, fire)


def _arm(plan: Optional[FaultPlan]) -> None:
    global _ACTIVE
    _ACTIVE = _Armed(plan) if plan is not None and plan.rules else None


def _set_active(armed: Optional[_Armed]) -> None:
    global _ACTIVE
    _ACTIVE = armed


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm *plan* process-wide and export it to subprocesses via env."""
    prev_armed = _ACTIVE
    prev_env = os.environ.get(FAULT_PLAN_ENV)
    _arm(plan)
    os.environ[FAULT_PLAN_ENV] = plan.to_json()
    try:
        yield plan
    finally:
        _set_active(prev_armed)
        if prev_env is None:
            os.environ.pop(FAULT_PLAN_ENV, None)
        else:
            os.environ[FAULT_PLAN_ENV] = prev_env


def _arm_from_env() -> None:
    text = os.environ.get(FAULT_PLAN_ENV)
    if not text:
        return
    try:
        _arm(FaultPlan.from_json(text))
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"invalid {FAULT_PLAN_ENV}: {exc}") from exc


_arm_from_env()
