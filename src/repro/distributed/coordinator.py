"""The distributed sweep coordinator: enqueue, watch, recover, account.

:func:`run_queue_sweep` is the queue executor behind
``sweep(spec, executor="queue")``.  It owns everything the local
``ProcessPoolExecutor`` path gets for free:

* **enumeration** — the sweep's deduplicated pending sub-specs become
  spec-hash task files, then the queue is *sealed* so draining workers
  know when the job list is complete;
* **local capacity** — ``workers=N`` spawns N ``runner worker --drain``
  subprocesses against the same queue, so a single-host queue sweep needs
  no second terminal (other hosts join with the same command by hand);
* **progress** — each poll cycle folds landed store entries and queue
  states into ``progress.json`` (and JSON-lines events via ``on_event``),
  so a 10k-cell overnight sweep is observable and resumable per cell;
* **recovery** — a digest with *no* trace (crashed mid-transition, or a
  corrupt task file a worker dropped) is re-enqueued from the
  coordinator's own copy of the spec after a grace period, so the queue
  protocol's rare multi-step crash windows cost a retry, not the sweep;
* **failure accounting** — poisoned tasks are collected (not raised
  mid-drain), every result that landed is recorded incrementally, and the
  caller raises one :class:`~repro.api.sweep.SweepExecutionError` naming
  the failing spec hashes at the end.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Mapping, Optional, Union

from repro.api.store import ResultStore
from repro.distributed.queue import QueueError, TaskQueue


def _worker_command(queue_dir: Path, poll_interval: float) -> list:
    """The ``runner worker --drain`` invocation for a locally spawned worker."""
    return [
        sys.executable,
        "-m",
        "repro.experiments.runner",
        "worker",
        str(queue_dir),
        "--drain",
        "--poll",
        str(poll_interval),
    ]


def _worker_env() -> dict:
    """The spawn environment, with *this* repro importable in the child.

    ``python -m`` subprocesses do not inherit ``sys.path`` the way spawned
    multiprocessing workers do, so prepend the package's parent directory
    to ``PYTHONPATH`` — otherwise a source checkout driven with
    ``PYTHONPATH=src pytest`` would spawn workers that cannot import repro.
    """
    import repro

    package_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + os.pathsep + existing if existing else package_root
        )
    return env


def run_queue_sweep(
    queue_dir: Union[str, Path],
    store: ResultStore,
    pending_specs: Mapping,
    record: Callable,
    *,
    workers: int = 0,
    lease_seconds: float = 30.0,
    max_attempts: int = 3,
    backoff_seconds: float = 1.0,
    poll_interval: float = 0.25,
    timeout: Optional[float] = None,
    lost_grace: Optional[float] = None,
    progress_static: Optional[Mapping] = None,
    on_event: Optional[Callable] = None,
    echo: bool = False,
) -> dict:
    """Drain ``pending_specs`` (digest → sub-spec) through a task queue.

    Calls ``record(digest, result)`` as each result lands in the store and
    returns ``{digest: error}`` for tasks that poisoned out; the caller
    turns a non-empty mapping into a ``SweepExecutionError`` after merging
    everything that succeeded.  ``progress_static`` carries whole-sweep
    numbers (total/cached jobs) into ``progress.json``.
    """
    queue_dir = Path(queue_dir)
    queue = TaskQueue.create(
        queue_dir,
        store.directory,
        lease_seconds=lease_seconds,
        max_attempts=max_attempts,
        backoff_seconds=backoff_seconds,
        worker_id="coordinator",
    )

    def emit(event: dict) -> None:
        if on_event is not None:
            on_event(event)

    enqueued = 0
    for digest, sub_spec in pending_specs.items():
        enqueued += queue.enqueue(sub_spec.to_dict(), digest)
    queue.seal(pending_specs)
    emit(
        {
            "event": "enqueued",
            "queue": str(queue_dir),
            "tasks": len(pending_specs),
            "new": enqueued,
            "resumed": len(pending_specs) - enqueued,
        }
    )

    procs = []
    if workers:
        command = _worker_command(queue_dir, poll_interval)
        env = _worker_env()
        procs = [
            subprocess.Popen(
                command,
                env=env,
                stdout=None if echo else subprocess.DEVNULL,
                stderr=None if echo else subprocess.DEVNULL,
            )
            for _ in range(workers)
        ]
        emit({"event": "workers_spawned", "count": workers})

    if lost_grace is None:
        lost_grace = max(2.0 * lease_seconds, 5.0)
    outstanding = dict(pending_specs)
    failures: dict = {}
    missing_since: dict = {}
    last_progress = None
    started = time.time()
    try:
        while outstanding:
            states = queue.states()
            now = time.time()
            for digest in list(outstanding):
                result = store.get(outstanding[digest])
                if result is not None:
                    outstanding.pop(digest)
                    missing_since.pop(digest, None)
                    record(digest, result)
                    emit(
                        {
                            "event": "task_done",
                            "hash": digest,
                            "remaining": len(outstanding),
                        }
                    )
                    continue
                state = states.get(digest)
                if state == "failed":
                    failure = queue.failure(digest) or {}
                    error = failure.get("error", "unknown failure")
                    failures[digest] = error
                    outstanding.pop(digest)
                    emit(
                        {
                            "event": "task_failed",
                            "hash": digest,
                            "attempts": failure.get("attempts"),
                            "error": error.splitlines()[0] if error else error,
                            "remaining": len(outstanding),
                        }
                    )
                elif state is None:
                    # No trace anywhere: a worker crashed inside a
                    # transition window (or dropped a corrupt file).
                    # Re-enqueue from our own copy after a grace period.
                    first_seen = missing_since.setdefault(digest, now)
                    if now - first_seen >= lost_grace:
                        queue.enqueue(outstanding[digest].to_dict(), digest)
                        missing_since.pop(digest, None)
                        emit({"event": "task_requeued", "hash": digest})
                else:
                    missing_since.pop(digest, None)

            counts = queue.counts()
            progress = {
                "format": 1,
                **dict(progress_static or {}),
                "queued": len(pending_specs),
                "done": len(pending_specs) - len(outstanding) - len(failures),
                "failed": len(failures),
                "outstanding": len(outstanding),
                "queue_states": counts,
            }
            if progress != last_progress:
                queue.write_progress({**progress, "updated": time.time()})
                last_progress = progress
                emit({"event": "progress", **progress})

            if not outstanding:
                break
            if timeout is not None and time.time() - started > timeout:
                raise QueueError(
                    f"queue sweep timed out after {timeout:.0f}s with "
                    f"{len(outstanding)} task(s) outstanding (queue: {queue_dir})"
                )
            if procs and all(proc.poll() is not None for proc in procs):
                # Every local worker exited while work remains.  External
                # workers may still drain the queue, but with none attached
                # this would hang forever — surface it instead.
                codes = [proc.returncode for proc in procs]
                if any(code != 0 for code in codes):
                    raise QueueError(
                        f"all {len(procs)} local queue workers exited "
                        f"(codes {codes}) with {len(outstanding)} task(s) "
                        f"outstanding; worker logs: rerun with echo=True"
                    )
                procs = []
            time.sleep(poll_interval)
    finally:
        for proc in procs:
            try:
                proc.wait(timeout=max(5.0, 4 * poll_interval))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()

    queue.write_progress(
        {
            "format": 1,
            **dict(progress_static or {}),
            "queued": len(pending_specs),
            "done": len(pending_specs) - len(failures),
            "failed": len(failures),
            "outstanding": 0,
            "queue_states": queue.counts(),
            "updated": time.time(),
        }
    )
    emit({"event": "drained", "failed": len(failures), "seconds": time.time() - started})
    return failures


__all__ = ["run_queue_sweep"]
