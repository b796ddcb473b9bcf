"""Command-line experiment runner for the declarative scenario API.

Usage::

    # Run a registered scenario, or any spec JSON file on disk
    python -m repro.experiments.runner run fig6 --preset standard --seed 0
    python -m repro.experiments.runner run scenario.json
    python -m repro.experiments.runner run fig6 --set traffic.model=gravity \
        --set topology.name=abilene --set training.total_timesteps=512

    # Fan a scenario out across processes, caching results per spec hash
    python -m repro.experiments.runner sweep fig6 --grid evaluation.seeds=0,1 \
        --workers 2 --store results/
    python -m repro.experiments.runner sweep fig6 --grid traffic.model=bimodal,gravity \
        --grid evaluation.seeds=0,1,2 --workers 4 --store results/

    # Coordinate the same sweep through a shared-filesystem work queue;
    # any host that can see QUEUE/ joins the drain with 'runner worker'
    python -m repro.experiments.runner sweep fig6 --grid evaluation.seeds=0,1,2,3 \
        --executor queue --queue /shared/q --store /shared/results --workers 2 --watch
    python -m repro.experiments.runner worker /shared/q --drain

    # Hold a deployment warm and answer evaluation requests over HTTP
    python -m repro.experiments.runner serve fig6 --preset quick --port 8047

    # Discover what the registries provide
    python -m repro.experiments.runner list scenarios
    python -m repro.experiments.runner list topologies
    python -m repro.experiments.runner list dynamics --json
    python -m repro.experiments.runner describe dynamics link_flap

``--set PATH=VALUE`` applies a dotted-path override to the scenario spec
(values parse as JSON, falling back to strings), so any axis is adjustable
from the shell.  ``--timesteps`` remains shorthand for
``--set training.total_timesteps=N``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.api.registry import UnknownComponentError, registry_for
from repro.api.presets import SCENARIOS, get_scenario
from repro.flows.lp import LP_STORE_ENV
from repro.api.runner import run as run_scenario
from repro.api.spec import ScenarioSpec, SpecValidationError
from repro.api.store import ResultStore
from repro.api.sweep import SweepExecutionError, sweep as run_sweep
from repro.distributed.queue import QueueError
from repro.experiments.config import PRESETS
from repro.experiments.reporting import format_scenario, format_sweep

LIST_AXES = ("topologies", "traffic", "strategies", "policies", "dynamics", "scenarios", "all")


def _add_scale_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="scale preset (quick/standard/paper)",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--timesteps", type=int, default=None, help="override the preset's training volume"
    )
    parser.add_argument(
        "--echo", action="store_true", help="print per-update training diagnostics"
    )
    parser.add_argument(
        "--lp-workers",
        type=int,
        default=None,
        metavar="N",
        help="fan the LP reward-denominator warm-up over N worker processes "
        "(shorthand for --set evaluation.lp_workers=N)",
    )
    parser.add_argument(
        "--lp-store",
        metavar="DIR",
        default=None,
        help="persist LP optima per (network fingerprint, demand hash) in DIR "
        "so repeated runs and sweep workers never re-solve a demand matrix "
        f"(sets ${LP_STORE_ENV} for this process and its workers)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Run declarative GDDR experiment scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    run_p = sub.add_parser(
        "run", help="run a registered scenario by name, or a spec JSON file"
    )
    run_p.add_argument(
        "scenario", help="scenario name (see 'list scenarios') or path to a JSON spec"
    )
    _add_scale_options(run_p)
    run_p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="PATH=VALUE",
        help="dotted-path spec override, e.g. --set traffic.model=gravity",
    )
    run_p.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the resolved spec as JSON and exit without running",
    )

    sweep_p = sub.add_parser(
        "sweep",
        help="fan a scenario out across worker processes, one sub-run per "
        "(grid point, seed), caching results per spec hash",
    )
    sweep_p.add_argument(
        "scenario", help="scenario name (see 'list scenarios') or path to a JSON spec"
    )
    _add_scale_options(sweep_p)
    sweep_p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="PATH=VALUE",
        help="dotted-path spec override applied before the grid expands",
    )
    sweep_p.add_argument(
        "--grid",
        dest="grid",
        action="append",
        default=[],
        metavar="PATH=V1,V2,...",
        help="sweep axis: dotted path with comma-separated values "
        "(repeat for a multi-axis grid; values parse as JSON with string fallback)",
    )
    sweep_p.add_argument(
        "--workers", type=int, default=1, help="worker process count (1 = in-process)"
    )
    sweep_p.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="result-store directory; finished sub-runs persist per spec hash "
        "and later sweeps resume from them",
    )
    sweep_p.add_argument(
        "--no-cache",
        action="store_true",
        help="skip store lookups (re-execute everything) but still write results back",
    )
    sweep_p.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the resolved spec and grid as JSON and exit without running",
    )
    sweep_p.add_argument(
        "--executor",
        choices=["local", "queue"],
        default="local",
        help="'local' drains jobs in-process/ProcessPoolExecutor; 'queue' "
        "coordinates them through a shared-filesystem work queue that "
        "'runner worker' processes on any host drain (requires --queue "
        "and --store; --workers N spawns N local workers, 0 spawns none)",
    )
    sweep_p.add_argument(
        "--queue",
        metavar="DIR",
        default=None,
        help="work-queue directory for --executor queue (must be visible "
        "to every participating host)",
    )
    sweep_p.add_argument(
        "--lease",
        type=float,
        default=None,
        metavar="SECONDS",
        help="queue lease duration before a silent worker's task is stolen "
        "(default 30; keep generous on NFS)",
    )
    sweep_p.add_argument(
        "--watch",
        action="store_true",
        help="stream JSON-lines progress events (enqueued/task_done/"
        "task_failed/progress) to stdout while the sweep drains",
    )

    worker_p = sub.add_parser(
        "worker",
        help="drain tasks from a sweep work queue (run on any host sharing "
        "the queue directory; see 'sweep --executor queue')",
    )
    worker_p.add_argument("queue", metavar="QUEUE_DIR", help="the shared queue directory")
    worker_p.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="result-store override (default: the store recorded in the queue)",
    )
    worker_p.add_argument(
        "--worker-id", default=None, help="stable identity (default: <host>-<pid>)"
    )
    worker_p.add_argument(
        "--lease",
        type=float,
        default=None,
        metavar="SECONDS",
        help="override the queue's lease duration for this worker",
    )
    worker_p.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS", help="claim poll interval"
    )
    worker_p.add_argument(
        "--max-tasks", type=int, default=None, metavar="N", help="exit after N tasks"
    )
    worker_p.add_argument(
        "--drain",
        action="store_true",
        help="exit once the queue is sealed and nothing is pending or active",
    )
    worker_p.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after this long without claiming anything",
    )
    worker_p.add_argument(
        "--wait",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="wait up to this long for the queue to be created "
        "(lets workers start before the coordinator)",
    )
    worker_p.add_argument(
        "--echo", action="store_true", help="print per-task worker activity"
    )

    serve_p = sub.add_parser(
        "serve",
        help="load a scenario once (train policies, warm LP caches) and "
        "answer evaluation requests over HTTP until interrupted",
    )
    serve_p.add_argument(
        "scenario", help="scenario name (see 'list scenarios') or path to a JSON spec"
    )
    _add_scale_options(serve_p)
    serve_p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="PATH=VALUE",
        help="dotted-path spec override, e.g. --set traffic.model=gravity",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port",
        type=int,
        default=8047,
        help="listen port (0 picks a free one; the bound port is printed)",
    )
    serve_p.add_argument(
        "--workers",
        type=int,
        default=8,
        help="max requests coalesced into one evaluation tick",
    )
    serve_p.add_argument(
        "--window-ms",
        type=float,
        default=2.0,
        help="coalescing window: how long a tick waits for companions",
    )
    serve_p.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="result-store directory backing the /run endpoint",
    )
    serve_p.add_argument(
        "--queue-depth",
        type=int,
        default=256,
        metavar="N",
        help="max requests waiting for a tick before new ones get a 503",
    )
    serve_p.add_argument(
        "--tick-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-tick deadline: a slower tick answers its requests with a "
        "typed 504 instead of hanging them (default: no watchdog)",
    )

    list_p = sub.add_parser("list", help="list registered components or scenarios")
    list_p.add_argument("axis", nargs="?", default="all", choices=LIST_AXES)
    list_p.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the machine-readable catalog (name, description, docstring, "
        "accepted params with defaults) instead of the text listing",
    )

    describe_p = sub.add_parser(
        "describe",
        help="show one component's docstring and accepted params with defaults",
    )
    describe_p.add_argument("axis", choices=[a for a in LIST_AXES if a != "all"])
    describe_p.add_argument("name", help="component name on that axis (see 'list')")
    describe_p.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the record as JSON instead of formatted text",
    )

    return parser


def _parse_set(assignment: str) -> tuple[str, object]:
    """Split ``PATH=VALUE``; the value parses as JSON with string fallback."""
    path, sep, raw = assignment.partition("=")
    if not sep or not path:
        raise SpecValidationError(
            f"--set expects PATH=VALUE (e.g. traffic.model=gravity), got {assignment!r}"
        )
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return path, value


def _load_spec_file(target: str) -> ScenarioSpec:
    path = Path(target)
    if not path.is_file():
        raise SpecValidationError(f"scenario file {target!r} does not exist")
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecValidationError(f"cannot read scenario file {target!r}: {exc}") from None
    return ScenarioSpec.from_json(text)


def _resolve_spec(args: argparse.Namespace) -> ScenarioSpec:
    """Load the named/stored spec and fold every CLI override into it.

    ``.json`` targets always load from disk; otherwise registered scenario
    names win over same-named filesystem entries, and a plain file path is
    the fallback.
    """
    target = args.scenario
    if target.endswith(".json"):
        spec = _load_spec_file(target)
    elif target in SCENARIOS:
        spec = get_scenario(target)
    elif Path(target).is_file():
        spec = _load_spec_file(target)
    else:
        spec = get_scenario(target)  # raises naming the registered scenarios
    updates: dict[str, object] = {}
    if args.preset is not None:
        updates["training.preset"] = args.preset
    if args.timesteps is not None:
        updates["training.overrides.total_timesteps"] = args.timesteps
    if args.seed is not None:
        updates["evaluation.seeds"] = [args.seed]
    if getattr(args, "lp_workers", None) is not None:
        updates["evaluation.lp_workers"] = args.lp_workers
    for assignment in args.overrides:
        path, value = _parse_set(assignment)
        updates[path] = value
    return spec.with_updates(updates) if updates else spec


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    if args.as_json:
        print(spec.to_json())
        return 0
    print(format_scenario(run_scenario(spec, echo=args.echo)))
    return 0


def _parse_grid(entries: list[str]) -> dict[str, list]:
    """``PATH=V1,V2,...`` flags into a grid mapping, preserving flag order."""
    grid: dict[str, list] = {}
    for entry in entries:
        path, sep, raw = entry.partition("=")
        if not sep or not path or not raw:
            raise SpecValidationError(
                f"--grid expects PATH=V1,V2,... (e.g. evaluation.seeds=0,1), got {entry!r}"
            )
        values = []
        for chunk in raw.split(","):
            try:
                values.append(json.loads(chunk))
            except json.JSONDecodeError:
                values.append(chunk)
        if path in grid:
            raise SpecValidationError(f"--grid axis {path!r} given more than once")
        grid[path] = values
    return grid


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    grid = _parse_grid(args.grid)
    if args.as_json:
        print(json.dumps({"spec": spec.to_dict(), "grid": grid}, indent=2))
        return 0
    queue_options = {"lease_seconds": args.lease} if args.lease is not None else None
    on_event = None
    if args.watch:

        def on_event(event):
            print(json.dumps(event), flush=True)

    result = run_sweep(
        spec,
        grid=grid,
        workers=args.workers,
        store=ResultStore(args.store) if args.store else None,
        use_cache=not args.no_cache,
        echo=args.echo,
        executor=args.executor,
        queue=args.queue,
        queue_options=queue_options,
        on_event=on_event,
    )
    print(format_sweep(result, store_dir=args.store))
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.distributed.worker import run_worker

    # run_worker installs SIGTERM/SIGINT handlers (we are on the main
    # thread here): the in-flight task is requeued without burning an
    # attempt and the worker exits 0 after printing its summary.
    print(f"worker watching {args.queue}", flush=True)
    stats = run_worker(
        args.queue,
        store=args.store,
        worker_id=args.worker_id,
        lease_seconds=args.lease,
        poll_interval=args.poll,
        max_tasks=args.max_tasks,
        drain=args.drain,
        idle_exit=args.idle_exit,
        wait_for_queue=args.wait,
        echo=args.echo,
        log=print if args.echo else None,
        handle_signals=True,
    )
    print(stats.summary(), flush=True)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.api.service import ServiceSpec
    from repro.service.server import serve

    scenario = _resolve_spec(args)
    spec = ServiceSpec(
        scenario=scenario,
        host=args.host,
        port=args.port,
        workers=args.workers,
        batch_window_ms=args.window_ms,
        result_store=args.store,
        max_queue_depth=args.queue_depth,
        tick_timeout_s=args.tick_timeout,
    )
    # Graceful drain on SIGTERM/SIGINT: the handler only flips an event;
    # the foreground loop below does the actual close, so in-flight ticks
    # finish and their waiters get answers before the socket drops.
    stop = threading.Event()
    previous = {
        sig: signal.signal(sig, lambda _signum, _frame: stop.set())
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    server = serve(spec, echo=args.echo)
    # One parse-friendly readiness line: CI smoke and the loadtest harness
    # wait for "serving" on stdout before opening connections.
    print(
        f"serving {scenario.name} on http://{server.host}:{server.port} "
        f"(labels: {', '.join(server.engine.labels())})",
        flush=True,
    )
    try:
        # Poll the event instead of a bare join: Event.wait with a timeout
        # is reliably interruptible by the signal handler on every platform.
        while not stop.is_set():
            stop.wait(0.5)
        print("draining: closing batcher and HTTP listener", flush=True)
    except KeyboardInterrupt:
        print("draining: closing batcher and HTTP listener", flush=True)
    finally:
        server.close()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print("drained: clean shutdown", flush=True)
    return 0


def _axis_registry(axis: str):
    return SCENARIOS if axis == "scenarios" else registry_for(axis)


def _cmd_list(args: argparse.Namespace) -> int:
    axes = [a for a in LIST_AXES if a != "all"] if args.axis == "all" else [args.axis]
    if args.as_json:
        print(json.dumps({axis: _axis_registry(axis).catalog() for axis in axes}, indent=2))
        return 0
    for axis in axes:
        registry = _axis_registry(axis)
        print(f"{axis} ({len(registry)}):")
        for name, description in registry.items():
            print(f"  {name:<24} {description}")
        print()
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    entry = _axis_registry(args.axis).describe_entry(args.name)
    if args.as_json:
        print(json.dumps({"axis": args.axis, **entry}, indent=2))
        return 0
    print(f"{args.axis}/{entry['name']}: {entry['description']}")
    if entry["params"]:
        print("params:")
        for param in entry["params"]:
            if param["required"]:
                print(f"  {param['name']:<18} (required)")
            else:
                print(f"  {param['name']:<18} default={json.dumps(param['default'])}")
    if entry["doc"]:
        print()
        print(entry["doc"])
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "lp_store", None):
        # Environment-propagated so sweep worker processes (and every
        # RewardComputer cache created anywhere below) inherit the store.
        import os

        os.environ[LP_STORE_ENV] = args.lp_store
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "worker":
            return _cmd_worker(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "list":
            return _cmd_list(args)
        return _cmd_describe(args)
    except (SpecValidationError, UnknownComponentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SweepExecutionError as exc:
        # Partial failure: everything that landed is persisted; the message
        # names the poisoned spec hashes so a re-run resumes cleanly.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QueueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like other CLIs.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
