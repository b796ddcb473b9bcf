"""Plain-text rendering of experiment results.

The harness prints the same rows/series the paper's figures report; these
helpers keep that formatting in one place for the CLI runner and the
figure benchmarks.
"""

from __future__ import annotations

import math


def _bar(value: float, scale: float = 20.0, maximum: float = 2.5) -> str:
    if not math.isfinite(value):  # empty results pool to a NaN mean
        return ""
    filled = int(round(min(value, maximum) / maximum * scale))
    return "#" * filled


def format_scenario(result) -> str:
    """A :class:`repro.api.ScenarioResult` as the generic text report.

    Covers every metric the scenario API collects: pooled utilisation
    ratios (policies and strategies interleaved in spec order), per-seed
    learning-curve summaries, and training throughput.
    """
    spec = result.spec
    header = f"Scenario {spec.name!r}"
    if spec.description:
        header += f" — {spec.description}"
    lines = [header]
    seeds = tuple(spec.evaluation.seeds)

    rows = result.rows()
    if rows:
        pooled = f" (pooled over seeds {list(seeds)})" if len(seeds) > 1 else ""
        lines += [
            "",
            f"mean max-utilisation ratio vs LP optimum (lower is better, 1.0 = optimal){pooled}",
        ]
        for label, mean in rows:
            lines.append(f"  {label:<24} {mean:6.3f}  {_bar(mean)}")

    if result.curves:
        lines += ["", "learning curves (final mean episode reward per seed; higher is better)"]
        for label, curves in result.curves.items():
            finals = ", ".join(
                f"seed {seed}: {curve.final_reward:9.2f}"
                if curve.mean_episode_rewards and math.isfinite(curve.final_reward)
                else f"seed {seed}: n/a (no completed episode)"
                for seed, curve in zip(seeds, curves)
            )
            lines.append(f"  {label:<24} {finals}")

    if result.throughput:
        lines += ["", "training throughput (environment steps per second)"]
        for label, fps in result.throughput.items():
            lines.append(f"  {label:<24} {fps:8.1f} fps")

    return "\n".join(lines)


def format_sweep(result, store_dir=None) -> str:
    """A :class:`repro.api.SweepResult` as the sweep summary table.

    One block per grid point — its override assignment, cache/execute
    status, and pooled metric rows — then a sub-run totals footer (the CI
    smoke job greps the footer for ``0 executed`` to assert a warm store).
    """
    spec = result.spec
    lines = [f"Sweep {spec.name!r} — {len(result.points)} point(s)"]
    if result.grid:
        lines.append(
            "  grid: "
            + "; ".join(f"{path}={', '.join(map(str, vs))}" for path, vs in result.grid.items())
        )
    for point in result.points:
        assignment = ", ".join(f"{k}={v}" for k, v in point.overrides.items()) or "(base spec)"
        status = f"{len(point.cached_seeds)} cached, {len(point.executed_seeds)} executed"
        lines += ["", f"  {assignment}  [{status}]"]
        rows = point.result.rows()
        for label, mean in rows:
            lines.append(f"    {label:<24} {mean:6.3f}  {_bar(mean)}")
        if not rows and point.result.curves:
            for label, curves in point.result.curves.items():
                finals = ", ".join(
                    f"seed {seed}: {curve.final_reward:9.2f}"
                    if curve.mean_episode_rewards and math.isfinite(curve.final_reward)
                    else f"seed {seed}: n/a"
                    for seed, curve in zip(point.spec.evaluation.seeds, curves)
                )
                lines.append(f"    {label:<24} {finals}")
        for label, fps in point.result.throughput.items():
            lines.append(f"    {label:<24} {fps:8.1f} fps")
    footer = (
        f"  sub-runs: {result.total_jobs} total, {result.cached_jobs} cached, "
        f"{result.executions} executed"
    )
    if store_dir:
        footer += f" (store: {store_dir})"
    lines += ["", footer]
    return "\n".join(lines)


def format_engine_bench(result) -> str:
    """The engine microbenchmark: scalar vs batched evaluation timing."""
    return "\n".join(
        [
            "Batch evaluation engine - scalar reference vs vectorized",
            f"  workload: {result.num_matrices} full demand matrices on a "
            f"{result.num_nodes}-node / {result.num_edges}-edge graph",
            f"  scalar loops:   {result.scalar_seconds * 1e3:8.2f} ms",
            f"  batched engine: {result.batched_seconds * 1e3:8.2f} ms",
            f"  speedup: {result.speedup:.1f}x (acceptance floor: 5x)",
        ]
    )


def format_lp_bench(result) -> str:
    """The LP-phase benchmark: loop-assembled fresh solves vs structure reuse.

    ``result`` is a :class:`repro.engine.benchmark.LPBenchmark`; the legacy
    side is the pre-structure-cache pipeline (per-commodity loop assembly +
    a fresh solver per matrix), the structured side the vectorized,
    warm-started structure-cache path.
    """
    solver = "direct HiGHS (warm-started)" if result.direct_solver else "linprog fallback"
    return "\n".join(
        [
            "LP reward denominator - loop-assembled fresh solves vs structure reuse",
            f"  workload: {result.num_matrices} distinct sparse demand matrices on "
            f"{result.topology_name} ({result.num_nodes} nodes / {result.num_edges} edges)",
            f"  solver path: {solver}",
            f"  legacy pipeline:     {result.legacy_seconds * 1e3:8.1f} ms",
            f"  structure-reusing:   {result.structured_seconds * 1e3:8.1f} ms",
            f"  speedup: {result.speedup:.1f}x (acceptance floor: 5x)",
        ]
    )


def format_backend_bench(results) -> str:
    """Dense-vs-sparse backend comparison as a per-size table.

    ``results`` is a list of :class:`repro.engine.benchmark.BackendBenchmark`;
    the ``auto`` column shows what the selection rule would pick for each
    topology (sparse speedups < 1 at small sizes are expected — that is
    exactly why ``auto`` keeps dense there).
    """
    lines = [
        "Solver backend - dense stacked LAPACK vs sparse splu factorisation",
        "  (fixed-routing sequence solves; 'auto' = what backend selection picks)",
        "",
        "  nodes  edges  DMs   dense (ms)  sparse (ms)  sparse speedup  auto",
    ]
    for r in results:
        lines.append(
            f"  {r.num_nodes:>5}  {r.num_edges:>5}  {r.num_matrices:>3}"
            f"  {r.dense_seconds * 1e3:>10.2f}  {r.sparse_seconds * 1e3:>11.2f}"
            f"  {r.speedup:>13.2f}x  {r.auto_backend}"
        )
    return "\n".join(lines)
