"""Tests for the benchmark-regression gate (``benchmarks/compare_bench.py``).

The gate is a standalone script (CI invokes it by path), so it is loaded
here via importlib straight from ``benchmarks/``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "compare_bench.py"
_spec = importlib.util.spec_from_file_location("compare_bench", _SCRIPT)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)

REF = compare_bench.DEFAULT_REFERENCE
BATCHED = compare_bench.ENGINE_BATCHED


def pytest_benchmark_json(medians):
    """The raw pytest-benchmark layout (a list of stats entries)."""
    return {
        "benchmarks": [
            {"name": name, "stats": {"median": median}}
            for name, median in medians.items()
        ]
    }


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


BASE_MEDIANS = {REF: 0.010, BATCHED: 0.0005, "test_lp_solve": 0.007}


def baseline_file(tmp_path, medians=None):
    return write(
        tmp_path,
        "baseline.json",
        {"format": 1, "normalize_by": REF, "benchmarks": medians or BASE_MEDIANS},
    )


class TestLoadMedians:
    def test_reads_pytest_benchmark_layout(self, tmp_path):
        path = write(tmp_path, "run.json", pytest_benchmark_json(BASE_MEDIANS))
        assert compare_bench.load_medians(path) == BASE_MEDIANS

    def test_reads_distilled_baseline_layout(self, tmp_path):
        assert compare_bench.load_medians(baseline_file(tmp_path)) == BASE_MEDIANS

    def test_missing_file_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            compare_bench.load_medians(tmp_path / "nope.json")

    def test_layout_without_benchmarks_rejected(self, tmp_path):
        path = write(tmp_path, "bad.json", {"something": 1})
        with pytest.raises(SystemExit, match="no 'benchmarks' section"):
            compare_bench.load_medians(path)


class TestGate:
    def run_main(self, tmp_path, current_medians, extra_args=()):
        current = write(tmp_path, "current.json", pytest_benchmark_json(current_medians))
        return compare_bench.main(
            [str(current), "--baseline", str(baseline_file(tmp_path)), *extra_args]
        )

    def test_identical_run_passes(self, tmp_path, capsys):
        assert self.run_main(tmp_path, dict(BASE_MEDIANS)) == 0
        assert "all benchmarks within tolerance" in capsys.readouterr().out

    def test_machine_speed_cancels_under_normalization(self, tmp_path):
        # Everything 3x slower (a slower box): normalized ratios unchanged.
        slower = {name: 3.0 * median for name, median in BASE_MEDIANS.items()}
        assert self.run_main(tmp_path, slower) == 0

    def test_relative_regression_fails(self, tmp_path, capsys):
        regressed = dict(BASE_MEDIANS, test_lp_solve=0.007 * 1.5)
        assert self.run_main(tmp_path, regressed) == 1
        assert "regressed" in capsys.readouterr().err

    def test_tolerance_is_configurable(self, tmp_path):
        regressed = dict(BASE_MEDIANS, test_lp_solve=0.007 * 1.5)
        assert self.run_main(tmp_path, regressed, ["--max-slowdown", "0.6"]) == 0

    def test_speedup_floor_violation_fails(self, tmp_path, capsys):
        slow_engine = dict(BASE_MEDIANS, **{BATCHED: 0.004})  # only 2.5x
        assert self.run_main(tmp_path, slow_engine) == 1
        assert "speedup floor" in capsys.readouterr().err

    def test_missing_benchmark_fails(self, tmp_path, capsys):
        missing = {k: v for k, v in BASE_MEDIANS.items() if k != "test_lp_solve"}
        assert self.run_main(tmp_path, missing) == 1
        assert "missing from the" in capsys.readouterr().err

    def test_new_benchmark_is_reported_not_failed(self, tmp_path, capsys):
        grown = dict(BASE_MEDIANS, test_shiny_new=0.001)
        assert self.run_main(tmp_path, grown) == 0
        assert "new" in capsys.readouterr().out

    def test_raw_mode_compares_absolute_medians(self, tmp_path, capsys):
        slower = {name: 3.0 * median for name, median in BASE_MEDIANS.items()}
        assert self.run_main(tmp_path, slower, ["--no-normalize"]) == 1
        assert "regressed" in capsys.readouterr().err

    def test_update_baseline_writes_distilled_layout(self, tmp_path):
        current = write(tmp_path, "current.json", pytest_benchmark_json(BASE_MEDIANS))
        target = tmp_path / "new-baseline.json"
        code = compare_bench.main(
            [str(current), "--baseline", str(target), "--update-baseline"]
        )
        assert code == 0
        stored = json.loads(target.read_text())
        assert stored["format"] == compare_bench.BASELINE_FORMAT
        assert stored["benchmarks"] == BASE_MEDIANS
        # And the distilled file round-trips through the gate.
        assert compare_bench.main([str(current), "--baseline", str(target)]) == 0

    def test_committed_baseline_gates_the_committed_benchmarks(self):
        # The baseline in the repo must cover the engine pair the floor
        # check needs, and name the committed reference benchmark.
        stored = json.loads(
            (Path(_SCRIPT).parent / "BENCH_baseline.json").read_text()
        )
        assert stored["normalize_by"] == REF
        assert REF in stored["benchmarks"]
        assert BATCHED in stored["benchmarks"]
        assert compare_bench.ENGINE_SCALAR in stored["benchmarks"]


class TestFrozenFloors:
    """Floors pinned against implementations no current run can re-measure."""

    # Pre-refactor: the curve cost 40x the reference. A current median of
    # 0.04s normalizes to 4x -> 10x speedup over the frozen value.
    FROZEN = {
        "pre_vectorisation_curve": {
            "benchmark": "test_training_quick_curve",
            "normalized_median": 40.0,
            "min_speedup": 5.0,
        }
    }

    def baseline_with_frozen(self, tmp_path, frozen=None):
        return write(
            tmp_path,
            "baseline.json",
            {
                "format": 1,
                "normalize_by": REF,
                "benchmarks": dict(BASE_MEDIANS, test_training_quick_curve=0.040),
                "frozen": frozen or self.FROZEN,
            },
        )

    def run_main(self, tmp_path, current_medians, extra_args=()):
        current = write(tmp_path, "current.json", pytest_benchmark_json(current_medians))
        baseline = self.baseline_with_frozen(tmp_path)
        return compare_bench.main([str(current), "--baseline", str(baseline), *extra_args])

    def test_floor_met_passes(self, tmp_path, capsys):
        current = dict(BASE_MEDIANS, test_training_quick_curve=0.040)
        assert self.run_main(tmp_path, current) == 0
        assert "frozen floor" in capsys.readouterr().out

    def test_floor_violation_fails(self, tmp_path, capsys):
        # 0.10s / 0.010s reference = 10x normalized; 40 / 10 = 4x < 5x floor.
        current = dict(BASE_MEDIANS, test_training_quick_curve=0.100)
        assert self.run_main(tmp_path, current) == 1
        assert "frozen floor" in capsys.readouterr().err

    def test_floor_scales_with_machine_speed(self, tmp_path):
        # A 3x slower box slows curve and reference alike: still 10x.
        current = {
            name: 3.0 * median
            for name, median in dict(BASE_MEDIANS, test_training_quick_curve=0.040).items()
        }
        assert self.run_main(tmp_path, current) == 0

    def test_missing_benchmark_fails_the_floor(self, tmp_path, capsys):
        assert self.run_main(tmp_path, dict(BASE_MEDIANS)) == 1
        err = capsys.readouterr().err
        assert "cannot check frozen floor" in err

    def test_raw_mode_skips_frozen_floors(self, tmp_path):
        # Frozen values are normalized quantities; without a reference they
        # cannot be checked, so --no-normalize must not fail on them.
        current = dict(BASE_MEDIANS, test_training_quick_curve=0.040)
        assert self.run_main(tmp_path, current, ["--no-normalize"]) == 0

    def test_update_baseline_preserves_frozen_section(self, tmp_path):
        baseline = self.baseline_with_frozen(tmp_path)
        current = write(
            tmp_path,
            "current.json",
            pytest_benchmark_json(dict(BASE_MEDIANS, test_training_quick_curve=0.020)),
        )
        assert (
            compare_bench.main(
                [str(current), "--baseline", str(baseline), "--update-baseline"]
            )
            == 0
        )
        stored = json.loads(baseline.read_text())
        assert stored["frozen"] == self.FROZEN
        assert stored["benchmarks"]["test_training_quick_curve"] == 0.020

    def test_committed_baseline_pins_the_training_floor(self):
        stored = json.loads(
            (Path(_SCRIPT).parent / "BENCH_baseline.json").read_text()
        )
        frozen = stored.get("frozen", {})
        # The floor is pinned at 1.5x: single-core runners measure the
        # vectorized stack at 1.9-2.5x over the frozen pre-vectorisation
        # median (5.2x on multi-core boxes), and the gate needs noise
        # margin below the worst honest measurement.
        assert any(
            entry.get("benchmark") == "test_training_quick_curve"
            and float(entry.get("min_speedup", 0.0)) >= 1.5
            for entry in frozen.values()
        ), "the committed baseline must pin the pre-vectorisation training floor"

    def test_committed_baseline_pins_the_routing_tables_floor(self):
        stored = json.loads(
            (Path(_SCRIPT).parent / "BENCH_baseline.json").read_text()
        )
        # The batched SP/ECMP tables measured 26-40x over the per-destination
        # loops; the floor keeps them at least 10x, and both new routing
        # benches are gated like every other baseline key.
        assert any(
            entry.get("benchmark") == "test_routing_tables_large_topology"
            and float(entry.get("min_speedup", 0.0)) >= 10.0
            for entry in stored.get("frozen", {}).values()
        ), "the committed baseline must pin the per-destination routing-tables floor"
        assert "test_routing_tables_large_topology" in stored["benchmarks"]
        assert "test_edge_removal_large_topology" in stored["benchmarks"]


class TestSummaryOutput:
    def test_markdown_written_to_github_step_summary(self, tmp_path, monkeypatch, capsys):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        current = write(tmp_path, "current.json", pytest_benchmark_json(BASE_MEDIANS))
        assert (
            compare_bench.main([str(current), "--baseline", str(baseline_file(tmp_path))])
            == 0
        )
        text = summary.read_text()
        assert "### Benchmark regression gate" in text
        assert "| `test_lp_solve` |" in text
