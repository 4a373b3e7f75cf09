"""The parallel-sweep bench gate: budget math, baseline shape, CI wiring."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "bench_parallel_sweep", REPO_ROOT / "tools" / "bench_parallel_sweep.py"
)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def entry(loop, best):
    return {"loop": loop, "best_seconds": best}


def baseline(*entries):
    return {"hot_loops": list(entries)}


class TestBudgetMath:
    def test_within_budget_passes(self):
        base = baseline(entry("scan_256mb_full", 1.0))
        assert bench.check_regression([entry("scan_256mb_full", 1.0)], base) == []
        # 20% + floor: the budget is 1.2 + 0.15 ≈ 1.35
        assert bench.check_regression([entry("scan_256mb_full", 1.34)], base) == []

    def test_regression_beyond_budget_fails(self):
        base = baseline(entry("scan_256mb_full", 1.0))
        failures = bench.check_regression([entry("scan_256mb_full", 1.4)], base)
        assert len(failures) == 1
        assert "scan_256mb_full" in failures[0]

    def test_floor_absorbs_noise_on_fast_loops(self):
        base = baseline(entry("shadow_census_256mb", 0.05))
        # 3x slower in relative terms, but inside the absolute floor.
        assert bench.check_regression(
            [entry("shadow_census_256mb", 0.15)], base
        ) == []

    def test_new_loop_without_baseline_is_not_a_regression(self):
        base = baseline(entry("scan_256mb_full", 1.0))
        assert bench.check_regression([entry("brand_new_loop", 9.9)], base) == []

    def test_each_loop_judged_independently(self):
        base = baseline(
            entry("scan_256mb_full", 1.0), entry("keygen_cold_1024", 0.1)
        )
        failures = bench.check_regression(
            [entry("scan_256mb_full", 0.5), entry("keygen_cold_1024", 5.0)],
            base,
        )
        assert len(failures) == 1
        assert "keygen_cold_1024" in failures[0]


class TestSpeedupPolicy:
    def test_minimum_speedup_is_two(self):
        """At CI's 4 workers on a 4-core runner the efficiency bound is
        the old fixed 2.0x bound."""
        assert bench.MIN_EFFICIENCY * min(4, 4) == 2.0

    @pytest.mark.parametrize(
        "workers, cores, speedup, passes",
        [
            (2, 2, 1.67, True),    # the 2-core measurement the old gate failed
            (2, 2, 0.95, False),
            (4, 2, 1.05, True),    # only 2 of the 4 workers can run at once
            (4, 4, 1.99, False),   # CI's shape keeps the old 2.0x bound
            (4, 4, 2.0, True),
            (4, 1, 0.5, True),     # --require-speedup on one core
        ],
    )
    def test_gate_is_efficiency_over_usable_cores(
        self, monkeypatch, tmp_path, workers, cores, speedup, passes
    ):
        monkeypatch.setattr(bench.os, "cpu_count", lambda: cores)
        monkeypatch.setattr(bench, "hot_loop_benchmarks", lambda *_: [])
        monkeypatch.setattr(
            bench, "sweep_speedup", lambda args: {"speedup": speedup}
        )
        out = tmp_path / "bench.json"
        status = bench.main(
            ["--workers", str(workers), "--require-speedup", "--out", str(out)]
        )
        assert status == (0 if passes else 1)
        payload = json.loads(out.read_text(encoding="utf-8"))
        usable = min(workers, cores)
        assert payload["min_speedup"] == 0.5 * usable
        assert payload["efficiency"] == round(speedup / usable, 3)

    def test_output_path_is_repo_root(self):
        """Satellite: the trajectory tooling globs root BENCH_*.json —
        the default output must live there, not benchmarks/results/."""
        assert bench.DEFAULT_OUT == REPO_ROOT / "BENCH_parallel_sweep.json"
        assert bench.LEGACY_OUT.parent.name == "results"


class TestCommittedBaseline:
    def test_baseline_exists_at_repo_root_only(self):
        assert (REPO_ROOT / "BENCH_parallel_sweep.json").exists()
        assert not (
            REPO_ROOT / "benchmarks" / "results" / "BENCH_parallel_sweep.json"
        ).exists(), "legacy copy must be migrated away"

    def test_baseline_shape_and_invariants(self):
        payload = json.loads(
            (REPO_ROOT / "BENCH_parallel_sweep.json").read_text(
                encoding="utf-8"
            )
        )
        assert payload["benchmark"] == "parallel_sweep"
        assert payload["cells_identical"] is True
        if "efficiency" in payload:
            usable = min(payload["workers"], payload["cpu_count"])
            assert payload["min_speedup"] == bench.MIN_EFFICIENCY * usable
            assert payload["efficiency"] == round(payload["speedup"] / usable, 3)
        else:  # recorded before the efficiency gate: fixed 2.0x bound
            assert payload["min_speedup"] == 2.0
        # On a multi-core writer the assertion must be armed and met;
        # a single-core writer records the honest ratio unasserted.
        if payload["speedup_asserted"]:
            assert payload["speedup"] >= payload["min_speedup"]
        else:
            assert payload["cpu_count"] == 1
        loops = {e["loop"] for e in payload["hot_loops"]}
        assert {"scan_256mb_full", "shadow_census_256mb"} <= loops
        assert any(l.startswith("keygen_cold_") for l in loops)
        for e in payload["hot_loops"]:
            assert e["best_seconds"] > 0

    def test_ci_runs_the_gate_with_both_flags(self):
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(
            encoding="utf-8"
        )
        assert "bench_parallel_sweep.py --require-speedup --check-regression" \
            in workflow
        assert "BENCH_parallel_sweep.json" in workflow
