"""The benchmark's own tests. Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import scenarios  # noqa: E402
from reclock.scenario import parse_scenario  # noqa: E402

GENERATED = [w for w in scenarios.WORKLOADS if w != "catalogue"]


@pytest.mark.parametrize("name", GENERATED)
def test_generator_is_seeded(name):
    assert scenarios.generated_texts(name, 7) == scenarios.generated_texts(name, 7)
    assert scenarios.generated_texts(name, 7) != scenarios.generated_texts(name, 8)


@pytest.mark.parametrize("name", GENERATED)
def test_generated_scenarios_parse_without_own_tolerances(name, tmp_path):
    workload = scenarios.build_workload(name, 3, ROOT, tmp_path)
    for path in workload.files:
        assert "[tolerances]" not in path.read_text()
        scenario = parse_scenario(path)
        assert checks.scenario_info(path).kind == scenario.kind.value


def test_parse_summaries_reads_verdicts_and_metrics():
    out = (
        "Pass     gauge-identity  min_fidelity=1.000000e+00  "
        "max_energy_transform_residual=0.000000e+00  (1.02s)\n"
        "Fail     other  max_trajectory_error=2.000000e-03  (0.01s)\n"
        "         max_trajectory_error 2.000e-03 > 1.000e-05\n"
    )
    parsed = checks.parse_summaries(out)
    assert parsed["gauge-identity"].verdict == "Pass"
    assert parsed["gauge-identity"].metrics["max_energy_transform_residual"] == 0.0
    assert parsed["other"].verdict == "Fail"
    assert set(parsed) == {"gauge-identity", "other"}


def test_metric_checks_catch_misses():
    gauge = checks.ScenarioInfo("g", "quantum_covariance", identity_clock=True)
    ok = {"min_fidelity": 1.0, "max_energy_transform_residual": 0.0}
    assert checks.metric_misses(gauge, ok) == []
    assert checks.metric_misses(gauge, {**ok, "max_energy_transform_residual": 1e-300})
    assert checks.metric_misses(gauge, {**ok, "min_fidelity": 0.9})
    sweep = checks.ScenarioInfo("s", "convergence_sweep", identity_clock=False)
    assert checks.metric_misses(sweep, {"estimated_order": 2.0}) == []
    assert checks.metric_misses(sweep, {"estimated_order": 1.5})
    assert checks.metric_misses(sweep, {})


def _traced_counts(files) -> dict[str, int]:
    tracer = layers.Tracer("test")
    totals = layers.ScenarioOutcome(metrics={}, artifacts={})
    for path in files:
        outcome = layers.scenario_pass(path, tracer)
        outcome.reports.clear()
        totals.add_counts(outcome)
    return layers.count_metrics(tracer, totals)


@pytest.mark.parametrize("name", scenarios.WORKLOADS)
def test_counts_repeat_exactly(name, tmp_path):
    workload = scenarios.build_workload(name, 5, ROOT, tmp_path)
    first = _traced_counts(workload.files)
    second = _traced_counts(workload.files)
    assert first == second
    assert set(first) == {
        "model.potential_evals",
        "model.timemap_evals",
        "quantum.snapshots",
        "quantum.cn_steps",
        "classical.rhs_evals",
        "classical.samples",
        "reports.bytes",
    }
    assert first["model.potential_evals"] > 0 and first["reports.bytes"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [*cmd, "--workload", "wide-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
