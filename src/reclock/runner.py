"""Scenario execution: dispatch, tolerance checks, artifacts, summaries.

A run produces artifact files under ``<out>/<scenario-name>/`` plus a
RunSummary whose status follows a strict precedence: a missed tolerance or
an execution error is Fail, otherwise any monitor flag (edge leakage, norm
drift) is Flagged, otherwise Pass. Wall time is reported on stdout only and
never written into artifacts, which keeps re-runs byte-identical.
"""

from __future__ import annotations

import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .classical import integrate_t, integrate_tau, trajectory_equivalence
from .errors import ReclockError, ValidationError
from .model import prepare_gaussian
from .quantum import CovarianceReport, CovarianceScenario, covariance_experiment
from .reports import csv_table, emit_report, json_document
from .scenario import Scenario, ScenarioKind, Tolerances, parse_scenario

# Falls back per kind when a scenario does not pin its own thresholds.
DEFAULT_TOLERANCES = {
    ScenarioKind.QUANTUM_COVARIANCE: Tolerances(
        min_fidelity=1.0 - 1e-5, max_energy_transform_residual=1e-6
    ),
    ScenarioKind.CLASSICAL_EQUIVALENCE: Tolerances(max_trajectory_error=1e-5),
    ScenarioKind.CONVERGENCE_SWEEP: Tolerances(order_min=1.8, order_max=2.2),
}

# Named tolerance profiles selectable from the command line. "strict" pins
# every threshold at an unattainable level and exists to exercise the
# failure paths (exit codes, Fail summaries) on demand.
TOLERANCE_PROFILES: dict[str, Tolerances | None] = {
    "default": None,
    "strict": Tolerances(
        min_fidelity=1.0 - 1e-14,
        max_energy_transform_residual=1e-14,
        max_trajectory_error=1e-14,
        order_min=2.0 - 1e-14,
        order_max=2.0 + 1e-14,
    ),
}


class Status(Enum):
    PASS = "Pass"
    FAIL = "Fail"
    FLAGGED = "Flagged"


@dataclass(frozen=True)
class RunSummary:
    name: str
    kind: str
    status: Status
    metrics: dict[str, float]
    tolerances: dict[str, float]
    artifacts: tuple[str, ...]
    wall_time_s: float
    detail: str = ""


def _effective_tolerances(scenario: Scenario, profile: str) -> Tolerances:
    if profile not in TOLERANCE_PROFILES:
        raise ValidationError(
            f"unknown tolerance profile {profile!r}; "
            f"available: {', '.join(sorted(TOLERANCE_PROFILES))}"
        )
    merged = DEFAULT_TOLERANCES[scenario.kind]
    for source in (scenario.tolerances, TOLERANCE_PROFILES[profile]):
        if source is None:
            continue
        overrides = {
            name: value
            for name, value in vars(source).items()
            if value is not None
        }
        merged = replace(merged, **overrides)
    return merged


def _emit(obj, stem: str, out_dir: Path, formats) -> list[str]:
    paths = []
    for fmt in formats:
        paths.append(str(emit_report(obj, fmt, out_dir / f"{stem}.{fmt}")))
    return paths


def _write_text(path: Path, text: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return str(path)


def _covariance(scenario: Scenario, dt: float) -> CovarianceReport:
    """Prepare the scenario's initial state and run its covariance experiment at step dt."""
    psi0 = prepare_gaussian(
        scenario.grid,
        scenario.gaussian.center,
        scenario.gaussian.width,
        scenario.gaussian.momentum,
        scenario.constants,
    )
    return covariance_experiment(
        CovarianceScenario(
            constants=scenario.constants,
            potential=scenario.potential,
            timemap=scenario.timemap,
            initial_state=psi0,
            tau_span=scenario.tau_span,
            config=replace(scenario.propagator, dt=dt),
        )
    )


def _run_quantum(scenario: Scenario, tol: Tolerances, out_dir: Path, formats):
    report = _covariance(scenario, scenario.propagator.dt)
    metrics = {
        "min_fidelity": report.min_fidelity,
        "max_energy_transform_residual": report.max_energy_transform_residual,
        "max_norm_deviation": report.max_norm_deviation,
    }
    misses = []
    if report.min_fidelity < tol.min_fidelity:
        misses.append(f"min_fidelity {report.min_fidelity:.12g} < {tol.min_fidelity:.12g}")
    if report.max_energy_transform_residual > tol.max_energy_transform_residual:
        misses.append(
            f"max_energy_transform_residual {report.max_energy_transform_residual:.3e} "
            f"> {tol.max_energy_transform_residual:.3e}"
        )
    used = {
        "min_fidelity": tol.min_fidelity,
        "max_energy_transform_residual": tol.max_energy_transform_residual,
    }
    artifacts = _emit(report, "report", out_dir, formats)
    return metrics, used, misses, report.flags, artifacts


def _run_classical(scenario: Scenario, tol: Tolerances, out_dir: Path, formats):
    x0, p0 = scenario.classical_initial
    traj_tau = integrate_tau(
        scenario.potential,
        scenario.constants,
        scenario.timemap,
        x0,
        p0,
        scenario.tau_span,
        scenario.integrator_tol,
    )
    traj_t = integrate_t(
        scenario.potential,
        scenario.constants,
        x0,
        p0,
        scenario.t_span,
        scenario.integrator_tol,
    )
    error = trajectory_equivalence(traj_t, traj_tau, scenario.timemap)
    metrics = {"max_trajectory_error": error}
    misses = []
    if error > tol.max_trajectory_error:
        misses.append(f"max_trajectory_error {error:.3e} > {tol.max_trajectory_error:.3e}")
    used = {"max_trajectory_error": tol.max_trajectory_error}
    artifacts = _emit(traj_tau, "trajectory-tau", out_dir, formats)
    artifacts += _emit(traj_t, "trajectory-t", out_dir, formats)
    return metrics, used, misses, (), artifacts


def _run_sweep(scenario: Scenario, tol: Tolerances, out_dir: Path, formats):
    dts = np.array(scenario.sweep_dts)
    min_fid = []
    residual = []
    flags: list[str] = []
    for dt in dts:
        report = _covariance(scenario, float(dt))
        min_fid.append(report.min_fidelity)
        residual.append(report.max_energy_transform_residual)
        flags.extend(f"dt={dt:g}: {flag}" for flag in report.flags)
    min_fid = np.array(min_fid)
    residual = np.array(residual)
    # Phase-invariant state discrepancy |psi - e^{i theta} phi| = sqrt(2(1-F));
    # this is the quantity with clean second-order behaviour (the raw
    # infidelity 1-F shrinks at twice that order).
    discrepancy = np.sqrt(np.maximum(2.0 * (1.0 - min_fid), 1e-32))
    slope = float(np.polyfit(np.log2(dts), np.log2(discrepancy), 1)[0])

    metrics = {
        "estimated_order": slope,
        "min_fidelity_finest": float(min_fid[-1]),
        "fidelity_error_finest": float(discrepancy[-1]),
    }
    misses = []
    if not (tol.order_min <= slope <= tol.order_max):
        misses.append(
            f"estimated_order {slope:.3f} outside [{tol.order_min:g}, {tol.order_max:g}]"
        )
    used = {"order_min": tol.order_min, "order_max": tol.order_max}

    header = ["dt", "min_fidelity", "fidelity_error", "max_energy_transform_residual"]
    columns = [dts, min_fid, discrepancy, residual]
    summary = {"estimated_order": slope}
    artifacts = []
    if "csv" in formats:
        artifacts.append(_write_text(out_dir / "sweep.csv", csv_table(header, columns)))
    if "json" in formats:
        artifacts.append(
            _write_text(
                out_dir / "sweep.json",
                json_document("convergence_sweep", header, columns, summary, flags),
            )
        )
    return metrics, used, misses, tuple(flags), artifacts


_DISPATCH = {
    ScenarioKind.QUANTUM_COVARIANCE: _run_quantum,
    ScenarioKind.CLASSICAL_EQUIVALENCE: _run_classical,
    ScenarioKind.CONVERGENCE_SWEEP: _run_sweep,
}


def run_scenario(
    scenario: Scenario,
    out_root=None,
    formats: tuple[str, ...] | None = None,
    profile: str = "default",
) -> RunSummary:
    """Execute one scenario, write its artifacts, and summarize the outcome."""
    tol = _effective_tolerances(scenario, profile)
    out_dir = Path(out_root if out_root is not None else scenario.outputs.directory)
    out_dir = out_dir / scenario.name
    used_formats = tuple(formats) if formats else scenario.outputs.formats

    start = time.perf_counter()
    try:
        metrics, used, misses, flags, artifacts = _DISPATCH[scenario.kind](
            scenario, tol, out_dir, used_formats
        )
    except Exception as exc:
        if isinstance(exc, ReclockError):
            detail = f"{type(exc).__name__}: {exc}"
        else:
            # A bug outside the library's own error hierarchy: keep its
            # traceback, and fail this scenario instead of the whole batch.
            traceback.print_exc(file=sys.stderr)
            detail = f"internal error: {type(exc).__name__}: {exc}"
        return RunSummary(
            name=scenario.name,
            kind=scenario.kind.value,
            status=Status.FAIL,
            metrics={},
            tolerances={},
            artifacts=(),
            wall_time_s=time.perf_counter() - start,
            detail=detail,
        )
    wall = time.perf_counter() - start

    if misses:
        status, detail = Status.FAIL, "; ".join(misses)
    elif flags:
        status, detail = Status.FLAGGED, "; ".join(flags[:4])
    else:
        status, detail = Status.PASS, ""
    return RunSummary(
        name=scenario.name,
        kind=scenario.kind.value,
        status=status,
        metrics=metrics,
        tolerances=used,
        artifacts=tuple(artifacts),
        wall_time_s=wall,
        detail=detail,
    )


def run_many(
    paths,
    out_root=None,
    formats=None,
    profile: str = "default",
    jobs: int = 1,
) -> list[RunSummary]:
    """Parse several scenario files, then execute them with ``run_scenarios``.

    Every file is parsed here, in the calling process, before any run
    starts, so a bad file raises ScenarioError before any work is done.
    """
    return run_scenarios([parse_scenario(p) for p in paths], out_root, formats, profile, jobs)


def run_scenarios(
    scenarios,
    out_root=None,
    formats=None,
    profile: str = "default",
    jobs: int = 1,
) -> list[RunSummary]:
    """Execute parsed scenarios in order, optionally across worker processes."""
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(scenarios) <= 1:
        return [run_scenario(s, out_root, formats, profile) for s in scenarios]
    workers = min(jobs, len(scenarios))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(run_scenario, s, out_root, formats, profile) for s in scenarios
        ]
        return [f.result() for f in futures]
