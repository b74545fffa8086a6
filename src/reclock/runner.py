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
from .errors import ReclockError, ScenarioError, ValidationError
from .model import prepare_gaussian
from .quantum import CovarianceReport, CovarianceScenario, covariance_experiment
from .reports import layout, render_table, sweep_layout, write_artifact
from .scenario import CHECKS, Scenario, ScenarioKind, parse_scenario


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
    artifacts: tuple[str, ...]
    wall_time_s: float
    detail: str = ""


def _emit(layouts: dict, out_dir: Path, formats) -> list[str]:
    """Write each ``{stem: (kind, table, summary, flags)}`` layout once per format, in order."""
    paths = []
    for stem, artifact in layouts.items():
        for fmt in formats:
            # No local holds the text: it would live on while the next format
            # renders (+1.4 MB peak RSS for a 6283-row covariance report).
            path = write_artifact(render_table(*artifact, fmt), out_dir / f"{stem}.{fmt}")
            paths.append(str(path))
    return paths


def _covariance(scenario: Scenario, dt: float) -> CovarianceReport:
    """Prepare the scenario's initial state and run its covariance experiment at step dt."""
    g = scenario.gaussian
    psi0 = prepare_gaussian(scenario.grid, g.center, g.width, g.momentum, scenario.constants)
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


def _run_quantum(scenario: Scenario):
    artifact = layout(_covariance(scenario, scenario.propagator.dt))
    return artifact[2], {"report": artifact}  # its summary holds the run's metrics


def _run_classical(scenario: Scenario):
    x0, p0 = scenario.classical_initial
    pot, cst, tol = scenario.potential, scenario.constants, scenario.integrator_tol
    traj_tau = integrate_tau(pot, cst, scenario.timemap, x0, p0, scenario.tau_span, tol)
    traj_t = integrate_t(pot, cst, x0, p0, scenario.t_span, tol)
    error = trajectory_equivalence(traj_t, traj_tau, scenario.timemap)
    layouts = {"trajectory-tau": layout(traj_tau), "trajectory-t": layout(traj_t)}
    return {"max_trajectory_error": error}, layouts


def _run_sweep(scenario: Scenario):
    dts = np.array(scenario.sweep_dts)
    min_fid, residual, flags = [], [], []
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
    artifact = sweep_layout(dts, min_fid, discrepancy, residual, slope, flags)
    return metrics, {"sweep": artifact}


# Each kind's runner: scenario -> (metrics, {artifact stem: layout}); flags ride in the layouts.
_DISPATCH = {
    ScenarioKind.QUANTUM_COVARIANCE: _run_quantum,
    ScenarioKind.CLASSICAL_EQUIVALENCE: _run_classical,
    ScenarioKind.CONVERGENCE_SWEEP: _run_sweep,
}


def _misses(
    kind: ScenarioKind, metrics: dict[str, float], tol: tuple[tuple[str, float], ...]
) -> list[str]:
    """One detail line per ``CHECKS`` row of ``kind`` whose metric is not on its
    bound's side, with ``tol`` holding each row's (key, bound) in row order; a
    NaN metric misses every row."""
    misses = []
    for (_, metric, sense, _), (_, bound) in zip(CHECKS[kind], tol, strict=True):
        value = metrics[metric]
        if sense == ">=" and not (value >= bound):
            misses.append(f"{metric} {value:.12g} < {bound:.12g}")
        elif sense == "<=" and not (value <= bound):
            misses.append(f"{metric} {value:.12g} > {bound:.12g}")
    return misses


def run_scenario(scenario: Scenario, out_root="reports", formats=("csv",)) -> RunSummary:
    """Execute one scenario, check its metrics against its tolerances, write its
    artifacts under ``<out_root>/<name>/`` once per format, and summarize the outcome."""
    out_dir = Path(out_root) / scenario.name

    start = time.perf_counter()
    try:
        metrics, layouts = _DISPATCH[scenario.kind](scenario)
        flags = [flag for *_, layout_flags in layouts.values() for flag in layout_flags]
        misses = _misses(scenario.kind, metrics, scenario.tolerances)
        artifacts = _emit(layouts, out_dir, formats)
    except Exception as exc:
        if isinstance(exc, ReclockError):
            detail = f"{type(exc).__name__}: {exc}"
        else:
            # A bug outside the library's own error hierarchy: keep its
            # traceback, and fail this scenario instead of the whole batch.
            traceback.print_exc(file=sys.stderr)
            detail = f"internal error: {type(exc).__name__}: {exc}"
        metrics, artifacts, status = {}, (), Status.FAIL
    else:
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
        artifacts=tuple(artifacts),
        wall_time_s=time.perf_counter() - start,
        detail=detail,
    )


def require_distinct_names(parsed) -> None:
    """Raise ScenarioError if two ``(path, scenario)`` pairs name one scenario."""
    first_path = {}
    for path, scenario in parsed:
        if scenario.name in first_path:
            raise ScenarioError(
                f"{first_path[scenario.name]} and {path} both name scenario "
                f"{scenario.name!r}, and would write to one directory"
            )
        first_path[scenario.name] = path


def _cost(scenario: Scenario) -> float:
    """A file's stepping work in point-steps: the sum over its dts of
    (tau span + t span) / dt * n_points, and 0 for a classical file."""
    if scenario.kind is ScenarioKind.CLASSICAL_EQUIVALENCE:
        return 0.0
    (tau0, tau1), (t0, t1) = scenario.tau_span, scenario.t_span
    dts = scenario.sweep_dts or (scenario.propagator.dt,)
    return sum((tau1 - tau0 + t1 - t0) / dt for dt in dts) * scenario.grid.n_points


def run_many(paths, out_root="reports", formats=("csv",), jobs: int = 1) -> list[RunSummary]:
    """Parse several scenario files, execute each with ``run_scenario`` across
    up to ``jobs`` worker processes, and return the summaries in file order.

    Every file is parsed here, in the calling process, before any run
    starts, so a bad file raises ScenarioError before any work is done. So
    do two files of one name, whose artifacts would share one directory.
    With more than one worker the files are submitted costliest first
    (``_cost``; ties in file order), the longest-processing-time rule of
    Graham (1969), so no long file starts last and runs alone.
    """
    scenarios = [parse_scenario(p) for p in paths]
    require_distinct_names(zip(paths, scenarios))
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(scenarios) <= 1:
        return [run_scenario(s, out_root, formats) for s in scenarios]
    workers = min(jobs, len(scenarios))
    order = sorted(range(len(scenarios)), key=lambda i: _cost(scenarios[i]), reverse=True)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {i: pool.submit(run_scenario, scenarios[i], out_root, formats) for i in order}
        return [futures[i].result() for i in range(len(scenarios))]
