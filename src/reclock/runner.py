"""Scenario execution: dispatch, tolerance checks, artifacts, summaries.

A run produces artifact files under ``<out>/<scenario-name>/`` plus a
RunSummary whose status follows a strict precedence: a missed tolerance or
an execution error is Fail, otherwise any monitor flag (edge leakage, norm
drift) is Flagged, otherwise Pass. Wall time is reported on stdout only and
never written into artifacts, which keeps re-runs byte-identical. A batch
runs as groups of files that share covariance experiments (``run_many``).
"""

from __future__ import annotations

import os
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .classical import integrate_t, integrate_tau, trajectory_equivalence
from .errors import ReclockError, ValidationError
from .model import prepare_gaussian
from .quantum import CovarianceReport, CovarianceScenario, covariance_experiment
from .reports import layout, render_parts, sweep_layout, write_artifact
from .scenario import CHECKS, Scenario, ScenarioKind, parse_scenario, require_distinct_names


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
            path = write_artifact(render_parts(*artifact, fmt), out_dir / f"{stem}.{fmt}")
            paths.append(str(path))
    return paths


def _inputs(scenario: Scenario, dt: float) -> tuple:
    """Everything the covariance experiment of ``scenario`` at step ``dt``
    is built from: constants, potential, clock map, grid, Gaussian, tau
    span and stepping config. An experiment's key is their ``repr``, so two
    keys are equal only when every input has the same type and the same
    bits: 0.0 and -0.0 differ, as do two clock maps' domains, and a
    potential with the default object ``repr``, which holds its address,
    matches no other object."""
    return (
        scenario.constants, scenario.potential, scenario.timemap, scenario.grid,
        scenario.gaussian, scenario.tau_span, replace(scenario.propagator, dt=dt),
    )


def _dts(scenario: Scenario) -> tuple[float, ...]:
    """The steps a file runs its covariance experiment at, none if classical."""
    if scenario.kind is ScenarioKind.CLASSICAL_EQUIVALENCE:
        return ()
    return scenario.sweep_dts or (scenario.propagator.dt,)


def _covariance(inputs: tuple, side_by_side: bool) -> CovarianceReport:
    """Prepare the initial state and run the covariance experiment of these
    ``_inputs``, with its two runs side by side if asked."""
    constants, potential, timemap, grid, g, tau_span, config = inputs
    psi0 = prepare_gaussian(grid, g.center, g.width, g.momentum, constants)
    return covariance_experiment(
        CovarianceScenario(constants, potential, timemap, psi0, tau_span, config), side_by_side
    )


def _run_quantum(scenario: Scenario, covariance):
    artifact = layout(covariance(scenario, scenario.propagator.dt))
    return artifact[2], {"report": artifact}  # its summary holds the run's metrics


def _run_classical(scenario: Scenario, covariance):
    x0, p0 = scenario.classical_initial
    pot, cst, tol = scenario.potential, scenario.constants, scenario.integrator_tol
    traj_tau = integrate_tau(pot, cst, scenario.timemap, x0, p0, scenario.tau_span, tol)
    traj_t = integrate_t(pot, cst, x0, p0, scenario.t_span, tol)
    error = trajectory_equivalence(traj_t, traj_tau, scenario.timemap)
    layouts = {"trajectory-tau": layout(traj_tau), "trajectory-t": layout(traj_t)}
    return {"max_trajectory_error": error}, layouts


def _run_sweep(scenario: Scenario, covariance):
    dts = np.array(scenario.sweep_dts)
    min_fid, residual, flags = [], [], []
    for dt in scenario.sweep_dts:
        report = covariance(scenario, dt)
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


# Each kind's runner: (scenario, covariance) -> (metrics, {artifact stem:
# layout}), where covariance(scenario, dt) is a report. Flags ride in the
# layouts, and a classical run steps no experiment.
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
    artifacts under ``<out_root>/<name>/`` once per format, and summarize the
    outcome. Its covariances step side by side where a one-worker
    ``run_many``'s would (``_side_by_side``). A direct call shares no
    covariance experiment with any other file (see ``run_many``)."""
    return _run_group([scenario], out_root, formats, _side_by_side(1))[0]


def _run_group(scenarios, out_root, formats, side_by_side: bool) -> list[RunSummary]:
    """``run_scenario`` of each file in turn: one task of ``run_many``. A file
    reads the outcome (report, or the exception its run raised) of an
    experiment that an earlier file stepped instead of stepping it again; an
    outcome is kept only if more than one file runs it, until this returns."""
    readers = Counter(k for s in scenarios for k in {repr(_inputs(s, dt)) for dt in _dts(s)})
    kept = {}

    def covariance(scenario: Scenario, dt: float) -> CovarianceReport:
        inputs = _inputs(scenario, dt)
        key = repr(inputs)
        outcome = kept.get(key)
        if outcome is None:
            try:
                outcome = _covariance(inputs, side_by_side)
            except Exception as exc:
                outcome = exc
            if readers[key] > 1:
                kept[key] = outcome
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    return [_run(scenario, out_root, formats, covariance) for scenario in scenarios]


def _run(scenario: Scenario, out_root, formats, covariance) -> RunSummary:
    """``run_scenario``'s work, taking reports from ``covariance``. The wall
    time is this file's own: it holds no time spent stepping an experiment
    that another file stepped first."""
    out_dir = Path(out_root) / scenario.name

    start = time.perf_counter()
    try:
        metrics, layouts = _DISPATCH[scenario.kind](scenario, covariance)
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


def _cost(scenario: Scenario, dt: float) -> float:
    """The stepping work of a file's covariance experiment at step ``dt``, in
    point-steps: (tau span + t span) / dt * n_points. A file's cost is the
    sum over its dts (0 for a classical file), and a group's the sum over
    its distinct experiments, so one stepped twice counts once."""
    (tau0, tau1), (t0, t1) = scenario.tau_span, scenario.t_span
    return (tau1 - tau0 + t1 - t0) / dt * scenario.grid.n_points


def _groups(scenarios) -> list[list[int]]:
    """The batch's files, by index, in groups that share no covariance
    experiment with one another: two files that share one, directly or
    through a third file, are in one group. Each group keeps file order;
    groups come costliest first (``_cost``), ties in the order of their
    first files."""
    groups = []  # (cost of each distinct experiment by key, member indices)
    for i, scenario in enumerate(scenarios):
        costs = {repr(_inputs(scenario, dt)): _cost(scenario, dt) for dt in _dts(scenario)}
        members = [i]
        for group in [g for g in groups if g[0].keys() & costs.keys()]:
            groups.remove(group)
            costs |= group[0]
            members += group[1]
        groups.append((costs, sorted(members)))
    groups.sort(key=lambda g: (-sum(g[0].values()), g[1][0]))
    return [members for _, members in groups]


def _side_by_side(workers: int) -> bool:
    """Whether each of ``workers`` processes running scenarios at once should
    step a covariance's two runs side by side: only if every worker has a
    core to spare for its child. With fewer cores the children only take
    turns with the workers: forking in a ``--jobs 2`` catalogue on 2 vCPUs
    took 2% more wall and 6% more CPU time (medians of 5 runs). Whether a
    child can be forked at all is ``quantum._forked``'s to decide."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return cores >= 2 * workers


def run_many(paths, out_root="reports", formats=("csv",), jobs: int = 1) -> list[RunSummary]:
    """Parse several scenario files, execute each as ``run_scenario`` does
    across up to ``jobs`` worker processes, and return the summaries in file
    order.

    Every file is parsed here, in the calling process, before any run
    starts, so a bad file raises ScenarioError before any work is done. So
    do two files of one name, whose artifacts would share one directory.
    Files that run one covariance experiment (the same inputs, bit for
    bit) are one group (``_groups``): one task (``_run_group``) runs them in
    file order and steps that experiment once per batch. If its run raises,
    it fails every file that shares it, each with the detail it would have
    alone. Groups run costliest first, the longest-processing-time rule of
    Graham (1969), so no long group starts last and runs alone, on
    ``min(jobs, groups)`` workers: with one, in this process. A pool starts
    its workers by ``fork`` where ``os.fork`` exists, named here rather than
    left to the interpreter's default (``forkserver`` on Linux from Python
    3.14, whose workers' CPU the caller's ``RUSAGE_CHILDREN`` never sees),
    and by the default method elsewhere. Whether covariances step their two
    runs side by side is decided once, here, for that many workers
    (``_side_by_side``).
    """
    scenarios = [parse_scenario(p) for p in paths]
    require_distinct_names(zip(paths, scenarios))
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    groups = _groups(scenarios)
    workers = max(1, min(jobs, len(groups)))
    side_by_side = _side_by_side(workers)
    tasks = [([scenarios[i] for i in g], out_root, formats, side_by_side) for g in groups]
    if workers == 1:
        results = [_run_group(*task) for task in tasks]
    else:
        # Imported here: a run without a pool loads no multiprocessing.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork" if hasattr(os, "fork") else None)
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            results = [f.result() for f in [pool.submit(_run_group, *task) for task in tasks]]
    by_file = {i: s for members, group in zip(groups, results) for i, s in zip(members, group)}
    return [by_file[i] for i in range(len(scenarios))]
