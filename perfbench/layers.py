"""Traced run: call each layer's public functions and record spans and counts.

Nothing inside ``reclock`` is instrumented. The spans sit in this file around
the calls into each layer (``scenario``, ``model``, ``quantum``,
``classical``, ``reports``, ``runner``), and counts come from delegating
``PotentialSpec``/``TimeMap`` wrappers handed to those calls. The wrappers
return the wrapped object's values unchanged, which the run checks: every
metric of the traced pass must equal the untraced runner's bit for bit.

Order of work, all in this process on the workload's generated inputs:

1. ``run_many`` at the workload's ``--jobs``: the runner's own timings.
2. The scenario pass with no spans or wrappers (the untraced reference).
3. The same pass with spans and counting wrappers, each scenario followed
   by probes that only the trace needs (a separate tau run, the same run
   with endpoints only, fidelity over all matched pairs). Passes 2 and 3
   alternate scenario by scenario.
4. Crank-Nicolson step timings on fixed grids.

Tracing overhead is (3) minus (2), without the probes. Every time here is
a single sample; only the counts repeat exactly.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

from reclock.classical import integrate_t, integrate_tau, trajectory_equivalence
from reclock.model import (
    HarmonicPotential,
    PhysicalConstants,
    PotentialSpec,
    SpatialGrid,
    TimeMap,
    prepare_gaussian,
)
from reclock.quantum import (
    CovarianceScenario,
    PropagatorConfig,
    covariance_experiment,
    fidelity,
    propagate_t,
    propagate_tau,
)
from reclock.reports import render_report
from reclock.runner import run_many
from reclock.scenario import parse_scenario

import checks
from scenarios import Workload

FORMATS = ("csv", "json")

# Minimum memory traffic of one Crank-Nicolson point-step, computed from array
# sizes (read u and write u_new as complex128, read V as float64), not measured.
CN_BYTES_PER_POINT_STEP = 40

# Grid size -> steps for the fixed-grid step timing (static harmonic well,
# endpoints only); each is repeated CN_REPEATS times and the median kept.
CN_GRIDS = {256: 1000, 512: 1000, 1024: 1000, 16384: 100}
CN_REPEATS = 3

IMPORT_REPEATS = 3

LAYER_UNITS = {
    "cli.import_s": "s",
    "scenario.parse_s": "s",
    "model.potential_evals": "count",
    "model.timemap_evals": "count",
    "quantum.tau_run_s": "s",
    "quantum.covariance_s": "s",
    "quantum.reference_and_compare_s": "s",
    "quantum.record_s": "s",
    "quantum.fidelity_s": "s",
    "quantum.snapshots": "count",
    "quantum.cn_steps": "count",
    "quantum.cn_us_per_step.n256": "us",
    "quantum.cn_us_per_step.n512": "us",
    "quantum.cn_us_per_step.n1024": "us",
    "quantum.ns_per_point_step.n16384": "ns",
    "quantum.computed_traffic_mb": "MB",
    "classical.integrate_tau_s": "s",
    "classical.integrate_t_s": "s",
    "classical.equivalence_s": "s",
    "classical.rhs_evals": "count",
    "classical.samples": "count",
    "reports.render_s": "s",
    "reports.bytes": "B",
    "runner.run_scenario_s": "s",
    "runner.self_s": "s",
    "runner.idle_slot_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    counts: dict[str, int] = field(default_factory=dict)


class CountingPotential(PotentialSpec):
    """Delegates to ``inner`` and counts every evaluation."""

    def __init__(self, inner: PotentialSpec, counts: Counter):
        self.inner = inner
        self.counts = counts

    def value(self, t, x):
        self.counts["potential.value"] += 1
        return self.inner.value(t, x)

    def gradient_x(self, t, x):
        self.counts["potential.gradient_x"] += 1
        return self.inner.gradient_x(t, x)


class CountingTimeMap(TimeMap):
    """Delegates to ``inner`` and counts every evaluation."""

    def __init__(self, inner: TimeMap, counts: Counter):
        self.inner = inner
        self.domain = inner.domain
        self.counts = counts

    def value(self, tau):
        self.counts["timemap.value"] += 1
        return self.inner.value(tau)

    def rate(self, tau):
        self.counts["timemap.rate"] += 1
        return self.inner.rate(tau)

    def contains(self, tau):
        return self.inner.contains(tau)


class Untraced:
    """The scenario pass's hooks with tracing off: no spans, no wrappers."""

    @contextmanager
    def span(self, name: str):
        yield

    def potential(self, spec: PotentialSpec) -> PotentialSpec:
        return spec

    def timemap(self, tmap: TimeMap) -> TimeMap:
        return tmap


class Tracer(Untraced):
    """Spans kept in memory, each with the counts that changed inside it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = Span(
            id=len(self.spans),
            name=name,
            start=0.0,
            end=0.0,
            parent=self._stack[-1] if self._stack else None,
            run=self.run_id,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        before = Counter(self.counts)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            span.counts = dict(self.counts - before)

    def potential(self, spec: PotentialSpec) -> PotentialSpec:
        return CountingPotential(spec, self.counts)

    def timemap(self, tmap: TimeMap) -> TimeMap:
        return CountingTimeMap(tmap, self.counts)

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def count(self, name: str, *keys: str) -> int:
        return sum(s.counts.get(k, 0) for s in self.spans if s.name == name for k in keys)

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its child spans cover, summed by name."""
        own = {s.id: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        out: Counter = Counter()
        for s in self.spans:
            out[s.name] += own[s.id]
        return dict(out)


@dataclass
class ScenarioOutcome:
    """What one pass over one scenario produced, for cross-checking passes."""

    metrics: dict[str, float]
    artifacts: dict[str, str]  # file name -> sha256 of its text
    reports: list = field(default_factory=list)  # (CovarianceReport, CovarianceScenario)
    cn_steps: int = 0
    point_steps: int = 0
    snapshots: int = 0
    samples: int = 0
    report_bytes: int = 0

    def add_counts(self, other: "ScenarioOutcome"):
        for attr in ("cn_steps", "point_steps", "snapshots", "samples", "report_bytes"):
            setattr(self, attr, getattr(self, attr) + getattr(other, attr))


def count_metrics(tracer: "Tracer", totals: ScenarioOutcome) -> dict[str, int]:
    """The per-layer metrics that are counts; each must repeat exactly."""
    return {
        "model.potential_evals": tracer.count("runner.scenario", "potential.value", "potential.gradient_x"),
        "model.timemap_evals": tracer.count("runner.scenario", "timemap.value", "timemap.rate"),
        "quantum.snapshots": totals.snapshots,
        "quantum.cn_steps": totals.cn_steps,
        "classical.rhs_evals": tracer.count("classical.integrate_tau", "potential.gradient_x")
        + tracer.count("classical.integrate_t", "potential.gradient_x"),
        "classical.samples": totals.samples,
        "reports.bytes": totals.report_bytes,
    }


def _render(obj, stem: str, hooks: Untraced, outcome: ScenarioOutcome):
    with hooks.span("reports.render"):
        texts = {f"{stem}.{fmt}": render_report(obj, fmt) for fmt in FORMATS}
    for fname, text in texts.items():
        data = text.encode("utf-8")
        outcome.artifacts[fname] = hashlib.sha256(data).hexdigest()
        outcome.report_bytes += len(data)


def _covariance(scenario, psi0, cfg, hooks: Untraced, outcome: ScenarioOutcome):
    cs = CovarianceScenario(
        constants=scenario.constants,
        potential=hooks.potential(scenario.potential),
        timemap=hooks.timemap(scenario.timemap),
        initial_state=psi0,
        tau_span=scenario.tau_span,
        config=cfg,
    )
    with hooks.span("quantum.covariance"):
        report = covariance_experiment(cs)
    a, b = scenario.tau_span
    t_a, t_b = scenario.t_span
    steps = math.ceil((b - a) / cfg.dt) + math.ceil((t_b - t_a) / cfg.dt)
    outcome.cn_steps += steps
    outcome.point_steps += steps * scenario.grid.n_points
    outcome.snapshots += len(report.tau_record.snapshots) + len(report.t_record.snapshots)
    # Keep the raw-object inputs so probes run without the counting wrappers.
    outcome.reports.append((report, replace(cs, potential=scenario.potential, timemap=scenario.timemap)))
    return report


def scenario_pass(path: Path, hooks: Untraced) -> ScenarioOutcome:
    """The calls ``run_scenario`` makes for one file, with the pass's hooks."""
    with hooks.span("scenario.parse"):
        scenario = parse_scenario(path)
    outcome = ScenarioOutcome(metrics={}, artifacts={})
    with hooks.span("runner.scenario"):
        kind = scenario.kind.value
        if kind == "classical_equivalence":
            pot = hooks.potential(scenario.potential)
            tmap = hooks.timemap(scenario.timemap)
            x0, p0 = scenario.classical_initial
            tol = scenario.integrator_tol
            with hooks.span("classical.integrate_tau"):
                traj_tau = integrate_tau(pot, scenario.constants, tmap, x0, p0, scenario.tau_span, tol)
            with hooks.span("classical.integrate_t"):
                traj_t = integrate_t(pot, scenario.constants, x0, p0, scenario.t_span, tol)
            with hooks.span("classical.equivalence"):
                error = trajectory_equivalence(traj_t, traj_tau, tmap)
            outcome.metrics["max_trajectory_error"] = error
            outcome.samples = len(traj_tau.clocks) + len(traj_t.clocks)
            _render(traj_tau, "trajectory-tau", hooks, outcome)
            _render(traj_t, "trajectory-t", hooks, outcome)
            return outcome
        g = scenario.gaussian
        with hooks.span("model.prepare"):
            psi0 = prepare_gaussian(scenario.grid, g.center, g.width, g.momentum, scenario.constants)
        if kind == "quantum_covariance":
            report = _covariance(scenario, psi0, scenario.propagator, hooks, outcome)
            outcome.metrics.update(
                min_fidelity=report.min_fidelity,
                max_energy_transform_residual=report.max_energy_transform_residual,
                max_norm_deviation=report.max_norm_deviation,
            )
            _render(report, "report", hooks, outcome)
        else:
            # The sweep's 4-row summary table is rendered by the runner itself.
            for dt in scenario.sweep_dts:
                cfg = replace(scenario.propagator, dt=float(dt))
                report = _covariance(scenario, psi0, cfg, hooks, outcome)
            outcome.metrics["min_fidelity_finest"] = report.min_fidelity
    return outcome


def _probes(outcome: ScenarioOutcome, tracer: Tracer):
    """Trace-only calls on raw objects: tau run, its record cost, fidelity."""
    for report, cs in outcome.reports:
        args = (cs.initial_state, cs.potential, cs.constants, cs.timemap, cs.tau_span)
        with tracer.span("quantum.tau_run"):
            propagate_tau(*args, cs.config)
        with tracer.span("quantum.tau_run_endpoints"):
            propagate_tau(*args, replace(cs.config, record_every=10**9))
        with tracer.span("quantum.fidelity"):
            for ps, ph in zip(report.t_record.snapshots, report.tau_record.snapshots):
                fidelity(ps.state, ph.state)
    outcome.reports.clear()


def _import_seconds(env: dict[str, str]) -> float:
    code = "import time; t = time.perf_counter(); import reclock.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def _cn_step_seconds(n_points: int, steps: int) -> float:
    """Median seconds per Crank-Nicolson step of ``propagate_t`` on a fixed grid."""
    half = 12.0 if n_points <= 1024 else 24.0
    grid = SpatialGrid(-half, half, n_points)
    psi0 = prepare_gaussian(grid, 0.0, 1.0)
    cfg = PropagatorConfig(dt=1e-3, record_every=10**9)
    times = []
    for _ in range(CN_REPEATS):
        start = time.perf_counter()
        propagate_t(psi0, HarmonicPotential(), PhysicalConstants(), (0.0, steps * cfg.dt), cfg)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / steps


@dataclass
class TraceResult:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    problems: list[str]
    tracer: Tracer

    def dump(self) -> dict:
        return {
            "run": self.tracer.run_id,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
            "self_s": self.tracer.self_times(),
            "spans": [vars(s) for s in self.tracer.spans],
        }


def traced_run(workload: Workload, work_dir: Path, env: dict[str, str]) -> TraceResult:
    import_s = _import_seconds(env)
    infos = {checks.scenario_info(f).name: checks.scenario_info(f) for f in workload.files}
    problems: list[str] = []
    bad: set[str] = set()

    # 1. The runner, untraced, at the workload's job count.
    out_root = work_dir / "runner"
    start = time.perf_counter()
    summaries = run_many(workload.files, out_root=out_root, formats=FORMATS, jobs=workload.jobs)
    run_many_wall = time.perf_counter() - start
    run_scenario_s = sum(s.wall_time_s for s in summaries)
    by_name = {s.name: s for s in summaries}
    for name, info in infos.items():
        summary = by_name[name]
        misses = [] if summary.status.value == checks.EXPECTED_VERDICT else [f"verdict {summary.status.value}"]
        misses += checks.metric_misses(info, summary.metrics)
        if misses:
            problems.append(f"run_many: {name}: {'; '.join(misses)}")
            bad.add(name)

    # 2. and 3., alternating per scenario so both passes see the same machine.
    tracer = Tracer(run_id=f"{workload.name}:{os.getpid()}:{time.time_ns()}")
    untraced_s = traced_s = 0.0
    totals = ScenarioOutcome(metrics={}, artifacts={})
    for path, name in zip(workload.files, infos):
        start = time.perf_counter()
        plain = scenario_pass(path, Untraced())
        untraced_s += time.perf_counter() - start
        plain.reports.clear()
        start = time.perf_counter()
        outcome = scenario_pass(path, tracer)
        traced_s += time.perf_counter() - start
        _probes(outcome, tracer)
        totals.add_counts(outcome)
        # The wrappers must not change a single bit of the results or artifacts.
        summary = by_name[name]
        for key, value in outcome.metrics.items():
            if not value == summary.metrics[key] == plain.metrics[key]:
                problems.append(f"{name}: {key} differs between runner, untraced and traced passes")
                bad.add(name)
        for fname, digest in outcome.artifacts.items():
            written = hashlib.sha256((out_root / name / fname).read_bytes()).hexdigest()
            if not digest == written == plain.artifacts[fname]:
                problems.append(f"{name}: {fname} differs between runner, untraced and traced passes")
                bad.add(name)

    cn = {n: _cn_step_seconds(n, steps) for n, steps in CN_GRIDS.items()}

    parse_s = tracer.total("scenario.parse")
    tau_run_s = tracer.total("quantum.tau_run")
    covariance_s = tracer.total("quantum.covariance")
    values = {
        **count_metrics(tracer, totals),
        "cli.import_s": import_s,
        "scenario.parse_s": parse_s,
        "quantum.tau_run_s": tau_run_s,
        "quantum.covariance_s": covariance_s,
        "quantum.reference_and_compare_s": covariance_s - tau_run_s,
        "quantum.record_s": tau_run_s - tracer.total("quantum.tau_run_endpoints"),
        "quantum.fidelity_s": tracer.total("quantum.fidelity"),
        "quantum.cn_us_per_step.n256": cn[256] * 1e6,
        "quantum.cn_us_per_step.n512": cn[512] * 1e6,
        "quantum.cn_us_per_step.n1024": cn[1024] * 1e6,
        "quantum.ns_per_point_step.n16384": cn[16384] / 16384 * 1e9,
        "quantum.computed_traffic_mb": totals.point_steps * CN_BYTES_PER_POINT_STEP / 1e6,
        "classical.integrate_tau_s": tracer.total("classical.integrate_tau"),
        "classical.integrate_t_s": tracer.total("classical.integrate_t"),
        "classical.equivalence_s": tracer.total("classical.equivalence"),
        "reports.render_s": tracer.total("reports.render"),
        "runner.run_scenario_s": run_scenario_s,
        # The untraced pass minus parsing makes the same layer calls as run_scenario.
        "runner.self_s": run_scenario_s - (untraced_s - parse_s),
        "runner.idle_slot_s": workload.jobs * run_many_wall - run_scenario_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    return TraceResult(
        metrics={k: (values[k], unit) for k, unit in LAYER_UNITS.items()},
        attempted=len(infos),
        failed=len(bad),
        problems=problems,
        tracer=tracer,
    )
