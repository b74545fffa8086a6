"""Artifact rendering: exact-round-trip CSV/JSON for trajectories and reports."""

import json
import math

import numpy as np
import pytest

from reclock.classical import integrate_t, integrate_tau
from reclock.errors import ReclockError, ValidationError
from reclock.model import (
    FreePotential,
    HarmonicPotential,
    IdentityMap,
    PhysicalConstants,
    SpatialGrid,
    prepare_gaussian,
)
from reclock.quantum import (
    CovarianceReport,
    CovarianceScenario,
    PropagatorConfig,
    covariance_experiment,
)
from reclock.reports import (
    REPORT_SCHEMA_VERSION,
    csv_table,
    json_document,
    render_report,
    write_artifact,
)

CST = PhysicalConstants()


def _small_report() -> CovarianceReport:
    grid = SpatialGrid(-12.0, 12.0, 128)
    scenario = CovarianceScenario(
        constants=CST,
        potential=HarmonicPotential(),
        timemap=IdentityMap(domain=(0.0, 0.05)),
        initial_state=prepare_gaussian(grid, 0.0, 1.0),
        tau_span=(0.0, 0.05),
        config=PropagatorConfig(dt=1e-2, record_every=2),
    )
    return covariance_experiment(scenario)


def test_csv_cells_round_trip_doubles_exactly():
    values = np.array([0.1, 1.0 / 3.0, math.pi, -1.2345678901234567e-300, 6.02e23])
    text = csv_table({"v": values})
    lines = text.strip().split("\n")
    assert lines[0] == "v"
    parsed = [float(line) for line in lines[1:]]
    for got, want in zip(parsed, values):
        assert got == want  # bit-exact, not approximate


def test_covariance_report_csv_layout():
    report = _small_report()
    text = render_report(report, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == (
        "tau,t,fidelity,norm_psi,norm_phi,energy_t,energy_tau,"
        "Tprime,energy_transform_residual"
    )
    assert len(lines) == 1 + len(report.tau)
    first = lines[1].split(",")
    assert float(first[0]) == report.tau[0]
    assert float(first[2]) == report.fidelity[0]


def test_evolution_record_and_trajectory_csv_layout():
    traj = integrate_t(FreePotential(), CST, 0.0, 1.0, (0.0, 1.0))
    ttext = render_report(traj, "csv")
    assert ttext.startswith("clock,t_equivalent,q,pm\n")
    # The artifact names the run's clock: "tau" exactly when it has a map.
    tau_traj = integrate_tau(FreePotential(), CST, IdentityMap(), 0.0, 1.0, (0.0, 1.0))
    for run, clock in ((traj, "t"), (tau_traj, "tau")):
        assert json.loads(render_report(run, "json"))["summary"]["clock_kind"] == clock


def test_json_documents_round_trip():
    report = _small_report()
    doc = json.loads(render_report(report, "json"))
    assert doc["schema_version"] == REPORT_SCHEMA_VERSION
    assert doc["kind"] == "covariance_report"
    assert list(doc["samples"]) == [
        "tau",
        "t",
        "fidelity",
        "norm_psi",
        "norm_phi",
        "energy_t",
        "energy_tau",
        "Tprime",
        "energy_transform_residual",
    ]
    # JSON stores repr-format doubles, which parse back bit-exactly.
    assert doc["samples"]["fidelity"] == [float(v) for v in report.fidelity]
    assert doc["summary"]["min_fidelity"] == report.min_fidelity
    assert doc["flags"] == []

    generic = json.loads(json_document("demo", {"a": np.array([0.1])}, {"s": 1}))
    assert generic["samples"]["a"] == [0.1]


def test_rendering_is_deterministic():
    report = _small_report()
    again = _small_report()
    for fmt in ("csv", "json"):
        assert render_report(report, fmt) == render_report(again, fmt)


def test_an_empty_report_is_rejected():
    # Every report has at least its start sample, so none renders without a summary.
    empty = np.array([])
    with pytest.raises(ValidationError, match="at least one sample, got 0"):
        CovarianceReport(empty, empty, empty, empty, empty, empty, empty, empty, empty)


def test_render_report_rejects_bad_inputs():
    report = _small_report()
    with pytest.raises(ValidationError, match="format"):
        render_report(report, "yaml")
    with pytest.raises(ValidationError, match="cannot render"):
        render_report(object(), "csv")


def test_emit_report_creates_directories_and_wraps_os_errors(tmp_path):
    report = _small_report()
    target = tmp_path / "deep" / "nested" / "report.csv"
    path = write_artifact(render_report(report, "csv"), target)
    assert path == target and target.is_file()
    assert target.read_text(encoding="utf-8") == render_report(report, "csv")
    first_bytes = target.read_bytes()
    write_artifact(render_report(report, "csv"), target)
    assert target.read_bytes() == first_bytes
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    with pytest.raises(ReclockError, match="cannot write report"):
        write_artifact(render_report(report, "csv"), blocker / "sub" / "x.csv")
