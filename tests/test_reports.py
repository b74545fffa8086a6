"""Artifact rendering: exact-round-trip CSV/JSON for trajectories and reports."""

import json
import math
import re
import tracemalloc

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
    layout,
    render_parts,
    render_report,
    render_table,
    sweep_layout,
    write_artifact,
)
from reclock.runner import _emit

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


def _csv_per_cell(table):
    """csv_table with one Python format call per cell: the text it must write."""
    lines = [",".join(table)]
    for row in zip(*table.values(), strict=True):
        lines.append(",".join(f"{float(v):.16e}" for v in row))
    return "\n".join(lines) + "\n"


def _json_dumps_whole(kind, table, summary, flags=()):
    """json_document as one json.dumps of the whole payload: the text it must write."""
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": kind,
        "samples": {name: [float(v) for v in col] for name, col in table.items()},
        "summary": summary,
        "flags": list(flags),
    }
    return json.dumps(payload, indent=2) + "\n"


EDGE_CELLS = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e-300]
NON_FINITE = [math.nan, math.inf, -math.inf]


def _layouts():
    traj = integrate_t(FreePotential(), CST, 0.0, 1.0, (0.0, 1.0))
    tau_traj = integrate_tau(FreePotential(), CST, IdentityMap(), 0.0, 1.0, (0.0, 1.0))
    sweep = sweep_layout(
        np.array([0.1, 0.05]), np.array([0.99, 0.999]), np.array([0.1, 0.04]),
        np.array([1e-7, 2e-8]), 1.97, ["dt=0.1: edge leak"],
    )
    rng = np.random.default_rng(0)
    # Longer than a chunk of rows, with the edge cells placed across a chunk's end.
    long = rng.standard_normal(2051) * 10.0 ** rng.integers(-300, 300, 2051)
    long[1020:1026] = EDGE_CELLS
    return {
        "covariance": layout(_small_report()),
        "trajectory-t": layout(traj),
        "trajectory-tau": layout(tau_traj),
        "sweep": sweep,
        "edge-cells": ("demo", {"a": np.array(EDGE_CELLS), "b": EDGE_CELLS[::-1]}, {"s": 1}, ()),
        "long": ("demo", {"x": long, "y": long[::-1].copy(), "i": range(2051)}, {}, ["f"]),
        "non-finite": (
            "demo", {"a": np.array(NON_FINITE + EDGE_CELLS[:3]), "b": EDGE_CELLS}, {"s": 1}, ()
        ),
        "nan-in-summary": ("demo", {"a": [0.5]}, {"s": math.nan, "t": -math.inf}, ()),
        "no-rows": ("demo", {"a": np.array([]), "b": []}, {}, ()),
        "no-columns": ("demo", {}, {}, ()),
    }


@pytest.mark.parametrize("name", sorted(_layouts()))
def test_tables_render_byte_for_byte_as_the_per_cell_code(name):
    kind, table, summary, flags = _layouts()[name]
    assert csv_table(table) == _csv_per_cell(table)
    assert json_document(kind, table, summary, flags) == _json_dumps_whole(
        kind, table, summary, flags
    )


@pytest.mark.parametrize("lengths", [(3, 2), (2, 3), (2048, 1024), (1024, 2048), (2000, 1500)])
def test_csv_rejects_columns_of_unequal_length_as_zip_does(lengths):
    table = {name: np.zeros(n) for name, n in zip("ab", lengths)}
    with pytest.raises(ValueError) as want:
        _csv_per_cell(table)
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        csv_table(table)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(_layouts()))
def test_a_streamed_artifact_is_the_rendered_text(tmp_path, name, fmt):
    artifact = _layouts()[name]
    path = write_artifact(render_parts(*artifact, fmt), tmp_path / f"{name}.{fmt}")
    assert path.read_bytes() == render_table(*artifact, fmt).encode()


def test_a_render_that_fails_partway_leaves_no_file(tmp_path):
    # The first 1024-row chunk is written before the shorter column runs out.
    table = {"a": np.zeros(2048), "b": np.zeros(1024)}
    with pytest.raises(ValueError) as want:
        _csv_per_cell(table)
    target = tmp_path / "out" / "x.csv"
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        write_artifact(render_parts("demo", table, {}, (), "csv"), target)
    assert not target.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writing_a_long_report_holds_less_than_its_text(tmp_path, fmt):
    # A covariance report with a record at every step of a 2 pi span at
    # dt = 1e-3 has 6283 rows. Written as it renders, it is never held whole.
    rng = np.random.default_rng(0)
    names = layout(_small_report())[1]
    artifact = ("covariance_report", {name: rng.standard_normal(6283) for name in names}, {}, ())
    size = len(render_table(*artifact, fmt))
    tracemalloc.start()
    try:
        _emit({"report": artifact}, tmp_path, [fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / f"report.{fmt}").stat().st_size == size
    assert peak < size, f"peak {peak} B while writing {size} B of text"


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
    path = write_artifact([render_report(report, "csv")], target)
    assert path == target and target.is_file()
    assert target.read_text(encoding="utf-8") == render_report(report, "csv")
    first_bytes = target.read_bytes()
    write_artifact([render_report(report, "csv")], target)
    assert target.read_bytes() == first_bytes
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    with pytest.raises(ReclockError, match="cannot write report"):
        write_artifact([render_report(report, "csv")], blocker / "sub" / "x.csv")
