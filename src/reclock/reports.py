"""Bit-stable CSV/JSON emission for records, reports, trajectories, sweeps.

Numeric cells are printed with 17 significant digits (``%.16e``), which
round-trips IEEE doubles exactly, so re-running an identical scenario on
the same build reproduces artifacts byte for byte. JSON uses the repr-based
float formatting of the standard library, which is also exact.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .classical import Trajectory
from .errors import ReclockError, ValidationError
from .quantum import CovarianceReport, EvolutionRecord

REPORT_SCHEMA_VERSION = 1

_FORMATS = ("csv", "json")


def _fmt(value) -> str:
    return f"{float(value):.16e}"


def csv_table(header: list[str], columns: list[np.ndarray]) -> str:
    """A CSV document with exact 17-significant-digit cells."""
    lines = [",".join(header)]
    n_rows = len(columns[0]) if columns else 0
    for i in range(n_rows):
        lines.append(",".join(_fmt(col[i]) for col in columns))
    return "\n".join(lines) + "\n"


def json_document(kind: str, header, columns, summary: dict, flags=()) -> str:
    """A JSON document mirroring a CSV table, with schema version and summary."""
    return json.dumps(_json_payload(kind, header, columns, summary, flags), indent=2) + "\n"


def _covariance_columns(report: CovarianceReport):
    header = [
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
    columns = [
        report.tau,
        report.t,
        report.fidelity,
        report.norm_psi,
        report.norm_phi,
        report.energy_t,
        report.energy_tau,
        report.tprime,
        report.energy_transform_residual,
    ]
    return header, columns


def _record_columns(record: EvolutionRecord):
    header = ["clock", "t_equivalent", "norm", "energy"]
    columns = [record.clocks(), record.t_values(), record.norms(), record.energies()]
    return header, columns


def _trajectory_columns(traj: Trajectory):
    header = ["clock", "t_equivalent", "q", "pm"]
    columns = [traj.clocks, traj.t_values(), traj.q, traj.pm]
    return header, columns


def _json_payload(kind: str, header, columns, summary: dict, flags=()) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": kind,
        "samples": {name: [float(v) for v in col] for name, col in zip(header, columns)},
        "summary": summary,
        "flags": list(flags),
    }


def render_report(obj, fmt: str) -> str:
    """The exact artifact text for ``obj`` in the requested format."""
    if fmt not in _FORMATS:
        raise ValidationError(f"unknown report format {fmt!r}; available: csv, json")
    if isinstance(obj, CovarianceReport):
        header, columns = _covariance_columns(obj)
        kind = "covariance_report"
        summary = {}
        if len(obj.fidelity):
            summary = {
                "min_fidelity": float(obj.min_fidelity),
                "max_energy_transform_residual": float(obj.max_energy_transform_residual),
                "max_norm_deviation": float(obj.max_norm_deviation),
            }
        flags = obj.flags
    elif isinstance(obj, EvolutionRecord):
        header, columns = _record_columns(obj)
        kind = "evolution_record"
        norms = obj.norms()
        summary = {
            "clock_kind": obj.clock_kind.value,
            "n_snapshots": len(obj.snapshots),
            "max_norm_deviation": float(np.max(np.abs(norms - norms[0]))),
        }
        flags = obj.flags
    elif isinstance(obj, Trajectory):
        header, columns = _trajectory_columns(obj)
        kind = "trajectory"
        summary = {"clock_kind": obj.clock_kind.value, "n_samples": int(len(obj.clocks))}
        flags = ()
    else:
        raise ValidationError(f"cannot render a report for {type(obj).__name__}")

    if fmt == "csv":
        return csv_table(header, columns)
    return json_document(kind, header, columns, summary, flags)


def emit_report(obj, fmt: str, path) -> Path:
    """Write ``obj`` to ``path`` in the requested format and return the path."""
    return write_artifact(render_report(obj, fmt), path)


def write_artifact(text: str, path) -> Path:
    """Write ``text`` to ``path``, creating its directories; an OSError is a ReclockError."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ReclockError(f"cannot write report to {path}: {exc}") from exc
    return path
