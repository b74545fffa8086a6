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


def csv_table(header: list[str], columns: list[np.ndarray]) -> str:
    """A CSV document with exact 17-significant-digit cells."""
    lines = [",".join(header)]
    n_rows = len(columns[0]) if columns else 0
    for i in range(n_rows):
        lines.append(",".join(f"{float(col[i]):.16e}" for col in columns))
    return "\n".join(lines) + "\n"


def json_document(kind: str, header, columns, summary: dict, flags=()) -> str:
    """A JSON document mirroring a CSV table, with schema version and summary."""
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": kind,
        "samples": {name: [float(v) for v in col] for name, col in zip(header, columns)},
        "summary": summary,
        "flags": list(flags),
    }
    return json.dumps(payload, indent=2) + "\n"


def render_report(obj, fmt: str) -> str:
    """The exact artifact text for ``obj`` in the requested format."""
    if fmt not in _FORMATS:
        raise ValidationError(f"unknown report format {fmt!r}; available: csv, json")
    if isinstance(obj, CovarianceReport):
        kind = "covariance_report"
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
            obj.tau,
            obj.t,
            obj.fidelity,
            obj.norm_psi,
            obj.norm_phi,
            obj.energy_t,
            obj.energy_tau,
            obj.tprime,
            obj.energy_transform_residual,
        ]
        summary = {}
        if len(obj.fidelity):
            summary = {
                "min_fidelity": float(obj.min_fidelity),
                "max_energy_transform_residual": float(obj.max_energy_transform_residual),
                "max_norm_deviation": float(obj.max_norm_deviation),
            }
        flags = obj.flags
    elif isinstance(obj, EvolutionRecord):
        kind = "evolution_record"
        header = ["clock", "t_equivalent", "norm", "energy"]
        columns = [obj.clocks, obj.t_values(), obj.norms, obj.energies]
        summary = {
            "clock_kind": obj.clock_kind.value,
            "n_snapshots": len(obj.clocks),
            "max_norm_deviation": float(np.max(np.abs(obj.norms - obj.norms[0]))),
        }
        flags = obj.flags
    elif isinstance(obj, Trajectory):
        kind = "trajectory"
        header = ["clock", "t_equivalent", "q", "pm"]
        columns = [obj.clocks, obj.t_values(), obj.q, obj.pm]
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
