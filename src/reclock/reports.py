"""Every artifact's layout, and its bit-stable CSV/JSON text.

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
from .quantum import CovarianceReport

REPORT_SCHEMA_VERSION = 1


# Cells become Python floats this many rows at a time, so rendering a long
# table holds its text and one chunk of float objects, not one per cell.
_CHUNK_ROWS = 1024


def _chunks(col):
    """``col``'s values as lists of Python floats, ``_CHUNK_ROWS`` at a time."""
    for i in range(0, len(col), _CHUNK_ROWS):
        yield np.asarray(col[i : i + _CHUNK_ROWS], dtype=float).tolist()


def csv_table(table: dict) -> str:
    """A CSV document of ``table``'s named columns with exact 17-significant-digit cells."""
    # One format per row; "%.16e" writes nan and ±inf as f"{v:.16e}" does.
    row = ",".join(["%.16e"] * len(table))
    parts = [",".join(table)]
    for chunk in zip(*map(_chunks, table.values()), strict=True):
        parts.append("\n".join(row % cells for cells in zip(*chunk, strict=True)))
    parts.append("")  # the final newline, with no copy of the text to add it
    return "\n".join(parts)


def _json_list(col) -> str:
    """A column as json.dumps(indent=2) writes a list at depth two: a float as
    its repr, but nan and ±inf as NaN and ±Infinity. No finite float's repr
    holds those letters, so each chunk's joined text is rewritten whole."""
    sep = ",\n      "
    body = sep.join(
        sep.join(map(float.__repr__, chunk)).replace("nan", "NaN").replace("inf", "Infinity")
        for chunk in _chunks(col)
    )
    return f"[\n      {body}\n    ]" if body else "[]"


def json_document(kind: str, table: dict, summary: dict, flags=()) -> str:
    """A JSON document mirroring a CSV table, with schema version and summary.

    The text is ``json.dumps(payload, indent=2)``, with the samples joined
    from ``float.__repr__`` as json writes them (``_json_list``).
    """
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": kind,
        "samples": {},
        "summary": summary,
        "flags": list(flags),
    }
    head, empty, tail = json.dumps(payload, indent=2).partition('\n  "samples": {},')
    if not table:
        return f"{head}{empty}{tail}\n"
    parts = [head, '\n  "samples": {']
    for k, (name, col) in enumerate(table.items()):
        parts += ["," if k else "", f"\n    {json.dumps(name)}: ", _json_list(col)]
    parts += ["\n  },", tail, "\n"]
    return "".join(parts)  # one join, so the text is copied once


def layout(obj):
    """A covariance report's or a trajectory's artifact as (kind, table,
    summary, flags): ``table`` maps each column name, in file order, to its values."""
    if isinstance(obj, CovarianceReport):
        table = {
            "tau": obj.tau,
            "t": obj.t,
            "fidelity": obj.fidelity,
            "norm_psi": obj.norm_psi,
            "norm_phi": obj.norm_phi,
            "energy_t": obj.energy_t,
            "energy_tau": obj.energy_tau,
            "Tprime": obj.tprime,
            "energy_transform_residual": obj.energy_transform_residual,
        }
        summary = {
            "min_fidelity": float(obj.min_fidelity),
            "max_energy_transform_residual": float(obj.max_energy_transform_residual),
            "max_norm_deviation": float(obj.max_norm_deviation),
        }
        return "covariance_report", table, summary, obj.flags
    if isinstance(obj, Trajectory):
        table = {"clock": obj.clocks, "t_equivalent": obj.t, "q": obj.q, "pm": obj.pm}
        clock_kind = "t" if obj.timemap is None else "tau"
        summary = {"clock_kind": clock_kind, "n_samples": int(len(obj.clocks))}
        return "trajectory", table, summary, ()
    raise ValidationError(f"cannot render a report for {type(obj).__name__}")


def sweep_layout(dts, min_fidelity, fidelity_error, residual, estimated_order, flags):
    """A convergence sweep's artifact as (kind, table, summary, flags), one row per dt."""
    table = {
        "dt": dts,
        "min_fidelity": min_fidelity,
        "fidelity_error": fidelity_error,
        "max_energy_transform_residual": residual,
    }
    return "convergence_sweep", table, {"estimated_order": estimated_order}, flags


def render_table(kind: str, table: dict, summary: dict, flags, fmt: str) -> str:
    """The exact artifact text of a layout in the requested format."""
    if fmt == "csv":
        return csv_table(table)
    if fmt == "json":
        return json_document(kind, table, summary, flags)
    raise ValidationError(f"unknown report format {fmt!r}; available: csv, json")


def render_report(obj, fmt: str) -> str:
    """The exact artifact text for ``obj`` in the requested format."""
    return render_table(*layout(obj), fmt)


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
