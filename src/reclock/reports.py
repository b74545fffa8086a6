"""Every artifact's layout, and its bit-stable CSV/JSON text.

Numeric cells are printed with 17 significant digits (``%.16e``), which
round-trips IEEE doubles exactly, so re-running an identical scenario on
the same build reproduces artifacts byte for byte. JSON uses the repr-based
float formatting of the standard library, which is also exact.

An artifact is written part by part as it renders (``render_parts``,
``write_artifact``): a part is at most one chunk of rows of the table, so
writing a long report never holds its whole text.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .classical import Trajectory
from .errors import ReclockError, ValidationError
from .quantum import CovarianceReport

REPORT_SCHEMA_VERSION = 1


# Cells become Python floats, then text, this many rows at a time, so writing
# a long table holds one chunk's float objects and text, not the whole table's.
_CHUNK_ROWS = 1024


def _chunks(col):
    """``col``'s values as lists of Python floats, ``_CHUNK_ROWS`` at a time."""
    for i in range(0, len(col), _CHUNK_ROWS):
        yield np.asarray(col[i : i + _CHUNK_ROWS], dtype=float).tolist()


def csv_parts(table: dict):
    """The parts of ``table``'s CSV document, as they render: the header, then
    each chunk's rows, then the final newline."""
    # One format per row, each row led by its newline; "%.16e" writes nan and
    # ±inf as f"{v:.16e}" does.
    row = "\n" + ",".join(["%.16e"] * len(table))
    yield ",".join(table)
    for chunk in zip(*map(_chunks, table.values()), strict=True):
        yield "".join(row % cells for cells in zip(*chunk, strict=True))
    yield "\n"


def _json_list(col):
    """The parts of a column as json.dumps(indent=2) writes a list at depth two:
    a float as its repr, but nan and ±inf as NaN and ±Infinity. No finite
    float's repr holds those letters, so each chunk's joined text is rewritten
    whole."""
    sep = ",\n      "
    lead = "[\n      "
    for chunk in _chunks(col):
        yield lead
        yield sep.join(map(float.__repr__, chunk)).replace("nan", "NaN").replace("inf", "Infinity")
        lead = sep
    yield "\n    ]" if lead == sep else "[]"


def json_parts(kind: str, table: dict, summary: dict, flags=()):
    """The parts of a JSON document mirroring a CSV table, with schema version
    and summary, as they render.

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
    yield head
    if table:
        yield '\n  "samples": {'
        for k, (name, col) in enumerate(table.items()):
            yield f"{',' if k else ''}\n    {json.dumps(name)}: "
            yield from _json_list(col)
        yield "\n  },"
    else:
        yield empty
    yield tail
    yield "\n"


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


def render_parts(kind: str, table: dict, summary: dict, flags, fmt: str):
    """The parts of a layout's artifact text in the requested format, as they
    render. An unknown format is rejected here, before any part renders."""
    if fmt == "csv":
        return csv_parts(table)
    if fmt == "json":
        return json_parts(kind, table, summary, flags)
    raise ValidationError(f"unknown report format {fmt!r}; available: csv, json")


def render_report(obj, fmt: str) -> str:
    """The exact artifact text for ``obj`` in the requested format."""
    return "".join(render_parts(*layout(obj), fmt))


def write_artifact(parts, path) -> Path:
    """Write the text ``parts`` to ``path`` as they come, creating its
    directories, so no more than one part's text is held at once. If a part
    fails to render, the partial file is removed and the error raised as it
    was; an OSError is a ReclockError naming the path."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            try:
                fh.writelines(parts)
            except BaseException:
                fh.close()
                path.unlink(missing_ok=True)
                raise
    except OSError as exc:
        raise ReclockError(f"cannot write report to {path}: {exc}") from exc
    return path
