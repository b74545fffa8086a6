"""Output checks behind ``failed``: verdicts, tolerances, exactness, determinism.

The thresholds are the benchmark's own copy of each kind's default
tolerances. They are not imported from ``reclock``, so a change that loosens
the program's defaults still fails here.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

MIN_FIDELITY = 1.0 - 1e-5
MAX_ENERGY_RESIDUAL = 1e-6
MAX_TRAJECTORY_ERROR = 1e-5
ORDER_RANGE = (1.8, 2.2)

# Every benchmark scenario must print this verdict, and the CLI must exit 0.
EXPECTED_VERDICT = "Pass"

_SUMMARY_RE = re.compile(r"^(Pass|Fail|Flagged)\s+(\S+)\s+(.*?)\s*\((\d+\.\d+)s\)$")


@dataclass(frozen=True)
class ScenarioInfo:
    """What the benchmark knows about an input file without importing reclock."""

    name: str
    kind: str
    identity_clock: bool


def scenario_info(path: Path) -> ScenarioInfo:
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.read(path, encoding="utf-8")
    return ScenarioInfo(
        name=cfg["scenario"]["name"],
        kind=cfg["scenario"]["kind"],
        identity_clock=cfg["timemap"]["family"] == "identity",
    )


@dataclass
class Summary:
    verdict: str
    metrics: dict[str, float] = field(default_factory=dict)


def parse_summaries(stdout: str) -> dict[str, Summary]:
    """Scenario name -> verdict and printed metrics from ``reclock run`` output."""
    out = {}
    for line in stdout.splitlines():
        match = _SUMMARY_RE.match(line)
        if not match:
            continue
        verdict, name, rest, _ = match.groups()
        metrics = {}
        for token in rest.split():
            key, _, value = token.partition("=")
            metrics[key] = float(value)
        out[name] = Summary(verdict, metrics)
    return out


def metric_misses(info: ScenarioInfo, metrics: dict[str, float]) -> list[str]:
    """Printed metrics that miss the kind's default tolerance."""
    misses = []

    def need(key: str) -> float:
        if key not in metrics:
            misses.append(f"{key} not printed")
            return math.nan
        return metrics[key]

    if info.kind == "quantum_covariance":
        fid = need("min_fidelity")
        res = need("max_energy_transform_residual")
        if not fid >= MIN_FIDELITY:
            misses.append(f"min_fidelity {fid!r} < {MIN_FIDELITY!r}")
        if not res <= MAX_ENERGY_RESIDUAL:
            misses.append(f"max_energy_transform_residual {res!r} > {MAX_ENERGY_RESIDUAL!r}")
        if info.identity_clock and res != 0.0:
            misses.append(f"identity clock: energy residual {res!r} is not exactly 0.0")
    elif info.kind == "classical_equivalence":
        err = need("max_trajectory_error")
        if not err <= MAX_TRAJECTORY_ERROR:
            misses.append(f"max_trajectory_error {err!r} > {MAX_TRAJECTORY_ERROR!r}")
    elif info.kind == "convergence_sweep":
        order = need("estimated_order")
        if not ORDER_RANGE[0] <= order <= ORDER_RANGE[1]:
            misses.append(f"estimated_order {order!r} outside {ORDER_RANGE}")
    else:
        misses.append(f"unknown kind {info.kind!r}")
    return misses


def artifact_misses(info: ScenarioInfo, out_dir: Path) -> list[str]:
    """Checks on the written artifacts themselves, not on the printed summary."""
    expected = {
        "quantum_covariance": ("report",),
        "classical_equivalence": ("trajectory-tau", "trajectory-t"),
        "convergence_sweep": ("sweep",),
    }[info.kind]
    misses = []
    for stem in expected:
        for fmt in ("csv", "json"):
            if not (out_dir / f"{stem}.{fmt}").is_file():
                misses.append(f"missing artifact {stem}.{fmt}")
    if misses or info.kind != "quantum_covariance":
        return misses
    samples = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))["samples"]
    fid = min(samples["fidelity"])
    res = max(samples["energy_transform_residual"])
    if not fid >= MIN_FIDELITY:
        misses.append(f"report.json: min fidelity {fid!r} < {MIN_FIDELITY!r}")
    if not res <= MAX_ENERGY_RESIDUAL:
        misses.append(f"report.json: max residual {res!r} > {MAX_ENERGY_RESIDUAL!r}")
    if info.identity_clock and res != 0.0:
        misses.append(f"report.json: identity clock residual {res!r} is not exactly 0.0")
    return misses


def tree_digest(directory: Path) -> str:
    """sha256 over every file under ``directory``: relative path and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode())
        h.update(b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()
