"""Scenario files: sectioned key-value descriptions of one experiment each.

A scenario is a plain-text INI-style file with a mandatory schema version.
Each section that describes an object is read against that object's class:
its keys are the class's constructor fields, a field without a default is a
required key, and an omitted key takes the class default. ``[timemap]`` and
``[potential]`` pick the class with their ``family`` key. Parsing is strict:
every embedded object (clock map, potential, grid, initial state) is
constructed and validated immediately, and the t-interval is derived from
the declared map, so an invalid scenario never reaches the runner. A read
key leaves its section as a read section leaves the file; whatever is left,
which the kind never reads, is reported once, after every other fault.
Two files of one batch may not name one scenario (``require_distinct_names``).

Parsing imports ``model`` and ``errors`` alone: the checks it shares with
the layers (a quantum file's ``PropagatorConfig`` and step count, a
classical file's tol) live in ``model``, so validating a file loads no
propagator, integrator or runner.

Example::

    [scenario]
    schema_version = 1
    name = linear-alpha2-harmonic
    kind = quantum_covariance

    [span]
    tau0 = 0.0
    tau1 = 6.283185307179586

    [timemap]
    family = linear
    alpha = 2.0
    ...
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from pathlib import Path

from .errors import ScenarioError, ValidationError
from .model import (
    DEFAULT_TOL,
    DrivenHarmonicPotential,
    FreePotential,
    HarmonicPotential,
    IdentityMap,
    LinearMap,
    MovingWellPotential,
    PhysicalConstants,
    PotentialSpec,
    PropagatorConfig,
    SinePerturbedMap,
    SmoothRampMap,
    SpatialGrid,
    TimeMap,
    check_span,
    check_step_count,
    check_tol,
    prepare_gaussian,
)

SCHEMA_VERSION = 1

# The name is its artifact directory's name, and filesystems cap one at 255 bytes.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,254}$")


class ScenarioKind(Enum):
    QUANTUM_COVARIANCE = "quantum_covariance"
    CLASSICAL_EQUIVALENCE = "classical_equivalence"
    CONVERGENCE_SWEEP = "convergence_sweep"


@dataclass(frozen=True)
class GaussianSpec:
    """Initial wavepacket parameters; validated against the grid at parse time."""

    center: float
    width: float
    momentum: float = 0.0


# Each kind's checks as ([tolerances] key, metric, sense, default bound): a run
# passes a row when ``metric sense bound`` holds. A file sets only its kind's keys.
CHECKS = {
    ScenarioKind.QUANTUM_COVARIANCE: (
        ("min_fidelity", "min_fidelity", ">=", 1.0 - 1e-5),
        ("max_energy_transform_residual", "max_energy_transform_residual", "<=", 1e-6),
    ),
    ScenarioKind.CLASSICAL_EQUIVALENCE: (("max_error", "max_trajectory_error", "<=", 1e-5),),
    ScenarioKind.CONVERGENCE_SWEEP: (
        ("order_min", "estimated_order", ">=", 1.8),
        ("order_max", "estimated_order", "<=", 2.2),
    ),
}


@dataclass(frozen=True)
class Scenario:
    """A fully validated experiment description."""

    name: str
    kind: ScenarioKind
    constants: PhysicalConstants
    timemap: TimeMap
    potential: PotentialSpec
    tau_span: tuple[float, float]
    t_span: tuple[float, float]
    tolerances: tuple[tuple[str, float], ...]
    grid: SpatialGrid | None = None
    gaussian: GaussianSpec | None = None
    classical_initial: tuple[float, float] | None = None
    propagator: PropagatorConfig | None = None
    sweep_dts: tuple[float, ...] | None = None
    integrator_tol: float | None = None


def _parse_float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ScenarioError(f"{where}: not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ScenarioError(f"{where}: must be finite, got {raw!r}")
    return value


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ScenarioError(f"{where}: not an integer: {raw!r}") from exc


class _Section:
    """One config section with strict key accounting."""

    def __init__(self, name: str, data: dict[str, str]):
        self.name = name
        self.data = dict(data)

    def take(self, key: str, parse=None, default=MISSING):
        """The key's raw text, or ``parse(raw, where)`` of it; ``default`` if
        absent, and a key with no default is required. A read key leaves ``data``."""
        if key not in self.data:
            if default is MISSING:
                raise ScenarioError(f"[{self.name}] missing required key {key!r}")
            return default
        raw = self.data.pop(key)
        return raw if parse is None else parse(raw, f"[{self.name}] {key}")

    def call(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, its ValidationError reported under this section."""
        try:
            return fn(*args, **kwargs)
        except ValidationError as exc:
            raise ScenarioError(f"[{self.name}] {exc}") from exc


_TIMEMAPS = {
    "identity": IdentityMap,
    "linear": LinearMap,
    "sine_perturbed": SinePerturbedMap,
    "smooth_ramp": SmoothRampMap,
}
_POTENTIALS = {
    "free": FreePotential,
    "harmonic": HarmonicPotential,
    "driven_harmonic": DrivenHarmonicPotential,
    "moving_well": MovingWellPotential,
}


def _build(cls, sec: _Section, **given):
    """``cls`` built from ``given`` plus one key of ``sec`` per other init field.

    A field without a default is a required key, and an omitted optional key
    takes the class default. ``int`` fields parse as integers and all others
    as finite floats. The constructor's ValidationError is reported under ``sec``.
    """
    values = dict(given)
    for f in fields(cls):
        if f.init and f.name not in given:
            parse = _parse_int if f.type in (int, "int") else _parse_float
            values[f.name] = sec.take(f.name, parse, f.default)
    return sec.call(cls, **values)


def _build_family(table: dict, sec: _Section, **given):
    """The ``family`` key's class from ``table``, built by ``_build``; of ``given``
    only the values that class has a field for are passed."""
    family = sec.take("family")
    if family not in table:
        raise ScenarioError(
            f"[{sec.name}] unknown family {family!r}; available: {', '.join(table)}"
        )
    cls = table[family]
    names = {f.name for f in fields(cls) if f.init}
    return _build(cls, sec, **{k: v for k, v in given.items() if k in names})


def parse_scenario(path) -> Scenario:
    """Read and fully validate one scenario file."""
    path = Path(path)
    if not path.is_file():
        raise ScenarioError(f"no such scenario file: {path}")
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#",), strict=True, interpolation=None
    )
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    if parser.defaults():
        raise ScenarioError(f"{path}: a DEFAULT section is not allowed")

    sections = {name: _Section(name, dict(parser.items(name))) for name in parser.sections()}
    read: list[_Section] = []  # the sections handed out, in read order

    def section(name: str, required: bool = True) -> _Section:
        # A read section leaves the table; a missing optional one reads as empty.
        if name not in sections and required:
            raise ScenarioError(f"{path}: missing required section [{name}]")
        read.append(sections.pop(name) if name in sections else _Section(name, {}))
        return read[-1]

    head = section("scenario")
    version = head.take("schema_version", _parse_int)
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"{path}: schema_version {version} not supported (expected {SCHEMA_VERSION})"
        )
    name = head.take("name")
    if not _NAME_RE.match(name):
        raise ScenarioError(
            f"[scenario] name {name!r} must be filesystem-safe "
            "([A-Za-z0-9._-], at most 255 characters)"
        )
    kind_raw = head.take("kind")
    try:
        kind = ScenarioKind(kind_raw)
    except ValueError:
        allowed = ", ".join(k.value for k in ScenarioKind)
        raise ScenarioError(f"[scenario] unknown kind {kind_raw!r}; available: {allowed}")

    constants = _build(PhysicalConstants, section("constants", required=False))

    span_sec = section("span")
    tau0 = span_sec.take("tau0", _parse_float)
    tau1 = span_sec.take("tau1", _parse_float)
    if not tau1 > tau0:
        raise ScenarioError(f"[span] need tau1 > tau0, got ({tau0}, {tau1})")

    timemap = _build_family(_TIMEMAPS, section("timemap"), domain=(tau0, tau1))
    t_span = span_sec.call(check_span, "t_span", (timemap.value(tau0), timemap.value(tau1)))
    potential = _build_family(_POTENTIALS, section("potential"), mass=constants.mass)

    # The Scenario fields only this kind sets.
    parts = {}
    init_sec = section("initial_state")
    if kind is ScenarioKind.CLASSICAL_EQUIVALENCE:
        parts["classical_initial"] = (
            init_sec.take("x0", _parse_float),
            init_sec.take("p0", _parse_float),
        )
        num_sec = section("numerics")
        tol = num_sec.take("tol", _parse_float, DEFAULT_TOL)
        parts["integrator_tol"] = num_sec.call(check_tol, tol)
    else:
        grid = parts["grid"] = _build(SpatialGrid, section("grid"))
        g = parts["gaussian"] = _build(GaussianSpec, init_sec)
        # Build once now so support/normalization problems fail at parse time.
        init_sec.call(prepare_gaussian, grid, g.center, g.width, g.momentum, constants)
        num_sec = section("numerics")
        given = {}
        if kind is ScenarioKind.CONVERGENCE_SWEEP:
            raw = num_sec.take("dts")
            dts = tuple(
                _parse_float(tok.strip(), "[numerics] dts") for tok in raw.split(",") if tok.strip()
            )
            if len(dts) < 3:
                raise ScenarioError(f"[numerics] a sweep needs >= 3 dt values, got {len(dts)}")
            if any(b >= a for a, b in zip(dts, dts[1:])):
                raise ScenarioError("[numerics] dts must be strictly decreasing")
            # Validate the shared stepping knobs against the finest step.
            parts["sweep_dts"], given["dt"] = dts, dts[-1]
        propagator = parts["propagator"] = _build(PropagatorConfig, num_sec, **given)
        # The uniform ladders a run plans before it steps, tau first, at the finest dt.
        for span in ((tau0, tau1), t_span):
            num_sec.call(check_step_count, *span, propagator.dt)

    tol_sec = section("tolerances", required=False)
    # Only the kind's own keys are read, in CHECKS order; any other is left over.
    tolerances = tuple(
        (key, tol_sec.take(key, _parse_float, bound)) for key, _, _, bound in CHECKS[kind]
    )

    # What the kind never reads is reported last: leftover keys, then sections.
    for sec in read:
        if sec.data:
            raise ScenarioError(f"[{sec.name}] unknown key(s): {', '.join(sorted(sec.data))}")
    if sections:
        raise ScenarioError(
            f"{path}: unexpected section(s) for kind {kind.value}: "
            f"{', '.join('[' + s + ']' for s in sorted(sections))}"
        )
    return Scenario(
        name=name,
        kind=kind,
        constants=constants,
        timemap=timemap,
        potential=potential,
        tau_span=(tau0, tau1),
        t_span=t_span,
        tolerances=tolerances,
        **parts,
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
