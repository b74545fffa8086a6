"""Scenario files: sectioned key-value descriptions of one experiment each.

A scenario is a plain-text INI-style file with a mandatory schema version.
Parsing is strict: unknown sections or keys are errors, every embedded
object (clock map, potential, grid, initial state) is constructed and
validated immediately, and the derived t-interval is computed from the
declared map, so an invalid scenario never reaches the runner.

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
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import ScenarioError, ValidationError
from .model import (
    DrivenHarmonicPotential,
    FreePotential,
    HarmonicPotential,
    IdentityMap,
    LinearMap,
    MovingWellPotential,
    PhysicalConstants,
    PotentialSpec,
    SinePerturbedMap,
    SmoothRampMap,
    SpatialGrid,
    TimeMap,
    prepare_gaussian,
)
from .quantum import PropagatorConfig

SCHEMA_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


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


@dataclass(frozen=True)
class Tolerances:
    """Per-scenario acceptance thresholds; None falls back to kind defaults."""

    min_fidelity: float | None = None
    max_energy_transform_residual: float | None = None
    max_trajectory_error: float | None = None
    order_min: float | None = None
    order_max: float | None = None


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "reports"
    formats: tuple[str, ...] = ("csv",)


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
    grid: SpatialGrid | None = None
    gaussian: GaussianSpec | None = None
    classical_initial: tuple[float, float] | None = None
    propagator: PropagatorConfig | None = None
    sweep_dts: tuple[float, ...] | None = None
    integrator_tol: float | None = None
    tolerances: Tolerances = field(default_factory=Tolerances)
    outputs: OutputSpec = field(default_factory=OutputSpec)


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
        self.seen: set[str] = set()

    def take(self, key: str, default=None, required: bool = False) -> str | None:
        self.seen.add(key)
        if key in self.data:
            return self.data[key]
        if required:
            raise ScenarioError(f"[{self.name}] missing required key {key!r}")
        return default

    def take_float(self, key: str, default=None, required: bool = False):
        raw = self.take(key, required=required)
        if raw is None:
            return default
        return _parse_float(raw, f"[{self.name}] {key}")

    def take_int(self, key: str, default=None, required: bool = False):
        raw = self.take(key, required=required)
        if raw is None:
            return default
        return _parse_int(raw, f"[{self.name}] {key}")

    def finish(self):
        unknown = sorted(set(self.data) - self.seen)
        if unknown:
            raise ScenarioError(
                f"[{self.name}] unknown key(s): {', '.join(unknown)}"
            )


_TIMEMAP_FAMILIES = ("identity", "linear", "sine_perturbed", "smooth_ramp")
_POTENTIAL_FAMILIES = ("free", "harmonic", "driven_harmonic", "moving_well")


def _build_timemap(sec: _Section, domain: tuple[float, float]) -> TimeMap:
    family = sec.take("family", required=True)
    try:
        if family == "identity":
            return IdentityMap(domain=domain)
        if family == "linear":
            return LinearMap(alpha=sec.take_float("alpha", required=True), domain=domain)
        if family == "sine_perturbed":
            return SinePerturbedMap(
                amplitude=sec.take_float("amplitude", required=True),
                frequency=sec.take_float("frequency", required=True),
                domain=domain,
            )
        if family == "smooth_ramp":
            return SmoothRampMap(
                rate_start=sec.take_float("rate_start", required=True),
                rate_end=sec.take_float("rate_end", required=True),
                center=sec.take_float("center", required=True),
                sharpness=sec.take_float("sharpness", required=True),
                domain=domain,
            )
    except ValidationError as exc:
        raise ScenarioError(f"[timemap] {exc}") from exc
    raise ScenarioError(
        f"[timemap] unknown family {family!r}; available: {', '.join(_TIMEMAP_FAMILIES)}"
    )


def _build_potential(sec: _Section, constants: PhysicalConstants) -> PotentialSpec:
    family = sec.take("family", required=True)
    try:
        if family == "free":
            return FreePotential()
        if family == "harmonic":
            return HarmonicPotential(
                omega=sec.take_float("omega", default=1.0), mass=constants.mass
            )
        if family == "driven_harmonic":
            return DrivenHarmonicPotential(
                omega0=sec.take_float("omega0", default=1.0),
                ramp=sec.take_float("ramp", default=0.0),
                mass=constants.mass,
            )
        if family == "moving_well":
            return MovingWellPotential(
                center0=sec.take_float("center0", default=0.0),
                velocity=sec.take_float("velocity", default=0.0),
                stiffness=sec.take_float("stiffness", default=1.0),
            )
    except ValidationError as exc:
        raise ScenarioError(f"[potential] {exc}") from exc
    raise ScenarioError(
        f"[potential] unknown family {family!r}; available: {', '.join(_POTENTIAL_FAMILIES)}"
    )


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

    def section(name: str, required: bool = True) -> _Section | None:
        if name in sections:
            return sections[name]
        if required:
            raise ScenarioError(f"{path}: missing required section [{name}]")
        return None

    head = section("scenario")
    version = head.take_int("schema_version", required=True)
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"{path}: schema_version {version} not supported (expected {SCHEMA_VERSION})"
        )
    name = head.take("name", required=True)
    if not _NAME_RE.match(name):
        raise ScenarioError(
            f"[scenario] name {name!r} must be filesystem-safe ([A-Za-z0-9._-])"
        )
    kind_raw = head.take("kind", required=True)
    try:
        kind = ScenarioKind(kind_raw)
    except ValueError:
        allowed = ", ".join(k.value for k in ScenarioKind)
        raise ScenarioError(f"[scenario] unknown kind {kind_raw!r}; available: {allowed}")
    head.finish()

    quantum = kind in (ScenarioKind.QUANTUM_COVARIANCE, ScenarioKind.CONVERGENCE_SWEEP)
    expected = {"scenario", "span", "timemap", "potential", "initial_state", "numerics"}
    optional = {"constants", "tolerances", "outputs"}
    if quantum:
        expected.add("grid")
    unexpected = sorted(set(sections) - expected - optional)
    if unexpected:
        raise ScenarioError(
            f"{path}: unexpected section(s) for kind {kind.value}: "
            f"{', '.join('[' + s + ']' for s in unexpected)}"
        )

    cst_sec = section("constants", required=False)
    if cst_sec is None:
        constants = PhysicalConstants()
    else:
        try:
            constants = PhysicalConstants(
                hbar=cst_sec.take_float("hbar", default=1.0),
                mass=cst_sec.take_float("mass", default=1.0),
            )
        except ValidationError as exc:
            raise ScenarioError(f"[constants] {exc}") from exc
        cst_sec.finish()

    span_sec = section("span")
    tau0 = span_sec.take_float("tau0", required=True)
    tau1 = span_sec.take_float("tau1", required=True)
    span_sec.finish()
    if not tau1 > tau0:
        raise ScenarioError(f"[span] need tau1 > tau0, got ({tau0}, {tau1})")

    map_sec = section("timemap")
    timemap = _build_timemap(map_sec, (tau0, tau1))
    map_sec.finish()
    t_span = (float(timemap.value(tau0)), float(timemap.value(tau1)))

    pot_sec = section("potential")
    potential = _build_potential(pot_sec, constants)
    pot_sec.finish()

    grid = None
    gaussian = None
    classical_initial = None
    init_sec = section("initial_state")
    if quantum:
        grid_sec = section("grid")
        try:
            grid = SpatialGrid(
                x_min=grid_sec.take_float("x_min", required=True),
                x_max=grid_sec.take_float("x_max", required=True),
                n_points=grid_sec.take_int("n_points", required=True),
            )
        except ValidationError as exc:
            raise ScenarioError(f"[grid] {exc}") from exc
        grid_sec.finish()
        gaussian = GaussianSpec(
            center=init_sec.take_float("center", required=True),
            width=init_sec.take_float("width", required=True),
            momentum=init_sec.take_float("momentum", default=0.0),
        )
        try:
            # Build once now so support/normalization problems fail at parse time.
            prepare_gaussian(grid, gaussian.center, gaussian.width, gaussian.momentum, constants)
        except ValidationError as exc:
            raise ScenarioError(f"[initial_state] {exc}") from exc
    else:
        classical_initial = (
            init_sec.take_float("x0", required=True),
            init_sec.take_float("p0", required=True),
        )
    init_sec.finish()

    propagator = None
    sweep_dts = None
    integrator_tol = None
    num_sec = section("numerics")
    if kind is ScenarioKind.QUANTUM_COVARIANCE:
        propagator = _propagator_from(num_sec, dt=num_sec.take_float("dt", required=True))
    elif kind is ScenarioKind.CONVERGENCE_SWEEP:
        raw = num_sec.take("dts", required=True)
        dts = tuple(
            _parse_float(tok.strip(), "[numerics] dts") for tok in raw.split(",") if tok.strip()
        )
        if len(dts) < 3:
            raise ScenarioError(f"[numerics] a sweep needs >= 3 dt values, got {len(dts)}")
        if any(b >= a for a, b in zip(dts, dts[1:])):
            raise ScenarioError("[numerics] dts must be strictly decreasing")
        sweep_dts = dts
        # Validate the shared stepping knobs against the finest step.
        propagator = _propagator_from(num_sec, dt=dts[-1])
    else:
        integrator_tol = num_sec.take_float("tol", default=1e-9)
        if not integrator_tol > 0:
            raise ScenarioError(f"[numerics] tol must be positive, got {integrator_tol}")
    num_sec.finish()

    tol_sec = section("tolerances", required=False)
    if tol_sec is None:
        tolerances = Tolerances()
    else:
        if quantum:
            tolerances = Tolerances(
                min_fidelity=tol_sec.take_float("min_fidelity"),
                max_energy_transform_residual=tol_sec.take_float(
                    "max_energy_transform_residual"
                ),
                order_min=tol_sec.take_float("order_min"),
                order_max=tol_sec.take_float("order_max"),
            )
        else:
            tolerances = Tolerances(max_trajectory_error=tol_sec.take_float("max_error"))
        tol_sec.finish()

    out_sec = section("outputs", required=False)
    if out_sec is None:
        outputs = OutputSpec()
    else:
        directory = out_sec.take("directory", default="reports")
        fmt_raw = out_sec.take("formats", default="csv")
        formats = tuple(tok.strip() for tok in fmt_raw.split(",") if tok.strip())
        bad = [f for f in formats if f not in ("csv", "json")]
        if bad or not formats:
            raise ScenarioError(
                f"[outputs] formats must be a comma list drawn from csv, json; got {fmt_raw!r}"
            )
        outputs = OutputSpec(directory=directory, formats=formats)
        out_sec.finish()

    return Scenario(
        name=name,
        kind=kind,
        constants=constants,
        timemap=timemap,
        potential=potential,
        tau_span=(tau0, tau1),
        t_span=t_span,
        grid=grid,
        gaussian=gaussian,
        classical_initial=classical_initial,
        propagator=propagator,
        sweep_dts=sweep_dts,
        integrator_tol=integrator_tol,
        tolerances=tolerances,
        outputs=outputs,
    )


def _propagator_from(num_sec: _Section, dt: float) -> PropagatorConfig:
    try:
        return PropagatorConfig(
            dt=dt,
            record_every=num_sec.take_int("record_every", default=1),
            edge_guard=num_sec.take_float("edge_guard", default=0.1),
        )
    except ValidationError as exc:
        raise ScenarioError(f"[numerics] {exc}") from exc
