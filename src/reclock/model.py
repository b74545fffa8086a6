"""Shared domain types: clock maps, potentials, grids, states, constants.

Everything in this module is immutable after construction and evaluates as a
pure function, so instances can be shared freely between threads and between
the classical and quantum layers.

A time map is a monotone relabeling t = T(tau) of the evolution clock with a
strictly positive rate dT/dtau. Each family's construction ends in
``TimeMap._check_clock``, which checks the domain, an exact lower bound on
the rate and finite T' and T at both domain ends; nothing is checked at
evaluation time.
"""

from __future__ import annotations

import abc
import functools
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ClockDomainError, ValidationError

# The smallest rate a sine or ramp clock may reach on its domain.
MONOTONE_MARGIN = 1e-6

# A prepared Gaussian must keep this many widths of clearance inside the box.
GAUSSIAN_SUPPORT_WIDTHS = 8.0

# One complex state on a grid this size is 256 MiB, and a run holds several;
# the largest grid in use (the wide-grid benchmark's) has 16384 points.
MAX_POINTS = 2**24

# A quantum run's plan is arrays: 32 B per step plus 32 B per record. A
# covariance run builds its t plan while it holds its tau plan, and the t plan
# adds a step at each landing time. Traced with tracemalloc for a sine clock
# at 10**6 tau steps, the two plans keep ~82 B per tau step with a record
# every 10 steps and peak at ~106 B, and keep ~169 B with a record at every
# step and peak at ~176 B, so at this cap a covariance run's schedule stays
# near 1.1 GB, or 1.8 GB when every step records.
MAX_STEPS = 10**7

DEFAULT_TOL = 1e-9

# Below about 100 machine epsilons DOP853's local error estimate is itself
# rounding, so its error control means nothing there. check_tol, and so
# `reclock validate`, refuses a smaller tol rather than run a looser one; the
# floor is the one SciPy's DOP853 clamps rtol to, so the same files pass.
MIN_TOL = 100 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class PhysicalConstants:
    """Action scale and particle mass, dimensionless by default."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        check_real("hbar", self.hbar, positive=True)
        check_real("mass", self.mass, positive=True)


def check_real(name: str, value, positive: bool = False) -> float:
    """``value`` as a float if it is a finite real number (and > 0 if ``positive``).

    Anything else, including booleans, strings, None and integers too large
    for a double, raises a ValidationError that names the field.
    """
    try:
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        x = float(value) if number else math.nan
    except OverflowError:
        x = math.nan
    if not (math.isfinite(x) and (x > 0 or not positive)):
        what = "a finite positive" if positive else "a finite"
        raise ValidationError(f"{name} must be {what} real number, got {value!r}")
    return x


def freeze_record(record, columns, least: int, rows=(None, 0)) -> None:
    """Check a run record's ``columns``, its clock column first, and freeze each as a view.

    ``rows`` names the complex column of (samples, width) rows and its width, if
    there is one. Each column needs one entry, or row, per clock; the record
    needs at least ``least`` samples; its clocks must strictly increase. A
    frozen view leaves the caller's own array writeable.
    """
    k = np.size(getattr(record, columns[0]))
    for name in columns:
        row = name == rows[0]
        arr = np.asarray(getattr(record, name), dtype=complex if row else float).view()
        if arr.shape != ((k, rows[1]) if row else (k,)):
            raise ValidationError(
                f"a record needs one {'row' if row else 'entry'} per sample in {name}, "
                f"got shape {arr.shape} for {k} clocks"
            )
        arr.setflags(write=False)
        object.__setattr__(record, name, arr)
    if k < least:
        raise ValidationError(
            f"a record needs at least {'one sample' if least == 1 else f'{least} samples'}, got {k}"
        )
    if np.any(np.diff(getattr(record, columns[0])) <= 0):
        raise ValidationError(f"record {columns[0]} must be strictly increasing")


def span_slack(lo: float, hi: float) -> float:
    """How far past [lo, hi] a clock still counts as inside it, for rounding at the ends."""
    return 1e-9 * max(1.0, abs(lo), abs(hi))


def check_span(name: str, pair) -> tuple[float, float]:
    """``pair`` as finite floats (lo, hi) with lo < hi, else a ValidationError naming it."""
    try:
        lo, hi = pair
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a (start, end) pair, got {pair!r}") from exc
    lo, hi = check_real(f"{name} start", lo), check_real(f"{name} end", hi)
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ValidationError(f"{name} must be increasing with a finite length, got ({lo}, {hi})")
    return lo, hi


def check_count(name: str, value, least: int) -> int:
    """``value`` as an int if it is a whole number from ``least`` up to sys.maxsize."""
    # Comparisons between ints and floats are exact, so no overflow or NaN slips
    # through; bool is a numbers.Real, but a flag is not a count.
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    ok = number and least <= value <= sys.maxsize
    if not (ok and int(value) == value):
        raise ValidationError(f"{name} must be an integer >= {least}, got {value}")
    return int(value)


def check_step_count(a: float, b: float, dt: float) -> float:
    """The step count (b - a) / dt of a uniform ladder over (a, b), checked
    against MAX_STEPS before any ladder is allocated; inf and NaN fail."""
    count = (b - a) / dt
    if not count <= MAX_STEPS:
        raise ValidationError(
            f"dt = {dt!r} is too small for the span ({a}, {b}): {count:.10g} steps, "
            f"more than the {MAX_STEPS} a run may take"
        )
    return count


def check_tol(tol) -> float:
    """``tol`` as a float if it is a finite real number of at least MIN_TOL."""
    if not check_real("tol", tol) >= MIN_TOL:
        raise ValidationError(f"tol must be positive and at least {MIN_TOL!r}, got {tol!r}")
    return float(tol)


@dataclass(frozen=True)
class PropagatorConfig:
    """Stepping and recording knobs for one propagation run."""

    dt: float
    record_every: int = 1

    def __post_init__(self):
        check_real("dt", self.dt, positive=True)
        object.__setattr__(self, "record_every", check_count("record_every", self.record_every, 1))


class TimeMap(abc.ABC):
    """Monotone clock relabeling t = value(tau) with exact rate dT/dtau.

    Subclasses implement ``value`` and ``rate`` as numpy-friendly pure
    functions (scalar in, scalar out; arrays broadcast elementwise) and
    must guarantee rate > 0 everywhere on ``domain`` at construction.
    """

    domain: tuple[float, float]

    @abc.abstractmethod
    def value(self, tau):
        """T(tau)."""

    @abc.abstractmethod
    def rate(self, tau):
        """dT/dtau at tau."""

    def contains(self, tau: float) -> bool:
        lo, hi = self.domain
        slack = span_slack(lo, hi)
        return (lo - slack) <= tau <= (hi + slack)

    def require(self, *taus: float) -> None:
        """Raise ClockDomainError for the first tau outside the domain."""
        for tau in taus:
            if not self.contains(tau):
                raise ClockDomainError(
                    f"tau = {tau} outside the domain {self.domain} of {type(self).__name__}"
                )

    def _check_clock(self, floor: float | None = None, bound: str = ""):
        """Raise a ValidationError unless the domain is a finite increasing pair,
        ``floor``, the exact lower bound ``bound`` of the rate, clears MONOTONE_MARGIN,
        and T' and T, which a run reads, are finite at both ends. Every family ends
        its construction here, after checking its own parameters."""
        object.__setattr__(self, "domain", check_span("domain", self.domain))
        if floor is not None and not floor >= MONOTONE_MARGIN:
            raise ValidationError(
                f"the clock rate dT/dtau >= {bound} = {floor:.3g} can fall below "
                f"{MONOTONE_MARGIN:g} (monotonicity violated)"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            ends = tuple(clock_reading(self, tau) for tau in self.domain)
        if not all(math.isfinite(v) for reading in ends for v in reading):
            raise ValidationError(
                f"T' and T at the ends of the domain {self.domain} read {ends}, not finite doubles"
            )


@dataclass(frozen=True)
class LinearMap(TimeMap):
    """T(tau) = tau / alpha: the relabeled clock runs faster when alpha > 1."""

    alpha: float
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        check_real("alpha of the monotone clock T = tau/alpha", self.alpha, positive=True)
        self._check_clock()

    def value(self, tau):
        return tau / self.alpha

    def rate(self, tau):
        if isinstance(tau, np.ndarray):
            return np.full_like(tau, 1.0 / self.alpha, dtype=float)
        return 1.0 / self.alpha


@dataclass(frozen=True)
class IdentityMap(LinearMap):
    """The gauge choice T(tau) = tau: the alpha = 1 member of LinearMap.

    In IEEE arithmetic tau / 1.0 and 1.0 / 1.0 are exact, so the identity
    clock reproduces a conventional run float for float.
    """

    alpha: float = field(default=1.0, init=False)


@dataclass(frozen=True)
class SinePerturbedMap(TimeMap):
    """T(tau) = tau + amplitude * sin(frequency * tau).

    The rate 1 + amplitude * frequency * cos(frequency * tau) is never below
    1 - |amplitude * frequency|, which must clear MONOTONE_MARGIN.
    """

    amplitude: float
    frequency: float
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        slope = check_real("amplitude", self.amplitude) * check_real("frequency", self.frequency)
        self._check_clock(1.0 - abs(slope), "1 - |amplitude*frequency|")

    def value(self, tau):
        return tau + self.amplitude * np.sin(self.frequency * tau)

    def rate(self, tau):
        return 1.0 + self.amplitude * self.frequency * np.cos(self.frequency * tau)


@dataclass(frozen=True)
class SmoothRampMap(TimeMap):
    """A clock whose rate ramps smoothly from rate_start to rate_end.

    rate(tau) = rate_start + (rate_end - rate_start) * sigmoid((tau - center)/sharpness),
    integrated in closed form (softplus) and anchored so T(tau0) = tau0.
    """

    rate_start: float
    rate_end: float
    center: float
    sharpness: float
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        check_real("center", self.center)
        for name in ("rate_start", "rate_end", "sharpness"):
            check_real(name, getattr(self, name), positive=True)
        self._check_clock(min(self.rate_start, self.rate_end), "min(rate_start, rate_end)")

    @staticmethod
    def _softplus(z):
        return np.logaddexp(0.0, z)

    @functools.cached_property
    def _anchor(self):
        """The softplus at the domain's start, which anchors T(tau0) = tau0."""
        return self._softplus((self.domain[0] - self.center) / self.sharpness)

    def value(self, tau):
        lo = self.domain[0]
        s = self.sharpness
        ramp = self._softplus((tau - self.center) / s) - self._anchor
        return lo + self.rate_start * (tau - lo) + (self.rate_end - self.rate_start) * s * ramp

    def rate(self, tau):
        # Far before a sharp ramp exp overflows to inf, and sig = 0.0 is the
        # exact limit, so the overflow is expected and silenced. Entering the
        # error state costs more than the rest of a scalar call, so a float
        # whose exponent is below 700 (e^700 < DBL_MAX) skips it; its exponent
        # is taken in Python floats, which overflow to inf silently.
        if isinstance(tau, float) and (z := -(float(tau) - self.center) / self.sharpness) < 700:
            sig = 1.0 / (1.0 + np.exp(z))
        else:
            with np.errstate(over="ignore"):
                sig = 1.0 / (1.0 + np.exp(-(tau - self.center) / self.sharpness))
        rate = self.rate_start + (self.rate_end - self.rate_start) * sig
        # The exact rate never falls below the smaller end rate, but the sum
        # above can round a small end rate away next to a large start rate.
        # A float's rate is a NumPy scalar, which one comparison clamps
        # faster than np.maximum; like np.maximum, it keeps a nan.
        floor = min(self.rate_start, self.rate_end)
        if isinstance(tau, float):
            return np.float64(floor) if rate < floor else rate
        return np.maximum(rate, floor)


def clock_reading(timemap: TimeMap | None, clock: float) -> tuple[float, float]:
    """(rate, t) at a run's clock: (T'(clock), T(clock)), or (1.0, clock) with no map."""
    if timemap is None:
        return 1.0, clock
    return float(timemap.rate(clock)), float(timemap.value(clock))


class PotentialSpec(abc.ABC):
    """A time-dependent potential V(t, x) with its exact spatial derivative.

    ``value`` and ``gradient_x`` are pure and broadcast over numpy arrays in
    either argument; both must stay finite for finite inputs.
    """

    @abc.abstractmethod
    def value(self, t, x):
        """V(t, x)."""

    @abc.abstractmethod
    def gradient_x(self, t, x):
        """dV/dx at (t, x)."""


@dataclass(frozen=True)
class FreePotential(PotentialSpec):
    """V = 0 everywhere, exactly."""

    def value(self, t, x):
        return x * 0.0

    def gradient_x(self, t, x):
        return x * 0.0


@dataclass(frozen=True)
class HarmonicPotential(PotentialSpec):
    """Static well V = mass * omega^2 * x^2 / 2."""

    omega: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        check_real("omega", self.omega)
        check_real("mass", self.mass, positive=True)
        try:
            float(self.omega**2)
        except OverflowError as exc:
            raise ValidationError(f"omega**2 overflows for omega = {self.omega!r}") from exc

    def value(self, t, x):
        return 0.5 * self.mass * self.omega**2 * x * x

    def gradient_x(self, t, x):
        return self.mass * self.omega**2 * x


@dataclass(frozen=True)
class DrivenHarmonicPotential(PotentialSpec):
    """Well with an affine-in-time frequency: V = mass * (omega0 + ramp*t)^2 * x^2 / 2."""

    omega0: float = 1.0
    ramp: float = 0.0
    mass: float = 1.0

    def __post_init__(self):
        check_real("omega0", self.omega0)
        check_real("ramp", self.ramp)
        check_real("mass", self.mass, positive=True)

    def value(self, t, x):
        w = self.omega0 + self.ramp * t
        return 0.5 * self.mass * w * w * x * x

    def gradient_x(self, t, x):
        w = self.omega0 + self.ramp * t
        return self.mass * w * w * x


@dataclass(frozen=True)
class MovingWellPotential(PotentialSpec):
    """Quadratic well whose center drifts linearly: V = stiffness * (x - c(t))^2 / 2."""

    center0: float = 0.0
    velocity: float = 0.0
    stiffness: float = 1.0

    def __post_init__(self):
        check_real("center0", self.center0)
        check_real("velocity", self.velocity)
        check_real("stiffness", self.stiffness, positive=True)

    def _center(self, t):
        return self.center0 + self.velocity * t

    def value(self, t, x):
        d = x - self._center(t)
        return 0.5 * self.stiffness * d * d

    def gradient_x(self, t, x):
        return self.stiffness * (x - self._center(t))


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform 1D grid on [x_min, x_max] with hard-wall (Dirichlet) edges."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        hi, lo = check_real("x_max", self.x_max), check_real("x_min", self.x_min)
        n = check_count("n_points", self.n_points, 8)
        if n > MAX_POINTS:
            raise ValidationError(f"n_points = {n} is more than the {MAX_POINTS} a grid may hold")
        # A finite, ordered box can still have a spacing that underflows to 0.
        if not (hi > lo and math.isfinite(hi - lo) and (hi - lo) / (n - 1) > 0):
            raise ValidationError(
                f"need x_max > x_min, a finite width x_max - x_min and a nonzero "
                f"spacing dx over {n} points, got [{self.x_min}, {self.x_max}]"
            )
        object.__setattr__(self, "n_points", n)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


@dataclass(frozen=True, eq=False)
class Wavefunction:
    """Complex amplitudes on a SpatialGrid, zero at both walls.

    The amplitude array is copied and frozen at construction.
    """

    grid: SpatialGrid
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex, copy=True)
        if amps.shape != (self.grid.n_points,):
            raise ValidationError(
                f"amplitudes shape {amps.shape} does not match grid ({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise ValidationError("amplitudes must be finite (no NaN/Inf)")
        if amps[0] != 0 or amps[-1] != 0:
            raise ValidationError("hard-wall grid requires zero amplitude at both edges")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(row_norms(self.amplitudes, self.grid.dx))


def row_norms(amplitudes: np.ndarray, dx: float) -> np.ndarray:
    """sqrt(sum |a|^2 dx) along the last axis: one state's norm, or one per row."""
    a = amplitudes
    return np.sqrt(np.sum(a.real**2 + a.imag**2, axis=-1) * dx)


def prepare_gaussian(
    grid: SpatialGrid,
    center: float,
    width: float,
    momentum: float = 0.0,
    constants: PhysicalConstants | None = None,
) -> Wavefunction:
    """Normalized Gaussian wavepacket exp(-(x-center)^2/(2 width^2) + i momentum x / hbar).

    The packet must fit with GAUSSIAN_SUPPORT_WIDTHS of clearance on both
    sides so the hard walls never see appreciable amplitude, and its
    momentum must stay below the grid's Nyquist limit pi hbar / dx, beyond
    which the phase aliases.
    """
    constants = constants or PhysicalConstants()
    check_real("width", width, positive=True)
    check_real("center", center)
    nyquist = math.pi * constants.hbar / grid.dx
    if not abs(check_real("momentum", momentum)) < nyquist:
        raise ValidationError(
            f"momentum {momentum} is not below the grid's Nyquist limit "
            f"pi * hbar / dx = {nyquist:.6g}; the packet's phase would alias"
        )
    reach = GAUSSIAN_SUPPORT_WIDTHS * width
    if center - reach < grid.x_min or center + reach > grid.x_max:
        raise ValidationError(
            f"Gaussian support [{center - reach:g}, {center + reach:g}] exceeds the box "
            f"[{grid.x_min:g}, {grid.x_max:g}]; the packet would touch the hard walls"
        )
    x = grid.points()
    # A width far below the grid spacing overflows, divides by a zero width**2
    # or leaves no nonzero amplitude; the norm check rejects what results.
    # numpy's pow overflows to inf where Python's raises, and rounds the same.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        spread = 2.0 * np.float64(width) ** 2
        amps = np.exp(-((x - center) ** 2) / spread + 1j * momentum * x / constants.hbar)
    amps[0] = 0.0
    amps[-1] = 0.0
    norm2 = float(np.sum(np.abs(amps) ** 2)) * grid.dx
    if not 0.0 < norm2 < math.inf:
        raise ValidationError(
            f"width {width} is too narrow for the grid spacing dx = {grid.dx:.6g}: "
            f"the packet has no finite nonzero amplitude on the grid"
        )
    amps /= math.sqrt(norm2)
    return Wavefunction(grid, amps)
