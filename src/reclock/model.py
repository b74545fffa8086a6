"""Shared domain types: clock maps, potentials, grids, states, constants.

Everything in this module is immutable after construction and evaluates as a
pure function, so instances can be shared freely between threads and between
the classical and quantum layers.

A time map is a monotone relabeling t = T(tau) of the evolution clock with a
strictly positive rate dT/dtau. Monotonicity is enforced at construction
(analytically where the family allows it, by dense rate sampling otherwise),
never at evaluation time.
"""

from __future__ import annotations

import abc
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ClockDomainError, ValidationError

# Dense monotonicity check: sample count and the smallest admissible rate.
MONOTONE_SAMPLES = 10_000
MONOTONE_MARGIN = 1e-6

# A prepared Gaussian must keep this many widths of clearance inside the box.
GAUSSIAN_SUPPORT_WIDTHS = 8.0


class ClockKind(Enum):
    """Which clock a state or trajectory is stamped with."""

    CONVENTIONAL_T = "t"
    PARAMETER_TAU = "tau"


@dataclass(frozen=True)
class PhysicalConstants:
    """Action scale and particle mass, dimensionless by default."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValidationError(f"hbar must be finite and positive, got {self.hbar}")
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ValidationError(f"mass must be finite and positive, got {self.mass}")


def _check_domain_field(domain) -> tuple[float, float]:
    try:
        lo, hi = float(domain[0]), float(domain[1])
    except (TypeError, IndexError) as exc:
        raise ValidationError(f"domain must be a (tau0, tau1) pair, got {domain!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValidationError(f"domain must be a finite interval with tau0 < tau1, got {domain!r}")
    return lo, hi


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
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        return (lo - slack) <= tau <= (hi + slack)

    def require(self, *taus: float) -> None:
        """Raise ClockDomainError for the first tau outside the domain."""
        for tau in taus:
            if not self.contains(tau):
                raise ClockDomainError(
                    f"tau = {tau} outside the domain {self.domain} of {type(self).__name__}"
                )

    def _dense_rate_check(self):
        # Generic fallback for families without an everywhere-analytic bound:
        # sample the rate densely and require a positive margin.
        lo, hi = self.domain
        taus = np.linspace(lo, hi, MONOTONE_SAMPLES)
        rates = np.asarray(self.rate(taus), dtype=float)
        worst = float(rates.min())
        if not worst >= MONOTONE_MARGIN:
            raise ValidationError(
                f"{type(self).__name__} is not monotone on {self.domain}: "
                f"min clock rate {worst:.3e} violates dT/dtau > 0"
            )


@dataclass(frozen=True)
class LinearMap(TimeMap):
    """T(tau) = tau / alpha: the relabeled clock runs faster when alpha > 1."""

    alpha: float
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "domain", _check_domain_field(self.domain))
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValidationError(
                f"alpha must be finite and positive so the clock rate dT/dtau = 1/alpha "
                f"stays positive (monotone clock); got {self.alpha}"
            )

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

    Monotone iff |amplitude * frequency| < 1, checked analytically and then
    confirmed by dense rate sampling.
    """

    amplitude: float
    frequency: float
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "domain", _check_domain_field(self.domain))
        if not (math.isfinite(self.amplitude) and math.isfinite(self.frequency)):
            raise ValidationError("amplitude and frequency must be finite")
        if not abs(self.amplitude * self.frequency) < 1.0:
            raise ValidationError(
                f"|amplitude*frequency| = {abs(self.amplitude * self.frequency):.3g} >= 1 "
                f"would let the clock rate dT/dtau touch zero (monotonicity violated)"
            )
        self._dense_rate_check()

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
        object.__setattr__(self, "domain", _check_domain_field(self.domain))
        for name in ("rate_start", "rate_end", "center", "sharpness"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.rate_start <= 0 or self.rate_end <= 0:
            raise ValidationError(
                "rate_start and rate_end must be positive: the clock rate dT/dtau "
                "interpolates between them and must stay positive"
            )
        if self.sharpness <= 0:
            raise ValidationError("sharpness must be positive")
        self._dense_rate_check()

    @staticmethod
    def _softplus(z):
        return np.logaddexp(0.0, z)

    def value(self, tau):
        lo = self.domain[0]
        s = self.sharpness
        ramp = self._softplus((tau - self.center) / s) - self._softplus((lo - self.center) / s)
        return lo + self.rate_start * (tau - lo) + (self.rate_end - self.rate_start) * s * ramp

    def rate(self, tau):
        # Far before a sharp ramp exp overflows to inf, and sig = 0.0 is the
        # exact limit, so the overflow is expected and silenced.
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-(tau - self.center) / self.sharpness))
        return self.rate_start + (self.rate_end - self.rate_start) * sig


def eval_timemap(timemap: TimeMap, tau: float) -> tuple[float, float]:
    """Evaluate (T(tau), dT/dtau) for a clock value inside the map's domain."""
    timemap.require(tau)
    return float(timemap.value(tau)), float(timemap.rate(tau))


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
        if not (math.isfinite(self.omega) and math.isfinite(self.mass) and self.mass > 0):
            raise ValidationError("omega must be finite and mass finite positive")

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
        ok = all(math.isfinite(v) for v in (self.omega0, self.ramp, self.mass))
        if not ok or self.mass <= 0:
            raise ValidationError("omega0 and ramp must be finite, mass finite positive")

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
        ok = all(math.isfinite(v) for v in (self.center0, self.velocity, self.stiffness))
        if not ok or self.stiffness <= 0:
            raise ValidationError("center0 and velocity must be finite, stiffness positive")

    def _center(self, t):
        return self.center0 + self.velocity * t

    def value(self, t, x):
        d = x - self._center(t)
        return 0.5 * self.stiffness * d * d

    def gradient_x(self, t, x):
        return self.stiffness * (x - self._center(t))


def eval_potential(spec: PotentialSpec, t: float, x: float) -> float:
    """V(t, x) for finite scalar inputs."""
    if not (math.isfinite(t) and math.isfinite(x)):
        raise ValidationError(f"potential arguments must be finite, got t={t}, x={x}")
    return float(spec.value(t, x))


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform 1D grid on [x_min, x_max] with hard-wall (Dirichlet) edges."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValidationError("grid edges must be finite")
        if self.x_max <= self.x_min:
            raise ValidationError(f"need x_max > x_min, got [{self.x_min}, {self.x_max}]")
        n = self.n_points
        if not (isinstance(n, numbers.Real) and math.isfinite(n) and int(n) == n and n >= 8):
            raise ValidationError(f"n_points must be an integer >= 8, got {self.n_points}")
        object.__setattr__(self, "n_points", int(self.n_points))

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


@dataclass(frozen=True, eq=False)
class Wavefunction:
    """Complex amplitudes on a SpatialGrid, zero at both walls.

    The amplitude array is copied and frozen at construction; use
    ``with_amplitudes`` to derive a new state.
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
        a = self.amplitudes
        return math.sqrt(float(np.sum(a.real**2 + a.imag**2)) * self.grid.dx)

    def with_amplitudes(self, amplitudes: np.ndarray) -> "Wavefunction":
        return Wavefunction(self.grid, amplitudes)


def prepare_gaussian(
    grid: SpatialGrid,
    center: float,
    width: float,
    momentum: float = 0.0,
    constants: PhysicalConstants | None = None,
) -> Wavefunction:
    """Normalized Gaussian wavepacket exp(-(x-center)^2/(2 width^2) + i momentum x / hbar).

    The packet must fit with GAUSSIAN_SUPPORT_WIDTHS of clearance on both
    sides so the hard walls never see appreciable amplitude.
    """
    constants = constants or PhysicalConstants()
    if not (math.isfinite(width) and width > 0):
        raise ValidationError(f"width must be positive, got {width}")
    if not (math.isfinite(center) and math.isfinite(momentum)):
        raise ValidationError("center and momentum must be finite")
    reach = GAUSSIAN_SUPPORT_WIDTHS * width
    if center - reach < grid.x_min or center + reach > grid.x_max:
        raise ValidationError(
            f"Gaussian support [{center - reach:g}, {center + reach:g}] exceeds the box "
            f"[{grid.x_min:g}, {grid.x_max:g}]; the packet would touch the hard walls"
        )
    x = grid.points()
    amps = np.exp(-((x - center) ** 2) / (2.0 * width**2) + 1j * momentum * x / constants.hbar)
    amps[0] = 0.0
    amps[-1] = 0.0
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)) * grid.dx)
    return Wavefunction(grid, amps)
