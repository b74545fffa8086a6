"""Classical mechanics in both clocks: Lagrangians, momenta, constraint, orbits.

For a particle with Lagrangian L = m xdot^2 / 2 - V(t, x), promoting the
clock to a coordinate T(tau) gives the degree-one homogeneous Lagrangian

    Ltilde(T, xi, T', xi') = m xi'^2 / (2 T') - T' V(T, xi)

whose momenta obey the identity T' pi_T + Htilde = 0 with Htilde = T' H.
The checks in this module verify those identities numerically (the Euler
scaling relation by finite differences, the constraint by closed forms),
and the integrators produce matched orbits in either clock so that
xi(tau) = x(T(tau)) can be tested directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    ClockDomainError,
    CoverageError,
    IntegrationError,
    ValidationError,
)
from .model import ClockKind, PhysicalConstants, PotentialSpec, TimeMap

# Finite-difference step for the homogeneity check; chosen so truncation
# (~h^2) sits well below the 1e-7 test threshold.
HOMOGENEITY_FD_STEP = 1e-5

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class LagrangianPoint:
    """Arguments (T, xi, T', xi') of the homogeneous Lagrangian."""

    T: float
    xi: float
    Tprime: float
    xiprime: float

    def __post_init__(self):
        vals = (self.T, self.xi, self.Tprime, self.xiprime)
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError(f"LagrangianPoint fields must be finite, got {vals}")
        if not self.Tprime > 0:
            raise ClockDomainError(
                f"Tprime must be positive (monotone clock), got {self.Tprime}; "
                f"the homogeneous Lagrangian is singular at T' = 0"
            )


@dataclass(frozen=True)
class Trajectory:
    """An integrated orbit: strictly increasing clock samples of (q, pm).

    ``pm`` is the momentum conjugate to q in the trajectory's own clock:
    p = m dx/dt for conventional runs, pi = m xi' / T' for relabeled ones.
    A dense interpolant over the full span is kept so another trajectory
    can be compared against this one between samples.
    """

    clock_kind: ClockKind
    clocks: np.ndarray
    q: np.ndarray
    pm: np.ndarray
    timemap: TimeMap | None = None
    dense: Callable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        clocks = np.asarray(self.clocks, dtype=float)
        q = np.asarray(self.q, dtype=float)
        pm = np.asarray(self.pm, dtype=float)
        if not (clocks.shape == q.shape == pm.shape) or clocks.ndim != 1 or clocks.size < 2:
            raise ValidationError("trajectory needs matching 1D clock/q/pm arrays (>= 2 samples)")
        if np.any(np.diff(clocks) <= 0):
            raise ValidationError("trajectory clock values must be strictly increasing")
        if (self.timemap is not None) != (self.clock_kind is ClockKind.PARAMETER_TAU):
            raise ValidationError("timemap must be attached exactly for relabeled trajectories")
        for name, arr in (("clocks", clocks), ("q", q), ("pm", pm)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def t_values(self) -> np.ndarray:
        """Conventional-clock readings of the samples (T(tau) for tau runs)."""
        if self.timemap is None:
            return self.clocks
        return np.array([float(self.timemap.value(c)) for c in self.clocks])

    def samples(self):
        """The (clock, q, pm) triples in order."""
        return list(zip(self.clocks.tolist(), self.q.tolist(), self.pm.tolist()))


def lagrangian_t(
    pot: PotentialSpec, constants: PhysicalConstants, t: float, x: float, xdot: float
) -> float:
    """L(t, x, xdot) = m xdot^2 / 2 - V(t, x)."""
    return 0.5 * constants.mass * xdot * xdot - float(pot.value(t, x))


def homogeneous_lagrangian(
    pot: PotentialSpec, constants: PhysicalConstants, pt: LagrangianPoint
) -> float:
    """Ltilde(T, xi, T', xi') = T' * L(T, xi, xi'/T') = m xi'^2/(2T') - T' V(T, xi).

    Computed literally as T' times the conventional Lagrangian at the
    velocity xi'/T', so the gauge T' = 1 reproduces lagrangian_t exactly.
    """
    return pt.Tprime * lagrangian_t(pot, constants, pt.T, pt.xi, pt.xiprime / pt.Tprime)


def momenta_tau(
    pot: PotentialSpec, constants: PhysicalConstants, pt: LagrangianPoint
) -> tuple[float, float]:
    """Conjugate momenta of the homogeneous Lagrangian, in closed form.

    pi   = dLtilde/dxi' = m xi' / T'
    pi_T = dLtilde/dT'  = -m xi'^2 / (2 T'^2) - V(T, xi)
    """
    m = constants.mass
    pi = m * pt.xiprime / pt.Tprime
    pi_t = -m * pt.xiprime**2 / (2.0 * pt.Tprime**2) - float(pot.value(pt.T, pt.xi))
    return pi, pi_t


def hamiltonian_t(
    pot: PotentialSpec, constants: PhysicalConstants, t: float, x: float, p: float
) -> float:
    """H(t, x, p) = p^2 / (2m) + V(t, x)."""
    return p * p / (2.0 * constants.mass) + float(pot.value(t, x))


def hamiltonian_tau(
    pot: PotentialSpec,
    constants: PhysicalConstants,
    timemap: TimeMap,
    tau: float,
    xi: float,
    pi: float,
) -> float:
    """Htilde = T'(tau) * H(T(tau), xi, pi): the generator of tau-evolution."""
    timemap.require(tau)
    t = float(timemap.value(tau))
    rate = float(timemap.rate(tau))
    return rate * hamiltonian_t(pot, constants, t, xi, pi)


def check_euler_homogeneity(
    pot: PotentialSpec,
    constants: PhysicalConstants,
    pt: LagrangianPoint,
    h: float = HOMOGENEITY_FD_STEP,
) -> float:
    """Residual of the degree-one scaling relation T' dL/dT' + xi' dL/dxi' - L.

    The partials are central finite differences with step ``h``; the true
    value is identically zero, so the return is pure truncation (~h^2 from
    the 1/T' kinetic factor), -m xi'^2 h^2 / (2 T' (T'^2 - h^2)) exactly.
    The stencil is evaluated in exact rational arithmetic on the double
    inputs and rounded once at the end, so the h^2 scaling stays visible
    at every step and the result is the same on every platform.
    """
    if not (math.isfinite(h) and 0 < h < pt.Tprime):
        raise ValidationError(f"finite-difference step must satisfy 0 < h < Tprime, got {h}")

    m = Fraction(float(constants.mass))
    tp = Fraction(float(pt.Tprime))
    xip = Fraction(float(pt.xiprime))
    hh = Fraction(float(h))
    # V enters Ltilde only through the exactly-linear term -T'V, so a single
    # double-precision evaluation cancels identically between stencil points.
    v = Fraction(float(pot.value(pt.T, pt.xi)))

    def ltilde(tp_val, xip_val):
        return m * xip_val * xip_val / (2 * tp_val) - tp_val * v

    d_tp = (ltilde(tp + hh, xip) - ltilde(tp - hh, xip)) / (2 * hh)
    d_xip = (ltilde(tp, xip + hh) - ltilde(tp, xip - hh)) / (2 * hh)
    residual = tp * d_tp + xip * d_xip - ltilde(tp, xip)
    return float(residual)


def check_constraint(
    pot: PotentialSpec,
    constants: PhysicalConstants,
    timemap: TimeMap,
    tau: float,
    xi: float,
    xiprime: float,
) -> float:
    """Residual of the momentum identity T' pi_T + Htilde = 0.

    Both sides are evaluated in closed form, so the residual is accumulated
    rounding only; it vanishes identically in exact arithmetic.
    """
    timemap.require(tau)
    t = float(timemap.value(tau))
    rate = float(timemap.rate(tau))
    pt = LagrangianPoint(T=t, xi=xi, Tprime=rate, xiprime=xiprime)
    pi, pi_t = momenta_tau(pot, constants, pt)
    htilde = rate * hamiltonian_t(pot, constants, t, xi, pi)
    return rate * pi_t + htilde


def _solve(rhs, span, y0, tol) -> "solve_ivp":
    sol = solve_ivp(
        rhs,
        span,
        y0,
        method="DOP853",
        rtol=tol,
        atol=tol,
        dense_output=True,
    )
    if not sol.success:
        raise IntegrationError(f"integration failed: {sol.message}")
    return sol


def integrate_t(
    pot: PotentialSpec,
    constants: PhysicalConstants,
    x0: float,
    p0: float,
    t_span: tuple[float, float],
    tol: float = DEFAULT_TOL,
) -> Trajectory:
    """Integrate xdot = p/m, pdot = -dV/dx with an adaptive high-order RK scheme."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"tol must be positive, got {tol}")
    a, b = float(t_span[0]), float(t_span[1])
    if not b > a:
        raise ValidationError(f"t_span must be increasing, got ({a}, {b})")
    m = constants.mass

    def rhs(t, y):
        x, p = y
        return (p / m, -float(pot.gradient_x(t, x)))

    sol = _solve(rhs, (a, b), (float(x0), float(p0)), tol)
    return Trajectory(
        clock_kind=ClockKind.CONVENTIONAL_T,
        clocks=sol.t,
        q=sol.y[0],
        pm=sol.y[1],
        dense=sol.sol,
    )


def integrate_tau(
    pot: PotentialSpec,
    constants: PhysicalConstants,
    timemap: TimeMap,
    xi0: float,
    pi0: float,
    tau_span: tuple[float, float],
    tol: float = DEFAULT_TOL,
) -> Trajectory:
    """Integrate Hamilton's equations of Htilde = T'H in the relabeled clock.

    xi' = T'(tau) pi / m,   pi' = -T'(tau) dV/dx(T(tau), xi)
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"tol must be positive, got {tol}")
    a, b = float(tau_span[0]), float(tau_span[1])
    if not b > a:
        raise ValidationError(f"tau_span must be increasing, got ({a}, {b})")
    timemap.require(a, b)
    m = constants.mass

    def rhs(tau, y):
        xi, pi = y
        rate = float(timemap.rate(tau))
        t = float(timemap.value(tau))
        return (rate * pi / m, -rate * float(pot.gradient_x(t, xi)))

    sol = _solve(rhs, (a, b), (float(xi0), float(pi0)), tol)
    return Trajectory(
        clock_kind=ClockKind.PARAMETER_TAU,
        clocks=sol.t,
        q=sol.y[0],
        pm=sol.y[1],
        timemap=timemap,
        dense=sol.sol,
    )


def trajectory_equivalence(
    traj_t: Trajectory, traj_tau: Trajectory, timemap: TimeMap
) -> float:
    """max over tau-samples of |xi(tau) - x(T(tau))|.

    The conventional trajectory is read at T(tau) through its dense
    interpolant, so the comparison is not limited to coincident sample
    points. traj_t must cover the mapped span [T(tau0), T(tau1)].
    """
    if traj_t.clock_kind is not ClockKind.CONVENTIONAL_T:
        raise ValidationError("traj_t must be a conventional-clock trajectory")
    if traj_tau.clock_kind is not ClockKind.PARAMETER_TAU:
        raise ValidationError("traj_tau must be a relabeled-clock trajectory")
    if traj_t.dense is None:
        raise ValidationError("traj_t carries no dense interpolant")
    t_marks = np.array([float(timemap.value(tau)) for tau in traj_tau.clocks])
    lo, hi = traj_t.clocks[0], traj_t.clocks[-1]
    slack = 1e-9 * max(1.0, abs(lo), abs(hi))
    if t_marks[0] < lo - slack or t_marks[-1] > hi + slack:
        raise CoverageError(
            f"conventional run [{lo:g}, {hi:g}] does not cover the mapped span "
            f"[{t_marks[0]:g}, {t_marks[-1]:g}]"
        )
    x_at = traj_t.dense(np.clip(t_marks, lo, hi))[0]
    return float(np.max(np.abs(traj_tau.q - x_at)))
