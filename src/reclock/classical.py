"""Classical mechanics in both clocks: Lagrangians, momenta, constraint, orbits.

For a particle with Lagrangian L = m xdot^2 / 2 - V(t, x), promoting the
clock to a coordinate T(tau) gives the degree-one homogeneous Lagrangian

    Ltilde(T, xi, T', xi') = m xi'^2 / (2 T') - T' V(T, xi)

whose momenta obey the identity T' pi_T + Htilde = 0 with Htilde = T' H.
The checks in this module verify those identities numerically (the Euler
scaling relation by finite differences, the constraint by closed forms),
and one integrator produces matched orbits in either clock so that
xi(tau) = x(T(tau)) can be tested directly; the conventional clock is the
gauge T(tau) = tau, T' = 1. An orbit whose force overflows stops with a
NumericalError naming its span and that clock, in either clock: a force
formed in NumPy scalars raises under the integrator's error state, and one
formed in Python floats (every clock of a tau run, and a t run's first) is
caught by the right-hand side's finite-force check.

The orbit tolerance's default, floor and check (DEFAULT_TOL, MIN_TOL,
check_tol) live in ``model``, so the scenario parser checks a file's tol
without loading this module; they are importable from here as before.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from . import dop853
from .errors import ClockDomainError, CoverageError, NumericalError, ValidationError
# MIN_TOL is imported only to stay importable from here (module docstring).
from .model import (
    DEFAULT_TOL,
    MIN_TOL,
    PhysicalConstants,
    PotentialSpec,
    TimeMap,
    check_real,
    check_span,
    check_tol,
    clock_reading,
    freeze_record,
    span_slack,
)

# Finite-difference step for the homogeneity check; chosen so truncation
# (~h^2) sits well below the 1e-7 test threshold.
HOMOGENEITY_FD_STEP = 1e-5

# The longest orbit in use (classical-orbits benchmark) makes ~25 400 right-hand-side
# evaluations, 40x below this cap. A runaway reaches it in 2.55-2.64 s at 45 MB peak
# RSS (classical-linear-alpha2 with tau1 = 1e9, `reclock run`, 2-vCPU Xeon, three
# runs); the run fails on its tau orbit, so its t orbit never starts.
MAX_RHS_EVALS = 10**6


@dataclass(frozen=True)
class LagrangianPoint:
    """Arguments (T, xi, T', xi') of the homogeneous Lagrangian."""

    T: float
    xi: float
    Tprime: float
    xiprime: float

    def __post_init__(self):
        for name in ("T", "xi", "Tprime", "xiprime"):
            check_real(f"LagrangianPoint.{name}", getattr(self, name))
        if not self.Tprime > 0:
            raise ClockDomainError(
                f"Tprime must be positive (monotone clock), got {self.Tprime}; "
                f"the homogeneous Lagrangian is singular at T' = 0"
            )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """An integrated orbit: strictly increasing clock samples of (q, pm).

    ``pm`` is the momentum conjugate to q in the trajectory's own clock:
    p = m dx/dt for conventional runs, pi = m xi' / T' for relabeled ones.
    ``t`` holds the conventional-clock reading of each sample, read once at
    construction: T(clock) for a relabeled run, the clock itself otherwise.
    ``timemap`` is None exactly for a conventional-clock run. Such a run
    keeps a dense interpolant over its full span in ``dense``, so a relabeled
    trajectory can be compared against it between samples; a relabeled run
    keeps none.
    """

    clocks: np.ndarray
    q: np.ndarray
    pm: np.ndarray
    timemap: TimeMap | None = None
    dense: Callable | None = field(default=None, repr=False)
    t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        freeze_record(self, ("clocks", "q", "pm"), 2)
        tmap = self.timemap
        t = self.clocks if tmap is None else [float(tmap.value(c)) for c in self.clocks]
        object.__setattr__(self, "t", t)
        freeze_record(self, ("clocks", "t"), 2)


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
    """H(t, x, p) = p^2 / (2m) + V(t, x) at a finite phase-space point."""
    t, x, p = check_real("t", t), check_real("x", x), check_real("p", p)
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
    rate, t = clock_reading(timemap, tau)
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
    if not 0 < check_real("finite-difference step h", h) < pt.Tprime:
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
    rate, t = clock_reading(timemap, tau)
    pt = LagrangianPoint(T=t, xi=xi, Tprime=rate, xiprime=xiprime)
    pi, pi_t = momenta_tau(pot, constants, pt)
    return rate * pi_t + hamiltonian_tau(pot, constants, timemap, tau, xi, pi)


def _integrate(
    pot: PotentialSpec,
    constants: PhysicalConstants,
    timemap: TimeMap | None,
    q0: float,
    p0: float,
    span: tuple[float, float],
    tol: float,
) -> Trajectory:
    """Integrate Hamilton's equations of Htilde = T'H with DOP853 (``dop853.integrate``).

    With no ``timemap`` the clock is t and the rate is 1.0; 1.0 * x and -1.0 * x
    are exact, so the derivatives are xdot = p/m, pdot = -dV/dx float for float.
    """
    tol = check_tol(tol)
    span_name = "t_span" if timemap is None else "tau_span"
    a, b = check_span(span_name, span)
    if timemap is not None:
        timemap.require(a, b)
    y0 = (check_real("initial position", q0), check_real("initial momentum", p0))
    m = constants.mass
    where = f"integration over {span_name} ({a:g}, {b:g}) failed"
    calls = itertools.count(1)

    def rhs(clock, y):
        if next(calls) > MAX_RHS_EVALS:
            raise NumericalError(f"{where}: over {MAX_RHS_EVALS} right-hand-side evaluations")
        q, p = y
        try:
            rate, t = clock_reading(timemap, clock)
            qdot, pdot = rate * p / m, -rate * float(pot.gradient_x(t, q))
        except FloatingPointError as exc:
            raise NumericalError(f"{where} at clock {clock:.6g}: {exc}") from exc
        # A force formed from Python floats (any clock of a tau run, the first
        # clock of a t run) overflows to inf or nan without raising.
        if not math.isfinite(pdot):
            raise NumericalError(f"{where} at clock {clock:.6g}: the force is {pdot}")
        return qdot, pdot

    # An overflow would otherwise pass as a warning and can leave the
    # step-size control shrinking the step without end; a step that does
    # shrink below the spacing of doubles is a FloatingPointError too.
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            clocks, y, dense = dop853.integrate(rhs, a, b, y0, tol, dense=timemap is None)
    except FloatingPointError as exc:
        raise NumericalError(f"{where}: {exc}") from exc
    return Trajectory(clocks, y[0], y[1], timemap=timemap, dense=dense)


def integrate_t(
    pot: PotentialSpec,
    constants: PhysicalConstants,
    x0: float,
    p0: float,
    t_span: tuple[float, float],
    tol: float = DEFAULT_TOL,
) -> Trajectory:
    """Integrate xdot = p/m, pdot = -dV/dx in the conventional clock."""
    return _integrate(pot, constants, None, x0, p0, t_span, tol)


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
    return _integrate(pot, constants, timemap, xi0, pi0, tau_span, tol)


def trajectory_equivalence(
    traj_t: Trajectory, traj_tau: Trajectory, timemap: TimeMap
) -> float:
    """max over tau-samples of |xi(tau) - x(T(tau))|.

    The conventional trajectory is read at each relabeled sample's own
    reading ``traj_tau.t`` through its dense interpolant, so the comparison
    is not limited to coincident sample points; no map is evaluated here.
    ``timemap`` must be the map traj_tau ran in, and traj_t must cover the
    mapped span [T(tau0), T(tau1)].
    """
    if traj_t.timemap is not None:
        raise ValidationError("traj_t must be a conventional-clock trajectory")
    if traj_tau.timemap is None:
        raise ValidationError("traj_tau must be a relabeled-clock trajectory")
    if timemap != traj_tau.timemap:
        raise ValidationError(f"traj_tau ran in {traj_tau.timemap}, not in {timemap}")
    if traj_t.dense is None:
        raise ValidationError("traj_t carries no dense interpolant")
    t_marks = traj_tau.t
    lo, hi = traj_t.clocks[0], traj_t.clocks[-1]
    slack = span_slack(lo, hi)
    if t_marks[0] < lo - slack or t_marks[-1] > hi + slack:
        raise CoverageError(
            f"conventional run [{lo:g}, {hi:g}] does not cover the mapped span "
            f"[{t_marks[0]:g}, {t_marks[-1]:g}]"
        )
    x_at = traj_t.dense(np.clip(t_marks, lo, hi))[0]
    return float(np.max(np.abs(traj_tau.q - x_at)))
