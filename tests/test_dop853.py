"""The in-repo DOP853 against SciPy's own: the same floats and the same failure.

``classical._integrate`` steps with ``reclock.dop853``, which repeats SciPy's
``solve_ivp(method="DOP853")`` operation for operation. SciPy shares no code
with it, so it is the reference here: on every potential and clock family of
the catalogue, at four tolerances down to MIN_TOL, the accepted clocks, the
states and the dense reads must be equal float for float.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from reclock import dop853
from reclock.classical import MIN_TOL, integrate_t, integrate_tau
from reclock.errors import NumericalError
from reclock.model import (
    DrivenHarmonicPotential,
    HarmonicPotential,
    IdentityMap,
    LinearMap,
    MovingWellPotential,
    PhysicalConstants,
    PotentialSpec,
    SinePerturbedMap,
    SmoothRampMap,
    clock_reading,
)

CST = PhysicalConstants()
SPAN = (0.0, 10.0)
Y0 = (1.0, 0.5)
POTENTIALS = {
    "harmonic": HarmonicPotential(omega=1.3),
    "driven": DrivenHarmonicPotential(omega0=1.0, ramp=0.1),
    "moving-well": MovingWellPotential(center0=0.5, velocity=0.2, stiffness=2.0),
}
# "t" is the conventional clock: no map, and the only run with a dense read-out.
CLOCKS = {
    "t": None,
    "identity": IdentityMap(domain=SPAN),
    "linear-2": LinearMap(2.0, SPAN),
    "sine": SinePerturbedMap(0.3, 1.0, SPAN),
    "ramp": SmoothRampMap(0.5, 2.0, 5.0, 0.7, SPAN),
    # The ramp's exponent is 1000 at tau = 0, so exp overflows on the first steps.
    "ramp-sharp": SmoothRampMap(0.5, 2.0, 5.0, 5e-3, SPAN),
}
TOLS = {"1e-6": 1e-6, "1e-9": 1e-9, "1e-11": 1e-11, "MIN_TOL": MIN_TOL}


def _solve_ivp(pot, timemap, span, tol, y0=Y0):
    """SciPy's DOP853 run of the orbit, with the right-hand side of ``_integrate``."""

    def rhs(clock, y):
        rate, t = clock_reading(timemap, clock)
        return rate * y[1] / CST.mass, -rate * float(pot.gradient_x(t, y[0]))

    with np.errstate(over="raise", invalid="raise", divide="raise"):
        return solve_ivp(
            rhs, span, y0, method="DOP853", rtol=tol, atol=tol, dense_output=timemap is None
        )


@pytest.mark.parametrize("tol", sorted(TOLS))
@pytest.mark.parametrize("clock", sorted(CLOCKS))
@pytest.mark.parametrize("potential", sorted(POTENTIALS))
def test_an_orbit_steps_float_for_float_as_solve_ivp(potential, clock, tol):
    pot, timemap, tol = POTENTIALS[potential], CLOCKS[clock], TOLS[tol]
    if timemap is None:
        traj = integrate_t(pot, CST, *Y0, SPAN, tol)
    else:
        traj = integrate_tau(pot, CST, timemap, *Y0, SPAN, tol)
    sol = _solve_ivp(pot, timemap, SPAN, tol)
    assert sol.status == 0, sol.message
    assert np.array_equal(traj.clocks, sol.t)
    assert np.array_equal(traj.q, sol.y[0])
    assert np.array_equal(traj.pm, sol.y[1])
    if timemap is None:
        # Every step edge (read from the earlier step), every midpoint, and a uniform grid.
        midpoints = sol.t[:-1] + np.diff(sol.t) / 2
        marks = np.concatenate([sol.t, midpoints, np.linspace(*SPAN, 997)])
        assert np.array_equal(traj.dense(marks), sol.sol(marks))
    else:
        assert traj.dense is None


@pytest.mark.parametrize("clock", ["t", "sine"])
def test_an_orbit_at_rest_at_the_bottom_of_the_well_steps_as_solve_ivp(clock):
    # Zero state and zero derivative: the first step comes from the branch for
    # a vanishing start, and every step's error norm is exactly zero.
    pot, timemap, y0, tol = POTENTIALS["harmonic"], CLOCKS[clock], (0.0, 0.0), 1e-9
    if timemap is None:
        traj = integrate_t(pot, CST, *y0, SPAN, tol)
    else:
        traj = integrate_tau(pot, CST, timemap, *y0, SPAN, tol)
    sol = _solve_ivp(pot, timemap, SPAN, tol, y0)
    assert sol.status == 0, sol.message
    assert len(traj.clocks) == 9
    assert np.array_equal(traj.clocks, sol.t)
    assert np.array_equal(traj.q, sol.y[0])
    assert np.array_equal(traj.pm, sol.y[1])
    if timemap is None:
        marks = np.concatenate([sol.t, np.linspace(*SPAN, 997)])
        assert np.array_equal(traj.dense(marks), sol.sol(marks))


class _PoleAtHalf(PotentialSpec):
    """V = x / (0.5 - t): a force 1 / (0.5 - t) that diverges inside the span (0, 1)."""

    def value(self, t, x):
        return x / (0.5 - t)

    def gradient_x(self, t, x):
        return 1 / (0.5 - t) + 0 * x


def test_a_step_below_the_spacing_of_doubles_fails_as_under_solve_ivp():
    pot = _PoleAtHalf()
    sol = _solve_ivp(pot, None, (0.0, 1.0), 1e-9)
    assert sol.status == -1
    assert sol.message == "Required step size is less than spacing between numbers."
    message = (
        "integration over t_span (0, 1) failed: "
        "Required step size is less than spacing between numbers."
    )
    with pytest.raises(NumericalError) as failure:
        integrate_t(pot, CST, *Y0, (0.0, 1.0), 1e-9)
    assert str(failure.value) == message


# The classical-orbits benchmark's shape: span 100 pi at tol 1e-11, its wells
# and clocks, and a start inside its range of x0 and p0.
LONG_SPAN = (0.0, 100.0 * np.pi)
LONG_ORBITS = {
    "t": (DrivenHarmonicPotential(omega0=1.0, ramp=0.002), None),
    "sine": (MovingWellPotential(0.0, 0.01, 1.0), SinePerturbedMap(0.3, 1.0, LONG_SPAN)),
    "ramp": (
        DrivenHarmonicPotential(omega0=1.0, ramp=0.002),
        SmoothRampMap(1.0, 0.5, 50.0 * np.pi, 5.0, LONG_SPAN),
    ),
}


@pytest.mark.parametrize("clock", sorted(LONG_ORBITS))
def test_a_benchmark_length_orbit_steps_float_for_float_as_solve_ivp(clock):
    pot, timemap = LONG_ORBITS[clock]
    y0 = (-1.3, 0.7)
    if timemap is None:
        traj = integrate_t(pot, CST, *y0, LONG_SPAN, 1e-11)
    else:
        traj = integrate_tau(pot, CST, timemap, *y0, LONG_SPAN, 1e-11)
    sol = _solve_ivp(pot, timemap, LONG_SPAN, 1e-11, y0)
    assert sol.status == 0, sol.message
    assert len(sol.t) > 1000
    assert np.array_equal(traj.clocks, sol.t)
    assert np.array_equal(traj.q, sol.y[0])
    assert np.array_equal(traj.pm, sol.y[1])
    if timemap is None:
        marks = np.linspace(*LONG_SPAN, 4001)
        assert np.array_equal(traj.dense(marks), sol.sol(marks))


_END = 1e-3


def _kick(t, y):
    """No force until 0.9 of the span, then dp/dt = 1e300: only a step's last stage feels it."""
    return 0.0, 1e300 if t > 0.9 * _END else 0.0


class _Kick(PotentialSpec):
    """The force of ``_kick``, for a particle heavy enough that q barely moves."""

    def value(self, t, x):
        return (-1e300 if t > 0.9 * _END else 0.0) * x

    def gradient_x(self, t, x):
        return -1e300 if t > 0.9 * _END else 0.0


def test_a_step_end_state_that_overflows_raises_as_under_solve_ivp():
    # p starts at the largest double. The stage states add only zero
    # derivatives to it; the step-end state adds B[11] * 1e300 * h, which
    # rounds past it, so the overflow is in forming the step-end state.
    big = np.finfo(float).max
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            solve_ivp(_kick, (0.0, _END), (0.0, big), method="DOP853", rtol=1e-6, atol=1e-6)
        with pytest.raises(FloatingPointError, match="overflow"):
            dop853.integrate(_kick, 0.0, _END, (0.0, big), 1e-6, dense=False)
    heavy = PhysicalConstants(mass=big)
    where = r"^integration over t_span \(0, 0\.001\) failed: "
    with pytest.raises(NumericalError, match=where) as failure:
        integrate_t(_Kick(), heavy, 0.0, big, (0.0, _END), 1e-6)
    assert isinstance(failure.value.__cause__, FloatingPointError)
    assert "overflow" in str(failure.value)
