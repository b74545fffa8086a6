"""What reaches DOP853's right-hand side: NumPy scalars, under the caller's error state.

An orbit's force overflows into a NumericalError only because every clock
and state component that ``fun`` sees after the first call is a NumPy
scalar, whose arithmetic raises under ``np.errstate``; with Python floats an
overflow passes as inf. The stage states are NumPy-scalar sums, not arrays,
so these tests pin that contract where each value is formed.
"""

import sys

import numpy as np
import pytest

from reclock import dop853
from reclock.classical import integrate_t, integrate_tau
from reclock.model import DrivenHarmonicPotential, PhysicalConstants, SinePerturbedMap

CST = PhysicalConstants()
SPAN = (0.0, 10.0)


def _source(frame, clock, a, first):
    """Which part of ``dop853.integrate`` made the call from ``frame``."""
    name = frame.f_code.co_name
    if name == "_stages":
        return "extra stage" if frame.f_locals["s"] > dop853.N_STAGES else "stage"
    if name == "integrate":
        return "start" if first and clock == a else "step end"
    return name


@pytest.mark.parametrize("clock", ["t", "sine"])
def test_every_clock_and_state_component_reaches_fun_as_a_numpy_scalar(monkeypatch, clock):
    seen = {}
    integrate = dop853.integrate

    def recording(fun, a, b, y0, tol, dense):
        def wrapped(t, y):
            source = _source(sys._getframe(1), t, a, not seen)
            q, p = y
            seen.setdefault(source, set()).add((type(t), type(q), type(p)))
            return fun(t, y)

        return integrate(wrapped, a, b, y0, tol, dense)

    monkeypatch.setattr(dop853, "integrate", recording)
    pot = DrivenHarmonicPotential(omega0=1.0, ramp=0.1)
    if clock == "t":
        integrate_t(pot, CST, 1.0, 0.5, SPAN)
    else:
        integrate_tau(pot, CST, SinePerturbedMap(0.3, 1.0, SPAN), 1.0, 0.5, SPAN)
    sources = {"start", "_initial_step", "stage", "step end"}
    # Only the conventional run keeps a dense interpolant, so only it makes the extra stages.
    assert set(seen) == (sources | {"extra stage"} if clock == "t" else sources)
    # The first clock is the span's start, a Python float, as under SciPy's solver.
    assert {types[1:] for types in seen.pop("start")} == {(np.float64, np.float64)}
    for source, types in seen.items():
        assert types == {(np.float64, np.float64, np.float64)}, source


def test_a_stage_that_overflows_on_a_first_step_cut_to_the_span_end_raises():
    # a + (b - a) rounds above b, so the first step is cut to b and its size
    # b - a is a Python float. The force spikes only around stage 10's node,
    # and only stage 11 (A[11, 10] = 0.643) carries the spike past the largest
    # double once it is multiplied by the step. solve_ivp raises here too.
    a, b = -2.012194964268975, -0.12641636234638398
    assert a + (b - a) > b

    def fun(t, y):
        spike = a + 0.8 * (b - a) < t < a + 0.9 * (b - a)
        return (1.7e308 if spike else 3e-5, 3e-5)

    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        dop853.integrate(fun, a, b, (1.0, 1.0), 1.0, dense=False)
