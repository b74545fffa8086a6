"""Property tests for the Crank-Nicolson step schedule ``_step_boundaries``
and the record slots ``_plan`` finds on it."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from reclock.quantum import (  # noqa: E402
    LANDMARK_SNAP_FRACTION,
    PropagatorConfig,
    _plan,
    _step_boundaries,
)


@st.composite
def _schedules(draw):
    """A span, a step and landmarks in (a + snap, b] more than 2 snap apart.

    Half the candidate landmarks sit within a few snap distances of a ladder
    boundary, so the snapping branches are exercised as often as insertion.
    """
    a = draw(st.floats(-100.0, 100.0))
    length = draw(st.floats(1e-3, 100.0))
    b = a + length
    n_steps = draw(st.integers(1, 400))
    dt = length / n_steps * draw(st.floats(0.5, 1.5))
    snap = LANDMARK_SNAP_FRACTION * dt
    uniform = st.floats(0.0, 1.0).map(lambda f: a + f * (b - a))
    near_ladder = st.tuples(st.integers(0, 2 * n_steps + 1), st.floats(-3.0, 3.0)).map(
        lambda p: a + dt * p[0] + p[1] * snap
    )
    marks = []
    for lm in sorted(draw(st.lists(uniform | near_ladder, max_size=12))):
        if a + snap < lm <= b and (not marks or lm - marks[-1] > 2 * snap):
            marks.append(lm)
    return a, b, dt, marks


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_schedules())
# Far from the origin the rounded last rung can land on b (a 0-length step)
# or stretch the last step past dt + 2 snap by an ulp.
@example((64.0, 64.001, 4.761904761904762e-06, []))
@example((64.0, 64.001, 4.830917874396135e-06, []))
# A landmark within snap of both the last rung and b, 1.5 snap apart, must
# replace both rather than leave a 0.9 snap step before b.
@example((0.0, 1.0 + 1.5e-10, 0.1, [1.0 + 0.6e-10]))
def test_step_boundaries_cover_the_span_and_land_every_landmark(schedule):
    a, b, dt, marks = schedule
    snap = LANDMARK_SNAP_FRACTION * dt
    # Every boundary is a float near a or b, so a step is exact to two ulps.
    ulp = math.ulp(max(abs(a), abs(b)))
    bounds = _step_boundaries(a, b, dt, marks)
    steps = [hi - lo for lo, hi in zip(bounds, bounds[1:])]

    assert bounds[0] == a
    assert all(step > 0 for step in steps)
    assert set(marks) <= set(bounds)
    assert min(steps) > snap
    assert max(steps) <= dt + 2 * snap + 2 * ulp
    assert bounds[-1] == b or (bounds[-1] in marks and abs(bounds[-1] - b) <= snap)

    # Planned with the landmarks, a run records at a and then at each of
    # them; without, at every k-th boundary and the last.
    if marks:
        plan = _plan((a, b), PropagatorConfig(dt), None, marks)
        assert plan.edges.tobytes() == bounds.tobytes()
        assert plan.clocks.tolist() == [a, *marks]
    ladder = _step_boundaries(a, b, dt)
    last = len(ladder) - 1
    for k in (1, 3, last + 1):
        plan = _plan((a, b), PropagatorConfig(dt, record_every=k), None)
        assert plan.rec.tolist() == sorted(set(range(0, last + 1, k)) | {last})
        assert plan.clocks.tobytes() == ladder[plan.rec].tobytes()
