"""Property tests of the propagation kernel's contracts.

* A non-finite potential stops every run, and the residual check, with a
  NumericalError naming the earliest t at which V is evaluated and bad.
* The identity clock reproduces the conventional run float for float.
* A covariance run keeps both records' norms within NORM_DRIFT_TOL and its
  fidelities in [0, 1 + FIDELITY_CAP_SLACK], for every clock family.
"""

import math
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from reclock.errors import NumericalError  # noqa: E402
from reclock.model import (  # noqa: E402
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
    clock_reading,
    prepare_gaussian,
)
from reclock.quantum import (  # noqa: E402
    CovarianceScenario,
    PropagatorConfig,
    _step_boundaries,
    apply_hamiltonian,
    covariance_experiment,
    propagate_t,
    propagate_tau,
    residual_check,
)

CST = PhysicalConstants()


class _InfiniteAfter(PotentialSpec):
    """Harmonic well that turns infinite for t > t_bad."""

    def __init__(self, t_bad):
        self.t_bad = t_bad

    def value(self, t, x):
        return np.where(t > self.t_bad, np.inf, 0.5 * x * x)

    def gradient_x(self, t, x):
        return x


@st.composite
def _runs(draw):
    """A grid, a span, a step schedule and a clock: none, a sine map or a smooth ramp."""
    n = draw(st.integers(16, 128))
    a = draw(st.floats(-2.0, 2.0))
    length = draw(st.floats(0.01, 2.0))
    span = (a, a + length)
    dt = length / draw(st.integers(1, 60)) * draw(st.floats(0.5, 1.5))
    cfg = PropagatorConfig(dt=dt, record_every=draw(st.integers(1, 8)))
    kind = draw(st.sampled_from(["none", "sine", "ramp"]))
    clock = None
    if kind == "sine":
        frequency = draw(st.floats(0.1, 10.0))
        amplitude = draw(st.floats(-0.9, 0.9)) / frequency
        clock = SinePerturbedMap(amplitude, frequency, domain=span)
    elif kind == "ramp":
        rates = draw(st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)))
        center = draw(st.floats(span[0], span[1]))
        clock = SmoothRampMap(*rates, center, draw(st.floats(0.01, 1.0)), domain=span)
    return SpatialGrid(-12.0, 12.0, n), span, cfg, clock


def _schedule(span, cfg, clock):
    """The t of every step midpoint, and the clock and t of every record, in
    run order: a record every ``record_every`` steps and at the end."""
    bounds = _step_boundaries(span[0], span[1], cfg.dt)
    mids = [lo + 0.5 * (hi - lo) for lo, hi in zip(bounds, bounds[1:])]
    last = len(bounds) - 1
    records = [bounds[i] for i in sorted(set(range(0, last + 1, cfg.record_every)) | {last})]
    step_t = [clock_reading(clock, mid)[1] for mid in mids]
    return step_t, records, [clock_reading(clock, c)[1] for c in records]


def _named(t):
    return re.escape(f"potential produced non-finite values at t={t}") + "$"


_SHORT = PropagatorConfig(dt=0.01, record_every=1)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(run=_runs(), fault=st.tuples(st.floats(-0.2, 1.2), st.booleans()))
# Potentials that overflow everywhere for t >= 0: numpy warns unless the
# one check evaluates them with overflow silenced.
@example(
    run=(SpatialGrid(-12.0, 12.0, 64), (0.0, 0.05), _SHORT, None),
    fault=DrivenHarmonicPotential(omega0=1e154, ramp=1e160),
)
@example(
    run=(SpatialGrid(-12.0, 12.0, 64), (0.0, 0.05), _SHORT, SinePerturbedMap(0.3, 2.0, (0, 0.05))),
    fault=MovingWellPotential(center0=1e200, stiffness=1e200),
)
def test_a_non_finite_potential_is_named_at_the_earliest_evaluated_t(run, fault):
    grid, span, cfg, clock = run
    step_t, record_clocks, record_t = _schedule(span, cfg, clock)
    if isinstance(fault, PotentialSpec):
        pot, t_bad = fault, -math.inf
    else:
        # t_bad anywhere around T(span), or snapped onto an evaluated t so
        # that V is finite exactly there and infinite at the next one.
        u, snap = fault
        t_bad = record_t[0] + u * (record_t[-1] - record_t[0])
        if snap:
            t_bad = max((t for t in step_t + record_t if t <= t_bad), default=t_bad)
        pot = _InfiniteAfter(t_bad)
    psi0 = prepare_gaussian(grid, 0.0, 1.0)

    def propagate(potential):
        if clock is None:
            return propagate_t(psi0, potential, CST, span, cfg)
        return propagate_tau(psi0, potential, CST, clock, span, cfg)

    above = [t for t in step_t + record_t if t > t_bad]
    if above:
        with pytest.raises(NumericalError, match=_named(min(above))):
            propagate(pot)
        with pytest.raises(NumericalError, match=_named(min(above))):
            apply_hamiltonian(psi0, pot, CST, min(above))
    else:
        assert propagate(pot).clocks.tolist() == record_clocks

    # The residual check evaluates V at each record whose neighbours are
    # equally spaced.
    good = propagate(HarmonicPotential())
    gaps = np.diff(record_clocks).tolist()
    pairs = enumerate(zip(gaps, gaps[1:]), start=1)
    uniform = [k for k, (h1, h2) in pairs if abs(h2 - h1) <= 1e-9 * max(h1, h2)]
    bad = [record_t[k] for k in uniform if record_t[k] > t_bad]
    if bad:
        with pytest.raises(NumericalError, match=_named(min(bad))):
            residual_check(good, pot, CST)


@st.composite
def _potentials(draw):
    family = draw(st.sampled_from(["free", "harmonic", "driven", "moving_well"]))
    if family == "harmonic":
        return HarmonicPotential(omega=draw(st.floats(0.0, 3.0)))
    if family == "driven":
        return DrivenHarmonicPotential(
            omega0=draw(st.floats(0.0, 3.0)), ramp=draw(st.floats(-1.0, 1.0))
        )
    if family == "moving_well":
        return MovingWellPotential(
            center0=draw(st.floats(-2.0, 2.0)),
            velocity=draw(st.floats(-1.0, 1.0)),
            stiffness=draw(st.floats(0.1, 4.0)),
        )
    return FreePotential()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    pot=_potentials(),
    n=st.integers(16, 128),
    packet=st.tuples(st.floats(-1.0, 1.0), st.floats(0.5, 1.2), st.floats(-1.5, 1.5)),
    a=st.floats(-2.0, 2.0),
    length=st.floats(0.01, 2.0),
    n_steps=st.integers(1, 60),
    stretch=st.floats(0.5, 1.5),
    record_every=st.integers(1, 8),
)
def test_the_identity_clock_reproduces_the_conventional_run_exactly(
    pot, n, packet, a, length, n_steps, stretch, record_every
):
    span = (a, a + length)
    report = covariance_experiment(
        CovarianceScenario(
            constants=CST,
            potential=pot,
            timemap=IdentityMap(domain=span),
            initial_state=prepare_gaussian(SpatialGrid(-12.0, 12.0, n), *packet),
            tau_span=span,
            config=PropagatorConfig(dt=length / n_steps * stretch, record_every=record_every),
        )
    )
    assert report.max_energy_transform_residual == 0.0
    tau_rec, t_rec = report.tau_record, report.t_record
    assert np.array_equal(tau_rec.amplitudes, t_rec.amplitudes)
    assert np.array_equal(tau_rec.energies, t_rec.energies)


@st.composite
def _clocks(draw, span):
    """A linear, sine or smooth-ramp clock on ``span``."""
    kind = draw(st.sampled_from(["linear", "sine", "ramp"]))
    if kind == "linear":
        return LinearMap(draw(st.floats(0.25, 4.0)), domain=span)
    if kind == "sine":
        frequency = draw(st.floats(0.1, 10.0))
        return SinePerturbedMap(draw(st.floats(-0.9, 0.9)) / frequency, frequency, domain=span)
    rates = draw(st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)))
    center = draw(st.floats(span[0], span[1]))
    return SmoothRampMap(*rates, center, draw(st.floats(0.01, 1.0)), domain=span)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    pot=_potentials(),
    n=st.integers(16, 128),
    packet=st.tuples(st.floats(-1.0, 1.0), st.floats(0.5, 1.2), st.floats(-1.5, 1.5)),
    a=st.floats(-2.0, 2.0),
    length=st.floats(0.01, 2.0),
    n_steps=st.integers(1, 60),
    stretch=st.floats(0.5, 1.5),
    record_every=st.integers(1, 8),
    data=st.data(),
)
def test_a_covariance_run_keeps_its_norm_and_its_fidelity_in_range(
    pot, n, packet, a, length, n_steps, stretch, record_every, data
):
    span = (a, a + length)
    # CovarianceReport raises a NumericalError for a fidelity outside
    # [0, 1 + FIDELITY_CAP_SLACK], so the run must simply complete.
    report = covariance_experiment(
        CovarianceScenario(
            constants=CST,
            potential=pot,
            timemap=data.draw(_clocks(span)),
            initial_state=prepare_gaussian(SpatialGrid(-12.0, 12.0, n), *packet),
            tau_span=span,
            config=PropagatorConfig(dt=length / n_steps * stretch, record_every=record_every),
        )
    )
    for record in (report.tau_record, report.t_record):
        assert not [flag for flag in record.flags if flag.startswith("norm-drift")]
