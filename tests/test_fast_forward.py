"""Property test of the paper's conclusion: fast-forwarding buys nothing.

A compressed clock runs the generator alpha H(alpha t) over a span alpha
times shorter than the conventional run at the same physical resolution.
The two runs must take the same number of steps, so the compressed clock
saves no generator applications, and they must agree up to rounding.
"""

import pytest
from numpy.testing import assert_allclose

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from reclock.model import (  # noqa: E402
    DrivenHarmonicPotential,
    PhysicalConstants,
    SpatialGrid,
    prepare_gaussian,
)
from reclock.quantum import PropagatorConfig, propagate_rescaled, propagate_t  # noqa: E402

CST = PhysicalConstants()
PSI0 = prepare_gaussian(SpatialGrid(-12.0, 12.0, 128), 0.5, 1.0, momentum=0.5)
POT = DrivenHarmonicPotential(omega0=1.0, ramp=0.5)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    alpha=st.floats(0.25, 4.0),
    span=st.floats(0.01, 0.25),
    n_steps=st.integers(1, 60),
)
@example(alpha=0.3, span=0.05, n_steps=50)
@example(alpha=3.7, span=0.05, n_steps=50)
def test_the_compressed_clock_saves_no_generator_applications(alpha, span, n_steps):
    dt = span / n_steps
    fast = propagate_rescaled(PSI0, POT, CST, alpha, (0.0, span), PropagatorConfig(dt=dt))
    slow = propagate_t(PSI0, POT, CST, (0.0, alpha * span), PropagatorConfig(dt=alpha * dt))
    # record_every=1 records every step, so equal lengths mean equal step counts.
    assert len(fast.clocks) == len(slow.clocks) == n_steps + 1
    assert_allclose(fast.t, slow.t, rtol=1e-13, atol=0)
    assert_allclose(fast.clocks, slow.clocks / alpha, rtol=1e-13, atol=0)
    assert_allclose(fast.amplitudes, slow.amplitudes, rtol=0, atol=1e-13)
