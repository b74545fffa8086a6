"""Property tests of the clock-map families' monotone regions.

Each family is accepted on its analytic monotone region, with a margin of
two MONOTONE_MARGIN, unless a clock reading it must give at an end of its
domain is not a double; every rejection is a ValidationError that emits no
warning. Parameters are drawn from every double, NaN and the infinities
included; domains are drawn from a moderate range, since their own checks
are tested elsewhere.
"""

import math
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from reclock.errors import ValidationError  # noqa: E402
from reclock.model import (  # noqa: E402
    MONOTONE_MARGIN,
    LinearMap,
    SinePerturbedMap,
    SmoothRampMap,
)

_ANY = st.floats()
_DOMAINS = st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)).map(lambda p: (p[0], p[0] + p[1]))
_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _built(build):
    """The map ``build()`` returns, or the ValidationError it raises.
    Any warning, or any other exception, fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return build()
        except ValidationError as exc:
            return exc


def _accepted(build) -> bool:
    """True if ``build()`` returns a map; False if it raises a ValidationError."""
    return not isinstance(_built(build), ValidationError)


@_SETTINGS
@given(alpha=_ANY, domain=_DOMAINS)
@example(alpha=5e-324, domain=(0.0, 1.0))
@example(alpha=1e-306, domain=(0.0, 1e3))
def test_a_linear_map_is_accepted_exactly_for_a_finite_positive_alpha(alpha, domain):
    # A run reads the rate 1/alpha and T = tau/alpha at both ends, so each
    # must be a double too: alpha = 5e-324 has an infinite rate.
    expected = math.isfinite(alpha) and alpha > 0
    expected = expected and all(math.isfinite(v / alpha) for v in (1.0, *domain))
    assert _accepted(lambda: LinearMap(alpha, domain)) == expected


@_SETTINGS
@given(amplitude=_ANY, frequency=_ANY, domain=_DOMAINS)
@example(amplitude=0.999998, frequency=1.0, domain=(0.0, 10.0))
@example(amplitude=1e-300, frequency=1e300, domain=(0.0, 1.0))
def test_a_sine_map_is_accepted_on_its_monotone_region(amplitude, frequency, domain):
    accepted = _accepted(lambda: SinePerturbedMap(amplitude, frequency, domain))
    if not (math.isfinite(amplitude) and math.isfinite(frequency)):
        assert not accepted
        return
    slope = abs(amplitude * frequency)
    # The clock is T = tau + a sin(f tau): it is defined only where the
    # phase f tau is a double.
    phase = frequency * max(abs(domain[0]), abs(domain[1]))
    if 1.0 - slope >= 2 * MONOTONE_MARGIN and math.isfinite(phase):
        assert accepted
    if slope >= 1.0:
        assert not accepted


@_SETTINGS
@given(rates=st.tuples(_ANY, _ANY), center=_ANY, sharpness=_ANY, domain=_DOMAINS)
# A small end rate next to a large start rate, the two meeting in one sum.
@example(rates=(1e11, 2e-6), center=0.0, sharpness=0.01, domain=(0.0, 1.0))
@example(rates=(1.7e308, 2e-6), center=-1e300, sharpness=1e-300, domain=(0.0, 1.0))
# The closed form of T overflows at an end: inf - inf in the softplus
# difference, and (rate_end - rate_start) * sharpness = inf times a zero ramp.
@example(rates=(0.9, 0.4), center=-1e16, sharpness=1e-294, domain=(-0.25, 0.2))
@example(rates=(1.0, 1e308), center=0.5, sharpness=1e308, domain=(0.2, 1.4))
def test_a_smooth_ramp_is_accepted_when_both_rates_clear_the_margin(
    rates, center, sharpness, domain
):
    built = _built(lambda: SmoothRampMap(*rates, center, sharpness, domain))
    accepted = not isinstance(built, ValidationError)
    if accepted:
        # A run reads T at both ends of the domain.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all(math.isfinite(built.value(tau)) for tau in domain)
    if not all(math.isfinite(v) for v in (*rates, center, sharpness)) or not sharpness > 0:
        assert not accepted
    elif min(rates) >= 2 * MONOTONE_MARGIN:
        # Past the rates, only a T that is not a double at an end is refused.
        assert accepted or "T at the ends of the domain" in str(built)
    elif min(rates) <= 0:
        assert not accepted
