"""Property tests of the clock-map families' monotone regions.

A sine or ramp map is accepted exactly where its rate's lower bound clears
MONOTONE_MARGIN, and a linear map for every finite positive alpha, unless a
clock reading it must give at an end of its domain is not a double; every
accepted map reads finite doubles there, and every rejection is a
ValidationError that emits no warning. Parameters are drawn from every
double, NaN and the infinities included; domains are drawn from a moderate
range, since their own checks are tested elsewhere.
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


def _reads_finite_ends(timemap) -> bool:
    """True if T' and T are doubles at both ends of the map's domain, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = [(timemap.rate(tau), timemap.value(tau)) for tau in timemap.domain]
    return all(math.isfinite(v) for reading in ends for v in reading)


@_SETTINGS
@given(amplitude=_ANY, frequency=_ANY, domain=_DOMAINS)
@example(amplitude=0.999998, frequency=1.0, domain=(0.0, 10.0))
@example(amplitude=1e-300, frequency=1e300, domain=(0.0, 1.0))
# The bound 1 - |a f| just clears the margin, and just misses it on a domain
# too short for the rate to near it.
@example(amplitude=1.0 - 2e-6, frequency=1.0, domain=(0.0, 1.0))
@example(amplitude=1.0 - 5e-7, frequency=1.0, domain=(0.0, 1e-3))
# The phase overflows at an end, and T = tau + a sin(f tau) overflows at one.
@example(amplitude=1e-307, frequency=1e306, domain=(0.0, 1e3))
@example(amplitude=1e308, frequency=5e-309, domain=(0.0, 1.5e308))
def test_a_sine_map_is_accepted_on_its_monotone_region(amplitude, frequency, domain):
    built = _built(lambda: SinePerturbedMap(amplitude, frequency, domain))
    accepted = not isinstance(built, ValidationError)
    if accepted:
        assert _reads_finite_ends(built)
    if not (math.isfinite(amplitude) and math.isfinite(frequency)):
        assert not accepted
    elif 1.0 - abs(amplitude * frequency) >= MONOTONE_MARGIN:
        # The rate is never below 1 - |a f|; past it, only a clock reading
        # that is not a double at an end is refused.
        assert accepted or "T at the ends of the domain" in str(built)
    else:
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
# The smaller rate just clears the margin, and just misses it on a domain
# the ramp never carries near that rate.
@example(rates=(1e-6, 1.0), center=50.0, sharpness=1.0, domain=(0.0, 1.0))
@example(rates=(1e-7, 1.0), center=-50.0, sharpness=1.0, domain=(0.0, 1.0))
def test_a_smooth_ramp_is_accepted_when_both_rates_clear_the_margin(
    rates, center, sharpness, domain
):
    built = _built(lambda: SmoothRampMap(*rates, center, sharpness, domain))
    accepted = not isinstance(built, ValidationError)
    if accepted:
        assert _reads_finite_ends(built)
    if not all(math.isfinite(v) for v in (*rates, center, sharpness)) or not sharpness > 0:
        assert not accepted
    elif min(rates) >= MONOTONE_MARGIN:
        # The rate is never below the smaller end rate; past it, only a T
        # that is not a double at an end is refused.
        assert accepted or "T at the ends of the domain" in str(built)
    else:
        assert not accepted
