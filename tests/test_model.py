"""Domain types: clock maps, potentials, grids, wavefunctions."""

import math
import pickle
import re
import warnings

import numpy as np
import pytest

from reclock.errors import ClockDomainError, ValidationError
from reclock.model import (
    MAX_POINTS,
    DrivenHarmonicPotential,
    FreePotential,
    HarmonicPotential,
    IdentityMap,
    LinearMap,
    MovingWellPotential,
    PhysicalConstants,
    SinePerturbedMap,
    SmoothRampMap,
    SpatialGrid,
    Wavefunction,
    clock_reading,
    prepare_gaussian,
)


def test_constants_defaults_and_validation():
    cst = PhysicalConstants()
    assert cst.hbar == 1.0 and cst.mass == 1.0
    with pytest.raises(ValidationError, match="hbar"):
        PhysicalConstants(hbar=0.0)
    with pytest.raises(ValidationError, match="mass"):
        PhysicalConstants(mass=-1.0)
    with pytest.raises(ValidationError):
        PhysicalConstants(hbar=float("nan"))


def test_identity_map_is_exact():
    m = IdentityMap(domain=(0.0, 3.0))
    m.require(1.7)
    rate, t = clock_reading(m, 1.7)
    assert t == 1.7
    assert rate == 1.0
    taus = np.linspace(0.0, 3.0, 11)
    np.testing.assert_array_equal(m.value(taus), taus)
    np.testing.assert_array_equal(m.rate(taus), np.ones(11))


def test_identity_map_is_the_alpha_one_linear_map():
    m = IdentityMap(domain=(-1.0, 1.0))
    assert isinstance(m, LinearMap) and m.alpha == 1.0
    with pytest.raises(TypeError):
        IdentityMap(alpha=2.0)
    for tau in (0.0, -0.0, np.float64(0.3), 1, -0.7):
        assert m.value(tau) == tau
        assert math.copysign(1.0, m.value(tau)) == math.copysign(1.0, tau)
        assert m.rate(tau) == 1.0
    taus = np.array([-0.0, 0.25, 1.0])
    np.testing.assert_array_equal(np.signbit(m.value(taus)), np.signbit(taus))
    assert m.rate(taus).dtype == float


def test_linear_map_convention_and_monotonicity():
    # T(tau) = tau / alpha: alpha = 2 halves the conventional time.
    m = LinearMap(alpha=2.0, domain=(0.0, 4.0))
    assert m.value(3.0) == 1.5
    assert m.rate(0.5) == 0.5
    with pytest.raises(ValidationError, match="monotone"):
        LinearMap(alpha=0.0, domain=(0.0, 1.0))
    with pytest.raises(ValidationError, match="monotone"):
        LinearMap(alpha=-2.0, domain=(0.0, 1.0))


def test_a_linear_map_rejects_an_alpha_whose_clock_leaves_the_doubles():
    # The rate 1/alpha overflows, or T = tau/alpha does at the domain's end.
    cases = (
        (1e-310, (0.0, 1e-300), "((inf, 0.0), (inf, 10000000000.00003))"),
        (1e-306, (0.0, 1e3), "((1e+306, 0.0), (1e+306, inf))"),
        (1e-306, (-1e3, 0.0), "((1e+306, -inf), (1e+306, 0.0))"),
    )
    for alpha, domain, ends in cases:
        message = f"T' and T at the ends of the domain {domain} read {ends}, not finite doubles"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            LinearMap(alpha, domain)
    assert LinearMap(1e-306, (0.0, 1.0)).value(1.0) == 1e306


def test_a_sine_map_rejects_a_domain_where_its_phase_overflows():
    # sin(inf) is NaN, so the end check refuses an overflowing phase.
    cases = (
        ((0.0, 1e3), "((1.1, 0.0), (nan, nan))"),
        ((-1e3, 0.0), "((nan, nan), (1.1, 0.0))"),
    )
    for domain, ends in cases:
        message = f"T' and T at the ends of the domain {domain} read {ends}, not finite doubles"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            SinePerturbedMap(1e-307, 1e306, domain)
    # Inside its monotone region the same map stands on a shorter domain.
    SinePerturbedMap(1e-307, 1e306, (0.0, 1.0))


def test_sine_perturbed_map_rate_and_limits():
    m = SinePerturbedMap(amplitude=0.3, frequency=1.0, domain=(0.0, 10.0))
    tau = 2.1
    assert m.value(tau) == pytest.approx(tau + 0.3 * math.sin(tau), rel=1e-15)
    assert m.rate(tau) == pytest.approx(1.0 + 0.3 * math.cos(tau), rel=1e-15)
    # |amplitude * frequency| >= 1 lets the rate touch zero.
    with pytest.raises(ValidationError, match="monoton"):
        SinePerturbedMap(amplitude=0.5, frequency=2.0, domain=(0.0, 1.0))
    # A steep but still monotone member clears the exact bound.
    SinePerturbedMap(amplitude=0.95, frequency=1.0, domain=(0.0, 20.0))


def test_smooth_ramp_map_anchoring_and_rate():
    m = SmoothRampMap(
        rate_start=0.5, rate_end=2.0, center=1.0, sharpness=0.2, domain=(0.0, 2.0)
    )
    assert m.value(0.0) == pytest.approx(0.0, abs=1e-15)
    # Rate interpolates between the two plateaus.
    assert m.rate(-50.0) == pytest.approx(0.5, abs=1e-12)
    assert m.rate(50.0) == pytest.approx(2.0, abs=1e-12)
    # value is the exact antiderivative of rate.
    h = 1e-6
    for tau in (0.3, 1.0, 1.7):
        fd = (m.value(tau + h) - m.value(tau - h)) / (2 * h)
        assert fd == pytest.approx(m.rate(tau), rel=1e-8)
    with pytest.raises(ValidationError, match="positive"):
        SmoothRampMap(rate_start=-1.0, rate_end=2.0, center=0.5, sharpness=0.1)


def test_smooth_ramp_sharp_ramp_is_warning_free():
    # Far before a sharp ramp exp(-(tau - center)/sharpness) overflows; the
    # rate must still be the exact plateau and raise no RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = SmoothRampMap(1.0, 2.0, 5.0, 1e-3, domain=(0.0, 10.0))
        assert m.rate(0.0) == 1.0
        assert m.rate(10.0) == 2.0


def _ramp_rate_reference(m, tau):
    """SmoothRampMap.rate as one expression with exp's overflow silenced."""
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-(tau - m.center) / m.sharpness))
    rate = m.rate_start + (m.rate_end - m.rate_start) * sig
    return np.maximum(rate, min(m.rate_start, m.rate_end))


def _ramp_value_reference(m, tau):
    """SmoothRampMap.value with both softplus terms taken on each call."""
    lo, s = m.domain[0], m.sharpness
    ramp = np.logaddexp(0.0, (tau - m.center) / s) - np.logaddexp(0.0, (lo - m.center) / s)
    return lo + m.rate_start * (tau - lo) + (m.rate_end - m.rate_start) * s * ramp


# Centered at 0 with unit sharpness, the rate's exponent is exactly -tau.
RAMP_EXPONENTS = [*np.linspace(-800.0, 800.0, 161), 699.9, np.nextafter(700.0, 0.0), 700.0,
                  709.78, 709.79, 710.0]
RAMPS = [
    SmoothRampMap(0.5, 2.0, 0.0, 1.0, domain=(-800.0, 800.0)),
    SmoothRampMap(2.0, 0.5, 0.0, 1.0, domain=(-800.0, 800.0)),
    SmoothRampMap(0.5, 2.0, 5.0, 5e-3, domain=(0.0, 10.0)),
    # Past tau = 37 the sum rate_start + (rate_end - rate_start) * sig rounds
    # to 0.0, so the floor rate_end = 1.0 is what the rate returns.
    SmoothRampMap(1e17, 1.0, 0.0, 1.0, domain=(-800.0, 800.0)),
]


@pytest.mark.parametrize("m", RAMPS, ids=["rising", "falling", "sharp", "floor"])
def test_smooth_ramp_rate_and_value_are_the_plain_expressions_bit_for_bit(m):
    taus = m.center - np.array(RAMP_EXPONENTS) * m.sharpness
    # Under the classical integrator's error state an unsilenced overflow would raise.
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        want = _ramp_rate_reference(m, taus)
        assert m.rate(taus).tobytes() == want.tobytes()
        for tau, rate in zip(taus, want):
            for scalar in (tau, float(tau)):
                got = m.rate(scalar)
                assert type(got) is np.float64 and got.tobytes() == rate.tobytes()
        lo, hi = m.domain
        marks = np.linspace(lo, hi, 101)
        assert m.value(marks).tobytes() == _ramp_value_reference(m, marks).tobytes()
        for tau in marks:
            assert m.value(tau) == _ramp_value_reference(m, tau)
            assert m.value(float(tau)) == _ramp_value_reference(m, float(tau))


def test_a_smooth_ramp_that_was_read_is_equal_hashed_printed_and_pickled_as_a_new_one():
    m = SmoothRampMap(0.5, 2.0, 5.0, 5e-3, domain=(0.0, 10.0))
    m.value(3.0)
    fresh = SmoothRampMap(0.5, 2.0, 5.0, 5e-3, domain=(0.0, 10.0))
    back = pickle.loads(pickle.dumps(m))
    for other in (fresh, back):
        assert other == m and hash(other) == hash(m) and repr(other) == repr(m)
        assert other.value(7.5) == m.value(7.5) and other.rate(4.99) == m.rate(4.99)
    assert repr(m) == (
        "SmoothRampMap(rate_start=0.5, rate_end=2.0, center=5.0, sharpness=0.005, "
        "domain=(0.0, 10.0))"
    )
    assert m != SmoothRampMap(0.5, 2.0, 5.0, 5e-3, domain=(1.0, 10.0))


def test_require_rejects_out_of_domain():
    m = LinearMap(alpha=2.0, domain=(0.0, 1.0))
    with pytest.raises(ClockDomainError, match="domain"):
        m.require(2.0)


def _fd_gradient(pot, t, x, h=1e-6):
    return (pot.value(t, x + h) - pot.value(t, x - h)) / (2 * h)


def test_potential_gradients_match_finite_differences():
    pots = [
        FreePotential(),
        HarmonicPotential(omega=1.3),
        DrivenHarmonicPotential(omega0=1.0, ramp=0.1),
        MovingWellPotential(center0=0.5, velocity=-0.2, stiffness=2.0),
    ]
    for pot in pots:
        for t, x in [(0.0, 0.7), (1.5, -2.2), (3.0, 0.0)]:
            assert pot.gradient_x(t, x) == pytest.approx(
                _fd_gradient(pot, t, x), abs=1e-8
            )


def test_potential_values():
    assert FreePotential().value(2.0, 5.0) == 0.0
    assert HarmonicPotential(omega=2.0).value(0.0, 1.0) == 2.0
    # omega(t) = omega0 + ramp * t enters squared.
    driven = DrivenHarmonicPotential(omega0=1.0, ramp=0.5)
    assert driven.value(2.0, 1.0) == pytest.approx(0.5 * (1.0 + 1.0) ** 2)
    well = MovingWellPotential(center0=1.0, velocity=2.0, stiffness=3.0)
    assert well.value(1.0, 3.0) == 0.0  # sits at the moving center
    with pytest.raises(ValidationError):
        MovingWellPotential(stiffness=0.0)
    with pytest.raises(ValidationError):
        DrivenHarmonicPotential(mass=0.0)


@pytest.mark.parametrize("omega", [1e200, -1e200, 10**200])
def test_harmonic_omega_whose_square_overflows_is_rejected(omega):
    with pytest.raises(ValidationError, match=r"^omega\*\*2 overflows for omega = "):
        HarmonicPotential(omega=omega)


def test_grid_spacing_and_validation():
    grid = SpatialGrid(-12.0, 12.0, 512)
    assert grid.dx == pytest.approx(24.0 / 511)
    pts = grid.points()
    assert pts[0] == -12.0 and pts[-1] == 12.0 and len(pts) == 512
    for n in (4, float("inf"), float("nan"), "16", 10**400):
        with pytest.raises(ValidationError, match=">= 8"):
            SpatialGrid(-1.0, 1.0, n)
    with pytest.raises(ValidationError):
        SpatialGrid(1.0, -1.0, 64)
    # Each edge is a finite double, but their distance is not.
    with pytest.raises(ValidationError, match=r"finite width .* \[-1e\+308, 1e\+308\]$"):
        SpatialGrid(-1e308, 1e308, 64)


def test_a_grid_has_at_most_max_points_and_a_nonzero_spacing():
    # A SpatialGrid holds no array, so building one costs no memory even
    # where the bound is missing.
    with pytest.raises(ValidationError, match=rf"^n_points = {MAX_POINTS + 1} is more than"):
        SpatialGrid(-1.0, 1.0, MAX_POINTS + 1)
    assert SpatialGrid(-1.0, 1.0, MAX_POINTS).n_points == MAX_POINTS
    # Ordered and finite, but (x_max - x_min) / 7 underflows to 0.
    with pytest.raises(ValidationError, match=r"nonzero spacing dx over 8 points"):
        SpatialGrid(0.0, 5e-324, 8)


def test_wavefunction_norm_and_edge_rule():
    grid = SpatialGrid(-1.0, 1.0, 9)
    amps = np.zeros(9, dtype=complex)
    amps[4] = 2.0
    psi = Wavefunction(grid, amps)
    assert psi.norm() == pytest.approx(math.sqrt(4.0 * grid.dx))
    # Edges must be exactly zero.
    bad = np.ones(9, dtype=complex)
    with pytest.raises(ValidationError, match="edge"):
        Wavefunction(grid, bad)
    nan = np.zeros(9, dtype=complex)
    nan[3] = complex(float("nan"), 0.0)
    with pytest.raises(ValidationError, match="finite"):
        Wavefunction(grid, nan)
    with pytest.raises(ValidationError, match="shape"):
        Wavefunction(grid, np.zeros(5, dtype=complex))
    # Stored amplitudes are frozen.
    with pytest.raises(ValueError):
        psi.amplitudes[1] = 1.0


def test_prepare_gaussian_normalization_and_moments():
    grid = SpatialGrid(-12.0, 12.0, 512)
    psi = prepare_gaussian(grid, center=1.0, width=1.0, momentum=2.0)
    assert abs(psi.norm() - 1.0) <= 1e-12
    x = grid.points()
    dens = np.abs(psi.amplitudes) ** 2 * grid.dx
    assert float(np.sum(x * dens)) == pytest.approx(1.0, abs=1e-9)
    # For amplitude width w the density variance is w^2/2.
    var = float(np.sum((x - 1.0) ** 2 * dens))
    assert var == pytest.approx(0.5, abs=1e-9)
    # The momentum shows up as a uniform phase twist of k*dx per point.
    interior = psi.amplitudes[200:300]
    twist = np.angle(interior[1:] / interior[:-1])
    np.testing.assert_allclose(twist, 2.0 * grid.dx, rtol=1e-9)


def test_prepare_gaussian_rejects_wall_contact():
    grid = SpatialGrid(-12.0, 12.0, 512)
    with pytest.raises(ValidationError, match="exceeds the box"):
        prepare_gaussian(grid, center=11.5, width=1.0)
    with pytest.raises(ValidationError, match="exceeds the box"):
        prepare_gaussian(grid, center=0.0, width=2.0)  # needs +/- 16
    with pytest.raises(ValidationError, match="width"):
        prepare_gaussian(grid, center=0.0, width=0.0)


def test_prepare_gaussian_rejects_widths_the_grid_cannot_represent():
    # Far below the grid spacing every amplitude underflows to zero, and at
    # 1e-300 so does width**2: a ValidationError, not a RuntimeWarning.
    grid = SpatialGrid(-12.0, 12.0, 64)
    for width in (1e-10, 1e-300):
        with pytest.raises(ValidationError, match=f"^width {width} is too narrow"):
            prepare_gaussian(grid, 1.0, width)


def test_prepare_gaussian_rejects_momenta_at_the_nyquist_limit():
    # Beyond pi hbar / dx the phase twist per point aliases onto a lower momentum.
    grid = SpatialGrid(-12.0, 12.0, 64)
    limit = math.pi / grid.dx
    for momentum in (1e300, limit, -limit):
        with pytest.raises(ValidationError, match=r"momentum .* Nyquist limit .* = 8\.24668;"):
            prepare_gaussian(grid, 0.0, 1.0, momentum)
    assert abs(prepare_gaussian(grid, 0.0, 1.0, 0.99 * limit).norm() - 1.0) <= 1e-12
    # The limit scales with hbar.
    prepare_gaussian(grid, 0.0, 1.0, 1.5 * limit, PhysicalConstants(hbar=2.0))
