"""Domain types: clock maps, potentials, grids, wavefunctions."""

import math
import warnings

import numpy as np
import pytest

from reclock.errors import ClockDomainError, ValidationError
from reclock.model import (
    ClockKind,
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
    eval_potential,
    eval_timemap,
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
    t, rate = eval_timemap(m, 1.7)
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


def test_sine_perturbed_map_rate_and_limits():
    m = SinePerturbedMap(amplitude=0.3, frequency=1.0, domain=(0.0, 10.0))
    tau = 2.1
    assert m.value(tau) == pytest.approx(tau + 0.3 * math.sin(tau), rel=1e-15)
    assert m.rate(tau) == pytest.approx(1.0 + 0.3 * math.cos(tau), rel=1e-15)
    # |amplitude * frequency| >= 1 lets the rate touch zero.
    with pytest.raises(ValidationError, match="monoton"):
        SinePerturbedMap(amplitude=0.5, frequency=2.0, domain=(0.0, 1.0))
    # A steep but still monotone member passes the dense check.
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


def test_eval_timemap_rejects_out_of_domain():
    m = LinearMap(alpha=2.0, domain=(0.0, 1.0))
    with pytest.raises(ClockDomainError, match="domain"):
        eval_timemap(m, 2.0)


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


def test_eval_potential_requires_finite_arguments():
    with pytest.raises(ValidationError, match="finite"):
        eval_potential(HarmonicPotential(), float("inf"), 0.0)
    assert eval_potential(HarmonicPotential(), 0.0, 2.0) == 2.0


def test_grid_spacing_and_validation():
    grid = SpatialGrid(-12.0, 12.0, 512)
    assert grid.dx == pytest.approx(24.0 / 511)
    pts = grid.points()
    assert pts[0] == -12.0 and pts[-1] == 12.0 and len(pts) == 512
    for n in (4, float("inf"), float("nan"), "16"):
        with pytest.raises(ValidationError, match=">= 8"):
            SpatialGrid(-1.0, 1.0, n)
    with pytest.raises(ValidationError):
        SpatialGrid(1.0, -1.0, 64)


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


def test_clock_kind_values():
    assert ClockKind.CONVENTIONAL_T.value == "t"
    assert ClockKind.PARAMETER_TAU.value == "tau"
