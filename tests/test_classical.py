"""Reparametrized classical mechanics: Lagrangians, momenta, constraint, orbits."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from reclock.errors import ClockDomainError, CoverageError, ValidationError
from reclock.classical import (
    LagrangianPoint,
    Trajectory,
    check_constraint,
    check_euler_homogeneity,
    hamiltonian_t,
    hamiltonian_tau,
    homogeneous_lagrangian,
    integrate_t,
    integrate_tau,
    lagrangian_t,
    momenta_tau,
    trajectory_equivalence,
)
from reclock.model import (
    ClockKind,
    FreePotential,
    HarmonicPotential,
    IdentityMap,
    LinearMap,
    MovingWellPotential,
    PhysicalConstants,
    PotentialSpec,
    SinePerturbedMap,
    SmoothRampMap,
)

CST = PhysicalConstants()


class _ConstPotential(PotentialSpec):
    """Potential pinned to a fixed level everywhere, for exact worked values."""

    def __init__(self, level):
        self.level = float(level)

    def value(self, t, x):
        return np.asarray(x, dtype=float) * 0.0 + self.level

    def gradient_x(self, t, x):
        return np.asarray(x, dtype=float) * 0.0


def test_conventional_lagrangian_worked_values():
    # m=1: L = xdot^2/2 - V.
    pot = _ConstPotential(3.0)
    assert lagrangian_t(pot, CST, 0.0, 0.7, 2.0) == -1.0
    assert lagrangian_t(FreePotential(), CST, 5.0, 1.0, 0.0) == 0.0


def test_homogeneous_lagrangian_worked_value_and_gauge():
    pot = _ConstPotential(3.0)
    pt = LagrangianPoint(T=0.0, xi=0.7, Tprime=2.0, xiprime=2.0)
    # m xi'^2 / (2 T') - T' V = 4/4 - 6 = -5.
    assert homogeneous_lagrangian(pot, CST, pt) == -5.0
    # Gauge T' = 1 reproduces the conventional Lagrangian bitwise.
    pot2 = HarmonicPotential(omega=1.3)
    for T, xi, xip in [(0.2, 1.1, -0.4), (1.0, -2.0, 3.5)]:
        gauge = LagrangianPoint(T=T, xi=xi, Tprime=1.0, xiprime=xip)
        assert homogeneous_lagrangian(pot2, CST, gauge) == lagrangian_t(
            pot2, CST, T, xi, xip
        )


def test_homogeneous_lagrangian_is_degree_one():
    # Ltilde(s T', s xi') = s * Ltilde(T', xi') for s > 0.
    pot = HarmonicPotential(omega=0.9)
    base_pt = LagrangianPoint(T=0.4, xi=1.2, Tprime=0.8, xiprime=-1.1)
    base = homogeneous_lagrangian(pot, CST, base_pt)
    for s in (0.5, 2.0, 7.3):
        scaled = LagrangianPoint(T=0.4, xi=1.2, Tprime=0.8 * s, xiprime=-1.1 * s)
        assert homogeneous_lagrangian(pot, CST, scaled) == pytest.approx(
            s * base, rel=1e-14
        )


def test_momenta_closed_forms_worked_example():
    pot = _ConstPotential(3.0)
    pt = LagrangianPoint(T=0.0, xi=0.7, Tprime=0.5, xiprime=1.0)
    pi, pi_T = momenta_tau(pot, CST, pt)
    # pi = m xi'/T' = 2 and pi_T = -m xi'^2/(2 T'^2) - V = -2 - 3 = -5.
    assert pi == 2.0
    assert pi_T == -5.0


def test_momenta_match_finite_difference_of_lagrangian():
    pot = MovingWellPotential(center0=0.3, velocity=0.4, stiffness=1.7)
    pt = LagrangianPoint(T=0.9, xi=-0.6, Tprime=1.4, xiprime=0.8)
    pi, pi_T = momenta_tau(pot, CST, pt)
    h = 1e-6

    def lt(tp, xp):
        return homogeneous_lagrangian(
            pot, CST, LagrangianPoint(T=pt.T, xi=pt.xi, Tprime=tp, xiprime=xp)
        )

    fd_pi = (lt(pt.Tprime, pt.xiprime + h) - lt(pt.Tprime, pt.xiprime - h)) / (2 * h)
    fd_pi_T = (lt(pt.Tprime + h, pt.xiprime) - lt(pt.Tprime - h, pt.xiprime)) / (2 * h)
    assert pi == pytest.approx(fd_pi, abs=1e-7)
    assert pi_T == pytest.approx(fd_pi_T, abs=1e-7)


def test_euler_homogeneity_worked_and_random_points():
    rng = np.random.default_rng(7)
    pot = HarmonicPotential(omega=1.0)
    pt = LagrangianPoint(T=0.3, xi=1.5, Tprime=0.7, xiprime=-0.9)
    assert abs(check_euler_homogeneity(pot, CST, pt)) < 1e-8
    for _ in range(40):
        pt = LagrangianPoint(
            T=float(rng.uniform(-2, 2)),
            xi=float(rng.uniform(-3, 3)),
            Tprime=float(rng.uniform(0.2, 3.0)),
            xiprime=float(rng.uniform(-3, 3)),
        )
        assert abs(check_euler_homogeneity(pot, CST, pt)) < 1e-7


def test_euler_homogeneity_residual_scales_quadratically_in_step():
    # The defect of the degree-one identity is pure finite-difference
    # truncation, so it must shrink like h^2 over successive decades.
    pot = MovingWellPotential(center0=0.0, velocity=1.0, stiffness=2.0)
    pt = LagrangianPoint(T=0.8, xi=1.3, Tprime=0.6, xiprime=2.2)
    res = [abs(check_euler_homogeneity(pot, CST, pt, h=h)) for h in (1e-4, 1e-5, 1e-6)]
    assert res[0] / res[1] == pytest.approx(100.0, rel=0.5)
    assert res[1] / res[2] == pytest.approx(100.0, rel=0.5)


def test_euler_homogeneity_residual_is_the_exact_stencil_truncation():
    # In exact arithmetic the central-difference stencil leaves
    # -m xi'^2 h^2 / (2 T' (T'^2 - h^2)); the check must return that value
    # rounded, on every platform and at every step.
    constants = PhysicalConstants(mass=1.7)
    pot = MovingWellPotential(center0=0.0, velocity=1.0, stiffness=2.0)
    for tp, xip in ((0.6, 2.2), (2.5, -0.3), (0.2, 3.0)):
        pt = LagrangianPoint(T=0.8, xi=1.3, Tprime=tp, xiprime=xip)
        for h in (1e-4, 1e-5, 1e-6):
            exact = -constants.mass * xip**2 * h**2 / (2 * tp * (tp**2 - h**2))
            got = check_euler_homogeneity(pot, constants, pt, h=h)
            assert got == pytest.approx(exact, rel=1e-12)


def test_euler_homogeneity_step_validation():
    pot = FreePotential()
    pt = LagrangianPoint(T=0.0, xi=0.0, Tprime=0.5, xiprime=1.0)
    with pytest.raises(ValidationError, match="step"):
        check_euler_homogeneity(pot, CST, pt, h=0.0)
    with pytest.raises(ValidationError, match="step"):
        check_euler_homogeneity(pot, CST, pt, h=1.0)  # stencil would cross T' = 0


def test_constraint_vanishes_identically():
    # Worked point arranged so every intermediate is exactly representable:
    # equal ramp plateaus pin the clock rate to exactly 1.5, and the
    # harmonic potential at xi = 2 is exactly 2.
    timemap = SmoothRampMap(
        rate_start=1.5, rate_end=1.5, center=0.0, sharpness=0.3, domain=(-1.0, 1.0)
    )
    pot = HarmonicPotential(omega=1.0)
    assert check_constraint(pot, CST, timemap, 0.5, 2.0, 0.75) == 0.0
    # Random sweep across map/potential pairs.
    rng = np.random.default_rng(11)
    maps = [
        IdentityMap(domain=(0.0, 6.0)),
        LinearMap(alpha=2.0, domain=(0.0, 6.0)),
        SinePerturbedMap(amplitude=0.3, frequency=1.0, domain=(0.0, 6.0)),
    ]
    pots = [FreePotential(), pot, MovingWellPotential(center0=0.1, velocity=0.2)]
    for m in maps:
        lo, hi = m.domain
        for p in pots:
            for _ in range(25):
                tau = float(rng.uniform(lo, hi))
                xi = float(rng.uniform(-2, 2))
                xip = float(rng.uniform(-2, 2))
                assert abs(check_constraint(p, CST, m, tau, xi, xip)) < 1e-12


def test_constraint_rejects_out_of_domain_clock():
    m = LinearMap(alpha=2.0, domain=(0.0, 1.0))
    with pytest.raises(ClockDomainError, match="domain"):
        check_constraint(FreePotential(), CST, m, 3.0, 0.0, 1.0)


def test_hamiltonians_and_reparametrized_scaling():
    pot = _ConstPotential(1.0)
    assert hamiltonian_t(pot, CST, 0.0, 0.0, 3.0) == 5.5
    m = LinearMap(alpha=0.5, domain=(0.0, 2.0))  # rate is exactly 2
    assert hamiltonian_tau(pot, CST, m, 1.0, 0.0, 3.0) == 11.0
    with pytest.raises(ClockDomainError):
        hamiltonian_tau(pot, CST, m, 5.0, 0.0, 3.0)


def test_integrate_t_free_particle_and_harmonic_oracles():
    free = integrate_t(FreePotential(), CST, 0.5, 2.0, (0.0, 3.0))
    assert free.clock_kind is ClockKind.CONVENTIONAL_T
    assert_allclose(free.q, 0.5 + 2.0 * free.clocks, rtol=0, atol=1e-7)
    assert_allclose(free.pm, 2.0, rtol=0, atol=1e-9)

    osc = integrate_t(
        HarmonicPotential(omega=1.0), CST, 1.0, 0.0, (0.0, 2.0 * math.pi), tol=1e-11
    )
    assert_allclose(osc.q, np.cos(osc.clocks), rtol=0, atol=1e-9)
    assert_allclose(osc.pm, -np.sin(osc.clocks), rtol=0, atol=1e-9)


def test_integrate_tau_identity_matches_conventional_run():
    pot = HarmonicPotential(omega=1.0)
    direct = integrate_t(pot, CST, 1.0, 0.5, (0.0, 5.0), tol=1e-12)
    viatau = integrate_tau(
        pot, CST, IdentityMap(domain=(0.0, 5.0)), 1.0, 0.5, (0.0, 5.0), tol=1e-12
    )
    assert viatau.clock_kind is ClockKind.PARAMETER_TAU
    # The identity relabeling yields the same right-hand side, so the
    # adaptive integrator retraces the same solution.
    assert_allclose(viatau.clocks, direct.clocks, rtol=0, atol=1e-12)
    assert_allclose(viatau.q, direct.q, rtol=0, atol=1e-10)
    assert_allclose(viatau.pm, direct.pm, rtol=0, atol=1e-10)
    assert_allclose(viatau.t_values(), viatau.clocks, rtol=0, atol=0)


def test_integrate_tau_linear_map_stretches_the_orbit():
    # With T = tau/2 the oscillator needs 4*pi of parameter time per period.
    pot = HarmonicPotential(omega=1.0)
    m = LinearMap(alpha=2.0, domain=(0.0, 4.0 * math.pi))
    run = integrate_tau(pot, CST, m, 1.0, 0.0, (0.0, 4.0 * math.pi), tol=1e-11)
    assert_allclose(run.q, np.cos(run.clocks / 2.0), rtol=0, atol=1e-8)
    assert run.q[-1] == pytest.approx(1.0, abs=1e-8)


def test_trajectory_equivalence_bound_tightens_with_tolerance():
    pot = MovingWellPotential(center0=0.0, velocity=0.3, stiffness=1.5)
    m = SinePerturbedMap(amplitude=0.3, frequency=1.0, domain=(0.0, 6.0))
    errs = {}
    for tol in (1e-6, 1e-9, 1e-12):
        ttraj = integrate_t(pot, CST, 0.4, -0.2, (0.0, 6.0), tol=tol)
        tautraj = integrate_tau(pot, CST, m, 0.4, -0.2, (0.0, 6.0), tol=tol)
        errs[tol] = trajectory_equivalence(ttraj, tautraj, m)
    assert errs[1e-6] < 1e-3
    assert errs[1e-9] < 1e-5
    assert errs[1e-12] < errs[1e-6]


def test_trajectory_equivalence_input_checks():
    pot = FreePotential()
    m = IdentityMap(domain=(0.0, 2.0))
    tautraj = integrate_tau(pot, CST, m, 0.0, 1.0, (0.0, 2.0))
    ttraj = integrate_t(pot, CST, 0.0, 1.0, (0.0, 2.0))
    with pytest.raises(ValidationError, match="conventional-clock"):
        trajectory_equivalence(tautraj, tautraj, m)
    with pytest.raises(ValidationError, match="relabeled-clock"):
        trajectory_equivalence(ttraj, ttraj, m)
    # The conventional run must cover the image of the parameter window.
    short = integrate_t(pot, CST, 0.0, 1.0, (0.0, 1.0))
    with pytest.raises(CoverageError, match="cover"):
        trajectory_equivalence(short, tautraj, m)


def test_momentum_transform_between_clocks():
    # pi = m xi'/T' equals the conventional momentum at the mapped instant,
    # so a tau-run's pm samples match p(T(tau)) = -sin(T) for this orbit.
    pot = HarmonicPotential(omega=1.0)
    m = LinearMap(alpha=2.0, domain=(0.0, 2.0 * math.pi))
    tautraj = integrate_tau(pot, CST, m, 1.0, 0.0, (0.0, 2.0 * math.pi), tol=1e-11)
    assert_allclose(tautraj.pm, -np.sin(tautraj.t_values()), rtol=0, atol=1e-8)


def test_integrate_tau_rejects_span_outside_domain():
    m = LinearMap(alpha=2.0, domain=(0.0, 1.0))
    with pytest.raises(ClockDomainError, match="domain"):
        integrate_tau(FreePotential(), CST, m, 0.0, 1.0, (0.0, 2.0))


def test_trajectory_validation():
    with pytest.raises(ClockDomainError):
        LagrangianPoint(T=0.0, xi=0.0, Tprime=-1.0, xiprime=0.0)
    with pytest.raises(ValidationError):
        LagrangianPoint(T=float("nan"), xi=0.0, Tprime=1.0, xiprime=0.0)
    with pytest.raises(ValidationError, match="increasing"):
        Trajectory(
            clock_kind=ClockKind.CONVENTIONAL_T,
            clocks=np.array([0.0, 0.0, 1.0]),
            q=np.zeros(3),
            pm=np.zeros(3),
        )
    with pytest.raises(ValidationError, match="timemap"):
        Trajectory(
            clock_kind=ClockKind.PARAMETER_TAU,
            clocks=np.array([0.0, 1.0]),
            q=np.zeros(2),
            pm=np.zeros(2),
        )
