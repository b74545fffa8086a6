"""Reparametrized classical mechanics: Lagrangians, momenta, constraint, orbits."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from reclock import classical
from reclock.errors import ClockDomainError, CoverageError, NumericalError, ValidationError
from reclock.classical import (
    MIN_TOL,
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
    assert free.timemap is None
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
    assert viatau.timemap is not None
    # The identity relabeling yields the same right-hand side, so the
    # adaptive integrator retraces the same solution.
    assert_allclose(viatau.clocks, direct.clocks, rtol=0, atol=1e-12)
    assert_allclose(viatau.q, direct.q, rtol=0, atol=1e-10)
    assert_allclose(viatau.pm, direct.pm, rtol=0, atol=1e-10)
    assert_allclose(viatau.t, viatau.clocks, rtol=0, atol=0)


def test_integrate_tau_linear_map_stretches_the_orbit():
    # With T = tau/2 the oscillator needs 4*pi of parameter time per period.
    pot = HarmonicPotential(omega=1.0)
    m = LinearMap(alpha=2.0, domain=(0.0, 4.0 * math.pi))
    run = integrate_tau(pot, CST, m, 1.0, 0.0, (0.0, 4.0 * math.pi), tol=1e-11)
    assert_allclose(run.q, np.cos(run.clocks / 2.0), rtol=0, atol=1e-8)
    assert run.q[-1] == pytest.approx(1.0, abs=1e-8)


def test_only_a_conventional_run_keeps_a_dense_interpolant():
    # trajectory_equivalence reads the conventional run between its samples
    # and a relabeled run only at its own.
    pot = HarmonicPotential(omega=1.0)
    m = LinearMap(alpha=2.0, domain=(0.0, 2.0))
    assert integrate_tau(pot, CST, m, 1.0, 0.0, (0.0, 2.0)).dense is None
    assert integrate_t(pot, CST, 1.0, 0.0, (0.0, 1.0)).dense is not None


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


def test_trajectory_equivalence_rejects_a_map_the_orbit_did_not_run_in():
    # Read under the identity, a sine-clock orbit would give a wrong error
    # (0.296 here) instead of ~3e-11; the orbit's own readings are the only ones.
    pot = HarmonicPotential(omega=1.0)
    sine = SinePerturbedMap(amplitude=0.3, frequency=1.0, domain=(0.0, 2.0 * math.pi))
    tautraj = integrate_tau(pot, CST, sine, 1.0, 0.0, (0.0, 2.0 * math.pi), tol=1e-11)
    ttraj = integrate_t(pot, CST, 1.0, 0.0, (0.0, 2.0 * math.pi), tol=1e-11)
    assert trajectory_equivalence(ttraj, tautraj, sine) < 1e-8
    with pytest.raises(ValidationError, match="ran in"):
        trajectory_equivalence(ttraj, tautraj, LinearMap(1.0, domain=(0.0, 2.0 * math.pi)))


def test_trajectory_equivalence_needs_the_conventional_runs_interpolant():
    # A conventional trajectory built by hand carries no dense read-out.
    pot = FreePotential()
    m = IdentityMap(domain=(0.0, 2.0))
    tautraj = integrate_tau(pot, CST, m, 0.0, 1.0, (0.0, 2.0))
    bare = Trajectory(np.array([0.0, 20.0]), np.zeros(2), np.zeros(2))
    with pytest.raises(ValidationError, match="^traj_t carries no dense interpolant$"):
        trajectory_equivalence(bare, tautraj, m)


def test_momentum_transform_between_clocks():
    # pi = m xi'/T' equals the conventional momentum at the mapped instant,
    # so a tau-run's pm samples match p(T(tau)) = -sin(T) for this orbit.
    pot = HarmonicPotential(omega=1.0)
    m = LinearMap(alpha=2.0, domain=(0.0, 2.0 * math.pi))
    tautraj = integrate_tau(pot, CST, m, 1.0, 0.0, (0.0, 2.0 * math.pi), tol=1e-11)
    assert_allclose(tautraj.pm, -np.sin(tautraj.t), rtol=0, atol=1e-8)


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
            clocks=np.array([0.0, 0.0, 1.0]),
            q=np.zeros(3),
            pm=np.zeros(3),
        )


def test_hamiltonians_reject_a_non_finite_phase_space_point():
    pot, tmap = HarmonicPotential(), LinearMap(2.0)
    calls = [
        ("x", lambda: hamiltonian_tau(pot, CST, tmap, 0.5, math.inf, 1.0)),
        ("p", lambda: hamiltonian_tau(pot, CST, tmap, 0.5, 0.0, -math.inf)),
        ("p", lambda: hamiltonian_t(pot, CST, 0.0, 1.0, math.nan)),
        ("t", lambda: hamiltonian_t(pot, CST, math.inf, 1.0, 0.0)),
        ("x", lambda: hamiltonian_t(pot, CST, 0.0, "1", 0.0)),
    ]
    for name, call in calls:
        with pytest.raises(ValidationError, match=f"^{name} must be a finite real number"):
            call()


@pytest.mark.parametrize(
    "pot",
    [
        DrivenHarmonicPotential(omega0=1e154, ramp=1e160),
        MovingWellPotential(center0=1e200, stiffness=1e200),
        HarmonicPotential(omega=1e150),
    ],
    ids=["driven", "moving-well", "harmonic"],
)
@pytest.mark.parametrize("clock", ["t", "tau"])
def test_an_overflowing_orbit_is_a_numerical_error_naming_the_span(pot, clock):
    # The force, or DOP853's own step-size norms, overflow at once. Left
    # to numpy that is a RuntimeWarning, and with warnings ignored the step
    # size control can shrink the step without end.
    with pytest.raises(NumericalError, match=rf"^integration over {clock}_span \(0, 1\) failed"):
        if clock == "t":
            integrate_t(pot, CST, 0.0, 1.0, (0.0, 1.0))
        else:
            integrate_tau(pot, CST, SinePerturbedMap(0.3, 1.0), 0.0, 1.0, (0.0, 1.0))


_SINE = SinePerturbedMap(0.3, 1.0)


@pytest.mark.parametrize(
    "run, where",
    [
        # DOP853's own stage sums and step-size norms overflow: no clock is named.
        (
            lambda: integrate_t(HarmonicPotential(), CST, 1e308, 1e308, (0, 1)),
            r"t_span \(0, 1\) failed: ",
        ),
        (
            lambda: integrate_tau(HarmonicPotential(), CST, _SINE, 1e308, 1e308, (0, 1)),
            r"tau_span \(0, 1\) failed: ",
        ),
        (
            lambda: integrate_t(HarmonicPotential(), CST, 1.0, 1e300, (0, 1e10)),
            r"t_span \(0, 1e\+10\) failed: ",
        ),
        # The force overflows inside the right-hand side, which names its clock.
        (
            lambda: integrate_t(DrivenHarmonicPotential(1e154, 1e160), CST, 0.0, 1.0, (0, 1)),
            r"t_span \(0, 1\) failed at clock 0\.005: ",
        ),
        (
            lambda: integrate_tau(
                MovingWellPotential(1e200, 0, 1e200), CST, _SINE, 0.0, 1.0, (0, 1)
            ),
            r"tau_span \(0, 1\) failed at clock 0: ",
        ),
    ],
    ids=["harmonic-t", "harmonic-sine", "fast-t", "driven-t", "moving-well-sine"],
)
def test_an_overflow_names_its_span_and_only_a_force_overflow_its_clock(run, where):
    # NumPy's own wording after the prefix is not pinned.
    with pytest.raises(NumericalError, match=rf"^integration over {where}\S") as failure:
        run()
    assert isinstance(failure.value.__cause__, FloatingPointError)


_SINE_10 = SinePerturbedMap(0.3, 1.0, (10.0, 11.0))


@pytest.mark.parametrize(
    "run, where",
    [
        # Every clock of a tau run, and a t run's first, reach the potential
        # as Python floats, whose arithmetic overflows without raising.
        (
            lambda: integrate_tau(
                DrivenHarmonicPotential(1e154, 1e160), CST, _SINE, 0.0, 1.0, (0, 1)
            ),
            r"tau_span \(0, 1\) failed at clock 0\.00384615: ",
        ),
        (
            lambda: integrate_t(DrivenHarmonicPotential(1.0, 1e308), CST, 1.0, 0.0, (10.0, 11.0)),
            r"t_span \(10, 11\) failed at clock 10: ",
        ),
        (
            lambda: integrate_tau(
                DrivenHarmonicPotential(1.0, 1e308), CST, _SINE_10, 1.0, 0.0, (10.0, 11.0)
            ),
            r"tau_span \(10, 11\) failed at clock 10: ",
        ),
        (
            lambda: integrate_t(MovingWellPotential(0.0, 1e308, 1.0), CST, 1.0, 0.0, (10.0, 11.0)),
            r"t_span \(10, 11\) failed at clock 10: ",
        ),
    ],
    ids=["driven-sine", "driven-t-start", "driven-sine-start", "moving-well-t-start"],
)
def test_a_force_that_overflows_in_python_floats_names_its_clock(run, where):
    with pytest.raises(NumericalError, match=rf"^integration over {where}the force is -?inf$"):
        run()


def test_a_tol_below_the_integrators_floor_is_refused():
    # DOP853 honours no relative tolerance below 100 machine epsilons; scipy
    # would warn and clamp it, so the run would pass at a looser tol.
    assert MIN_TOL == 100 * np.finfo(float).eps
    for tol in (1e-20, MIN_TOL / 2, 0.0, -1e-10):
        with pytest.raises(ValidationError, match="^tol must be positive and at least"):
            integrate_t(HarmonicPotential(), CST, 1.0, 0.0, (0.0, 1.0), tol=tol)
    with pytest.raises(ValidationError, match="^tol must be a finite real number"):
        integrate_t(HarmonicPotential(), CST, 1.0, 0.0, (0.0, 1.0), tol=math.nan)
    integrate_t(HarmonicPotential(), CST, 1.0, 0.0, (0.0, 1.0), tol=MIN_TOL)


@pytest.mark.parametrize("clock", ["t", "tau"])
def test_an_orbit_past_the_evaluation_cap_is_a_numerical_error_naming_the_span(
    monkeypatch, clock
):
    monkeypatch.setattr(classical, "MAX_RHS_EVALS", 200)
    message = (
        rf"^integration over {clock}_span \(0, 100\) failed: over 200 "
        r"right-hand-side evaluations$"
    )
    with pytest.raises(NumericalError, match=message):
        if clock == "t":
            integrate_t(HarmonicPotential(), CST, 1.0, 0.0, (0.0, 100.0))
        else:
            tmap = LinearMap(2.0, (0.0, 100.0))
            integrate_tau(HarmonicPotential(), CST, tmap, 1.0, 0.0, (0.0, 100.0))
    # A short orbit stays under the same cap.
    integrate_t(HarmonicPotential(), CST, 1.0, 0.0, (0.0, 1.0))
