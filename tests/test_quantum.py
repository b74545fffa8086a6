"""Crank-Nicolson propagation in both clocks and the matched-run comparison."""

import math
import os
import re
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import solve_banded

import reclock.quantum as quantum
from reclock.classical import LagrangianPoint, Trajectory, integrate_t, integrate_tau
from reclock.errors import (
    ClockDomainError,
    CoverageError,
    NumericalError,
    ValidationError,
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
    SpatialGrid,
    Wavefunction,
    prepare_gaussian,
)
from reclock.quantum import (
    CovarianceReport,
    CovarianceScenario,
    EvolutionRecord,
    PropagatorConfig,
    _step_boundaries,
    apply_hamiltonian,
    covariance_experiment,
    expectation_energy,
    expectation_position,
    fidelity,
    position_variance,
    propagate_rescaled,
    propagate_t,
    propagate_tau,
    residual_check,
)

CST = PhysicalConstants()
GRID = SpatialGrid(-12.0, 12.0, 512)
GROUND = prepare_gaussian(GRID, 0.0, 1.0)


class _ScalarPotential(PotentialSpec):
    """Returns plain floats regardless of input shape (worst-case client)."""

    def value(self, t, x):
        return 0.25

    def gradient_x(self, t, x):
        return 0.0


def test_propagator_config_validation():
    cfg = PropagatorConfig(dt=1e-3)
    assert cfg.record_every == 1
    with pytest.raises(ValidationError, match="dt"):
        PropagatorConfig(dt=0.0)
    for every in (0, float("inf"), float("nan"), "3", 10**400):
        with pytest.raises(ValidationError, match="record_every"):
            PropagatorConfig(dt=1e-3, record_every=every)


@pytest.mark.parametrize(
    "bad", ["2", None, 10**400, math.inf, True], ids=["str", "None", "huge", "inf", "bool"]
)
def test_every_number_field_rejects_non_numbers_and_overflow(bad):
    # Each call names the rejected field in a ValidationError: no stray
    # TypeError or OverflowError from the check, and no scipy ValueError.
    calls = [
        ("hbar", lambda: PhysicalConstants(hbar=bad)),
        ("mass", lambda: PhysicalConstants(mass=bad)),
        ("alpha", lambda: LinearMap(alpha=bad)),
        ("domain", lambda: LinearMap(alpha=1.0, domain=(0.0, bad))),
        ("amplitude", lambda: SinePerturbedMap(amplitude=bad, frequency=0.5)),
        ("frequency", lambda: SinePerturbedMap(amplitude=0.5, frequency=bad)),
        ("rate_start", lambda: SmoothRampMap(bad, 2.0, 0.5, 0.1)),
        ("rate_end", lambda: SmoothRampMap(1.0, bad, 0.5, 0.1)),
        ("center", lambda: SmoothRampMap(1.0, 2.0, bad, 0.1)),
        ("sharpness", lambda: SmoothRampMap(1.0, 2.0, 0.5, bad)),
        ("omega", lambda: HarmonicPotential(omega=bad)),
        ("omega0", lambda: DrivenHarmonicPotential(omega0=bad)),
        ("ramp", lambda: DrivenHarmonicPotential(ramp=bad)),
        ("center0", lambda: MovingWellPotential(center0=bad)),
        ("velocity", lambda: MovingWellPotential(velocity=bad)),
        ("stiffness", lambda: MovingWellPotential(stiffness=bad)),
        ("x_min", lambda: SpatialGrid(bad, 1.0, 16)),
        ("x_max", lambda: SpatialGrid(-1.0, bad, 16)),
        ("width", lambda: prepare_gaussian(GRID, 0.0, bad)),
        ("center", lambda: prepare_gaussian(GRID, bad, 1.0)),
        ("momentum", lambda: prepare_gaussian(GRID, 0.0, 1.0, bad)),
        ("dt", lambda: PropagatorConfig(dt=bad)),
        ("alpha", lambda: propagate_rescaled(
            GROUND, FreePotential(), CST, bad, (0.0, 1.0), PropagatorConfig(dt=0.1)
        )),
        ("LagrangianPoint.T", lambda: LagrangianPoint(T=bad, xi=0.0, Tprime=1.0, xiprime=0.0)),
        ("tol", lambda: integrate_t(FreePotential(), CST, 0.0, 1.0, (0.0, 1.0), tol=bad)),
        ("initial position", lambda: integrate_t(FreePotential(), CST, bad, 1.0, (0.0, 1.0))),
        ("initial momentum", lambda: integrate_tau(
            FreePotential(), CST, IdentityMap(), 0.0, bad, (0.0, 1.0)
        )),
    ]
    for field, call in calls:
        with pytest.raises(ValidationError, match=field):
            call()


@pytest.mark.parametrize("span", [(0.0, math.inf), ("a", "b"), 3], ids=["inf", "str", "scalar"])
def test_every_span_is_a_finite_increasing_pair(span):
    # Each entry point names its span field; on a bad span none of them
    # runs, overflows, or integrates towards infinity.
    tmap = IdentityMap(domain=(0.0, 1.0))
    cfg = PropagatorConfig(dt=0.1)
    pot = HarmonicPotential()
    experiment = CovarianceScenario(CST, pot, tmap, GROUND, span, cfg)
    calls = [
        ("t_span", lambda: propagate_t(GROUND, pot, CST, span, cfg)),
        ("tau_span", lambda: propagate_tau(GROUND, pot, CST, tmap, span, cfg)),
        ("tau_span", lambda: covariance_experiment(experiment)),
        ("t_span", lambda: integrate_t(pot, CST, 1.0, 0.0, span)),
        ("tau_span", lambda: integrate_tau(pot, CST, tmap, 1.0, 0.0, span)),
    ]
    for field, call in calls:
        with pytest.raises(ValidationError, match=field):
            call()


def test_apply_hamiltonian_ground_state_eigenrelation():
    hpsi = apply_hamiltonian(GROUND, HarmonicPotential(), CST, 0.0)
    # H psi0 = (hbar omega / 2) psi0 up to grid discretization.
    assert float(np.max(np.abs(hpsi.amplitudes - 0.5 * GROUND.amplitudes))) < 5e-4


def test_apply_hamiltonian_constant_interior_and_linearity():
    amps = np.ones(GRID.n_points, dtype=complex)
    amps[0] = amps[-1] = 0.0
    flat = Wavefunction(GRID, amps)
    kin_only = apply_hamiltonian(flat, FreePotential(), CST, 0.0)
    # Second difference of a constant vanishes away from the walls.
    assert np.max(np.abs(kin_only.amplitudes[2:-2])) == 0.0

    a, b = 0.7 - 0.2j, -1.3 + 0.5j
    psi = prepare_gaussian(GRID, 0.5, 1.0)
    chi = prepare_gaussian(GRID, -0.5, 1.2, momentum=1.0)
    pot = HarmonicPotential()
    combo = Wavefunction(GRID, a * psi.amplitudes + b * chi.amplitudes)
    lhs = apply_hamiltonian(combo, pot, CST, 0.0).amplitudes
    rhs = (
        a * apply_hamiltonian(psi, pot, CST, 0.0).amplitudes
        + b * apply_hamiltonian(chi, pot, CST, 0.0).amplitudes
    )
    assert float(np.max(np.abs(lhs - rhs))) < 1e-13


def test_apply_hamiltonian_accepts_scalar_potential_values():
    out = apply_hamiltonian(GROUND, _ScalarPotential(), CST, 0.0)
    # A scalar V broadcasts to the interior: result is kinetic + 0.25 psi.
    expected = apply_hamiltonian(GROUND, FreePotential(), CST, 0.0).amplitudes.copy()
    expected[1:-1] += 0.25 * GROUND.amplitudes[1:-1]
    assert_allclose(out.amplitudes, expected, rtol=0, atol=1e-15)


def test_expectation_energy_oracles():
    assert expectation_energy(GROUND, HarmonicPotential(), CST, 0.0) == pytest.approx(
        0.5, abs=2e-4
    )
    wide = SpatialGrid(-24.0, 24.0, 1024)
    packet = prepare_gaussian(wide, 0.0, 2.0, momentum=2.0)
    # k^2/2 + 1/(8 sigma^2) with density variance sigma^2 = width^2/2 = 2.
    assert expectation_energy(packet, FreePotential(), CST, 0.0) == pytest.approx(
        2.0625, abs=1e-2
    )
    assert abs(expectation_position(GROUND)) < 1e-10


def test_fidelity_properties():
    assert fidelity(GROUND, GROUND) == pytest.approx(1.0, abs=1e-12)
    rotated = Wavefunction(GRID, GROUND.amplitudes * np.exp(1j * 0.77))
    assert fidelity(GROUND, rotated) == pytest.approx(1.0, abs=1e-12)
    # First excited state: odd, hence orthogonal to the even ground state.
    x = GRID.points()
    odd = (x * np.exp(-0.5 * x * x)).astype(complex)
    odd[0] = odd[-1] = 0.0
    odd /= math.sqrt(float(np.sum(np.abs(odd) ** 2)) * GRID.dx)
    assert fidelity(GROUND, Wavefunction(GRID, odd)) < 1e-8
    other = prepare_gaussian(SpatialGrid(-12.0, 12.0, 256), 0.0, 1.0)
    with pytest.raises(ValidationError, match="grid"):
        fidelity(GROUND, other)


def test_step_boundaries_ladder_and_landing():
    bounds = _step_boundaries(0.0, 1.0, 0.25)
    assert bounds == [0.0, 0.25, 0.5, 0.75, 1.0]
    # Landing times are inserted exactly.
    with_lm = _step_boundaries(0.0, 1.2, 0.3, landmarks=[0.5])
    assert 0.5 in with_lm
    assert with_lm == sorted(with_lm)
    # A landing time a hair away from an existing boundary replaces it
    # instead of creating a degenerate micro-step.
    lm = 0.3 + 1e-12
    snapped = _step_boundaries(0.0, 1.2, 0.3, landmarks=[lm])
    assert lm in snapped
    assert len(snapped) == len(_step_boundaries(0.0, 1.2, 0.3))
    with pytest.raises(ValidationError, match="outside"):
        _step_boundaries(0.0, 1.0, 0.25, landmarks=[1.5])
    with pytest.raises(ValidationError, match="span"):
        _step_boundaries(1.0, 0.0, 0.25)


def test_step_boundaries_rejects_landing_times_closer_than_the_snap():
    # The second time would be snapped onto the first and silently lost.
    msg = r"landing times 0\.5 and 0\.500000000001 are closer than the minimum separation 1e-10"
    with pytest.raises(ValidationError, match=msg):
        _step_boundaries(0.0, 1.0, 0.1, [0.5, 0.5 + 1e-12])
    # Just beyond the snap distance both land, each on its own boundary.
    bounds = _step_boundaries(0.0, 1.0, 0.1, [0.5, 0.5 + 2e-10])
    assert 0.5 in bounds and 0.5 + 2e-10 in bounds


def test_a_span_shorter_than_the_snap_lands_on_its_own_end():
    # The reference run always lands on b; within snap of a, b is still its
    # one step [a, b], as the tau run takes, while any earlier time is outside.
    assert _step_boundaries(0.0, 0.5, 1e9, [0.5]) == [0.0, 0.5]
    assert _step_boundaries(0.0, 1e-12, 1e-3, [1e-12]) == [0.0, 1e-12]
    with pytest.raises(ValidationError, match=r"landing time 0\.25 outside span \(0\.0, 0\.5\]"):
        _step_boundaries(0.0, 0.5, 1e9, [0.25])


def test_propagate_t_stationary_state_accrues_only_phase():
    grid = SpatialGrid(-12.0, 12.0, 768)
    psi0 = prepare_gaussian(grid, 0.0, 1.0)
    rec = propagate_t(
        psi0, HarmonicPotential(), CST, (0.0, 1.0), PropagatorConfig(dt=1e-3, record_every=10**9)
    )
    assert not rec.flags
    assert abs(fidelity(rec.final_state, psi0) - 1.0) < 1e-8
    # The phase itself is e^{-i E t / hbar}, E = 0.5 up to discretization.
    overlap = np.vdot(psi0.amplitudes, rec.final_state.amplitudes) * grid.dx
    assert np.angle(overlap) == pytest.approx(-0.5, abs=1e-3)


def test_propagate_t_norm_is_preserved():
    rec = propagate_t(
        GROUND, HarmonicPotential(), CST, (0.0, 2.0), PropagatorConfig(dt=1e-3, record_every=100)
    )
    drift = float(np.max(np.abs(rec.norms - rec.norms[0])))
    assert drift < 1e-12
    assert not rec.flags


def test_propagate_t_free_packet_spreads_at_the_analytic_rate():
    wide = SpatialGrid(-24.0, 24.0, 1024)
    psi0 = prepare_gaussian(wide, 0.0, 1.0)
    assert position_variance(psi0) == pytest.approx(0.5, abs=1e-6)
    rec = propagate_t(
        psi0, FreePotential(), CST, (0.0, 1.0), PropagatorConfig(dt=2e-3, record_every=10**9)
    )
    # sigma^2(t) = sigma0^2 + t^2 hbar^2/(4 m^2 sigma0^2) = 0.5 + 0.5 at t=1.
    assert position_variance(rec.final_state) == pytest.approx(1.0, abs=1e-3)


def test_propagate_tau_identity_map_reproduces_conventional_run():
    cfg = PropagatorConfig(dt=1e-3, record_every=100)
    span = (0.0, 0.5)
    direct = propagate_t(GROUND, HarmonicPotential(), CST, span, cfg)
    relabeled = propagate_tau(
        GROUND, HarmonicPotential(), CST, IdentityMap(domain=span), span, cfg
    )
    assert len(direct.snapshots) == len(relabeled.snapshots)
    for s, z in zip(direct.snapshots, relabeled.snapshots):
        assert s.clock == z.clock
        assert_array_equal(s.state.amplitudes, z.state.amplitudes)


def test_propagate_tau_rejects_span_outside_map_domain():
    m = LinearMap(alpha=2.0, domain=(0.0, 1.0))
    with pytest.raises(ClockDomainError, match="domain"):
        propagate_tau(GROUND, FreePotential(), CST, m, (0.0, 2.0), PropagatorConfig(dt=1e-3))


def test_propagate_rescaled_alpha_one_is_the_plain_run():
    cfg = PropagatorConfig(dt=1e-3, record_every=100)
    plain = propagate_t(GROUND, HarmonicPotential(), CST, (0.0, 0.5), cfg)
    scaled = propagate_rescaled(GROUND, HarmonicPotential(), CST, 1.0, (0.0, 0.5), cfg)
    assert_array_equal(plain.final_state.amplitudes, scaled.final_state.amplitudes)


def test_propagate_rescaled_is_the_linear_relabeling():
    # alpha * H(alpha t) is the T(tau) = alpha*tau relabeling, so the two
    # entry points must produce the same record float for float.
    cfg = PropagatorConfig(dt=1e-3, record_every=50)
    span = (0.0, 0.5)
    scaled = propagate_rescaled(GROUND, HarmonicPotential(), CST, 2.0, span, cfg)
    relabeled = propagate_tau(
        GROUND, HarmonicPotential(), CST, LinearMap(alpha=0.5, domain=span), span, cfg
    )
    for s, z in zip(scaled.snapshots, relabeled.snapshots):
        assert_array_equal(s.state.amplitudes, z.state.amplitudes)
    with pytest.raises(ValidationError, match="alpha"):
        propagate_rescaled(GROUND, FreePotential(), CST, 0.0, span, cfg)


def test_propagate_rescaled_energy_carries_the_alpha_factor():
    cfg = PropagatorConfig(dt=5e-4, record_every=10**9)
    psi0 = prepare_gaussian(GRID, 1.0, 1.0)
    pot = HarmonicPotential()
    scaled = propagate_rescaled(psi0, pot, CST, 2.0, (0.0, 0.5), cfg)
    matched = propagate_t(psi0, pot, CST, (0.0, 1.0), cfg)
    e_alpha = scaled.snapshots[-1].energy
    e_ref = expectation_energy(matched.final_state, pot, CST, 1.0)
    assert e_alpha == pytest.approx(2.0 * e_ref, rel=1e-6)


def test_wall_collision_sets_flags():
    grid = SpatialGrid(-12.0, 12.0, 256)
    fast = prepare_gaussian(grid, 0.0, 1.0, momentum=8.0)
    rec = propagate_t(
        fast, FreePotential(), CST, (0.0, 2.0), PropagatorConfig(dt=1e-3, record_every=200)
    )
    assert rec.flags
    assert any("edge-leak" in f for f in rec.flags)


def test_leak_flags_are_the_per_record_formulas():
    # The monitors run on blocks of records; the flags must be those that
    # per-record sums give, in the same order and with the same digits.
    grid = SpatialGrid(-12.0, 12.0, 256)
    cfg = PropagatorConfig(dt=1e-3, record_every=200)
    fast = prepare_gaussian(grid, 0.0, 1.0, momentum=8.0)
    rec = propagate_t(fast, FreePotential(), CST, (0.0, 2.0), cfg)
    x = grid.points()
    width = (grid.x_max - grid.x_min) * quantum.EDGE_GUARD
    strip = (x <= grid.x_min + width) | (x >= grid.x_max - width)
    expected = []
    for clock, amps in zip(rec.clocks.tolist(), rec.amplitudes):
        drift = abs(Wavefunction(grid, amps).norm() - fast.norm())
        if drift > quantum.NORM_DRIFT_TOL:
            expected.append(f"norm-drift {drift:.3e} at clock {clock:.6g}")
        leak = float(np.sum(np.abs(amps[strip]) ** 2) * grid.dx)
        if leak >= quantum.EDGE_MASS_TOL:
            expected.append(f"edge-leak {leak:.3e} at clock {clock:.6g}")
    assert list(rec.flags) == expected == [
        "edge-leak 1.800e-06 at clock 0.8",
        "edge-leak 3.439e-03 at clock 1",
        "edge-leak 1.678e-01 at clock 1.2",
        "edge-leak 7.084e-01 at clock 1.4",
        "edge-leak 9.574e-01 at clock 1.6",
        "edge-leak 8.809e-01 at clock 1.8",
        "edge-leak 4.624e-01 at clock 2",
    ]


def test_snapshots_view_rebuilds_each_row():
    rec = propagate_t(
        GROUND, HarmonicPotential(), CST, (0.0, 0.1), PropagatorConfig(dt=1e-3, record_every=7)
    )
    snaps = rec.snapshots
    assert len(snaps) == len(rec.clocks) == rec.amplitudes.shape[0] > 2
    for i, snap in enumerate(snaps):
        assert np.array_equal(snap.state.amplitudes, rec.amplitudes[i])
        assert snap.clock == rec.clocks[i]
        assert (snap.norm, snap.energy) == (rec.norms[i], rec.energies[i])
    assert np.array_equal(rec.final_state.amplitudes, rec.amplitudes[-1])
    for column in (rec.amplitudes, rec.clocks, rec.rates, rec.t, rec.norms, rec.energies):
        assert not column.flags.writeable


def test_residual_check_is_second_order():
    pot = HarmonicPotential()
    runs = {
        dt: propagate_t(GROUND, pot, CST, (0.0, 0.1), PropagatorConfig(dt=dt))
        for dt in (1e-3, 5e-4)
    }
    res_coarse = residual_check(runs[1e-3], pot, CST)
    res_fine = residual_check(runs[5e-4], pot, CST)
    assert res_coarse < 1e-5
    assert res_coarse / res_fine == pytest.approx(4.0, rel=0.2)


def test_residual_check_matches_between_identical_runs():
    pot = HarmonicPotential()
    cfg = PropagatorConfig(dt=1e-3)
    span = (0.0, 0.05)
    direct = propagate_t(GROUND, pot, CST, span, cfg)
    relabeled = propagate_tau(GROUND, pot, CST, IdentityMap(domain=span), span, cfg)
    assert residual_check(direct, pot, CST) == residual_check(relabeled, pot, CST)


def _record_of_ground_states(clocks):
    """A conventional-clock record holding GROUND at each clock, norm 1, energy 0.5."""
    k = len(clocks)
    return EvolutionRecord(
        grid=GRID,
        clocks=clocks,
        rates=np.ones(k),
        t=clocks,
        amplitudes=np.tile(GROUND.amplitudes, (k, 1)),
        norms=np.ones(k),
        energies=np.full(k, 0.5),
    )


def test_records_freeze_views_and_leave_the_callers_arrays_writeable():
    clocks, ones = np.arange(3.0), np.ones(3)
    amps = np.tile(GROUND.amplitudes, (3, 1))
    rec = EvolutionRecord(GRID, clocks, ones, clocks, amps, ones, ones)
    traj = Trajectory(clocks, ones, ones)
    report = CovarianceReport(clocks, clocks, ones, ones, ones, ones, ones, ones, ones)
    assert clocks.flags.writeable and ones.flags.writeable and amps.flags.writeable
    frozen = [v for r in (rec, traj, report) for v in vars(r).values() if isinstance(v, np.ndarray)]
    assert len(frozen) == 6 + 4 + 9
    assert not any(arr.flags.writeable for arr in frozen)
    # The amplitude block is shared, not copied.
    assert np.shares_memory(rec.amplitudes, amps)


def test_records_compare_by_identity():
    # Field-wise equality would test arrays for truth and raise NumPy's
    # "ambiguous" ValueError; hashing would raise a TypeError.
    clocks, ones = np.arange(3.0), np.ones(3)
    amps = np.tile(GROUND.amplitudes, (3, 1))
    pairs = [
        [EvolutionRecord(GRID, clocks, ones, clocks, amps, ones, ones) for _ in range(2)],
        [integrate_t(HarmonicPotential(), CST, 1.0, 0.0, (0.0, 1.0)) for _ in range(2)],
        [CovarianceReport(clocks, clocks, ones, ones, ones, ones, ones, ones, ones) for _ in range(2)],
        [Wavefunction(GRID, GROUND.amplitudes) for _ in range(2)],
    ]
    for a, b in pairs:
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2


def test_overflowing_step_arithmetic_is_a_reclock_error():
    # A clock rate whose product with the generator overflows, and a dt
    # whose step count overflows, fail by name instead of as a numpy
    # RuntimeWarning or a bare OverflowError.
    grid = SpatialGrid(-12.0, 12.0, 64)
    psi0, pot = prepare_gaussian(grid, 0.0, 1.0), HarmonicPotential()
    fast = LinearMap(1e-307, (0.0, 0.01))
    with pytest.raises(NumericalError, match=r"clock rate up to 1e\+307, dt = 0\.001"):
        propagate_tau(psi0, pot, CST, fast, (0.0, 0.01), PropagatorConfig(dt=1e-3))
    with pytest.raises(ValidationError, match="^dt = 1e-320 is too small"):
        _step_boundaries(0.0, 1.0, 1e-320)
    with pytest.raises(ValidationError, match="^dt = 1e-320 is too small"):
        propagate_t(psi0, pot, CST, (0.0, 1.0), PropagatorConfig(dt=1e-320))


def test_a_step_count_past_the_cap_is_rejected_before_the_ladder_is_built():
    # 1e18 steps would ask numpy for exabytes; one step past the cap is
    # rejected just the same, before any allocation.
    with pytest.raises(ValidationError, match="^dt = 1e-18 is too small"):
        _step_boundaries(0.0, 1.0, 1e-18)
    with pytest.raises(ValidationError, match="^dt = 1.0 is too small .*10000001 steps"):
        _step_boundaries(0.0, float(quantum.MAX_STEPS + 1), 1.0)


def test_a_kinetic_weight_past_the_float_range_is_a_numerical_error():
    # hbar**2 overflows, and on a tiny box dx**2 underflows to zero; both
    # fail by name instead of as a bare OverflowError or ZeroDivisionError.
    cfg = PropagatorConfig(dt=1e-3)
    big = PhysicalConstants(hbar=1e200)
    psi0 = prepare_gaussian(SpatialGrid(-12.0, 12.0, 64), 0.0, 1.0, 0.0, big)
    with pytest.raises(NumericalError, match=r"not finite for hbar = 1e\+200, mass = 1\.0 and dx"):
        propagate_t(psi0, HarmonicPotential(), big, (0.0, 0.01), cfg)
    tiny = SpatialGrid(0.0, 1e-190, 64)
    amps = np.zeros(64, dtype=complex)
    amps[1:-1] = 1.0
    psi0 = Wavefunction(tiny, amps)
    with pytest.raises(NumericalError, match=re.escape(f"and dx = {tiny.dx!r}")):
        propagate_t(psi0, FreePotential(), CST, (0.0, 0.01), cfg)
    with pytest.raises(NumericalError, match="kinetic weight"):
        apply_hamiltonian(psi0, FreePotential(), CST, 0.0)


def test_residual_check_input_validation():
    pot = FreePotential()
    rec = propagate_t(
        GROUND, pot, CST, (0.0, 0.01), PropagatorConfig(dt=1e-2, record_every=1)
    )
    with pytest.raises(ValidationError, match="3 snapshots"):
        residual_check(rec, pot, CST)
    # Snapshots present but no uniformly spaced triple to difference.
    lopsided = _record_of_ground_states((0.0, 1.0, 1.5))
    with pytest.raises(ValidationError, match="uniform"):
        residual_check(lopsided, pot, CST)


def test_covariance_identity_map_is_exact():
    scenario = CovarianceScenario(
        constants=CST,
        potential=HarmonicPotential(),
        timemap=IdentityMap(domain=(0.0, 0.2)),
        initial_state=GROUND,
        tau_span=(0.0, 0.2),
        config=PropagatorConfig(dt=1e-3, record_every=10),
    )
    report = covariance_experiment(scenario)
    assert not report.flags
    assert abs(report.min_fidelity - 1.0) < 1e-12
    assert report.max_energy_transform_residual == 0.0
    assert report.max_norm_deviation < 1e-12
    assert_array_equal(report.t, report.tau)
    assert_allclose(report.tprime, 1.0, rtol=0, atol=0)
    for s, z in zip(report.t_record.snapshots, report.tau_record.snapshots):
        assert_array_equal(s.state.amplitudes, z.state.amplitudes)


def test_covariance_nontrivial_map_tracks_the_reference():
    scenario = CovarianceScenario(
        constants=CST,
        potential=HarmonicPotential(),
        timemap=SinePerturbedMap(amplitude=0.3, frequency=1.0, domain=(0.0, 1.0)),
        initial_state=prepare_gaussian(GRID, 1.0, 1.0),
        tau_span=(0.0, 1.0),
        config=PropagatorConfig(dt=1e-3, record_every=100),
    )
    report = covariance_experiment(scenario)
    assert report.min_fidelity > 1.0 - 1e-5
    assert report.max_energy_transform_residual < 1e-6
    # The comparison grid follows T, not tau.
    assert_allclose(
        report.t, report.tau + 0.3 * np.sin(report.tau), rtol=0, atol=1e-12
    )


def test_covariance_rejects_unnormalized_initial_state():
    tiny = Wavefunction(GRID, GROUND.amplitudes * 0.5)
    scenario = CovarianceScenario(
        constants=CST,
        potential=FreePotential(),
        timemap=IdentityMap(domain=(0.0, 0.1)),
        initial_state=tiny,
        tau_span=(0.0, 0.1),
        config=PropagatorConfig(dt=1e-2),
    )
    with pytest.raises(ValidationError, match="normalized"):
        covariance_experiment(scenario)


def test_covariance_report_rejects_out_of_range_fidelity():
    one = np.array([0.0])
    with pytest.raises(NumericalError, match="fidelity"):
        CovarianceReport(
            tau=one,
            t=one,
            tprime=one + 1.0,
            fidelity=np.array([1.1]),
            norm_psi=one + 1.0,
            norm_phi=one + 1.0,
            energy_t=one,
            energy_tau=one,
            energy_transform_residual=one,
        )


def test_evolution_record_validation():
    with pytest.raises(ValidationError, match="at least one"):
        _record_of_ground_states(())
    with pytest.raises(ValidationError, match="increasing"):
        _record_of_ground_states((0.0, 0.0))
    with pytest.raises(ValidationError, match=r"one entry per sample in norms, got shape \(3,\)"):
        replace(_record_of_ground_states((0.0, 1.0)), norms=np.ones(3))


def _banded_reference_run(psi0, pot, span, cfg, timemap=None, landmarks=(), landmarks_only=False):
    """Crank-Nicolson as first written: the (3, m) band matrix handed to
    scipy's ``solve_banded``. Returns (clock, amplitudes, energy) for every
    recorded step, for float-for-float comparison with the library kernel."""
    grid = psi0.grid
    hbar, dx = CST.hbar, grid.dx
    x_int = grid.points()[1:-1]
    kin = hbar**2 / (2.0 * CST.mass * dx**2)
    m = grid.n_points - 2
    bounds = _step_boundaries(span[0], span[1], cfg.dt, landmarks)
    last = len(bounds) - 1
    if landmarks_only:
        lmset = set(float(v) for v in landmarks)
        record_at = {0} | {i for i, bv in enumerate(bounds) if bv in lmset}
    else:
        record_at = set(range(0, last + 1, cfg.record_every)) | {last}

    def generator_at(clock):
        if timemap is None:
            return 1.0, clock
        return float(timemap.rate(clock)), float(timemap.value(clock))

    def potential(t):
        v = np.asarray(pot.value(t, x_int), dtype=float)
        return np.full(x_int.shape, float(v)) if v.ndim == 0 else v

    def record(clock, amps):
        pref, teval = generator_at(clock)
        h = np.zeros_like(amps)
        h[1:-1] = -kin * (amps[2:] - 2.0 * amps[1:-1] + amps[:-2]) + potential(teval) * amps[1:-1]
        energy = pref * float(np.real(np.vdot(amps, h)) * dx)
        return clock, amps, energy

    amps = np.array(psi0.amplitudes, dtype=complex)
    out = [record(bounds[0], amps)]
    u = amps[1:-1].copy()
    ab = np.empty((3, m), dtype=complex)
    for n in range(last):
        step = bounds[n + 1] - bounds[n]
        mid = bounds[n] + 0.5 * step
        pref, teval = generator_at(mid)
        diag = pref * (2.0 * kin + potential(teval))
        off = -pref * kin
        lam = 0.5 * step / hbar
        rhs = (1.0 - 1j * lam * diag) * u
        rhs[:-1] -= (1j * lam * off) * u[1:]
        rhs[1:] -= (1j * lam * off) * u[:-1]
        ab[0, 0] = 0.0
        ab[0, 1:] = 1j * lam * off
        ab[1, :] = 1.0 + 1j * lam * diag
        ab[2, :-1] = 1j * lam * off
        ab[2, -1] = 0.0
        u = solve_banded((1, 1), ab, rhs, check_finite=False, overwrite_b=True)
        if n + 1 in record_at:
            full = np.zeros(grid.n_points, dtype=complex)
            full[1:-1] = u
            out.append(record(bounds[n + 1], full))
    return out


def _assert_record_matches(record, reference):
    assert len(record.snapshots) == len(reference)
    for snap, (clock, amps, energy) in zip(record.snapshots, reference):
        assert snap.clock == clock
        assert np.array_equal(snap.state.amplitudes, amps)
        assert snap.energy == energy
        assert snap.norm == Wavefunction(snap.state.grid, amps).norm()


_EQUIV_SPAN = (0.0, 0.4)
_EQUIV_CLOCKS = {
    "identity": IdentityMap(domain=_EQUIV_SPAN),
    "linear": LinearMap(alpha=0.7, domain=_EQUIV_SPAN),
    "sine": SinePerturbedMap(amplitude=0.3, frequency=2.0, domain=_EQUIV_SPAN),
    "smooth-ramp": SmoothRampMap(
        rate_start=1.0, rate_end=1.8, center=0.2, sharpness=0.05, domain=_EQUIV_SPAN
    ),
}
_EQUIV_POTENTIALS = {
    "harmonic": HarmonicPotential(),
    "driven": DrivenHarmonicPotential(omega0=1.0, ramp=0.5),
    "moving-well": MovingWellPotential(center0=0.5, velocity=1.0, stiffness=2.0),
}


@pytest.mark.parametrize("pot_name", sorted(_EQUIV_POTENTIALS))
@pytest.mark.parametrize("clock_name", sorted(_EQUIV_CLOCKS))
def test_kernel_matches_the_banded_reference_float_for_float(clock_name, pot_name):
    tmap, pot = _EQUIV_CLOCKS[clock_name], _EQUIV_POTENTIALS[pot_name]
    psi0 = prepare_gaussian(SpatialGrid(-12.0, 12.0, 192), 0.5, 1.0, momentum=0.7)
    cfg = PropagatorConfig(dt=7e-3, record_every=6)

    _assert_record_matches(
        propagate_t(psi0, pot, CST, _EQUIV_SPAN, cfg),
        _banded_reference_run(psi0, pot, _EQUIV_SPAN, cfg),
    )
    tau_ref = _banded_reference_run(psi0, pot, _EQUIV_SPAN, cfg, timemap=tmap)
    _assert_record_matches(propagate_tau(psi0, pot, CST, tmap, _EQUIV_SPAN, cfg), tau_ref)

    report = covariance_experiment(
        CovarianceScenario(CST, pot, tmap, psi0, _EQUIV_SPAN, cfg)
    )
    _assert_record_matches(report.tau_record, tau_ref)
    t_marks = np.array([float(tmap.value(clock)) for clock, _, _ in tau_ref])
    t_ref = _banded_reference_run(
        psi0, pot, (t_marks[0], t_marks[-1]), cfg, landmarks=t_marks[1:], landmarks_only=True
    )
    _assert_record_matches(report.t_record, t_ref)
    assert np.array_equal(report.energy_t, [energy for _, _, energy in t_ref])
    assert np.array_equal(report.energy_tau, [energy for _, _, energy in tau_ref])
    if clock_name == "identity":
        assert report.max_energy_transform_residual == 0.0



@pytest.mark.parametrize("clock_name", sorted(_EQUIV_CLOCKS))
def test_the_records_read_on_demand_are_the_streamed_runs(clock_name):
    # The report's columns come from the two runs streamed record by record;
    # its records are the same runs stepped again whole, so every column
    # equals the one derived from the records, bit for bit.
    psi0 = prepare_gaussian(SpatialGrid(-12.0, 12.0, 192), 0.5, 1.0, momentum=0.7)
    cfg = PropagatorConfig(dt=1e-3, record_every=3)
    pot = _EQUIV_POTENTIALS["driven"]
    report = covariance_experiment(
        CovarianceScenario(CST, pot, _EQUIV_CLOCKS[clock_name], psi0, _EQUIV_SPAN, cfg)
    )
    tau_rec, t_rec = report.tau_record, report.t_record
    assert report.tau_record is tau_rec and report.t_record is t_rec
    # More than two blocks' worth of records, so the two streams interleave.
    block = quantum._BLOCK_POINTS // (psi0.grid.n_points - 2)
    assert len(report.tau) > 2 * block // cfg.record_every
    overlaps = [
        quantum._overlap(psi, phi, psi0.grid.dx)
        for psi, phi in zip(t_rec.amplitudes, tau_rec.amplitudes)
    ]
    assert np.array_equal(report.fidelity, overlaps)
    assert np.array_equal(report.norm_phi, tau_rec.norms)
    assert np.array_equal(report.norm_psi, t_rec.norms)
    assert np.array_equal(report.energy_tau, tau_rec.energies)
    assert np.array_equal(report.energy_t, t_rec.energies)
    assert np.array_equal(report.tprime, tau_rec.rates)
    assert np.array_equal(report.t, tau_rec.t)
    assert np.array_equal(report.tau, tau_rec.clocks)
    assert np.array_equal(report.t, t_rec.clocks)
    assert report.flags == tau_rec.flags + t_rec.flags

    columns = [getattr(report, name) for name in (
        "tau", "t", "tprime", "fidelity", "norm_psi", "norm_phi",
        "energy_t", "energy_tau", "energy_transform_residual",
    )]
    bare = CovarianceReport(*columns)
    assert bare.tau_record is None and bare.t_record is None


@pytest.mark.parametrize("clock_name", sorted(_EQUIV_CLOCKS))
def test_a_forked_covariance_equals_the_serial_one_bit_for_bit(clock_name):
    # A packet fast enough to reach the edge strip, so both runs flag edge
    # leakage, and enough records that the t run's child steps blocks ahead.
    psi0 = prepare_gaussian(SpatialGrid(-8.5, 8.5, 192), 0.0, 1.0, momentum=12.0)
    scenario = CovarianceScenario(
        CST, _EQUIV_POTENTIALS["driven"], _EQUIV_CLOCKS[clock_name], psi0, _EQUIV_SPAN,
        PropagatorConfig(dt=1e-3, record_every=3),
    )
    serial, forked = (covariance_experiment(scenario, forked) for forked in (False, True))
    for name in (
        "tau", "t", "tprime", "fidelity", "norm_psi", "norm_phi",
        "energy_t", "energy_tau", "energy_transform_residual",
    ):
        assert getattr(forked, name).tobytes() == getattr(serial, name).tobytes(), name
    assert any(flag.startswith("edge-leak") for flag in serial.flags)
    assert forked.flags == serial.flags


def _no_child_left() -> bool:
    """True if this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_a_forked_stream_runs_under_the_callers_numpy_error_state():
    def overflowing():
        yield np.zeros(4, dtype=complex), np.float64(1e308) * 10.0, 0.0

    with np.errstate(over="raise"):
        rows = quantum._Forked(overflowing(), [], 4)
    try:
        with pytest.raises(FloatingPointError, match="overflow"):
            next(rows)
    finally:
        rows.close()


def test_closing_a_forked_stream_early_kills_and_reaps_its_child():
    def one_then_a_long_stretch():
        yield np.ones(4, dtype=complex), 1.0, 2.0
        time.sleep(60)  # a long run of steps that lands on no record
        yield np.ones(4, dtype=complex), 1.0, 2.0

    rows = quantum._Forked(one_then_a_long_stretch(), [], 4)
    row, norm, energy = next(rows)
    assert row.tobytes() == np.ones(4, dtype=complex).tobytes() and (norm, energy) == (1.0, 2.0)
    assert not _no_child_left()
    start = time.perf_counter()
    rows.close()
    # The child is killed, not waited for until it next writes.
    assert time.perf_counter() - start < 10.0
    assert _no_child_left()
    rows.close()


def test_a_forked_stream_whose_child_dies_raises_a_numerical_error():
    def dies_after_one():
        yield np.ones(2, dtype=complex), 1.0, 0.0
        os._exit(3)

    rows = quantum._Forked(dies_after_one(), [], 2)
    try:
        assert next(rows)[1:] == (1.0, 0.0)
        with pytest.raises(NumericalError, match=r"ended without its result \(exit code 3\)$"):
            next(rows)
    finally:
        rows.close()
    assert _no_child_left()


def test_a_failed_fork_closes_its_pipe(monkeypatch):
    def no_fork():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        quantum._Forked(iter(()), [], 2)
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_a_covariance_run_holds_no_whole_amplitude_record():
    # 1001 records of 1024 points: one run's amplitude record alone would
    # take 16.4 MB. The streamed runs hold a block of rows each.
    grid = SpatialGrid(-12.0, 12.0, 1024)
    scenario = CovarianceScenario(
        CST, HarmonicPotential(), SinePerturbedMap(0.3, 1.0, (0.0, 1.0)),
        prepare_gaussian(grid, 1.0, 1.0), (0.0, 1.0), PropagatorConfig(dt=1e-3, record_every=1),
    )
    tracemalloc.start()
    try:
        report = covariance_experiment(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    record_bytes = len(report.tau) * grid.n_points * np.dtype(complex).itemsize
    assert len(report.tau) == 1001
    assert peak < record_bytes / 2


def test_a_bad_schedule_fails_before_either_run_steps(monkeypatch):
    def no_stepping(*args):
        raise AssertionError("a run stepped before both schedules were checked")

    monkeypatch.setattr(quantum, "_stream", no_stepping)
    tmap = SinePerturbedMap(amplitude=0.3, frequency=1.0, domain=(0.0, 1.0))
    scenario = CovarianceScenario(
        CST, HarmonicPotential(), tmap, GROUND, (0.0, 1.0),
        PropagatorConfig(dt=1e-2, record_every=10),
    )
    reading, boundaries = quantum.clock_reading, quantum._step_boundaries
    with monkeypatch.context() as m:
        # A map whose readings stall: the comparison times do not increase.
        m.setattr(quantum, "clock_reading", lambda timemap, clock: (
            reading(timemap, clock) if timemap is None else (1.0, 0.5)
        ))
        with pytest.raises(CoverageError, match="increasing comparison times"):
            covariance_experiment(scenario)
    with monkeypatch.context() as m:
        # The reference schedule loses its first landing time.
        m.setattr(quantum, "_step_boundaries", lambda a, b, dt, landmarks=(): (
            boundaries(a, b, dt, list(landmarks)[1:])
        ))
        msg = "^landing mismatch: 10 reference snapshots for 11 relabeled samples$"
        with pytest.raises(NumericalError, match=msg):
            covariance_experiment(scenario)


def _failing_on_fourth_solve(info, gtsv):
    """A stand-in for ``quantum._gtsv`` whose ``solve`` reports ``info`` on its
    fourth call, after solving as usual."""

    def failing_gtsv(block, m):
        lhs, state, solve = gtsv(block, m)
        calls = []

        def failing_solve(k, j, off):
            result = solve(k, j, off)
            calls.append(None)
            return info if len(calls) == 4 else result

        return lhs, state, failing_solve

    return failing_gtsv


def _solver_lookups():
    """``_openblas_zgtsv`` stand-ins for each path the kernel has here: NumPy's
    bundled zgtsv if there is one, and None, which selects SciPy's gtsv."""
    bundled = quantum._openblas_zgtsv()
    return [lambda found=found: found for found in ([bundled] if bundled else []) + [None]]


@pytest.mark.parametrize("info", [2, -4])
def test_failed_tridiagonal_solve_raises_numerical_error_naming_the_step(monkeypatch, info):
    cfg = PropagatorConfig(dt=1e-2)
    monkeypatch.setattr(quantum, "_gtsv", _failing_on_fourth_solve(info, quantum._gtsv))
    for lookup in _solver_lookups():
        monkeypatch.setattr(quantum, "_openblas_zgtsv", lookup)
        with pytest.raises(NumericalError, match=rf"at step 3: LAPACK \?gtsv info={info}$"):
            propagate_t(GROUND, HarmonicPotential(), CST, (0.0, 0.1), cfg)


class _PivotingWell(PotentialSpec):
    """V = kin (-2 + 0.3 sin(5x + t)): the Laplacian's diagonal all but
    cancels, so every diagonal of the step matrix is smaller than its
    off-diagonals once lam kin > 1.05, and ?gtsv swaps rows."""

    def __init__(self, kin):
        self.kin = kin

    def value(self, t, x):
        return self.kin * (-2.0 + 0.3 * np.sin(5.0 * x + t))

    def gradient_x(self, t, x):
        return self.kin * 1.5 * np.cos(5.0 * x + t)


def test_both_tridiagonal_solvers_step_float_for_float(monkeypatch):
    # The kernel steps NumPy's bundled zgtsv whenever NumPy ships one, so a
    # broken lookup cannot fall back to SciPy's unnoticed.
    libs = Path(np.__file__).parents[1] / "numpy.libs"
    bundled = any(libs.glob("libscipy_openblas64_*.so"))
    assert (quantum._openblas_zgtsv() is not None) == bundled
    if not bundled:
        pytest.skip("NumPy bundles no OpenBLAS zgtsv, so the kernel has one path")

    # A covariance's two runs with a record every step, and a run whose every
    # solve pivots.
    grid = SpatialGrid(-12.0, 12.0, 256)
    psi0 = prepare_gaussian(grid, 0.5, 1.0, momentum=0.7)
    kin = quantum._kinetic_weight(CST, grid.dx)
    every = PropagatorConfig(dt=1e-2, record_every=1)
    tau_plan = quantum._plan((0.0, 0.4), every, _EQUIV_CLOCKS["sine"])
    pivoting = PropagatorConfig(dt=4.0 / kin, record_every=1)
    runs = [
        (_EQUIV_POTENTIALS["driven"], tau_plan),
        (_EQUIV_POTENTIALS["driven"], quantum._reference_plan(tau_plan.t, every)),
        (_PivotingWell(kin), quantum._plan((0.0, 2.0), pivoting, None)),
    ]
    records = []
    for lookup in _solver_lookups():
        monkeypatch.setattr(quantum, "_openblas_zgtsv", lookup)
        records.append([quantum._run_crank_nicolson(psi0, pot, CST, plan) for pot, plan in runs])
    for fast, fallback in zip(*records, strict=True):
        assert len(fast.clocks) > 10
        for column in ("amplitudes", "norms", "energies"):
            assert np.array_equal(getattr(fast, column), getattr(fallback, column))
    # Every row of the pivoting run's step matrix has |diagonal| < |off-diagonal|.
    lam = 0.5 * pivoting.dt / CST.hbar
    v = _PivotingWell(kin).value(0.0, grid.points()[1:-1])
    assert np.all(np.abs(1.0 + 1j * lam * (2.0 * kin + v)) < lam * kin)


class _BlowsUpAfter(PotentialSpec):
    """Harmonic well that turns infinite for t > t_bad."""

    def __init__(self, t_bad):
        self.t_bad = t_bad

    def value(self, t, x):
        return np.where(t > self.t_bad, np.inf, 0.5 * x * x)

    def gradient_x(self, t, x):
        return x


class _ConstantArrayPotential(PotentialSpec):
    """_ScalarPotential's value as a full array of the broadcast shape."""

    def value(self, t, x):
        return np.full(np.broadcast_shapes(np.shape(t), np.shape(x)), 0.25)

    def gradient_x(self, t, x):
        return np.zeros(np.broadcast_shapes(np.shape(t), np.shape(x)))


def _step_tevals(span, dt, tmap=None):
    bounds = _step_boundaries(span[0], span[1], dt)
    mids = [lo + 0.5 * (hi - lo) for lo, hi in zip(bounds, bounds[1:])]
    return [mid if tmap is None else float(tmap.value(mid)) for mid in mids]


@pytest.mark.parametrize("where", ["first step", "mid block", "first of next block"])
def test_non_finite_potential_raises_naming_the_first_bad_step(where):
    span, cfg = (0.0, 1.0), PropagatorConfig(dt=0.01, record_every=10**6)
    block = quantum._BLOCK_POINTS // (GRID.n_points - 2)
    bad = {"first step": 0, "mid block": block // 2, "first of next block": block}[where]
    tmap = SinePerturbedMap(amplitude=0.3, frequency=2.0, domain=span)
    for clock in (None, tmap):
        tevals = _step_tevals(span, cfg.dt, clock)
        assert len(tevals) > 2 * block
        # V is finite up to and including step bad - 1 and at the t=0 snapshot.
        pot = _BlowsUpAfter(tevals[bad - 1] if bad else 0.0)
        msg = re.escape(f"potential produced non-finite values at t={tevals[bad]}") + "$"
        with pytest.raises(NumericalError, match=msg):
            if clock is None:
                propagate_t(GROUND, pot, CST, span, cfg)
            else:
                propagate_tau(GROUND, pot, CST, clock, span, cfg)


def test_non_finite_potential_at_a_snapshot_is_reported_before_the_next_step():
    # The snapshot closing step k is taken before step k + 1 runs, so it is
    # the first evaluation to see the bad potential, even inside a block.
    span, cfg = (0.0, 1.0), PropagatorConfig(dt=0.01, record_every=1)
    tevals = _step_tevals(span, cfg.dt)
    bounds = _step_boundaries(span[0], span[1], cfg.dt)
    with pytest.raises(NumericalError, match=re.escape(f"at t={bounds[6]}") + "$"):
        propagate_t(GROUND, _BlowsUpAfter(tevals[5]), CST, span, cfg)


@pytest.mark.parametrize("offset, failing, forked", [
    pytest.param(5, "t", False, id="5-t"),
    pytest.param(16, "tau", False, id="16-tau"),
    pytest.param(5, "t", True, id="5-t-forked"),
    pytest.param(16, "tau", True, id="16-tau-forked"),
])
def test_a_covariance_whose_runs_both_fail_reports_the_run_stepped_first(offset, failing, forked):
    # The tau run steps its first block, then the t run steps blocks until it
    # has every record of that block, then the tau run steps its second block.
    # V turns infinite inside the second tau block, past the t clocks of both
    # runs' first blocks: just past them, the t run's catching-up block meets
    # it first; further on, the second tau block does. In its own process the
    # t run may step further ahead, but its error is read at the record where
    # it occurred, so the same run is reported, and no process or thread is
    # left behind.
    span, cfg = (0.0, 1.0), PropagatorConfig(dt=0.01, record_every=1)
    tmap = SinePerturbedMap(amplitude=0.3, frequency=1.0, domain=span)
    block = quantum._BLOCK_POINTS // (GRID.n_points - 2)
    tau_plan = quantum._plan(span, cfg, tmap)
    marks = tau_plan.t
    t_plan = quantum._plan((float(marks[0]), float(marks[-1])), cfg, None, marks[1:])
    t_bad = float(tau_plan.tevals[block + offset - 1])
    assert tau_plan.t[block] < t_bad

    def first_bad(plan):
        return float(min(v for v in np.concatenate([plan.tevals, plan.t]) if v > t_bad))

    firsts = {"tau": first_bad(tau_plan), "t": first_bad(t_plan)}
    assert firsts["tau"] != firsts["t"]
    msg = re.escape(f"potential produced non-finite values at t={firsts[failing]}") + "$"
    threads = threading.active_count()
    with pytest.raises(NumericalError, match=msg) as caught:
        covariance_experiment(
            CovarianceScenario(CST, _BlowsUpAfter(t_bad), tmap, GROUND, span, cfg), forked
        )
    # Counted while the traceback, and so the experiment's frame, is alive.
    assert threading.active_count() == threads, caught
    assert _no_child_left(), caught


def test_scalar_and_array_potentials_give_identical_runs():
    span, cfg = (0.0, 1.0), PropagatorConfig(dt=0.01, record_every=7)
    tmap = SinePerturbedMap(amplitude=0.3, frequency=2.0, domain=span)
    runs = [
        (propagate_t(GROUND, pot, CST, span, cfg), propagate_tau(GROUND, pot, CST, tmap, span, cfg))
        for pot in (_ScalarPotential(), _ConstantArrayPotential())
    ]
    for scalar_rec, array_rec in zip(*runs):
        assert len(scalar_rec.snapshots) == len(array_rec.snapshots) > 2
        for a, b in zip(scalar_rec.snapshots, array_rec.snapshots):
            assert a.clock == b.clock and a.energy == b.energy
            assert np.array_equal(a.state.amplitudes, b.state.amplitudes)
