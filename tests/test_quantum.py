"""Crank-Nicolson propagation in both clocks and the matched-run comparison."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import solve_banded

import reclock.quantum as quantum
from reclock.errors import (
    ClockDomainError,
    NumericalError,
    ValidationError,
)
from reclock.model import (
    ClockKind,
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
    Snapshot,
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
    for every in (0, float("inf"), float("nan"), "3"):
        with pytest.raises(ValidationError, match="record_every"):
            PropagatorConfig(dt=1e-3, record_every=every)
    with pytest.raises(ValidationError, match="edge_guard"):
        PropagatorConfig(dt=1e-3, edge_guard=0.5)


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
    rotated = GROUND.with_amplitudes(GROUND.amplitudes * np.exp(1j * 0.77))
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


def test_propagate_t_stationary_state_accrues_only_phase():
    grid = SpatialGrid(-12.0, 12.0, 768)
    psi0 = prepare_gaussian(grid, 0.0, 1.0)
    rec = propagate_t(
        psi0, HarmonicPotential(), CST, (0.0, 1.0), PropagatorConfig(dt=1e-3, record_every=10**9)
    )
    assert rec.is_valid
    assert abs(fidelity(rec.final_state, psi0) - 1.0) < 1e-8
    # The phase itself is e^{-i E t / hbar}, E = 0.5 up to discretization.
    overlap = np.vdot(psi0.amplitudes, rec.final_state.amplitudes) * grid.dx
    assert np.angle(overlap) == pytest.approx(-0.5, abs=1e-3)


def test_propagate_t_norm_is_preserved():
    rec = propagate_t(
        GROUND, HarmonicPotential(), CST, (0.0, 2.0), PropagatorConfig(dt=1e-3, record_every=100)
    )
    drift = float(np.max(np.abs(rec.norms() - rec.norms()[0])))
    assert drift < 1e-12
    assert rec.is_valid


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
    assert not rec.is_valid
    assert any("edge-leak" in f for f in rec.flags)


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


def test_residual_check_input_validation():
    pot = FreePotential()
    rec = propagate_t(
        GROUND, pot, CST, (0.0, 0.01), PropagatorConfig(dt=1e-2, record_every=1)
    )
    with pytest.raises(ValidationError, match="3 snapshots"):
        residual_check(rec, pot, CST)
    # Snapshots present but no uniformly spaced triple to difference.
    snaps = tuple(
        Snapshot(clock=c, state=GROUND, norm=1.0, energy=0.5) for c in (0.0, 1.0, 1.5)
    )
    lopsided = EvolutionRecord(
        clock_kind=rec.clock_kind, snapshots=snaps, timemap=None, flags=()
    )
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
    assert report.is_valid
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
    tiny = GROUND.with_amplitudes(GROUND.amplitudes * 0.5)
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
    snap = Snapshot(clock=0.0, state=GROUND, norm=1.0, energy=0.5)
    with pytest.raises(ValidationError, match="at least one"):
        EvolutionRecord(clock_kind=ClockKind.CONVENTIONAL_T, snapshots=())
    stalled = Snapshot(clock=0.0, state=GROUND, norm=1.0, energy=0.5)
    with pytest.raises(ValidationError, match="increasing"):
        EvolutionRecord(clock_kind=ClockKind.CONVENTIONAL_T, snapshots=(snap, stalled))


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


@pytest.mark.parametrize("info", [2, -4])
def test_failed_tridiagonal_solve_raises_numerical_error_naming_the_step(monkeypatch, info):
    real_get = quantum.get_lapack_funcs

    def get_failing(names, arrays):
        (gtsv,) = real_get(names, arrays)
        calls = []

        def failing_gtsv(*args):
            result = gtsv(*args)
            calls.append(None)
            return result[:-1] + (info,) if len(calls) == 4 else result

        return (failing_gtsv,)

    monkeypatch.setattr(quantum, "get_lapack_funcs", get_failing)
    cfg = PropagatorConfig(dt=1e-2)
    with pytest.raises(NumericalError, match=rf"at step 3: LAPACK \?gtsv info={info}$"):
        propagate_t(GROUND, HarmonicPotential(), CST, (0.0, 0.1), cfg)


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
