"""End-to-end acceptance checks: one test per advertised guarantee.

Each test prints a single verdict line (run pytest with -s to see them all)
and enforces the stated tolerance and runtime budget.  Expensive artifacts
(the linear-relabeling covariance run and the step-halving sweep) are built
once and shared between the criteria that consume them.
"""

import math
import time
from pathlib import Path

import numpy as np

from reclock.classical import (
    LagrangianPoint,
    check_constraint,
    check_euler_homogeneity,
    integrate_t,
    integrate_tau,
    trajectory_equivalence,
)
from reclock.cli import catalogue_paths, entrypoint
from reclock.model import (
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
    prepare_gaussian,
)
from reclock.quantum import (
    CovarianceScenario,
    PropagatorConfig,
    covariance_experiment,
    propagate_rescaled,
    propagate_t,
)
from reclock.runner import Status

CONSTANTS = PhysicalConstants()
GRID = SpatialGrid(x_min=-12.0, x_max=12.0, n_points=512)
COHERENT = prepare_gaussian(GRID, center=1.0, width=1.0)
TWO_PI = 2.0 * math.pi

SWEEP_DTS = (4e-3, 2e-3, 1e-3, 5e-4)

_CACHE = {}


def _verdict(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _linear_covariance():
    """Linear relabeling t = tau/2 on the harmonic coherent state (cached)."""
    if "linear" not in _CACHE:
        start = time.perf_counter()
        report = covariance_experiment(CovarianceScenario(
            constants=CONSTANTS,
            potential=HarmonicPotential(omega=1.0),
            timemap=LinearMap(alpha=2.0, domain=(0.0, TWO_PI)),
            initial_state=COHERENT,
            tau_span=(0.0, TWO_PI),
            config=PropagatorConfig(dt=5e-4, record_every=25),
        ))
        _CACHE["linear"] = (report, time.perf_counter() - start)
    return _CACHE["linear"]


def _sine_driven_sweep():
    """Step-halving reports for the sine map / driven well pairing (cached)."""
    if "sweep" not in _CACHE:
        start = time.perf_counter()
        reports = {}
        for dt in SWEEP_DTS:
            reports[dt] = covariance_experiment(CovarianceScenario(
                constants=CONSTANTS,
                potential=DrivenHarmonicPotential(omega0=1.0, ramp=0.1),
                timemap=SinePerturbedMap(amplitude=0.3, frequency=1.0,
                                         domain=(0.0, TWO_PI)),
                initial_state=COHERENT,
                tau_span=(0.0, TWO_PI),
                config=PropagatorConfig(dt=dt, record_every=25),
            ))
        _CACHE["sweep"] = (reports, time.perf_counter() - start)
    return _CACHE["sweep"]


def _pointwise_deviation(record_a, record_b):
    assert len(record_a.snapshots) == len(record_b.snapshots)
    dev = 0.0
    for snap_a, snap_b in zip(record_a.snapshots, record_b.snapshots):
        gap = np.max(np.abs(snap_a.state.amplitudes - snap_b.state.amplitudes))
        dev = max(dev, float(gap))
    return dev


def test_criterion_1_identity_relabeling_is_exact_gauge_reduction():
    start = time.perf_counter()
    span = (0.0, 2.0)  # 2000 Crank-Nicolson steps at dt = 1e-3
    config = PropagatorConfig(dt=1e-3, record_every=100)
    potential = HarmonicPotential(omega=1.0)

    direct = propagate_t(COHERENT, potential, CONSTANTS, span, config)
    relabeled_map = IdentityMap(domain=span)
    report = covariance_experiment(CovarianceScenario(
        constants=CONSTANTS,
        potential=potential,
        timemap=relabeled_map,
        initial_state=COHERENT,
        tau_span=span,
        config=config,
    ))

    dev = _pointwise_deviation(direct, report.tau_record)
    fidelity_dev = float(np.max(np.abs(report.fidelity - 1.0)))
    wall = time.perf_counter() - start

    ok = dev <= 1e-13 and fidelity_dev <= 1e-12 and wall < 5.0
    _verdict(1, ok,
             f"pointwise deviation {dev:.3e} (<= 1e-13), "
             f"|fidelity - 1| {fidelity_dev:.3e} (<= 1e-12), {wall:.2f}s (< 5s)")


def test_criterion_2_relabeled_evolution_matches_up_to_phase():
    linear_report, linear_wall = _linear_covariance()
    sweep_reports, sweep_wall = _sine_driven_sweep()

    linear_fid = linear_report.min_fidelity
    sine_fid = sweep_reports[SWEEP_DTS[-1]].min_fidelity

    fidelities = np.array([sweep_reports[dt].min_fidelity for dt in SWEEP_DTS])
    discrepancy = np.sqrt(np.maximum(2.0 * (1.0 - fidelities), 1e-32))
    order = float(np.polyfit(np.log2(np.array(SWEEP_DTS)),
                             np.log2(discrepancy), 1)[0])

    wall = linear_wall + sweep_wall
    ok = (linear_fid >= 1.0 - 1e-6
          and sine_fid >= 1.0 - 1e-5
          and 1.8 <= order <= 2.2
          and wall < 60.0)
    _verdict(2, ok,
             f"linear min fidelity {linear_fid:.12f} (>= 1 - 1e-6), "
             f"sine/driven min fidelity {sine_fid:.12f} (>= 1 - 1e-5), "
             f"fidelity-error order {order:.3f} (in [1.8, 2.2]), "
             f"{wall:.1f}s (< 60s)")


def test_criterion_3_rescaled_propagation_equals_sped_up_clock():
    start = time.perf_counter()
    span = (0.0, math.pi)
    config = PropagatorConfig(dt=5e-4, record_every=25)
    potential = HarmonicPotential(omega=1.0)

    # T(tau) = 2 tau: the relabeled clock covers t in [0, 2 pi] twice as fast.
    doubling = LinearMap(alpha=0.5, domain=span)
    report = covariance_experiment(CovarianceScenario(
        constants=CONSTANTS,
        potential=potential,
        timemap=doubling,
        initial_state=COHERENT,
        tau_span=span,
        config=config,
    ))
    rescaled = propagate_rescaled(COHERENT, potential, CONSTANTS, 2.0, span,
                                  config)

    dev = _pointwise_deviation(rescaled, report.tau_record)
    wall = time.perf_counter() - start

    ok = report.min_fidelity >= 1.0 - 1e-6 and dev <= 1e-13 and wall < 20.0
    _verdict(3, ok,
             f"min fidelity vs doubled-time reference "
             f"{report.min_fidelity:.12f} (>= 1 - 1e-6), "
             f"rescaled-vs-relabeled deviation {dev:.3e} (<= 1e-13), "
             f"{wall:.2f}s (< 20s)")


def test_criterion_4_energy_expectations_transform_with_the_rate():
    linear_report, _ = _linear_covariance()
    sweep_reports, _ = _sine_driven_sweep()

    residual = linear_report.max_energy_transform_residual

    residuals = np.array([sweep_reports[dt].max_energy_transform_residual
                          for dt in SWEEP_DTS])
    order = float(np.polyfit(np.log2(np.array(SWEEP_DTS)),
                             np.log2(residuals), 1)[0])

    ok = residual <= 1e-6 and 1.8 <= order <= 2.2
    _verdict(4, ok,
             f"max |<H_tau> - T' <H_t>| {residual:.3e} (<= 1e-6), "
             f"residual convergence order {order:.3f} (second order)")


def test_criterion_5_classical_trajectories_agree_across_clocks():
    start = time.perf_counter()

    harmonic = HarmonicPotential(omega=1.0)
    linear = LinearMap(alpha=2.0, domain=(0.0, 4.0 * math.pi))
    traj_t = integrate_t(harmonic, CONSTANTS, 1.0, 0.0, (0.0, TWO_PI),
                         tol=1e-10)
    traj_tau = integrate_tau(harmonic, CONSTANTS, linear, 1.0, 0.0,
                             (0.0, 4.0 * math.pi), tol=1e-10)
    linear_err = trajectory_equivalence(traj_t, traj_tau, linear)

    driven = DrivenHarmonicPotential(omega0=1.0, ramp=0.1)
    sine = SinePerturbedMap(amplitude=0.3, frequency=1.0,
                            domain=(0.0, TWO_PI))
    t_end = float(sine.value(TWO_PI))
    sine_errs = {}
    for tol in (1e-9, 1e-12):
        traj_t = integrate_t(driven, CONSTANTS, 1.0, 0.0, (0.0, t_end),
                             tol=tol)
        traj_tau = integrate_tau(driven, CONSTANTS, sine, 1.0, 0.0,
                                 (0.0, TWO_PI), tol=tol)
        sine_errs[tol] = trajectory_equivalence(traj_t, traj_tau, sine)

    wall = time.perf_counter() - start
    ok = (linear_err <= 1e-6
          and sine_errs[1e-9] <= 1e-5
          and sine_errs[1e-12] < sine_errs[1e-9]
          and wall < 5.0)
    _verdict(5, ok,
             f"linear/harmonic error {linear_err:.3e} (<= 1e-6), "
             f"sine/driven error {sine_errs[1e-9]:.3e} (<= 1e-5), "
             f"tightened to {sine_errs[1e-12]:.3e} at tol 1e-12, "
             f"{wall:.2f}s (< 5s)")


def test_criterion_6_lagrangian_is_degree_one_in_velocities():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    families = [
        FreePotential(),
        HarmonicPotential(omega=1.0),
        DrivenHarmonicPotential(omega0=1.0, ramp=0.1),
        MovingWellPotential(center0=0.3, velocity=0.4, stiffness=1.5),
    ]

    worst = 0.0
    for potential in families:
        for _ in range(100):
            point = LagrangianPoint(
                T=float(rng.uniform(-2.0, 2.0)),
                xi=float(rng.uniform(-3.0, 3.0)),
                Tprime=float(rng.uniform(0.2, 3.0)),
                xiprime=float(rng.uniform(-3.0, 3.0)),
            )
            worst = max(worst, abs(check_euler_homogeneity(
                potential, CONSTANTS, point)))

    # The finite-difference defect shrinks as h^2: each tenfold step down in
    # h should cut the residual by about a factor of 100.
    probe = LagrangianPoint(T=0.8, xi=1.3, Tprime=0.6, xiprime=2.2)
    residuals = [abs(check_euler_homogeneity(HarmonicPotential(omega=1.0),
                                             CONSTANTS, probe, h=h))
                 for h in (1e-4, 1e-5, 1e-6)]
    ratio_a = residuals[0] / residuals[1]
    ratio_b = residuals[1] / residuals[2]

    wall = time.perf_counter() - start
    ok = (worst <= 1e-7
          and 50.0 <= ratio_a <= 200.0
          and 50.0 <= ratio_b <= 200.0
          and wall < 1.0)
    _verdict(6, ok,
             f"worst homogeneity residual {worst:.3e} (<= 1e-7) over 100 "
             f"points x 4 potentials, h-refinement ratios {ratio_a:.1f}, "
             f"{ratio_b:.1f} (~100 each), {wall:.2f}s (< 1s)")


def test_criterion_7_reparametrization_constraint_vanishes():
    start = time.perf_counter()
    domain = (0.0, 6.0)
    maps = [
        IdentityMap(domain=domain),
        LinearMap(alpha=2.0, domain=domain),
        SinePerturbedMap(amplitude=0.3, frequency=1.0, domain=domain),
        SmoothRampMap(rate_start=0.5, rate_end=2.0, center=3.0,
                      sharpness=0.5, domain=domain),
    ]
    families = [
        FreePotential(),
        HarmonicPotential(omega=1.0),
        DrivenHarmonicPotential(omega0=1.0, ramp=0.1),
        MovingWellPotential(center0=0.3, velocity=0.4, stiffness=1.5),
    ]

    rng = np.random.default_rng(7)
    worst = 0.0
    for timemap in maps:
        for potential in families:
            for _ in range(100):
                tau = float(rng.uniform(0.1, 5.9))
                xi = float(rng.uniform(-3.0, 3.0))
                xiprime = float(rng.uniform(-3.0, 3.0))
                worst = max(worst, abs(check_constraint(
                    potential, CONSTANTS, timemap, tau, xi, xiprime)))

    # Worked point: unit mass, xi' = 3, T' = 1.5, V = 2.  The momenta are
    # pi = 2 and pi_T = -4, so T' pi_T + T' H = -6 + 6 must vanish exactly
    # (every intermediate is an exact binary float).
    flat_ramp = SmoothRampMap(rate_start=1.5, rate_end=1.5, center=0.0,
                              sharpness=0.3, domain=(-1.0, 1.0))
    worked = check_constraint(HarmonicPotential(omega=1.0), CONSTANTS,
                              flat_ramp, 0.5, 2.0, 3.0)

    wall = time.perf_counter() - start
    ok = worst <= 1e-12 and worked == 0.0 and wall < 1.0
    _verdict(7, ok,
             f"worst constraint residual {worst:.3e} (<= 1e-12) over 100 "
             f"points x 16 map/potential pairs, worked point residual "
             f"{worked!r} (exactly 0.0), {wall:.2f}s (< 1s)")


def test_criterion_8_unitarity_and_local_truncation_error():
    start = time.perf_counter()
    potential = HarmonicPotential(omega=1.0)

    long_run = propagate_t(COHERENT, potential, CONSTANTS, (0.0, 1.0),
                           PropagatorConfig(dt=1e-4, record_every=1000))
    norms = np.array([snap.norm for snap in long_run.snapshots])
    drift = float(np.max(np.abs(norms - 1.0)))

    from reclock.quantum import residual_check

    fine = propagate_t(COHERENT, potential, CONSTANTS, (0.0, 0.02),
                       PropagatorConfig(dt=1e-4, record_every=1))
    finer = propagate_t(COHERENT, potential, CONSTANTS, (0.0, 0.02),
                        PropagatorConfig(dt=5e-5, record_every=1))
    res_fine = residual_check(fine, potential, CONSTANTS)
    res_finer = residual_check(finer, potential, CONSTANTS)
    ratio = res_fine / res_finer

    wall = time.perf_counter() - start
    ok = (drift < 1e-10
          and res_fine < 1e-5
          and 3.4 <= ratio <= 4.7
          and wall < 30.0)
    _verdict(8, ok,
             f"norm drift {drift:.3e} over 1e4 steps (< 1e-10), "
             f"defect {res_fine:.3e} at dt=1e-4 (< 1e-5), halving ratio "
             f"{ratio:.3f} (~4), {wall:.1f}s (< 30s)")


def test_criterion_9_deterministic_artifacts_and_exit_codes(catalogue_runs, tmp_path, capsys):
    """Serial vs ``jobs=2``: the catalogue's two runs (``catalogue_runs``)
    all Pass and write the same artifacts, CSV and JSON, byte for byte. And
    ``reclock run`` exits 0, 1 and 2 on a pass, a failed tolerance and a
    missing file."""
    (serial, first), (pooled, second) = catalogue_runs[1], catalogue_runs[2]
    all_pass = all(summary.status is Status.PASS
                   for summary in first + second)

    artifacts = sorted(path.relative_to(serial)
                       for path in serial.rglob("*") if path.is_file())
    twins = sorted(path.relative_to(pooled)
                   for path in pooled.rglob("*") if path.is_file())
    identical = (len(artifacts) > 0 and artifacts == twins
                 and all((serial / name).read_bytes() == (pooled / name).read_bytes()
                         for name in artifacts))
    counts = {fmt: sum(name.suffix == f".{fmt}" for name in artifacts)
              for fmt in ("csv", "json")}

    gauge = next(str(path) for path in catalogue_paths() if "gauge-identity" in path.name)
    code_pass = entrypoint(["run", gauge, "--out", str(tmp_path / "ok")])
    # The same run held to an unattainable fidelity must fail.
    strict = tmp_path / "gauge-identity-strict.scenario"
    strict.write_text(Path(gauge).read_text(encoding="utf-8").replace(
        "min_fidelity = 0.999999999999", f"min_fidelity = {1.0 - 1e-14!r}"),
        encoding="utf-8")
    code_fail = entrypoint(["run", str(strict), "--out", str(tmp_path / "strict")])
    code_usage = entrypoint(["run", str(tmp_path / "no-such.scenario")])
    capsys.readouterr()  # drop the CLI chatter; keep only the verdict line

    ok = (all_pass and identical
          and code_pass == 0 and code_fail == 1 and code_usage == 2)
    _verdict(9, ok,
             f"catalogue serial vs `jobs=2` byte-identical across "
             f"{counts['csv']} CSV and {counts['json']} JSON artifacts, "
             f"all runs Pass, exit codes (pass, strict-fail, "
             f"usage) = ({code_pass}, {code_fail}, {code_usage})")
