"""Schrödinger propagation in the conventional clock and in a relabeled clock.

The same Crank-Nicolson kernel drives both directions:

* conventional clock:   i hbar d/dt  psi = H(t) psi
* relabeled clock:      i hbar d/dtau phi = T'(tau) H(T(tau)) phi

where T is a monotone ``TimeMap``. The only difference between the two is
the scalar prefactor and the clock argument handed to the potential, so a
run with the identity map (``LinearMap`` with alpha = 1) reproduces a
conventional run float for float. The compressed-clock generator
alpha H(alpha t) is the linear relabeling T(tau) = alpha tau, so
``propagate_rescaled`` is a ``propagate_tau`` call with that map.
Each step is one tridiagonal solve with LAPACK's ``?gtsv`` (Gaussian
elimination with partial pivoting), called directly on the three diagonals.
What does not depend on the state (the potential at each step's clock, its
finiteness check and both sides' diagonal coefficients) is built for a block
of steps at once with the same floating-point operations as a per-step
build, so blocking changes no result.

Covariance experiments compare the two evolutions sample by sample: the
relabeled run is stepped uniformly in tau, and the reference run shortens
individual substeps so that it lands *exactly* on each comparison time
T(tau_k) instead of interpolating. Agreement is measured with the
phase-invariant overlap modulus, so a global phase difference is ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .errors import CoverageError, NumericalError, ValidationError
from .model import (
    ClockKind,
    LinearMap,
    PhysicalConstants,
    PotentialSpec,
    TimeMap,
    Wavefunction,
    check_count,
    check_real,
    check_span,
    clock_reading,
)

# Monitors applied to every recorded snapshot.
NORM_DRIFT_TOL = 1e-8
EDGE_MASS_TOL = 1e-8

# Fidelity may exceed 1 only by quadrature rounding.
FIDELITY_CAP_SLACK = 1e-12

# A step boundary within this fraction of dt of a requested landing time is
# moved onto it instead of spawning a degenerate micro-step.
LANDMARK_SNAP_FRACTION = 1e-9

# The kernel builds the state-independent coefficients of this many grid
# points' worth of steps at once: 32 steps at n=512, where per-call overhead
# dominates, and one step from n=16384 up, where per-point arithmetic does.
_BLOCK_POINTS = 1 << 14


@dataclass(frozen=True)
class PropagatorConfig:
    """Stepping and monitoring knobs for one propagation run."""

    dt: float
    record_every: int = 1
    edge_guard: float = 0.1

    def __post_init__(self):
        check_real("dt", self.dt, positive=True)
        object.__setattr__(self, "record_every", check_count("record_every", self.record_every, 1))
        if not 0.0 < check_real("edge_guard", self.edge_guard) < 0.5:
            raise ValidationError(
                f"edge_guard is the monitored fraction of the box at each wall "
                f"and must lie in (0, 0.5), got {self.edge_guard}"
            )


@dataclass(frozen=True)
class Snapshot:
    """State of one run at one clock value.

    ``energy`` is the expectation of the run's own generator: plain <H(t)>
    for a conventional-clock run and T'(tau)<H(T(tau))> for a relabeled one.
    """

    clock: float
    state: Wavefunction
    norm: float
    energy: float


@dataclass(frozen=True)
class EvolutionRecord:
    """Ordered snapshots of one propagation run plus validity flags."""

    clock_kind: ClockKind
    snapshots: tuple[Snapshot, ...]
    timemap: TimeMap | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        clocks = [s.clock for s in self.snapshots]
        if len(clocks) < 1:
            raise ValidationError("a record needs at least one snapshot")
        if any(b <= a for a, b in zip(clocks, clocks[1:])):
            raise ValidationError("snapshot clocks must be strictly increasing")

    @property
    def is_valid(self) -> bool:
        return not self.flags

    def clocks(self) -> np.ndarray:
        return np.array([s.clock for s in self.snapshots])

    def t_values(self) -> np.ndarray:
        """Conventional-clock readings of the snapshots (T(tau) for tau runs)."""
        clocks = self.clocks()
        if self.timemap is None:
            return clocks
        return np.array([float(self.timemap.value(c)) for c in clocks])

    def norms(self) -> np.ndarray:
        return np.array([s.norm for s in self.snapshots])

    def energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.snapshots])

    @property
    def final_state(self) -> Wavefunction:
        return self.snapshots[-1].state


def _interior_potential(pot: PotentialSpec, t: float, x_interior: np.ndarray) -> np.ndarray:
    v = np.asarray(pot.value(t, x_interior), dtype=float)
    if v.ndim == 0:
        v = np.full(x_interior.shape, float(v))
    if not np.all(np.isfinite(v)):
        raise NumericalError(f"potential produced non-finite values at t={t}")
    return v


def _hamiltonian_times(
    amps: np.ndarray, v_interior: np.ndarray, kin: float
) -> np.ndarray:
    """(H psi) on the full grid: central Laplacian with hard-wall closure."""
    out = np.zeros_like(amps)
    out[1:-1] = -kin * (amps[2:] - 2.0 * amps[1:-1] + amps[:-2]) + v_interior * amps[1:-1]
    return out


def apply_hamiltonian(
    psi: Wavefunction, pot: PotentialSpec, constants: PhysicalConstants, t: float
) -> Wavefunction:
    """H(t) psi with the second-order central Laplacian; output is unnormalized."""
    grid = psi.grid
    kin = constants.hbar**2 / (2.0 * constants.mass * grid.dx**2)
    v = _interior_potential(pot, t, grid.points()[1:-1])
    return Wavefunction(grid, _hamiltonian_times(psi.amplitudes, v, kin))


def expectation_energy(
    psi: Wavefunction, pot: PotentialSpec, constants: PhysicalConstants, t: float
) -> float:
    """Re <psi| H(t) |psi> on the grid quadrature."""
    h_psi = apply_hamiltonian(psi, pot, constants, t)
    return float(np.real(np.vdot(psi.amplitudes, h_psi.amplitudes)) * psi.grid.dx)


def expectation_position(psi: Wavefunction) -> float:
    """<x> on the grid quadrature."""
    x = psi.grid.points()
    dens = np.abs(psi.amplitudes) ** 2
    return float(np.sum(x * dens) * psi.grid.dx)


def position_variance(psi: Wavefunction) -> float:
    """<x^2> - <x>^2 on the grid quadrature."""
    x = psi.grid.points()
    dens = np.abs(psi.amplitudes) ** 2
    mean = float(np.sum(x * dens) * psi.grid.dx)
    second = float(np.sum(x * x * dens) * psi.grid.dx)
    return second - mean * mean


def fidelity(a: Wavefunction, b: Wavefunction) -> float:
    """|<a|b>| on the grid quadrature; invariant under global phases."""
    if a.grid != b.grid:
        raise ValidationError(f"grid mismatch: {a.grid} vs {b.grid}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) * a.grid.dx)


def _step_boundaries(a: float, b: float, dt: float, landmarks=()) -> list[float]:
    """Step boundaries from a to b: a uniform dt ladder, final step shortened
    to land on b, with every landmark placed exactly.

    Within ``snap = LANDMARK_SNAP_FRACTION * dt`` a landmark replaces a ladder
    rung, and b, instead of leaving a micro-step next to it. Two landmarks
    that close to each other are rejected, since one of them would be lost.
    """
    if not b > a:
        raise ValidationError(f"span must satisfy b > a, got ({a}, {b})")
    snap = LANDMARK_SNAP_FRACTION * dt
    marks = sorted(set(float(v) for v in landmarks))
    for lo, hi in zip(marks, marks[1:]):
        if hi - lo <= snap:
            raise ValidationError(
                f"landing times {lo!r} and {hi!r} are closer than the minimum "
                f"separation {snap:.3g} ({LANDMARK_SNAP_FRACTION:g} * dt)"
            )
    for lm in marks:
        if lm <= a + snap or lm > b + snap:
            raise ValidationError(f"landing time {lm} outside span ({a}, {b}]")
    if not marks or b - marks[-1] > snap:
        marks.append(b)
    fixed = np.array([a, *marks])
    n = max(1, math.ceil((b - a) / dt - 1e-9))
    rungs = a + dt * np.arange(1, n)
    # Keep the rungs more than snap from both fixed neighbours; far from the
    # origin rounding can put the last rung onto b itself.
    j = np.searchsorted(fixed, rungs)
    inside = j < len(fixed)
    j = np.minimum(j, len(fixed) - 1)
    keep = inside & (rungs - fixed[j - 1] > snap) & (fixed[j] - rungs > snap)
    return np.sort(np.concatenate([fixed, rungs[keep]])).tolist()


def _run_crank_nicolson(
    psi0: Wavefunction,
    pot: PotentialSpec,
    constants: PhysicalConstants,
    span: tuple[float, float],
    cfg: PropagatorConfig,
    timemap: TimeMap | None,
    landmarks=(),
) -> EvolutionRecord:
    """Shared stepping kernel for both clock directions.

    The run is in the relabeled clock tau when ``timemap`` is given and in
    the conventional clock t otherwise. Each step solves
    (I + i lam G) u_new = (I - i lam G) u_old on the grid interior, with
    G = pref * H(t_eval) from ``clock_reading`` at the step midpoint and
    lam = step/(2 hbar). Given ``landmarks``, the run lands exactly on each
    of them and records only there (and at the start); otherwise it records
    every ``cfg.record_every`` steps and at the end.

    The step sizes, prefactors and off-diagonals are computed once per run.
    For each block of ``_BLOCK_POINTS // m`` steps one potential call
    evaluates V at every step's t_eval, and the diagonals 1 + i lam G and
    1 - i lam G are built as (steps, m) arrays; the per-step loop only forms
    the right-hand side and calls ``?gtsv``, which overwrites its block row.
    """
    grid = psi0.grid
    hbar, mass = constants.hbar, constants.mass
    x = grid.points()
    x_int = x[1:-1]
    # Edge-leak monitor: the grid points within edge_guard of either wall.
    width = (grid.x_max - grid.x_min) * cfg.edge_guard
    strip = (x <= grid.x_min + width) | (x >= grid.x_max - width)
    kin = hbar**2 / (2.0 * mass * grid.dx**2)
    m = grid.n_points - 2

    bounds = _step_boundaries(span[0], span[1], cfg.dt, landmarks)
    last = len(bounds) - 1
    if len(landmarks) > 0:
        lmset = set(float(v) for v in landmarks)
        record_at = {0} | {i for i, bv in enumerate(bounds) if bv in lmset}
    else:
        record_at = set(range(0, last + 1, cfg.record_every)) | {last}

    flags: list[str] = []
    norm0 = psi0.norm()

    def snapshot(clock: float, amps: np.ndarray) -> Snapshot:
        state = Wavefunction(grid, amps)
        norm = state.norm()
        pref, teval = clock_reading(timemap, clock)
        v = _interior_potential(pot, teval, x_int)
        h_amps = _hamiltonian_times(amps, v, kin)
        energy = pref * float(np.real(np.vdot(amps, h_amps)) * grid.dx)
        if abs(norm - norm0) > NORM_DRIFT_TOL:
            flags.append(f"norm-drift {abs(norm - norm0):.3e} at clock {clock:.6g}")
        leak = float(np.sum(np.abs(amps[strip]) ** 2) * grid.dx)
        if leak >= EDGE_MASS_TOL:
            flags.append(f"edge-leak {leak:.3e} at clock {clock:.6g}")
        return Snapshot(clock=clock, state=state, norm=norm, energy=energy)

    amps = np.array(psi0.amplitudes, dtype=complex)
    snaps = [snapshot(bounds[0], amps)]
    u = amps[1:-1].copy()
    (gtsv,) = get_lapack_funcs(("gtsv",), (u,))

    # Per-step scalars for the whole run. Elementwise array arithmetic takes
    # the same IEEE operations as the scalar expressions, so no float changes;
    # the clock map stays scalar because array sin/exp need not match scalar.
    edges = np.array(bounds)
    steps = edges[1:] - edges[:-1]
    prefs, tevals = np.array(
        [clock_reading(timemap, mid) for mid in (edges[:-1] + 0.5 * steps).tolist()]
    ).T
    lams = 0.5 * steps / hbar
    ioffs = (1j * lams * (-prefs * kin)).tolist()

    # ?gtsv overwrites all three diagonals, so the off-diagonals are refilled
    # every step; the diagonal is a block row used once. The block buffers
    # live for the whole run: fresh ones per block made the one-step blocks
    # of large grids ~10% slower.
    dl = np.empty(m - 1, dtype=complex)
    du = np.empty(m - 1, dtype=complex)
    block = min(last, max(1, _BLOCK_POINTS // m))
    diag = np.empty((block, m))
    lhs = np.empty((block, m), dtype=complex)
    rmul = np.empty((block, m), dtype=complex)
    for n0 in range(0, last, block):
        n1 = min(n0 + block, last)
        v = np.asarray(pot.value(tevals[n0:n1, None], x_int), dtype=float)
        v = np.broadcast_to(v, (n1 - n0, m))
        finite = np.isfinite(v).all(axis=1)
        # Steps before the first non-finite potential still run, so every
        # error surfaces at the same step as with a per-step check.
        stop = n1 if finite.all() else n0 + int(np.argmin(finite))
        rows = stop - n0
        d = np.add(2.0 * kin, v[:rows], out=diag[:rows])
        d *= prefs[n0:stop, None]
        ild = np.multiply(1j * lams[n0:stop, None], d, out=lhs[:rows])
        np.subtract(1.0, ild, out=rmul[:rows])
        np.add(1.0, ild, out=ild)

        for k, n in enumerate(range(n0, stop)):
            ioff = ioffs[n]
            rhs = rmul[k] * u
            rhs[:-1] -= ioff * u[1:]
            rhs[1:] -= ioff * u[:-1]

            dl.fill(ioff)
            du.fill(ioff)
            _, _, _, u, info = gtsv(dl, lhs[k], du, rhs, True, True, True, True)
            if info != 0:
                raise NumericalError(
                    f"tridiagonal solve failed at step {n}: LAPACK ?gtsv info={info}"
                )
            if n + 1 in record_at:
                full = np.zeros(grid.n_points, dtype=complex)
                full[1:-1] = u
                snaps.append(snapshot(bounds[n + 1], full))
        if stop < n1:
            raise NumericalError(
                f"potential produced non-finite values at t={float(tevals[stop])}"
            )

    return EvolutionRecord(
        clock_kind=ClockKind.CONVENTIONAL_T if timemap is None else ClockKind.PARAMETER_TAU,
        snapshots=tuple(snaps),
        timemap=timemap,
        flags=tuple(flags),
    )


def propagate_t(
    psi0: Wavefunction,
    pot: PotentialSpec,
    constants: PhysicalConstants,
    t_span: tuple[float, float],
    cfg: PropagatorConfig,
) -> EvolutionRecord:
    """Evolve i hbar dpsi/dt = H(t) psi over t_span with Crank-Nicolson."""
    return _run_crank_nicolson(psi0, pot, constants, check_span("t_span", t_span), cfg, None)


def propagate_tau(
    phi0: Wavefunction,
    pot: PotentialSpec,
    constants: PhysicalConstants,
    timemap: TimeMap,
    tau_span: tuple[float, float],
    cfg: PropagatorConfig,
) -> EvolutionRecord:
    """Evolve i hbar dphi/dtau = T'(tau) H(T(tau)) phi over tau_span."""
    a, b = check_span("tau_span", tau_span)
    timemap.require(a, b)
    return _run_crank_nicolson(phi0, pot, constants, (a, b), cfg, timemap)


def propagate_rescaled(
    psi0: Wavefunction,
    pot: PotentialSpec,
    constants: PhysicalConstants,
    alpha: float,
    t_span: tuple[float, float],
    cfg: PropagatorConfig,
) -> EvolutionRecord:
    """Evolve with the compressed-clock generator alpha * H(alpha * t).

    This is the linear relabeling T(tau) = alpha * tau, run as
    ``propagate_tau`` with ``LinearMap(1 / alpha)`` (LinearMap follows the
    T(tau) = tau / alpha convention) over the domain ``t_span``: the
    record's clock is the compressed time t and ``t_values()`` exposes
    alpha * t.
    """
    compressed = LinearMap(alpha=1.0 / check_real("alpha", alpha, positive=True), domain=t_span)
    return propagate_tau(psi0, pot, constants, compressed, t_span, cfg)


def residual_check(
    record: EvolutionRecord, pot: PotentialSpec, constants: PhysicalConstants
) -> float:
    """Largest normalized wave-equation residual over uniform snapshot triples.

    For each interior snapshot n with uniformly spaced neighbours the check
    compares the central time derivative against the generator:

        | i hbar (psi_{n+1} - psi_{n-1}) / (2 dt_eff) - pref * H psi_n |

    maximized over grid points and divided by max |pref * H psi_n|. The
    prefactor is T'(tau_n) for relabeled records and 1 otherwise.
    """
    snaps = record.snapshots
    if len(snaps) < 3:
        raise ValidationError(f"residual check needs >= 3 snapshots, got {len(snaps)}")
    grid = snaps[0].state.grid
    hbar = constants.hbar
    kin = hbar**2 / (2.0 * constants.mass * grid.dx**2)
    x_int = grid.points()[1:-1]

    worst = 0.0
    used = 0
    for n in range(1, len(snaps) - 1):
        h1 = snaps[n].clock - snaps[n - 1].clock
        h2 = snaps[n + 1].clock - snaps[n].clock
        if abs(h2 - h1) > 1e-9 * max(h1, h2):
            continue  # shortened final step: central difference would lose order
        dt_eff = 0.5 * (snaps[n + 1].clock - snaps[n - 1].clock)
        pref, teval = clock_reading(record.timemap, snaps[n].clock)
        v = _interior_potential(pot, teval, x_int)
        gen = pref * _hamiltonian_times(snaps[n].state.amplitudes, v, kin)
        deriv = 1j * hbar * (snaps[n + 1].state.amplitudes - snaps[n - 1].state.amplitudes)
        deriv /= 2.0 * dt_eff
        den = float(np.max(np.abs(gen)))
        if den < 1e-300:
            continue
        worst = max(worst, float(np.max(np.abs(deriv - gen))) / den)
        used += 1
    if used == 0:
        raise ValidationError("no uniformly spaced snapshot triple to difference")
    return worst


@dataclass(frozen=True)
class CovarianceScenario:
    """Inputs for one matched-clock comparison run."""

    constants: PhysicalConstants
    potential: PotentialSpec
    timemap: TimeMap
    initial_state: Wavefunction
    tau_span: tuple[float, float]
    config: PropagatorConfig


@dataclass(frozen=True)
class CovarianceReport:
    """Sample-by-sample agreement between matched tau and t evolutions."""

    tau: np.ndarray
    t: np.ndarray
    tprime: np.ndarray
    fidelity: np.ndarray
    norm_psi: np.ndarray
    norm_phi: np.ndarray
    energy_t: np.ndarray
    energy_tau: np.ndarray
    energy_transform_residual: np.ndarray
    flags: tuple[str, ...] = ()
    tau_record: EvolutionRecord | None = field(default=None, repr=False)
    t_record: EvolutionRecord | None = field(default=None, repr=False)

    def __post_init__(self):
        if np.any(self.fidelity < 0) or np.any(self.fidelity > 1.0 + FIDELITY_CAP_SLACK):
            raise NumericalError(
                f"fidelity left [0, 1 + {FIDELITY_CAP_SLACK:g}]: "
                f"max {float(np.max(self.fidelity)):.17g}"
            )

    @property
    def is_valid(self) -> bool:
        return not self.flags

    @property
    def min_fidelity(self) -> float:
        return float(np.min(self.fidelity))

    @property
    def max_energy_transform_residual(self) -> float:
        return float(np.max(self.energy_transform_residual))

    @property
    def max_norm_deviation(self) -> float:
        dev_psi = float(np.max(np.abs(self.norm_psi - self.norm_psi[0])))
        dev_phi = float(np.max(np.abs(self.norm_phi - self.norm_phi[0])))
        return max(dev_psi, dev_phi)


def covariance_experiment(scenario: CovarianceScenario) -> CovarianceReport:
    """Run matched tau/t evolutions and compare them sample by sample.

    The relabeled run is stepped uniformly in tau; the reference run steps
    uniformly in t but shortens substeps so it lands exactly on each
    comparison time T(tau_k). Fidelity uses the overlap modulus, so only
    agreement up to a global phase is required.
    """
    cst = scenario.constants
    tmap = scenario.timemap
    a, b = check_span("tau_span", scenario.tau_span)
    psi0 = scenario.initial_state
    if abs(psi0.norm() - 1.0) > NORM_DRIFT_TOL:
        raise ValidationError(f"initial state must be normalized, norm={psi0.norm():.12g}")

    tau_rec = propagate_tau(psi0, scenario.potential, cst, tmap, (a, b), scenario.config)

    taus = tau_rec.clocks()
    t_marks = tau_rec.t_values()
    if np.any(np.diff(t_marks) <= 0):
        raise CoverageError("clock map failed to produce increasing comparison times")

    t_rec = _run_crank_nicolson(
        psi0, scenario.potential, cst, (float(t_marks[0]), float(t_marks[-1])),
        scenario.config, timemap=None, landmarks=t_marks[1:],
    )
    if len(t_rec.snapshots) != len(tau_rec.snapshots):
        raise NumericalError(
            f"landing mismatch: {len(t_rec.snapshots)} reference snapshots for "
            f"{len(tau_rec.snapshots)} relabeled samples"
        )

    rates = np.array([float(tmap.rate(tk)) for tk in taus])
    fids = np.array(
        [fidelity(ps.state, ph.state) for ps, ph in zip(t_rec.snapshots, tau_rec.snapshots)]
    )
    norm_psi = t_rec.norms()
    norm_phi = tau_rec.norms()
    energy_t = t_rec.energies()
    energy_tau = tau_rec.energies()
    residual = np.abs(energy_tau - rates * energy_t)

    return CovarianceReport(
        tau=taus,
        t=t_marks,
        tprime=rates,
        fidelity=fids,
        norm_psi=norm_psi,
        norm_phi=norm_phi,
        energy_t=energy_t,
        energy_tau=energy_tau,
        energy_transform_residual=residual,
        flags=tau_rec.flags + t_rec.flags,
        tau_record=tau_rec,
        t_record=t_rec,
    )
