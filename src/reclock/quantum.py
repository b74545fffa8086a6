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
Each step is one LAPACK ``zgtsv`` solve (Gaussian elimination with partial
pivoting) through one binder, ``_gtsv``, which owns every buffer it touches.
One lookup, ``_openblas``, finds ``scipy_zgtsv_64_`` of the OpenBLAS
that NumPy's wheel bundles and has already loaded, called through ctypes;
where NumPy ships none (NumPy 1.x wheels name it otherwise, and MKL builds
have none) the binder calls SciPy's ``gtsv``, the same routine. Each run
holds that OpenBLAS to one thread (``_one_blas_thread``), so no float of it
depends on the BLAS thread count.
What does not depend on the state (the potential at every step's and every
record's clock and both sides' diagonal coefficients) is built for a block
of steps at once with the same floating-point operations as a per-step
build, so blocking changes no result. A non-finite V(t, x) stops the run
before its block steps, with a NumericalError naming the earliest bad t.
Every working array of a run (the block's coefficient rows, its record
rows with their H psi, a step's neighbour products) is made once per run and
written with ``out=``, using the same ufuncs in the same order, so no block
or step allocates one again and no float changes. A block's potential rows
are made per block and live until the next block's replace them: freed any
earlier, they sit on top of glibc's heap, glibc trims it, and the next block
faults them in again.

A run is planned first, then streamed. The plan (``_plan``) is everything
fixed before the first step, as arrays: the step boundaries, each step's
prefactor and potential clock, and the record slots with their clocks,
rates T' and readings T. The stream (``_stream``) steps a plan and yields
its records one at a time, each as its row with its norm and energy, after
the norm, energy and edge-leak monitors have run on it. A row lives in a run
buffer, so it is valid only until the next record is asked for. Both
``propagate_t`` and ``propagate_tau`` copy the records into an
``EvolutionRecord``: a read-only (records, n_points) amplitude array and the
clock, rate, reading, norm and energy columns; ``snapshots`` builds
per-sample objects only on request.

Covariance experiments compare the two evolutions sample by sample: the
relabeled run is stepped uniformly in tau, and the reference run, planned
by ``_reference_plan``, shortens individual substeps so that it lands
*exactly* on each comparison time T(tau_k) instead of interpolating. Both
runs are planned before either steps, then their streams are paired with
``zip``, so each matched pair of rows is compared as soon as both exist and
no whole amplitude record is kept. With ``side_by_side`` the reference
run's stream is ``_forked``: when the first record is asked for, it forks a
child process that steps the reference run while the tau run steps in the
caller. The child writes each record to a pipe of ``_PIPE_BYTES``, each
side through one frame buffer, so the rows in flight are bounded by the
pipe's buffer and none sit on the caller's heap; the caller's NumPy error
state reaches the child through the fork itself. However the stream ends,
the child is reaped, and killed first if it has not finished. It forks only
where it can (else it steps the stream in the caller), when the runner
asks, where every process running scenarios has a core to spare. Threads
paid only from 1024 grid points up: at 512, two step loops in two threads
took 1.57x the time of one, as each ~40 us step hands the GIL over twice.
Two processes share no GIL. Records, errors and flags are paired in the
same order either way, so the report is the same bit for bit. Agreement is
measured with the phase-invariant overlap modulus, so a global phase
difference is ignored.

A run's stepping knobs and the cap on its step count (PropagatorConfig,
MAX_STEPS, check_step_count) live in ``model``, so the scenario parser
checks a file's steps without loading this module; they are importable from
here as before.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CoverageError, NumericalError, ValidationError
# MAX_STEPS is imported only to stay importable from here (module docstring).
from .model import (
    MAX_STEPS,
    LinearMap,
    PhysicalConstants,
    PotentialSpec,
    PropagatorConfig,
    SpatialGrid,
    TimeMap,
    Wavefunction,
    check_real,
    check_span,
    check_step_count,
    clock_reading,
    freeze_record,
    row_norms,
)

# Monitors applied to every recorded sample. The edge-leak monitor sums the
# probability within EDGE_GUARD of the box width from either wall.
NORM_DRIFT_TOL = 1e-8
EDGE_MASS_TOL = 1e-8
EDGE_GUARD = 0.1

# Fidelity may exceed 1 only by quadrature rounding.
FIDELITY_CAP_SLACK = 1e-12

# A step boundary within this fraction of dt of a requested landing time is
# moved onto it instead of spawning a degenerate micro-step.
LANDMARK_SNAP_FRACTION = 1e-9

# The kernel builds the state-independent coefficients of this many grid
# points' worth of steps at once: 32 steps at n=512, where per-call overhead
# dominates, and one step from n=16384 up, where per-point arithmetic does.
# A run's working arrays hold one block: ~1.5 MB at n=512 with a record at
# every step.
_BLOCK_POINTS = 1 << 14

# A forked reference run's pipe holds this many bytes of records: about four
# blocks' worth at any grid size, so the child steps on while its last
# records wait to be read. Linux's default 64 KB holds seven rows at n=512:
# there the two processes took 1.52-1.62 s on a dense-record covariance that
# one process steps in 1.43-1.48 s, and with 1 MB they took 0.88-1.04 s
# (in-process, 2-vCPU Xeon).
_PIPE_BYTES = 1 << 20


@dataclass(frozen=True)
class Snapshot:
    """One row of an EvolutionRecord as an object, built by its ``snapshots``."""

    clock: float
    state: Wavefunction
    norm: float
    energy: float


@dataclass(frozen=True, eq=False)
class EvolutionRecord:
    """One propagation run as arrays with one row per recorded sample.

    ``clocks`` are the run's own clock values, strictly increasing; ``rates``
    and ``t`` are T' and T there (1 and the clock for a conventional run).
    ``amplitudes`` holds each sample's state as a row. ``energies`` is the
    expectation of the run's own generator: plain <H(t)> for a
    conventional-clock run and T'(tau)<H(T(tau))> for a relabeled one.
    """

    grid: SpatialGrid
    clocks: np.ndarray
    rates: np.ndarray
    t: np.ndarray
    amplitudes: np.ndarray
    norms: np.ndarray
    energies: np.ndarray
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        columns = ("clocks", "rates", "t", "norms", "energies", "amplitudes")
        freeze_record(self, columns, 1, rows=("amplitudes", self.grid.n_points))

    @property
    def final_state(self) -> Wavefunction:
        return Wavefunction(self.grid, self.amplitudes[-1])

    @property
    def snapshots(self) -> tuple[Snapshot, ...]:
        """The rows as Snapshot objects, built anew on each access."""
        rows = zip(self.clocks, self.amplitudes, self.norms, self.energies)
        return tuple(
            Snapshot(float(c), Wavefunction(self.grid, a), float(n), float(e)) for c, a, n, e in rows
        )


def _potential_rows(pot: PotentialSpec, tevals, x_interior: np.ndarray) -> np.ndarray:
    """V at each clock of ``tevals`` as (k, m) rows over the interior points.

    The one non-finite-potential check: it names the earliest bad t, which in
    a run, where t only increases, is the first bad evaluation in run order.
    """
    tevals = np.asarray(tevals, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = np.asarray(pot.value(tevals[:, None], x_interior), dtype=float)
    v = np.broadcast_to(v, (len(tevals), len(x_interior)))
    finite = np.isfinite(v).all(axis=1)
    if not finite.all():
        t_bad = float(tevals[~finite].min())
        raise NumericalError(f"potential produced non-finite values at t={t_bad}")
    return v


def _kinetic_weight(constants: PhysicalConstants, dx: float) -> float:
    """hbar^2 / (2 mass dx^2), the Laplacian's weight in H, if it is finite."""
    try:
        kin = constants.hbar**2 / (2.0 * constants.mass * dx**2)
    except (OverflowError, ZeroDivisionError):
        kin = math.inf
    if not math.isfinite(kin):
        raise NumericalError(
            f"the kinetic weight hbar**2 / (2 mass dx**2) is not finite for "
            f"hbar = {constants.hbar!r}, mass = {constants.mass!r} and dx = {dx!r}"
        )
    return kin


def _h_rows(
    amps: np.ndarray, v: np.ndarray, constants: PhysicalConstants, dx: float, out=None, lap=None
):
    """H psi for each (full-grid) row of ``amps`` with its interior potential
    row of ``v``: central Laplacian with hard-wall closure.

    Given, ``out`` (shaped as ``amps``, walls zero) takes the result and
    ``lap`` (its interior) the Laplacian; only the interior of ``out`` is
    written, so its walls stay zero."""
    kin = _kinetic_weight(constants, dx)
    # In place, with the operations of
    # -kin * (amps[:, 2:] - 2 b + amps[:, :-2]) + v * b, in that order.
    b = amps[:, 1:-1]
    lap = np.multiply(2.0, b, out=lap)
    np.subtract(amps[:, 2:], lap, out=lap)
    np.add(lap, amps[:, :-2], out=lap)
    np.multiply(-kin, lap, out=lap)
    if out is None:
        out = np.zeros_like(amps)
    np.add(lap, np.multiply(v, b, out=out[:, 1:-1]), out=out[:, 1:-1])
    return out


def _energies(amps: np.ndarray, h_amps: np.ndarray, dx: float) -> np.ndarray:
    """Re <psi|H psi> dx for each row: one vdot per row, since a batched
    einsum does not round the same way."""
    return np.array([np.vdot(a, h).real for a, h in zip(amps, h_amps)]) * dx


def _overlap(a: np.ndarray, b: np.ndarray, dx: float) -> float:
    """|<a|b>| dx for two rows."""
    return abs(np.vdot(a, b)) * dx


def apply_hamiltonian(
    psi: Wavefunction, pot: PotentialSpec, constants: PhysicalConstants, t: float
) -> Wavefunction:
    """H(t) psi with the second-order central Laplacian; output is unnormalized."""
    grid = psi.grid
    v = _potential_rows(pot, [t], grid.points()[1:-1])
    return Wavefunction(grid, _h_rows(psi.amplitudes[None], v, constants, grid.dx)[0])


def expectation_energy(
    psi: Wavefunction, pot: PotentialSpec, constants: PhysicalConstants, t: float
) -> float:
    """Re <psi| H(t) |psi> on the grid quadrature, on one BLAS thread as a
    run's energies are (``_one_blas_thread``)."""
    h_psi = apply_hamiltonian(psi, pot, constants, t)
    with _one_blas_thread():
        return float(_energies(psi.amplitudes[None], h_psi.amplitudes[None], psi.grid.dx)[0])


def expectation_position(psi: Wavefunction) -> float:
    """<x> on the grid quadrature."""
    x = psi.grid.points()
    dens = np.abs(psi.amplitudes) ** 2
    return float(np.sum(x * dens) * psi.grid.dx)


def position_variance(psi: Wavefunction) -> float:
    """<x^2> - <x>^2 on the grid quadrature."""
    x = psi.grid.points()
    mean = expectation_position(psi)
    second = float(np.sum(x * x * np.abs(psi.amplitudes) ** 2) * psi.grid.dx)
    return second - mean * mean


def fidelity(a: Wavefunction, b: Wavefunction) -> float:
    """|<a|b>| on the grid quadrature; invariant under global phases. Taken on
    one BLAS thread, as a run's fidelities are (``_one_blas_thread``)."""
    if a.grid != b.grid:
        raise ValidationError(f"grid mismatch: {a.grid} vs {b.grid}")
    with _one_blas_thread():
        return float(_overlap(a.amplitudes, b.amplitudes, a.grid.dx))


def _step_boundaries(a: float, b: float, dt: float, landmarks=()) -> np.ndarray:
    """Step boundaries from a to b as a float64 array: a uniform dt ladder,
    final step shortened to land on b, with every landmark placed exactly.

    Within ``snap = LANDMARK_SNAP_FRACTION * dt`` a landmark replaces a ladder
    rung, and b, instead of leaving a micro-step next to it. Two landmarks
    that close to each other are rejected, since one of them would be lost.
    b itself is never outside the span, even when the span is shorter than snap.
    """
    if not b > a:
        raise ValidationError(f"span must satisfy b > a, got ({a}, {b})")
    count = check_step_count(a, b, dt)
    snap = LANDMARK_SNAP_FRACTION * dt
    # Sorted, each once; np.unique would import numpy.ma (~19 ms) into a run.
    marks = np.sort(np.asarray(landmarks, dtype=float))
    marks = np.delete(marks, np.flatnonzero(np.diff(marks) == 0))
    close = np.flatnonzero(np.diff(marks) <= snap)
    if close.size:
        lo, hi = marks[close[0]:close[0] + 2].tolist()
        raise ValidationError(
            f"landing times {lo!r} and {hi!r} are closer than the minimum "
            f"separation {snap:.3g} ({LANDMARK_SNAP_FRACTION:g} * dt)"
        )
    outside = np.flatnonzero(((marks <= a + snap) & (marks != b)) | (marks > b + snap))
    if outside.size:
        raise ValidationError(f"landing time {marks[outside[0]].item()} outside span ({a}, {b}]")
    if not marks.size or b - marks[-1] > snap:
        marks = np.append(marks, b)
    fixed = np.concatenate([[a], marks])
    n = max(1, math.ceil(count - 1e-9))
    rungs = a + dt * np.arange(1, n)
    # Keep the rungs more than snap from both fixed neighbours; far from the
    # origin rounding can put the last rung onto b itself.
    j = np.searchsorted(fixed, rungs)
    inside = j < len(fixed)
    j = np.minimum(j, len(fixed) - 1)
    keep = inside & (rungs - fixed[j - 1] > snap) & (fixed[j] - rungs > snap)
    return np.sort(np.concatenate([fixed, rungs[keep]]))


@dataclass(frozen=True, eq=False)
class _Plan:
    """Everything a run computes before its first step.

    ``edges`` are the step boundaries, ``steps`` their lengths, ``prefs`` and
    ``tevals`` the generator prefactor and potential clock at each step's
    midpoint, and ``rec`` the boundary index of each record, whose clock, rate
    and reading are ``clocks``, ``rates`` and ``t``.
    """

    dt: float
    edges: np.ndarray
    steps: np.ndarray
    prefs: np.ndarray
    tevals: np.ndarray
    rec: np.ndarray
    clocks: np.ndarray
    rates: np.ndarray
    t: np.ndarray


def _plan(
    span: tuple[float, float], cfg: PropagatorConfig, timemap: TimeMap | None, landmarks=()
) -> _Plan:
    """The step schedule and record slots of one run, before any step.

    The run is in the relabeled clock tau when ``timemap`` is given and in the
    conventional clock t otherwise. Given increasing ``landmarks``, the run
    lands exactly on each of them and records only there (and at the start);
    otherwise it records every ``cfg.record_every`` steps and at the end.
    """
    a, b = check_span("t_span" if timemap is None else "tau_span", span)
    if timemap is not None:
        timemap.require(a, b)
    edges = _step_boundaries(a, b, cfg.dt, landmarks)
    if len(landmarks) > 0:
        # A landmark's slot is its boundary, if one holds it exactly (np.isin's
        # temporaries, freed, raised glibc's mmap threshold and peak RSS 1 MB).
        idx = np.minimum(np.searchsorted(edges, landmarks), len(edges) - 1)
        rec = np.append(0, idx[edges[idx] == landmarks])
    else:
        rec = np.append(np.arange(0, len(edges) - 1, cfg.record_every), len(edges) - 1)

    # Elementwise array arithmetic takes the same IEEE operations as the
    # scalar expressions, so no float changes. A mapped clock is read by the
    # scalar ``clock_reading``, one Python float at a time, because array
    # sin/exp need not match scalar; without a map its (1.0, c) are arrays.
    steps = edges[1:] - edges[:-1]
    mids = edges[:-1] + 0.5 * steps
    clocks = edges[rec]
    if timemap is None:
        prefs, tevals = np.ones(len(steps)), mids
        rates, t = np.ones(len(clocks)), clocks.copy()
    else:
        read = np.frompyfunc(functools.partial(clock_reading, timemap), 1, 2)
        prefs, tevals = (col.astype(float) for col in read(mids))
        rates, t = (col.astype(float) for col in read(clocks))
    return _Plan(cfg.dt, edges, steps, prefs, tevals, rec, clocks, rates, t)


def _reference_plan(t_marks: np.ndarray, cfg: PropagatorConfig) -> _Plan:
    """The reference t run's plan: it lands on and records at each of ``t_marks``."""
    if np.any(np.diff(t_marks) <= 0):
        raise CoverageError("clock map failed to produce increasing comparison times")
    plan = _plan((float(t_marks[0]), float(t_marks[-1])), cfg, None, t_marks[1:])
    if len(plan.clocks) != len(t_marks):
        raise NumericalError(
            f"landing mismatch: {len(plan.clocks)} reference snapshots for "
            f"{len(t_marks)} relabeled samples"
        )
    return plan


@functools.cache
def _openblas():
    """``(zgtsv, get_threads, set_threads)``: the ctypes ``scipy_zgtsv_64_``
    and thread-count getter and setter of the OpenBLAS in NumPy's wheel, or
    None if NumPy ships no such library.

    The library is opened with RTLD_NOLOAD: NumPy has mapped it already, so
    the kernel loads no second copy and, unlike through SciPy, no module.
    """
    libs = Path(np.__file__).parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            zgtsv = lib.scipy_zgtsv_64_
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (AttributeError, OSError):
            continue
        zgtsv.argtypes = [ctypes.c_void_p] * 8
        zgtsv.restype = None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return zgtsv, get_threads, set_threads
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold NumPy's bundled OpenBLAS to one thread, and give the caller back
    its own count on exit.

    OpenBLAS splits a long dot product over its threads, and so sums it in
    another order: with two threads a 16384-point ``vdot`` gave other bits
    than with one. A run's energies and overlaps are ``vdot``s, so each run
    takes them on one thread, as every stored digest was made. Where NumPy
    bundles no OpenBLAS this does nothing, and the bits depend on that BLAS.
    """
    found = _openblas()
    if found is None:
        yield
        return
    _, get_threads, set_threads = found
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


def _gtsv(block, m):
    """``(lhs, state, solve)``: the (block, m) diagonal rows and the two state
    rows of a run's solves, and ``solve(k, j, off)``, which overwrites
    ``state[j]`` with the solution of the system with diagonal ``lhs[k]`` and
    both off-diagonals ``off``, and returns LAPACK's info.

    ?gtsv overwrites all three diagonals, so ``solve`` refills the
    off-diagonals, which share one buffer, and a diagonal row is used once.
    It calls NumPy's ``zgtsv`` (``_openblas``) where there is one and
    SciPy's ``gtsv``, the same routine, otherwise; the choice is made on a
    run's first step, so a process that only validates loads neither.
    NumPy's takes every address once, here, since each would cost ~2 µs per
    call; the library is ILP64, so n, nrhs, ldb and info are one int64 array.
    """
    offs = np.empty(2 * (m - 1), dtype=complex)
    dl, du = offs[: m - 1], offs[m - 1 :]
    lhs = np.empty((block, m), dtype=complex)
    state = np.empty((2, m), dtype=complex)
    found = _openblas()
    if found is None:
        from scipy.linalg.lapack import get_lapack_funcs

        gtsv = get_lapack_funcs("gtsv", dtype=np.complex128)

        def solve(k, j, off):
            # Every buffer is a contiguous complex array, so f2py copies none
            # of them and overwrite_b solves in state[j] itself.
            offs.fill(off)
            return gtsv(dl, lhs[k], du, state[j], True, True, True, True)[-1]

        return lhs, state, solve

    zgtsv = found[0]
    ints = (ctypes.c_int64 * 4)(m, 1, m, 0)
    n_p, nrhs_p, ldb_p, info_p = (ctypes.addressof(ints) + 8 * i for i in range(4))
    dl_p, du_p = dl.ctypes.data, du.ctypes.data
    d_p, d_step = lhs.ctypes.data, lhs.strides[0]
    b_p, b_step = state.ctypes.data, state.strides[0]

    def solve(k, j, off):
        # k and j index rows of lhs and state, which the caller keeps in range.
        offs.fill(off)
        zgtsv(n_p, nrhs_p, dl_p, d_p + k * d_step, du_p, b_p + j * b_step, ldb_p, info_p)
        return ints[3]

    # lhs and state live as long as solve, which uses their addresses.
    solve.buffers = (lhs, state)
    return lhs, state, solve


def _stream(
    psi0: Wavefunction, pot: PotentialSpec, constants: PhysicalConstants, plan: _Plan, flags: list
):
    """Step ``plan`` from ``psi0`` and yield its records one at a time.

    Each step solves (I + i lam G) u_new = (I - i lam G) u_old on the grid
    interior, with G = pref * H(t_eval) at the step midpoint and
    lam = step/(2 hbar). Each record is yielded as ``(row, norm, energy)``
    once its block of steps has run and the norm, energy and edge-leak
    monitors have checked the block's records; monitor flags are appended
    to ``flags``. The row is a view of a buffer that later blocks overwrite,
    so it is valid only until the next record is asked for.
    """
    grid = psi0.grid
    hbar, dx = constants.hbar, grid.dx
    x = grid.points()
    x_int = x[1:-1]
    # Edge-leak monitor: the grid points within EDGE_GUARD of either wall.
    width = (grid.x_max - grid.x_min) * EDGE_GUARD
    strip = (x <= grid.x_min + width) | (x >= grid.x_max - width)
    kin = _kinetic_weight(constants, dx)
    m = grid.n_points - 2
    edges, steps, prefs, tevals, rec = plan.edges, plan.steps, plan.prefs, plan.tevals, plan.rec
    last = len(steps)

    norm0 = psi0.norm()

    # Each block runs its steps and takes the records they land on; the first
    # block also takes the start record.
    block = min(last, max(1, _BLOCK_POINTS // m))
    starts = range(0, last, block)
    js = np.searchsorted(rec, [n0 + (n0 > 0) for n0 in starts]).tolist() + [len(rec)]

    # Every working array lives for the whole run and is written with out=.
    # Fresh ones per block made the one-step blocks of large grids ~10%
    # slower, and at n=512 glibc handed each back at the block's end and
    # faulted it in again: tens of minor faults per block. The potential's
    # rows are the block's own and live until the next block's replace them.
    # Record rows are written only inside the walls, which stay zero.
    diag = np.empty((block, m))
    rmul = np.empty((block, m), dtype=complex)
    lhs, state, solve = _gtsv(block, m)
    most = max(j1 - j0 for j0, j1 in zip(js, js[1:]))
    records = np.zeros((most, grid.n_points), dtype=complex)
    h_records = np.zeros((most, grid.n_points), dtype=complex)
    lap = np.empty((most, m), dtype=complex)
    w = np.empty(m, dtype=complex)
    w_head, w_tail = w[:-1], w[1:]
    # The state's two rows take turns as u and rhs: a step builds its
    # right-hand side in the row u is not in, and the solve turns it into the
    # next u there. ``views[side]`` is (u, rhs, rhs[:-1], rhs[1:]) when rhs
    # is row ``side``.
    views = [(state[1 - j], state[j], state[j][:-1], state[j][1:]) for j in (0, 1)]
    state[0] = records[0, 1:-1] = psi0.amplitudes[1:-1]  # the start record is row 0
    side = 1
    for n0, j0, j1 in zip(starts, js, js[1:]):
        n1 = min(n0 + block, last)
        rows = n1 - n0
        out = records[: j1 - j0]
        slot = {bound: j for j, bound in enumerate(rec[j0:j1].tolist())}
        v = _potential_rows(pot, np.concatenate([tevals[n0:n1], plan.t[j0:j1]]), x_int)
        pref = prefs[n0:n1]
        try:
            # An overflow raises here instead of warning; a finite run's
            # floats do not depend on it.
            with np.errstate(over="raise", invalid="raise"):
                lam = 0.5 * steps[n0:n1] / hbar
                ioffs = (1j * lam * (-pref * kin)).tolist()
                d = np.add(2.0 * kin, v[:rows], out=diag[:rows])
                d *= pref[:, None]
                ild = np.multiply(1j * lam[:, None], d, out=lhs[:rows])
                np.subtract(1.0, ild, out=rmul[:rows])
                np.add(1.0, ild, out=ild)

                for k, n in enumerate(range(n0, n1)):
                    ioff = ioffs[k]
                    u, rhs, rhs_head, rhs_tail = views[side]
                    # rhs = rmul u - ioff u[j+1] - ioff u[j-1], each product
                    # ioff u[j] formed once.
                    np.multiply(rmul[k], u, out=rhs)
                    np.multiply(ioff, u, out=w)
                    np.subtract(rhs_head, w_tail, out=rhs_head)
                    np.subtract(rhs_tail, w_head, out=rhs_tail)

                    info = solve(k, side, ioff)
                    if info != 0:
                        raise NumericalError(
                            f"tridiagonal solve failed at step {n}: LAPACK ?gtsv info={info}"
                        )
                    if n + 1 in slot:
                        out[slot[n + 1], 1:-1] = rhs
                    side = 1 - side
        except FloatingPointError as exc:
            raise NumericalError(
                f"step arithmetic overflows between clock {edges[n0]:.6g} and "
                f"{edges[n1]:.6g}: clock rate up to {pref.max():.3g}, dt = {plan.dt:g} "
                f"and hbar = {hbar:g} put the coefficients past the floating-point range"
            ) from exc

        if j1 > j0:
            norms = row_norms(out, dx)
            h_out = _h_rows(out, v[rows:], constants, dx, h_records[: j1 - j0], lap[: j1 - j0])
            energies = plan.rates[j0:j1] * _energies(out, h_out, dx)
            # A boolean column mask leaves the rows strided, and a strided
            # row sums in another order; contiguous rows match a 1D sum.
            leaks = np.sum(np.abs(np.ascontiguousarray(out[:, strip])) ** 2, axis=1) * dx
            for clock, norm, leak in zip(plan.clocks[j0:j1], norms, leaks):
                if not math.isfinite(norm):
                    raise NumericalError(f"state became non-finite at clock {clock}")
                if abs(norm - norm0) > NORM_DRIFT_TOL:
                    flags.append(f"norm-drift {abs(norm - norm0):.3e} at clock {clock:.6g}")
                if leak >= EDGE_MASS_TOL:
                    flags.append(f"edge-leak {leak:.3e} at clock {clock:.6g}")
            yield from zip(out, norms, energies)


def _forked(items, flags: list, n_points: int):
    """The ``(row, norm, energy)`` records of the stream ``items``, stepped in
    a child process forked when the first record is asked for, while this
    one does other work.

    The child writes each record to a pipe as one frame of complex numbers:
    0, then norm + 1j energy, then the row. Each side fills one frame buffer
    per record, so a yielded row is valid only until the next record is asked
    for. At the end the child writes 1, then the pickled ``flags`` its stream
    appended, or the exception the stream raised, which is raised here where
    it occurred. An exception that does not survive pickling arrives as a
    NumericalError naming its type and message. The child leaves only
    through ``os._exit``, so it runs no exit handler and flushes no buffer of
    this process. However the generator ends (its last record, an
    exception, ``close`` or garbage collection), a child that has not
    finished is killed, and the child is reaped. Where no child may be forked
    (no ``os.fork``; a live thread, whose locks the child would inherit; a
    process or file limit), the unstarted stream is stepped here instead: the
    fork buys only speed, and both ways yield the same records bit for bit.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        yield from items
        return
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        yield from items
        return
    try:
        import fcntl

        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (AttributeError, OSError):
        pass  # not Linux, or past the system's pipe limits: the default pipe
    # One record's frame: 0, norm + 1j energy, then the row. Made before
    # the fork, so the child starts with its own copy.
    frame = np.zeros(2 + n_points, dtype=complex)
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        yield from items
        return
    if pid == 0:
        try:
            os.close(read_fd)
            _feed(items, flags, write_fd, frame)
        finally:
            os._exit(0)
    os.close(write_fd)
    running = True
    try:
        with open(read_fd, "rb") as reader:
            # A record's whole frame in one read, into the frame this side owns.
            while (got := reader.readinto(frame)) == frame.nbytes and frame[0] == 0:
                yield frame[2:], frame[1].real, frame[1].imag
            running = False
            if got >= 16 and frame[0] == 1:
                import pickle

                end = pickle.loads(frame.tobytes()[16:got] + reader.read())
                if isinstance(end, BaseException):
                    raise end
                flags.extend(end)
                return
    finally:
        if running:
            import signal

            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    raise NumericalError(
        f"the reference run's process ended without its result "
        f"(exit code {os.waitstatus_to_exitcode(status)})"
    )


def _feed(items, flags: list, fd: int, frame: np.ndarray):
    """The forked child's work: write the records of ``items`` to ``fd`` as
    ``_forked`` reads them, each filled into ``frame`` (whose first entry is
    0), then ``flags`` or the exception raised."""
    import pickle

    with open(fd, "wb") as out:
        try:
            for row, norm, energy in items:
                frame[1] = complex(norm, energy)
                frame[2:] = row
                # Flushed at once: a record held back while the stream steps
                # on would stall the reader.
                out.write(frame)
                out.flush()
            end = flags
        except BaseException as exc:
            end = exc  # handed over, and raised by the reader
        try:
            data = pickle.dumps(end)
            pickle.loads(data)  # some exceptions pickle but cannot be rebuilt
        except Exception:
            data = pickle.dumps(NumericalError(f"{type(end).__name__}: {end}"))
        out.write(np.array(1, dtype=complex).tobytes() + data)


def _run_crank_nicolson(
    psi0: Wavefunction, pot: PotentialSpec, constants: PhysicalConstants, plan: _Plan
) -> EvolutionRecord:
    """One run of either clock kept whole: every record of ``_stream``
    copied into the record's arrays."""
    k = len(plan.clocks)
    amplitudes = np.empty((k, psi0.grid.n_points), dtype=complex)
    norms = np.empty(k)
    energies = np.empty(k)
    flags: list[str] = []
    with _one_blas_thread():
        for j, (row, norm, energy) in enumerate(_stream(psi0, pot, constants, plan, flags)):
            amplitudes[j], norms[j], energies[j] = row, norm, energy
    return EvolutionRecord(
        grid=psi0.grid,
        clocks=plan.clocks,
        rates=plan.rates,
        t=plan.t,
        amplitudes=amplitudes,
        norms=norms,
        energies=energies,
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
    return _run_crank_nicolson(psi0, pot, constants, _plan(t_span, cfg, None))


def propagate_tau(
    phi0: Wavefunction,
    pot: PotentialSpec,
    constants: PhysicalConstants,
    timemap: TimeMap,
    tau_span: tuple[float, float],
    cfg: PropagatorConfig,
) -> EvolutionRecord:
    """Evolve i hbar dphi/dtau = T'(tau) H(T(tau)) phi over tau_span."""
    return _run_crank_nicolson(phi0, pot, constants, _plan(tau_span, cfg, timemap))


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
    record's clock is the compressed time t and its ``t`` column holds
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
    clocks, amps = record.clocks, record.amplitudes
    if len(clocks) < 3:
        raise ValidationError(f"residual check needs >= 3 snapshots, got {len(clocks)}")
    x_int = record.grid.points()[1:-1]
    h1 = clocks[1:-1] - clocks[:-2]
    h2 = clocks[2:] - clocks[1:-1]
    # A shortened final step would cost the central difference its order.
    uniform = 1 + np.flatnonzero(np.abs(h2 - h1) <= 1e-9 * np.maximum(h1, h2))

    worst = 0.0
    used = 0
    block = max(1, _BLOCK_POINTS // record.grid.n_points)
    for lo in range(0, len(uniform), block):
        n = uniform[lo:lo + block]
        v = _potential_rows(pot, record.t[n], x_int)
        gen = record.rates[n, None] * _h_rows(amps[n], v, constants, record.grid.dx)
        deriv = 1j * constants.hbar * (amps[n + 1] - amps[n - 1])
        dt_eff = 0.5 * (clocks[n + 1] - clocks[n - 1])
        deriv /= (2.0 * dt_eff)[:, None]
        den = np.max(np.abs(gen), axis=1)
        ok = den >= 1e-300
        gaps = np.max(np.abs(deriv - gen), axis=1)
        worst = max(worst, float(np.max(gaps[ok] / den[ok], initial=0.0)))
        used += int(np.count_nonzero(ok))
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


@dataclass(frozen=True, eq=False)
class CovarianceReport:
    """Sample-by-sample agreement between matched tau and t evolutions.

    ``tau_record`` and ``t_record`` are the two runs as whole records. The
    experiment streams its runs and keeps neither, so each is stepped again
    from ``source`` on first read; the kernel is deterministic, so these are
    the compared runs float for float. A report built without ``source`` has
    neither.
    """

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
    source: CovarianceScenario | None = field(default=None, repr=False)

    def __post_init__(self):
        columns = (
            "tau", "t", "tprime", "fidelity", "norm_psi", "norm_phi",
            "energy_t", "energy_tau", "energy_transform_residual",
        )
        freeze_record(self, columns, 1)
        if np.any(self.fidelity < 0) or np.any(self.fidelity > 1.0 + FIDELITY_CAP_SLACK):
            raise NumericalError(
                f"fidelity left [0, 1 + {FIDELITY_CAP_SLACK:g}]: "
                f"max {float(np.max(self.fidelity)):.17g}"
            )

    @functools.cached_property
    def tau_record(self) -> EvolutionRecord | None:
        s = self.source
        if s is None:
            return None
        return propagate_tau(
            s.initial_state, s.potential, s.constants, s.timemap, s.tau_span, s.config
        )

    @functools.cached_property
    def t_record(self) -> EvolutionRecord | None:
        s = self.source
        if s is None:
            return None
        plan = _reference_plan(self.t, s.config)
        return _run_crank_nicolson(s.initial_state, s.potential, s.constants, plan)

    @property
    def min_fidelity(self) -> float:
        return float(np.min(self.fidelity))

    @property
    def max_energy_transform_residual(self) -> float:
        return float(np.max(self.energy_transform_residual))

    @property
    def max_norm_deviation(self) -> float:
        return max(float(np.max(np.abs(n - n[0]))) for n in (self.norm_psi, self.norm_phi))


def covariance_experiment(
    scenario: CovarianceScenario, side_by_side: bool = False
) -> CovarianceReport:
    """Run matched tau/t evolutions and compare them sample by sample.

    The relabeled run is stepped uniformly in tau; the reference run steps
    uniformly in t but shortens substeps so it lands exactly on each
    comparison time T(tau_k). Fidelity uses the overlap modulus, so only
    agreement up to a global phase is required.

    Both runs are planned before either steps, so a bad schedule fails before
    any work. The two streams are then paired with ``zip``, and each matched
    pair of rows is compared as soon as both exist and then dropped: no
    whole amplitude record is ever held. With ``side_by_side`` the t stream
    is stepped in a forked child process, where ``_forked`` finds one can be
    forked; it pays only where a core is free for the child. The child is
    forked once the tau run has its first record, so a tau run that fails
    in its first block forks none. An error of either run is raised at the
    record where it occurred, the tau run's first on a tie, as ``zip``
    does, and the child has been reaped on return.
    """
    cst, pot, cfg = scenario.constants, scenario.potential, scenario.config
    psi0 = scenario.initial_state
    if abs(psi0.norm() - 1.0) > NORM_DRIFT_TOL:
        raise ValidationError(f"initial state must be normalized, norm={psi0.norm():.12g}")

    tau_plan = _plan(scenario.tau_span, cfg, scenario.timemap)
    t_plan = _reference_plan(tau_plan.t, cfg)

    fid, norm_phi, norm_psi, energy_tau, energy_t = np.empty((5, len(tau_plan.clocks)))
    tau_flags, t_flags = [], []
    with _one_blas_thread():
        t_rows = _stream(psi0, pot, cst, t_plan, t_flags)
        if side_by_side:
            # Forked on one BLAS thread, which the child keeps.
            t_rows = _forked(t_rows, t_flags, psi0.grid.n_points)
        try:
            # strict: after the last pair the t stream is read to its end,
            # where a forked one hands over its flags.
            pairs = zip(_stream(psi0, pot, cst, tau_plan, tau_flags), t_rows, strict=True)
            for j, ((phi, n_phi, e_tau), (psi, n_psi, e_t)) in enumerate(pairs):
                fid[j] = _overlap(psi, phi, psi0.grid.dx)
                norm_phi[j], energy_tau[j], norm_psi[j], energy_t[j] = n_phi, e_tau, n_psi, e_t
        finally:
            # A forked t run's child is reaped here, whatever ended the pairing.
            t_rows.close()

    return CovarianceReport(
        tau=tau_plan.clocks,
        t=tau_plan.t,
        tprime=tau_plan.rates,
        fidelity=fid,
        norm_psi=norm_psi,
        norm_phi=norm_phi,
        energy_t=energy_t,
        energy_tau=energy_tau,
        energy_transform_residual=np.abs(energy_tau - tau_plan.rates * energy_t),
        flags=tuple(tau_flags + t_flags),
        source=scenario,
    )
