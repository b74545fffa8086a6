"""Mutation census: each planted fault must fail a named existing check.

Each mutant replaces one library function through ``monkeypatch`` and then
calls one test of another module directly, loaded by path and unedited. The
census passes when that check's own assertion fails on the mutant, or, for a
guarded mutant, when one of the library's own guards stops the check with
its error; a mutant that no check catches is a gap in the suite.
"""

import functools
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import reclock.classical as classical
import reclock.dop853 as dop853
import reclock.quantum as quantum
import reclock.reports as reports
from reclock.errors import NumericalError

TESTS = Path(__file__).resolve().parent


@functools.cache
def _test_module(name: str):
    spec = importlib.util.spec_from_file_location(f"census_{name}", TESTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unit_rate(clock_reading):
    """``clock_reading`` with the rate T' forced to 1 and the reading T kept."""
    return lambda timemap, clock: (1.0, clock_reading(timemap, clock)[1])


def _real_part_overlap(a, b, dx):
    return np.vdot(a, b).real * dx


def _csv_15_digits(table):
    yield ",".join(table) + "\n"
    for row in zip(*table.values(), strict=True):
        yield ",".join(f"{float(v):.14e}" for v in row) + "\n"


def _stiffer_kinetic_weight(scale, _weight=quantum._kinetic_weight):
    # The same wrong H in both clocks: the covariance checks cannot see it.
    return lambda constants, dx: _weight(constants, dx) * scale


def _drop_first_landmark(a, b, dt, landmarks=(), _boundaries=quantum._step_boundaries):
    # The reference run no longer lands on its first comparison time.
    return _boundaries(a, b, dt, list(landmarks)[1:])


def _scaled_row_norms(amps, dx, _norms=quantum.row_norms):
    return _norms(amps, dx) * (1 + 1e-6)


def _potential_at_t0(pot, tevals, x_interior, _rows=quantum._potential_rows):
    return _rows(pot, np.zeros(len(tevals)), x_interior)


def _energies_dx_twice(amps, h_amps, dx, _energies=quantum._energies):
    return _energies(amps, h_amps, dx) * dx


def _conjugated_implicit_off_diagonal(block, m, _gtsv=quantum._gtsv):
    # The solve's off-diagonal conjugated; the right-hand side keeps its own.
    lhs, state, solve = _gtsv(block, m)
    return lhs, state, lambda k, j, off: solve(k, j, off.conjugate())


def _planned(edit, _plan=quantum._plan):
    # Every run's plan, tau and t alike, with ``edit`` applied before it steps.
    return lambda *args, **kwargs: edit(_plan(*args, **kwargs))


# Mutant -> (module, attribute, replacement, (test module, check, check arguments)).
MUTANTS = {
    "overlap-real-part": (
        quantum, "_overlap", _real_part_overlap,
        ("test_quantum", "test_fidelity_properties", ()),
    ),
    "classical-unit-rate": (
        classical, "clock_reading", _unit_rate(classical.clock_reading),
        ("test_classical", "test_integrate_tau_linear_map_stretches_the_orbit", ()),
    ),
    "quantum-unit-rate": (
        quantum, "clock_reading", _unit_rate(quantum.clock_reading),
        ("test_quantum", "test_covariance_nontrivial_map_tracks_the_reference", ()),
    ),
    "kinetic-weight": (
        quantum, "_kinetic_weight", _stiffer_kinetic_weight(1 + 1e-6),
        ("test_quantum", "test_kernel_matches_the_banded_reference_float_for_float",
         ("sine", "harmonic")),
    ),
    "kinetic-weight-1e-9": (
        quantum, "_kinetic_weight", _stiffer_kinetic_weight(1 + 1e-9),
        ("test_spectral_oracle", "test_crank_nicolson_matches_the_spectral_propagator",
         ("sine",)),
    ),
    # lam = h / (2 hbar) taken as h / hbar: the steps feed only lam.
    "lambda-step-over-hbar": (
        quantum, "_plan", _planned(lambda plan: replace(plan, steps=2 * plan.steps)),
        ("test_spectral_oracle", "test_crank_nicolson_matches_the_spectral_propagator",
         ("sine",)),
    ),
    # The rate T' applied twice: the prefactors feed only the generator.
    "rate-applied-twice": (
        quantum, "_plan", _planned(lambda plan: replace(plan, prefs=plan.prefs**2)),
        ("test_spectral_oracle", "test_crank_nicolson_matches_the_spectral_propagator",
         ("sine",)),
    ),
    "implicit-off-diagonal-conjugated": (
        quantum, "_gtsv", _conjugated_implicit_off_diagonal,
        ("test_spectral_oracle", "test_crank_nicolson_matches_the_spectral_propagator",
         ("sine",)),
    ),
    "csv-15-digits": (
        reports, "csv_parts", _csv_15_digits,
        ("test_reports", "test_covariance_report_csv_layout", ()),
    ),
    "snap-fraction-x10": (
        quantum, "LANDMARK_SNAP_FRACTION", quantum.LANDMARK_SNAP_FRACTION * 10,
        ("test_quantum", "test_step_boundaries_rejects_landing_times_closer_than_the_snap", ()),
    ),
    "row-norms-scaled": (
        quantum, "row_norms", _scaled_row_norms,
        ("test_quantum", "test_covariance_identity_map_is_exact", ()),
    ),
    "potential-at-t0": (
        quantum, "_potential_rows", _potential_at_t0,
        ("test_quantum", "test_kernel_matches_the_banded_reference_float_for_float",
         ("sine", "driven")),
    ),
    "energies-dx-twice": (
        quantum, "_energies", _energies_dx_twice,
        ("test_quantum", "test_expectation_energy_oracles", ()),
    ),
    # The same step control in both clocks: the orbit-equivalence checks
    # need not see it.
    "dop853-safety": (
        dop853, "SAFETY", 0.95,
        ("test_dop853", "test_an_orbit_steps_float_for_float_as_solve_ivp",
         ("harmonic", "t", "1e-9")),
    ),
}

# Mutants the library's own guards stop: the check fails on the guard's
# error, raised before its assertions run. Same layout as MUTANTS, plus the
# error and the start of its message.
GUARDED_MUTANTS = {
    "landmark-dropped": (
        quantum, "_step_boundaries", _drop_first_landmark,
        ("test_quantum", "test_covariance_nontrivial_map_tracks_the_reference", ()),
        NumericalError, "landing mismatch",
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_fails_its_check(monkeypatch, name):
    module, attribute, mutant, (test_module, check, args) = MUTANTS[name]
    run_check = functools.partial(getattr(_test_module(test_module), check), *args)
    run_check()  # the check passes on the library as it is
    monkeypatch.setattr(module, attribute, mutant)
    with pytest.raises(AssertionError):
        run_check()


@pytest.mark.parametrize("name", sorted(GUARDED_MUTANTS))
def test_each_guarded_mutant_trips_its_guard(monkeypatch, name):
    module, attribute, mutant, (test_module, check, args), error, message = GUARDED_MUTANTS[name]
    run_check = functools.partial(getattr(_test_module(test_module), check), *args)
    run_check()
    monkeypatch.setattr(module, attribute, mutant)
    with pytest.raises(error, match=f"^{message}"):
        run_check()
