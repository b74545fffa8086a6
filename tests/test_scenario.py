"""Strict parsing of scenario files into validated experiment descriptions."""

import pickle
import re

import pytest

from reclock.classical import DEFAULT_TOL
from reclock.errors import ScenarioError
from reclock.model import (
    HarmonicPotential,
    IdentityMap,
    LinearMap,
    MovingWellPotential,
    PhysicalConstants,
)
from reclock.quantum import PropagatorConfig
from reclock.scenario import ScenarioKind, parse_scenario

QUANTUM_TEXT = """\
[scenario]
schema_version = 1
name = demo-quantum
kind = quantum_covariance

[span]
tau0 = 0.0
tau1 = 1.0

[timemap]
family = linear
alpha = 2.0

[potential]
family = harmonic
omega = 1.0

[grid]
x_min = -12.0
x_max = 12.0
n_points = 128

[initial_state]
center = 1.0
width = 1.0

[numerics]
dt = 1e-3
record_every = 10
"""

CLASSICAL_TEXT = """\
[scenario]
schema_version = 1
name = demo-classical
kind = classical_equivalence

[span]
tau0 = 0.0
tau1 = 2.0

[timemap]
family = identity

[potential]
family = free

[initial_state]
x0 = 0.5
p0 = 1.0

[numerics]
tol = 1e-10

[tolerances]
max_error = 1e-6
"""

SWEEP_TEXT = """\
[scenario]
schema_version = 1
name = demo-sweep
kind = convergence_sweep

[span]
tau0 = 0.0
tau1 = 0.5

[timemap]
family = sine_perturbed
amplitude = 0.3
frequency = 1.0

[potential]
family = driven_harmonic
omega0 = 1.0
ramp = 0.1

[grid]
x_min = -12.0
x_max = 12.0
n_points = 128

[initial_state]
center = 1.0
width = 1.0

[numerics]
dts = 4e-3, 2e-3, 1e-3
record_every = 5

[tolerances]
order_min = 1.8
order_max = 2.2
"""


def _write(tmp_path, text, name="case.scenario"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_quantum_scenario(tmp_path):
    sc = parse_scenario(_write(tmp_path, QUANTUM_TEXT))
    assert sc.name == "demo-quantum"
    assert sc.kind is ScenarioKind.QUANTUM_COVARIANCE
    assert isinstance(sc.timemap, LinearMap) and sc.timemap.alpha == 2.0
    assert isinstance(sc.potential, HarmonicPotential)
    assert sc.tau_span == (0.0, 1.0)
    # T = tau / alpha, so the derived conventional window is half as long.
    assert sc.t_span == (0.0, 0.5)
    assert sc.grid.n_points == 128
    assert sc.gaussian.center == 1.0 and sc.gaussian.momentum == 0.0
    assert sc.propagator.dt == 1e-3 and sc.propagator.record_every == 10
    assert sc.classical_initial is None and sc.sweep_dts is None
    assert dict(sc.tolerances)["min_fidelity"] == 1.0 - 1e-5


def test_parse_classical_scenario(tmp_path):
    sc = parse_scenario(_write(tmp_path, CLASSICAL_TEXT))
    assert sc.kind is ScenarioKind.CLASSICAL_EQUIVALENCE
    assert isinstance(sc.timemap, IdentityMap)
    assert sc.classical_initial == (0.5, 1.0)
    assert sc.integrator_tol == 1e-10
    assert dict(sc.tolerances)["max_error"] == 1e-6
    assert sc.grid is None and sc.propagator is None
    assert sc.t_span == sc.tau_span


def test_parse_sweep_scenario(tmp_path):
    sc = parse_scenario(_write(tmp_path, SWEEP_TEXT))
    assert sc.kind is ScenarioKind.CONVERGENCE_SWEEP
    assert sc.sweep_dts == (4e-3, 2e-3, 1e-3)
    # Shared stepping knobs are validated against the finest step.
    assert sc.propagator.dt == 1e-3
    assert sc.tolerances == (("order_min", 1.8), ("order_max", 2.2))


@pytest.mark.parametrize(
    "text", [QUANTUM_TEXT, CLASSICAL_TEXT, SWEEP_TEXT], ids=["quantum", "classical", "sweep"]
)
def test_a_parsed_scenario_is_immutable_hashable_and_pickles(tmp_path, text):
    sc = parse_scenario(_write(tmp_path, text))
    with pytest.raises(TypeError):
        sc.tolerances[0] = ("min_fidelity", 0.0)
    # A --jobs pool sends every scenario to its workers by pickle.
    copy = pickle.loads(pickle.dumps(sc))
    assert copy == sc and hash(copy) == hash(sc)


def test_missing_file_is_a_scenario_error(tmp_path):
    with pytest.raises(ScenarioError, match="no such scenario file"):
        parse_scenario(tmp_path / "absent.scenario")


def test_wrong_schema_version(tmp_path):
    text = QUANTUM_TEXT.replace("schema_version = 1", "schema_version = 2")
    with pytest.raises(ScenarioError, match="schema_version 2 not supported"):
        parse_scenario(_write(tmp_path, text))


def test_unknown_kind(tmp_path):
    text = QUANTUM_TEXT.replace("kind = quantum_covariance", "kind = quantum_magic")
    with pytest.raises(ScenarioError, match="unknown kind"):
        parse_scenario(_write(tmp_path, text))


def test_unsafe_name_rejected(tmp_path):
    text = QUANTUM_TEXT.replace("name = demo-quantum", "name = ../escape")
    with pytest.raises(ScenarioError, match="filesystem-safe"):
        parse_scenario(_write(tmp_path, text))


def test_an_unknown_key_is_reported_after_every_other_fault(tmp_path):
    # A key the kind never reads is a leftover, found only once the parse ends.
    text = QUANTUM_TEXT.replace("kind = quantum_covariance", "kind = quantum_covariance\nbogus = 1")
    with pytest.raises(ScenarioError, match=r"^\[scenario\] unknown key\(s\): bogus$"):
        parse_scenario(_write(tmp_path, text))
    text = text.replace("tau1 = 1.0", "tau1 = -1.0")
    with pytest.raises(ScenarioError, match=r"^\[span\] need tau1 > tau0, got \(0\.0, -1\.0\)$"):
        parse_scenario(_write(tmp_path, text))


def test_non_monotone_map_rejected_at_parse_time(tmp_path):
    text = QUANTUM_TEXT.replace("alpha = 2.0", "alpha = 0.0")
    with pytest.raises(ScenarioError, match="monotone"):
        parse_scenario(_write(tmp_path, text))


def test_wavepacket_support_checked_at_parse_time(tmp_path):
    text = QUANTUM_TEXT.replace("center = 1.0", "center = 11.5")
    with pytest.raises(ScenarioError, match="exceeds the box"):
        parse_scenario(_write(tmp_path, text))


def test_unknown_key_rejected(tmp_path):
    text = QUANTUM_TEXT.replace("alpha = 2.0", "alpha = 2.0\nslope = 3")
    with pytest.raises(ScenarioError, match=r"\[timemap\] unknown key"):
        parse_scenario(_write(tmp_path, text))


def test_scheme_key_is_unknown(tmp_path):
    # Crank-Nicolson is the only propagator, so there is no scheme to choose.
    text = QUANTUM_TEXT.replace("record_every = 10", "record_every = 10\nscheme = crank-nicolson")
    with pytest.raises(ScenarioError, match=r"\[numerics\] unknown key\(s\): scheme"):
        parse_scenario(_write(tmp_path, text))


def test_unexpected_section_rejected(tmp_path):
    text = CLASSICAL_TEXT + "\n[grid]\nx_min = -1\nx_max = 1\nn_points = 16\n"
    with pytest.raises(ScenarioError, match="unexpected section"):
        parse_scenario(_write(tmp_path, text))


def test_missing_section_and_key(tmp_path):
    text = QUANTUM_TEXT.replace("[grid]\nx_min = -12.0\nx_max = 12.0\nn_points = 128\n\n", "")
    with pytest.raises(ScenarioError, match=r"missing required section \[grid\]"):
        parse_scenario(_write(tmp_path, text))
    text = QUANTUM_TEXT.replace("tau1 = 1.0\n", "")
    with pytest.raises(ScenarioError, match="tau1"):
        parse_scenario(_write(tmp_path, text))


def test_default_section_rejected(tmp_path):
    text = "[DEFAULT]\nfoo = 1\n" + QUANTUM_TEXT
    with pytest.raises(ScenarioError, match="DEFAULT"):
        parse_scenario(_write(tmp_path, text))


def test_duplicate_key_rejected(tmp_path):
    text = QUANTUM_TEXT.replace("alpha = 2.0", "alpha = 2.0\nalpha = 3.0")
    with pytest.raises(ScenarioError, match="already exists"):
        parse_scenario(_write(tmp_path, text))


def test_bad_numbers_rejected(tmp_path):
    text = QUANTUM_TEXT.replace("dt = 1e-3", "dt = fast")
    with pytest.raises(ScenarioError, match="not a number"):
        parse_scenario(_write(tmp_path, text))
    text = QUANTUM_TEXT.replace("n_points = 128", "n_points = 12.5")
    with pytest.raises(ScenarioError, match="not an integer"):
        parse_scenario(_write(tmp_path, text))
    text = QUANTUM_TEXT.replace("tau1 = 1.0", "tau1 = -1.0")
    with pytest.raises(ScenarioError, match="tau1 > tau0"):
        parse_scenario(_write(tmp_path, text))


def test_sweep_dts_validation(tmp_path):
    text = SWEEP_TEXT.replace("dts = 4e-3, 2e-3, 1e-3", "dts = 4e-3, 2e-3")
    with pytest.raises(ScenarioError, match=">= 3 dt values"):
        parse_scenario(_write(tmp_path, text))
    text = SWEEP_TEXT.replace("dts = 4e-3, 2e-3, 1e-3", "dts = 4e-3, 4e-3, 1e-3")
    with pytest.raises(ScenarioError, match="strictly decreasing"):
        parse_scenario(_write(tmp_path, text))


def test_classical_tolerance_and_outputs(tmp_path):
    text = CLASSICAL_TEXT.replace("tol = 1e-10", "tol = -1e-10")
    with pytest.raises(ScenarioError, match="tol must be positive"):
        parse_scenario(_write(tmp_path, text))
    # scipy would clamp a tol below 100 machine epsilons with a warning.
    text = CLASSICAL_TEXT.replace("tol = 1e-10", "tol = 1e-20")
    message = r"^\[numerics\] tol must be positive and at least .*, got 1e-20$"
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(_write(tmp_path, text))
    # Where and in which formats artifacts go is set on the command line only.
    text = CLASSICAL_TEXT + "\n[outputs]\ndirectory = out\nformats = csv, json\n"
    with pytest.raises(ScenarioError, match=r"unexpected section\(s\) .*: \[outputs\]"):
        parse_scenario(_write(tmp_path, text))


def test_wrong_tolerance_keys_for_kind(tmp_path):
    text = CLASSICAL_TEXT.replace("max_error = 1e-6", "min_fidelity = 0.5")
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(_write(tmp_path, text))
    text = SWEEP_TEXT.replace("order_max = 2.2", "order_max = 2.2\nmin_fidelity = 2.0")
    with pytest.raises(ScenarioError, match=r"unknown key\(s\): min_fidelity"):
        parse_scenario(_write(tmp_path, text))
    text = QUANTUM_TEXT + "\n[tolerances]\norder_min = 1.8\n"
    with pytest.raises(ScenarioError, match=r"unknown key\(s\): order_min"):
        parse_scenario(_write(tmp_path, text))


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("alpha = 2.0\n", "", "[timemap] missing required key 'alpha'"),
        ("n_points = 128", "n_points = z", "[grid] n_points: not an integer: 'z'"),
        ("record_every = 10", "record_every = q", "[numerics] record_every: not an integer: 'q'"),
        ("[span]", "[constants]\nhbar = w\n\n[span]", "[constants] hbar: not a number: 'w'"),
    ],
    ids=["missing-key", "bad-count", "bad-record-every", "bad-number"],
)
def test_a_section_error_carries_one_section_prefix(tmp_path, old, new, message):
    text = QUANTUM_TEXT.replace(old, new)
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        parse_scenario(_write(tmp_path, text))


def test_omitted_keys_take_the_class_defaults(tmp_path):
    text = QUANTUM_TEXT.replace("family = harmonic\nomega = 1.0", "family = moving_well")
    sc = parse_scenario(_write(tmp_path, text.replace("record_every = 10\n", "")))
    assert sc.constants == PhysicalConstants()
    assert sc.potential == MovingWellPotential()
    assert sc.propagator == PropagatorConfig(dt=1e-3)
    # A potential with a mass field takes the [constants] mass.
    sc = parse_scenario(_write(tmp_path, QUANTUM_TEXT + "\n[constants]\nmass = 2.0\n"))
    assert sc.potential == HarmonicPotential(omega=1.0, mass=2.0)
    sc = parse_scenario(_write(tmp_path, CLASSICAL_TEXT.replace("tol = 1e-10\n", "")))
    assert sc.integrator_tol == DEFAULT_TOL

