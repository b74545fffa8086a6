"""Strict parsing of scenario files into validated experiment descriptions."""

import pytest

from reclock.errors import ScenarioError
from reclock.model import HarmonicPotential, IdentityMap, LinearMap
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
    assert sc.tolerances.min_fidelity is None
    assert sc.outputs.formats == ("csv",)


def test_parse_classical_scenario(tmp_path):
    sc = parse_scenario(_write(tmp_path, CLASSICAL_TEXT))
    assert sc.kind is ScenarioKind.CLASSICAL_EQUIVALENCE
    assert isinstance(sc.timemap, IdentityMap)
    assert sc.classical_initial == (0.5, 1.0)
    assert sc.integrator_tol == 1e-10
    assert sc.tolerances.max_trajectory_error == 1e-6
    assert sc.grid is None and sc.propagator is None
    assert sc.t_span == sc.tau_span


def test_parse_sweep_scenario(tmp_path):
    sc = parse_scenario(_write(tmp_path, SWEEP_TEXT))
    assert sc.kind is ScenarioKind.CONVERGENCE_SWEEP
    assert sc.sweep_dts == (4e-3, 2e-3, 1e-3)
    # Shared stepping knobs are validated against the finest step.
    assert sc.propagator.dt == 1e-3
    assert sc.tolerances.order_min == 1.8 and sc.tolerances.order_max == 2.2


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
    text = CLASSICAL_TEXT + "\n[outputs]\ndirectory = out\nformats = csv, json\n"
    sc = parse_scenario(_write(tmp_path, text))
    assert sc.outputs.directory == "out"
    assert sc.outputs.formats == ("csv", "json")
    text = CLASSICAL_TEXT + "\n[outputs]\nformats = xml\n"
    with pytest.raises(ScenarioError, match="formats"):
        parse_scenario(_write(tmp_path, text))


def test_wrong_tolerance_keys_for_kind(tmp_path):
    text = CLASSICAL_TEXT.replace("max_error = 1e-6", "min_fidelity = 0.5")
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(_write(tmp_path, text))
