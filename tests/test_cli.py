"""Command-line behaviour: verbs, exit codes, artifacts, determinism."""

import json
from collections import Counter
from pathlib import Path

import pytest

from reclock import cli, runner
from reclock.cli import build_parser, catalogue_paths, entrypoint
from reclock.runner import TOLERANCE_PROFILES, Status, run_many
from reclock.scenario import ScenarioKind, parse_scenario

QUANTUM_TEXT = """\
[scenario]
schema_version = 1
name = cli-quantum
kind = quantum_covariance

[span]
tau0 = 0.0
tau1 = 0.5

[timemap]
family = sine_perturbed
amplitude = 0.3
frequency = 1.0

[potential]
family = harmonic

[grid]
x_min = -12.0
x_max = 12.0
n_points = 256

[initial_state]
center = 1.0
width = 1.0

[numerics]
dt = 2e-3
record_every = 25
"""

CLASSICAL_TEXT = """\
[scenario]
schema_version = 1
name = cli-classical
kind = classical_equivalence

[span]
tau0 = 0.0
tau1 = 2.0

[timemap]
family = linear
alpha = 2.0

[potential]
family = harmonic

[initial_state]
x0 = 1.0
p0 = 0.0

[numerics]
tol = 1e-10
"""

SWEEP_TEXT = """\
[scenario]
schema_version = 1
name = cli-sweep
kind = convergence_sweep

[span]
tau0 = 0.0
tau1 = 1.0

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
n_points = 256

[initial_state]
center = 1.0
width = 1.0

[numerics]
dts = 8e-3, 4e-3, 2e-3
record_every = 5
"""

# A free packet launched at the wall: norms stay unit and fidelity stays 1
# (identity map), but amplitude reaches the monitored edge strips, so the
# run completes with monitor flags rather than a tolerance failure.
FLAGGED_TEXT = """\
[scenario]
schema_version = 1
name = cli-flagged
kind = quantum_covariance

[span]
tau0 = 0.0
tau1 = 2.0

[timemap]
family = identity

[potential]
family = free

[grid]
x_min = -12.0
x_max = 12.0
n_points = 128

[initial_state]
center = 0.0
width = 1.0
momentum = 8.0

[numerics]
dt = 1e-2
record_every = 20
"""


def _write(tmp_path, text, name):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_validate_accepts_good_and_rejects_bad(tmp_path, capsys):
    good = _write(tmp_path, QUANTUM_TEXT, "good.scenario")
    assert entrypoint(["validate", good]) == 0
    out = capsys.readouterr().out
    assert "ok: cli-quantum (quantum_covariance)" in out

    bad = _write(tmp_path, QUANTUM_TEXT.replace("width = 1.0", "width = 9.0"), "bad.scenario")
    assert entrypoint(["validate", bad, good]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "ok: cli-quantum" in captured.out  # good files still reported


def test_run_writes_artifacts_and_passes(tmp_path, capsys):
    q = _write(tmp_path, QUANTUM_TEXT, "q.scenario")
    c = _write(tmp_path, CLASSICAL_TEXT, "c.scenario")
    out = tmp_path / "reports"
    assert entrypoint(["run", q, c, "--out", str(out), "--format", "both"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("Pass") == 2
    assert "min_fidelity=" in stdout and "max_trajectory_error=" in stdout
    for rel in (
        "cli-quantum/report.csv",
        "cli-quantum/report.json",
        "cli-classical/trajectory-tau.csv",
        "cli-classical/trajectory-t.json",
    ):
        assert (out / rel).is_file()
    payload = json.loads((out / "cli-quantum/report.json").read_text(encoding="utf-8"))
    assert payload["summary"]["min_fidelity"] > 1.0 - 1e-5


def test_rerun_is_byte_identical(tmp_path):
    q = _write(tmp_path, QUANTUM_TEXT, "q.scenario")
    first, second = tmp_path / "first", tmp_path / "second"
    assert entrypoint(["run", q, "--out", str(first), "--format", "both"]) == 0
    assert entrypoint(["run", q, "--out", str(second), "--format", "both"]) == 0
    for name in ("report.csv", "report.json"):
        a = (first / "cli-quantum" / name).read_bytes()
        b = (second / "cli-quantum" / name).read_bytes()
        assert a == b


def test_parallel_run_matches_sequential(tmp_path):
    q = _write(tmp_path, QUANTUM_TEXT, "q.scenario")
    c = _write(tmp_path, CLASSICAL_TEXT, "c.scenario")
    seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
    assert entrypoint(["run", q, c, "--out", str(seq_dir)]) == 0
    assert entrypoint(["run", q, c, "--out", str(par_dir), "--jobs", "2"]) == 0
    seq_files = sorted(p.relative_to(seq_dir) for p in seq_dir.rglob("*.csv"))
    par_files = sorted(p.relative_to(par_dir) for p in par_dir.rglob("*.csv"))
    assert seq_files == par_files and seq_files
    for rel in seq_files:
        assert (seq_dir / rel).read_bytes() == (par_dir / rel).read_bytes()


def test_strict_profile_turns_pass_into_fail(tmp_path, capsys):
    q = _write(tmp_path, QUANTUM_TEXT, "q.scenario")
    code = entrypoint(
        ["run", q, "--out", str(tmp_path / "r"), "--tolerance-profile", "strict"]
    )
    assert code == 1
    stdout = capsys.readouterr().out
    assert "Fail" in stdout
    assert TOLERANCE_PROFILES["strict"].min_fidelity == 1.0 - 1e-14


def test_monitor_flags_exit_three(tmp_path, capsys):
    f = _write(tmp_path, FLAGGED_TEXT, "f.scenario")
    assert entrypoint(["run", f, "--out", str(tmp_path / "r")]) == 3
    stdout = capsys.readouterr().out
    assert "Flagged" in stdout and "edge-leak" in stdout


def test_sweep_verb(tmp_path, capsys):
    s = _write(tmp_path, SWEEP_TEXT, "s.scenario")
    out = tmp_path / "r"
    assert entrypoint(["sweep", s, "--out", str(out), "--format", "both"]) == 0
    stdout = capsys.readouterr().out
    assert "estimated_order=" in stdout
    sweep = json.loads((out / "cli-sweep/sweep.json").read_text(encoding="utf-8"))
    assert 1.8 <= sweep["summary"]["estimated_order"] <= 2.2
    header = (out / "cli-sweep/sweep.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "dt,min_fidelity,fidelity_error,max_energy_transform_residual"

    q = _write(tmp_path, QUANTUM_TEXT, "q.scenario")
    assert entrypoint(["sweep", q]) == 2
    assert "requires kind = convergence_sweep" in capsys.readouterr().err


def test_each_scenario_file_is_parsed_once(tmp_path, monkeypatch):
    parsed = Counter()

    def counting(path):
        parsed[str(path)] += 1
        return parse_scenario(path)

    monkeypatch.setattr(cli, "parse_scenario", counting)
    monkeypatch.setattr(runner, "parse_scenario", counting)
    q = _write(tmp_path, QUANTUM_TEXT, "q.scenario")
    c = _write(tmp_path, CLASSICAL_TEXT, "c.scenario")
    assert entrypoint(["run", q, c, "--out", str(tmp_path / "r"), "--jobs", "1"]) == 0
    assert parsed == {q: 1, c: 1}

    parsed.clear()
    s = _write(tmp_path, SWEEP_TEXT, "s.scenario")
    assert entrypoint(["sweep", s, "--out", str(tmp_path / "r")]) == 0
    assert parsed == {s: 1}


def test_parse_errors_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.scenario")
    assert entrypoint(["run", missing]) == 2
    assert "no such scenario" in capsys.readouterr().err
    broken = _write(tmp_path, "[scenario]\nschema_version = 9\n", "broken.scenario")
    assert entrypoint(["run", broken]) == 2
    capsys.readouterr()
    good = _write(tmp_path, QUANTUM_TEXT, "good.scenario")
    assert entrypoint(["run", good, "--jobs", "0"]) == 2
    assert "jobs" in capsys.readouterr().err


def test_catalogue_lists_bundled_scenarios(capsys):
    assert entrypoint(["catalogue"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    assert len(lines) == len(catalogue_paths()) == 7
    names = [ln.split("\t")[0] for ln in lines]
    assert names == sorted(names)  # stable file-name order
    kinds = {ln.split("\t")[1] for ln in lines}
    assert kinds == {"quantum_covariance", "classical_equivalence", "convergence_sweep"}


def test_bundled_scenarios_parse_cleanly():
    for entry in catalogue_paths():
        scenario = parse_scenario(str(entry))
        assert scenario.name == Path(str(entry)).stem


def test_usage_errors_raise_system_exit():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["run"])  # missing the scenario argument
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        entrypoint(["run", "x", "--tolerance-profile", "mystery"])
    assert exc.value.code == 2


def test_run_many_validates_jobs(tmp_path):
    q = _write(tmp_path, QUANTUM_TEXT, "q.scenario")
    from reclock.errors import ValidationError

    with pytest.raises(ValidationError, match="jobs"):
        run_many([q], out_root=str(tmp_path / "r"), jobs=0)


def test_unexpected_exception_fails_one_scenario_not_the_batch(tmp_path, monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("dispatch exploded")

    monkeypatch.setitem(runner._DISPATCH, ScenarioKind.CLASSICAL_EQUIVALENCE, broken)
    c = _write(tmp_path, CLASSICAL_TEXT, "c.scenario")
    q = _write(tmp_path, QUANTUM_TEXT, "q.scenario")
    summaries = run_many([c, q], out_root=str(tmp_path / "r"))
    assert [s.status for s in summaries] == [Status.FAIL, Status.PASS]
    assert summaries[0].detail == "internal error: RuntimeError: dispatch exploded"
    assert summaries[0].metrics == {} and summaries[0].artifacts == ()
    assert "Traceback" in capsys.readouterr().err

    assert entrypoint(["run", c, q, "--out", str(tmp_path / "r2")]) == 1
    stdout = capsys.readouterr().out
    assert "internal error: RuntimeError: dispatch exploded" in stdout
    assert "Pass" in stdout
