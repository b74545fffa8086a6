"""Command-line behaviour: verbs, exit codes, artifacts, determinism."""

import argparse
import concurrent.futures
import dataclasses
import json
import os
import re
import subprocess
import sys
import weakref
from collections import Counter
from concurrent.futures import Future
from pathlib import Path

import pytest

import reclock
from reclock import classical, cli, model, quantum, runner
from reclock.cli import build_parser, catalogue_paths, entrypoint
from reclock.errors import ScenarioError, ValidationError
from reclock.model import PotentialSpec
from reclock.quantum import EvolutionRecord, PropagatorConfig
from reclock.runner import RunSummary, Status, run_many
from reclock.scenario import CHECKS, ScenarioKind, parse_scenario

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


def test_validate_rejects_a_mapped_t_span_past_the_float_range(tmp_path, capsys):
    # t = tau / alpha with alpha = 0.5 sends tau1 = 1e308 to t = inf, which
    # the map itself rejects; with alpha = 0.6 both ends map to doubles,
    # T = -1e308 and 1e308, but their distance does not.
    source = next(p for p in catalogue_paths() if p.name == "linear-alpha2-harmonic.scenario")
    cases = (
        (
            "0.5",
            "0.0",
            "1e308",
            "[timemap] T' and T at the ends of the domain (0.0, 1e+308) read "
            "((2.0, 0.0), (2.0, inf)), not finite doubles",
        ),
        (
            "0.6",
            "-6e307",
            "6e307",
            "[span] t_span must be increasing with a finite length, got (-1e+308, 1e+308)",
        ),
    )
    for alpha, tau0, tau1, message in cases:
        text = source.read_text(encoding="utf-8").replace("alpha = 2.0", f"alpha = {alpha}")
        text = text.replace("tau0 = 0.0", f"tau0 = {tau0}")
        text = text.replace("tau1 = 6.283185307179586", f"tau1 = {tau1}")
        path = _write(tmp_path, text, "inf.scenario")
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            parse_scenario(path)
        assert entrypoint(["validate", path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_validate_rejects_a_sine_clock_whose_t_overflows_at_an_end(tmp_path, capsys):
    # |a f| = 0.5 keeps the clock monotone and the phase f tau1 = 0.75 is a
    # double, but T(tau1) = tau1 + a sin(f tau1) overflows, with no warning.
    source = next(p for p in catalogue_paths() if p.name == "classical-sine-driven.scenario")
    text = source.read_text(encoding="utf-8").replace("tau1 = 6.283185307179586", "tau1 = 1.5e308")
    text = text.replace("amplitude = 0.3", "amplitude = 1e308")
    text = text.replace("frequency = 1.0", "frequency = 5e-309")
    path = _write(tmp_path, text, "sine-inf.scenario")
    assert entrypoint(["validate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = (
        "error: [timemap] T' and T at the ends of the domain (0.0, 1.5e+308) read "
        "((1.5, 0.0), ("
    )
    assert captured.err.startswith(prefix)
    assert captured.err.endswith(", inf)), not finite doubles\n")
    assert captured.err.count("\n") == 1


def _run_python(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this checkout's reclock."""
    src = str(Path(reclock.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_no_artifact_float_depends_on_the_blas_thread_count(tmp_path):
    """A covariance on 16384 points writes the same bytes in a process with
    ``OPENBLAS_NUM_THREADS`` 1 as in one with 2.

    Above ~10000 points OpenBLAS splits each ``vdot`` of a run's energies
    and overlaps over its threads, which sums it in another order; the run
    holds one thread, so the bits stay those of one. On one core OpenBLAS
    caps the variable at 1 (seen with the process pinned to one core), so
    both processes would run one thread and the comparison would test
    nothing: the test skips there.
    """
    if quantum._openblas() is None:
        pytest.skip("NumPy bundles no OpenBLAS, whose thread count the run could hold")
    text = (
        QUANTUM_TEXT.replace("n_points = 256", "n_points = 16384")
        .replace("tau1 = 0.5", "tau1 = 0.02")
        .replace("width = 1.0", "width = 1.0\nmomentum = 2.0")
        .replace("record_every = 25", "record_every = 1")
    )
    path = _write(tmp_path, text, "wide.scenario")
    src = str(Path(reclock.__file__).resolve().parents[1])
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        code = (
            "from reclock import quantum\n"
            "from reclock.cli import entrypoint\n"
            "print(quantum._openblas()[1]())\n"
            f"raise SystemExit(entrypoint(['run', {path!r}, '--out', {str(out)!r}, "
            "'--format', 'both']))\n"
        )
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stdout + done.stderr
        if int(done.stdout.split()[0]) != int(threads):
            pytest.skip(f"OpenBLAS runs {done.stdout.split()[0]} thread(s) when asked for {threads}")
        artifacts.append(_artifact_bytes(out))
    assert artifacts[0] == artifacts[1] and len(artifacts[0]) == 2


def test_validate_never_imports_scipy():
    # Parsing and validating a scenario neither steps a state nor integrates
    # an orbit, so no SciPy module enters a validate-only process.
    _run_python(
        "import sys\n"
        "from reclock.cli import catalogue_paths, entrypoint\n"
        "assert entrypoint(['validate', *map(str, catalogue_paths())]) == 0\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )


def test_validate_and_catalogue_load_only_the_parser():
    # Every check a validate runs lives in model and scenario, so neither the
    # propagators, the runner and reports nor json and fractions load.
    for args in ("'validate', *map(str, catalogue_paths())", "'catalogue'"):
        _run_python(
            "import sys\n"
            "from reclock.cli import catalogue_paths, entrypoint\n"
            f"assert entrypoint([{args}]) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'reclock')\n"
            "parser = ['reclock', 'reclock.cli', 'reclock.errors', 'reclock.model',\n"
            "          'reclock.scenario']\n"
            "assert loaded == parser, loaded\n"
            "assert 'json' not in sys.modules and 'fractions' not in sys.modules\n"
        )
    # The names the parser took from the layers stay importable from them.
    assert quantum.PropagatorConfig is model.PropagatorConfig
    assert quantum.MAX_STEPS is model.MAX_STEPS
    assert quantum.check_step_count is model.check_step_count
    assert classical.DEFAULT_TOL is model.DEFAULT_TOL
    assert classical.MIN_TOL is model.MIN_TOL
    assert classical.check_tol is model.check_tol


def test_a_pooled_batch_imports_what_its_kinds_call_in_the_parent(tmp_path):
    # The parent only parses and forks. The kernel's LAPACK is the OpenBLAS
    # that NumPy has loaded already, so no SciPy module enters the parent.
    # The two spans differ, so the files share no experiment and two
    # workers run them.
    paths = [
        _write(
            tmp_path,
            QUANTUM_TEXT.replace("cli-quantum", f"cli-quantum-{i}").replace(
                "tau1 = 0.5", f"tau1 = 0.{5 - i}"
            ),
            f"q{i}.scenario",
        )
        for i in range(2)
    ]
    _run_python(
        "import sys\n"
        "from reclock.runner import Status, run_many\n"
        f"summaries = run_many({paths!r}, {str(tmp_path / 'reports')!r}, jobs=2)\n"
        "assert [s.status for s in summaries] == [Status.PASS] * 2, summaries\n"
        "assert 'concurrent.futures.process' in sys.modules\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )


def test_a_quantum_run_imports_no_scipy(tmp_path):
    # At jobs=1 the kernel steps in the checked process itself: it calls the
    # zgtsv of NumPy's bundled OpenBLAS, and loads no SciPy module.
    path = _write(tmp_path, QUANTUM_TEXT, "q.scenario")
    _run_python(
        "import sys\n"
        "from reclock.runner import Status, run_many\n"
        f"summaries = run_many([{path!r}], {str(tmp_path / 'reports')!r}, jobs=1)\n"
        "assert [s.status for s in summaries] == [Status.PASS], summaries\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )


def test_an_orbit_batch_imports_no_scipy(tmp_path):
    # Orbits integrate with reclock.dop853, which needs NumPy alone: a
    # classical-only batch loads no SciPy module, neither in the pooled
    # parent (jobs=2) nor in the one process of a serial run (jobs=1). Nor
    # does a mixed batch's parent, whose quantum file steps with NumPy's
    # OpenBLAS.
    orbits = [
        _write(tmp_path, CLASSICAL_TEXT.replace("cli-classical", f"cli-c{i}"), f"c{i}.scenario")
        for i in range(2)
    ]
    mixed = [orbits[0], _write(tmp_path, QUANTUM_TEXT, "q.scenario")]
    check = (
        "import sys\n"
        "from reclock.runner import Status, run_many\n"
        "summaries = run_many({paths!r}, {out!r}, jobs={jobs})\n"
        "assert [s.status for s in summaries] == [Status.PASS] * 2, summaries\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    out = str(tmp_path / "reports")
    for paths, jobs in ((orbits, 2), (orbits, 1), (mixed, 2)):
        _run_python(check.format(paths=paths, out=out, jobs=jobs))


def test_validate_and_a_serial_run_load_no_process_pool(tmp_path):
    # Only a pooled batch builds a ProcessPoolExecutor, so only it pays for
    # importing concurrent.futures.process and multiprocessing.
    path = _write(tmp_path, QUANTUM_TEXT, "q.scenario")
    _run_python(
        "import sys\n"
        "from reclock.cli import catalogue_paths, entrypoint\n"
        "from reclock.runner import Status, run_many\n"
        "assert entrypoint(['validate', *map(str, catalogue_paths())]) == 0\n"
        f"summaries = run_many([{path!r}], {str(tmp_path / 'reports')!r}, jobs=1)\n"
        "assert [s.status for s in summaries] == [Status.PASS], summaries\n"
        "pool = ('multiprocessing', 'concurrent.futures.process')\n"
        "loaded = sorted(m for m in sys.modules if m in pool or m.startswith('multiprocessing.'))\n"
        "assert not loaded, loaded\n"
    )


def test_validate_rejects_a_grid_above_max_points_before_allocating_it(tmp_path, capsys):
    text = QUANTUM_TEXT.replace("n_points = 256", f"n_points = {2**62}")
    path = _write(tmp_path, text, "huge.scenario")
    assert entrypoint(["validate", path]) == 2
    assert f"[grid] n_points = {2**62} is more than the 16777216" in capsys.readouterr().err


def test_validate_rejects_a_dt_that_run_would_reject(tmp_path, capsys):
    # A run plans a uniform tau ladder, then a t ladder over the mapped span,
    # and rejects either one past MAX_STEPS before allocating it. Validate
    # checks both at the finest dt, with the numbers the run would report:
    # here the tau ladder over (0, 0.5), and with t = tau / 0.5 the t ladder
    # over (0, 1), which is past the cap while the tau ladder is not.
    sine = "family = sine_perturbed\namplitude = 0.3\nfrequency = 1.0\n"
    linear = "family = linear\nalpha = 0.5\n"
    cases = (
        (sine, "1e-9", (0.0, 0.5), "500000000 steps"),
        (linear, "6e-8", (0.0, 1.0), "16666666.67 steps"),
    )
    for timemap, dt, span, count in cases:
        text = QUANTUM_TEXT.replace(sine, timemap).replace("dt = 2e-3", f"dt = {dt}")
        path = _write(tmp_path, text, "fine.scenario")
        expected = f"the span {re.escape(str(span))}: {count}, more than the 10000000 "
        with pytest.raises(ValidationError, match=expected) as run_error:
            quantum._step_boundaries(*span, float(dt))
        assert entrypoint(["validate", path]) == 2
        assert capsys.readouterr().err == f"error: [numerics] {run_error.value}\n"


@pytest.mark.parametrize("entry", catalogue_paths(), ids=lambda p: p.stem)
def test_an_unknown_key_in_any_section_of_a_bundled_file_is_named(tmp_path, capsys, entry):
    text = entry.read_text(encoding="utf-8")
    sections = re.findall(r"^\[(\w+)\]$", text, flags=re.M)
    assert sections
    for name in sections:
        path = _write(tmp_path, text.replace(f"[{name}]\n", f"[{name}]\nunknown = 1\n"), entry.name)
        assert entrypoint(["validate", path]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: [{name}] unknown key(s): unknown\n")


def test_a_scenario_name_fits_one_directory_entry(tmp_path, capsys):
    # The name is its artifact directory's name: 255 characters run, 256 do not.
    for length, code in ((255, 0), (256, 2)):
        name = "q" * length
        text = QUANTUM_TEXT.replace("name = cli-quantum", f"name = {name}")
        path = _write(tmp_path, text, "n.scenario")
        assert entrypoint(["validate", path]) == code
        assert entrypoint(["run", path, "--out", str(tmp_path / "r")]) == code
    assert os.listdir(tmp_path / "r") == ["q" * 255]
    assert os.listdir(tmp_path / "r" / ("q" * 255)) == ["report.csv"]
    assert "at most 255 characters" in capsys.readouterr().err


def test_a_span_shorter_than_the_landing_snap_runs(tmp_path, capsys):
    # Over tau1 = 1e-12 at dt = 1e-3 both runs take one step, onto the span's end.
    source = next(p for p in catalogue_paths() if p.name == "gauge-identity.scenario")
    text = source.read_text(encoding="utf-8").replace("tau1 = 6.283185307179586", "tau1 = 1e-12")
    path = _write(tmp_path, text, "short.scenario")
    assert entrypoint(["run", path, "--out", str(tmp_path / "r")]) == 0
    assert "Pass" in capsys.readouterr().out


def test_a_batch_with_a_repeated_scenario_name_is_rejected(tmp_path, capsys):
    # Both files would write <out>/cli-quantum/, the second over the first.
    first = _write(tmp_path, QUANTUM_TEXT, "first.scenario")
    text = QUANTUM_TEXT.replace("record_every = 25", "record_every = 5")
    second = _write(tmp_path, text, "second.scenario")
    message = (
        f"{first} and {second} both name scenario 'cli-quantum', "
        "and would write to one directory"
    )
    out = tmp_path / "reports"
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        run_many([first, second], out)
    for jobs in ("1", "2"):
        assert entrypoint(["run", first, second, "--out", str(out), "--jobs", jobs]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_validate_rejects_a_batch_that_run_rejects(tmp_path, capsys):
    # Each file is valid alone; the batch is not, with run's message and exit code.
    first = _write(tmp_path, QUANTUM_TEXT, "first.scenario")
    text = QUANTUM_TEXT.replace("record_every = 25", "record_every = 5")
    second = _write(tmp_path, text, "second.scenario")
    for a, b in ((first, second), (first, first)):
        message = f"{a} and {b} both name scenario 'cli-quantum', and would write to one directory"
        assert entrypoint(["run", a, b, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert entrypoint(["validate", a, b]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "r").exists()


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
    strict = (
        "\n[tolerances]\nmin_fidelity = 0.99999999999999\n"
        "max_energy_transform_residual = 1e-14\n"
    )
    q = _write(tmp_path, QUANTUM_TEXT + strict, "q.scenario")
    code = entrypoint(["run", q, "--out", str(tmp_path / "r")])
    assert code == 1
    stdout = capsys.readouterr().out
    assert "Fail" in stdout


_KIND_TEXTS = {
    ScenarioKind.QUANTUM_COVARIANCE: QUANTUM_TEXT,
    ScenarioKind.CLASSICAL_EQUIVALENCE: CLASSICAL_TEXT,
    ScenarioKind.CONVERGENCE_SWEEP: SWEEP_TEXT,
}


@pytest.mark.parametrize(
    "kind, row", [pytest.param(kind, row, id=row[0]) for kind, rows in CHECKS.items() for row in rows]
)
def test_each_check_fails_a_run_and_keeps_its_artifacts(tmp_path, capsys, kind, row):
    key, metric, sense, _ = row
    # A bound no run can meet, on the side the row checks.
    bound = 1e300 if sense == ">=" else -1e300
    path = _write(tmp_path, f"{_KIND_TEXTS[kind]}\n[tolerances]\n{key} = {bound}\n", "x.scenario")
    scenario = parse_scenario(path)
    assert dict(scenario.tolerances)[key] == bound
    assert [k for k, _ in scenario.tolerances] == [row[0] for row in CHECKS[kind]]

    summary = runner.run_scenario(scenario, out_root=tmp_path / "r")
    assert summary.status is Status.FAIL
    sign = "<" if sense == ">=" else ">"
    assert summary.detail == f"{metric} {summary.metrics[metric]:.12g} {sign} {bound:.12g}"
    assert summary.artifacts and all(Path(p).is_file() for p in summary.artifacts)

    assert entrypoint(["run", path, "--out", str(tmp_path / "cli")]) == 1
    assert f"         {summary.detail}\n" in capsys.readouterr().out


def test_a_nan_metric_misses_every_check():
    nan = float("nan")
    for kind, rows in CHECKS.items():
        defaults = tuple((key, bound) for key, _, _, bound in rows)
        misses = runner._misses(kind, {metric: nan for _, metric, _, _ in rows}, defaults)
        assert len(misses) == len(rows) and all(" nan " in m for m in misses)


def test_monitor_flags_exit_three(tmp_path, capsys):
    f = _write(tmp_path, FLAGGED_TEXT, "f.scenario")
    assert entrypoint(["run", f, "--out", str(tmp_path / "r")]) == 3
    stdout = capsys.readouterr().out
    assert "Flagged" in stdout and "edge-leak" in stdout


def test_a_flagged_sweep_is_flagged_through_its_artifact(tmp_path, capsys):
    # A sweep of the leaking free packet, under bounds no order can miss: its
    # verdict's detail is the first four of the flags its artifact records.
    text = (
        FLAGGED_TEXT.replace("kind = quantum_covariance", "kind = convergence_sweep")
        .replace("family = identity", "family = sine_perturbed\namplitude = 0.3\nfrequency = 1.0")
        .replace("dt = 1e-2", "dts = 4e-2, 2e-2, 1e-2")
    )
    text += "\n[tolerances]\norder_min = -1e300\norder_max = 1e300\n"
    path, out = _write(tmp_path, text, "s.scenario"), tmp_path / "r"
    assert entrypoint(["run", path, "--out", str(out), "--format", "json"]) == 3
    flags = json.loads((out / "cli-flagged/sweep.json").read_text(encoding="utf-8"))["flags"]
    assert len(flags) == 22 and flags[0] == "dt=0.04: edge-leak 1.997e-03 at clock 1.6"
    stdout = capsys.readouterr().out
    assert stdout.startswith("Flagged  cli-flagged")
    assert stdout.splitlines()[1] == "         " + "; ".join(flags[:4])


def test_norm_drift_flags_a_run_and_exits_three(tmp_path, monkeypatch, capsys):
    # The run drifts by ~5.6e-15 in norm; the prepared state's norm is 1.0
    # exactly, so a tolerance of 1e-15 lets it start and flags its drift.
    monkeypatch.setattr(quantum, "NORM_DRIFT_TOL", 1e-15)
    q = _write(tmp_path, QUANTUM_TEXT, "q.scenario")
    assert entrypoint(["run", q, "--out", str(tmp_path / "r")]) == 3
    stdout = capsys.readouterr().out
    assert stdout.startswith("Flagged  cli-quantum")
    assert re.search(r"norm-drift \d\.\d{3}e-1[45] at clock ", stdout)


def test_sweep_verb(tmp_path, capsys):
    s = _write(tmp_path, SWEEP_TEXT, "s.scenario")
    out = tmp_path / "r"
    assert entrypoint(["run", s, "--out", str(out), "--format", "both"]) == 0
    stdout = capsys.readouterr().out
    assert "estimated_order=" in stdout
    sweep = json.loads((out / "cli-sweep/sweep.json").read_text(encoding="utf-8"))
    assert 1.8 <= sweep["summary"]["estimated_order"] <= 2.2
    header = (out / "cli-sweep/sweep.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "dt,min_fidelity,fidelity_error,max_energy_transform_residual"


def test_sweep_to_an_unwritable_out_fails_cleanly(tmp_path, capsys):
    # The sweep table goes through the report writer: a clean Fail, no traceback.
    s = _write(tmp_path, SWEEP_TEXT, "s.scenario")
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    assert entrypoint(["run", s, "--out", str(blocker)]) == 1
    captured = capsys.readouterr()
    assert "ReclockError: cannot write report to" in captured.out
    assert "internal error" not in captured.out and "Traceback" not in captured.err


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


def _exit_code(argv) -> int:
    """The code ``reclock <argv>`` exits with, whether argparse or a verb ends it."""
    try:
        return entrypoint(argv)
    except SystemExit as exc:
        return exc.code


def test_knob_census(tmp_path, capsys):
    # Scenarios run one way, and each setting has one home: the run flags for
    # where and how artifacts are written, the scenario file for the rest.
    parser = build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(verbs.choices) == {"run", "validate", "catalogue"}
    run_options = {opt for a in verbs.choices["run"]._actions for opt in a.option_strings}
    assert run_options - {"-h", "--help"} == {"--out", "--format", "--jobs"}
    assert [f.name for f in dataclasses.fields(PropagatorConfig)] == ["dt", "record_every"]
    # Each fact has one home: every threshold's default on its CHECKS row (the
    # values perfbench/checks.py holds on its own), a run's clock in its map,
    # and a result keeps only the fields a run reads.
    defaults = [row[3] for rows in CHECKS.values() for row in rows]
    assert defaults == [1.0 - 1e-5, 1e-6, 1e-5, 1.8, 2.2]
    summary_fields = "name kind status metrics artifacts wall_time_s detail"
    assert [f.name for f in dataclasses.fields(RunSummary)] == summary_fields.split()
    record_fields = "grid clocks rates t amplitudes norms energies flags"
    assert [f.name for f in dataclasses.fields(EvolutionRecord)] == record_fields.split()
    assert not hasattr(reclock, "ClockKind") and not hasattr(reclock, "emit_report")

    q = _write(tmp_path, QUANTUM_TEXT, "q.scenario")
    outputs = _write(tmp_path, QUANTUM_TEXT + "\n[outputs]\nformats = json\n", "o.scenario")
    guard = QUANTUM_TEXT.replace("record_every = 25", "record_every = 25\nedge_guard = 0.2")
    guard = _write(tmp_path, guard, "g.scenario")
    removed = [
        (["sweep", q], "invalid choice: 'sweep'"),
        (["run", q, "--tolerance-profile", "strict"], "unrecognized arguments: --tolerance"),
        (["run", outputs], "unexpected section(s) for kind quantum_covariance: [outputs]"),
        (["run", guard], "[numerics] unknown key(s): edge_guard"),
    ]
    for argv, message in removed:
        assert _exit_code([*argv, "--out", str(tmp_path / "r")]) == 2, argv
        assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_run_many_validates_jobs(tmp_path):
    q = _write(tmp_path, QUANTUM_TEXT, "q.scenario")
    from reclock.errors import ValidationError

    with pytest.raises(ValidationError, match="jobs"):
        run_many([q], out_root=str(tmp_path / "r"), jobs=0)


def test_run_many_submits_the_costliest_file_first_and_reports_in_file_order(monkeypatch):
    submitted = []

    class InlinePool:
        def __init__(self, max_workers, mp_context=None):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, scenarios, *args):
            submitted.append([s.name for s in scenarios])
            future = Future()
            future.set_result([s.name for s in scenarios])
            return future

    # run_many imports the pool class from here when it builds a pool.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    paths = [str(p) for p in catalogue_paths()]
    names = [parse_scenario(p).name for p in paths]
    assert run_many(paths, jobs=2) == names
    # Point-steps: the sweep's dts, the finest of which is the sine-driven
    # file's experiment, so the two are one group; then the longer and the
    # shorter single runs. The two alpha files tie and keep file order, and
    # the classical files cost nothing.
    assert submitted == [
        ["sine-driven-harmonic", "sweep-sine-driven"], ["linear-alpha-half-harmonic"],
        ["linear-alpha2-harmonic"], ["gauge-identity"], ["classical-linear-alpha2"],
        ["classical-sine-driven"],
    ]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="pinned where os.fork exists")
def test_a_pool_forks_its_workers_on_linux(tmp_path, monkeypatch):
    # Named, not inherited: Linux's default is forkserver from Python 3.14.
    contexts = []
    pool_class = concurrent.futures.ProcessPoolExecutor

    def recording_pool(max_workers, mp_context):
        contexts.append(mp_context)
        return pool_class(max_workers=max_workers, mp_context=mp_context)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    c = _write(tmp_path, CLASSICAL_TEXT, "c.scenario")
    q = _write(tmp_path, QUANTUM_TEXT, "q.scenario")
    summaries = run_many([c, q], out_root=str(tmp_path / "r"), jobs=2)
    assert [s.status for s in summaries] == [Status.PASS] * 2
    assert [ctx.get_start_method() for ctx in contexts] == ["fork"]


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


@pytest.mark.parametrize("cores, workers, side_by_side", [
    pytest.param(2, 1, True, id="lone-process-2-cores"),
    pytest.param(2, 2, False, id="pool-of-2-on-2-cores"),
    pytest.param(4, 2, True, id="pool-of-2-on-4-cores"),
    pytest.param(1, 1, False, id="lone-process-1-core"),
])
def test_a_covariance_steps_side_by_side_only_with_a_core_to_spare(
    monkeypatch, cores, workers, side_by_side
):
    # Whether a child can be forked at all (os.fork, a live thread) is
    # quantum._forked's to decide, at the fork.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    assert runner._side_by_side(workers) is side_by_side


def test_run_many_decides_side_by_side_once_and_passes_it_down(tmp_path, monkeypatch):
    paths = [
        _write(tmp_path, CLASSICAL_TEXT.replace("cli-classical", f"cli-c{i}"), f"c{i}.scenario")
        for i in range(2)
    ]
    decided, passed = [], []
    monkeypatch.setattr(runner, "_side_by_side", lambda workers: decided.append(workers) or "yes")
    monkeypatch.setattr(
        runner, "_run_group",
        lambda scenarios, out_root, formats, side_by_side: [
            passed.append(side_by_side) for _ in scenarios
        ],
    )
    run_many(paths, out_root=str(tmp_path / "r"), jobs=1)
    # Two classical files share nothing, so each is a group of its own.
    assert decided == [1] and passed == ["yes", "yes"]


# A sweep whose finest step is QUANTUM_TEXT's experiment, bit for bit.
SHARING_SWEEP_TEXT = (
    QUANTUM_TEXT.replace("name = cli-quantum", "name = cli-sharing-sweep")
    .replace("kind = quantum_covariance", "kind = convergence_sweep")
    .replace("dt = 2e-3", "dts = 8e-3, 4e-3, 2e-3")
)


def _counting_experiments(monkeypatch, fail_when=lambda scenario: None):
    """Count the runner's ``covariance_experiment`` calls; a call whose
    scenario makes ``fail_when`` return an exception raises it instead."""
    calls = []

    def counting(scenario, side_by_side=False):
        calls.append(scenario)
        error = fail_when(scenario)
        if error is not None:
            raise error
        return quantum.covariance_experiment(scenario, side_by_side)

    monkeypatch.setattr(runner, "covariance_experiment", counting)
    return calls


def _artifact_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*.*"))}


@pytest.mark.parametrize("jobs", [1, 2])
def test_files_that_share_an_experiment_step_it_once_and_write_what_they_write_alone(
    tmp_path, monkeypatch, jobs
):
    texts = {
        "q.scenario": QUANTUM_TEXT,
        "sweep.scenario": SHARING_SWEEP_TEXT,
        # Only its name and bound differ, and neither is an input of a run.
        "twin.scenario": QUANTUM_TEXT.replace("name = cli-quantum", "name = cli-twin")
        + "\n[tolerances]\nmin_fidelity = 0.9\n",
    }
    paths = [_write(tmp_path, text, name) for name, text in texts.items()]
    alone = {}
    for path in paths:
        summary = runner.run_scenario(parse_scenario(path), str(tmp_path / "alone"), ("csv", "json"))
        assert summary.status is Status.PASS, summary
        alone[summary.name] = summary
    calls = _counting_experiments(monkeypatch)
    batch = run_many(paths, str(tmp_path / "batch"), ("csv", "json"), jobs=jobs)
    # One group, so even jobs=2 runs in this process, where calls are seen:
    # the sweep's 2e-3 is the two quantum files' experiment.
    assert len(calls) == 3
    assert [s.name for s in batch] == list(alone)
    for summary in batch:
        assert (summary.status, summary.metrics, summary.detail) == (
            alone[summary.name].status, alone[summary.name].metrics, alone[summary.name].detail
        )
    assert _artifact_bytes(tmp_path / "batch") == _artifact_bytes(tmp_path / "alone")


@pytest.mark.parametrize("old, new", [
    pytest.param("record_every = 25", "record_every = 5", id="record-every"),
    pytest.param("center = 1.0", "center = -0.0", id="signed-zero-center"),
])
def test_files_whose_experiments_differ_in_one_bit_share_nothing(tmp_path, monkeypatch, old, new):
    base = QUANTUM_TEXT.replace("center = 1.0", "center = 0.0")
    other = QUANTUM_TEXT.replace("name = cli-quantum", "name = cli-other").replace(old, new)
    other = other.replace("center = 1.0", "center = 0.0")
    paths = [_write(tmp_path, base, "a.scenario"), _write(tmp_path, other, "b.scenario")]
    scenarios = [parse_scenario(p) for p in paths]
    assert runner._groups(scenarios) == [[0], [1]]
    calls = _counting_experiments(monkeypatch)
    summaries = run_many(paths, str(tmp_path / "r"), jobs=1)
    assert [s.status for s in summaries] == [Status.PASS] * 2
    assert len(calls) == 2


@pytest.mark.parametrize("error, detail, tracebacks", [
    pytest.param(
        quantum.NumericalError("kernel bug"), "NumericalError: kernel bug", 0, id="reclock"
    ),
    pytest.param(RuntimeError("kernel bug"), "internal error: RuntimeError: kernel bug", 2,
                 id="internal"),
])
def test_a_shared_experiment_that_raises_fails_each_file_that_shares_it(
    tmp_path, monkeypatch, capsys, error, detail, tracebacks
):
    unrelated = QUANTUM_TEXT.replace("name = cli-quantum", "name = cli-unrelated")
    paths = [
        _write(tmp_path, QUANTUM_TEXT, "q.scenario"),
        _write(tmp_path, unrelated.replace("tau1 = 0.5", "tau1 = 0.4"), "u.scenario"),
        _write(tmp_path, SHARING_SWEEP_TEXT, "sweep.scenario"),
    ]
    shared = parse_scenario(paths[0])
    calls = _counting_experiments(
        monkeypatch,
        lambda scenario: error if (scenario.config, scenario.tau_span)
        == (shared.propagator, shared.tau_span) else None,
    )
    q, u, sweep = run_many(paths, str(tmp_path / "r"), jobs=1)
    assert (q.status, q.detail) == (sweep.status, sweep.detail) == (Status.FAIL, detail)
    assert u.status is Status.PASS
    # The sweep's 8e-3 and 4e-3, the shared 2e-3 once, and the unrelated file.
    assert len(calls) == 4
    # An internal error's traceback is printed for each file it fails.
    assert capsys.readouterr().err.count("Traceback") == tracebacks


def test_a_shared_report_is_kept_until_its_group_returns_and_an_unshared_one_never(
    tmp_path, monkeypatch
):
    unrelated = QUANTUM_TEXT.replace("name = cli-quantum", "name = cli-unrelated")
    paths = [
        _write(tmp_path, QUANTUM_TEXT, "q.scenario"),
        _write(tmp_path, unrelated.replace("tau1 = 0.5", "tau1 = 0.4"), "u.scenario"),
        _write(tmp_path, SHARING_SWEEP_TEXT, "sweep.scenario"),
    ]
    reports, alive = {}, []

    def recording(scenario, side_by_side=False):
        report = quantum.covariance_experiment(scenario, side_by_side)
        reports[(scenario.config.dt, scenario.tau_span[1])] = weakref.ref(report)
        return report

    def living():
        return {key for key, ref in reports.items() if ref() is not None}

    def run(scenario, out_root, formats, covariance, run=runner._run):
        summary = run(scenario, out_root, formats, covariance)
        alive.append((scenario.name, living()))
        return summary

    def run_group(scenarios, out_root, formats, side_by_side, run_group=runner._run_group):
        summaries = run_group(scenarios, out_root, formats, side_by_side)
        alive.append(("group returned", living()))
        return summaries

    monkeypatch.setattr(runner, "covariance_experiment", recording)
    monkeypatch.setattr(runner, "_run", run)
    monkeypatch.setattr(runner, "_run_group", run_group)
    summaries = run_many(paths, str(tmp_path / "r"), jobs=1)
    assert [s.status for s in summaries] == [Status.PASS] * 3
    # The costlier group [q, sweep] runs first. The shared 2e-3 experiment is
    # alive after its first reader and dead once its group has returned; the
    # sweep's own dts and the unrelated file's experiment are never kept.
    assert alive == [
        ("cli-quantum", {(2e-3, 0.5)}),
        ("cli-sharing-sweep", {(2e-3, 0.5)}),
        ("group returned", set()),
        ("cli-unrelated", set()),
        ("group returned", set()),
    ]
    assert reports.keys() == {(2e-3, 0.5), (8e-3, 0.5), (4e-3, 0.5), (2e-3, 0.4)}


class _ChildOnlyError(Exception):
    """Pickles, but cannot be rebuilt from its pickle: it needs two arguments."""

    def __init__(self, what, where):
        super().__init__(f"{what} in {where}")


def _local_error_class():
    class LocalError(Exception):
        """A local class: pickle cannot name it."""

    return LocalError


class _FailsInAChild(PotentialSpec):
    """Harmonic well that raises ``make_error()`` in any process but the one
    that built it, so only a forked reference run fails."""

    def __init__(self, make_error):
        self.make_error, self.pid = make_error, os.getpid()

    def value(self, t, x):
        if os.getpid() != self.pid:
            raise self.make_error()
        return 0.5 * x * x

    def gradient_x(self, t, x):
        return x


@pytest.mark.parametrize("make_error, detail", [
    pytest.param(
        lambda: ZeroDivisionError("divided in the child"),
        "internal error: ZeroDivisionError: divided in the child",
        id="pickled",
    ),
    pytest.param(
        lambda: _ChildOnlyError("failed", "the child"),
        "NumericalError: _ChildOnlyError: failed in the child",
        id="not-rebuilt-from-its-pickle",
    ),
    pytest.param(
        lambda: _local_error_class()("failed in the child"),
        "NumericalError: LocalError: failed in the child",
        id="not-pickleable",
    ),
])
def test_an_internal_error_in_the_forked_run_fails_its_scenario(
    tmp_path, capsys, monkeypatch, make_error, detail
):
    scenario = parse_scenario(_write(tmp_path, QUANTUM_TEXT, "q.scenario"))
    scenario = dataclasses.replace(scenario, potential=_FailsInAChild(make_error))
    monkeypatch.setattr(runner, "_side_by_side", lambda workers: True)
    summary = runner.run_scenario(scenario, str(tmp_path / "r"))
    assert summary.status is Status.FAIL and summary.detail == detail
    assert summary.metrics == {} and summary.artifacts == ()
    capsys.readouterr()
