"""End-to-end measurement: each repeat is a fresh ``reclock`` CLI process.

``setup_s`` is ``reclock validate`` on the workload's files (interpreter
start, ``import reclock``, parsing). ``wall_s``, ``cpu_s`` and
``peak_rss_mb`` come from ``reclock run <files> --format both --jobs J``.
CPU time and peak RSS are read from ``wait4`` on the CLI process, which
includes the worker processes it reaped; peak RSS is therefore the largest
resident set of any process in the run.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from scenarios import Workload

# A single CLI process that outlives this is killed and counted as failed.
PROCESS_TIMEOUT_S = 150.0

# The median of three repeats ignores one disturbed repeat. A workload takes
# three even when that overruns --seconds.
MIN_REPEATS = 3


@dataclass(frozen=True)
class ProcessResult:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str


def run_cli(args: list[str], cwd: Path, env: dict[str, str]) -> ProcessResult:
    """Run ``python -m reclock.cli <args>`` and measure it from the outside."""
    log = cwd / "cli.log"
    with open(log, "w+", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "reclock.cli", *args],
            cwd=cwd,
            env=env,
            stdout=out,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        # The timer kills the whole session (the CLI and its pool workers),
        # so the blocking wait4 below always returns.
        timer = threading.Timer(PROCESS_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    log.unlink()
    return ProcessResult(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
    )


@dataclass
class E2EResult:
    metrics: dict[str, float]
    repeats: int
    setups: int
    attempted: int
    failed: int
    problems: list[str]
    digests: dict[str, str]
    samples: dict[str, list[float]]


def measure(workload: Workload, seconds: float, work_dir: Path, env: dict[str, str]) -> E2EResult:
    infos = {checks.scenario_info(f).name: checks.scenario_info(f) for f in workload.files}
    files = [str(f) for f in workload.files]
    problems: list[str] = []
    failed_names: list[set[str]] = []
    # A scenario that does not validate has failed, whatever its runs printed.
    invalid: set[str] = set()

    def validate() -> float:
        res = run_cli(["validate", *files], work_dir, env)
        ok_lines = sum(line.startswith("ok: ") for line in res.stdout.splitlines())
        if res.exit_code != 0 or ok_lines != len(files):
            problems.append(f"validate exited {res.exit_code} with {ok_lines}/{len(files)} ok")
            invalid.update(infos)
        return res.wall_s

    def repeat(index: int) -> tuple[ProcessResult, dict[str, str]]:
        out_root = work_dir / f"rep{index}"
        res = run_cli(
            ["run", *files, "--format", "both", "--jobs", str(workload.jobs), "--out", str(out_root)],
            work_dir,
            env,
        )
        bad: set[str] = set()
        if res.exit_code != 0:
            problems.append(f"repeat {index}: exit code {res.exit_code}, expected 0")
            bad.update(infos)
        summaries = checks.parse_summaries(res.stdout)
        digests = {}
        for name, info in infos.items():
            summary = summaries.get(name)
            if summary is None:
                misses = ["no summary line"]
            elif summary.verdict != checks.EXPECTED_VERDICT:
                misses = [f"verdict {summary.verdict}, expected {checks.EXPECTED_VERDICT}"]
            else:
                misses = checks.metric_misses(info, summary.metrics)
                misses += checks.artifact_misses(info, out_root / name)
            if misses:
                problems.append(f"repeat {index}: {name}: {'; '.join(misses)}")
                bad.add(name)
            scenario_dir = out_root / name
            digests[name] = checks.tree_digest(scenario_dir) if scenario_dir.is_dir() else ""
        failed_names.append(bad)
        shutil.rmtree(out_root, ignore_errors=True)
        return res, digests

    validate()  # untimed: fills the bytecode and file caches
    start = time.perf_counter()
    setup_walls = [validate()]
    runs: list[ProcessResult] = []
    digests: list[dict[str, str]] = []
    while True:
        res, dig = repeat(len(runs))
        runs.append(res)
        digests.append(dig)
        setup_walls.append(validate())
        elapsed = time.perf_counter() - start
        # Stop when one more repeat, at the mean pace so far, would overrun.
        if len(runs) >= MIN_REPEATS and elapsed * (1.0 + 1.0 / len(runs)) > seconds:
            break

    # Determinism: every repeat must write byte-identical artifacts.
    for index, dig in enumerate(digests[1:], start=1):
        for name in infos:
            if dig[name] != digests[0][name]:
                problems.append(f"repeat {index}: {name}: artifacts differ from repeat 0")
                failed_names[index].add(name)
    failed_names[0] |= invalid

    samples = {
        "wall_s": [r.wall_s for r in runs],
        "cpu_s": [r.cpu_s for r in runs],
        "setup_s": setup_walls,
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
    }
    return E2EResult(
        metrics={k: statistics.median(v) for k, v in samples.items()},
        samples=samples,
        repeats=len(runs),
        setups=len(setup_walls),
        attempted=len(infos) * len(runs),
        failed=sum(len(bad) for bad in failed_names),
        problems=problems,
        digests=digests[0],
    )
