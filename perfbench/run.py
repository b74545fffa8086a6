"""reclock benchmark: one workload per invocation, result as a JSON last line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` runs the workload as fresh ``reclock`` CLI processes and
reports the end-to-end metrics. ``--trace 1`` calls each layer's public
functions in this process on the same inputs and reports per-layer spans
and counts. ``--workload all`` runs every workload both ways, each in its
own process, and prints every metric by name with its unit.
"""

from __future__ import annotations

import os

# Pinned before numpy can be imported anywhere, and inherited by every child:
# unpinned, OpenBLAS threads double CPU time on the wide grid and push the
# --jobs 2 catalogue past one thread per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import subprocess
import sys
from pathlib import Path

from scenarios import WORKLOADS, build_workload

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def checkout_root() -> Path:
    """The checkout under test: the working directory, which must hold the sources."""
    root = Path.cwd()
    if not (root / "src" / "reclock" / "cli.py").is_file():
        sys.exit(f"perfbench: no src/reclock under {root}; run from the root of a reclock checkout")
    return root


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment() -> dict[str, object]:
    """Machine and library versions recorded with every result."""
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind, size = (_read(f"{base}/{n}").strip() for n in ("level", "type", "size"))
        if level:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    probe = (
        "import json, numpy, scipy; c = numpy.show_config(mode='dicts');"
        "b = c['Build Dependencies']['blas'];"
        "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
        "'blas': b.get('name', '?') + ' ' + str(b.get('version', '?'))}))"
    )
    libs = json.loads(subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        **libs,
        "threads_pinned": os.environ["OPENBLAS_NUM_THREADS"],
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    root = checkout_root()
    env = child_env(root)
    work_dir = root / ".perfbench_work" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = build_workload(name, seed, root, work_dir)
        print(f"env {json.dumps(environment(), sort_keys=True)}")
        if trace:
            sys.path.insert(0, env["PYTHONPATH"])
            import reclock

            if not Path(reclock.__file__).resolve().is_relative_to((root / "src").resolve()):
                sys.exit(f"perfbench: imported reclock from {reclock.__file__}, not this checkout")
            import layers

            result = layers.traced_run(workload, work_dir, env)
            trace_file = root / ".perfbench_work" / f"trace-{name}-seed{seed}.json"
            trace_file.write_text(json.dumps(result.dump(), indent=1) + "\n", encoding="utf-8")
            for span_name, own in sorted(result.tracer.self_times().items()):
                print(f"self_s {span_name} {own:.6f}")
            print(f"spans written to {trace_file.relative_to(root)}")
            metrics = result.metrics
        else:
            import e2e

            result = e2e.measure(workload, seconds, work_dir, env)
            for scenario, digest in sorted(result.digests.items()):
                print(f"artifacts {scenario} sha256={digest}")
            print(f"repeats {result.repeats} runs, {result.setups} set-ups, jobs {workload.jobs}")
            for metric, values in result.samples.items():
                print(f"samples {metric} {' '.join(f'{v:.4f}' for v in values)}")
            print(f"failed_frac {result.failed / result.attempted:.6g} ({result.failed}/{result.attempted})")
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in result.metrics.items()}
        for problem in result.problems:
            print(f"problem: {problem}")
        correct = result.failed == 0 and not result.problems
        print(result_line(correct, result.attempted, result.failed, metrics))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                status = 1
            label = "per-layer (traced)" if trace else "end-to-end"
            print(f"== {name} {label}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            if not trace:
                print(f"  {'failed_frac':<40} {result['failed'] / result['attempted']:>14.6g} 1")
            for metric, v in result["metrics"].items():
                print(f"  {metric:<40} {v['value']:>14.6g} {v['unit']}")
            for line in lines[:-1]:
                if line.startswith("problem:"):
                    print(f"  {line}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        checkout_root()
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
