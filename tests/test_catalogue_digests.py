"""The bundled catalogue's artifacts, pinned byte for byte.

``catalogue.sha256`` holds the SHA-256 of every artifact that one
``run_many`` over the catalogue writes in CSV and JSON, serially and with
two workers alike. Both runs come from the session fixture
``catalogue_runs`` (``conftest.py``). Criterion 9 checks only that the
serial and the ``jobs=2`` run agree, so a change that moves a float in both
of them passes it; these tests catch that change. A change that moves an
artifact on purpose rewrites the manifest with

    PYTHONPATH=src python tests/test_catalogue_digests.py > tests/catalogue.sha256

The header records the environment the digests were taken in, including
the LAPACK routine the kernel calls. A mismatch prints it next to the
running one, so a new NumPy, BLAS, solver or CPU reads as a change of
environment rather than of the code.
"""

import hashlib
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

import reclock.quantum as quantum
from reclock.cli import catalogue_paths
from reclock.runner import Status, run_many

MANIFEST = Path(__file__).with_name("catalogue.sha256")
FORMATS = ("csv", "json")


def _cpu() -> str:
    try:
        lines = Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines()
    except OSError:
        lines = []
    names = (line.split(":", 1)[1].strip() for line in lines if line.startswith("model name"))
    return next(names, platform.processor() or "unknown")


def environment() -> dict[str, str]:
    """The versions, solver and machine that an artifact's floats can depend on."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    bundled = quantum._openblas() is not None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **{key: f"{deps[key].get('name', '?')} {deps[key].get('version', '?')}" for key in ("blas", "lapack")},
        "solver": "NumPy's bundled scipy_zgtsv_64_" if bundled else "SciPy's gtsv",
        "machine": f"{platform.system()} {platform.machine()}",
        "cpu": _cpu(),
    }


def tree_digests(out_root: Path) -> dict[str, str]:
    """``{<name>/<stem>.<fmt>: sha256}`` of every artifact under ``out_root``."""
    return {
        path.relative_to(out_root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_root.rglob("*.*"))
    }


def read_manifest(manifest: Path = MANIFEST) -> tuple[dict[str, str], dict[str, str]]:
    """The recorded environment and ``{artifact: sha256}`` of ``manifest``."""
    recorded, digests = {}, {}
    for line in manifest.read_text(encoding="utf-8").splitlines():
        if line.startswith("# ") and ": " in line:
            key, value = line[2:].split(": ", 1)
            recorded[key] = value
        elif line and not line.startswith("#"):
            digest, name = line.split("  ", 1)
            digests[name] = digest
    return recorded, digests


def test_the_catalogue_writes_the_pinned_artifacts(catalogue_runs):
    check_catalogue(*catalogue_runs[1])


def test_a_pooled_catalogue_writes_the_pinned_artifacts(catalogue_runs):
    # Two workers run the catalogue as groups of files, and the group that
    # shares the sweep's finest experiment steps it once.
    check_catalogue(*catalogue_runs[2])


def check_catalogue(out_root: Path, summaries) -> None:
    """Fail unless every file of a catalogue run passed and the run wrote the
    manifest's artifacts under ``out_root``, naming each that differs and the
    environments."""
    assert [s.status for s in summaries] == [Status.PASS] * len(summaries), summaries
    check_digests(MANIFEST, tree_digests(out_root))


def check_digests(manifest: Path, actual: dict[str, str]) -> None:
    """Fail unless ``actual`` holds exactly ``manifest``'s artifacts and
    digests, naming each that differs and the environments."""
    recorded, expected = read_manifest(manifest)
    assert expected, f"{manifest.name} lists no artifact"
    differing = sorted(
        name for name in expected.keys() | actual.keys() if expected.get(name) != actual.get(name)
    )
    if differing:
        running = environment()
        versions = "\n".join(
            f"  {key}: recorded {recorded.get(key, '?')!r}, running {running.get(key, '?')!r}"
            for key in dict.fromkeys([*recorded, *running])
        )
        raise AssertionError(
            f"{len(differing)} artifact(s) differ from {manifest.name}:\n"
            + "\n".join(f"  {name}" for name in differing)
            + f"\nenvironment:\n{versions}"
        )


def print_manifest(title: str, digests: dict[str, str]) -> None:
    """Write a manifest to stdout: ``title`` and the environment as comments,
    then one ``<sha256>  <artifact>`` line per artifact."""
    print(f"# SHA-256 of every artifact of {title}, formats={FORMATS!r}.")
    for key, value in environment().items():
        print(f"# {key}: {value}")
    sys.stdout.writelines(f"{digest}  {name}\n" for name, digest in digests.items())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        summaries = run_many([str(p) for p in catalogue_paths()], tmp, FORMATS)
        assert [s.status for s in summaries] == [Status.PASS] * len(summaries), summaries
        digests = tree_digests(Path(tmp))
    print_manifest("one run_many over the catalogue", digests)
