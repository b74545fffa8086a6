"""The artifacts of the families the bundled catalogue never runs, pinned
byte for byte.

``catalogue.sha256`` pins only what the catalogue runs: identity, linear and
sine clocks, harmonic and driven wells, n=512, sparse records and no flags.
``families.sha256`` pins the rest, each in one small file written here from
text: a smooth-ramp clock over a moving well on 16384 points (one-step
blocks), a record at every step, the free potential, classical orbits over
both of those pairs, an edge-leak Flagged file and a file that fails a
tolerance. The files run serially, through a pool of two workers, and with
every covariance's reference run forked; all three write the manifest's
artifacts. A change that moves an artifact on purpose rewrites it with

    PYTHONPATH=src python tests/test_family_digests.py > tests/families.sha256

The header records the environment, as ``catalogue.sha256``'s does.
"""

import tempfile
from pathlib import Path

import pytest

from reclock import runner
from reclock.runner import Status, run_many
from test_catalogue_digests import FORMATS, check_digests, print_manifest, tree_digests
from test_cli import FLAGGED_TEXT

MANIFEST = Path(__file__).with_name("families.sha256")


def _text(name: str, kind: str, **sections: dict) -> str:
    """A scenario file's text: its ``[scenario]`` head, then ``sections``."""
    lines = ["[scenario]", "schema_version = 1", f"name = {name}", f"kind = {kind}", ""]
    for section, keys in sections.items():
        lines += [f"[{section}]", *(f"{key} = {value}" for key, value in keys.items()), ""]
    return "\n".join(lines)


SMOOTH_RAMP = {
    "family": "smooth_ramp", "rate_start": 1.0, "rate_end": 0.6, "center": 0.05,
    "sharpness": 0.02,
}
MOVING_WELL = {"family": "moving_well", "center0": 0.0, "velocity": 0.5, "stiffness": 1.0}
SINE = {"family": "sine_perturbed", "amplitude": 0.3, "frequency": 1.0}
DRIVEN = {"family": "driven_harmonic", "omega0": 1.0, "ramp": 0.1}
PACKET = {"center": 0.25, "width": 1.0, "momentum": 0.5}

# (file text, the status it must end with), in run order.
FILES = {
    "ramp-moving-wide": (_text(
        "family-ramp-moving-wide", "quantum_covariance",
        span={"tau0": 0.0, "tau1": 0.1}, timemap=SMOOTH_RAMP, potential=MOVING_WELL,
        grid={"x_min": -24.0, "x_max": 24.0, "n_points": 16384}, initial_state=PACKET,
        numerics={"dt": 2.5e-3, "record_every": 5},
    ), Status.PASS),
    "sine-driven-dense": (_text(
        "family-sine-driven-dense", "quantum_covariance",
        span={"tau0": 0.0, "tau1": 0.3}, timemap=SINE, potential=DRIVEN,
        grid={"x_min": -12.0, "x_max": 12.0, "n_points": 256}, initial_state=PACKET,
        numerics={"dt": 2e-3, "record_every": 1},
    ), Status.PASS),
    "free-linear": (_text(
        "family-free-linear", "quantum_covariance",
        span={"tau0": 0.0, "tau1": 0.5}, timemap={"family": "linear", "alpha": 0.5},
        potential={"family": "free"},
        grid={"x_min": -12.0, "x_max": 12.0, "n_points": 256}, initial_state=PACKET,
        numerics={"dt": 2e-3, "record_every": 10},
    ), Status.PASS),
    "classical-ramp-moving": (_text(
        "family-classical-ramp-moving", "classical_equivalence",
        span={"tau0": 0.0, "tau1": 3.0}, timemap=SMOOTH_RAMP, potential=MOVING_WELL,
        initial_state={"x0": 0.5, "p0": 0.25}, numerics={"tol": 1e-11},
    ), Status.PASS),
    "classical-sine-driven": (_text(
        "family-classical-sine-driven", "classical_equivalence",
        span={"tau0": 0.0, "tau1": 3.0}, timemap=SINE, potential=DRIVEN,
        initial_state={"x0": -0.75, "p0": 0.5}, numerics={"tol": 1e-11},
    ), Status.PASS),
    "flagged": (FLAGGED_TEXT, Status.FLAGGED),
    # Steps so coarse that the residual misses the default 1e-6 by ~400-fold.
    "fails-residual": (_text(
        "family-fails-residual", "quantum_covariance",
        span={"tau0": 0.0, "tau1": 1.0}, timemap=SINE, potential=DRIVEN,
        grid={"x_min": -12.0, "x_max": 12.0, "n_points": 128},
        initial_state={"center": 2.0, "width": 1.0},
        numerics={"dt": 2e-2, "record_every": 5},
    ), Status.FAIL),
}


def family_digests(root: Path, jobs: int = 1) -> dict[str, str]:
    """``tree_digests`` of one ``run_many`` of ``FILES``, written under
    ``root``, with ``jobs`` workers; each file must end with its status."""
    paths = []
    for stem, (text, _) in FILES.items():
        paths.append(str(root / f"{stem}.scenario"))
        Path(paths[-1]).write_text(text, encoding="utf-8")
    summaries = run_many(paths, str(root / "out"), FORMATS, jobs)
    assert [s.status for s in summaries] == [status for _, status in FILES.values()], summaries
    return tree_digests(root / "out")


@pytest.mark.parametrize("jobs, side_by_side", [
    pytest.param(1, False, id="serial"),
    pytest.param(2, None, id="pool-of-2"),
    pytest.param(1, True, id="forked"),
])
def test_the_uncatalogued_families_write_the_pinned_artifacts(
    tmp_path, monkeypatch, jobs, side_by_side
):
    if side_by_side is not None:
        monkeypatch.setattr(runner, "_side_by_side", lambda workers: side_by_side)
    check_digests(MANIFEST, family_digests(tmp_path, jobs))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = family_digests(Path(tmp))
    print_manifest("one run_many over tests/test_family_digests.py's FILES", digests)
