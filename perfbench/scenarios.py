"""Seeded workload inputs: the scenario files each workload hands to reclock.

A workload is a list of scenario files plus the ``--jobs`` value the CLI
runs them with. ``catalogue`` is the bundled catalogue as shipped; the other
three are generated here from a seed. The seed moves only the initial
conditions (packet center and momentum, orbit x0 and p0); clocks, wells,
grids and steps stay fixed, so every seed does the same amount of work and
only the numbers in the artifacts change.

Ranges are chosen so that every generated scenario passes its kind's default
tolerances with no ``[tolerances]`` section of its own:

* packets start within one width of the well center, with momentum ranges
  that keep the energy-transform residual below 2.3e-7 at every corner of
  the range (default limit 1e-6; it grows steeply with the packet's
  oscillation amplitude, and on the moving well it is smallest when the
  packet moves with the well); packets stay more than 8 widths clear of the
  edge-leak strip (the outer 10% of the box) for the whole run;
* ``wide-grid`` steps at dt = 2.5e-3: at 5e-3 the energy-transform residual
  reached 2.6e-6 against the default 1e-6, so the step was halved instead of
  loosening the tolerance;
* orbits use integrator tol 1e-11, which keeps the cross-clock error near
  1e-9 against the default 1e-5.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("catalogue", "wide-grid", "dense-record", "classical-orbits")


@dataclass(frozen=True)
class Workload:
    name: str
    files: tuple[Path, ...]
    jobs: int


def _scenario_text(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
        lines.append("")
    return "\n".join(lines)


def _head(name: str, kind: str) -> dict[str, object]:
    return {"schema_version": 1, "name": name, "kind": kind}


def _wide_grid(rng: random.Random) -> dict[str, str]:
    return {
        "wide-grid": _scenario_text(
            {
                "scenario": _head("wide-grid", "quantum_covariance"),
                "span": {"tau0": 0.0, "tau1": repr(math.pi)},
                "timemap": {
                    "family": "smooth_ramp",
                    "rate_start": 1.0,
                    "rate_end": 0.6,
                    "center": repr(0.5 * math.pi),
                    "sharpness": 0.25,
                },
                "potential": {
                    "family": "moving_well",
                    "center0": 0.0,
                    "velocity": 0.5,
                    "stiffness": 1.0,
                },
                "grid": {"x_min": -24.0, "x_max": 24.0, "n_points": 16384},
                "initial_state": {
                    "center": repr(rng.uniform(-0.25, 0.75)),
                    "width": 1.0,
                    "momentum": repr(rng.uniform(0.25, 1.0)),
                },
                "numerics": {"dt": 2.5e-3, "record_every": 25},
            }
        )
    }


def _dense_record(rng: random.Random) -> dict[str, str]:
    return {
        "dense-record": _scenario_text(
            {
                "scenario": _head("dense-record", "quantum_covariance"),
                "span": {"tau0": 0.0, "tau1": repr(2.0 * math.pi)},
                "timemap": {"family": "sine_perturbed", "amplitude": 0.3, "frequency": 1.0},
                "potential": {"family": "driven_harmonic", "omega0": 1.0, "ramp": 0.1},
                "grid": {"x_min": -12.0, "x_max": 12.0, "n_points": 512},
                "initial_state": {
                    "center": repr(rng.uniform(-0.5, 0.5)),
                    "width": 1.0,
                    "momentum": repr(rng.uniform(-0.5, 0.5)),
                },
                "numerics": {"dt": 1e-3, "record_every": 1},
            }
        )
    }


# Integer sine frequency keeps T(100 pi) = 100 pi, so the t-span (and the
# work) does not depend on the clock parameters.
_ORBIT_CLOCKS = {
    "sine": {"family": "sine_perturbed", "amplitude": 0.3, "frequency": 1.0},
    "ramp": {
        "family": "smooth_ramp",
        "rate_start": 1.0,
        "rate_end": 0.5,
        "center": repr(50.0 * math.pi),
        "sharpness": 5.0,
    },
}
_ORBIT_WELLS = {
    "driven": {"family": "driven_harmonic", "omega0": 1.0, "ramp": 0.002},
    "moving": {"family": "moving_well", "center0": 0.0, "velocity": 0.01, "stiffness": 1.0},
}


def _classical_orbits(rng: random.Random) -> dict[str, str]:
    out = {}
    for clock_name, clock in _ORBIT_CLOCKS.items():
        for well_name, well in _ORBIT_WELLS.items():
            for k in range(2):
                name = f"orbit-{clock_name}-{well_name}-{k}"
                out[name] = _scenario_text(
                    {
                        "scenario": _head(name, "classical_equivalence"),
                        "span": {"tau0": 0.0, "tau1": repr(100.0 * math.pi)},
                        "timemap": clock,
                        "potential": well,
                        "initial_state": {
                            "x0": repr(rng.uniform(-2.0, 2.0)),
                            "p0": repr(rng.uniform(-2.0, 2.0)),
                        },
                        "numerics": {"tol": 1e-11},
                    }
                )
    return out


_GENERATORS = {
    "wide-grid": _wide_grid,
    "dense-record": _dense_record,
    "classical-orbits": _classical_orbits,
}


def catalogue_files(root: Path) -> tuple[Path, ...]:
    """The bundled scenarios of the checkout at ``root``, sorted by name."""
    return tuple(sorted((root / "src" / "reclock" / "catalogue").glob("*.scenario")))


def generated_texts(name: str, seed: int) -> dict[str, str]:
    """Scenario name -> file text for a generated workload."""
    # The workload name is part of the stream so workloads draw independently.
    return _GENERATORS[name](random.Random(f"{name}:{seed}"))


def build_workload(name: str, seed: int, root: Path, work_dir: Path) -> Workload:
    """Write the workload's inputs under ``work_dir`` and describe how to run them."""
    if name == "catalogue":
        files = catalogue_files(root)
        if len(files) != 7:
            raise SystemExit(f"expected 7 bundled scenarios, found {len(files)}")
        return Workload(name, files, jobs=2)
    inputs = work_dir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    files = []
    for scenario_name, text in generated_texts(name, seed).items():
        path = inputs / f"{scenario_name}.scenario"
        path.write_text(text, encoding="utf-8")
        files.append(path)
    return Workload(name, tuple(files), jobs=1)
