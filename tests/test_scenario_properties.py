"""Property test: a generated scenario file parses or raises one ScenarioError.

Unlike the catalogue mutations, each file is drawn whole: any kind, any clock
map and potential family, an optional ``[constants]`` and ``[tolerances]``
section, optional keys left out, and numbers drawn from ordinary values,
every double and a few extremes. Grids have at most 4096 points, or more
than MAX_POINTS, which parsing must reject before it allocates the grid.
Whatever the file, parsing must end in a Scenario or a ScenarioError with a
single section prefix, never in another exception or a warning.
"""

import re
import tempfile
import warnings
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from reclock.errors import ScenarioError  # noqa: E402
from reclock.model import MAX_POINTS  # noqa: E402
from reclock.scenario import Scenario, parse_scenario  # noqa: E402

# One number in eight is extreme: any double, NaN and the infinities
# included, or a value at the edge of the floating-point range.
_EXTREME = st.one_of(st.floats(), st.sampled_from([0.0, 1e308, -1e308, 1e-300, 5e-324]))
_ORDINARY = st.floats(-2.0, 2.0)
_POSITIVE = st.floats(0.1, 10.0)


def _number(draw, ordinary=_ORDINARY) -> str:
    return repr(draw(_EXTREME if draw(st.integers(0, 7)) == 0 else ordinary))


def _count(draw, ordinary) -> str:
    extreme = st.one_of(st.integers(-2, 7), st.integers(MAX_POINTS + 1, 2**70))
    return str(draw(extreme if draw(st.integers(0, 7)) == 0 else ordinary))


_TIMEMAPS = {
    "identity": (),
    "linear": ("alpha",),
    "sine_perturbed": ("amplitude", "frequency"),
    "smooth_ramp": ("rate_start", "rate_end", "center", "sharpness"),
}
_POTENTIALS = {
    "free": (),
    "harmonic": ("omega",),
    "driven_harmonic": ("omega0", "ramp"),
    "moving_well": ("center0", "velocity", "stiffness"),
}
_TOLERANCE_KEYS = {
    "quantum_covariance": ("min_fidelity", "max_energy_transform_residual"),
    "classical_equivalence": ("max_error",),
    "convergence_sweep": ("order_min", "order_max"),
}


def _family(draw, families: dict) -> dict:
    family = draw(st.sampled_from(sorted(families)))
    keys = {key: _number(draw) for key in families[family] if draw(st.integers(0, 9))}
    return {"family": family, **keys}


def _optional(draw, section: dict, key: str, value) -> None:
    if draw(st.booleans()):
        section[key] = value()


@st.composite
def _scenario_files(draw) -> dict:
    """A whole scenario file as {section: {key: text}}."""
    kind = draw(st.sampled_from(sorted(_TOLERANCE_KEYS)))
    sections = {
        "scenario": {"schema_version": "1", "name": "generated", "kind": kind},
        "span": {
            "tau0": _number(draw, st.floats(-1.0, 0.5)),
            "tau1": _number(draw, st.floats(0.0, 3.0)),
        },
        "timemap": _family(draw, _TIMEMAPS),
        "potential": _family(draw, _POTENTIALS),
    }
    if draw(st.booleans()):
        sections["constants"] = {}
        for key in ("hbar", "mass"):
            _optional(draw, sections["constants"], key, lambda: _number(draw, _POSITIVE))
    numerics = {}
    if kind == "classical_equivalence":
        sections["initial_state"] = {"x0": _number(draw), "p0": _number(draw)}
        _optional(draw, numerics, "tol", lambda: _number(draw, st.floats(1e-12, 1e-3)))
    else:
        sections["grid"] = {
            "x_min": _number(draw, st.floats(-30.0, -10.0)),
            "x_max": _number(draw, st.floats(10.0, 30.0)),
            "n_points": _count(draw, st.integers(8, 4096)),
        }
        sections["initial_state"] = {
            "center": _number(draw),
            "width": _number(draw, st.floats(0.05, 1.0)),
        }
        _optional(draw, sections["initial_state"], "momentum", lambda: _number(draw))
        _optional(draw, numerics, "record_every", lambda: _count(draw, st.integers(1, 100)))
        step = st.floats(1e-4, 0.1)
        if kind == "quantum_covariance":
            numerics["dt"] = _number(draw, step)
        else:
            dts = [_number(draw, step) for _ in range(draw(st.integers(0, 5)))]
            # Mostly a valid ladder: strictly decreasing steps.
            if draw(st.integers(0, 3)):
                dts.sort(key=float, reverse=True)
            numerics["dts"] = ", ".join(dts)
    sections["numerics"] = numerics
    if draw(st.booleans()):
        sections["tolerances"] = {}
        for key in _TOLERANCE_KEYS[kind]:
            _optional(draw, sections["tolerances"], key, lambda: _number(draw))
    return sections


def _quantum_file(**grid) -> dict:
    return {
        "scenario": {"schema_version": "1", "name": "generated", "kind": "quantum_covariance"},
        "span": {"tau0": "0.0", "tau1": "1.0"},
        "timemap": {"family": "identity"},
        "potential": {"family": "harmonic"},
        "grid": grid,
        "initial_state": {"center": "0.0", "width": "0.05"},
        "numerics": {"dt": "0.01"},
    }


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_scenario_files())
# A grid spacing that underflows to 0 once divided the Nyquist limit by zero.
@example(_quantum_file(x_min="0.0", x_max="5e-324", n_points="8"))
@example(_quantum_file(x_min="-1.0", x_max="1.0", n_points=str(2**62)))
def test_generated_scenario_files_parse_or_raise_one_scenario_error(sections):
    text = "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items()) + "\n"
        for name, keys in sections.items()
    )
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = Path(tmp) / "generated.scenario"
        path.write_text(text, encoding="utf-8")
        try:
            assert isinstance(parse_scenario(path), Scenario)
        except ScenarioError as exc:
            assert not re.match(r"\[\w+\] \[\w+\] ", str(exc)), str(exc)
