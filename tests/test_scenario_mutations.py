"""Property test: a mutated catalogue file parses or raises one ScenarioError.

Each example drops keys or sections, adds keys or sections (an empty
``[grid]``, ``[outputs]`` or unknown one), or replaces values with junk
text, non-finite numbers, zero, negatives or extreme magnitudes. Whatever
the file, parsing must end in a Scenario or a ScenarioError with a single
section prefix, never in another exception or a numpy warning.
"""

import configparser
import copy
import re
import tempfile
import warnings
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from reclock.cli import catalogue_paths  # noqa: E402
from reclock.errors import ScenarioError  # noqa: E402
from reclock.scenario import parse_scenario  # noqa: E402


def _catalogue_sections() -> dict[str, dict[str, dict[str, str]]]:
    """Each bundled scenario's sections as {section: {key: value}}, by file stem."""
    files = {}
    for path in catalogue_paths():
        parser = configparser.ConfigParser(
            delimiters=("=",), comment_prefixes=("#",), interpolation=None
        )
        parser.read(path, encoding="utf-8")
        files[Path(path).stem] = {name: dict(parser.items(name)) for name in parser.sections()}
    return files


_CATALOGUE = _catalogue_sections()
_JUNK = ("junk", "nan", "inf", "0", "-1", "1e308", "-1e308", "1e-300")
# Keys no section has, or that only another section or kind reads.
_EXTRA_KEYS = ("unknown", "omega", "momentum", "hbar", "edge_guard", "record_every", "tol")
# A section only the quantum kinds read, one no kind reads, and an unknown name.
_EXTRA_SECTIONS = ("grid", "outputs", "unknown")


def _edited(stem: str, *edits):
    """A catalogue file with (section, key, value) edits; value None drops the key."""
    sections = copy.deepcopy(_CATALOGUE[stem])
    for name, key, value in edits:
        if value is None:
            del sections[name][key]
        else:
            sections[name][key] = value
    return sections


@st.composite
def _mutated_catalogue_files(draw):
    """A catalogue file with one to three mutations: a key or a section
    dropped, a key or a section added, or a value replaced by junk text, a
    non-finite number, zero, a negative or an extreme magnitude. No value
    can become a large grid, so parsing stays cheap."""
    sections = copy.deepcopy(_CATALOGUE[draw(st.sampled_from(sorted(_CATALOGUE)))])
    for _ in range(draw(st.integers(1, 3))):
        if not sections:
            break
        name = draw(st.sampled_from(sorted(sections)))
        keys = sorted(sections[name])
        ops = ("drop key", "drop section", "add key", "replace value", "add section")
        op = draw(st.sampled_from(ops))
        if op == "add section":
            sections.setdefault(draw(st.sampled_from(_EXTRA_SECTIONS)), {})
        elif op == "drop section" or not keys:
            del sections[name]
        elif op == "drop key":
            del sections[name][draw(st.sampled_from(keys))]
        elif op == "add key":
            sections[name][draw(st.sampled_from(_EXTRA_KEYS))] = draw(st.sampled_from(_JUNK))
        else:
            sections[name][draw(st.sampled_from(keys))] = draw(st.sampled_from(_JUNK))
    return sections


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_mutated_catalogue_files())
# A packet far narrower than the grid spacing, and a box whose width overflows.
@example(_edited("sine-driven-harmonic", ("initial_state", "width", "1e-300")))
@example(_edited("gauge-identity", ("grid", "x_min", "-1e308"), ("grid", "x_max", "1e308")))
# Parse errors inside a section once came out as "[grid] [grid] ...".
@example(_edited("linear-alpha2-harmonic", ("grid", "n_points", "junk")))
@example(_edited("linear-alpha2-harmonic", ("timemap", "alpha", None)))
# A domain whose length overflows, and a clock rate that overflows on it.
@example(_edited("sweep-sine-driven", ("span", "tau0", "-1e308"), ("span", "tau1", "1e308")))
@example(
    _edited(
        "sine-driven-harmonic",
        ("timemap", "frequency", "1e308"),
        ("timemap", "amplitude", "1e-308"),
    )
)
def test_mutated_catalogue_files_parse_or_raise_one_scenario_error(sections):
    text = "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items()) + "\n"
        for name, keys in sections.items()
    )
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        # A numpy RuntimeWarning is a failure too.
        warnings.simplefilter("error")
        path = Path(tmp) / "mutated.scenario"
        path.write_text(text, encoding="utf-8")
        try:
            parse_scenario(path)
        except ScenarioError as exc:
            assert not re.match(r"\[\w+\] \[\w+\] ", str(exc)), str(exc)
