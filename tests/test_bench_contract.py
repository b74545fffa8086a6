"""The traced benchmark pass still runs against the library.

``perfbench/layers.py`` calls each layer's functions by name and reads fields
of their results. It is imported here by path, unedited, and its scenario
pass and probes run on two bundled scenarios, so a change that drops a name
the benchmark reads fails here and not only under ``perfbench --trace 1``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from reclock.cli import catalogue_paths
from reclock.runner import run_scenario
from reclock.scenario import parse_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def layers():
    # layers.py imports its sibling modules (checks, scenarios) by bare name.
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
        module = importlib.util.module_from_spec(spec)
        # Its dataclasses look their module up in sys.modules.
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("name", ["gauge-identity", "classical-linear-alpha2"])
def test_traced_pass_and_probes_run_and_match_the_runner(layers, tmp_path, name):
    path = next(Path(str(p)) for p in catalogue_paths() if p.name == f"{name}.scenario")
    tracer = layers.Tracer("contract")
    outcome = layers.scenario_pass(path, tracer)
    layers._probes(outcome, tracer)
    assert tracer.spans and outcome.reports == []

    summary = run_scenario(parse_scenario(path), out_root=tmp_path, formats=layers.FORMATS)
    assert outcome.metrics and all(summary.metrics[k] == v for k, v in outcome.metrics.items())
    assert sorted(outcome.artifacts) == sorted(Path(p).name for p in summary.artifacts)
