"""The names the benchmark harness under ``perfbench/`` calls or traces exist.

The harness's own smoke tests are not collected with ``tests/``, so a name
deleted from the library would otherwise break only a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_methods():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return sorted(tracer.METHODS)


@pytest.mark.parametrize("module, name", [
    ("gns", "commutant_basis"),
    ("gns", "gns_construct"),
    ("scenarios", "parse_scenario"),
    ("scenarios", "run_scenario"),
    ("cli", "main"),
    ("qubits", "local_transition_element"),
])
def test_benchmark_calls_an_existing_function(module, name):
    assert callable(getattr(importlib.import_module(f"opalg.{module}"), name))


@pytest.mark.parametrize("module, cls, method", _traced_methods())
def test_benchmark_traces_an_existing_method(module, cls, method):
    owner = getattr(importlib.import_module(f"opalg.{module}"), cls)
    assert callable(owner.__dict__[method])
