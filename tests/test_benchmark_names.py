"""The names the benchmark harness under ``perfbench/`` calls or traces exist, and
its per-layer spans are reached.

The harness's own smoke tests are not collected with ``tests/``, so a name
deleted from the library would otherwise break only a benchmark run, or, for
a per-layer span, leave its metric reading 0 without any error.  A span is
reached when ``opalg demo all`` records it, run in process under the
harness's tracer.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from opalg.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# per-layer spans that `opalg demo all` does not record, each with its reason
UNREACHED = {
    "linalg.nullspace": "the function has left src/",
    "qubits.finite_marginal_state": "the function has moved to tests/oracles.py",
    "gns.commutant_basis": "only the harness's size sweep calls it",
    "algebra.evaluate_state": "no scenario kind calls it",
    "groups.is_positive_definite": "the group runner decides positivity from the spectrum it cuts",
}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = _tracer()


def _per_layer_spans():
    """The span names of ``run.PER_LAYER``, read from the source: importing run.py sets
    BLAS thread variables."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PER_LAYER"]:
            return [span for span, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/run.py defines no PER_LAYER")


@pytest.fixture(scope="module")
def demo_spans(tmp_path_factory):
    """The span names ``opalg demo all`` records under the harness's tracer."""
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        assert main(["demo", "all", "--out", str(tmp_path_factory.mktemp("demo"))]) == 0
    finally:
        tracer.uninstall()
    assert tracer.tree_problems() == []
    return set(tracer.names)


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


@pytest.mark.parametrize("module, cls, method", sorted(TRACER.METHODS))
def test_benchmark_traces_an_existing_method(module, cls, method):
    owner = getattr(importlib.import_module(f"opalg.{module}"), cls)
    assert callable(owner.__dict__[method])


@pytest.mark.parametrize("span", _per_layer_spans())
def test_per_layer_span_is_recorded_by_live_code(span, demo_spans):
    # a listed span that `demo all` comes to record must leave the list
    assert (span in demo_spans) == (span not in UNREACHED), UNREACHED.get(span, span)
