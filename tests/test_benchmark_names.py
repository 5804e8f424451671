"""The names the benchmark harness under ``perfbench/`` calls or traces exist.

The harness's own smoke tests are not collected with ``tests/``, so a name
deleted from the library would otherwise break only a benchmark run, or, for
a per-layer span, leave its metric reading 0 without any error.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# per-layer spans whose code has left src/: their metrics read 0
KNOWN_DEAD = {"linalg.nullspace", "qubits.finite_marginal_state"}


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


def _traced_functions(tracer, short):
    """The functions ``Tracer.install`` wraps in ``opalg.<short>``."""
    module = importlib.import_module(f"opalg.{short}")
    return {attr for attr, obj in vars(module).items()
            if not attr.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__ and not inspect.isgeneratorfunction(obj)}


def _recorded(span, tracer) -> bool:
    """Whether a traced run can record ``span``: through a listed method, the cli
    rule, or a module function named by ``RENAME`` or by the span itself."""
    for (short, cls, method), name in tracer.METHODS.items():
        owner = getattr(importlib.import_module(f"opalg.{short}"), cls, None)
        if name == span and owner is not None and callable(owner.__dict__.get(method)):
            return True
    if span == "cli.main":
        return bool(_traced_functions(tracer, "cli"))
    for name in [key for key, value in tracer.RENAME.items() if value == span] + [span]:
        short, _, func = name.partition(".")
        if (short in tracer.MODULES and tracer._span_name(short, func) == span
                and func in _traced_functions(tracer, short)):
            return True
    return False


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
def test_per_layer_span_is_recorded_by_live_code(span):
    # a known-dead span that comes back to life must leave the list
    assert _recorded(span, TRACER) == (span not in KNOWN_DEAD)
