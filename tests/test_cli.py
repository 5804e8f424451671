import gc
import importlib.util
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from opalg import (NumericalError, State, ValidationError, fields, gns, groups, parse_scenario,
                   run_scenario, scenarios, symmetry)
from opalg.cli import main
from opalg.scenarios import DEFAULT_TOLERANCES, KINDS

DEMO = {name: kind.demo for name, kind in KINDS.items()}

MINIMAL_GNS = """\
kind: gns
algebra: {blocks: [2]}
state:
  densities:
    - [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
"""


def test_parse_minimal_gns():
    scenario = parse_scenario(MINIMAL_GNS)
    assert scenario.kind == "gns"
    assert scenario.params["algebra"].blocks == (2,)


def test_parse_rejects_unnormalized_density():
    # the State checks the total trace before the shapes, with the schema's text and line
    bad = MINIMAL_GNS.replace("[[[1, 0], [0, 0]]", "[[[0.5, 0], [0, 0]]")
    zeros = "[[0, 0], [0, 0], [0, 0]]"
    misshapen = MINIMAL_GNS.replace("[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]",
                                    f"[[[0.5, 0], [0, 0], [0, 0]], {zeros}, {zeros}]")
    for text in (bad, misshapen):
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        assert str(err.value) == ("state.densities (line 5): densities must be normalized: "
                                  "total trace 0.5 != 1")
        assert (err.value.path, err.value.line) == ("state.densities", 5)


def test_parse_rejects_unknown_kind_and_fields():
    with pytest.raises(ValidationError) as err:
        parse_scenario("kind: frobnicate\n")
    assert "unknown kind" in str(err.value)
    with pytest.raises(ValidationError) as err:
        parse_scenario(MINIMAL_GNS + "bogus: 1\n")
    assert "bogus" in str(err.value)
    with pytest.raises(ValidationError) as err:
        parse_scenario(MINIMAL_GNS + "configs: []\n")
    assert "does not belong to kind" in str(err.value)


def test_parse_rejects_non_finite_numbers():
    bad = MINIMAL_GNS.replace("[[[1, 0], [0, 0]]", "[[[.inf, 0], [0, 0]]")
    with pytest.raises(ValidationError) as err:
        parse_scenario(bad)
    assert "finite" in str(err.value)


def test_parse_error_carries_line_information():
    with pytest.raises(ValidationError) as err:
        parse_scenario("kind: gns\nalgebra: {blocks: [0]}\nstate: {densities: [[[[1,0]]]]}\n")
    assert "line 2" in str(err.value)


def test_parse_qubit_tail_scenario():
    text = """\
kind: qubit
configs:
  - tail: {c: 1.0, p: 1.0}
  - {}
"""
    scenario = parse_scenario(text)
    report = run_scenario(scenario)
    assert any("convergent" in line for line in report.lines)


@pytest.mark.parametrize("p", ["-1.0", "-0.0", "0"])
def test_qubit_tail_without_a_positive_power_is_a_schema_error(p, tmp_path, capsys):
    text = f"kind: qubit\nconfigs:\n  - tail: {{c: 1.0, p: {p}}}\n  - {{}}\n"
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert str(err.value) == "configs[0].tail.p (line 3): power tail requires p > 0"
    path = tmp_path / "tail.yaml"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"schema error: {path}: {err.value}\n"


def test_yaml_syntax_error_reports_line():
    with pytest.raises(ValidationError) as err:
        parse_scenario("kind: gns\n  bad indent: [\n")
    assert "line" in str(err.value)


def test_yaml_syntax_error_text_comes_from_the_python_parser():
    # libyaml would say "did not find expected ',' or ']'" and quote no source
    with pytest.raises(ValidationError) as err:
        parse_scenario("kind: gns\nalgebra: {blocks: [2}\n")
    assert str(err.value) == (
        "<document> (line 2): not well-formed YAML: while parsing a flow sequence\n"
        '  in "<unicode string>", line 2, column 19:\n'
        "    algebra: {blocks: [2}\n"
        "                      ^\n"
        "expected ',' or ']', but got '}'\n"
        '  in "<unicode string>", line 2, column 21:\n'
        "    algebra: {blocks: [2}\n"
        "                        ^")
    assert err.value.line == 2


# malformed documents and documents on which libyaml and the pure-Python parser
# could disagree (tabs, '?', '!', a BOM inside the stream, empty flow values)
YAML_CORPUS = {
    "unclosed_flow": "kind: gns\nalgebra: {blocks: [2}\n",
    "bad_indent": "kind: gns\n  bad indent: [\n",
    "tab_indent": "kind: gns\nalgebra:\n\tblocks: [2]\n",
    "tab_separator": "kind: field\nfield: {mass:\t1e-01, cutoff: 6E0}\n",
    "tab_in_flow": "a: [1,\t2]\n",
    "undefined_alias": "kind: gns\nalgebra: *nope\n",
    "two_documents": "kind: gns\n---\nkind: equiv\n",
    "unterminated_quote": "kind: \"gns\nalgebra: {blocks: [2]}\n",
    "yaml_1_3": "%YAML 1.3\n---\nkind: gns\nvalues: [1e-05, 6E0]\n",
    "yaml_2_0": "%YAML 2.0\n---\nkind: gns\n",
    "crlf": "kind: field\r\nfield: {mass: 1e-01, cutoff: 6E0}\r\n",
    "bom": "\ufeffkind: field\nfield: {mass: 1e-01}\n",
    "bom_inside": "kind: gns\n\ufeffalgebra: {blocks: [2]}\n",
    "duplicate_key": "kind: gns\nkind: equiv\n",
    "empty": "",
    "comment_only": "# nothing\n",
    "control_character": "kind: gns\x07\n",
    "lone_surrogate": "kind: g\ud800ns\n",
    "python_tag": "kind: !!python/object gns\n",
    "bare_tag": "a: [[1, 0], [!, 0]]\n",
    "question_mark_in_flow": "a: {k?nd: power}\n",
    "question_mark_at_end": "a: [1, 2]\n?",
    "empty_flow_value": "a: {site: \n, vector: [1e-05, 2]}\n",
    "empty_flow_value_after_comment": "a: {site: # none\n\n}\n",
    "empty_flow_pair_in_sequence": "a: [x: \n, 1]\n",
    "nested_mapping_value": "kind: gns: x\n",
    "anchor_and_alias": "a: &x [1e-05, 2]\nb: *x\n",
    "merge_key": "a: &x {p: 1}\nb: {<<: *x, q: 2}\n",
}


def _assert_reads_like_the_python_parser(load, text):
    """``load(text)`` gives the pure-Python parser's data, or its error and line, and
    the line of every path the parser's nodes hold is found on demand."""
    status, first, second = oracles.load_with_marks_by_python(text)
    try:
        data, root = load(text)
    except ValidationError as exc:
        assert status == "error"
        assert (str(exc), exc.line) == (
            str(ValidationError(f"not well-formed YAML: {first}", line=second)), second)
        return
    assert status == "ok"
    assert data == first
    for path, line in second.items():
        assert scenarios._line(root, path) == line, path


@pytest.mark.parametrize("name", sorted(YAML_CORPUS))
def test_yaml_outcome_matches_the_python_parser(name):
    _assert_reads_like_the_python_parser(scenarios._load, YAML_CORPUS[name])


def _exponent(mantissa, sign, exponent):
    return f"{mantissa}e{sign}{exponent:02d}"


SCALARS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: "%.17e" % x),
    st.builds(_exponent, st.integers(1, 9), st.sampled_from(["", "-", "+"]), st.integers(0, 12)),
    st.integers(-10**9, 10**9).map(str),
)
NESTED = st.recursive(SCALARS, lambda inner: st.lists(inner, min_size=1, max_size=4),
                      max_leaves=24)


def _flow(value):
    return value if isinstance(value, str) else "[" + ", ".join(_flow(v) for v in value) + "]"


@st.composite
def scenario_documents(draw):
    """Mappings of nested number lists in flow and block style, with comments and blank lines."""
    lines = []

    def extra():
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "# a comment", "   # indented comment"])))

    def suffix():
        return draw(st.sampled_from(["", "", "  # trailing"]))

    def block(value, indent):
        for item in value:
            if isinstance(item, list) and draw(st.booleans()):
                lines.append(" " * indent + "-" + suffix())
                block(item, indent + 2)
            else:
                lines.append(" " * indent + "- " + _flow(item) + suffix())
            extra()

    for k in range(draw(st.integers(1, 4))):
        extra()
        value = draw(NESTED)
        style = draw(st.sampled_from(["flow", "block", "mapping"]))
        if style == "mapping":
            lines.append(f"key{k}: {{inner: {_flow(value)}, n: {draw(SCALARS)}}}" + suffix())
        elif style == "block" and isinstance(value, list):
            lines.append(f"key{k}:" + suffix())
            block(value, draw(st.sampled_from([0, 2, 4])))
        else:
            lines.append(f"key{k}: {_flow(value)}" + suffix())
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(scenario_documents())
def test_libyaml_loader_reads_documents_like_the_python_parser(text):
    _assert_reads_like_the_python_parser(lambda t: scenarios._compose(scenarios._Loader, t), text)
    _assert_reads_like_the_python_parser(scenarios._load, text)


# scalars of every core-schema tag, and keys that repeat or collide as text
WALK_LEAVES = ["1.5", "-0.0", "0.0", "1e999", "-1e999", "1e-05", "6E0", "1.5e+3", ".inf", "-.inf",
               ".nan", "1_0.5", "1._5", "190:20:30.15", "0", "7", "-7", "+7", "012", "0x1F", "0o17",
               "1_000", "1:30", "~", "null", "true", "False", "yes", "off", "abc", "'1.5'", '"x y"',
               "''"]
WALK_KEYS = ["a", "b", "a", "1", "'1'", "true", "~"]
# what only PyYAML's constructor reads: tags written out, timestamps, integers
# past int()'s 4300 digits, merge ('<<') and value ('=') keys, a key that is no scalar
FOREIGN_LEAVES = ["2001-12-14", "2001-12-14 21:59:43.10 -5", "!!str 12", "!!float 3",
                  "!!float '1_0'", "!!binary aGVsbG8=", "!!set {a, b}", "9" * 4301, "8" * 4301]
FOREIGN_KEYS = ["<<", "=", "2001-12-14", "[k]"]


@st.composite
def core_schema_documents(draw):
    """Block mappings of flow values with anchors, aliases (fans of fans, and a
    collection inside itself) and the scalars and keys above, one in ten foreign."""
    anchors = []

    def pick(core, foreign):
        return draw(st.sampled_from(foreign if draw(st.integers(0, 9)) == 0 else core))

    def node(depth):
        if anchors and draw(st.integers(0, 3)) == 0:
            return "*" + draw(st.sampled_from(anchors))
        anchor = ""
        if draw(st.integers(0, 3)) == 0:    # defined before its content, which may alias it
            anchors.append(f"a{len(anchors)}")
            anchor = f"&{anchors[-1]} "
        shape = draw(st.integers(0, 4 if depth < 3 else 1))
        if shape <= 1:
            return anchor + pick(WALK_LEAVES, FOREIGN_LEAVES)
        count = draw(st.integers(0, 3))
        if shape <= 3:
            return anchor + "[" + ", ".join(node(depth + 1) for _ in range(count)) + "]"
        return anchor + "{" + ", ".join(f"{pick(WALK_KEYS, FOREIGN_KEYS)}: {node(depth + 1)}"
                                        for _ in range(count)) + "}"

    keys = draw(st.lists(st.sampled_from(["k0", "k1", "k2", "'k1'"]), min_size=1, max_size=5))
    return "".join(f"{key}: {node(0)}\n" for key in keys)


def _canonical(obj, seen):
    """Containers by content, one seen before by its first-seen index (aliases and
    cycles), leaves by type and repr."""
    if isinstance(obj, (list, dict, set)):
        if id(obj) in seen:
            return ("seen", seen[id(obj)])
        seen[id(obj)] = len(seen)
        if isinstance(obj, list):
            return ("list", tuple(_canonical(item, seen) for item in obj))
        if isinstance(obj, set):
            return ("set", tuple(sorted(map(repr, obj))))
        return ("dict", tuple((_canonical(key, seen), _canonical(value, seen))
                              for key, value in obj.items()))
    return (type(obj).__name__, repr(obj))


def _construction(build, text):
    try:
        return "ok", _canonical(build(text), {})
    except RecursionError:    # what _compose reports for it
        exc = ValidationError("document nested too deeply to read")
    except (yaml.YAMLError, ValidationError) as caught:
        exc = caught
    return "error", type(exc).__name__, str(exc)


def _pyyaml_data(loader_cls, text):
    loader = loader_cls(text)
    try:
        node = loader.get_single_node()
        return None if node is None else loader.construct_document(node)
    finally:
        loader.dispose()


@settings(max_examples=300, deadline=None)
@given(core_schema_documents())
# PyYAML builds nested collections after the scalars beside them, so of two
# integers past 4300 digits the one on line 2 fails first
@example("k0: [" + "9" * 4301 + "]\nk1: " + "8" * 4301 + "\n")
@example("k0: &a0 [*a0, {a: *a0}]\nk1: &a1 {b: *a1, c: &a2 [*a2]}\n")
@example("k0: &a0 {a: 1}\nk1: {<<: *a0, b: 2, =: 3}\n")
@example("k0: [012, 0o17, 0x1F, 1_000, -7, 1:30, 1_0.5, .inf, -0.0]\n")
def test_construction_walk_builds_what_pyyaml_builds(text):
    for loader_cls in (scenarios._Loader, scenarios._PyLoader):
        assert (_construction(lambda t: scenarios._compose(loader_cls, t)[0], text)
                == _construction(lambda t: _pyyaml_data(loader_cls, t), text))


class _EntryWalker(scenarios._Walker):
    """The schema walker with every number read entry by entry."""

    def _floats(self, obj, ndim, entry):
        return None


# leaves the bulk read must leave to the entry walk, and finite floats whose sum
# overflows (1e308)
BULK_ENTRIES = st.one_of(
    st.sampled_from([float("inf"), -float("inf"), float("nan"), 1e308, -0.0, True, False, None,
                     "x", "1.5", 0, 7, 10 ** 400]),
    st.floats(), st.integers(-10 ** 400, 10 ** 400))


def _yaml_scalar(value):
    if isinstance(value, float):
        return {"inf": ".inf", "-inf": "-.inf", "nan": ".nan"}.get(repr(value), repr(value))
    if isinstance(value, bool) or value is None:
        return {True: "true", False: "false", None: "null"}[value]
    return str(value) if isinstance(value, int) else f"'{value}'"


def _yaml_flow(value):
    if isinstance(value, list):
        return "[" + ", ".join(_yaml_flow(item) for item in value) + "]"
    return _yaml_scalar(value)


@st.composite
def numeric_nests(draw):
    """(reader, entry, nest): a regular vector or matrix of floats or [re, im]
    pairs of floats, with up to three defects: another leaf (inf, nan, an int,
    a bool, None, a string), a cell that is no pair, a row one entry short or long."""
    reader, pairs = draw(st.sampled_from(["vector", "matrix"])), draw(st.booleans())
    floats = st.floats(allow_nan=False, allow_infinity=False)
    cell = st.lists(floats, min_size=2, max_size=2) if pairs else floats
    width = draw(st.integers(1, 4))
    row = st.lists(cell, min_size=width, max_size=width)
    nest = draw(row if reader == "vector" else st.lists(row, min_size=1, max_size=4))
    rows = [nest] if reader == "vector" else nest
    for _ in range(draw(st.integers(0, 3))):
        target = rows[draw(st.integers(0, len(rows) - 1))]
        defect = draw(st.sampled_from(["leaf", "leaf", "cell", "short", "long"]))
        if defect == "short" or not target:
            target[:] = target[:-1]
        elif defect == "long":
            target.append(draw(cell))
        else:
            k = draw(st.integers(0, len(target) - 1))
            if defect == "cell":
                target[k] = draw(st.one_of(BULK_ENTRIES, st.lists(BULK_ENTRIES, max_size=3)))
            elif isinstance(target[k], list) and target[k]:
                target[k][draw(st.integers(0, len(target[k]) - 1))] = draw(BULK_ENTRIES)
            else:
                target[k] = draw(BULK_ENTRIES)
    return reader, "complex_scalar" if pairs else "number", nest


@settings(max_examples=300, deadline=None)
@given(numeric_nests())
@example(("vector", "number", [1.0, float("inf")]))
@example(("matrix", "complex_scalar", [[[1.0, 0.0]], [[float("nan"), 0.0]]]))
@example(("matrix", "number", [[1e308, 1e308]]))    # finite entries whose sum overflows
@example(("vector", "complex_scalar", [[1.0, 0.0], [True, 0.0]]))
def test_bulk_numeric_read_matches_the_entry_walk(case):
    reader, entry, nest = case
    if reader == "matrix" and nest:    # one row per line, so each error has its own line
        text = "m:\n" + "".join(f"  - {_yaml_flow(row)}\n" for row in nest)
    else:
        text = f"m: {_yaml_flow(nest)}\n"
    data, root = scenarios._load(text)
    outcomes = []
    for walker in (scenarios._Walker(root), _EntryWalker(root)):
        try:
            values = getattr(walker, reader)(data["m"], ("m",), getattr(walker, entry))
            outcomes.append((values.dtype.str, values.shape, values.tobytes()))
        except ValidationError as exc:
            outcomes.append((str(exc), exc.line))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("text", [
    "kind: gns\nalgebra: {blocks: [1, 1]}\nstate: {densities: [[[[0.5, 0.0]]], [[[0.5, 0.0]]]]}\n",
    "kind: gns\nalgebra: {blocks: [1]}\nother: {<<: {a: 1}}\n",    # read by PyYAML's constructor
    "kind: gns\nalgebra: " + "[" * 1200 + "-1" + "]" * 1200 + "\n",    # the walk overflows
], ids=["core", "merge-key", "too-deep"])
def test_reading_a_document_leaves_no_reference_cycle(text):
    # the walk's record of built collections grows with the document; held in a
    # cycle it would outlive the read until the cycle collector runs.  (The node
    # tree of a document with an anchor is itself a cycle, built by the parser.)
    gc.collect()
    gc.disable()
    try:
        try:
            scenarios._load(text)
        except ValidationError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_nesting_of_400_levels_reaches_the_schema_walker():
    with pytest.raises(ValidationError) as err:
        parse_scenario("kind: gns\nalgebra: " + "[" * 400 + "]" * 400 + "\n")
    assert (str(err.value), err.value.line) == ("algebra (line 2): expected a mapping, got list", 2)


def _deepest_list_read(leaf, blocks=0):
    """The deepest flow list around ``leaf`` that parse_scenario reads to the schema
    walker, below ``blocks`` nested block sequences."""
    head = "kind: gns\nalgebra:" + ("\n" + "- " * blocks if blocks else " ")

    def read(depth):
        try:
            parse_scenario(head + "[" * depth + leaf + "]" * depth + "\n")
        except ValidationError as exc:
            return "nested too deeply" not in str(exc)
    lo, hi = 100, sys.getrecursionlimit() + 100
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if read(mid) else (lo, mid)
    return lo


def test_nesting_boundary_does_not_depend_on_the_scalar_inside():
    # a scalar read through one of the loader's constructors runs a few frames
    # below its level; a document is still refused only as deep as a walk of
    # one frame per level overflows, as for a float
    depth = _deepest_list_read("1.5")
    assert depth < sys.getrecursionlimit()
    for leaf in ["a", "1", "-1", "012", "0x1F", "1_000", "true", "~", ".inf", "2001-12-14"]:
        assert _deepest_list_read(leaf) == depth, leaf


def test_nesting_boundary_below_block_sequences_does_not_depend_on_the_scalar_inside():
    # the JSON decoder reads a list whole from near the bottom of the stack, however
    # deep the block levels above it; it must still be refused exactly as deep as a
    # list the decoder leaves to libyaml
    depth = _deepest_list_read("a", 300)
    assert depth < sys.getrecursionlimit() - 300
    for leaf in ["1.5", "-1"]:
        assert _deepest_list_read(leaf, 300) == depth, leaf


# ---------------------------------------------------------------------------
# numeric flow sequences read whole by the JSON decoder


def _read_whole(root):
    """The lists read whole by the JSON decoder, in document order: the scalars that hold one."""
    found, stack = [], [] if root is None else [root]
    while stack:
        node = stack.pop()
        if isinstance(node, yaml.MappingNode):
            stack += [value for _, value in reversed(node.value)]
        elif isinstance(node, yaml.SequenceNode):
            stack += reversed(node.value)
        elif isinstance(node.value, list):
            found.append(node.value)
    return found


def _with_flows(text):
    """``_load`` one frame down, as deep in the stack as ``_without_flows`` reads."""
    return scenarios._load(text)


def _without_flows(text):
    """``_load`` with every flow sequence composed by libyaml, as a document outside the subset is."""
    with mock.patch.object(scenarios, "_flows", lambda text: None):
        return scenarios._load(text)


def _paths(obj, path=(), depth=40):
    yield path
    if len(path) < depth and isinstance(obj, (dict, list)):
        for step, child in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _paths(child, path + (step,), depth)


def _read_outcome(load, text):
    """The repr of the data and the line of every path into it, or the error and its line."""
    try:
        data, root = load(text)
    except ValidationError as exc:
        return "error", str(exc), exc.line
    return "ok", repr(data), [(path, scenarios._line(root, path)) for path in _paths(data)]


# JSON number tokens (1e5 resolves through the YAML 1.2 float pattern, -0 and
# -0.0 as themselves, 1e400 to inf) and tokens JSON refuses, which leave their
# sequence to libyaml: signs, bare dots, octal, underscores, 4301 digits
FLOW_TOKENS = st.one_of(
    st.sampled_from(["0", "-0", "-0.0", "7", "-7", "1.5", "-2.5e-3", "1e5", "1E+5", "6E0", "1e400",
                     "-1e400", "1e-400", "+1", ".5", "5.", "010", "1_000", "1-2", "1 2", "0x1F",
                     ".inf", "1e", "", "9" * 4301]),
    st.floats(allow_nan=False, allow_infinity=False).map("%.17e".__mod__),
    st.integers(-10 ** 20, 10 ** 20).map(str))
FLOW_SPANS = st.recursive(FLOW_TOKENS, lambda inner: st.lists(inner, max_size=3),
                          max_leaves=8).map(_flow)
# nests deeper than the JSON decoder reads (PyYAML's own parser, which reads
# the errors, takes about a second over two of them, so they come as examples)
DEEP = "[" * 1200 + "{}" + "]" * 1200
# places for a span: values of block and flow mappings, nested block sequences,
# and traps where libyaml would join its placeholder into a longer scalar
FLOW_PLACES = ["k{k}: {0}", "k{k}:\n  - {0}\n  - {1}", "k{k}:\n- - {0}\n  -   {1}",
               "k{k}: {{a: {0}, b: {1}}}", "k{k}: {{a: {0},\n  b: {1}}}", "k{k}: out - {0}",
               "k{k}: x\n  - {0}", "k{k}: {0}\n  extra", "k{k}: {0}, {1}", "k{k}: __flow{k}"]


@st.composite
def flow_documents(draw):
    places = draw(st.lists(st.sampled_from(FLOW_PLACES), min_size=1, max_size=4))
    return "".join(place.format(draw(FLOW_SPANS), draw(FLOW_SPANS), k=k) + "\n"
                   for k, place in enumerate(places))


@settings(max_examples=200, deadline=None)
@given(flow_documents())
@example("report: out - [1]\n")    # 'out - __flow0' as one scalar
@example("a: x\n  - [1]\n")         # 'x - __flow0', a continuation line
@example("key: [1, 2]\n  extra\n")  # '__flow0 extra': a YAML error would turn into data
@example("k0: __flow0\nk1: [1]\n")  # the text already holds a placeholder
@example(f"k0: {DEEP.format('1.5')}\n")
@example(f"k0: {{a: [1], b: {DEEP.format('-1')}}}\nk1: out - {DEEP.format('2')}\n")
@example(f"k0:\n- - {DEEP.format('a')}\n  - [2]\n")
def test_flow_sequences_read_whole_give_the_data_and_errors_libyaml_gives(text):
    assert _read_outcome(_with_flows, text) == _read_outcome(_without_flows, text)


@pytest.mark.parametrize("text, whole", [
    ("a: [1, -2.5e-3, 1e5]\n", [[1, -0.0025, 1e5]]),
    ("- [[1, 2], [3]]\n- {b: [], c: [[[-0.0]]]}\n", [[[1, 2], [3]], [], [[[-0.0]]]]),
    ("a: {b: [1],\n  c: [2]}\n", [[1], [2]]),
    ("a: [1] \n", []),               # a span ends its line or comes before ',', ']' or '}'
    ("a:  [1]\nb: [+1]\n", []),      # it starts right after ': ' or '- ', and holds JSON
    ('a: [1]\nb: "x"\n', []),        # quotes, comments, tags, anchors lie outside the subset
    ("a: [1]\nb: x # note\n", []),
    ("a: [1]\nb: x/y\n", []),
])
def test_flow_sequences_are_read_whole_in_the_subset_only(text, whole):
    data, root = scenarios._load(text)
    assert _read_whole(root) == whole
    assert repr(data) == repr(_without_flows(text)[0])


def test_every_benchmark_document_reads_its_numbers_whole():
    # every flow sequence after ': ' or '- ' of the demos and of the workloads at three
    # seeds is read by the JSON decoder
    for text in _resolver_documents():
        read = scenarios._compose(scenarios._Loader, *scenarios._flows(text))
        assert read is not None, text
        starts = sum(len(start.findall(text)) for start in scenarios._FLOW_STARTS)
        assert len(_read_whole(read[1])) == starts, text


@pytest.mark.parametrize("unit", [": [0, 0, 0, 0, 0, 0, 0", " - [0, 0, 0, 0, 0, 0, 0"])
def test_a_megabyte_of_flow_starts_is_scanned_in_linear_time(unit):
    # each start's JSON read stops at the next ': ' or '- '; a read to the end of the
    # line from each of its 50000 starts would step over 2e10 characters
    text = "k: a" + unit * (2 ** 20 // len(unit)) + "\n"
    start = time.perf_counter()
    try:
        scenarios._load(text)
    except ValidationError:
        pass
    assert time.perf_counter() - start < 1.0


def test_line_lookup_through_an_alias_fan_out_searches_each_node_once(monkeypatch):
    # n 'field' keys lead to one mapping with n 'euclidean' keys, which all lead
    # to one mapping with the integer key 1; the error names that mapping, which
    # the last key of each fan-out holds, so the lookup descends once and does
    # not try the n * n ways
    n = 200
    text = ("kind: field\nfield: &F {mass: 1.0, euclidean: &E {1: 0, points: 9}"
            + ", euclidean: *E" * (n - 1) + "}\n" + "field: *F\n" * (n - 1))
    calls = []
    line = scenarios._line
    monkeypatch.setattr(scenarios, "_line", lambda *args: calls.append(1) or line(*args))
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert (str(err.value), err.value.line) == (
        "field.euclidean (line 2): field name 1 is not a string", 2)
    assert len(calls) == 3    # the root, F and E


def test_error_past_an_alias_fan_out_names_its_line():
    # 1935 paths run through the aliases before the last function, past the
    # 1604 lines a walk recording every path up front kept; the line is found
    # on demand now
    text = ("kind: group\ngroup: {name: z64}\nfunctions:\n"
            "  - &f [&p [1.0, 0.0]" + ", *p" * 63 + "]\n" + "  - *f\n" * 9
            + "  - [[1.0, 0.0], x]\n")
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert (str(err.value), err.value.line) == (
        "functions[10][1] (line 14): expected a list, got str", 14)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_scenario_documents_are_parsed_by_libyaml(monkeypatch):
    assert issubclass(scenarios._Loader, yaml.CSafeLoader)

    def no_python_parser(text):
        raise AssertionError("a well-formed scenario went to the pure-Python parser")

    monkeypatch.setattr(scenarios, "_PyLoader", no_python_parser)
    for text in DEMO.values():
        parse_scenario(text)


def test_run_scenario_deterministic_bytes():
    scenario = parse_scenario(DEMO["ccr"])
    first = run_scenario(scenario).render()
    second = run_scenario(parse_scenario(DEMO["ccr"])).render()
    assert first == second


def test_cli_run_file_and_directory(tmp_path, capsys):
    single = tmp_path / "one.yaml"
    single.write_text(MINIMAL_GNS)
    assert main(["run", str(single)]) == 0
    out = capsys.readouterr().out
    assert "carrier_dim = 2" in out
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a.yaml").write_text(MINIMAL_GNS)
    (batch / "b.yaml").write_text(DEMO["equiv"])
    out_dir = tmp_path / "reports"
    assert main(["run", str(batch), "--out", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["a.report.txt", "b.report.txt"]


def test_scenario_declared_report_path(tmp_path):
    target = tmp_path / "named.txt"
    scenario = tmp_path / "s.yaml"
    scenario.write_text(MINIMAL_GNS + f"report: {target}\n")
    assert main(["run", str(scenario)]) == 0
    assert "carrier_dim = 2" in target.read_text()


def test_cli_validate(tmp_path, capsys):
    good = tmp_path / "ok.yaml"
    good.write_text(MINIMAL_GNS)
    assert main(["validate", str(good)]) == 0
    assert "valid scenario" in capsys.readouterr().out
    bad = tmp_path / "bad.yaml"
    bad.write_text("kind: gns\n")
    assert main(["validate", str(bad)]) == 1
    assert "schema error" in capsys.readouterr().err


def test_cli_missing_file_is_schema_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.yaml")]) == 1


def test_cli_empty_batch_is_empty_report(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["run", str(empty)]) == 0
    assert capsys.readouterr().out == ""


def test_symmetry_multiplier_table_on_request():
    text = DEMO["symmetry"] + "report_multipliers: true\n"
    report = run_scenario(parse_scenario(text))
    assert any(line.startswith("multiplier_table") for line in report.lines)


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    text = """\
kind: ccr
space:
  gram: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
  k: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
fock: {max_occupation: 40}
"""
    scenario = tmp_path / "big.yaml"
    scenario.write_text(text)
    assert main(["run", str(scenario)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "basis" in err


def test_cli_unresolvable_shells_exit_code(tmp_path, capsys):
    text = """\
kind: field
field:
  mass: 1.0
  second_mass: 1.000000001
  cutoff: 6.0
  points: 9
"""
    scenario = tmp_path / "shells.yaml"
    scenario.write_text(text)
    assert main(["run", str(scenario)]) == 2
    assert "mass_witness" in capsys.readouterr().err


def test_cli_demo_kinds(tmp_path):
    for kind in ("gns", "equiv", "qubit", "group", "symmetry"):
        assert main(["demo", kind, "--out", str(tmp_path / kind)]) == 0
    assert main(["demo", "nonsense"]) == 1


def test_csv_artifacts(tmp_path):
    out = tmp_path / "r"
    csv = tmp_path / "csv"
    assert main(["demo", "ccr", "--out", str(out), "--csv", str(csv)]) == 0
    table = (csv / "demo_ccr.moments.csv").read_text().splitlines()
    assert table[0] == "multi_index,wick,oracle,relative_residual"
    assert len(table) > 1
    assert main(["demo", "field", "--out", str(out), "--csv", str(csv)]) == 0
    field_table = (csv / "demo_field.pauli_jordan_minus.csv").read_text().splitlines()
    assert field_table[0] == "x0,x1,x2,x3,re,im"


def test_report_lines_carry_tolerance_provenance():
    report = run_scenario(parse_scenario(MINIMAL_GNS))
    line = next(l for l in report.lines if l.startswith("reconstruction_residual_max"))
    assert "tol" in line and "default" in line and "computed" in line
    configured = parse_scenario(MINIMAL_GNS + "tolerances: {reconstruction: 1.0e-7}\n")
    line2 = next(l for l in run_scenario(configured).lines
                 if l.startswith("reconstruction_residual_max"))
    assert "configured" in line2


def test_report_matrix_prints_python_scalars_as_numpy_scalars():
    parts = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -2.5e-310, 1.0, -1e300]
    mat = np.array([[complex(re, im) for im in parts] for re in parts])
    report = scenarios.Report("equiv")
    report.matrix("m", mat)
    rows = ["  [" + ", ".join(f"[{v.real:+.12e}, {v.imag:+.12e}]" for v in row) + "]"
            for row in mat]    # each v a numpy complex128
    assert report.lines[1:] == ["m = [matrix 10x10] [computed]"] + rows


def test_parse_reads_yaml_1_2_floats():
    # YAML 1.1 reads an exponent without a dot (1e-05) or without a sign (6E0) as a string
    text = ("kind: field\nfield: {mass: 1e-01, cutoff: 6E0, points: 9}\n"
            "tolerances: {commutator_identity: 1e-05}\n")
    scenario = parse_scenario(text)
    assert scenario.params["mass"] == 0.1
    assert scenario.params["cutoff"] == 6.0
    assert scenario.tolerances == {"commutator_identity": 1e-05}
    # integers still resolve to int, and a float is still no integer
    with pytest.raises(ValidationError) as err:
        parse_scenario("kind: field\nfield: {mass: 1.0, points: 9e0}\n")
    assert "expected an integer, got float" in str(err.value)


@pytest.mark.parametrize("value", ["0", "0.0", "-1.0e-3"])
def test_parse_rejects_non_positive_tolerance(value):
    with pytest.raises(ValidationError) as err:
        parse_scenario(MINIMAL_GNS + f"tolerances:\n  reconstruction: {value}\n")
    assert "tolerances.reconstruction" in str(err.value)
    assert "line 7" in str(err.value)
    assert "positive" in str(err.value)


# every Pauli moves this state by 4e-7 in the dual norm, except the identity and Z
NEAR_STATIONARY_SYMMETRY = DEMO["symmetry"].replace(
    "[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]",
    "[[[0.5000001, 0], [0, 0]], [[0, 0], [0.4999999, 0]]]")


def test_configured_stationarity_reaches_implementer_and_orbit():
    default = run_scenario(parse_scenario(NEAR_STATIONARY_SYMMETRY)).lines
    assert "automorphism[1].stationary = False [computed]" in default
    assert "automorphism[1].implementer = absent [computed]" in default
    assert "stabilizer_size = 2 [computed]" in default
    assert "orbit_size = 2 [computed]" in default
    configured = run_scenario(parse_scenario(
        NEAR_STATIONARY_SYMMETRY + "tolerances: {stationarity: 1.0e-6}\n")).lines
    assert "automorphism[1].stationary = True [computed]" in configured
    assert "automorphism[1].implementer = present [computed]" in configured
    assert "stabilizer_size = 4 [computed]" in configured
    assert "orbit_size = 1 [computed]" in configured
    assert "orbit_law_exact = True [computed]" in configured


def _workloads():
    """The benchmark's scenario generator, loaded from its file."""
    if "perfbench_workloads" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)   # its dataclasses look it up
        spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules["perfbench_workloads"]


def test_symmetry_runner_builds_each_quantity_once(monkeypatch):
    workloads = _workloads()
    case = workloads.symmetry_case(np.random.default_rng(7), "z160", [2], [2], 160, False)
    scenario = parse_scenario(case.text)
    state, autos = scenario.params["state"], scenario.params["automorphisms"]
    counts = dict.fromkeys(["gns_construct", "pushforwards", "svd in pushforwards",
                            "_validated"], 0)
    inside = []
    svd = np.linalg.svd

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    def counted_svd(*args, **kwargs):
        counts["svd in pushforwards"] += "pushforwards" in inside
        return svd(*args, **kwargs)
    monkeypatch.setattr(scenarios, "gns_construct", counted("gns_construct", gns.gns_construct))
    monkeypatch.setattr(symmetry, "pushforwards", counted("pushforwards", symmetry.pushforwards))
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(State, "_validated", staticmethod(counted("_validated", State._validated)))
    text = run_scenario(scenario).render()
    # all 160 pushforwards and their distances in one call, one stacked SVD for the one
    # M2 block, read by the stationary and implementer lines and the orbit; no
    # pushforward is wrapped in a State and validated again (160 calls and 160 trace
    # norms, one per automorphism, before the stacks)
    assert counts == {"gns_construct": 1, "pushforwards": 1, "svd in pushforwards": 1,
                      "_validated": 0}
    monkeypatch.undo()
    assert workloads.check_report(case, text) == ""
    lines = text.splitlines()
    tol = symmetry.STATIONARY_TOL
    results = symmetry.unitary_implementer(gns.gns_construct(state.algebra, state), autos)
    for k, (rho, result) in enumerate(zip(autos, results)):    # the public functions agree
        assert (f"automorphism[{k}].stationary = {symmetry.stationarity_check(state, rho, tol)} "
                "[computed]") in lines
        assert (f"automorphism[{k}].isometry_defect = {scenarios._fmt(result.isometry_defect)} "
                "[computed]") in lines
    orbit = symmetry.stabilizer_orbit(*symmetry.pushforwards(state, autos), tol)
    assert f"stabilizer_size = {orbit.stabilizer_size} [computed]" in lines
    assert f"orbit_size = {orbit.orbit_size} [computed]" in lines


@pytest.mark.parametrize("blocks, order", [([2], 160), ([4], 40)])
def test_the_longest_symmetry_documents_keep_their_memory_peak(blocks, order):
    # one closure row of 409600 action entries at a time: 9.8 MiB at 160 x M2 and
    # 9.6 MiB at 40 x M4 under tracemalloc; runs of two rows held 19.2 MiB
    case = _workloads().symmetry_case(np.random.default_rng(7), "long", blocks, blocks, order,
                                      False)
    scenario = parse_scenario(case.text)
    tracemalloc.start()
    try:
        text = run_scenario(scenario).render()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _workloads().check_report(case, text) == ""
    assert peak < 11 << 20


SYMMETRY_HEAD = "kind: symmetry\nalgebra: {blocks: [2]}\nstate: {densities: [[[[1, 0], [0, 0]], " \
    "[[0, 0], [0, 0]]]]}\nunitaries:\n"
UNITARY = "  - [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]\n"
NOT_UNITARY = "  - [[[[2, 0], [0, 0]], [[0, 0], [1, 0]]]]\n"
MALFORMED = "  - [[[[1, 0], [0, 0]], [[0, 0]]]]\n"


@pytest.mark.parametrize("entries, path", [
    ([UNITARY, NOT_UNITARY, UNITARY, NOT_UNITARY], "unitaries[1] (line 6)"),
    ([UNITARY, UNITARY, NOT_UNITARY, MALFORMED], "unitaries[2] (line 7)"),
    ([NOT_UNITARY, MALFORMED], "unitaries[0] (line 5)"),
    ([MALFORMED, NOT_UNITARY], "unitaries[0][0] (line 5)"),
])
def test_symmetry_schema_names_the_first_failing_unitary(entries, path):
    # every unitary is judged in one stacked check, and a unitary that fails before a
    # later entry fails to parse is still the one named
    with pytest.raises(ValidationError) as err:
        parse_scenario(SYMMETRY_HEAD + "".join(entries))
    problem = ("rows have inconsistent lengths" if entries[0] is MALFORMED
               else "defining element is not unitary within 1e-12")
    assert str(err.value) == f"{path}: {problem}"


def test_field_commutator_check_past_double_range_fails():
    # x0 = 1e300 makes the phase exp(-i omega x0) invalid: the run's floating-point rule
    # fails the document, where the nan residual once read +0 ... pass, then +nan ... FAIL
    text = DEMO["field"].replace("[0.3, 0.1, -0.2, 0.4]", "[1.0e+300, 0.1, -0.2, 0.4]")
    assert "1.0e+300" in text
    with pytest.raises(NumericalError, match="^FloatingPointError: "):
        run_scenario(parse_scenario(text))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_floating_point_fault_is_a_numerical_failure_of_its_file(jobs, tmp_path, capsys):
    # psi(e) = 1e308 overflows the Hermitian part of the group kernel; its eigensolver
    # ended the whole batch in an uncaught LinAlgError, with no report written
    batch = tmp_path / "batch"
    batch.mkdir()
    group = DEMO["group"].replace("  - [[1, 0], [1, 0], [1, 0]]", "  - [[1e308, 0], [1, 0], [1, 0]]")
    assert "1e308" in group
    (batch / "a_group.yaml").write_text(group)
    (batch / "b_gns.yaml").write_text(DEMO["gns"])
    out = tmp_path / "reports"
    assert main(["run", str(batch), "--jobs", jobs, "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"numerical failure: {batch / 'a_group.yaml'}: NumericalError: "
                           "FloatingPointError: ")
    assert [p.name for p in out.iterdir()] == ["b_gns.report.txt"]


def _resolver_documents():
    workloads = _workloads()
    docs = list(DEMO.values())
    for name in ("gns-mid", "numerics-large", "kinds-small"):
        for seed in (4243, 7, 501):
            docs += [case.text for case in workloads.generate(name, seed)]
    return docs


def _check_tags(loader_cls, text):
    """Every node's tag against PyYAML's own Resolver.resolve with the loader's resolvers."""
    loader = loader_cls(text)
    try:
        node = loader.get_single_node()
    finally:
        loader.dispose()
    stack = [] if node is None else [node]
    while stack:
        item = stack.pop()
        if isinstance(item, yaml.ScalarNode):
            implicit = (not item.style, bool(item.style))    # plain: None, or '' from libyaml
            want = yaml.resolver.BaseResolver.resolve(loader, type(item), item.value, implicit)
            assert item.tag == want, (item.value, item.tag, want)
        elif isinstance(item, yaml.MappingNode):
            assert item.tag == "tag:yaml.org,2002:map"
            stack += [part for pair in item.value for part in pair]
        else:
            assert item.tag == "tag:yaml.org,2002:seq"
            stack += item.value


def test_yaml_loaders_register_no_path_resolver():
    for loader_cls in (scenarios._Loader, scenarios._PyLoader):
        assert not loader_cls.yaml_path_resolvers
        assert yaml.resolver.BaseResolver.yaml_path_resolvers == {}


@pytest.mark.parametrize("loader_cls", ["_Loader", "_PyLoader"])
def test_resolver_table_gives_pyyaml_tags_on_every_node_of_the_workloads(loader_cls):
    for text in _resolver_documents():
        _check_tags(getattr(scenarios, loader_cls), text)


PLAIN = st.one_of(
    st.text(alphabet="0123456789+-._eExXoObB:~", min_size=0, max_size=8),
    st.sampled_from(["yes", "No", "TRUE", "off", "null", "Null", "~", "<<", "=", ".inf",
                     "-.Inf", ".nan", "0x1f", "0o17", "017", "1_000", "1:20", "2001-12-14",
                     "2001-12-14t21:59:43.10-05:00", "1e5", "1.5e-3", "+.5", "._"]),
    st.floats(allow_nan=True).map(repr), st.integers().map(str))


@settings(max_examples=300, deadline=None)
@given(value=PLAIN, plain=st.booleans())
def test_resolver_table_gives_pyyaml_tags_on_any_scalar(value, plain):
    for loader_cls in (scenarios._Loader, scenarios._PyLoader):
        loader = loader_cls("")
        try:
            for kind in (yaml.ScalarNode, yaml.SequenceNode, yaml.MappingNode):
                implicit = (plain, not plain)
                assert (loader.resolve(kind, value, implicit)
                        == yaml.resolver.BaseResolver.resolve(loader, kind, value, implicit))
        finally:
            loader.dispose()


def test_each_density_is_decomposed_once_and_no_pseudo_inverse_is_taken(monkeypatch):
    # a State takes one eigh per density block and keeps it; gns_construct cuts that
    # spectrum, and the transitions and implementers take Theta^+ in closed form
    workloads = _workloads()
    rng = np.random.default_rng(25)
    blocks = [1, 2, 3]
    cases = [(workloads.gns_case(rng, "gns", blocks, [1, 2, 1]), 1),
             (workloads.equiv_case(rng, "equiv", blocks, [0, 2, 2], [0, 2, 2]), 2),
             (workloads.symmetry_case(rng, "symmetry", blocks, [1, 2, 2], 3, True), 1)]
    # a pure pair: the intertwiner reads each support vector off the kept spectrum
    pure = workloads.equiv_case(rng, "equiv", blocks, [0, 0, 1], [0, 0, 1])
    cases.append((pure, 2))
    calls = {"eigh": 0, "eigh in gns_construct": 0, "eigh in pure_unitary_intertwiner": 0,
             "pinv": 0}
    inside = []
    eigh, pinv, construct = np.linalg.eigh, np.linalg.pinv, gns.gns_construct

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if inside and name == "eigh":
                calls[f"eigh in {inside[-1]}"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def flagged(name, fn):
        def wrapper(*args, **kwargs):
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", eigh))
    monkeypatch.setattr(np.linalg, "pinv", counted("pinv", pinv))
    for module in (gns, scenarios):
        monkeypatch.setattr(module, "gns_construct", flagged("gns_construct", construct))
    monkeypatch.setattr(gns, "pure_unitary_intertwiner",
                        flagged("pure_unitary_intertwiner", gns.pure_unitary_intertwiner))
    for case, states in cases:
        calls["eigh"] = 0
        text = run_scenario(parse_scenario(case.text)).render()
        assert workloads.check_report(case, text) == ""
        assert calls == {"eigh": states * len(blocks), "eigh in gns_construct": 0,
                         "eigh in pure_unitary_intertwiner": 0, "pinv": 0}
    assert "pure_unitary_intertwiner = present [computed]" in text.splitlines()


ONE_RULE_PER_VERDICT = {
    # block traces 5e-10 and 2e-9, both above the rank cut: both kernels are empty,
    # where a second kernel rule (block trace <= 1e-9) reported them different
    "equiv.yaml": ("""\
kind: equiv
algebra: {blocks: [2, 1]}
states:
  - densities:
      - [[[0.9999999995, 0], [0, 0]], [[0, 0], [0, 0]]]
      - [[[5.0e-10, 0]]]
  - densities:
      - [[[0.999999998, 0], [0, 0]], [[0, 0], [0, 0]]]
      - [[[2.0e-9, 0]]]
""", ["verdict = equivalent [computed]", "kernel_blocks_first = [] [computed]",
      "kernel_blocks_second = [] [computed]", "carrier_dims = [3, 3] [computed]"]),
    # a rotation by 2e-9 moves diag(0.6, 0.4) by 8e-10 in dual norm, past the
    # stationarity tolerance 1e-10: no implementer, where an isometry test
    # (defect 4e-10 within 1e-9) reported one
    "symmetry.yaml": ("""\
kind: symmetry
algebra: {blocks: [2]}
state:
  densities:
    - [[[0.6, 0], [0, 0]], [[0, 0], [0.4, 0]]]
unitaries:
  - [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]
  - [[[[1, 0], [-2.0e-9, 0]], [[2.0e-9, 0], [1, 0]]]]
""", ["automorphism[1].stationary = False [computed]",
      "automorphism[1].implementer = absent [computed]"]),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_batch_reads_each_gns_verdict_by_one_rule(jobs, tmp_path):
    batch = tmp_path / "batch"
    batch.mkdir()
    for name, (text, _) in ONE_RULE_PER_VERDICT.items():
        (batch / name).write_text(text)
    out_dir = tmp_path / "reports"
    assert main(["run", str(batch), "--jobs", jobs, "--out", str(out_dir)]) == 0
    for name, (_, expected) in ONE_RULE_PER_VERDICT.items():
        lines = (out_dir / name.replace(".yaml", ".report.txt")).read_text().splitlines()
        assert [line for line in expected if line not in lines] == []


def _near_cut_equiv():
    """An M3 equiv document with spectra (1 - 6.7e-11, 6.7e-11, 0) and (0.7, 0.3, 0) in
    random bases: b = Theta_g Theta_f^+ has norm about 1e5, so the residual of the
    transition is about 5e-8, past the default transition tolerance 1e-8."""
    workloads = _workloads()
    rng = np.random.default_rng(3)
    dens = []
    for spectrum in ((1 - 6.7e-11, 6.7e-11, 0.0), (0.7, 0.3, 0.0)):
        q = workloads.unitary(rng, 3)
        rho = (q * np.array(spectrum)[None, :]) @ q.conj().T
        dens.append(0.5 * (rho + rho.conj().T))
    return ("kind: equiv\nalgebra: {blocks: [3]}\nstates:\n"
            + "".join(f"  - densities:\n      - {workloads.cmat(d)}\n" for d in dens))


@pytest.mark.parametrize("setting, args, status", [
    ("tolerances: {transition: 1.0e-6}\n", [], "[tol 1.0e-06 configured, computed] pass"),
    ("", ["--tol", "1e-5"], "[tol 1.0e-05 configured, computed] pass"),
    ("", [], "[tol 1.0e-08 default, computed] FAIL"),
])
def test_transition_certificate_is_judged_by_its_report_line(setting, args, status, tmp_path,
                                                             capsys):
    # equivalence_check returned the residual only after its own raise at 1e-8, so the
    # configured tolerance never applied; the report line is now the one judgment
    text = _near_cut_equiv() + setting
    scenario = parse_scenario(text)
    report = gns.equivalence_check(scenario.params["algebra"], *scenario.params["states"])
    assert report.verdict == "equivalent" and 1e-8 < report.transition_residual < 1e-6
    path = tmp_path / "near_cut.yaml"
    path.write_text(text)
    assert main(["run", str(path), *args]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert "verdict = equivalent [computed]" in lines
    [line] = [line for line in lines if line.startswith("transition_identity_residual = ")]
    assert line == f"transition_identity_residual = {report.transition_residual:+.12e} {status}"


def test_equiv_runner_builds_each_gns_once(monkeypatch):
    workloads = _workloads()
    cases = [case for case in workloads.generate("kinds-small", 4243) if case.kind == "equiv"]
    built = []
    real = gns.gns_construct
    monkeypatch.setattr(gns, "gns_construct", lambda algebra, f: built.append(f) or real(algebra, f))
    pure = 0
    for case in cases:
        scenario = parse_scenario(case.text)
        built.clear()
        text = run_scenario(scenario).render()
        # the pure-state unitary used to build both representations again (4)
        assert built == list(scenario.params["states"])
        assert workloads.check_report(case, text) == ""
        pure += "pure_unitary_intertwiner = present [computed]" in text.splitlines()
    assert pure > 0


def test_field_runner_builds_each_sheet_grid_and_value_once(monkeypatch):
    case = _workloads().field_case(np.random.default_rng(7), "p33", 33, 17, 3)
    scenario = parse_scenario(case.text)
    counts = dict.fromkeys(["_minus_sheet", "_octant_sum", "MassShellGrid"], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    for name in ("_minus_sheet", "_octant_sum"):
        monkeypatch.setattr(fields, name, counted(name, getattr(fields, name)))
    monkeypatch.setattr(fields.MassShellGrid, "__init__",
                        counted("MassShellGrid", fields.MassShellGrid.__init__))
    text = run_scenario(scenario).render()
    # sheets: 3 samples, 1 per consecutive pair (the pair's reverse takes the
    # conjugate), 5 for the Klein-Gordon stencils at h and h/2 (they were 13);
    # octant sums: the Euclidean w(0) once, the Klein-Gordon center once (39)
    # and w at +e only on each axis of the Green identity, w being even (37);
    # the Klein-Gordon center and its 8 neighbours along x1 and x2 start from the
    # center's contractions over x3 (and x2): 8 of the 17 sums contract a full sheet;
    # grids: the runner's and the second mass's (3)
    assert counts == {"_minus_sheet": 10, "_octant_sum": 33, "MassShellGrid": 2}
    monkeypatch.undo()
    assert _workloads().check_report(case, text) == ""


@pytest.mark.parametrize("name", ["z8", "z64", "z512", "s3"])
def test_group_runner_checks_positive_definiteness_once_per_function(monkeypatch, name):
    case = _workloads().group_case(np.random.default_rng(11), name, name, 3)
    scenario = parse_scenario(case.text)
    calls = []
    for owner, attr in ((groups, "pd_kernel"), (np.linalg, "eigh"), (np.linalg, "eigvalsh")):
        real = getattr(owner, attr)
        monkeypatch.setattr(owner, attr, lambda *args, real=real, attr=attr, **kwargs:
                            calls.append(attr) or real(*args, **kwargs))
    text = run_scenario(scenario).render()
    # one kernel psi(g_j^-1 g_i) and one spectrum per function: positivity is decided
    # from the eigh whose spectrum the Gram quotient cuts, not from a second eigvalsh
    assert calls.count("pd_kernel") == 3
    assert calls.count("eigh") == 3
    assert calls.count("eigvalsh") == 0
    assert _workloads().check_report(case, text) == ""


def test_cli_batch_rejects_colliding_report_names(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a.yaml").write_text(MINIMAL_GNS)
    (batch / "a.yml").write_text(DEMO["equiv"])
    out_dir = tmp_path / "reports"
    assert main(["run", str(batch), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "schema error" in err
    assert str(batch / "a.yaml") in err and str(batch / "a.yml") in err
    assert not out_dir.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_batch_names_a_file_that_is_not_utf8(jobs, tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a.yaml").write_text(MINIMAL_GNS)
    (batch / "b.yaml").write_bytes(b"# \xff\n" + MINIMAL_GNS.encode())
    (batch / "c.yaml").write_text(DEMO["equiv"])
    out_dir = tmp_path / "reports"
    assert main(["run", str(batch), "--jobs", jobs, "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"schema error: {batch / 'b.yaml'}: <document>: cannot read the file: "
                            "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte\n")
    assert sorted(p.name for p in out_dir.iterdir()) == ["a.report.txt", "c.report.txt"]
    assert main(["validate", str(batch), "--jobs", jobs]) == 1
    validated = capsys.readouterr()
    assert validated.err == captured.err
    assert validated.out == (f"{batch / 'a.yaml'}: valid scenario of kind gns\n"
                             f"{batch / 'c.yaml'}: valid scenario of kind equiv\n")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("key", ["~", "1.5", "1", "true"])
def test_cli_batch_names_a_file_with_a_field_name_that_is_not_a_string(key, jobs, tmp_path,
                                                                        capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a.yaml").write_text(MINIMAL_GNS)
    (batch / "b.yaml").write_text(f"kind: gns\n{key}: 1\n")
    (name,) = yaml.safe_load(f"{key}: 1")    # None, 1.5, 1 or True
    expected = (f"schema error: {batch / 'b.yaml'}: <root> (line 1): "
                f"field name {name!r} is not a string\n")
    out_dir = tmp_path / "reports"
    assert main(["run", str(batch), "--jobs", jobs, "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == expected
    assert [p.name for p in out_dir.iterdir()] == ["a.report.txt"]
    assert main(["validate", str(batch), "--jobs", jobs]) == 1
    validated = capsys.readouterr()
    assert validated.err == expected
    assert validated.out == f"{batch / 'a.yaml'}: valid scenario of kind gns\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_batch_refuses_a_second_file_writing_the_same_report(jobs, tmp_path, capsys,
                                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    batch = tmp_path / "batch"
    batch.mkdir()
    mixed = MINIMAL_GNS.replace("[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]",
                                "[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]")
    (batch / "a.yaml").write_text(MINIMAL_GNS + "report: same.txt\n")
    (batch / "b.yaml").write_text(mixed + "report: same.txt\n")
    (batch / "c.yaml").write_text("kind: gns\n")
    (batch / "d.yaml").write_text(mixed + "report: out/e.report.txt\n")
    (batch / "e.yaml").write_text(MINIMAL_GNS)
    assert main(["run", "batch", "--jobs", jobs, "--out", "out"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert err[0] == ("schema error: batch/b.yaml: report: batch/a.yaml already writes "
                      f"{tmp_path / 'same.txt'}")
    assert err[1].startswith("schema error: batch/c.yaml: ")
    assert err[2] == ("schema error: batch/e.yaml: report: batch/d.yaml already writes "
                      f"{tmp_path / 'out' / 'e.report.txt'}")
    assert "purity = pure [computed]" in (tmp_path / "same.txt").read_text().splitlines()
    assert "purity = mixed [computed]" in (tmp_path / "out" / "e.report.txt").read_text().splitlines()


@pytest.mark.parametrize("value", ["-1", "0", "nan"])
def test_cli_rejects_non_positive_global_tolerance(value, capsys):
    assert main(["demo", "gns", "--tol", value]) == 1
    captured = capsys.readouterr()
    assert "schema error: --tol:" in captured.err and "positive" in captured.err
    assert captured.out == ""


def test_stabilizer_orbit_uses_one_threshold():
    # X and iY move this state by 4e-9, past the stabilizer threshold 1e-10; a
    # looser distinctness threshold would merge their orbit points and break
    # the orbit law
    text = DEMO["symmetry"].replace(
        "[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]",
        "[[[0.500000001, 0], [0, 0]], [[0, 0], [0.499999999, 0]]]")
    lines = run_scenario(parse_scenario(text)).lines
    assert "stabilizer_size = 2 [computed]" in lines
    assert "orbit_size = 2 [computed]" in lines
    assert "orbit_law_exact = True [computed]" in lines


def _qubit_transition_document(sites):
    vectors = ["[[0.6, 0], [0, 0.8]]", "[[0, 0], [1, 0]]", "[[0.8, 0], [0.6, 0]]"]
    overrides = "".join(f"      - {{site: {s}, vector: {vectors[s % 3]}}}\n"
                        for s in range(1, sites + 1))
    return ("kind: qubit\nconfigs:\n  - default: [[1, 0], [0, 0]]\n"
            "  - default: [[1, 0], [0, 0]]\n    overrides:\n" + overrides)


def test_qubit_transition_on_eight_sites():
    # the transport identity compares all 4^8 entries of the two rank-one marginals
    lines = run_scenario(parse_scenario(_qubit_transition_document(8))).lines
    assert "verdict = convergent [computed]" in lines
    assert "local_transition_support = [1, 2, 3, 4, 5, 6, 7, 8] [computed]" in lines
    residual = [line for line in lines if line.startswith("local_transition_residual")]
    assert len(residual) == 1 and residual[0].endswith("[tol 1.0e-09 default, computed] pass")


def test_qubit_transition_on_nine_sites_writes_its_report(tmp_path):
    # nine sites used to pass the marginal cap of 8: exit 2 and no report
    path = tmp_path / "nine.yaml"
    path.write_text(_qubit_transition_document(9))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "nine.report.txt").read_text().splitlines()
    assert "verdict = convergent [computed]" in lines
    assert "local_transition_support = [1, 2, 3, 4, 5, 6, 7, 8, 9] [computed]" in lines
    residual = [line for line in lines if line.startswith("local_transition_residual")]
    assert len(residual) == 1 and residual[0].endswith("[tol 1.0e-09 default, computed] pass")


def test_qubit_transition_over_the_site_cap_is_refused(tmp_path, capsys):
    # a dense Kronecker b on 14 sites is 2^28 complex entries (4 GiB): the
    # site cap refuses the transition before anything of that size is built
    path = tmp_path / "fourteen.yaml"
    path.write_text(_qubit_transition_document(14))
    tracemalloc.start()
    try:
        code = main(["run", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"numerical failure: {path}: NumericalError: local transition over 14 sites exceeds cap 12")
    assert peak < 16 << 20


def test_symmetry_report_names_the_first_pair_outside_the_list():
    # without sigma_z, sigma_x sigma_y = i sigma_z acts as no listed element
    text = DEMO["symmetry"].replace("  - [[[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]]\n", "")
    lines = run_scenario(parse_scenario(text)).lines
    assert lines[-1] == ("group = not a group: closure fails: product of elements 1 and 2 "
                         "not in list [computed]")
    assert not any(line.startswith(("group_order", "orbit_size")) for line in lines)


def _phase_symmetry_document(order):
    units = "".join(f"  - [[[[1, 0], [0, 0]], [[0, 0], [{math.cos(2 * math.pi * k / order)!r}, "
                    f"{math.sin(2 * math.pi * k / order)!r}]]]]\n" for k in range(order))
    return ("kind: symmetry\nalgebra: {blocks: [2]}\nstate:\n  densities:\n"
            "    - [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]\nunitaries:\n" + units)


def test_symmetry_closure_past_the_limit_is_a_numerical_failure(tmp_path, capsys):
    # 162^3 * 2^4 action entries pass symmetry.CLOSURE_ENTRY_LIMIT = 2^26
    path = tmp_path / "z162.yaml"
    path.write_text(_phase_symmetry_document(162))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"numerical failure: {path}: NumericalError: closure of 162 automorphisms of blocks [2] "
        "compares more than 67108864 action entries\n")
    assert not (tmp_path / "out" / "z162.report.txt").exists()


def test_gns_reconstruction_of_a_complex_density():
    # f(e_ij) = rho[j, i]: a real density cannot tell rho from its transpose
    text = MINIMAL_GNS.replace("[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]",
                               "[[[0.5, 0], [0.2, 0.3]], [[0.2, -0.3], [0.5, 0]]]")
    lines = run_scenario(parse_scenario(text)).lines
    residual = [line for line in lines if line.startswith("reconstruction_residual_max")]
    assert len(residual) == 1 and residual[0].endswith("[tol 1.0e-09 default, computed] pass")
    assert float(residual[0].split(" = ")[1].split()[0]) <= 1e-15


def test_cli_numerical_failure_names_the_scenario_file(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a.yaml").write_text(MINIMAL_GNS)
    (batch / "b.yaml").write_text(
        "kind: field\nfield: {mass: 1.0, second_mass: 1.0000001, cutoff: 6.0, points: 9}\n")
    assert main(["run", str(batch)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: {batch / 'b.yaml'}: OpalgError: mass_witness: ")


def test_cli_schema_error_names_the_scenario_file(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a.yaml").write_text(MINIMAL_GNS)
    (batch / "b.yaml").write_text(MINIMAL_GNS.replace("[[[1, 0], [0, 0]]", "[[[0.5, 0], [0, 0]]"))
    assert main(["run", str(batch), "--jobs", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"schema error: {batch / 'b.yaml'}: state.densities (line 5): ")


def test_cli_demo_reports_identical_across_worker_counts(tmp_path):
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["demo", "all", "--jobs", jobs, "--out", str(out)]) == 0
        reports.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(reports[0]) == len(DEMO)
    assert reports[0] == reports[1]


def test_cli_validate_names_the_rejected_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    vdir = tmp_path / "vdir"
    vdir.mkdir()
    (vdir / "a.yaml").write_text(MINIMAL_GNS)
    (vdir / "b.yaml").write_text(MINIMAL_GNS.replace("[[[1, 0], [0, 0]]", "[[[0.5, 0], [0, 0]]"))
    assert main(["validate", "vdir"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "vdir/a.yaml: valid scenario of kind gns\n"
    assert captured.err.startswith("schema error: vdir/b.yaml: state.densities (line 5): ")


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_cli_output_target_naming_a_file_fails_before_running(flag, tmp_path, capsys, monkeypatch):
    def must_not_run(scenario):
        raise AssertionError("a scenario ran before the output target was checked")

    monkeypatch.setattr("opalg.cli.run_scenario", must_not_run)
    afile = tmp_path / "afile"
    afile.write_text("keep")
    for target in (afile, afile / "sub"):
        assert main(["demo", "gns", flag, str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"schema error: {flag}: {afile} exists and is not a directory\n"
        assert captured.out == ""
    assert afile.read_text() == "keep"


def test_faithful_m16_gns_scenario_stays_small():
    rng = np.random.default_rng(16)
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    rows = ", ".join("[" + ", ".join(f"[{v.real:.17e}, {v.imag:.17e}]" for v in row) + "]" for row in rho)
    scenario = parse_scenario(f"kind: gns\nalgebra: {{blocks: [16]}}\n"
                              f"state: {{densities: [[{rows}]]}}\n")
    tracemalloc.start()
    try:
        lines = run_scenario(scenario).lines
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "commutant_dim = 256 [computed]" in lines and "purity = mixed [computed]" in lines
    assert peak < 4 * 2**20      # the 256 commutant matrices of size 256^2 alone take 256 MB


EQUIVALENT_PAIR = """\
kind: equiv
algebra: {blocks: [2]}
states:
  - densities: [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]
  - densities: [[[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]
"""

LOCAL_QUBIT_PAIR = """\
kind: qubit
configs:
  - default: [[1, 0], [0, 0]]
  - default: [[1, 0], [0, 0]]
    overrides:
      - {site: 2, vector: [[0, 0], [1, 0]]}
"""

SAMPLED_FIELD = """\
kind: field
field:
  mass: 1.0
  points: 9
  sample_points: [[0.3, 0.1, -0.2, 0.4], [-0.1, 0.5, 0.2, -0.3]]
"""

# every tolerance key with the report lines it judges, as in the README table;
# "[k]" stands for any index
TOLERANCE_LINES = {
    "reconstruction": [(MINIMAL_GNS, ["reconstruction_residual_max"]),
                       (LOCAL_QUBIT_PAIR, ["local_transition_residual"]),
                       (DEMO["group"], ["function[k].reconstruction_residual"])],
    "intertwiner": [(EQUIVALENT_PAIR, ["intertwiner_residual"]),
                    (DEMO["symmetry"], ["automorphism[k].intertwining_residual"])],
    "transition": [(EQUIVALENT_PAIR, ["transition_identity_residual"])],
    "commutation": [(DEMO["group"], ["function[k].unitarity_defect"]),
                    (DEMO["ccr"], ["fock_commutator_defect_protected"])],
    "cocycle": [(DEMO["ccr"], ["cocycle_residual_rel"])],
    "moment_relative": [(DEMO["ccr"], ["moment_cross_validation_worst_rel"])],
    "commutator_identity": [(SAMPLED_FIELD, ["commutator_identity_residual"])],
}


@pytest.mark.parametrize("via", ["scenario", "--tol"])
@pytest.mark.parametrize("key", [k for k in DEFAULT_TOLERANCES if k != "stationarity"])
def test_configured_tolerance_reaches_every_line_it_judges(key, via, tmp_path, capsys):
    for text, names in TOLERANCE_LINES[key]:
        path = tmp_path / "s.yaml"
        if via == "scenario":
            path.write_text(text + f"tolerances: {{{key}: 3.0e-07}}\n")
            assert main(["run", str(path)]) == 0
        else:
            path.write_text(text)
            assert main(["run", str(path), "--tol", "3.0e-07"]) == 0
        lines = capsys.readouterr().out.splitlines()
        patterns = [re.escape(name).replace(r"\[k\]", r"\[\d+\]") + " = " for name in names]
        judged = [line for line in lines if any(re.match(p, line) for p in patterns)]
        assert len(judged) >= len(names)
        assert all("[tol 3.0e-07 configured, computed]" in line for line in judged)
        if via == "scenario":   # and no line of another key
            assert sum("configured, computed]" in line for line in lines) == len(judged)


def test_cyclic_group_above_the_order_limit_is_rejected_before_building():
    text = "kind: group\ngroup: {name: z100000}\nfunctions:\n  - [[1, 0]]\n"
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (f"group.name (line 2): built-in group 'z100000' is larger than "
                              f"the order limit {groups.ORDER_LIMIT}")
    assert peak < 1 << 20
    # the limit itself is accepted: the document fails on its function length instead
    with pytest.raises(ValidationError) as err:
        parse_scenario(text.replace("z100000", f"z{groups.ORDER_LIMIT}"))
    assert f"expected {groups.ORDER_LIMIT} values" in str(err.value)


@pytest.mark.parametrize("name, message", [
    ("z\u00b2", "unknown built-in group 'z\u00b2' (zN for N >= 1, s3)"),   # a digit to isdigit only
    ("z" + "7" * 5000, "built-in group 'z7777777777"),       # past int()'s 4300-digit limit
], ids=["superscript-digit", "5000-digits"])
def test_group_name_that_is_no_ascii_number_is_a_schema_error(tmp_path, capsys, name, message):
    path = tmp_path / "g.yaml"
    path.write_text(f'kind: group\ngroup: {{name: "{name}"}}\nfunctions:\n  - [[1, 0]]\n')
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"schema error: {path}: group.name (line 2): {message}")
    if len(name) > 10:
        assert err.endswith(f"is larger than the order limit {groups.ORDER_LIMIT}\n")


def test_nested_aliases_end_in_the_schema_error_with_bounded_memory():
    # six levels of ten aliases each: a record of every path through them would
    # be a million entries and hundreds of MB; each aliased node is built once
    # and the line of the failing path is looked up alone
    lines = ["kind: gns", "x0: &a0 [" + ", ".join(["0"] * 10) + "]"]
    lines += [f"x{d}: &a{d} [" + ", ".join([f"*a{d - 1}"] * 10) + "]" for d in range(1, 6)]
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as err:
            parse_scenario("\n".join(lines) + "\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (str(err.value), err.value.line) == ("x0 (line 2): unknown field 'x0'", 2)
    assert peak < 2**20


def test_self_referencing_anchor_is_a_schema_error_on_its_value():
    # the list holds itself; the walk builds it once and the line lookup follows one path
    with pytest.raises(ValidationError) as err:
        parse_scenario("kind: gns\nalgebra: &a [*a]\n")
    assert (str(err.value), err.value.line) == ("algebra (line 2): expected a mapping, got list", 2)


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("body", [
    "[" * 1200 + "]" * 1200,                          # libyaml, then the construction walk and _descend overflow
    "{<<: " * 1200 + "{a: 1}" + "}" * 1200,           # libyaml, then the constructor overflows
    "[" * 1200 + "]" * 1200 + "  # \u00e9",          # the pure-Python composer overflows
], ids=["construction-walk", "constructor", "python-composer"])
def test_deeply_nested_document_is_a_schema_error(tmp_path, capsys, command, body):
    path = tmp_path / "deep.yaml"
    path.write_text(f"kind: gns\nalgebra: {body}\nstate: {{densities: []}}\n")
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err == (
        f"schema error: {path}: <document>: document nested too deeply to read\n")


@pytest.mark.parametrize("text", [
    "algebra: " + "[" * 40000 + "]" * 40000 + "\n",
    "algebra: " + "[" * 100000 + "]" * 100000 + "\n",
    "algebra: " + "[" * 100000 + "\n",                  # never closed: not well-formed either
    "- " * 100000 + "x\n",                             # compact block sequences
], ids=["40000", "100000", "100000-unclosed", "100000-compact"])
def test_nesting_past_the_stack_of_libyaml_is_a_schema_error(tmp_path, text):
    # libyaml's recursive composer crashed the process here (exit 139), so
    # the CLI runs in a child rather than in the test process
    path = tmp_path / "deep.yaml"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(scenarios.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "opalg.cli", "validate", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"schema error: {path}: <document>: document nested too deeply to read\n"


def test_cli_equal_states_split_at_the_rank_cut(tmp_path, capsys):
    # states 8e-13 apart whose rank vectors are (2, 1) and (1, 2): one state,
    # so the identity is certified on the first state's representation
    path = tmp_path / "split.yaml"
    path.write_text(
        "kind: equiv\nalgebra: {blocks: [2, 2]}\nstates:\n"
        "  - densities:\n"
        "      - [[[0.5, 0], [0, 0]], [[0, 0], [4.4e-12, 0]]]\n"
        "      - [[[0.5, 0], [0, 0]], [[0, 0], [3.6e-12, 0]]]\n"
        "  - densities:\n"
        "      - [[[0.5, 0], [0, 0]], [[0, 0], [3.6e-12, 0]]]\n"
        "      - [[[0.5, 0], [0, 0]], [[0, 0], [4.4e-12, 0]]]\n")
    assert main(["run", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "verdict = equal [computed]" in lines
    assert ("intertwiner_residual = +0.000000000000e+00 [tol 1.0e-08 default, computed] pass"
            in lines)


def test_cli_equal_states_with_different_carrier_dimensions(tmp_path, capsys):
    # states 8e-13 apart whose rank cut gives carrier dimensions 6 and 4 are one state
    path = tmp_path / "dims.yaml"
    path.write_text(
        "kind: equiv\nalgebra: {blocks: [2, 2]}\nstates:\n"
        "  - densities:\n"
        "      - [[[0.5, 0], [0, 0]], [[0, 0], [4.4e-12, 0]]]\n"
        "      - [[[0.5, 0], [0, 0]], [[0, 0], [0, 0]]]\n"
        "  - densities:\n"
        "      - [[[0.5, 0], [0, 0]], [[0, 0], [3.6e-12, 0]]]\n"
        "      - [[[0.5, 0], [0, 0]], [[0, 0], [0, 0]]]\n")
    assert main(["run", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "verdict = equal [computed]" in lines
    assert "carrier_dims = [6, 4] [computed]" in lines
    assert not any(line.startswith("note = ") for line in lines)
    assert ("intertwiner_residual = +0.000000000000e+00 [tol 1.0e-08 default, computed] pass"
            in lines)


def test_cli_report_into_a_missing_directory_is_created(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a.yaml").write_text(MINIMAL_GNS)
    (batch / "b.yaml").write_text(MINIMAL_GNS + "report: nodir/x.txt\n")
    (batch / "c.yaml").write_text(DEMO["equiv"])
    assert main(["run", str(batch), "--out", "reports"]) == 0
    assert "carrier_dim = 2" in (tmp_path / "nodir" / "x.txt").read_text()
    assert sorted(p.name for p in (tmp_path / "reports").iterdir()) == ["a.report.txt",
                                                                        "c.report.txt"]


def test_cli_report_under_a_file_fails_before_that_scenario_runs(tmp_path, capsys, monkeypatch):
    afile = tmp_path / "afile"
    afile.write_text("keep")
    real_run = scenarios.run_scenario

    def guarded_run(scenario):
        if scenario.report_path and scenario.report_path.startswith(str(afile)):
            raise AssertionError("the scenario ran before its report target was checked")
        return real_run(scenario)

    monkeypatch.setattr("opalg.cli.run_scenario", guarded_run)
    bad = tmp_path / "bad.yaml"
    for target in (afile / "x.txt", afile / "sub" / "x.txt"):
        bad.write_text(MINIMAL_GNS + f"report: {target}\n")
        assert main(["run", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == f"schema error: {bad}: report: {afile} exists and is not a directory\n"
    bad.write_text(MINIMAL_GNS + f"report: {tmp_path}\n")
    assert main(["run", str(bad)]) == 1
    assert capsys.readouterr().err == f"schema error: {bad}: report: {tmp_path} is a directory\n"
    assert afile.read_text() == "keep"


def test_cli_unreadable_character_is_a_schema_error_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(MINIMAL_GNS.replace("kind: gns", "kind: gns\x07"))
    assert main(["run", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(
        f"schema error: {bad}: <document>: not well-formed YAML: unacceptable character #x0007")


def _mixed_batch(tmp_path):
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a.yaml").write_text(MINIMAL_GNS)
    (batch / "b.yaml").write_text("kind: gns\n")
    (batch / "c.yaml").write_text(
        "kind: field\nfield: {mass: 1.0, second_mass: 1.0000001, cutoff: 6.0, points: 9}\n")
    (batch / "d.yaml").write_text(DEMO["equiv"])
    return batch


def test_cli_batch_writes_every_success_and_names_every_failure(tmp_path, capsys):
    batch = _mixed_batch(tmp_path)
    seen = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", str(batch), "--out", str(out), "--jobs", jobs]) == 2
        to_files = capsys.readouterr()
        assert to_files.out == ""
        reports = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert sorted(reports) == ["a.report.txt", "d.report.txt"]
        assert main(["run", str(batch), "--jobs", jobs]) == 2
        printed = capsys.readouterr()
        assert printed.err == to_files.err
        lines = printed.err.splitlines(keepends=True)
        assert len(lines) == 2
        assert lines[0] == (f"schema error: {batch / 'b.yaml'}: algebra: "
                            "expected a mapping, got NoneType\n")
        assert lines[1].startswith(f"numerical failure: {batch / 'c.yaml'}: OpalgError: "
                                   "mass_witness: ")
        assert printed.out == "".join(f"== {name.split('.')[0]}\n{text.decode()}"
                                      for name, text in reports.items())
        seen.append((reports, printed.out, printed.err))
    assert seen[0] == seen[1]


def test_cli_validate_reports_every_file_of_a_batch(tmp_path, capsys):
    batch = _mixed_batch(tmp_path)
    for jobs in ("1", "2"):
        assert main(["validate", str(batch), "--jobs", jobs]) == 1
        captured = capsys.readouterr()
        assert captured.out == "".join(f"{batch / name}.yaml: valid scenario of kind {kind}\n"
                                       for name, kind in (("a", "gns"), ("c", "field"),
                                                          ("d", "equiv")))
        assert captured.err == (f"schema error: {batch / 'b.yaml'}: algebra: "
                                "expected a mapping, got NoneType\n")


@pytest.mark.parametrize("field, octant", [
    ("{mass: 1.0, points: 257}", "257 points per axis give a 3-d octant of 2146689"),
    ("{mass: 1.0, points: 9, euclidean: {points: 77}}",
     "77 points per axis give a 4-d octant of 2313441"),
    ("{mass: 1.0, points: 100001}", "100001 points per axis give a 3-d octant of 125007500150001"),
])
def test_field_grid_past_the_octant_limit_is_refused_before_allocation(field, octant, tmp_path,
                                                                        capsys):
    # points: 801 used to end in a numpy _ArrayMemoryError traceback (492 MiB), exit 1
    path = tmp_path / "grid.yaml"
    path.write_text(f"kind: field\nfield: {field}\n")
    tracemalloc.start()
    try:
        code = main(["run", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (f"numerical failure: {path}: NumericalError: {octant} "
                                       f"points, over the limit {1 << 21}\n")
    assert peak < 4 << 20


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_batch_names_an_integer_literal_past_double_range(jobs, tmp_path, capsys):
    # float() of a 401-digit integer raises OverflowError, which used to end
    # the batch with a traceback and lose the valid file's report
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a.yaml").write_text(MINIMAL_GNS)
    (batch / "b.yaml").write_text("kind: field\nfield:\n  mass: " + "9" * 401 + "\n")
    # past 4300 digits the YAML constructor's int() itself refuses the literal
    (batch / "c.yaml").write_text("kind: field\nfield:\n  mass: " + "9" * 5000 + "\n")
    out_dir = tmp_path / "reports"
    assert main(["run", str(batch), "--jobs", jobs, "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        f"schema error: {batch / 'b.yaml'}: field.mass (line 3): "
        "numeric literals must be finite\n"
        f"schema error: {batch / 'c.yaml'}: <document> (line 3): "
        "integer literal has too many digits to read\n")
    assert sorted(p.name for p in out_dir.iterdir()) == ["a.report.txt"]


FIELD_OUT_OF_BOUNDS = {
    # the second shell outside the cutoff: a ValueError from the witness at run
    # time, while validate called the file valid
    "second-mass": ("field: {mass: 1.0, second_mass: 2.0, cutoff: 1.5, points: 17}\n",
                    "field.second_mass (line 2): both mass shells of the witness must lie "
                    "inside the cutoff 1.5"),
    "euclidean-cutoff-zero": ("field:\n  mass: 1.0\n  euclidean: {cutoff: 0}\n",
                              "field.euclidean.cutoff (line 4): cutoff must be positive"),
    "negative-cutoff": ("field:\n  mass: 1.0\n  cutoff: -6.0\n",
                        "field.cutoff (line 4): cutoff must be positive"),
    "huge-cutoff": ("field:\n  mass: 1.0\n  cutoff: 1e300\n",
                    "field.cutoff (line 4): cutoff 1e+300 over 33 points per axis gives a "
                    "lattice cell (spacing^3) outside the normal doubles"),
    "tiny-euclidean-cutoff": ("field:\n  mass: 1.0\n  euclidean: {cutoff: 1e-300}\n",
                              "field.euclidean.cutoff (line 4): cutoff 1e-300 over 9 points per "
                              "axis gives a lattice cell (spacing^4) outside the normal doubles"),
    "huge-mass": ("field:\n  mass: 1e300\n  cutoff: 6.0\n",
                  "field.mass (line 3): mass 1e+300 has a square outside the normal doubles"),
    "huge-default-cutoff": ("field:\n  mass: 1e150\n",
                            "field (line 3): cutoff 6e+150 over 33 points per axis gives a "
                            "lattice cell (spacing^3) outside the normal doubles"),
    "first-mass-outside": ("field: {mass: 3.0, second_mass: 1.0, cutoff: 2.0}\n",
                           "field.mass (line 2): both mass shells of the witness must lie "
                           "inside the cutoff 2"),
    # the witness weight beta = log(1e10) / (2 gap^2): a ZeroDivisionError when gap^2
    # underflows, and beta = 0 with +nan shell values when it overflows
    "gap-underflow": ("field: {mass: 1.0e-103, second_mass: 4.0e-103, cutoff: 4.8e-102, "
                      "points: 33}\n",
                      "field.second_mass (line 2): squared-mass gap -1.5e-205 gives a witness "
                      "weight beta = log(1e10) / (2 gap^2) outside the normal doubles"),
    "gap-overflow": ("field: {mass: 1.0e103, second_mass: 2.0e103, cutoff: 5.0e103, "
                     "points: 33}\n",
                     "field.second_mass (line 2): squared-mass gap -3e+206 gives a witness "
                     "weight beta = log(1e10) / (2 gap^2) outside the normal doubles"),
    # shell weights mu spacing^3 / omega past double range: equal_time_pauli_jordan
    # = +nan and klein_gordon_refinement_ratio = +inf, each a FAIL, with numpy
    # RuntimeWarnings, exit 0; 8 spacing^3 overflows in the first, the division
    # by omega ~ mass in the second
    "weight-overflow": ("field: {mass: 1.0e103, cutoff: 5.0e103, points: 33}\n",
                        "field (line 2): mass 1e+103 and cutoff 5e+103 over 33 points per "
                        "axis give shell weights (largest inf) that underflow or whose octant "
                        "sum can overflow"),
    "weight-over-mass": ("field: {mass: 1.0e-150, cutoff: 1.0e100, points: 33}\n",
                         "field (line 2): mass 1e-150 and cutoff 1e+100 over 33 points per "
                         "axis give shell weights (largest inf) that underflow or whose "
                         "octant sum can overflow"),
    # 8 spacing^3 / omega = 8 * 2.44e-307 / 1e20 rounds to 0: every weight vanishes,
    # and the run printed klein_gordon_refinement_ratio = +inf ... FAIL, exit 0
    "weight-underflow": ("field: {mass: 1.0e20, cutoff: 1.0e-101, points: 33}\n",
                         "field (line 2): mass 1e+20 and cutoff 1e-101 over 33 points per "
                         "axis give shell weights (largest 0) that underflow or whose octant "
                         "sum can overflow"),
    # m^2 D and second differences of D over h^2 past double range: each printed
    # klein_gordon_residual_h = +inf and klein_gordon_refinement_ratio = +nan ... FAIL,
    # exit 0, with no warning
    "klein-gordon-mass": ("field: {mass: 1.0e100, points: 33}\n",
                          "field (line 2): mass 1e+100 and cutoff 6e+100 over 33 points per "
                          "axis give Klein-Gordon terms (m^2 + 16 / h^2) D that can overflow"),
    "klein-gordon-cutoff": ("field: {mass: 1.0e50, cutoff: 1.0e101, points: 33}\n",
                            "field (line 2): mass 1e+50 and cutoff 1e+101 over 33 points per "
                            "axis give Klein-Gordon terms (m^2 + 16 / h^2) D that can overflow"),
    # 2 cutoff / (points - 1) raised OverflowError: int too large to convert to float
    "points-past-double-range": ("field: {mass: 1.0, cutoff: 1.0e4, points: 1" + "0" * 399
                                 + "1}\n", "field.points (line 2): points must lie in double "
                                 "range"),
    "euclidean-points-past-double-range": ("field: {mass: 1.0, euclidean: {points: 1" + "0" * 399
                                           + "1}}\n", "field.euclidean.points (line 2): points "
                                           "must lie in double range"),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", sorted(FIELD_OUT_OF_BOUNDS))
def test_cli_batch_names_a_field_outside_the_grid_bounds(case, jobs, tmp_path, capsys):
    # each ended in a traceback (ValueError, ZeroDivisionError, OverflowError)
    # that lost the whole batch, or ran a grid of negative spacing
    body, message = FIELD_OUT_OF_BOUNDS[case]
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a.yaml").write_text(MINIMAL_GNS)
    (batch / "b.yaml").write_text("kind: field\n" + body)
    (batch / "c.yaml").write_text(DEMO["field"])
    expected = f"schema error: {batch / 'b.yaml'}: {message}\n"
    out_dir = tmp_path / "reports"
    assert main(["run", str(batch), "--jobs", jobs, "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == expected
    assert sorted(p.name for p in out_dir.iterdir()) == ["a.report.txt", "c.report.txt"]
    assert main(["validate", str(batch), "--jobs", jobs]) == 1
    assert capsys.readouterr().err == expected


def test_ccr_moments_past_double_range_are_a_schema_error(tmp_path, capsys):
    # the demo with its first vector scaled to 1e150 printed
    # moment_cross_validation_worst_rel = +1.446e-11 ... pass, while its moments
    # table held wick = oracle = +inf and relative_residual = +nan at 0x0x0x0
    path = tmp_path / "big.yaml"
    path.write_text(DEMO["ccr"].replace("- [1, 0]", "- [1.0e150, 0]"))
    assert main(["run", str(path), "--csv", str(tmp_path / "csv")]) == 1
    assert capsys.readouterr().err == (
        f"schema error: {path}: moments.vectors (line 8): vectors of K^-1-image norm up to "
        "7.07e+149 give moments up to order 4 that can leave double range\n")
    # an image norm of 1e75 keeps 3 |q|^4 = 3e300 finite: every row of the table is
    # finite, so the worst_rel line that reads pass reads a finite value
    path.write_text(DEMO["ccr"].replace("- [1, 0]", "- [1.0e75, 0]"))
    assert main(["run", str(path), "--csv", str(tmp_path / "csv")]) == 0
    worst = next(line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("moment_cross_validation_worst_rel = "))
    assert worst.endswith(" pass") and math.isfinite(float(worst.split()[2]))
    header, *rows = (tmp_path / "csv" / "big.moments.csv").read_text().splitlines()
    assert header == "multi_index,wick,oracle,relative_residual"
    assert "0x0x0x0" in [row.split(",")[0] for row in rows]
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")[1:])


def test_field_with_equal_masses_outside_the_cutoff_still_runs():
    # equal masses need no witness sum, so the cutoff does not bound them
    report = run_scenario(parse_scenario(
        "kind: field\nfield: {mass: 3.0, second_mass: 3.0, cutoff: 2.0, points: 9}\n"))
    assert "mass_witness_verdict = equivalent-by-construction [computed]" in report.lines


def test_cli_imports_the_thread_pool_only_for_parallel_jobs(tmp_path):
    # concurrent.futures costs every start a few ms; one worker never needs it
    script = ("import sys\nfrom opalg.cli import main\n"
              "main(['demo', 'gns', '--out', sys.argv[1]])\n"
              "print('concurrent.futures' in sys.modules)\n"
              "main(['demo', 'all', '--jobs', '2', '--out', sys.argv[1]])\n"
              "print('concurrent.futures' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(scenarios.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\nTrue\n", "")


def _group_table_document(table):
    return f"kind: group\ngroup:\n  table: {table}\nfunctions:\n  - [[1, 0], [1, 0]]\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_batch_reads_group_table_entries_as_element_indices(jobs, tmp_path, capsys):
    # entries used to be read as floats and truncated: [[0, 1.5], [1.9, 0]]
    # ran as Z2, and 1e300 printed a numpy RuntimeWarning
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a.yaml").write_text(_group_table_document("[[0, 1], [1, 0]]"))
    (batch / "b.yaml").write_text(_group_table_document("[[0, 1.5], [1.9, 0]]"))
    (batch / "c.yaml").write_text(_group_table_document("[[0, 1], [1e300, 0]]"))
    (batch / "d.yaml").write_text(_group_table_document("[[0, 1], [2, 0]]"))
    out_dir = tmp_path / "reports"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(batch), "--jobs", jobs, "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        f"schema error: {batch / 'b.yaml'}: group.table[0][1] (line 3): "
        "expected an integer, got float\n"
        f"schema error: {batch / 'c.yaml'}: group.table[1][0] (line 3): "
        "expected an integer, got float\n"
        f"schema error: {batch / 'd.yaml'}: group.table[1][0] (line 3): "
        "expected an element index below 2, got 2\n")
    assert sorted(p.name for p in out_dir.iterdir()) == ["a.report.txt"]
    assert "group_order = 2 [configured]" in (out_dir / "a.report.txt").read_text()


def _moments_document(count):
    vectors = "".join(f"    - [{1 + k % 3}, {k / 4}]\n" for k in range(count))
    return ("kind: ccr\nspace:\n  gram: [[1, 0], [0, 1]]\n  k: [[2, 0], [0, 1]]\n"
            "moments:\n  max_order: 6\n  vectors:\n" + vectors)


def test_ccr_moment_table_past_the_row_limit_is_refused_before_any_moment(tmp_path, capsys,
                                                                         monkeypatch):
    # 16 vectors to order 6 give 58276 multi-indices (21 s and 330 MiB to run)
    def must_not_run(*args, **kwargs):
        raise AssertionError("a moment was computed")

    monkeypatch.setattr("opalg.ccr.wick_moment", must_not_run)
    monkeypatch.setattr("opalg.ccr.moment_oracle", must_not_run)
    path = tmp_path / "v16.yaml"
    path.write_text(_moments_document(16))
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"schema error: {path}: moments.vectors (line 8): 16 vectors give a moment table of "
        f"58276 rows up to order 6, over the limit {scenarios.MOMENT_ROW_LIMIT}\n")


def test_ccr_largest_moment_table_under_the_row_limit_still_runs():
    # nine vectors: C(10, 2) + C(12, 4) + C(14, 6) = 3543 rows; ten give 5775
    assert math.comb(10, 2) + math.comb(12, 4) + math.comb(14, 6) <= scenarios.MOMENT_ROW_LIMIT
    assert math.comb(11, 2) + math.comb(13, 4) + math.comb(15, 6) > scenarios.MOMENT_ROW_LIMIT
    report = run_scenario(parse_scenario(_moments_document(9)))
    assert len(report.tables["moments"][1]) == 3543
    (line,) = [line for line in report.lines if line.startswith("moment_cross_validation")]
    assert line.endswith(" pass")


def _dense(mat):
    return "[" + ", ".join("[" + ", ".join(f"[{v.real:.17e}, {v.imag:.17e}]" for v in row) + "]"
                           for row in np.asarray(mat, dtype=complex)) + "]"


def test_symmetry_closure_row_past_the_limit_is_a_numerical_failure(tmp_path, capsys):
    # one automorphism of a faithful M90 state: 90^4 entries in one closure row
    rho = np.diag(np.arange(1, 91) / 4095.0)
    u = np.diag(np.exp(0.1j * np.arange(90)))
    path = tmp_path / "m90.yaml"
    path.write_text(f"kind: symmetry\nalgebra: {{blocks: [90]}}\nstate:\n  densities:\n"
                    f"    - {_dense(rho)}\nunitaries:\n  - [{_dense(u)}]\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"numerical failure: {path}: NumericalError: closure of 1 automorphisms of blocks [90] "
        "holds 65610000 action entries per row, more than 1048576\n")
    assert not (tmp_path / "out" / "m90.report.txt").exists()


def test_group_representation_past_the_entry_limit_is_a_numerical_failure(tmp_path, capsys):
    # delta_e on z512 has full rank: 512^3 = 2^27 matrix entries (2 GiB)
    path = tmp_path / "z512.yaml"
    path.write_text("kind: group\ngroup: {name: z512}\nfunctions:\n  - [[1, 0]"
                    + ", [0, 0]" * 511 + "]\n")
    tracemalloc.start()
    try:
        code = main(["run", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (
        f"numerical failure: {path}: NumericalError: representation of order 512 and rank 512 "
        f"holds 134217728 matrix entries, over the limit {groups.REP_ENTRY_LIMIT}\n")
    assert peak < 32 << 20
