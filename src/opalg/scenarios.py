"""Scenario documents: schema validation, dispatch, and deterministic reports.

One YAML document describes one analysis (kind: gns | equiv | qubit | group |
ccr | field | symmetry); ``KINDS`` holds one ``Kind`` record for each.
Complex numbers are [re, im] pairs, matrices are row-major lists of rows.
Reports are rendered with fixed formatting so that identical input bytes
produce identical output bytes; every numeric line names the tolerance it was
judged against and whether that tolerance was a default or configured.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np
import yaml

from . import ccr as ccr_mod
from . import fields as fields_mod
from . import groups as groups_mod
from . import qubits as qubits_mod
from . import symmetry as symmetry_mod
from .algebra import StarAlgebra, State, dual_norm_distance, stack_blocks, unitarity_failures
from .errors import InvalidStateError, NumericalError, OpalgError, ValidationError
from .gns import TRANSITION_TOL, equivalence_check, gns_construct

DEFAULT_TOLERANCES = {
    "reconstruction": 1e-9,
    "intertwiner": 1e-8,
    "transition": TRANSITION_TOL,
    "commutation": 1e-12,
    "cocycle": 1e-10,
    "moment_relative": 1e-6,
    "commutator_identity": 1e-10,
    "stationarity": symmetry_mod.STATIONARY_TOL,
}
# largest ccr moment table: sum over even m <= max_order of C(v + m - 1, m)
# multi-indices of v vectors.  Nine vectors to order 6 give 3543 rows (about
# 1.4 s and 20 MiB); sixteen give 58276 (21 s and 330 MiB)
MOMENT_ROW_LIMIT = 4096
# the steps h of the field runner's Klein-Gordon residuals, coarse then fine
KLEIN_GORDON_STEPS = (0.08, 0.04)


# ---------------------------------------------------------------------------
# parsing


class _Resolve:
    """PyYAML's ``Resolver.resolve`` without path resolvers (none is registered, so the
    composer's path hooks are skipped): a plain scalar's implicit resolvers come from
    ``_first``, a table by first character built once from the registered ones."""

    def descend_resolver(self, *args):    # no path resolver to follow
        pass
    ascend_resolver = descend_resolver

    def resolve(self, kind, value, implicit):
        if kind is yaml.ScalarNode:
            if implicit[0]:
                for tag, regexp in self._first.get(value[:1], self._wildcard):
                    if regexp.match(value):
                        return tag
            return _STR
        return _SEQ if kind is yaml.SequenceNode else _MAP


class _UniqueKeys:
    """PyYAML's mapping construction, with a key of the mapping's own that constructs equal
    to an earlier one refused as a schema error on its line.  Keys merged in with '<<' may
    still be overridden, by later merges and by the mapping's own keys, as YAML has it."""

    def construct_mapping(self, node, deep=False):
        own = isinstance(node, yaml.MappingNode) and [k for k, _ in node.value if k.tag != _MERGE]
        mapping = super().construct_mapping(node, deep)    # raises for any other node
        seen = set()
        for key_node in own:
            key = self.constructed_objects[key_node]
            if key in seen:
                raise ValidationError(f"repeated field {key!r}", line=key_node.start_mark.line + 1)
            seen.add(key)
        return mapping


class _Loader(_Resolve, _UniqueKeys,
              yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """Safe loader that also reads YAML 1.2 floats such as ``1e-05`` as numbers.

    It parses with libyaml when PyYAML was built with it.  The YAML 1.1 float
    pattern needs a dot and a signed exponent; the extra pattern covers
    exponents without either.  Plain integers still resolve to int, which is
    tried first.
    """


class _PyLoader(_Resolve, _UniqueKeys, yaml.SafeLoader):
    """The pure-Python parser with the same resolver; its errors quote the source."""


def _construct_int(loader, node):
    """An integer, or a schema error on its line past the digits int() reads (4300)."""
    try:
        return loader.construct_yaml_int(node)
    except ValueError:
        raise ValidationError("integer literal has too many digits to read",
                              line=node.start_mark.line + 1) from None


_FLOAT, _INT, _STR, _SEQ, _MAP, _MERGE = (f"tag:yaml.org,2002:{name}" for name in
                                          ("float", "int", "str", "seq", "map", "merge"))
_CORE_SCALARS = frozenset(f"tag:yaml.org,2002:{name}"
                          for name in ("null", "bool", "int", "float", "str"))

for _cls in (_Loader, _PyLoader):
    _cls.add_implicit_resolver(_FLOAT, re.compile(
        r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"), list("-+0123456789."))
    _cls.add_constructor(_INT, _construct_int)
    assert not _cls.yaml_path_resolvers, "_Resolve ignores path resolvers"
    _cls._wildcard = tuple(_cls.yaml_implicit_resolvers.get(None, ()))
    _cls._first = {first: tuple(resolvers) + _cls._wildcard
                   for first, resolvers in _cls.yaml_implicit_resolvers.items() if first is not None}

# Text on which libyaml and the pure-Python parser may disagree is read by the
# pure-Python parser alone.  libyaml accepts tabs as separators, '?' and '!'
# inside plain scalars and a BOM within the stream, so any character outside
# printable ASCII without '!' and '?' (newline aside) counts; and it marks an
# empty flow value on the line of the ',', '}' or ']' after it, not of its ':'.
_PY_ONLY_CHAR = re.compile(r"[^\n \"->@-~]")
_EMPTY_FLOW_VALUE = re.compile(r":[ ]*(?:#[^\n]*)?\n(?:[ ]*(?:#[^\n]*)?\n)*[ ]*[,}\]]")

# libyaml's composer recurses in C per nesting level and overflows the C stack
# (a crash, not an exception) a few tens of thousands of levels deep; deeper
# documents are refused from the parse events first, which need no recursion.
MAX_NESTING = 10_000


def _descend(node):
    """Recurse once per nesting level of ``node``, a node or a list read whole, so a tree
    too deep for the limit raises RecursionError."""
    if type(node) is not list:    # a node: its children (a scalar has none)
        node = ([value for _, value in node.value] if isinstance(node, yaml.MappingNode)
                else node.value if isinstance(node, yaml.SequenceNode) else ())
    for child in node:
        if type(child) is not float:    # a float read whole ends its branch
            _descend(child)


def _build(node, loader, built, foreign, flows=None):
    """The data of a node of the core schema; ``built`` holds each collection built
    so far, ``foreign`` gathers the nodes outside it, ``flows`` the unmet placeholders."""
    cls, tag = type(node), node.tag
    if cls is yaml.ScalarNode:
        value = node.value
        if tag == _FLOAT:
            try:    # every resolved float text float() reads gives construct_yaml_float's value
                return float(value)
            except ValueError:
                pass
        elif tag == _STR:
            if flows and value in flows:    # a placeholder, kept on the node for _line
                value = node.value = flows.pop(value)
                _descend(value)    # as deep as _descend of the nodes it stands for
            return value
        elif tag == _INT and value.isdigit() and (value[0] != "0" or value == "0"):
            try:    # decimal without sign or octal prefix, within int()'s digits
                return int(value)
            except ValueError:
                pass
        if tag in _CORE_SCALARS:
            try:
                return loader.yaml_constructors[tag](loader, node)
            except ValidationError:
                pass
        foreign.append(node)
        return None
    if node in built:
        return built[node]
    if cls is yaml.SequenceNode and tag == _SEQ:
        data = built[node] = []    # before the items, so a node inside itself is itself
        for item in node.value:
            data.append(_build(item, loader, built, foreign, flows))
    elif cls is yaml.MappingNode and tag == _MAP:
        data = built[node] = {}
        for key_node, value_node in node.value:
            if type(key_node) is yaml.ScalarNode:    # a placeholder key stays unmet
                key = _build(key_node, loader, built, foreign)
                if key in data:    # repeated: the constructor refuses it
                    foreign.append(key_node)
            else:
                foreign.append(key_node)
                key = None
            data[key] = _build(value_node, loader, built, foreign, flows)
    else:
        foreign.append(node)
        data = None
    return data


def _compose(loader_cls, text: str, flows=None):
    """The data of ``text`` and its root node; (None, None) for an empty document.

    The core schema is built by ``_build`` from the node tree in one walk, one
    Python frame per nesting level.  Each collection is built once, however
    many aliases lead to it.  A document with anything else (a tag written
    out, a timestamp, a merge or value key, a key that is no scalar or that
    repeats one of its mapping, an integer past int()'s digits) goes whole to
    PyYAML's ``construct_document``, so its data and first error are PyYAML's
    with ``_UniqueKeys``.  PyYAML builds nested sequences and mappings without
    recursion, so when the walk overflows (a scalar read through a constructor
    takes a few frames below its level) PyYAML builds the data, its error
    winning, and ``_descend`` refuses what is too deep.  With ``flows`` from
    ``_flows``, None unless each placeholder is one whole scalar value.
    """
    loader = loader_cls(text)
    try:
        node = loader.get_single_node()
        if node is None:
            return None, None
        if "!" in text:    # a tag can only be written out with a '!'
            return loader.construct_document(node), node
        foreign = []
        try:
            data = _build(node, loader, {}, foreign, flows)
        except RecursionError:
            if flows is not None:
                return None
            data = loader.construct_document(node)
            _descend(node)
            return data, node
        if flows is not None and (flows or foreign):
            return None
        if foreign:
            data = loader.construct_document(node)
        return data, node
    except RecursionError:
        # the pure-Python composer, _descend, and PyYAML's constructor through
        # merge keys all recurse per level
        raise ValidationError("document nested too deeply to read") from None
    finally:
        loader.dispose()


def _check_nesting(text: str):
    depth = 0
    try:
        for event in yaml.parse(text, Loader=_Loader):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > MAX_NESTING:
                    raise ValidationError("document nested too deeply to read")
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
    except yaml.YAMLError:
        pass  # malformed within the limit: the loaders below report it


# In a text of _FLOW_TEXT without _FLOW, each one-line flow sequence of JSON numbers (the
# same int or float here) after ': ' or '- ' and before a line end, ',', ']' or '}' is read
# by the C JSON decoder, and libyaml reads the rest with a plain scalar _FLOW<k> in its place.
_FLOW = "__flow"
_FLOW_TEXT = re.compile(r"[-+._,:\[\]{} \nA-Za-z0-9]*")
_FLOW_STARTS = (re.compile(r": \["), re.compile(r"- \["))    # literals: found fastest one by one
_FLOW_SPAN = re.compile(r"[-+.eE0-9, \[\]]*")
_decode = json.JSONDecoder().raw_decode


def _flows(text: str):
    """``text`` with a placeholder for each numeric flow sequence, and their lists, or None."""
    if not _FLOW_TEXT.fullmatch(text) or _FLOW in text:
        return None
    parts, flows, end = [], {}, 0
    starts = sorted(match.start() + 2 for start in _FLOW_STARTS for match in start.finditer(text))
    for start, limit in zip(starts, starts[1:] + [len(text)]):
        piece = text[start:limit]    # no span holds ': ' or '- '; a decode error scans only this
        try:
            value, stop = _decode(piece)
        except (ValueError, RecursionError):    # ValueError: also past int()'s 4300 digits
            continue
        if (stop == len(piece) or piece[stop] in ",]}\n") and _FLOW_SPAN.fullmatch(piece, 0, stop):
            placeholder = f"{_FLOW}{len(flows)}"
            flows[placeholder] = value
            parts += (text[end:start], placeholder)
            end = start + stop
    return "".join(parts) + text[end:], flows


def _load(text: str):
    """(data, root node) of a scenario document; malformed text is a ValidationError."""
    if len(text) > MAX_NESTING:   # every level takes at least one character
        _check_nesting(text)
    flows = _flows(text)    # None outside its subset, which has no character of _PY_ONLY_CHAR
    if not ((flows is None and _PY_ONLY_CHAR.search(text)) or _EMPTY_FLOW_VALUE.search(text)):
        for args in (flows, (text,)):    # the numbers read whole first, if they can be
            try:
                read = args and _compose(_Loader, *args)
            except yaml.YAMLError:
                continue    # libyaml's messages omit the source snippet: re-parse for the error
            if read is not None:
                return read
    try:
        return _compose(_PyLoader, text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        raise ValidationError(f"not well-formed YAML: {exc}", line=line) from exc


def _line(node, path):
    """The 1-based line of the node at ``path`` below ``node``, or None.

    Mapping steps follow the string key of that text: one of the mapping's own
    keys, or the last where keys merged in with '<<' are overridden.  Sequence
    steps are indices.
    """
    for step in path:
        if isinstance(node, yaml.MappingNode):
            node = next((value for key, value in reversed(node.value)
                         if key.tag == _STR and key.value == step), None)
        elif isinstance(node.value, list) and isinstance(step, int) and 0 <= step < len(node.value):
            node = (yaml.ScalarNode(_STR, node.value[step], node.start_mark)    # in a flow
                    if isinstance(node, yaml.ScalarNode) else node.value[step])  # sequence's line
        else:
            return None
        if node is None:
            return None
    return node.start_mark.line + 1


def _path_str(path) -> str:
    out = []
    for part in path:
        if isinstance(part, int):
            out.append(f"[{part}]")
        else:
            out.append(("." if out else "") + part)
    return "".join(out) or "<root>"


class _Walker:
    """Schema helpers; the source line of a path is looked up when a check fails."""

    def __init__(self, root):
        self.root = root

    def fail(self, path, message):
        line = None if self.root is None else _line(self.root, path)
        raise ValidationError(message, path=_path_str(path), line=line)

    def mapping(self, obj, path, required=(), optional=()):
        if not isinstance(obj, dict):
            self.fail(path, f"expected a mapping, got {type(obj).__name__}")
        allowed = set(required) | set(optional)
        for key in obj:
            if not isinstance(key, str):    # null, bool, integer or float keys
                self.fail(path, f"field name {key!r} is not a string")
            if key not in allowed:
                self.fail(path + (key,), f"unknown field {key!r}")
        for key in required:
            if key not in obj:
                self.fail(path, f"missing required field {key!r}")
        return obj

    def sequence(self, obj, path, min_len=0):
        if not isinstance(obj, list):
            self.fail(path, f"expected a list, got {type(obj).__name__}")
        if len(obj) < min_len:
            self.fail(path, f"expected at least {min_len} entries, got {len(obj)}")
        return obj

    def number(self, obj, path):
        if isinstance(obj, bool) or not isinstance(obj, (int, float)):
            self.fail(path, f"expected a number, got {type(obj).__name__}")
        try:
            value = float(obj)
        except OverflowError:    # an integer literal past double range
            value = float("inf")
        if not math.isfinite(value):
            self.fail(path, "numeric literals must be finite")
        return value

    def integer(self, obj, path, minimum=None):
        if isinstance(obj, bool) or not isinstance(obj, int):
            self.fail(path, f"expected an integer, got {type(obj).__name__}")
        if minimum is not None and obj < minimum:
            self.fail(path, f"expected an integer >= {minimum}, got {obj}")
        return int(obj)

    def complex_scalar(self, obj, path):
        pair = self.sequence(obj, path, min_len=2)
        if len(pair) != 2:
            self.fail(path, "complex numbers are [re, im] pairs")
        return complex(self.number(pair[0], path + (0,)), self.number(pair[1], path + (1,)))

    def _floats(self, obj, ndim, entry):
        """``obj`` as an array in one step, or None to read it entry by entry.

        Only ``number`` and ``complex_scalar`` entries qualify, and only when
        ``obj`` nests lists ``ndim`` deep (then [re, im] pairs), each level of
        one length, down to finite floats; the entries then read as this array.
        """
        pairs = entry == self.complex_scalar
        if not (pairs or entry == self.number):
            return None
        level = [obj]
        for _ in range(ndim + pairs):
            if set(map(type, level)) != {list}:
                return None
            level = list(itertools.chain.from_iterable(level))
        # a finite sum has finite terms; a sum that overflows only sends finite
        # entries to the entry-by-entry read
        if set(map(type, level)) != {float} or not math.isfinite(sum(level)):
            return None
        try:
            values = np.array(obj, dtype=float)
        except ValueError:    # ragged
            return None
        if not pairs:
            return values
        return values.view(complex)[..., 0] if values.shape[-1] == 2 else None

    def vector(self, obj, path, entry):
        """A non-empty list, each entry read by ``entry`` (``number`` or ``complex_scalar``)."""
        values = self._floats(obj, 1, entry)
        if values is not None:
            return values
        seq = self.sequence(obj, path, min_len=1)
        return np.array([entry(v, path + (k,)) for k, v in enumerate(seq)])

    def matrix(self, obj, path, entry):
        values = self._floats(obj, 2, entry)
        if values is not None:
            return values
        rows = self.sequence(obj, path, min_len=1)
        data = [self.vector(r, path + (k,), entry) for k, r in enumerate(rows)]
        if len({len(r) for r in data}) != 1:
            self.fail(path, "rows have inconsistent lengths")
        return np.stack(data)


@dataclass(frozen=True)
class Kind:
    """One scenario kind: its top-level fields, parser, runner and demo document."""

    keys: tuple
    parse: Callable     # (walker, top-level mapping) -> params
    run: Callable       # (scenario, report) -> None, adds the report lines
    demo: str


@dataclass
class Scenario:
    kind: str
    params: dict
    tolerances: Dict[str, float] = field(default_factory=dict)
    report_path: Optional[str] = None


def parse_scenario(text: str) -> Scenario:
    """Validate a scenario document; raises ValidationError with field/line info."""
    data, root = _load(text)
    w = _Walker(root)
    top = w.mapping(data, (), required=("kind",),
                    optional=("tolerances", "report", *_ALL_PARAM_KEYS))
    kind = top["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        w.fail(("kind",), f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    tolerances = {}
    if "tolerances" in top:
        tmap = w.mapping(top["tolerances"], ("tolerances",), optional=tuple(DEFAULT_TOLERANCES))
        for key, value in tmap.items():
            tolerances[key] = w.number(value, ("tolerances", key))
            if tolerances[key] <= 0:
                w.fail(("tolerances", key), f"tolerances must be positive, got {tolerances[key]}")
    for key in top:
        if key in _ALL_PARAM_KEYS and key not in KINDS[kind].keys:
            w.fail((key,), f"field {key!r} does not belong to kind {kind!r}")
    params = KINDS[kind].parse(w, top)
    report_path = top.get("report")
    if report_path is not None and not isinstance(report_path, str):
        w.fail(("report",), "report target must be a path string")
    return Scenario(kind=kind, params=params, tolerances=tolerances, report_path=report_path)


def _parse_algebra(w, obj, path):
    spec = w.mapping(obj, path, required=("blocks",))
    blocks = w.sequence(spec["blocks"], path + ("blocks",), min_len=1)
    dims = [w.integer(b, path + ("blocks", k), minimum=1) for k, b in enumerate(blocks)]
    return StarAlgebra(dims)


def _parse_state(w, obj, path, algebra):
    spec = w.mapping(obj, path, required=("densities",))
    rows = w.sequence(spec["densities"], path + ("densities",), min_len=1)
    if len(rows) != len(algebra.blocks):
        w.fail(path + ("densities",),
               f"expected {len(algebra.blocks)} density blocks, got {len(rows)}")
    dens = [w.matrix(r, path + ("densities", k), w.complex_scalar) for k, r in enumerate(rows)]
    try:
        return State(algebra, dens)
    except OpalgError as exc:
        w.fail(path + ("densities",), str(exc))


def _parse_gns(w, top):
    algebra = _parse_algebra(w, top.get("algebra"), ("algebra",))
    state = _parse_state(w, top.get("state"), ("state",), algebra)
    return {"algebra": algebra, "state": state}


def _parse_equiv(w, top):
    algebra = _parse_algebra(w, top.get("algebra"), ("algebra",))
    states = w.sequence(top.get("states"), ("states",), min_len=2)
    if len(states) != 2:
        w.fail(("states",), "equivalence scenarios compare exactly two states")
    return {"algebra": algebra,
            "states": [_parse_state(w, s, ("states", k), algebra) for k, s in enumerate(states)]}


def _parse_qubit_config(w, obj, path):
    spec = w.mapping(obj, path, optional=("default", "overrides", "tail"))
    default = np.array([1.0, 0.0], dtype=complex)
    if "default" in spec:
        default = w.vector(spec["default"], path + ("default",), w.complex_scalar)
        if default.shape != (2,):
            w.fail(path + ("default",), "qubit vectors live in C^2")
    overrides = {}
    for k, entry in enumerate(w.sequence(spec.get("overrides", []), path + ("overrides",))):
        e = w.mapping(entry, path + ("overrides", k), required=("site", "vector"))
        site = w.integer(e["site"], path + ("overrides", k, "site"), minimum=1)
        vec = w.vector(e["vector"], path + ("overrides", k, "vector"), w.complex_scalar)
        overrides[site] = vec
    tail = None
    if spec.get("tail") is not None:
        t = w.mapping(spec["tail"], path + ("tail",), required=("c", "p"))
        c = w.number(t["c"], path + ("tail", "c"))
        p = w.number(t["p"], path + ("tail", "p"))
        try:
            tail = qubits_mod.PowerTail(c, p)
        except ValueError as exc:
            w.fail(path + ("tail", "p"), str(exc))
    try:
        return qubits_mod.QubitConfig(default, overrides, tail)
    except (ValueError, OpalgError) as exc:
        w.fail(path, str(exc))


def _parse_qubit(w, top):
    configs = w.sequence(top.get("configs"), ("configs",), min_len=2)
    if len(configs) != 2:
        w.fail(("configs",), "qubit scenarios compare exactly two configurations")
    return {"configs": [_parse_qubit_config(w, c, ("configs", k)) for k, c in enumerate(configs)]}


def _parse_group(w, top):
    spec = w.mapping(top.get("group"), ("group",), optional=("name", "table"))
    if ("name" in spec) == ("table" in spec):
        w.fail(("group",), "give exactly one of 'name' or 'table'")
    if "name" in spec:
        name = str(spec["name"])
        match = re.fullmatch(r"z0*([0-9]*)", name)
        digits = match.group(1) if match else ""
        # count the digits before int(), which refuses strings of more than 4300
        too_long = len(digits) > len(str(groups_mod.ORDER_LIMIT))
        if too_long or int(digits or 0) > groups_mod.ORDER_LIMIT:
            w.fail(("group", "name"), f"built-in group {name!r} is larger than the "
                   f"order limit {groups_mod.ORDER_LIMIT}")
        if digits:
            group = groups_mod.cyclic_group(int(digits))
        elif name == "s3":
            group = groups_mod.symmetric_group(3)
        else:
            w.fail(("group", "name"), f"unknown built-in group {name!r} (zN for N >= 1, s3)")
    else:
        rows = w.sequence(spec["table"], ("group", "table"), min_len=1)

        def element(obj, path):
            index = w.integer(obj, path, minimum=0)
            if index >= len(rows):
                w.fail(path, f"expected an element index below {len(rows)}, got {index}")
            return index
        table = w.matrix(rows, ("group", "table"), element)
        try:
            group = groups_mod.FiniteGroup(table)
        except ValueError as exc:
            w.fail(("group", "table"), str(exc))
    functions = []
    for k, fn in enumerate(w.sequence(top.get("functions"), ("functions",), min_len=1)):
        vals = w.vector(fn, ("functions", k), w.complex_scalar)
        if vals.shape != (group.order,):
            w.fail(("functions", k),
                   f"expected {group.order} values (one per group element), got {vals.shape[0]}")
        functions.append(vals)
    return {"group": group, "functions": functions}


def _parse_ccr(w, top):
    spec = w.mapping(top.get("space"), ("space",), required=("gram", "k"))
    gram = w.matrix(spec["gram"], ("space", "gram"), w.number)
    k_op = w.matrix(spec["k"], ("space", "k"), w.number)
    try:
        space = ccr_mod.CcrSpace(gram, k_op)
    except (ValueError, OpalgError) as exc:
        w.fail(("space",), str(exc))
    params = {"space": space}
    if "moments" in top:
        m = w.mapping(top["moments"], ("moments",), required=("vectors",), optional=("max_order",))
        vectors = [
            w.vector(v, ("moments", "vectors", k), w.number)
            for k, v in enumerate(w.sequence(m["vectors"], ("moments", "vectors"), min_len=1))
        ]
        for k, v in enumerate(vectors):
            if v.shape != (space.n,):
                w.fail(("moments", "vectors", k), f"vector dimension {v.shape[0]} != {space.n}")
        order = w.integer(m.get("max_order", 4), ("moments", "max_order"), minimum=2)
        if order > 6:
            w.fail(("moments", "max_order"), "moment cross-validation is limited to order 6")
        rows = sum(math.comb(len(vectors) + k - 1, k) for k in range(2, order + 1, 2))
        if rows > MOMENT_ROW_LIMIT:
            w.fail(("moments", "vectors"), f"{len(vectors)} vectors give a moment table of "
                   f"{rows} rows up to order {order}, over the limit {MOMENT_ROW_LIMIT}")
        with np.errstate(over="ignore", invalid="ignore"):    # (m-1)!! |K^-1 q|^m bounds order m
            norm = np.sqrt(np.max(np.einsum("ki,ij,kj->k", vectors, space.covariance, vectors)))
            largest = max(math.prod(range(m - 1, 0, -2)) * norm**m for m in range(2, order + 1, 2))
        if not np.isfinite(largest):
            w.fail(("moments", "vectors"), f"vectors of K^-1-image norm up to {norm:.3g} give "
                   f"moments up to order {order} that can leave double range")
        params["moments"] = {"vectors": vectors, "max_order": order}
    if "fock" in top:
        fspec = w.mapping(top["fock"], ("fock",), optional=("max_occupation",))
        params["fock"] = w.integer(fspec.get("max_occupation", 8), ("fock", "max_occupation"),
                                   minimum=1)
    if "eigenvalue_model" in top:
        espec = w.mapping(top["eigenvalue_model"], ("eigenvalue_model",),
                          required=("kind",), optional=("value", "amplitude", "exponent", "values"))
        ekind = espec["kind"]
        if ekind == "constant":
            model = ccr_mod.ConstantEigenvalues(
                w.number(espec.get("value", 2.0), ("eigenvalue_model", "value")))
        elif ekind == "power":
            model = ccr_mod.PowerTailEigenvalues(
                w.number(espec.get("amplitude", 1.0), ("eigenvalue_model", "amplitude")),
                w.number(espec.get("exponent", 2.0), ("eigenvalue_model", "exponent")))
        elif ekind == "finite":
            values = w.vector(espec.get("values", [2.0]), ("eigenvalue_model", "values"), w.number)
            model = ccr_mod.FiniteEigenvalues(tuple(values.tolist()))
        else:
            w.fail(("eigenvalue_model", "kind"), f"unknown eigenvalue model {ekind!r}")
        params["eigenvalue_model"] = model
    return params


def _normal_power(x: float, power: int) -> bool:
    """Whether x**power and its reciprocal are both normal doubles (x > 0)."""
    try:
        value = x**power
    except OverflowError:
        return False
    return sys.float_info.min <= value <= 1.0 / sys.float_info.min


def _parse_mass(w, obj, path):
    mass = w.number(obj, path)
    if mass <= 0:
        w.fail(path, "mass must be positive")
    if not _normal_power(mass, 2):    # the shell and propagator weights take m^2
        w.fail(path, f"mass {mass:g} has a square outside the normal doubles")
    return mass


def _check_cutoff(w, spec, path, cutoff, points, power):
    """A lattice of ``points`` per axis up to ``cutoff`` weights its sums with the cell
    spacing**``power``; the cell and its reciprocal must be normal doubles, and
    ``points`` must lie in double range before the spacing divides by it.  A default
    cutoff is blamed on the mapping at ``path``."""
    if points > sys.float_info.max:
        w.fail(path + ("points",), "points must lie in double range")
    where = path + ("cutoff",) if "cutoff" in spec else path
    if cutoff <= 0:
        w.fail(where, "cutoff must be positive")
    if not _normal_power(2.0 * cutoff / (points - 1), power):
        w.fail(where, f"cutoff {cutoff:g} over {points} points per axis gives a lattice "
               f"cell (spacing^{power}) outside the normal doubles")


def _parse_field(w, top):
    spec = w.mapping(top.get("field"), ("field",),
                     required=("mass",),
                     optional=("second_mass", "cutoff", "points", "sample_points", "euclidean"))
    mass = _parse_mass(w, spec["mass"], ("field", "mass"))
    cutoff = w.number(spec.get("cutoff", 6.0 * mass), ("field", "cutoff"))
    points = w.integer(spec.get("points", 33), ("field", "points"), minimum=3)
    if points % 2 == 0:
        w.fail(("field", "points"), "points must be odd (grid symmetric about 0)")
    _check_cutoff(w, spec, ("field",), cutoff, points, 3)
    spacing = 2.0 * cutoff / (points - 1)
    samples = []
    for k, pt in enumerate(w.sequence(spec.get("sample_points", []), ("field", "sample_points"))):
        vec = w.vector(pt, ("field", "sample_points", k), w.number)
        if vec.shape != (4,):
            w.fail(("field", "sample_points", k), "spacetime points are 4-vectors")
        samples.append(vec)
    params = {
        "mass": mass,
        "second_mass": None,
        "cutoff": cutoff,
        "points": points,
        "samples": samples,
    }
    if "second_mass" in spec:
        second = _parse_mass(w, spec["second_mass"], ("field", "second_mass"))
        # the witness sums both shells on one grid; equal masses need no sum
        if second != mass and max(mass, second) >= cutoff:
            w.fail(("field", "second_mass" if second >= cutoff else "mass"),
                   f"both mass shells of the witness must lie inside the cutoff {cutoff:g}")
        # resolved masses (a tenth of the spacing apart) weigh the witness by
        # beta = log(1e10) / (2 gap^2), gap = m^2 - m'^2: gap^2 and beta must be normal
        gap, lo, hi = mass**2 - second**2, sys.float_info.min, sys.float_info.max
        if abs(mass - second) >= spacing / 10.0 and not (
                lo <= gap * gap <= hi and lo <= math.log(1e10) / (2.0 * gap * gap) <= hi):
            w.fail(("field", "second_mass"), f"squared-mass gap {gap:g} gives a witness "
                   "weight beta = log(1e10) / (2 gap^2) outside the normal doubles")
        params["second_mass"] = second
    # each multiplicity mu = 2^d weighs most (mu spacing^3 / omega) nearest the origin;
    # it must be normal (0 or inf when mu spacing^3 / omega leaves double range)
    largest = max(2**d * spacing**3 / math.sqrt(d * spacing**2 + mass**2) for d in range(4))
    if not (sys.float_info.min <= largest and math.log(largest) + 3 * math.log(points // 2 + 1)
            <= math.log(sys.float_info.max)):
        w.fail(("field",), f"mass {mass:g} and cutoff {cutoff:g} over {points} points per axis "
               f"give shell weights (largest {largest:g}) that underflow or whose octant sum "
               "can overflow")
    # the Klein-Gordon residual adds m^2 D to four second differences of values of D over
    # h^2, and |D| is at most the octant sum: at most (m^2 + 16 / h^2) times it
    scale = math.log(mass**2 + 16.0 / min(KLEIN_GORDON_STEPS)**2)
    if math.log(largest) + 3 * math.log(points // 2 + 1) + scale > math.log(sys.float_info.max):
        w.fail(("field",), f"mass {mass:g} and cutoff {cutoff:g} over {points} points per axis "
               "give Klein-Gordon terms (m^2 + 16 / h^2) D that can overflow")
    if "euclidean" in spec:
        espec = w.mapping(spec["euclidean"], ("field", "euclidean"),
                          optional=("cutoff", "points"))
        epoints = w.integer(espec.get("points", 9), ("field", "euclidean", "points"), minimum=3)
        if epoints % 2 == 0:
            w.fail(("field", "euclidean", "points"), "points must be odd")
        ecutoff = w.number(espec.get("cutoff", 6.0), ("field", "euclidean", "cutoff"))
        _check_cutoff(w, espec, ("field", "euclidean"), ecutoff, epoints, 4)
        params["euclidean"] = {"cutoff": ecutoff, "points": epoints}
    return params


def _parse_element(w, obj, path, algebra):
    rows = w.sequence(obj, path, min_len=1)
    if len(rows) != len(algebra.blocks):
        w.fail(path, f"expected {len(algebra.blocks)} blocks, got {len(rows)}")
    mats = [w.matrix(r, path + (k,), w.complex_scalar) for k, r in enumerate(rows)]
    try:
        return algebra.element(mats)
    except OpalgError as exc:
        w.fail(path, str(exc))


def _parse_symmetry(w, top):
    algebra = _parse_algebra(w, top.get("algebra"), ("algebra",))
    state = _parse_state(w, top.get("state"), ("state",), algebra)
    elements = []
    try:    # one stacked unitarity check, run too when a later entry fails, which it precedes
        for k, u in enumerate(w.sequence(top.get("unitaries"), ("unitaries",), min_len=1)):
            elements.append(_parse_element(w, u, ("unitaries", k), algebra))
    finally:
        failed = np.flatnonzero(unitarity_failures(stack_blocks(elements))) if elements else ()
        if len(failed):
            w.fail(("unitaries", int(failed[0])), symmetry_mod.NOT_UNITARY)
    unitaries = [symmetry_mod.InnerAutomorphism(e, checked=True) for e in elements]
    multipliers = top.get("report_multipliers", False)
    if not isinstance(multipliers, bool):
        w.fail(("report_multipliers",), "expected a boolean")
    return {"algebra": algebra, "state": state, "automorphisms": unitaries,
            "report_multipliers": multipliers}


# ---------------------------------------------------------------------------
# reports


def _fmt(value) -> str:
    if isinstance(value, complex):
        return f"{value.real:+.12e}{value.imag:+.12e}j"
    if isinstance(value, float):
        return f"{value:+.12e}"
    return str(value)


class Report:
    """Ordered lines plus named CSV tables; rendering is byte-deterministic."""

    def __init__(self, kind: str):
        self.kind = kind
        self.lines = [f"scenario kind = {kind}"]
        self.tables: Dict[str, tuple] = {}

    def info(self, key, value, provenance="computed"):
        self.lines.append(f"{key} = {_fmt(value)} [{provenance}]")

    def check(self, key, value, tol, tol_source, passed=None):
        if passed is None:
            passed = abs(value) <= tol
        status = "pass" if passed else "FAIL"
        self.lines.append(
            f"{key} = {_fmt(value)} [tol {tol:.1e} {tol_source}, computed] {status}"
        )
        return passed

    def matrix(self, key, mat):
        """Emit a matrix in the scenario numeric format: rows of [re, im] pairs."""
        mat = np.asarray(mat, dtype=complex)
        self.lines.append(f"{key} = [matrix {mat.shape[0]}x{mat.shape[1]}] [computed]")
        for row in mat.tolist():    # Python complex formats as numpy's, and faster
            cells = ", ".join(f"[{v.real:+.12e}, {v.imag:+.12e}]" for v in row)
            self.lines.append(f"  [{cells}]")

    def table(self, name, header, rows):
        self.tables[name] = (header, rows)

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"

    def render_csv(self, name) -> str:
        header, rows = self.tables[name]
        buf = io.StringIO()
        buf.write(",".join(header) + "\n")
        for row in rows:
            buf.write(",".join(_fmt(v) if isinstance(v, (float, complex)) else str(v)
                               for v in row) + "\n")
        return buf.getvalue()


def _tol(scenario, key):
    if key in scenario.tolerances:
        return scenario.tolerances[key], "configured"
    return DEFAULT_TOLERANCES[key], "default"


# ---------------------------------------------------------------------------
# runners


def _run_gns(scenario: Scenario, report: Report):
    algebra = scenario.params["algebra"]
    state = scenario.params["state"]
    rep = gns_construct(algebra, state)
    report.info("algebra blocks", list(algebra.blocks), "configured")
    report.info("carrier_dim", rep.carrier_dim)
    report.info("gram_rank", rep.gram_rank)
    # f(e_ij) = rho[j, i]: the transposed densities in matrix-unit order
    expected = np.concatenate([d.T.reshape(-1) for d in state.densities])
    worst = float(np.max(np.abs(rep.vector_state_values() - expected)))
    tol, src = _tol(scenario, "reconstruction")
    report.check("reconstruction_residual_max", worst, tol, src)
    report.info("commutant_dim", rep.commutant_dim)
    report.info("purity", "pure" if rep.pure else "mixed")
    report.info("kernel_block_indices", list(rep.vanished_blocks))


def _run_equiv(scenario: Scenario, report: Report):
    algebra = scenario.params["algebra"]
    f, g = scenario.params["states"]
    result = equivalence_check(algebra, f, g)
    report.info("algebra blocks", list(algebra.blocks), "configured")
    report.info("verdict", result.verdict)
    report.info("kernel_blocks_first", list(result.kernel_first))
    report.info("kernel_blocks_second", list(result.kernel_second))
    report.info("carrier_dims", list(result.carrier_dims))
    report.info("dual_norm_distance", dual_norm_distance(f, g))
    if result.note:
        report.info("note", result.note)
    if result.intertwiner_residual is not None:
        tol, src = _tol(scenario, "intertwiner")
        report.check("intertwiner_residual", result.intertwiner_residual, tol, src)
    if result.equivalent and result.carrier_dims[0] <= 8:
        report.matrix("intertwiner", result.intertwiner)
    if result.transition_residual is not None:
        tol, src = _tol(scenario, "transition")
        report.check("transition_identity_residual", result.transition_residual, tol, src)
    report.info("pure_unitary_intertwiner", "present" if result.unitary is not None else "absent")
    if result.unitary is not None:
        for idx, block in enumerate(result.unitary.mats):
            report.matrix(f"unitary_block[{idx}]", block)


def _run_qubit(scenario: Scenario, report: Report):
    first, second = scenario.params["configs"]
    verdict = qubits_mod.equivalence_verdict(first, second)
    report.info("verdict", verdict.verdict)
    report.info("justification", verdict.justification)
    report.info("partial_sum_window", qubits_mod.PARTIAL_SUM_WINDOW, "configured")
    report.info("partial_sum", qubits_mod.partial_sum(first, second))
    transition = qubits_mod.local_transition_element(first, second)
    if transition is None:
        report.info("local_transition", "absent (infinite difference support)")
        return
    report.info("local_transition_support", list(transition.sites))
    if transition.sites:
        worst = qubits_mod.transition_residual(first, second, transition)
        tol, src = _tol(scenario, "reconstruction")
        report.check("local_transition_residual", worst, tol, src)


def _run_group(scenario: Scenario, report: Report):
    group = scenario.params["group"]
    functions = scenario.params["functions"]
    report.info("group_order", group.order, "configured")
    reps = []
    for k, psi in enumerate(functions):
        try:
            rep = groups_mod.gns_from_group_function(group, psi)
        except InvalidStateError:    # not positive-definite
            rep = None
        reps.append(rep)
        report.info(f"function[{k}].positive_definite", rep is not None)
        if rep is None:
            continue
        report.info(f"function[{k}].carrier_dim", rep.carrier_dim)
        worst = float(np.max(np.abs(rep.reconstruction() - psi)))
        tol, src = _tol(scenario, "reconstruction")
        report.check(f"function[{k}].reconstruction_residual", worst, tol, src)
        tol, src = _tol(scenario, "commutation")
        report.check(f"function[{k}].unitarity_defect", rep.unitarity_defect(), tol, src)
    if len(functions) >= 2 and reps[0] is not None and reps[1] is not None:
        orth = groups_mod.orthogonality_check(reps[0], reps[1])
        report.info("orthogonality_inner_sum", orth.inner_sum)
        report.info("orthogonality_convolution_max", orth.convolution_max)


def _run_ccr(scenario: Scenario, report: Report):
    space = scenario.params["space"]
    report.info("dimension", space.n, "configured")
    report.info("k_condition_number", space.k_condition_number)
    if "moments" in scenario.params:
        vectors = scenario.params["moments"]["vectors"]
        order = scenario.params["moments"]["max_order"]
        tol, src = _tol(scenario, "moment_relative")
        rows = []
        for m in range(2, order + 1, 2):
            combos = list(itertools.combinations_with_replacement(range(len(vectors)), m))
            index = np.array(combos, dtype=np.intp)
            wick = ccr_mod.wick_moment(space, vectors, index).tolist()
            oracle = ccr_mod.moment_oracle(space, vectors, index).tolist()
            for combo, wv, ov in zip(combos, wick, oracle):
                rel = abs(wv - ov) / max(abs(wv), 1e-300)
                rows.append(("x".join(str(i) for i in combo), wv, ov, rel))
        report.table("moments", ("multi_index", "wick", "oracle", "relative_residual"), rows)
        # np.max keeps the nan of a non-finite row, which max() would drop: the check FAILs
        worst = float(np.max([row[3] for row in rows], initial=0.0))
        report.check("moment_cross_validation_worst_rel", worst, tol, src)
    # 100 triples (q, q', u), drawn in that order
    q, qp, u = np.random.default_rng(2024).normal(size=(100, 3, space.n)).transpose(1, 0, 2)
    # |a(q+q',u) - a(q,u) a(q',u+u_q)| / |a(q+q',u)| = |expm1(gap)| for the gap
    # of the exponents, so every sample is judged where the factors themselves
    # would leave double range.  From |K| near 1e9 a rounding gap can pass
    # log(max double) and read inf, and near 1e154 the exponents themselves
    # overflow and the gap reads nan; both FAIL.
    with np.errstate(over="ignore", invalid="ignore"):
        gap = (ccr_mod.quasi_invariance_exponent(space, q, u)
               + ccr_mod.quasi_invariance_exponent(space, qp, u + space.gram_image(q))
               - ccr_mod.quasi_invariance_exponent(space, q + qp, u))
        worst = float(np.max(np.abs(np.expm1(gap))))
    tol, src = _tol(scenario, "cocycle")
    report.check("cocycle_residual_rel", worst, tol, src)
    if "fock" in scenario.params:
        fock = ccr_mod.build_fock_operators(space, scenario.params["fock"])
        report.info("fock_basis_size", fock.dim)
        q, qp = np.eye(space.n)[[0, -1]]
        tol, src = _tol(scenario, "commutation")
        report.check("fock_commutator_defect_protected", fock.commutator_defect(q, qp), tol, src)
        annil = float(np.max(np.abs(fock.a_minus_action(np.eye(space.n), fock.vacuum()))))
        report.check("vacuum_annihilation", annil, 0.0, "default", passed=(annil == 0.0))
    if "eigenvalue_model" in scenario.params:
        verdict = ccr_mod.gaussian_equivalence_verdict(scenario.params["eigenvalue_model"])
        report.info("gaussian_equivalence_series", verdict.verdict)
        label = {"convergent": "equivalent-to-Fock", "divergent": "inequivalent"}
        report.info("gaussian_equivalence", label.get(verdict.verdict, "undecided"))
        report.info("gaussian_equivalence_justification", verdict.justification)


def _run_field(scenario: Scenario, report: Report):
    mass = scenario.params["mass"]
    grid = fields_mod.MassShellGrid(mass, scenario.params["cutoff"], scenario.params["points"])
    report.info("mass", mass, "configured")
    report.info("cutoff", grid.cutoff, "configured")
    report.info("points_per_axis", grid.points, "configured")
    samples = scenario.params["samples"]
    if samples:
        rows = []
        for x in samples:
            value = fields_mod.pauli_jordan_minus(grid, x)
            rows.append((float(x[0]), float(x[1]), float(x[2]), float(x[3]),
                         float(value.real), float(value.imag)))
        report.table("pauli_jordan_minus", ("x0", "x1", "x2", "x3", "re", "im"), rows)
        tol, src = _tol(scenario, "commutator_identity")
        # np.max keeps the nan of a pair past double range, which max() would drop: a FAIL
        worst = float(np.max([fields_mod.commutator_identity_check(grid, x, y)
                              for x, y in zip(samples, samples[1:])], initial=0.0))
        if len(samples) >= 2:
            report.check("commutator_identity_residual", worst, tol, src)
    equal_time = fields_mod.pauli_jordan(grid, (0.0, 0.4, -0.3, 0.2))
    report.check("equal_time_pauli_jordan", abs(equal_time), 0.0, "default",
                 passed=(equal_time == 0.0))
    x_ref = np.array([0.37, 0.21, -0.45, 0.11])
    coarse, fine = fields_mod.klein_gordon_residuals(grid, x_ref, KLEIN_GORDON_STEPS)
    report.info("klein_gordon_residual_h", coarse)
    report.info("klein_gordon_residual_h_half", fine)
    ratio = coarse / fine if fine > 0 else float("inf")
    report.check("klein_gordon_refinement_ratio", ratio, 4.8, "default",
                 passed=(3.2 <= ratio <= 4.8))
    if scenario.params["second_mass"] is not None:
        witness = fields_mod.mass_kernel_witness(grid, scenario.params["second_mass"])
        if witness.verdict == "undecided":
            raise OpalgError(f"mass_witness: {witness.hint}")
        report.info("mass_witness_verdict", witness.verdict)
        report.info("mass_witness_value_on_first_shell", witness.value_on_first_shell)
        report.info("mass_witness_value_on_second_shell", witness.value_on_second_shell)
        report.info("mass_witness_separation_ratio", witness.separation_ratio)
        if witness.hint:
            report.info("mass_witness_hint", witness.hint)
    if "euclidean" in scenario.params:
        espec = scenario.params["euclidean"]
        lattice = fields_mod.EuclideanLattice(mass, espec["cutoff"], espec["points"])
        report.info("euclidean_points_per_axis", lattice.points, "configured")
        w_origin = lattice.propagator(np.zeros(4))
        report.info("euclidean_w_origin", w_origin)
        report.info("euclidean_w_unit_t", lattice.propagator(np.array([0.5, 0.0, 0.0, 0.0])))
        report.check("euclidean_green_identity_rel_residual",
                     lattice.green_identity_residual(w_origin), 0.05, "default")


def _run_symmetry(scenario: Scenario, report: Report):
    algebra = scenario.params["algebra"]
    state = scenario.params["state"]
    autos = scenario.params["automorphisms"]
    report.info("algebra blocks", list(algebra.blocks), "configured")
    tol, _ = _tol(scenario, "stationarity")
    rep = gns_construct(algebra, state)
    # each pushforward and its distance serve the stationary and implementer lines and the orbit
    results = symmetry_mod.unitary_implementer(rep, autos, tol)
    for k, result in enumerate(results):
        report.info(f"automorphism[{k}].stationary", result.distance <= tol)
        report.info(f"automorphism[{k}].implementer",
                    "present" if result.pairs is not None else "absent")
        report.info(f"automorphism[{k}].isometry_defect", result.isometry_defect)
        if result.intertwining_residual is not None:
            itol, isrc = _tol(scenario, "intertwiner")
            report.check(f"automorphism[{k}].intertwining_residual",
                         result.intertwining_residual, itol, isrc)
    try:
        group = symmetry_mod.AutomorphismGroup(autos)
    except NumericalError:
        raise    # past a closure limit: the file fails, the list is not judged
    except (ValueError, OpalgError) as exc:
        report.info("group", f"not a group: {exc}")
        return
    orbit = symmetry_mod.stabilizer_orbit([r.moved for r in results],
                                          [r.distance for r in results], tol)
    report.info("group_order", orbit.group_order)
    report.info("stabilizer_size", orbit.stabilizer_size)
    report.info("orbit_size", orbit.orbit_size)
    report.info("orbit_law_exact", orbit.orbit_size * orbit.stabilizer_size == orbit.group_order)
    if scenario.params.get("report_multipliers"):
        report.matrix("multiplier_table", group.multiplier_table())


# ---------------------------------------------------------------------------
# kinds, in the order the schema lists them


KINDS: Dict[str, Kind] = {
    "gns": Kind(("algebra", "state"), _parse_gns, _run_gns, """\
kind: gns
algebra: {blocks: [2]}
state:
  densities:
    - [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
"""),
    "equiv": Kind(("algebra", "states"), _parse_equiv, _run_equiv, """\
kind: equiv
algebra: {blocks: [2, 2]}
states:
  - densities:
      - [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
      - [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
  - densities:
      - [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
      - [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
"""),
    "qubit": Kind(("configs",), _parse_qubit, _run_qubit, """\
kind: qubit
configs:
  - tail: {c: 1.0, p: 1.0}
  - default: [[1, 0], [0, 0]]
    overrides:
      - {site: 3, vector: [[0, 0], [1, 0]]}
"""),
    "group": Kind(("group", "functions"), _parse_group, _run_group, """\
kind: group
group: {name: z3}
functions:
  - [[1, 0], [1, 0], [1, 0]]
  - [[1, 0], [-0.5, 0.8660254037844386], [-0.5, -0.8660254037844386]]
"""),
    "ccr": Kind(("space", "moments", "fock", "eigenvalue_model"), _parse_ccr, _run_ccr, """\
kind: ccr
space:
  gram: [[1, 0], [0, 1]]
  k: [[1.4142135623730951, 0], [0, 1.4142135623730951]]
moments:
  max_order: 4
  vectors:
    - [1, 0]
    - [0.5, -0.25]
fock: {max_occupation: 4}
eigenvalue_model: {kind: power, amplitude: 1.0, exponent: 2.0}
"""),
    "field": Kind(("field",), _parse_field, _run_field, """\
kind: field
field:
  mass: 1.0
  second_mass: 2.0
  cutoff: 6.0
  points: 17
  sample_points:
    - [0.3, 0.1, -0.2, 0.4]
    - [-0.1, 0.5, 0.2, -0.3]
  euclidean: {cutoff: 6.0, points: 17}
"""),
    "symmetry": Kind(("algebra", "state", "unitaries", "report_multipliers"),
                     _parse_symmetry, _run_symmetry, """\
kind: symmetry
algebra: {blocks: [2]}
state:
  densities:
    - [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
unitaries:
  - [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]
  - [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]]
  - [[[[0, 0], [0, -1]], [[0, 1], [0, 0]]]]
  - [[[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]]
"""),
}

_ALL_PARAM_KEYS = tuple(sorted({key for kind in KINDS.values() for key in kind.keys}))


def run_scenario(scenario: Scenario) -> Report:
    """Dispatch a validated scenario; identical inputs give identical bytes.  A floating-point
    fault that no local ``np.errstate`` allows, or a failed eigensolver, is a NumericalError."""
    report = Report(scenario.kind)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            KINDS[scenario.kind].run(scenario, report)
    except (FloatingPointError, OverflowError, ZeroDivisionError, np.linalg.LinAlgError) as exc:
        raise NumericalError(f"{type(exc).__name__}: {exc}") from None
    return report
