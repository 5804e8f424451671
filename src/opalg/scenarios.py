"""Scenario documents: schema validation, dispatch, and deterministic reports.

One YAML document describes one analysis (kind: gns | equiv | qubit | group |
ccr | field | symmetry).  Complex numbers are [re, im] pairs, matrices are
row-major lists of rows.  Reports are rendered with fixed formatting so that
identical input bytes produce identical output bytes; every numeric line
names the tolerance it was judged against and whether that tolerance was a
default or configured.
"""

from __future__ import annotations

import io
import itertools
import re
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
import yaml

from . import ccr as ccr_mod
from . import fields as fields_mod
from . import groups as groups_mod
from . import qubits as qubits_mod
from . import symmetry as symmetry_mod
from .algebra import TRACE_TOL, StarAlgebra, State, dual_norm_distance, transport_residual
from .errors import OpalgError, ValidationError
from .gns import TRANSITION_TOL, equivalence_check, gns_construct

KINDS = ("gns", "equiv", "qubit", "group", "ccr", "field", "symmetry")

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


# ---------------------------------------------------------------------------
# parsing


def _collect_marks(node, path, marks):
    marks[path] = node.start_mark.line + 1
    if isinstance(node, yaml.MappingNode):
        for key_node, value_node in node.value:
            _collect_marks(value_node, path + (str(key_node.value),), marks)
    elif isinstance(node, yaml.SequenceNode):
        for idx, child in enumerate(node.value):
            _collect_marks(child, path + (idx,), marks)


class _Loader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """Safe loader that also reads YAML 1.2 floats such as ``1e-05`` as numbers.

    It parses with libyaml when PyYAML was built with it.  The YAML 1.1 float
    pattern needs a dot and a signed exponent; the extra pattern covers
    exponents without either.  Plain integers still resolve to int, which is
    tried first.
    """


class _PyLoader(yaml.SafeLoader):
    """The pure-Python parser with the same resolver; its errors quote the source."""


for _cls in (_Loader, _PyLoader):
    _cls.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
        list("-+0123456789."),
    )

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


def _compose(loader_cls, text: str):
    loader = loader_cls(text)
    marks: Dict[tuple, int] = {}
    try:
        node = loader.get_single_node()
        data = loader.construct_document(node) if node is not None else None
        if node is not None:
            _collect_marks(node, (), marks)
    except RecursionError:
        # the pure-Python composer, the constructor and _collect_marks all recurse per level
        raise ValidationError("document nested too deeply to read") from None
    finally:
        loader.dispose()
    return data, marks


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


def _load_with_marks(text: str):
    if len(text) > MAX_NESTING:   # every level takes at least one character
        _check_nesting(text)
    if not (_PY_ONLY_CHAR.search(text) or _EMPTY_FLOW_VALUE.search(text)):
        try:
            return _compose(_Loader, text)
        except yaml.YAMLError:
            pass  # libyaml's messages omit the source snippet: re-parse for the error
    try:
        return _compose(_PyLoader, text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        raise ValidationError(f"not well-formed YAML: {exc}", line=line) from exc


def _path_str(path) -> str:
    out = []
    for part in path:
        if isinstance(part, int):
            out.append(f"[{part}]")
        else:
            out.append(("." if out else "") + part)
    return "".join(out) or "<root>"


class _Walker:
    """Schema helpers carrying the YAML source marks for diagnostics."""

    def __init__(self, marks):
        self.marks = marks

    def fail(self, path, message):
        raise ValidationError(message, path=_path_str(path), line=self.marks.get(path))

    def mapping(self, obj, path, required=(), optional=()):
        if not isinstance(obj, dict):
            self.fail(path, f"expected a mapping, got {type(obj).__name__}")
        allowed = set(required) | set(optional)
        for key in obj:
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
        value = float(obj)
        if not np.isfinite(value):
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

    def complex_vector(self, obj, path):
        seq = self.sequence(obj, path, min_len=1)
        return np.array([self.complex_scalar(v, path + (k,)) for k, v in enumerate(seq)])

    def complex_matrix(self, obj, path):
        rows = self.sequence(obj, path, min_len=1)
        data = [self.complex_vector(r, path + (k,)) for k, r in enumerate(rows)]
        width = {len(r) for r in data}
        if len(width) != 1:
            self.fail(path, "rows have inconsistent lengths")
        return np.stack(data)

    def real_vector(self, obj, path):
        seq = self.sequence(obj, path, min_len=1)
        return np.array([self.number(v, path + (k,)) for k, v in enumerate(seq)])

    def real_matrix(self, obj, path):
        rows = self.sequence(obj, path, min_len=1)
        data = [self.real_vector(r, path + (k,)) for k, r in enumerate(rows)]
        width = {len(r) for r in data}
        if len(width) != 1:
            self.fail(path, "rows have inconsistent lengths")
        return np.stack(data)


@dataclass
class Scenario:
    kind: str
    params: dict
    tolerances: Dict[str, float] = field(default_factory=dict)
    report_path: Optional[str] = None


def parse_scenario(text: str) -> Scenario:
    """Validate a scenario document; raises ValidationError with field/line info."""
    data, marks = _load_with_marks(text)
    w = _Walker(marks)
    top = w.mapping(data, (), required=("kind",),
                    optional=("tolerances", "report", *_ALL_PARAM_KEYS))
    kind = top["kind"]
    if kind not in KINDS:
        w.fail(("kind",), f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    tolerances = {}
    if "tolerances" in top:
        tmap = w.mapping(top["tolerances"], ("tolerances",), optional=tuple(DEFAULT_TOLERANCES))
        for key, value in tmap.items():
            tolerances[key] = w.number(value, ("tolerances", key))
            if tolerances[key] <= 0:
                w.fail(("tolerances", key), f"tolerances must be positive, got {tolerances[key]}")
    for key in top:
        if key in _ALL_PARAM_KEYS and key not in _KIND_PARAM_KEYS[kind]:
            w.fail((key,), f"field {key!r} does not belong to kind {kind!r}")
    params = _PARSERS[kind](w, top)
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
    dens = [w.complex_matrix(r, path + ("densities", k)) for k, r in enumerate(rows)]
    total = sum(float(np.trace(d).real) for d in dens)
    if abs(total - 1.0) > TRACE_TOL:
        w.fail(path + ("densities",),
               f"densities must be normalized: total trace {total:.6g} != 1")
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
    return {
        "algebra": algebra,
        "states": [
            _parse_state(w, s, ("states", k), algebra) for k, s in enumerate(states)
        ],
    }


def _parse_qubit_config(w, obj, path):
    spec = w.mapping(obj, path, optional=("default", "overrides", "tail"))
    default = np.array([1.0, 0.0], dtype=complex)
    if "default" in spec:
        default = w.complex_vector(spec["default"], path + ("default",))
        if default.shape != (2,):
            w.fail(path + ("default",), "qubit vectors live in C^2")
    overrides = {}
    for k, entry in enumerate(w.sequence(spec.get("overrides", []), path + ("overrides",))):
        e = w.mapping(entry, path + ("overrides", k), required=("site", "vector"))
        site = w.integer(e["site"], path + ("overrides", k, "site"), minimum=1)
        vec = w.complex_vector(e["vector"], path + ("overrides", k, "vector"))
        overrides[site] = vec
    tail = None
    if spec.get("tail") is not None:
        t = w.mapping(spec["tail"], path + ("tail",), required=("c", "p"))
        tail = qubits_mod.PowerTail(
            w.number(t["c"], path + ("tail", "c")),
            w.number(t["p"], path + ("tail", "p")),
        )
    try:
        return qubits_mod.QubitConfig(default, overrides, tail)
    except (ValueError, OpalgError) as exc:
        w.fail(path, str(exc))


def _parse_qubit(w, top):
    configs = w.sequence(top.get("configs"), ("configs",), min_len=2)
    if len(configs) != 2:
        w.fail(("configs",), "qubit scenarios compare exactly two configurations")
    return {
        "configs": [
            _parse_qubit_config(w, c, ("configs", k)) for k, c in enumerate(configs)
        ]
    }


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
        table = w.real_matrix(spec["table"], ("group", "table")).astype(int)
        try:
            group = groups_mod.FiniteGroup(table)
        except ValueError as exc:
            w.fail(("group", "table"), str(exc))
    functions = []
    for k, fn in enumerate(w.sequence(top.get("functions"), ("functions",), min_len=1)):
        vals = w.complex_vector(fn, ("functions", k))
        if vals.shape != (group.order,):
            w.fail(("functions", k),
                   f"expected {group.order} values (one per group element), got {vals.shape[0]}")
        functions.append(vals)
    return {"group": group, "functions": functions}


def _parse_ccr(w, top):
    spec = w.mapping(top.get("space"), ("space",), required=("gram", "k"))
    gram = w.real_matrix(spec["gram"], ("space", "gram"))
    k_op = w.real_matrix(spec["k"], ("space", "k"))
    try:
        space = ccr_mod.CcrSpace(gram, k_op)
    except (ValueError, OpalgError) as exc:
        w.fail(("space",), str(exc))
    params = {"space": space}
    if "moments" in top:
        m = w.mapping(top["moments"], ("moments",), required=("vectors",), optional=("max_order",))
        vectors = [
            w.real_vector(v, ("moments", "vectors", k))
            for k, v in enumerate(w.sequence(m["vectors"], ("moments", "vectors"), min_len=1))
        ]
        for k, v in enumerate(vectors):
            if v.shape != (space.n,):
                w.fail(("moments", "vectors", k), f"vector dimension {v.shape[0]} != {space.n}")
        order = w.integer(m.get("max_order", 4), ("moments", "max_order"), minimum=2)
        if order > 6:
            w.fail(("moments", "max_order"), "moment cross-validation is limited to order 6")
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
            model = ccr_mod.FiniteEigenvalues(tuple(
                w.real_vector(espec.get("values", [2.0]), ("eigenvalue_model", "values")).tolist()))
        else:
            w.fail(("eigenvalue_model", "kind"), f"unknown eigenvalue model {ekind!r}")
        params["eigenvalue_model"] = model
    return params


def _parse_field(w, top):
    spec = w.mapping(top.get("field"), ("field",),
                     required=("mass",),
                     optional=("second_mass", "cutoff", "points", "sample_points", "euclidean"))
    mass = w.number(spec["mass"], ("field", "mass"))
    if mass <= 0:
        w.fail(("field", "mass"), "mass must be positive")
    cutoff = w.number(spec.get("cutoff", 6.0 * mass), ("field", "cutoff"))
    points = w.integer(spec.get("points", 33), ("field", "points"), minimum=3)
    if points % 2 == 0:
        w.fail(("field", "points"), "points must be odd (grid symmetric about 0)")
    samples = []
    for k, pt in enumerate(w.sequence(spec.get("sample_points", []), ("field", "sample_points"))):
        vec = w.real_vector(pt, ("field", "sample_points", k))
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
        second = w.number(spec["second_mass"], ("field", "second_mass"))
        if second <= 0:
            w.fail(("field", "second_mass"), "mass must be positive")
        params["second_mass"] = second
    if "euclidean" in spec:
        espec = w.mapping(spec["euclidean"], ("field", "euclidean"),
                          optional=("cutoff", "points"))
        epoints = w.integer(espec.get("points", 9), ("field", "euclidean", "points"), minimum=3)
        if epoints % 2 == 0:
            w.fail(("field", "euclidean", "points"), "points must be odd")
        params["euclidean"] = {
            "cutoff": w.number(espec.get("cutoff", 6.0), ("field", "euclidean", "cutoff")),
            "points": epoints,
        }
    return params


def _parse_element(w, obj, path, algebra):
    rows = w.sequence(obj, path, min_len=1)
    if len(rows) != len(algebra.blocks):
        w.fail(path, f"expected {len(algebra.blocks)} blocks, got {len(rows)}")
    mats = [w.complex_matrix(r, path + (k,)) for k, r in enumerate(rows)]
    try:
        return algebra.element(mats)
    except OpalgError as exc:
        w.fail(path, str(exc))


def _parse_symmetry(w, top):
    algebra = _parse_algebra(w, top.get("algebra"), ("algebra",))
    state = _parse_state(w, top.get("state"), ("state",), algebra)
    unitaries = []
    for k, u in enumerate(w.sequence(top.get("unitaries"), ("unitaries",), min_len=1)):
        element = _parse_element(w, u, ("unitaries", k), algebra)
        try:
            unitaries.append(symmetry_mod.InnerAutomorphism(element))
        except OpalgError as exc:
            w.fail(("unitaries", k), str(exc))
    multipliers = top.get("report_multipliers", False)
    if not isinstance(multipliers, bool):
        w.fail(("report_multipliers",), "expected a boolean")
    return {
        "algebra": algebra,
        "state": state,
        "automorphisms": unitaries,
        "report_multipliers": multipliers,
    }


_PARSERS = {
    "gns": _parse_gns,
    "equiv": _parse_equiv,
    "qubit": _parse_qubit,
    "group": _parse_group,
    "ccr": _parse_ccr,
    "field": _parse_field,
    "symmetry": _parse_symmetry,
}

_KIND_PARAM_KEYS = {
    "gns": ("algebra", "state"),
    "equiv": ("algebra", "states"),
    "qubit": ("configs",),
    "group": ("group", "functions"),
    "ccr": ("space", "moments", "fock", "eigenvalue_model"),
    "field": ("field",),
    "symmetry": ("algebra", "state", "unitaries", "report_multipliers"),
}

_ALL_PARAM_KEYS = tuple(sorted({k for keys in _KIND_PARAM_KEYS.values() for k in keys}))


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
        for row in mat:
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
    report.info("purity", "pure" if rep.commutant_dim == 1 else "mixed")
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
    if result.intertwiner is not None and result.intertwiner.shape[0] <= 8:
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
    report.info("partial_sum_window", verdict.window, "configured")
    report.info("partial_sum", verdict.partial_sum)
    transition = qubits_mod.local_transition_element(first, second)
    if transition is None:
        report.info("local_transition", "absent (infinite difference support)")
        return
    report.info("local_transition_support", list(transition.sites))
    if transition.sites:
        _, state_first = qubits_mod.finite_marginal_state(first, transition.sites)
        _, state_second = qubits_mod.finite_marginal_state(second, transition.sites)
        worst = transport_residual(state_first, state_second, transition.element)
        tol, src = _tol(scenario, "reconstruction")
        report.check("local_transition_residual", worst, tol, src)


def _run_group(scenario: Scenario, report: Report):
    group = scenario.params["group"]
    functions = scenario.params["functions"]
    report.info("group_order", group.order, "configured")
    reps = []
    for k, psi in enumerate(functions):
        pd = groups_mod.is_positive_definite(group, psi)
        report.info(f"function[{k}].positive_definite", pd)
        if not pd:
            reps.append(None)
            continue
        rep = groups_mod.gns_from_group_function(group, psi)
        reps.append(rep)
        report.info(f"function[{k}].carrier_dim", rep.carrier_dim)
        worst = float(np.max(np.abs(rep.reconstruction() - psi)))
        tol, src = _tol(scenario, "reconstruction")
        report.check(f"function[{k}].reconstruction_residual", worst, tol, src)
        unit = max(
            float(np.max(np.abs(m @ m.conj().T - np.eye(rep.carrier_dim))))
            for m in rep.matrices
        )
        tol, src = _tol(scenario, "commutation")
        report.check(f"function[{k}].unitarity_defect", unit, tol, src)
    if len(functions) >= 2 and reps[0] is not None and reps[1] is not None:
        orth = groups_mod.orthogonality_check(group, functions[0], functions[1])
        report.info("orthogonality_inner_sum", orth.inner_sum)
        report.info("orthogonality_convolution_max", orth.convolution_max)


def _run_ccr(scenario: Scenario, report: Report):
    space = scenario.params["space"]
    report.info("dimension", space.n, "configured")
    report.info("k_condition_number", float(np.linalg.cond(space.k_op)))
    if "moments" in scenario.params:
        vectors = scenario.params["moments"]["vectors"]
        order = scenario.params["moments"]["max_order"]
        tol, src = _tol(scenario, "moment_relative")
        rows = []
        worst = 0.0
        for m in range(2, order + 1, 2):
            for combo in itertools.combinations_with_replacement(range(len(vectors)), m):
                args = [vectors[i] for i in combo]
                wv = ccr_mod.wick_moment(space, args)
                ov = ccr_mod.moment_oracle(space, args)
                rel = abs(wv - ov) / max(abs(wv), 1e-300)
                worst = max(worst, rel)
                rows.append(("x".join(str(i) for i in combo), wv, ov, rel))
        report.table("moments", ("multi_index", "wick", "oracle", "relative_residual"), rows)
        report.check("moment_cross_validation_worst_rel", worst, tol, src)
    # 100 triples (q, q', u), drawn in that order
    q, qp, u = np.random.default_rng(2024).normal(size=(100, 3, space.n)).transpose(1, 0, 2)
    # a factor that overflowed to inf or underflowed to 0 cannot test the law:
    # the samples whose three factors are finite and non-zero are judged, and
    # the check fails when none is left
    with np.errstate(over="ignore", invalid="ignore"):
        factors = (ccr_mod.quasi_invariance_factor(space, q + qp, u),
                   ccr_mod.quasi_invariance_factor(space, q, u),
                   ccr_mod.quasi_invariance_factor(space, qp, u + space.gram_image(q)))
        judged = np.logical_and.reduce([np.isfinite(a) & (a != 0.0) for a in factors])
        lhs, rhs = factors[0][judged], factors[1][judged] * factors[2][judged]
        ratio = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-300)
    worst = float(np.max(ratio)) if ratio.size else float("inf")
    tol, src = _tol(scenario, "cocycle")
    report.check("cocycle_residual_rel", worst, tol, src)
    if "fock" in scenario.params:
        fock = ccr_mod.build_fock_operators(space, scenario.params["fock"])
        report.info("fock_basis_size", fock.dim)
        q = np.zeros(space.n)
        q[0] = 1.0
        qp = np.zeros(space.n)
        qp[-1] = 1.0
        tol, src = _tol(scenario, "commutation")
        report.check("fock_commutator_defect_protected", fock.commutator_defect(q, qp), tol, src)
        annil = float(np.max(np.abs(fock.a_minus_action(np.eye(space.n), fock.vacuum()))))
        report.check("vacuum_annihilation", annil, 0.0, "default", passed=(annil == 0.0))
    if "eigenvalue_model" in scenario.params:
        verdict = ccr_mod.gaussian_equivalence_verdict(scenario.params["eigenvalue_model"])
        report.info("gaussian_equivalence_series", verdict.verdict)
        report.info(
            "gaussian_equivalence",
            {"convergent": "equivalent-to-Fock", "divergent": "inequivalent"}.get(
                verdict.verdict, "undecided"),
        )
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
        worst = 0.0
        for x, y in zip(samples, samples[1:]):
            worst = max(worst, fields_mod.commutator_identity_check(grid, x, y))
        if len(samples) >= 2:
            report.check("commutator_identity_residual", worst, tol, src)
    equal_time = fields_mod.pauli_jordan(grid, (0.0, 0.4, -0.3, 0.2))
    report.check("equal_time_pauli_jordan", abs(equal_time), 0.0, "default",
                 passed=(equal_time == 0.0))
    x_ref = np.array([0.37, 0.21, -0.45, 0.11])
    coarse = fields_mod.klein_gordon_residual(grid, x_ref, 0.08)
    fine = fields_mod.klein_gordon_residual(grid, x_ref, 0.04)
    report.info("klein_gordon_residual_h", coarse)
    report.info("klein_gordon_residual_h_half", fine)
    ratio = coarse / fine if fine > 0 else float("inf")
    report.check("klein_gordon_refinement_ratio", ratio, 4.8, "default",
                 passed=(3.2 <= ratio <= 4.8))
    if scenario.params["second_mass"] is not None:
        witness = fields_mod.mass_kernel_witness(
            mass, scenario.params["second_mass"], grid.cutoff, grid.points)
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
        report.info("euclidean_w_origin", lattice.propagator(np.zeros(4)))
        report.info("euclidean_w_unit_t", lattice.propagator(np.array([0.5, 0.0, 0.0, 0.0])))
        report.check("euclidean_green_identity_rel_residual",
                     lattice.green_identity_residual(), 0.05, "default")


def _run_symmetry(scenario: Scenario, report: Report):
    algebra = scenario.params["algebra"]
    state = scenario.params["state"]
    autos = scenario.params["automorphisms"]
    report.info("algebra blocks", list(algebra.blocks), "configured")
    tol, src = _tol(scenario, "stationarity")
    # the stabilizer orbit always judges at the stationarity tolerance; the
    # implementer's isometry test (ISOMETRY_TOL on another norm) only when configured
    configured = {"tol": tol} if src == "configured" else {}
    for k, rho in enumerate(autos):
        stationary = symmetry_mod.stationarity_check(state, rho, tol)
        report.info(f"automorphism[{k}].stationary", stationary)
        result = symmetry_mod.unitary_implementer(state, rho, **configured)
        report.info(f"automorphism[{k}].implementer",
                    "present" if result.unitary is not None else "absent")
        report.info(f"automorphism[{k}].isometry_defect", result.isometry_defect)
        if result.intertwining_residual is not None:
            itol, isrc = _tol(scenario, "intertwiner")
            report.check(f"automorphism[{k}].intertwining_residual",
                         result.intertwining_residual, itol, isrc)
    try:
        group = symmetry_mod.AutomorphismGroup(autos)
    except (ValueError, OpalgError) as exc:
        report.info("group", f"not a group: {exc}")
        return
    orbit = symmetry_mod.stabilizer_orbit(state, group, tol)
    report.info("group_order", orbit.group_order)
    report.info("stabilizer_size", orbit.stabilizer_size)
    report.info("orbit_size", orbit.orbit_size)
    report.info("orbit_law_exact", orbit.orbit_size * orbit.stabilizer_size == orbit.group_order)
    if scenario.params.get("report_multipliers"):
        report.matrix("multiplier_table", group.multiplier_table())


_RUNNERS = {
    "gns": _run_gns,
    "equiv": _run_equiv,
    "qubit": _run_qubit,
    "group": _run_group,
    "ccr": _run_ccr,
    "field": _run_field,
    "symmetry": _run_symmetry,
}


def run_scenario(scenario: Scenario) -> Report:
    """Dispatch a validated scenario; identical inputs give identical bytes."""
    report = Report(scenario.kind)
    _RUNNERS[scenario.kind](scenario, report)
    return report
