"""Command-line front end: run and validate scenario files, run demo analyses.

Exit codes: 0 success, 1 schema violation, 2 numerical failure.  Reports are
byte-deterministic across repeated runs and across worker counts; batches are
directories of scenario files, each file one analysis.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .errors import OpalgError, ValidationError
from .scenarios import DEFAULT_TOLERANCES, parse_scenario, run_scenario

DEMO_SCENARIOS = {
    "gns": """\
kind: gns
algebra: {blocks: [2]}
state:
  densities:
    - [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
""",
    "equiv": """\
kind: equiv
algebra: {blocks: [2, 2]}
states:
  - densities:
      - [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
      - [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
  - densities:
      - [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
      - [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
""",
    "qubit": """\
kind: qubit
configs:
  - tail: {c: 1.0, p: 1.0}
  - default: [[1, 0], [0, 0]]
    overrides:
      - {site: 3, vector: [[0, 0], [1, 0]]}
""",
    "group": """\
kind: group
group: {name: z3}
functions:
  - [[1, 0], [1, 0], [1, 0]]
  - [[1, 0], [-0.5, 0.8660254037844386], [-0.5, -0.8660254037844386]]
""",
    "ccr": """\
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
""",
    "field": """\
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
""",
    "symmetry": """\
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
""",
}


def _gather_files(path: Path):
    if path.is_dir():
        # an empty batch is a valid no-op: empty report, exit 0
        files = sorted(p for p in path.iterdir() if p.suffix in (".yaml", ".yml"))
        by_stem = {}
        for p in files:
            if p.stem in by_stem:
                raise ValidationError(
                    f"scenario files {by_stem[p.stem]} and {p} would both write the "
                    f"report {p.stem}.report.txt; rename one of them")
            by_stem[p.stem] = p
        return files
    if not path.exists():
        raise ValidationError(f"no such scenario file: {path}")
    return [path]


def _apply_global_tol(scenario, tol):
    if tol is not None:
        for key in DEFAULT_TOLERANCES:
            scenario.tolerances.setdefault(key, tol)
    return scenario


def _check_directory(target, where) -> None:
    """Reject ``target`` as a directory to write in if an existing ancestor is no directory.

    Output targets are checked before their scenarios run, not in _emit
    after all of them.
    """
    existing = next(q for q in (Path(target), *Path(target).parents) if q.exists())
    if not existing.is_dir():
        raise ValidationError(f"{existing} exists and is not a directory", path=where)


def _execute(source: str, text: str, args):
    """Run one scenario; ``source`` (a file path or demo name) also names its report."""
    try:
        scenario = _apply_global_tol(parse_scenario(text), args.tol)
        if scenario.report_path:
            report = Path(scenario.report_path)
            if report.is_dir():
                raise ValidationError(f"{report} is a directory", path="report")
            _check_directory(report.parent, "report")
        return Path(source).stem, scenario, run_scenario(scenario)
    except OpalgError as exc:
        exc.source = source
        raise


def _emit(results, args) -> None:
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    csv_dir = Path(args.csv) if args.csv else None
    if csv_dir:
        csv_dir.mkdir(parents=True, exist_ok=True)
    for name, scenario, report in results:
        text = report.render()
        if scenario.report_path:
            report_path = Path(scenario.report_path)
            report_path.parent.mkdir(parents=True, exist_ok=True)
            report_path.write_text(text)
        elif out_dir:
            (out_dir / f"{name}.report.txt").write_text(text)
        else:
            sys.stdout.write(f"== {name}\n{text}")
        if csv_dir:
            for table in sorted(report.tables):
                (csv_dir / f"{name}.{table}.csv").write_text(report.render_csv(table))


def _run_many(jobs, args) -> int:
    for flag, target in (("--out", args.out), ("--csv", args.csv)):
        if target:
            _check_directory(target, flag)
    worker_count = max(1, args.jobs)
    if worker_count == 1 or len(jobs) == 1:
        results = [_execute(source, text, args) for source, text in jobs]
    else:
        with ThreadPoolExecutor(max_workers=worker_count) as pool:
            results = list(pool.map(lambda item: _execute(item[0], item[1], args), jobs))
    results.sort(key=lambda item: item[0])
    _emit(results, args)
    return 0


def cmd_run(args) -> int:
    files = _gather_files(Path(args.path))
    jobs = [(str(p), p.read_text()) for p in files]
    return _run_many(jobs, args)


def cmd_validate(args) -> int:
    files = _gather_files(Path(args.path))
    for p in files:
        try:
            scenario = parse_scenario(p.read_text())
        except OpalgError as exc:
            exc.source = str(p)
            raise
        sys.stdout.write(f"{p}: valid scenario of kind {scenario.kind}\n")
    return 0


def cmd_demo(args) -> int:
    if args.kind == "all":
        jobs = [(f"demo_{kind}", DEMO_SCENARIOS[kind]) for kind in sorted(DEMO_SCENARIOS)]
    elif args.kind in DEMO_SCENARIOS:
        jobs = [(f"demo_{args.kind}", DEMO_SCENARIOS[args.kind])]
    else:
        raise ValidationError(
            f"unknown demo kind {args.kind!r}; expected one of "
            f"{', '.join(sorted(DEMO_SCENARIOS))} or all")
    return _run_many(jobs, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opalg",
        description="Scenario-driven analyses of states on finite-dimensional operator algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text in (
        ("run", cmd_run, "run a scenario file or a directory of scenario files"),
        ("validate", cmd_validate, "check scenario files against the schema"),
        ("demo", cmd_demo, "run a built-in demo scenario (or 'all')"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name == "demo":
            p.add_argument("kind", help="scenario kind or 'all'")
        else:
            p.add_argument("path", help="scenario file or directory")
        p.add_argument("--tol", type=float, default=None,
                       help="uniform tolerance override for unconfigured checks")
        p.add_argument("--jobs", type=int, default=1, help="parallel scenario workers")
        p.add_argument("--csv", default=None, help="directory for CSV artifacts")
        p.add_argument("--out", default=None, help="directory for report files")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the schema's rule for configured tolerances holds for the override too
        if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
            raise ValidationError(f"tolerances must be positive and finite, got {args.tol}",
                                  path="--tol")
        return args.handler(args)
    except OpalgError as exc:
        where = f"{exc.source}: " if exc.source else ""
        if isinstance(exc, ValidationError):
            sys.stderr.write(f"schema error: {where}{exc}\n")
            return 1
        sys.stderr.write(f"numerical failure: {where}{type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
