"""Command-line front end: run and validate scenario files, run demo analyses.

Exit codes: 0 success, 1 schema violation, 2 numerical failure.  Reports are
byte-deterministic across repeated runs and across worker counts; batches are
directories of scenario files, each file one analysis.  ``run``, ``validate``
and ``demo`` try every file of a batch: each success is written (a report, or
a ``valid scenario`` line), each failure gets one stderr line naming its file,
in file order, and the exit code is the highest of the batch.  A file that is
not UTF-8 text fails alone, and so does a file whose report the file before
it in the batch already writes.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import OpalgError, ValidationError
from .scenarios import DEFAULT_TOLERANCES, KINDS, parse_scenario, run_scenario


def _file_jobs(path: Path):
    """(source, path) jobs for a scenario file or the scenario files of a directory."""
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
        return [(str(p), p) for p in files]
    if not path.exists():
        raise ValidationError(f"no such scenario file: {path}")
    return [(str(path), path)]


def _text(document) -> str:
    """A demo's text as it is, or the text of a scenario file, which must be UTF-8."""
    if isinstance(document, str):
        return document
    try:
        return document.read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise ValidationError(f"cannot read the file: {exc}") from None


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


def _fail(exc: OpalgError, source: str = "") -> int:
    """Write the stderr line for ``exc`` from ``source`` and return its exit code."""
    where = f"{source}: " if source else ""
    if isinstance(exc, ValidationError):
        sys.stderr.write(f"schema error: {where}{exc}\n")
        return 1
    sys.stderr.write(f"numerical failure: {where}{type(exc).__name__}: {exc}\n")
    return 2


def _each(jobs, work, workers: int, target=lambda result: None):
    """Apply ``work(source, text)`` to every (source, document) job, reading each file here.

    Every job is tried, serially or on ``workers`` threads.  A success whose
    ``target(result)`` (the file it writes, or None) an earlier job already
    claimed fails instead.  Each failure gets its stderr line, in job order
    (pool.map keeps it), which is source order.  Returns the successful
    results and the highest exit code.
    """
    def attempt(job):
        source, document = job
        try:
            return work(source, _text(document)), None
        except OpalgError as exc:
            return None, exc

    if workers <= 1 or len(jobs) <= 1:
        outcomes = [attempt(job) for job in jobs]
    else:
        # imported here: it costs every start a few ms, and only --jobs > 1 needs it
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(attempt, jobs))
    results, claimed, code = [], {}, 0
    for (source, _), (result, exc) in zip(jobs, outcomes):
        written = None if exc else target(result)
        if written in claimed:
            exc = ValidationError(f"{claimed[written]} already writes {written}", path="report")
        if exc:
            code = max(code, _fail(exc, source))
        else:
            results.append(result)
            if written is not None:
                claimed[written] = source
    return results, code


def _execute(source: str, text: str, args, out_dir):
    """Run one scenario; ``source`` (a file path or demo name) also names its report.

    Returns the name, the report and the resolved file the report is written
    to: its ``report:`` path, else one in ``out_dir`` (already resolved), else
    None for stdout.
    """
    scenario = _apply_global_tol(parse_scenario(text), args.tol)
    name = Path(source).stem
    target = out_dir / f"{name}.report.txt" if out_dir else None
    if scenario.report_path:
        target = Path(scenario.report_path)
        if target.is_dir():
            raise ValidationError(f"{target} is a directory", path="report")
        _check_directory(target.parent, "report")
        target = target.resolve()
    return name, run_scenario(scenario), target


def _emit(results, args) -> None:
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    csv_dir = Path(args.csv) if args.csv else None
    if csv_dir:
        csv_dir.mkdir(parents=True, exist_ok=True)
    for name, report, target in results:
        text = report.render()
        if target:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
        else:
            sys.stdout.write(f"== {name}\n{text}")
        if csv_dir:
            for table in sorted(report.tables):
                (csv_dir / f"{name}.{table}.csv").write_text(report.render_csv(table))


def _run_many(jobs, args) -> int:
    for flag, target in (("--out", args.out), ("--csv", args.csv)):
        if target:
            _check_directory(target, flag)
    out_dir = Path(args.out).resolve() if args.out else None
    results, code = _each(jobs, lambda source, text: _execute(source, text, args, out_dir),
                          args.jobs, lambda result: result[2])
    _emit(sorted(results, key=lambda item: item[0]), args)
    return code


def cmd_run(args) -> int:
    return _run_many(_file_jobs(Path(args.path)), args)


def cmd_validate(args) -> int:
    jobs = _file_jobs(Path(args.path))
    results, code = _each(jobs, lambda source, text: (source, parse_scenario(text)), args.jobs)
    for source, scenario in results:
        sys.stdout.write(f"{source}: valid scenario of kind {scenario.kind}\n")
    return code


def cmd_demo(args) -> int:
    if args.kind != "all" and args.kind not in KINDS:
        raise ValidationError(
            f"unknown demo kind {args.kind!r}; expected one of {', '.join(sorted(KINDS))} or all")
    kinds = sorted(KINDS) if args.kind == "all" else [args.kind]
    return _run_many([(f"demo_{kind}", KINDS[kind].demo) for kind in kinds], args)


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
        return _fail(exc)


if __name__ == "__main__":
    raise SystemExit(main())
