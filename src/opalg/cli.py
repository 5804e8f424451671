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
import os
import pickle
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


def _failure(exc: OpalgError, source: str = ""):
    """The exit code for ``exc`` from ``source`` and its stderr line."""
    where = f"{source}: " if source else ""
    if isinstance(exc, ValidationError):
        return 1, f"schema error: {where}{exc}\n"
    return 2, f"numerical failure: {where}{type(exc).__name__}: {exc}\n"


def _attempt(job, work):
    """(result, None) for a job that succeeds, (None, (exit code, stderr line)) for a failure."""
    source, document = job
    try:
        return work(source, _text(document)), None
    except OpalgError as exc:
        return None, _failure(exc, source)


def _share(jobs, work):
    """The outcomes of ``jobs`` in order up to the first exception that is no OpalgError,
    and that exception (or None)."""
    outcomes = []
    try:
        for job in jobs:
            outcomes.append(_attempt(job, work))
    except Exception as exc:    # raised by the parent once every worker is reaped
        return outcomes, exc
    return outcomes, None


def _forked(jobs, work, n: int):
    """The outcomes of ``jobs``, share k = ``jobs[k::n]`` run by forked child k, share 0 here.

    A child sends its share's outcomes down its own pipe, pickled, and leaves
    with os._exit: no atexit handler runs and no stdio buffer it inherited is
    flushed.  Every child is reaped before this returns or raises.  Forked,
    not spawned: a spawned worker would pay the interpreter start and the
    imports again, about as long as a whole benchmark batch takes to run.
    """
    children = []   # (pid, read end of its pipe)
    try:
        for k in range(1, n):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read_end)
                    payload = pickle.dumps(_share(jobs[k::n], work))
                    with open(write_end, "wb") as pipe:
                        pipe.write(payload)
                finally:
                    os._exit(0)
            os.close(write_end)
            children.append((pid, read_end))
        shares = [_share(jobs[::n], work)]
        for pid, read_end in children:
            with open(read_end, "rb", closefd=False) as pipe:
                payload = pipe.read()
            if not payload:
                raise ChildProcessError(f"worker process {pid} ended without sending its outcomes")
            shares.append(pickle.loads(payload))
    finally:
        for pid, read_end in children:
            os.close(read_end)      # a child still writing gets EPIPE and leaves
            os.waitpid(pid, 0)
    outcomes, crashes = [None] * len(jobs), []
    for k, (done, exc) in enumerate(shares):
        outcomes[k:k + n * len(done):n] = done
        if exc is not None:
            crashes.append((k + n * len(done), exc))
    if crashes:     # the exception of the first job that raised one, as a serial run gives
        raise min(crashes, key=lambda crash: crash[0])[1]
    return outcomes


def _each(jobs, work, workers: int, target=lambda result: None):
    """Apply ``work(source, text)`` to every (source, document) job, each file read by its worker.

    Every job is tried, serially or in ``min(workers, len(jobs), cpu count)``
    worker processes forked with os.fork (serially where there is none).
    Results cross a pipe, so ``work`` returns plain data.  A success whose
    ``target(result)`` (the file it writes, or None) an earlier job already
    claimed fails instead.  Each failure gets its stderr line, in job order,
    which is source order.  Returns the successful results and the highest
    exit code.
    """
    n = min(workers, len(jobs), os.cpu_count() or 1)
    if n <= 1 or not hasattr(os, "fork"):
        outcomes = [_attempt(job, work) for job in jobs]
    else:
        outcomes = _forked(jobs, work, n)
    results, claimed, code = [], {}, 0
    for (source, _), (result, failure) in zip(jobs, outcomes):
        written = None if failure else target(result)
        if written in claimed:
            failure = _failure(ValidationError(f"{claimed[written]} already writes {written}",
                                               path="report"), source)
        if failure:
            code = max(code, failure[0])
            sys.stderr.write(failure[1])
        else:
            results.append(result)
            if written is not None:
                claimed[written] = source
    return results, code


def _execute(source: str, text: str, args, out_dir):
    """Run one scenario; ``source`` (a file path or demo name) also names its report.

    Returns the name, the report text, the (table, CSV text) pairs that
    ``--csv`` asks for and the resolved file the report is written to: its
    ``report:`` path, else one in ``out_dir`` (already resolved), else None
    for stdout.
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
    report = run_scenario(scenario)
    tables = [(t, report.render_csv(t)) for t in sorted(report.tables)] if args.csv else []
    return name, report.render(), tables, target


def _emit(results, args) -> None:
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    csv_dir = Path(args.csv) if args.csv else None
    if csv_dir:
        csv_dir.mkdir(parents=True, exist_ok=True)
    for name, text, tables, target in results:
        if target:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
        else:
            sys.stdout.write(f"== {name}\n{text}")
        for table, csv in tables:
            (csv_dir / f"{name}.{table}.csv").write_text(csv)


def _run_many(jobs, args) -> int:
    for flag, target in (("--out", args.out), ("--csv", args.csv)):
        if target:
            _check_directory(target, flag)
    out_dir = Path(args.out).resolve() if args.out else None
    results, code = _each(jobs, lambda source, text: _execute(source, text, args, out_dir),
                          args.jobs, lambda result: result[3])
    _emit(sorted(results, key=lambda item: item[0]), args)
    return code


def cmd_run(args) -> int:
    return _run_many(_file_jobs(Path(args.path)), args)


def cmd_validate(args) -> int:
    jobs = _file_jobs(Path(args.path))
    results, code = _each(jobs, lambda source, text: (source, parse_scenario(text).kind), args.jobs)
    for source, kind in results:
        sys.stdout.write(f"{source}: valid scenario of kind {kind}\n")
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
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for a batch, at most one per CPU "
                            "(serial where os.fork is missing)")
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
        if args.jobs < 1:
            raise ValidationError(f"the number of workers must be positive, got {args.jobs}",
                                  path="--jobs")
        return args.handler(args)
    except OpalgError as exc:
        code, line = _failure(exc)
        sys.stderr.write(line)
        return code


def entry():
    """The ``opalg`` command: ``main``, then exit without interpreter teardown."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:    # a pipe closed early: reported and ended as teardown would
        code = 120
        sys.stderr.write(f"Exception ignored in: {sys.stdout!r}\n{type(exc).__name__}: {exc}\n")
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
