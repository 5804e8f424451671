"""opalg benchmark: seeded scenario batches through ``opalg run``, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload gns-mid --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off:
``opalg run <batch> --jobs 1`` and ``--jobs 2`` in child processes, per-scenario
parse + run + render times in-process, and ``opalg run <empty dir>`` for the
set-up time.  ``--trace 1`` runs the batch in-process through ``cli.main``,
once plain and once with every layer wrapped by :mod:`tracer`, and prints the
per-layer metrics.  Either way every report is checked against the oracle in
:mod:`workloads`.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP threads before numpy loads, here and in every child
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# address-space cap of each CLI child: an over-size input ends as a counted
# failure (MemoryError, exit != 0) instead of exhausting the machine
CHILD_AS_LIMIT = 3 << 30
SETUP_REPEATS = 7           # timed `opalg run <empty dir>` starts per run
CHEAP_S = 1.0               # scenarios slower than this are timed once per run
RETIME_FACTOR = 2.0         # ... and so are those slower than this times the first pass's tail
MIN_RETIMES = 7             # in-process re-timings of every other scenario, however long the CLI takes
DEADLINE_S = 165.0          # stop starting new work after this many seconds

END_TO_END_UNITS = {
    "wall_s": "s", "wall_s_jobs2": "s", "scenario_p50_ms": "ms",
    "scenario_tail_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s",
}
SWEEP_SIZES = (2, 3, 4)
PER_LAYER = (
    ("linalg.nullspace", ("self_s", "calls")),
    ("gns.commutant_basis", ("self_s", "peak_mb")),
    ("gns.equivalence_check", ("self_s", "peak_mb")),
    ("gns.gns_construct", ("self_s", "calls")),
    ("linalg.gram_quotient", ("self_s",)),
    ("groups.gns_from_group_function", ("self_s",)),
    ("groups.is_positive_definite", ("self_s",)),
    ("symmetry.unitary_implementer", ("self_s",)),
    ("symmetry.automorphism_group", ("self_s",)),
    ("symmetry.stabilizer_orbit", ("self_s",)),
    ("scenarios.parse", ("self_s", "calls")),
    ("scenarios.render", ("self_s",)),
    ("scenarios.run", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("algebra.evaluate_state", ("self_s", "calls")),
    ("qubits.local_transition_element", ("self_s",)),
    ("qubits.finite_marginal_state", ("self_s",)),
    ("qubits.equivalence_verdict", ("self_s",)),
    ("ccr.build_fock_operators", ("self_s", "peak_mb")),
    ("ccr.wick_moment", ("self_s",)),
    ("ccr.moment_oracle", ("self_s",)),
    ("fields.mass_shell_grid", ("self_s",)),
    ("fields.pauli_jordan", ("self_s",)),
    ("fields.mass_kernel_witness", ("self_s",)),
    ("fields.euclidean", ("self_s", "peak_mb")),
)
FIELD_UNITS = {"self_s": "s", "calls": "count", "peak_mb": "MB"}


def per_layer_units():
    units = {f"{layer}.{f}": FIELD_UNITS[f] for layer, fields in PER_LAYER for f in fields}
    units.update({f"gns.sweep.M{n}_s": "s" for n in SWEEP_SIZES})
    units["trace.overhead_frac"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# helpers


def tail_percentile(batch_size: int) -> int:
    """Highest whole percentile with at least ten scenarios beyond it (50 at the least)."""
    for p in range(99, 50, -1):
        if batch_size - math.ceil(p / 100 * batch_size) >= 10:
            return p
    return 50


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def environment():
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = deps.get("openblas configuration") or f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "git_sha": sha, "threads": THREAD_ENV}


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_LIMIT, CHILD_AS_LIMIT))


def run_cli(args, log: Path, timeout: float):
    """Run ``opalg <args>`` in a child; return (exit code, wall s, peak RSS MB)."""
    cmd = [sys.executable, "-m", "opalg.cli", *args]
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                preexec_fn=_cap_address_space)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def read_reports(out_dir: Path, cases):
    return {c.name: (out_dir / f"{c.name}.report.txt").read_text()
            if (out_dir / f"{c.name}.report.txt").exists() else None for c in cases}


class Checker:
    """Counts report sets against the oracle and against the first report seen."""

    def __init__(self, cases):
        from workloads import check_report

        self.cases = cases
        self.check_report = check_report
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, label, reports, cases=None):
        for case in self.cases if cases is None else cases:
            self.attempted += 1
            text = reports.get(case.name)
            problem = self.check_report(case, text)
            if not problem and self.reference.setdefault(case.name, text) != text:
                problem = "report bytes differ from the first report"
            if problem:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"{label}: {case.name}: {problem}")

    def digest(self):
        h = hashlib.sha256()
        for case in self.cases:
            text = self.reference.get(case.name)
            h.update(f"{case.name}\0{text if text is not None else '-'}\0".encode())
        return h.hexdigest()


def in_process_pass(cases, parse, run):
    """Parse + run + render every case once; return (per-case seconds, reports)."""
    times, reports = [], {}
    clock = time.perf_counter
    for case in cases:
        start = clock()
        try:
            text = run(parse(case.text)).render()
        except Exception as exc:  # a scenario error is a counted failure, not a crash
            text = None
            print(f"# {case.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        times.append(clock() - start)
        reports[case.name] = text
    return times, reports


def warm_up(cases, parse, run):
    """One untimed pass over the shortest document of each kind."""
    shortest = {}
    for case in cases:
        if case.kind not in shortest or len(case.text) < len(shortest[case.kind].text):
            shortest[case.kind] = case
    in_process_pass(list(shortest.values()), parse, run)


# ---------------------------------------------------------------------------
# the two run modes


def measure_end_to_end(cases, batch, work, seconds, deadline):
    from opalg.scenarios import parse_scenario, run_scenario

    empty = work / "empty"
    empty.mkdir()
    log = work / "children.log"
    checker = Checker(cases)

    run_cli(["run", str(empty)], log, deadline - time.monotonic())   # untimed: fills __pycache__
    setup = [run_cli(["run", str(empty)], log, deadline - time.monotonic())[1]
             for _ in range(SETUP_REPEATS)]
    warm_up(cases, parse_scenario, run_scenario)

    # every scenario but the few large gns solves (Case.cli_only) is timed
    # once; those that can decide the p50 or the tail again after each CLI
    # run, so their samples span the whole run.  Every timing counts with its
    # fastest sample (a scenario's fastest time, the fastest CLI run of each
    # kind): interference from other work on a shared machine only ever adds
    # time, and comes in bursts of about a second
    began = time.monotonic()
    timed = [c for c in cases if not c.cli_only]
    first, reports = in_process_pass(timed, parse_scenario, run_scenario)
    checker.add("in-process", reports, timed)
    tail_p = tail_percentile(len(timed))
    cut = min(CHEAP_S, RETIME_FACTOR * percentile(first, tail_p))
    per_case = [[t] for t in first]
    cheap = [k for k, t in enumerate(first) if t < cut]
    subset = [timed[k] for k in cheap]
    walls, rss = {1: [], 2: []}, []
    retimes = 0

    def retime(label):
        nonlocal retimes
        retimes += 1
        times, reports = in_process_pass(subset, parse_scenario, run_scenario)
        checker.add(f"in-process re-timing {retimes} {label}", reports, subset)
        for k, t in zip(cheap, times):
            per_case[k].append(t)

    # rounds of one CLI run with --jobs 1 and one with --jobs 2, each followed
    # by a re-timing pass, until --seconds have passed (at least one round)
    while not walls[1] or (time.monotonic() - began < seconds and time.monotonic() < deadline):
        for jobs in (1, 2):
            out = work / f"out-{len(walls[jobs]) + 1}-j{jobs}"
            code, wall, peak = run_cli(["run", str(batch), "--out", str(out), "--jobs", str(jobs)],
                                       log, deadline - time.monotonic())
            walls[jobs].append(wall)
            if jobs == 1:
                rss.append(peak)
            reports = read_reports(out, cases) if code == 0 else {}
            if code != 0:
                print(f"# opalg run --jobs {jobs} exited with {code}", file=sys.stderr)
            checker.add(f"cli --jobs {jobs} round {len(walls[jobs])}", reports)
            shutil.rmtree(out, ignore_errors=True)
            retime(f"after --jobs {jobs} round {len(walls[jobs])}")
    while retimes < MIN_RETIMES and time.monotonic() < deadline:
        retime("")
    samples = [min(ts) for ts in per_case]

    metrics = {
        "wall_s": min(walls[1]),
        "wall_s_jobs2": min(walls[2]),
        "scenario_p50_ms": 1e3 * statistics.median(samples),
        "scenario_tail_ms": 1e3 * percentile(samples, tail_p),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }
    notes = {
        "rounds": len(walls[1]),
        "scenario_tail_ms": f"p{tail_p} of {len(samples)} scenarios",
        "scenario_p50_ms": f"median of {len(samples)} of {len(cases)} scenarios; {len(cheap)} "
                           f"of them fastest of {retimes + 1} timings, the rest of one",
        "setup_s": f"median of {SETUP_REPEATS} starts",
        "wall_s": "fastest of runs: " + " ".join(f"{w:.3f}" for w in walls[1]),
        "wall_s_jobs2": "fastest of runs: " + " ".join(f"{w:.3f}" for w in walls[2]),
        "failed_frac": checker.failed / checker.attempted,
    }
    return metrics, END_TO_END_UNITS, checker, notes


def measure_per_layer(cases, batch, work, seconds, deadline, seed, scale):
    import workloads
    from opalg import cli, gns
    from opalg.scenarios import parse_scenario, run_scenario
    from tracer import Tracer

    checker = Checker(cases)
    warm_up(cases, parse_scenario, run_scenario)
    ordered = sorted(cases, key=lambda c: c.name)   # the CLI runs files in name order
    rows, overheads, sweep, tree_problems = [], [], {n: [] for n in SWEEP_SIZES}, []
    began = time.monotonic()
    rounds = 0
    while rounds == 0 or (time.monotonic() - began < seconds and time.monotonic() < deadline):
        rounds += 1
        walls = {}
        for traced in (False, True):
            out = work / f"out-r{rounds}-{'traced' if traced else 'plain'}"
            tracer = Tracer()
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                code = cli.main(["run", str(batch), "--out", str(out), "--jobs", "1"])
            finally:
                walls[traced] = time.perf_counter() - start
                tracer.uninstall()
            reports = read_reports(out, cases) if code == 0 else {}
            checker.add(f"in-process cli.main traced={int(traced)} round {rounds}", reports)
            shutil.rmtree(out, ignore_errors=True)
        overheads.append((walls[True] - walls[False]) / walls[False])
        rows.append(tracer.summary())
        tree_problems.extend(tracer.tree_problems())
        # size sweep: gns_construct + commutant_basis directly under each faithful M_n run
        runs = [k for k, name in enumerate(tracer.names) if name == "scenarios.run"]
        kids = {}
        for k, parent in enumerate(tracer.parents):
            kids.setdefault(parent, []).append(k)
        dur = tracer.durations()
        for case, span in zip(ordered, runs):
            if case.sweep_n:
                sweep[case.sweep_n].append(sum(
                    dur[k] for k in kids.get(span, ())
                    if tracer.names[k] in ("gns.gns_construct", "gns.commutant_basis")) / 1e9)

    # sizes this batch lacks: time the gns-mid sweep cases directly, untraced
    present = {c.sweep_n for c in cases if c.sweep_n}
    for case in workloads.sweep_cases(seed, scale):
        if case.sweep_n in present:
            continue
        params = parse_scenario(case.text).params
        start = time.perf_counter()
        gns.commutant_basis(gns.gns_construct(params["algebra"], params["state"]))
        sweep[case.sweep_n].append(time.perf_counter() - start)

    metrics = {}
    for layer, fields in PER_LAYER:
        for f in fields:
            metrics[f"{layer}.{f}"] = statistics.median(r.get(layer, {}).get(f, 0) for r in rows)
    for n in SWEEP_SIZES:
        # 0 only at the tiny scale, whose gns-mid batch has no faithful M4
        metrics[f"gns.sweep.M{n}_s"] = statistics.median(sweep[n]) if sweep[n] else 0.0
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    notes = {"rounds": rounds, "span_tree_problems": tree_problems[:10],
             "failed_frac": checker.failed / checker.attempted}
    return metrics, per_layer_units(), checker, notes


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few scenarios per workload, for the smoke test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "opalg" / "cli.py").is_file():
        print(f"perfbench: no opalg sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    batch = work / "batch"
    batch.mkdir(parents=True)
    try:
        cases = workloads.generate(args.workload, args.seed, args.scale)
        for case in cases:
            (batch / f"{case.name}.yaml").write_text(case.text)
        if args.trace:
            metrics, units, checker, notes = measure_per_layer(
                cases, batch, work, args.seconds, deadline, args.seed, args.scale)
        else:
            metrics, units, checker, notes = measure_end_to_end(
                cases, batch, work, args.seconds, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"scale={args.scale} scenarios={len(cases)} rounds={notes['rounds']}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    for name, value in metrics.items():
        note = notes.get(name)
        print(f"{name} = {value:.6g} {units[name]}" + (f"  ({note})" if note else ""))
    print(f"failed_frac = {notes['failed_frac']:.6g} ratio  "
          f"({checker.failed} of {checker.attempted} scenario reports)")
    print(f"# reports_sha256 {checker.digest()}")
    for problem in checker.problems + notes.get("span_tree_problems", []):
        print(f"# problem: {problem}")
    correct = checker.failed == 0 and not notes.get("span_tree_problems")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
