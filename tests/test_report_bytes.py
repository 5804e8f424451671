"""Every report and CSV table of ``opalg demo all`` and of the benchmark's three
workloads at seeds 4243, 7 and 501 keeps its bytes, and so does every file that
``opalg run --jobs 2`` writes for the gns-mid batch at seed 4243.

``report_digests.json`` holds the SHA-256 of each file, named as ``opalg run``
and ``opalg demo`` name it, with a two-byte digest of each of its lines (to
name the first line that moved) and the Python, numpy and BLAS versions it was
written with.  A change that moves report bytes on purpose rewrites it with
``PYTHONPATH=src python tests/test_report_bytes.py`` and lists the moved lines
in CHANGES.md.
"""

import hashlib
import importlib.util
import json
import platform
import sys
from pathlib import Path

import numpy as np

from opalg import parse_scenario, run_scenario
from opalg.cli import main
from opalg.scenarios import KINDS

DIGESTS = Path(__file__).with_name("report_digests.json")
BATCHES = [(name, seed) for name in ("gns-mid", "numerics-large", "kinds-small")
           for seed in (4243, 7, 501)]


def _workloads():
    """The benchmark's scenario generator, loaded from its file."""
    if "perfbench_workloads" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)   # its dataclasses look it up
        spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules["perfbench_workloads"]


def _versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _files():
    """The text of each report and CSV table, by the path opalg writes it to."""
    documents = [("demo", f"demo_{kind}", KINDS[kind].demo) for kind in sorted(KINDS)]
    for name, seed in BATCHES:
        documents += [(f"{name}-{seed}", case.name, case.text)
                      for case in _workloads().generate(name, seed)]
    files = {}
    for batch, stem, text in documents:
        report = run_scenario(parse_scenario(text))
        files[f"{batch}/{stem}.report.txt"] = report.render()
        for table in sorted(report.tables):
            files[f"{batch}/{stem}.{table}.csv"] = report.render_csv(table)
    return files


def _line_digests(text):
    return "".join(hashlib.blake2s(line.encode(), digest_size=2).hexdigest()
                   for line in text.splitlines())


def _record(files):
    return {"versions": _versions(),
            "files": {path: [hashlib.sha256(text.encode()).hexdigest(), _line_digests(text)]
                      for path, text in sorted(files.items())}}


def _moved(recorded, files):
    """One line for each file whose bytes differ from the record, naming its first moved line."""
    out = []
    for path in sorted(set(recorded) | set(files)):
        if path not in files:
            out.append(f"{path}: no longer written")
        elif path not in recorded:
            out.append(f"{path}: not in the record")
        elif hashlib.sha256(files[path].encode()).hexdigest() != recorded[path][0]:
            lines, digests = files[path].splitlines(), _line_digests(files[path])
            k = next((k for k in range(0, len(digests), 4)
                      if digests[k:k + 4] != recorded[path][1][k:k + 4]), len(digests)) // 4
            shown = repr(lines[k]) if k < len(lines) else "(the recorded file has more lines)"
            out.append(f"{path}: line {k + 1}: {shown}")
    return out


def test_reports_keep_their_bytes():
    record = json.loads(DIGESTS.read_text())
    moved = _moved(record["files"], _files())
    if moved and record["versions"] != _versions():
        moved.append(f"recorded with {record['versions']}, run with {_versions()}")
    assert not moved, "\n".join(moved)


def test_forked_batch_writes_the_recorded_bytes(tmp_path):
    # the reports and CSV tables cross a pipe from the worker processes of --jobs 2
    batch, out, csv = tmp_path / "batch", tmp_path / "out", tmp_path / "csv"
    batch.mkdir()
    for case in _workloads().generate("gns-mid", 4243):
        (batch / f"{case.name}.yaml").write_text(case.text)
    assert main(["run", str(batch), "--out", str(out), "--csv", str(csv), "--jobs", "2"]) == 0
    files = {f"gns-mid-4243/{p.name}": p.read_text() for d in (out, csv) for p in d.iterdir()}
    recorded = {path: entry for path, entry in json.loads(DIGESTS.read_text())["files"].items()
                if path.startswith("gns-mid-4243/")}
    moved = _moved(recorded, files)
    assert not moved, "\n".join(moved)


def test_a_moved_residual_is_named_with_its_line():
    files = {"demo/demo_gns.report.txt": "scenario kind = gns\nresidual = +1.0e-16\n"}
    record = _record(files)["files"]
    files["demo/demo_gns.report.txt"] = "scenario kind = gns\nresidual = +1.1e-16\n"
    files["demo/demo_new.report.txt"] = ""
    assert _moved(record, files) == ["demo/demo_gns.report.txt: line 2: 'residual = +1.1e-16'",
                                     "demo/demo_new.report.txt: not in the record"]
    assert _moved(record, {}) == ["demo/demo_gns.report.txt: no longer written"]


if __name__ == "__main__":
    record = _record(_files())
    DIGESTS.write_text(f'{{"versions": {json.dumps(record["versions"])},\n"files": {{\n'
                       + ",\n".join(f"{json.dumps(path)}: {json.dumps(entry)}"
                                    for path, entry in record["files"].items()) + "}}\n")
