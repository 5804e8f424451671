"""Fast smoke test of the benchmark itself (about half a minute).

Runs every workload at the tiny scale in both trace modes and checks that
every metric named in BENCHMARK.json is printed with its unit, that no
scenario failed, and that the traced span tree is well formed.  Run it from
the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py
    python3 perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _check(workload, trace):
    spec = _spec()
    names = spec["per_layer"] if trace else spec["end_to_end"]
    lines, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, "\n".join(lines[:-1])
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in names}
    for m in names:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line
                   for line in lines), m["name"]
    # failed_frac is printed by name and unit, and is 0 at seed
    assert any(line.startswith("failed_frac = 0 ratio") for line in lines)
    assert not any(line.startswith("# problem:") for line in lines)


def test_gns_mid():
    _check("gns-mid", 0)
    _check("gns-mid", 1)


def test_kinds_small():
    _check("kinds-small", 0)
    _check("kinds-small", 1)


def test_numerics_large():
    _check("numerics-large", 0)
    _check("numerics-large", 1)


def test_generator_is_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        first = [(c.name, c.text) for c in workloads.generate(name, 11, "tiny")]
        again = [(c.name, c.text) for c in workloads.generate(name, 11, "tiny")]
        other = [(c.name, c.text) for c in workloads.generate(name, 12, "tiny")]
        assert first == again
        assert [n for n, _ in first] == [n for n, _ in other]
        assert first != other


def test_span_tree_is_well_formed(tmp_path):
    from opalg import cli

    batch = tmp_path / "batch"
    batch.mkdir()
    for case in workloads.generate("kinds-small", 3, "tiny"):
        (batch / f"{case.name}.yaml").write_text(case.text)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["run", str(batch), "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.names and tracer.names[0] == "cli.main" and tracer.parents[0] == -1
    assert tracer.tree_problems() == []
    assert min(tracer.self_times()) >= 0
    for idx, parent in enumerate(tracer.parents):
        if parent >= 0:
            assert tracer.starts[parent] <= tracer.starts[idx] <= tracer.ends[idx] <= tracer.ends[parent]
    summary = tracer.summary()
    assert summary["scenarios.parse"]["calls"] == len(list(batch.iterdir()))
    # uninstall restores the untraced functions
    from opalg import gns, scenarios
    assert scenarios.gns_construct is gns.gns_construct
    assert not hasattr(gns.gns_construct, "__wrapped__")


if __name__ == "__main__":
    import tempfile

    test_generator_is_a_function_of_the_seed()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_smoke-") as tmp:
        test_span_tree_is_well_formed(Path(tmp))
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            _check(workload, trace)
            print(f"ok {workload} trace={trace}")
    print("smoke test passed")
