"""A fixed slice of the mutation sweep (``tests/mutation_sweep.py``) as a gate.

Every number token of the seven demos replaced by each hostile value, and
every demo line dropped and repeated in turn: each document must end in a
report or an ``OpalgError``, with no other exception, no numpy warning and no
``pass`` line that holds nan or inf.
"""

import re

import mutation_sweep
from opalg.scenarios import KINDS

NON_FINITE = re.compile(r"\b(nan|inf)\b")


def demo_slice():
    """(name, document) of every number mutant and line edit of each demo."""
    for kind in sorted(KINDS):
        text = KINDS[kind].demo
        for k, value, mutant in mutation_sweep.mutants(text):
            yield f"demo_{kind} #{k} {value}", mutant
        for k, edit, mutant in mutation_sweep.line_edits(text):
            yield f"demo_{kind} line {k} {edit}", mutant


def test_demo_mutants_end_in_a_report_or_an_opalg_error():
    findings = []
    names = []
    for name, text in demo_slice():
        names.append(name)
        report, result, caught = mutation_sweep.attempt(text)
        if result.startswith("UNCAUGHT"):
            findings.append(f"{name}: {result}")
        findings += [f"{name}: {w.category.__name__}: {w.message}" for w in caught]
        findings += [f"{name}: {line}" for line in (report or "").splitlines()
                     if line.endswith(" pass") and NON_FINITE.search(line)]
    assert findings == []
    assert len(names) == len(set(names)) == 2578
