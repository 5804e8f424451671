"""A fixed slice of the mutation sweep (``tests/mutation_sweep.py``) as a gate.

Every number token of the seven demos and of the group demo with its table
written out replaced by each hostile value, every line of them dropped and
repeated in turn, and every pair of their inline values made an anchor and
its alias: each document must end in a report or an ``OpalgError``, with no
other exception, no numpy warning and no ``pass`` line that holds nan or inf.
"""

import re

import mutation_sweep
from opalg.scenarios import KINDS

NON_FINITE = re.compile(r"\b(nan|inf)\b")


# the group demo with Z3 as a table, so the mutants reach FiniteGroup's law checks
GROUP_TABLE = KINDS["group"].demo.replace("{name: z3}",
                                         "{table: [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}")


def demo_slice():
    """(name, document) of every number mutant, line edit and alias edit of each demo."""
    docs = [(f"demo_{kind}", KINDS[kind].demo) for kind in sorted(KINDS)]
    for name, text in docs + [("demo_group_table", GROUP_TABLE)]:
        for k, value, mutant in mutation_sweep.mutants(text):
            yield f"{name} #{k} {value}", mutant
        for k, edit, mutant in mutation_sweep.line_edits(text):
            yield f"{name} line {k} {edit}", mutant
        for i, j, mutant in mutation_sweep.alias_edits(text):
            yield f"{name} alias {i} {j}", mutant


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
    assert len(names) == len(set(names)) == 3079
