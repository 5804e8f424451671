"""Differential mutation sweep: every number of a fixed set of scenario documents,
replaced in turn by each of a list of hostile values, parsed and run in process.

The documents are the seven demos and every 7th document of the benchmark's
kinds-small workload at seed 4243 (953 number tokens), and each token is
replaced by each of the 18 ``VALUES``: 17154 documents.  One line is printed
per document, naming the document, the token's index and the value, then its
outcome: ``report <SHA-256 of the report>``, or ``<error class>: <text>`` for
an ``OpalgError`` (the text holds the path and line of a schema error), or
``UNCAUGHT <class>: <text>`` for any other exception.  Numpy warnings raised
on the way are appended as ``| warned <categories>``.  Counts by outcome go to
stderr.  The name keeps pytest from collecting it; ``tests/test_mutation_gate.py``
runs the demos' share of it, with each demo line dropped and repeated in turn
(``line_edits``) and each pair of inline values made an anchor and its alias
(``alias_edits``), as a test.

Run it against two trees and compare the outputs:

    PYTHONPATH=src python tests/mutation_sweep.py > after.txt
    PYTHONPATH=<other checkout>/src python tests/mutation_sweep.py > before.txt
    diff before.txt after.txt
"""

import collections
import hashlib
import importlib.util
import itertools
import re
import sys
import warnings
from pathlib import Path

from opalg import OpalgError, parse_scenario, run_scenario
from opalg.scenarios import KINDS

SEED = 4243
STRIDE = 7
# a YAML number token: not part of a name such as z3 or M2, nor of a longer number
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")
# a line's inline value, after its indentation, an optional '- ' and an optional 'key: ';
# a key that opens a block ('densities:') holds none
INLINE_VALUE = re.compile(r"( *(?:- )?(?:\w+: )?)(?!- |\w+:$)(\S.*)")
VALUES = ("1e308", "-1e308", "1e-320", "0", "-0.0", ".nan", ".inf", "-.inf", "'x'", "true",
          "null", "[1]", "{a: 1}", "1e30", "-1e30", "2", "-1", "4301")


def _workloads():
    """The benchmark's scenario generator, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    sys.modules[spec.name] = importlib.util.module_from_spec(spec)   # its dataclasses look it up
    spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules[spec.name]


def documents():
    """(name, text) of each document the sweep mutates."""
    docs = [(f"demo_{kind}", KINDS[kind].demo) for kind in sorted(KINDS)]
    return docs + [(case.name, case.text)
                   for case in _workloads().generate("kinds-small", SEED)[::STRIDE]]


def mutants(text):
    """(token index, value, document) for each number token and each value."""
    for k, match in enumerate(NUMBER.finditer(text)):
        for value in VALUES:
            yield k, value, text[:match.start()] + value + text[match.end():]


def line_edits(text):
    """(line index, edit, document) for each line of ``text`` dropped, then repeated."""
    lines = text.splitlines(keepends=True)
    for k in range(len(lines)):
        yield k, "drop", "".join(lines[:k] + lines[k + 1:])
        yield k, "repeat", "".join(lines[:k + 1] + lines[k:])


def alias_edits(text):
    """(i, j, document) for each pair of lines i < j of ``text`` that hold an inline value:
    line i's value anchored as ``&a`` and line j's replaced by ``*a``."""
    lines = text.splitlines(keepends=True)
    values = [(k, match) for k, line in enumerate(lines)
              if (match := INLINE_VALUE.fullmatch(line.rstrip("\n")))]
    for (i, first), (j, second) in itertools.combinations(values, 2):
        edited = lines.copy()
        edited[i] = f"{first[1]}&a {first[2]}\n"
        edited[j] = f"{second[1]}*a\n"
        yield i, j, "".join(edited)


def attempt(text):
    """(report, result, warnings) of one document: its rendered report or None, its outcome
    before :func:`outcome` appends the warnings, and the warnings raised on the way."""
    report = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            report = run_scenario(parse_scenario(text)).render()
            result = "report " + hashlib.sha256(report.encode()).hexdigest()
        except OpalgError as exc:
            result = f"{type(exc).__name__}: {exc}"
        except Exception as exc:    # any other exception is a finding, printed as one
            result = f"UNCAUGHT {type(exc).__name__}: {exc}"
    return report, result, caught


def outcome(text) -> str:
    _, result, caught = attempt(text)
    if caught:
        result += " | warned " + ", ".join(sorted({w.category.__name__ for w in caught}))
    return result.replace("\n", "\\n")


def main() -> int:
    counts = collections.Counter()
    for name, text in documents():
        for k, value, mutant in mutants(text):
            result = outcome(mutant)
            print(f"{name} #{k} {value}: {result}")
            counts[result.split(" ", 1)[0].rstrip(":")] += 1
            counts["warned"] += " | warned " in result
    for key, count in sorted(counts.items()):
        sys.stderr.write(f"{key}: {count}\n")
    sys.stderr.write(f"documents: {sum(counts.values()) - counts['warned']}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
