#!/usr/bin/env python3
"""Which lines of ``src/ensad`` a pytest run never executes.

    PYTHONPATH=src python experiments/raise_reach.py --hypothesis-seed=0

Runs pytest in-process, with every argument passed through to it, under a
``sys.settrace`` line tracer that records the lines each function of
``src/ensad`` executes. Then it prints one line per ``raise`` statement
that never ran, and one per other function-body line that never ran,
followed by their counts. A function-body line is a line that holds
bytecode of a function, method, lambda or comprehension; module and class
bodies, which run on import, are left out.

Tests that start Python in a subprocess (``tests/test_cli.py``'s console
script check, ``tests/test_perfbench_smoke.py``) are not traced: a line
that only they run is reported as unrun.

Traced, the suite takes about 1.5 times as long (80 s against 54 s on two
cores, Python 3.11), too long for every run. A change that adds a
``raise`` runs this script with ``--hypothesis-seed=0``, so that property
tests draw the same examples and the report is the same each run, and
quotes its output.
Exits with pytest's code when that is not 0, else 1 when it prints any
unrun line, else 0.
"""

import ast
import inspect
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ensad"


def code_lines(code: types.CodeType, in_function: bool = False) -> set:
    """The lines holding bytecode of ``code``'s functions, nested ones
    included, and of ``code`` itself when ``in_function``."""
    lines = {line for _, _, line in code.co_lines() if line is not None} if in_function else set()
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const, in_function or bool(const.co_flags & inspect.CO_OPTIMIZED))
    return lines


def body_lines(path: Path) -> tuple:
    """``({first line: lines} of each raise statement, other function-body
    lines)`` of the module at ``path``; a raise's lines are those of its
    statement that hold bytecode."""
    source = path.read_text(encoding="utf-8")
    body = code_lines(compile(source, str(path), "exec"))
    raises = {node.lineno: body.intersection(range(node.lineno, node.end_lineno + 1))
              for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)}
    raises = {first: lines for first, lines in raises.items() if lines}
    return raises, body.difference(*raises.values())


def report(hits: dict, paths: list) -> list:
    """The report lines for the modules at ``paths``, given ``hits``,
    ``{module path: set of executed lines}``: every raise none of whose
    lines ran, then every other unrun function-body line, then the counts."""
    unreached, unrun = [], []
    for path in paths:
        raises, others = body_lines(path)
        ran = hits.get(str(path), set())
        unreached += [f"unreached raise: {path.name}:{first}"
                      for first, lines in sorted(raises.items()) if not lines & ran]
        unrun += [f"unrun line: {path.name}:{line}" for line in sorted(others - ran)]
    return unreached + unrun + [
        f"{len(unreached)} unreached raises and {len(unrun)} other unrun "
        f"function-body lines in {len(paths)} modules (tests run in a subprocess are not traced)"]


class LineTracer:
    """A pytest plugin that records the lines run in the files under
    ``package``, keyed by each file's resolved path."""

    def __init__(self, package: Path):
        self.package = str(package.resolve()) + os.sep
        self.hits = {}
        self._local = {}  # code file name -> its line tracer, or None

    def _tracer_for(self, filename: str):
        path = os.path.realpath(filename)
        if not path.startswith(self.package):
            return None
        lines = self.hits.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        local = self._local.get(filename, False)
        if local is False:
            local = self._local[filename] = self._tracer_for(filename)
        if local is not None:
            local(frame, "line", arg)  # a call event fires on a line that runs
        return local

    @pytest.hookimpl(tryfirst=True)
    def pytest_sessionstart(self, session):
        threading.settrace(self.trace)
        sys.settrace(self.trace)

    @pytest.hookimpl(trylast=True)
    def pytest_sessionfinish(self, session, exitstatus):
        sys.settrace(None)
        threading.settrace(None)


def main() -> int:
    tracer = LineTracer(PACKAGE)
    code = pytest.main(sys.argv[1:], plugins=[tracer])
    lines = report(tracer.hits, sorted(PACKAGE.glob("*.py")))
    print("\n".join(lines))
    if code != 0:
        return int(code)
    return 1 if len(lines) > 1 else 0


if __name__ == "__main__":
    sys.exit(main())
