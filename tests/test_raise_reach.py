"""``experiments/raise_reach.py`` on a toy module: which lines its report
names for a given set of executed lines, and what its tracer records,
without starting a nested pytest run."""

import importlib.util
import sys
from pathlib import Path

from test_protocol import load_experiment

raise_reach = load_experiment("raise_reach")

# line numbers: 6 def check, 7 if, 8-9 raise, 10 return; 13 class Box,
# 14 size, 16 def grow, 17 if, 18 raise, 19 return with a comprehension
TOY = '''\
import os

LIMIT = 3


def check(x):
    if x < 0:
        raise ValueError(
            f"x is {x}")
    return x


class Box:
    size = 2

    def grow(self, n):
        if n > LIMIT:
            raise ValueError("too big")
        return [i for i in range(n)]
'''
COUNTS = "in 1 modules (tests run in a subprocess are not traced)"


def toy(tmp_path) -> Path:
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    return path.resolve()


def test_the_report_names_each_unreached_raise_by_its_first_line(tmp_path):
    path = toy(tmp_path)
    assert raise_reach.report({str(path): {6, 7, 10, 16, 17, 19}}, [path]) == [
        "unreached raise: toy.py:8", "unreached raise: toy.py:18",
        f"2 unreached raises and 0 other unrun function-body lines {COUNTS}"]


def test_a_raise_counts_as_reached_when_any_of_its_lines_ran(tmp_path):
    path = toy(tmp_path)
    assert raise_reach.report({str(path): {6, 7, 9, 10, 16, 17, 18, 19}}, [path]) == [
        f"0 unreached raises and 0 other unrun function-body lines {COUNTS}"]


def test_module_and_class_bodies_are_not_function_body_lines(tmp_path):
    # nothing ran: lines 1, 3, 13 and 14 run on import and are not reported
    path = toy(tmp_path)
    assert raise_reach.report({}, [path]) == [
        "unreached raise: toy.py:8", "unreached raise: toy.py:18",
        *(f"unrun line: toy.py:{line}" for line in (6, 7, 10, 16, 17, 19)),
        f"2 unreached raises and 6 other unrun function-body lines {COUNTS}"]


def test_the_tracer_records_the_lines_each_call_runs(tmp_path):
    path = toy(tmp_path)
    spec = importlib.util.spec_from_file_location("toy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = raise_reach.LineTracer(tmp_path)
    previous = sys.gettrace()  # the tracer of a run of raise_reach.py itself
    sys.settrace(tracer.trace)
    try:
        module.check(1)
        module.Box().grow(2)
    finally:
        sys.settrace(previous)
    assert raise_reach.report(tracer.hits, [path]) == [
        "unreached raise: toy.py:8", "unreached raise: toy.py:18",
        f"2 unreached raises and 0 other unrun function-body lines {COUNTS}"]
