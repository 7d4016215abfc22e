"""The suite's pytest settings let a failing property report itself.

``pyproject.toml`` turns ``DeprecationWarning`` into an error. When a
hypothesis property fails, hypothesis's explain phase imports a library
that warns about a deprecated ``mypy_extensions`` name; without the one
exemption in ``filterwarnings`` that warning ends the session with an
INTERNALERROR, no falsifying example and no later test run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 10


def test_the_next_test():
    pass
'''


def test_a_failing_property_reports_and_the_next_test_runs(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    # only the hypothesis plugin: loading every installed plugin doubles the time
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-p", "hypothesis.extra.pytestplugin", "-q",
         "--hypothesis-seed=0", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"})
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
