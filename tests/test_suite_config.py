"""The suite's own pytest settings report every test's outcome."""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir,
                         "pyproject.toml")

FAILING_PROPERTY_THEN_PASSING_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_does_not_end_the_session(tmp_path):
    # hypothesis's report of a failing example must not turn a warning
    # into an INTERNALERROR that skips the tests after it
    path = tmp_path / "test_pair.py"
    path.write_text(FAILING_PROPERTY_THEN_PASSING_TEST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.abspath(PYPROJECT), str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert proc.returncode == 1
