"""The suite's pytest configuration, run on a small test file in a fresh interpreter.

pyproject.toml turns every warning into an error.  A failing hypothesis test makes
hypothesis import libcst to print a suggested patch, and libcst warns on import; that
warning, as an error, once raised inside pytest's report hook, so one failing property
test ended the whole run with INTERNALERROR and the tests after it never ran.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = textwrap.dedent("""
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_fails(x):
        assert x < 0


    def test_passes():
        pass
""")


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
