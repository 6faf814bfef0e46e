"""The suite's pytest settings let a failing hypothesis test report its example.

pyproject.toml turns every DeprecationWarning into an error. When a `@given`
test fails, hypothesis imports libcst to suggest a patch, and that import
warns that `mypy_extensions.TypedDict` is deprecated. Without the matching
`ignore` entry pytest stops with INTERNALERROR and prints no falsifying
example.
"""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5
"""


def test_failing_given_test_reports_its_example(tmp_path):
    (tmp_path / "test_small.py").write_text(FAILING_TEST)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "test_small.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_small(" in output
    assert "1 failed" in output
