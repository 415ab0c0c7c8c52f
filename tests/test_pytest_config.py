"""The repository's pytest settings must let a failing hypothesis test
report its falsifying example."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def test_hypothesis_failure_is_reported(tmp_path):
    # on a failure hypothesis imports libcst, whose import warns; under
    # "error" that warning ended the run with an INTERNALERROR
    (tmp_path / "test_fails.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 5
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
