"""The suite's own pytest configuration: every warning is an error, but a
failing property test is reported as one failure and the session goes on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, deadline=None)
@given(st.integers(min_value=0, max_value=9))
def test_fails(x):
    assert x < 0


def test_runs_after():
    pass
'''


def test_a_failing_property_test_fails_alone(tmp_path):
    (tmp_path / "test_meta.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path / "test_meta.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1], proc.stdout
