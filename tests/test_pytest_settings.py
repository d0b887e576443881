"""The repository's pytest settings report every failure."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# One property test that fails and one plain test that passes.
PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_hides_no_other_test(tmp_path):
    # Under `filterwarnings = ["error"]` alone, a warning the Hypothesis
    # plugin raises while it reports a failure becomes an INTERNALERROR,
    # which ends the session before the falsifying example and the later
    # tests.  The run works in `tmp_path`, so Hypothesis writes its
    # database there.
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", str(probe)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
    assert "Falsifying example" in out, out
