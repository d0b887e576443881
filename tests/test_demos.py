"""Every demo script runs to completion."""

from __future__ import annotations

import runpy
import tempfile
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    ["iterated_construction", "partial_product", "selfcheck_and_export", "variance_rules"],
)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    # Demos that write files put them under the test's own directory.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
