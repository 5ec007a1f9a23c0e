"""Every script under demos/ runs to completion and prints something."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys, monkeypatch):
    # the sweep demo fans out over worker processes; two keep it small
    monkeypatch.setenv("UDWMI_WORKERS", "2")
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
