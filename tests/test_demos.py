"""Smoke tests of the demos: every script under ``demos/`` runs and prints its report."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# Lines each demo's report must contain; a demo not listed here only has to run.
EXPECTED = {
    "closed_forms_vs_oracle": ("CPU fraction", "offload fraction", "bandwidth shares"),
    "cell_edge_profile": ("converged after", "offloaded fraction"),
    "convergence_run": ("all users within their energy budgets: True",),
    "offload_sweep": ("delta", "test loss", "t_local center"),
}


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda path: path.stem)
def test_demo_runs(demo, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(demo)])   # no arguments: nothing is written
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    for text in EXPECTED.get(demo.stem, ()):
        assert text in out


def test_offload_sweep_takes_one_csv_path(tmp_path, monkeypatch):
    demo = str(DEMOS / "offload_sweep.py")
    monkeypatch.chdir(tmp_path)
    for argv in (["-q"], ["out.csv", "extra.csv"]):
        monkeypatch.setattr(sys, "argv", [demo, *argv])
        with pytest.raises(SystemExit) as stop:
            runpy.run_path(demo, run_name="__main__")
        assert stop.value.code == 2
        assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr(sys, "argv", [demo, "out.csv"])
    runpy.run_path(demo, run_name="__main__")
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert len(lines) == 12 and lines[0].startswith("scenario,value,")
