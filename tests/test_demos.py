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
