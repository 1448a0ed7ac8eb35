"""Smoke tests of the demos: each runs as a script and prints its report."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


def test_closed_forms_vs_oracle_demo_runs(capsys):
    out = run_demo("closed_forms_vs_oracle.py", capsys)
    for section in ("CPU fraction", "offload fraction", "bandwidth shares"):
        assert section in out


def test_cell_edge_profile_demo_runs(capsys):
    out = run_demo("cell_edge_profile.py", capsys)
    assert "converged after" in out
    assert "offloaded fraction" in out


def test_convergence_run_demo_runs(capsys):
    out = run_demo("convergence_run.py", capsys)
    assert "all users within their energy budgets: True" in out
