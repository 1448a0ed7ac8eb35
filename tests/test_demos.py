"""Smoke test of the demo that calls the cost model and best responses directly."""

import runpy
from pathlib import Path

DEMO = Path(__file__).resolve().parents[1] / "demos" / "closed_forms_vs_oracle.py"


def test_closed_forms_vs_oracle_demo_runs(capsys):
    runpy.run_path(str(DEMO), run_name="__main__")
    out = capsys.readouterr().out
    for section in ("CPU fraction", "offload fraction", "bandwidth shares"):
        assert section in out
