"""Golden trace: a desk-scale run compared against a stored recording.

The recording holds every round's metrics and allocation of the proposed
scenario at ``desk_spec(seed=7)`` with the default stop rule, floats
written by ``repr``. A refactor that silently changes behaviour shows up
here. Regenerate it (only for an intended behaviour change) with

    PYTHONPATH=src python tests/test_golden_trace.py
"""

import json
from pathlib import Path

import numpy as np

from mecfl import io

from helpers import desk_spec

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_desk_seed7.json"
RTOL = 1e-12
ATOL = 1e-15

METRIC_FIELDS = ("t_local", "t_edge", "t_total", "e_total", "train_loss", "test_loss",
                 "weighted_score")
ALLOC_FIELDS = ("delta", "gamma", "uplink_offload", "uplink_weight",
                "lambda_offload", "lambda_local")


def _plain(value):
    return [float(v) for v in value] if isinstance(value, np.ndarray) else float(value)


def record_golden_run() -> dict:
    result = io.run_experiment(desk_spec(seed=7))
    return {
        "spec": "desk_spec(seed=7), scenario proposed, default stop rule",
        "converged": result.converged,
        "iterations_used": result.iterations_used,
        "rounds": [
            {"metrics": {name: _plain(getattr(m, name)) for name in METRIC_FIELDS},
             "alloc": {name: _plain(getattr(a, name)) for name in ALLOC_FIELDS}}
            for m, a in zip(result.trace, result.alloc_trace)
        ],
    }


def test_desk_seed7_matches_golden_trace():
    golden = json.loads(GOLDEN_PATH.read_text())
    fresh = record_golden_run()
    assert fresh["converged"] == golden["converged"]
    assert fresh["iterations_used"] == golden["iterations_used"]
    assert len(fresh["rounds"]) == len(golden["rounds"])
    for k, (new, old) in enumerate(zip(fresh["rounds"], golden["rounds"])):
        for group in ("metrics", "alloc"):
            for name, stored in old[group].items():
                np.testing.assert_allclose(new[group][name], stored, rtol=RTOL, atol=ATOL,
                                           err_msg=f"round {k} {group}.{name}")


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(record_golden_run(), indent=1) + "\n")
