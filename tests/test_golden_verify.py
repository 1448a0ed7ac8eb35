"""Golden certificates: ``verify.run_all(fast=True)`` against a stored recording.

The recording holds the name, verdict and detail line of every check, so a
change to an oracle, a closed form or an instance generator that moves any
printed figure shows up here. Regenerate it (only for an intended change of
the certificates) with

    PYTHONPATH=src python tests/test_golden_verify.py
"""

import dataclasses
import json
from pathlib import Path

import pytest

from mecfl import verify

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_verify_fast.json"


@pytest.fixture(scope="module")
def certificates():
    return verify.run_all(fast=True)


def record_certificates(checks) -> list[dict]:
    return [{"name": c.name, "passed": bool(c.passed), "detail": c.detail} for c in checks]


def test_verify_fast_matches_golden_certificates(certificates):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert record_certificates(certificates) == golden


def test_every_check_reports_a_plain_bool_and_serializes(certificates):
    assert len(certificates) == 4
    for check in certificates:
        assert type(check.passed) is bool, check.name
        assert json.loads(json.dumps(dataclasses.asdict(check)))["passed"] is True


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(record_certificates(verify.run_all(fast=True)), indent=1) + "\n")
