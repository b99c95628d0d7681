"""Golden reports: every bundled scenario gives the recorded verdict and
detail for each task.  Timings are not compared.

The files in tests/golden hold run_scenario's JSON report without the
per-task seconds.  Rewrite them with ``python tests/test_golden.py`` only
when a verdict or a detail is meant to change.
"""

import json
from pathlib import Path

import pytest

from mfsym.cli import run_scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))


def _report(path: Path) -> dict:
    payload = json.loads(run_scenario(str(path)).to_json())
    for task in payload["tasks"]:
        del task["seconds"]
    del payload["schema"]
    return payload


def test_every_scenario_has_a_golden_report():
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == [p.name for p in SCENARIOS]


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_scenario_matches_golden_report(path):
    assert _report(path) == json.loads((GOLDEN / path.name).read_text())


if __name__ == "__main__":
    for path in SCENARIOS:
        (GOLDEN / path.name).write_text(
            json.dumps(_report(path), indent=2, sort_keys=True) + "\n")
