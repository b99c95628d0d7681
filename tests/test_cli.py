"""Scenario parsing, the expression grammar, and the command line verbs."""

import json
import os

import pytest

from mfsym.scalars import Scalar
from mfsym.polys import Poly, RingSpec
from mfsym.cli import (
    parse_poly, group_from_spec, load_scenario, run_scenario, run_suite,
    ScenarioError, main, SCHEMA, REPORT_SCHEMA,
)


RING = RingSpec(("u", "v"), conductor=4)
SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def test_expression_grammar():
    u = Poly.variable(RING, "u")
    v = Poly.variable(RING, "v")
    assert parse_poly("u*v", RING) == u * v
    assert parse_poly("u^2 + 2*v", RING) == u * u + 2 * v
    assert parse_poly("u**2", RING) == u * u
    assert parse_poly("-u", RING) == -u
    assert parse_poly("(u + v)*(u - v)", RING) == u * u - v * v
    assert parse_poly("i*u", RING) == u * Scalar.i()
    assert parse_poly("zeta(8)^2", RING) == Poly.constant(RING, Scalar.i())
    from fractions import Fraction
    assert parse_poly("u/2", RING) == u * Scalar.from_rational(Fraction(1, 2))


def test_expression_errors():
    with pytest.raises(ScenarioError):
        parse_poly("u +", RING)
    with pytest.raises(ScenarioError):
        parse_poly("w", RING)
    with pytest.raises(ScenarioError):
        parse_poly("u/v", RING)
    with pytest.raises(ScenarioError):
        parse_poly("u $ v", RING)


def test_group_presets():
    g2 = group_from_spec("C(2)")
    assert g2.order == 2 and g2.grading == (1, -1)
    g4 = group_from_spec({"preset": "C(4)"})
    assert g4.order == 4
    d6 = group_from_spec("D(6)")
    assert d6.order == 6
    prod = group_from_spec({"product": ["C(2)", {"preset": "C(2)", "graded": False}]})
    assert prod.order == 4
    with pytest.raises(ScenarioError):
        group_from_spec("Q(8)")


def test_load_scenario_rejects_bad_schema(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"schema": "other/1"}))
    with pytest.raises(ScenarioError):
        load_scenario(str(p))
    p2 = tmp_path / "bad2.json"
    p2.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(str(p2))


def test_load_scenario_rejects_unknown_task(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "schema": SCHEMA,
        "ring": {"variables": ["x"]},
        "tasks": [{"op": "frobnicate"}],
    }))
    with pytest.raises(ScenarioError):
        load_scenario(str(p))


def test_bundled_scenarios_load():
    names = os.listdir(SCENARIO_DIR)
    assert len([n for n in names if n.endswith(".json")]) >= 4
    for n in names:
        if n.endswith(".json"):
            sc = load_scenario(os.path.join(SCENARIO_DIR, n))
            assert sc.tasks


def test_run_cohomology_scenario():
    rep = run_scenario(os.path.join(SCENARIO_DIR, "cohomology-hyperbolic.json"))
    assert rep.schema == REPORT_SCHEMA
    assert rep.ok
    payload = json.loads(rep.to_json())
    assert payload["ok"] is True
    assert len(payload["tasks"]) == 2


def test_run_orientifold_scenario():
    rep = run_scenario(os.path.join(SCENARIO_DIR, "orientifold-shifted-c2.json"))
    assert rep.ok
    names = [r.name for r in rep.results]
    assert "rank-one-orientifold" in names
    assert "double-knorrer" in names


def test_suite_signs_passes():
    # the heavier suites run through the acceptance gate and the CLI
    rep = run_suite("signs")
    assert rep.ok


def test_unknown_suite_rejected():
    with pytest.raises(ScenarioError):
        run_suite("nope")


def test_main_exit_codes(tmp_path):
    good = os.path.join(SCENARIO_DIR, "cohomology-hyperbolic.json")
    assert main(["validate", good]) == 0
    out = tmp_path / "report.json"
    assert main(["run", good, "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == REPORT_SCHEMA
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "other"}))
    assert main(["validate", str(bad)]) == 2


def test_main_failing_task_exits_one(tmp_path):
    p = tmp_path / "fail.json"
    p.write_text(json.dumps({
        "schema": SCHEMA,
        "name": "expected-failure",
        "ring": {"variables": ["u", "v"]},
        "potential": "u*v",
        "tasks": [{
            "op": "hom-cohomology",
            "d0": [["u"]], "d1": [["v"]],
            "cutoff": 3,
            "expect": [7, 7],
        }],
    }))
    assert main(["run", str(p)]) == 1


def test_suite_tasks_record_their_duration():
    import time
    t0 = time.monotonic()
    rep = run_suite("signs")
    wall = time.monotonic() - t0
    assert rep.results and all(r.seconds > 0 for r in rep.results)
    assert sum(r.seconds for r in rep.results) <= wall
