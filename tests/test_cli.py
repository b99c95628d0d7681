"""Scenario parsing, the expression grammar, and the command line verbs."""

import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mfsym.scalars import Scalar
from mfsym.polys import Poly, RingSpec
from mfsym.real import RealStruct
from mfsym.orientifold import ContraRealStruct
import mfsym.cli as cli
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
    # an odd C(n) without a graded field is ungraded, as before
    assert group_from_spec("C(3)").grading == (1, 1, 1)
    assert group_from_spec({"preset": "C(3)"}).grading == (1, 1, 1)
    with pytest.raises(ScenarioError):
        group_from_spec("Q(8)")


@pytest.mark.parametrize("group", [
    {"labels": ["e", "g"], "table": [[0, 1], [1, 0]], "identity": False, "grading": [1, -1]},
    {"labels": ["e", "g"], "table": [[0, 1], [1, 0]], "identity": "0", "grading": [1, -1]},
    {"preset": "C(2)", "graded": "no"},
    {"preset": "C(2)", "graded": 0},
], ids=["identity-false", "identity-string", "graded-string", "graded-integer"])
def test_group_fields_are_not_coerced(tmp_path, group):
    """A table's identity must be a JSON integer and a preset's graded a
    JSON boolean: int() and bool() read false as 0 and "no" as true."""
    p = tmp_path / "group.json"
    p.write_text(json.dumps({"schema": SCHEMA, "ring": {"variables": ["u"]}, "group": group}))
    with pytest.raises(ScenarioError):
        load_scenario(str(p))


@pytest.mark.parametrize("conductor, shown", [(True, "true"), (4.7, "4.7"), ("12", '"12"'),
                                               ([4], "[4]"), (None, "null")],
                         ids=["true", "float", "string", "list", "null"])
def test_ring_conductor_is_not_coerced(tmp_path, capsys, conductor, shown):
    """int() read true as 1, 4.7 as 4 and "12" as 12, and [4] gave a raw
    TypeError message that did not name the conductor.  The conductor is
    named by its place in the file, and the value shown as it is written
    there, not as a Python repr (True, None, '12')."""
    p = tmp_path / "ring.json"
    p.write_text(json.dumps({"schema": SCHEMA, "potential": "u",
                             "ring": {"variables": ["u"], "conductor": conductor}}))
    assert main(["validate", str(p)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {p}: ring.conductor must be a positive integer up to "
                     f"{cli.MAX_CONDUCTOR}, got {shown}"], lines


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
    rep = run_suite("signs")
    assert rep.ok


def test_suite_all_passes_every_task():
    rep = run_suite("all")
    assert [(r.name, r.ok) for r in rep.results] == [(name, True) for name in (
        "signs:hom-differential-squares-to-zero", "signs:double-shift-identity",
        "signs:double-dual-and-grading-isos", "signs:tensor-isos-closed-invertible",
        "real:catalog-structures-verify", "real:knorrer-images-verify",
        "orientifold:terminal-shifted-witness", "orientifold:order-four-plain-witness",
        "orientifold:twist-is-2-cocycle",
        "orientifold:theta-cocycle", "orientifold:knorrer-coherence-and-verify",
        "orientifold:double-knorrer-roundtrip", "orientifold:duality-and-comparison",
        "orientifold:hyperbolic-transport", "clifford:modules-validate",
        "clifford:bridge-hom-dims-agree", "clifford:bridge-commutes-with-twist",
        "clifford:signature-fixed-points",
        "clifford:graded-tensor-isos", "cohomology:hyperbolic-dims",
        "cohomology:contractible-dims", "cohomology:knorrer-preserves-dims",
        "cohomology:potential-null-homotopy-witness",
    )]


def test_orientifold_suite_without_a_witness_names_the_group_and_variant(monkeypatch):
    """Without its sign twist the C2 shifted action has no rank-one
    structure, so the witness task fails and the tasks on it are skipped."""
    monkeypatch.setattr(cli, "universal_sign_cocycle", lambda group: None)
    results = {r.name: r for r in run_suite("orientifold").results}
    assert list(results) == ["terminal-shifted-witness", "order-four-plain-witness",
                             "hyperbolic-transport"]
    assert [r.index for r in results.values()] == [0, 1, 2]
    missing = results["terminal-shifted-witness"]
    assert not missing.ok and missing.detail == {
        "failed": {"identity": "no witness", "at": ["C2", "shifted"], "term": None}}
    assert results["order-four-plain-witness"].ok


def _negate_first_component(s):
    """s with u_e scaled by -1: a Real structure that fails u_e = id."""
    return RealStruct(s.base, s.action, (s.u[0].scale(-Scalar.one()), *s.u[1:]), s.twist)


def _negate_knorrer_unit(step):
    """The contravariant Knoerrer step with u_e of its image scaled by -1."""
    def mutated(s):
        out, coherent = step(s)
        u = {**out.u, 0: out.u[0].scale(-Scalar.one())}
        return ContraRealStruct(out.base, out.rep, u), coherent
    return mutated


# suite: (cli name, its mutation, the task that fails, its identity and place)
SUITE_MUTATIONS = {
    "signs": ("is_closed", lambda f: lambda mor: False, "double-dual-and-grading-isos",
              "closed isomorphism", ["hyperbolic-uv", "double dual"]),
    "real": ("real_knorrer", lambda f: lambda s: _negate_first_component(f(s)),
             "knorrer-images-verify", "u_e = id", ["g0"]),
    "orientifold": ("orientifold_knorrer", _negate_knorrer_unit,
                    "knorrer-coherence-and-verify", "u_e = id", ["g0"]),
    "clifford": ("module_validate", lambda f: lambda m: [(0, 0)], "modules-validate",
                 "module relations", ["spinor"]),
    "cohomology": ("hom_cohomology",
                   lambda f: lambda M, N, c: dataclasses.replace(f(M, N, c), stable=False),
                   "hyperbolic-dims", "cohomology dims", ["(u, v)", "cutoff 3", "dims [1, 0]"]),
}


@pytest.mark.parametrize("suite", sorted(SUITE_MUTATIONS))
def test_a_mutated_suite_task_names_what_failed(monkeypatch, suite):
    """A failing suite task records the identity and the place that
    failed; before, a task of a boolean check recorded nothing."""
    name, mutate, task, identity, at = SUITE_MUTATIONS[suite]
    monkeypatch.setattr(cli, name, mutate(getattr(cli, name)))
    results = {r.name: r for r in run_suite(suite).results}
    failed = results[task].detail["failed"]
    assert not results[task].ok and (failed["identity"], failed["at"]) == (identity, at)
    assert all(r.detail for r in results.values() if not r.ok)


def _counted_searches(monkeypatch):
    calls = []
    search = cli.rank_one_contra_condition

    def counted(rep):
        calls.append(1)
        return search(rep)

    monkeypatch.setattr(cli, "rank_one_contra_condition", counted)
    return calls


def test_contravariant_tasks_of_a_run_share_one_witness_search(monkeypatch):
    """Each task searched the witness again: 9 searches over both bundled
    orientifold scenarios."""
    calls = _counted_searches(monkeypatch)
    for name in ("orientifold-plain-c4.json", "orientifold-shifted-c2.json"):
        assert run_scenario(os.path.join(SCENARIO_DIR, name)).ok
    assert len(calls) == 2


def test_every_task_on_a_missing_witness_gives_the_same_error(tmp_path, monkeypatch):
    """The plain C2 action u -> -u has no rank-one structure."""
    ops = ["theta-cocycle", "orientifold-knorrer", "double-knorrer", "duality-suite"]
    p = tmp_path / "none.json"
    p.write_text(json.dumps({
        "schema": SCHEMA, "ring": {"variables": ["u", "v"]}, "potential": "u*v",
        "group": "C(2)", "setting": "contravariant", "variant": "plain",
        "action": [["u", "v"], ["-u", "v"]],
        "tasks": [{"op": "rank-one-orientifold", "expect": "none"}, *({"op": op} for op in ops)]}))
    calls = _counted_searches(monkeypatch)
    first, *rest = run_scenario(str(p)).results
    assert first.ok and first.detail == {"found": False}
    assert [(r.name, r.ok, r.detail) for r in rest] == [
        (op, False, {"error": "no rank-one structure exists for this action"}) for op in ops]
    assert len(calls) == 1


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
    # and once each through a fresh interpreter, the one true run of exit
    # codes 0 and 2
    run = _cli(["run", good])
    assert run.returncode == 0 and not run.stderr, run.stderr
    run = _cli(["validate", str(bad)])
    assert run.returncode == 2 and "Traceback" not in run.stderr
    assert len(run.stderr.splitlines()) == 1, run.stderr


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
    # and once through a fresh interpreter, the one true run of exit code 1
    run = _cli(["run", str(p)])
    assert run.returncode == 1 and not run.stderr, run.stderr


def test_suite_tasks_record_their_duration():
    import time
    t0 = time.monotonic()
    rep = run_suite("signs")
    wall = time.monotonic() - t0
    assert rep.results and all(r.seconds > 0 for r in rep.results)
    assert sum(r.seconds for r in rep.results) <= wall


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _cli(args):
    """Run the command line in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "mfsym.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def _in_process(argv):
    """(exit code, stdout, stderr) of main(argv) in this interpreter."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _probe(request, tmp_path, optimize, key):
    """(argv, exit code, stdout, stderr) of the probe PROBES[key]: written
    to tmp_path and run in-process through main, or under -O taken from the
    one optimized interpreter that runs every probe (optimized_runs)."""
    if optimize:
        return request.getfixturevalue("optimized_runs")[key]
    argv = PROBES[key](tmp_path)
    return (argv, *_in_process(argv))


BAD_RANK_ONE = {
    "rank-one-orientifold": {
        "ring": {"variables": ["u", "v"]}, "potential": "u*v + u^3",
        "setting": "contravariant", "variant": "shifted",
        "action": [["u", "v"], ["-u", "v"]],
    },
    "rank-one-real": {
        "ring": {"variables": ["u", "v", "t"]}, "potential": "u*v",
        "setting": "antilinear",
        "action": [["u", "v", "t"], ["u", "v", "t"]],
    },
}


def _bad_rank_one_probe(folder, op):
    p = folder / "bad.json"
    p.write_text(json.dumps({
        "schema": SCHEMA, "name": "bad-rank-one", "group": {"preset": "C(2)"},
        **BAD_RANK_ONE[op],
        "tasks": [{"op": op}, {"op": "hyperbolic-transport"}],
    }))
    return ["run", str(p), "--json", str(folder / "report.json")]


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
@pytest.mark.parametrize("op", sorted(BAD_RANK_ONE))
def test_bad_rank_one_task_reports_error_and_later_tasks_run(tmp_path, request, op, optimize):
    argv, code, out, err = _probe(request, tmp_path, optimize, ("rank-one", op))
    assert "Traceback" not in out + err
    assert code == 2
    tasks = json.loads(Path(argv[-1]).read_text())["tasks"]
    assert not tasks[0]["ok"] and "error" in tasks[0]["detail"]
    assert tasks[1]["ok"]


def _duplicate_variables_probe(folder):
    p = folder / "dup.json"
    p.write_text(json.dumps({"schema": SCHEMA, "ring": {"variables": ["x", "x"]},
                             "potential": "x^2"}))
    return ["validate", str(p)]


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_validate_rejects_duplicate_variables(tmp_path, request, optimize):
    _, code, _, err = _probe(request, tmp_path, optimize, ("duplicate-variables",))
    assert code == 2
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


C2_CONTRAVARIANT = {"group": "C(2)", "setting": "contravariant",
                    "action": [["u", "v"], ["-u", "v"]]}
HYPERBOLIC = {"d0": [["u"]], "d1": [["v"]]}
C2_SHIFTED = {**C2_CONTRAVARIANT, "variant": "shifted", "twist": "universal-sign"}


def _one_task(op, fields, params):
    """A scenario in u, v with potential u*v and the given fields that runs one task."""
    return {"schema": SCHEMA, "ring": {"variables": ["u", "v"]}, "potential": "u*v", **fields,
            "tasks": [{"op": op, **params}]}


ANTILINEAR_UV = {
    "schema": SCHEMA, "ring": {"variables": ["u", "v"]}, "potential": "u*v", "group": "C(2)",
    "setting": "antilinear", "action": [["u", "v"], ["-u", "-v"]],
    "tasks": [{"op": "rank-one-real"}, {"op": "real-knorrer"}, {"op": "validate-action"}]}

BAD_SCENARIOS = {
    "zeta-order-zero": {"schema": SCHEMA, "ring": {"variables": ["u", "v"]},
                        "potential": "zeta(0)*u*v"},
    "division-by-zero": {"schema": SCHEMA, "ring": {"variables": ["u", "v"]},
                         "potential": "u/0"},
    "conductor-zero": {"schema": SCHEMA, "ring": {"variables": ["u", "v"], "conductor": 0},
                       "potential": "u*v"},
    "conductor-null": {"schema": SCHEMA, "ring": {"variables": ["u", "v"], "conductor": None},
                       "potential": "u*v"},
    "top-level-list": [{"schema": SCHEMA, "ring": {"variables": ["u", "v"]},
                        "potential": "u*v"}],
    "deep-parentheses": {"schema": SCHEMA, "ring": {"variables": ["u", "v"]},
                         "potential": "(" * 3000 + "u*v" + ")" * 3000},
    # ActionSpec reads its ring off the identity's first image
    "action-without-variables": {"schema": SCHEMA, "ring": {"variables": []},
                                 "group": "C(2)", "setting": "contravariant",
                                 "action": [[], []], "tasks": [{"op": "theta-cocycle"}]},
    "empty-group": {"schema": SCHEMA, "ring": {"variables": ["u", "v"]}, "potential": "u*v",
                    "group": "C(0)", "setting": "contravariant", "action": [],
                    "tasks": [{"op": "validate-action"}]},
    # given as text, since json.dumps cannot nest this deep; the group
    # probe fails in JSON parsing or in group building, whichever recursion
    # limit the interpreter reaches first
    "deep-json": f'{{"schema": "{SCHEMA}", "ring": {{"variables": ["u"]}}, "x": '
                 + "[" * 100000 + "]" * 100000 + "}",
    "deep-group-product": f'{{"schema": "{SCHEMA}", "ring": {{"variables": ["u"]}}, "group": '
                          + '{"product": [' * 700 + '"C(2)"' + "]}" * 700 + "}",
    # ring.variables must be a list of distinct names the grammar can read
    "variables-string": {"schema": SCHEMA, "ring": {"variables": "uv"}, "potential": "u*v"},
    "variables-numbers": {"schema": SCHEMA, "ring": {"variables": [1, 2]}},
    "variables-not-names": {"schema": SCHEMA, "ring": {"variables": ["u v", "2w"]}},
    "variable-i": {"schema": SCHEMA, "ring": {"variables": ["i", "v"]}, "potential": "i*v"},
    "variable-zeta": {"schema": SCHEMA, "ring": {"variables": ["zeta", "v"]}},
    "group-graded-string": {"schema": SCHEMA, "ring": {"variables": ["u"]},
                            "group": {"preset": "C(2)", "graded": "no"}},
    # size bounds
    "group-order-preset": {"schema": SCHEMA, "ring": {"variables": ["u"]}, "group": "C(128)"},
    "group-order-table": {"schema": SCHEMA, "ring": {"variables": ["u"]},
                          "group": {"labels": [f"g{k}" for k in range(65)],
                                    "table": [[(j + k) % 65 for k in range(65)]
                                              for j in range(65)],
                                    "identity": 0, "grading": [1] * 65}},
    "group-order-product": {"schema": SCHEMA, "ring": {"variables": ["u"]},
                            "group": {"product": ["D(16)", "C(8)"]}},
    "power-monomials": {"schema": SCHEMA, "ring": {"variables": ["u", "v"]},
                        "potential": "(u+v+1)^64"},
    "chained-power": {"schema": SCHEMA, "ring": {"variables": ["u", "v"]},
                      "potential": "(u+v)^20^20"},
    "product-monomials": {"schema": SCHEMA, "ring": {"variables": ["u", "v"]},
                          "potential": "(u+v+1)^30*(u+v+1)^30*(u+v+1)^30"},
    "expression-monomials": {"schema": SCHEMA, "ring": {"variables": ["u", "v"]},
                             "potential": "+".join(["(u+v+1)^15*(u+v+1)^15"] * 3)},
    "constant-power": {"schema": SCHEMA, "ring": {"variables": ["u"]},
                       "potential": "2^1000000*u"},
    "zeta-order": {"schema": SCHEMA, "ring": {"variables": ["u"]},
                   "potential": "u/(zeta(720) + 1)"},
    "zeta-orders-together": {"schema": SCHEMA, "ring": {"variables": ["u"]},
                             "potential": "i*zeta(359)*u"},
    "ring-conductor": {"schema": SCHEMA, "ring": {"variables": ["u"], "conductor": 10 ** 9},
                       "potential": "u"},
    # each expression is within the bound, their lcm with the ring's is not
    "zeta-orders-across-fields": {"schema": SCHEMA,
                                  "ring": {"variables": ["u", "v"], "conductor": 1},
                                  "potential": "zeta(359)*u*v", "group": "C(2)",
                                  "setting": "contravariant",
                                  "action": [["u", "v"], ["i*v", "-i*u"]]},
    "zeta-order-with-the-ring": {"schema": SCHEMA, "ring": {"variables": ["u"]},
                                 "potential": "zeta(359)*u"},
    "long-integer": {"schema": SCHEMA, "ring": {"variables": ["u"]},
                     "potential": "9" * 5000 + "*u"},
    # a table is checked against its own size: n distinct string labels,
    # n rows of n element indices, n gradings each 1 or -1
    **{f"group-{case}": {"schema": SCHEMA, "ring": {"variables": ["u"]},
                         "group": {"labels": ["e", "g"], "table": [[0, 1], [1, 0]],
                                   "identity": 0, "grading": [1, -1], **fields}}
       for case, fields in {
           "grading-zero": {"grading": [0, 0]},
           "grading-bools": {"grading": [True, True]},
           "grading-three-values": {"grading": [1, -1, 1]},
           "table-third-row": {"table": [[0, 1], [1, 0], [0, 1]]},
           "table-extra-column": {"table": [[0, 1, 0], [1, 0, 1]]},
           "labels-duplicate": {"labels": ["e", "e"]},
       }.items()},
    # misspelled fields are refused, not ignored, in every kind of object
    "scenario-field": {"schema": SCHEMA, "ring": {"variables": ["u", "v"]},
                       "potential": "u*v", "twsit": "universal-sign"},
    "ring-field": {"schema": SCHEMA, "ring": {"variables": ["u"], "conductr": 8}},
    "group-preset-field": {"schema": SCHEMA, "ring": {"variables": ["u"]},
                           "group": {"preset": "C(2)", "grade": False}},
    "group-table-field": {"schema": SCHEMA, "ring": {"variables": ["u"]},
                          "group": {"labels": ["e", "g"], "table": [[0, 1], [1, 0]],
                                    "identity": 0, "grading": [1, -1], "order": 2}},
    "group-product-field": {"schema": SCHEMA, "ring": {"variables": ["u"]},
                            "group": {"product": ["C(2)"], "graded": False}},
    "task-field": {"schema": SCHEMA, "ring": {"variables": ["u", "v"]}, "potential": "u*v",
                   "tasks": [{"op": "hom-cohomology", "d0": [["u"]], "d1": [["v"]],
                              "cutof": 99, "expct": [5, 5]}]},
    # only contravariant tasks read the variant and the twist: elsewhere they
    # are refused, not ignored (this sign-twisted witness fails its Real
    # cocycle law at (g1, g1) once the twist is read)
    "antilinear-twist": {**ANTILINEAR_UV, "twist": "universal-sign"},
    "antilinear-variant": {**ANTILINEAR_UV, "variant": "plain"},
    "twist-without-setting": {"schema": SCHEMA, "ring": {"variables": ["u", "v"]},
                              "potential": "u*v", "group": "C(2)", "twist": "universal-sign"},
    "variant-without-setting": {"schema": SCHEMA, "ring": {"variables": ["u", "v"]},
                                "potential": "u*v", "variant": "shifted"},
    # an expression is a JSON string, not a number read through str(), and a
    # name is a string
    "potential-number": {"schema": SCHEMA, "ring": {"variables": ["u", "v"]}, "potential": 0},
    "action-image-number": {**ANTILINEAR_UV, "action": [["u", "v"], [1, "-v"]]},
    "name-list": {"schema": SCHEMA, "name": ["a", 1], "ring": {"variables": ["u", "v"]},
                  "potential": "u*v"},
    # a preset's graded field is read, not ignored, and null is no enum value
    "group-graded-odd-cyclic": {"schema": SCHEMA, "ring": {"variables": ["u"]},
                                "group": {"preset": "C(3)", "graded": True}},
    "group-ungraded-dihedral": {"schema": SCHEMA, "ring": {"variables": ["u"]},
                                "group": {"preset": "D(4)", "graded": False}},
    "setting-null": {"schema": SCHEMA, "ring": {"variables": ["u"]}, "setting": None},
    "variant-null": {"schema": SCHEMA, "ring": {"variables": ["u"]},
                     "setting": "contravariant", "variant": None},
    # task parameters are read with the scenario: a value of the wrong type or
    # range is refused before any task runs
    **{case: _one_task(*spec) for case, spec in {
        "cutoff-string": ("hom-cohomology", {}, {**HYPERBOLIC, "cutoff": "3"}),
        "cutoff-zero": ("hom-cohomology", {}, {**HYPERBOLIC, "cutoff": 0}),
        "d1-number": ("hom-cohomology", {}, {"d0": [["u"]], "d1": 5}),
        "d0-ragged": ("null-homotopy-scale", {}, {"d0": [["u"], ["v", "u"]], "d1": [["v"]]}),
        "d0-number": ("null-homotopy-scale", {"potential": "u"}, {"d0": [[1]], "d1": [["u"]]}),
        "expect-number": ("hom-cohomology", {}, {**HYPERBOLIC, "expect": 5}),
        "expect-strings": ("hom-cohomology", {}, {**HYPERBOLIC, "expect": ["a", "b"]}),
        "expect-short": ("hom-cohomology", {}, {**HYPERBOLIC, "expect": [1]}),
        "expect-bool": ("hom-cohomology", {}, {**HYPERBOLIC, "expect": [True, False]}),
        "expect-unknown": ("rank-one-orientifold", C2_SHIFTED, {"expect": "nope"}),
        "expect-null": ("rank-one-orientifold", C2_SHIFTED, {"expect": None}),
        "iterations-bool": ("eightfold-consistency", {}, {"iterations": True}),
        "iterations-float": ("eightfold-consistency", {}, {"iterations": 2.5}),
        "iterations-zero": ("eightfold-consistency", {}, {"iterations": 0}),
        "iterations-past-bound": ("eightfold-consistency", {},
                                  {"iterations": cli.MAX_ITERATIONS + 1}),
    }.items()},
}


def _bad_scenario_probe(folder, probe):
    p = folder / "bad.json"
    spec = BAD_SCENARIOS[probe]
    p.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    return ["run", str(p)]


# Runs main(argv) in-process for each argv of the JSON list on stdin, and
# prints a JSON object: the interpreter's optimize flag, and per argv the
# exit code (null where main raised), stdout and stderr, a traceback included.
_RUN_EACH = """
import contextlib, io, json, sys, traceback
sys.path[:0] = [sys.argv[1]]
from mfsym.cli import main
runs = []
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()) as out, \\
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except Exception:
            code = None
            traceback.print_exc()
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"optimize": sys.flags.optimize, "runs": runs}))
"""


@pytest.fixture(scope="module")
def optimized_runs(tmp_path_factory):
    """key -> (argv, exit code, stdout, stderr) of every probe of PROBES, all
    in one interpreter under -O, where asserts are stripped; each probe
    writes its files to a folder of its own."""
    folder = tmp_path_factory.mktemp("probes-O")
    argvs = {}
    for n, (key, write) in enumerate(PROBES.items()):
        (folder / str(n)).mkdir()
        argvs[key] = write(folder / str(n))
    host = subprocess.run([sys.executable, "-O", "-c", _RUN_EACH, SRC],
                          input=json.dumps(list(argvs.values())),
                          capture_output=True, text=True, timeout=600)
    assert host.returncode == 0, host.stderr
    report = json.loads(host.stdout)
    assert report["optimize"] == 1
    return {key: (argv, *run) for (key, argv), run in zip(argvs.items(), report["runs"])}


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
@pytest.mark.parametrize("probe", sorted(BAD_SCENARIOS))
def test_bad_scenario_gives_one_error_line(tmp_path, request, probe, optimize):
    """Without -O, validate and run each go in-process through main; with
    -O, run goes through main in one fresh interpreter for all probes
    (optimized_runs)."""
    if optimize:
        _, code, out, err = request.getfixturevalue("optimized_runs")[("bad", probe)]
        assert code == 2, out + err
        errors = [err]
    else:
        _, path = _bad_scenario_probe(tmp_path, probe)
        errors = []
        for verb in ("validate", "run"):
            code, out, err = _in_process([verb, path])
            assert code == 2, verb
            assert not out, (verb, out)
            errors.append(err)
    for err in errors:
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines


@pytest.mark.parametrize("probe, field", [("potential-number", "potential"),
                                          ("action-image-number", "action[1][0]"),
                                          ("name-list", "name")])
def test_non_string_fields_are_named(tmp_path, probe, field):
    """A JSON number where an expression is expected was read through str(),
    and a name of any JSON type was echoed into the report."""
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(BAD_SCENARIOS[probe]))
    with pytest.raises(ScenarioError, match=f": {re.escape(field)} must be "):
        load_scenario(str(p))


@pytest.mark.parametrize("probe, field", [
    ("group-graded-odd-cyclic", "graded"), ("group-ungraded-dihedral", "graded"),
    ("setting-null", "setting"), ("variant-null", "variant"), ("cutoff-string", "cutoff"),
    ("expect-unknown", "expect"), ("iterations-zero", "iterations"), ("d0-ragged", "d0")])
def test_formerly_valid_scenarios_are_refused_naming_the_field(tmp_path, capsys, probe, field):
    """validate printed "valid" and exited 0 on each: the first four were read
    with another meaning, the others were refused only when their task ran.
    The field is named by its place after the file's path."""
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(BAD_SCENARIOS[probe]))
    assert main(["validate", str(p)]) == 2
    line, = capsys.readouterr().err.splitlines()
    # a field of the group, of the scenario, or of its one task
    place = {"graded": "group.", "setting": "", "variant": ""}.get(field, "tasks[0].")
    assert line.startswith(f"error: {p}: {place}{field} must be "), line


def test_size_bounds_at_their_limits():
    assert group_from_spec("C(64)").order == 64
    assert group_from_spec({"product": ["D(8)", "C(8)"]}).order == 64
    with pytest.raises(ScenarioError):
        group_from_spec("D(66)")
    # 496 monomials of degree <= 30 in two variables, 528 of degree <= 31
    assert len(parse_poly("(u+v+1)^30", RING).terms) == 496
    with pytest.raises(ScenarioError):
        parse_poly("(u+v+1)^31", RING)
    # a product is bounded by the degree it reaches, as a power is
    assert len(parse_poly("(u+v+1)^15*(u+v+1)^15", RING).terms) == 496
    with pytest.raises(ScenarioError):
        parse_poly("(u+v+1)^15*(u+v+1)^16", RING)
    assert parse_poly("2^500", RING) == Poly.constant(RING, 2 ** 500)
    with pytest.raises(ScenarioError):
        parse_poly("2^501", RING)
    assert parse_poly("i*zeta(360) - zeta(8)", RING).terms
    for text in ("zeta(361)", "zeta(8)*zeta(5, 2)*zeta(9)*zeta(7)"):
        with pytest.raises(ScenarioError):
            parse_poly(text, RING)


# Fuzzing.  Digits come as separate small tokens and drawn group orders
# stay small: within the size bounds an input can still take seconds,
# and 500 drawn scenarios should not.
_EXPR_TOKENS = ["u", "v", "i", "w", "zeta", "(", ")", "[", "]", "+", "-", "*", "**",
                "/", "^", ",", " 0 ", " 1 ", " 2 ", " 3 ", "$", ".", " "]


def _nest(depth_open, core, depth_close, brackets):
    opening, closing = brackets
    return opening * depth_open + core + closing * depth_close


_expressions = st.one_of(
    st.lists(st.sampled_from(_EXPR_TOKENS), max_size=16).map("".join),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=12),
    st.builds(_nest, st.integers(0, 4000), st.sampled_from(["u", "u*v", "", "2"]),
              st.integers(0, 4000), st.sampled_from(["()", "[]", ")("])),
)


@settings(max_examples=500, deadline=None)
@given(_expressions)
def test_parse_poly_returns_or_raises_scenario_error(text):
    try:
        parse_poly(text, RING)
    except ScenarioError:
        pass


_junk = st.one_of(st.none(), st.booleans(), st.integers(-2, 6), st.text(max_size=4),
                  st.lists(st.integers(0, 2), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2))
_groups = st.recursive(
    st.one_of(
        st.sampled_from(["C(1)", "C(2)", "C(3)", "C(4)", "C(0)", "D(4)", "D(6)", "D(3)",
                         "D(0)", "Q(8)"]),
        st.fixed_dictionaries({"preset": st.sampled_from(["C(2)", "C(4)", "D(4)"]) | _junk},
                              optional={"graded": _junk}),
        st.fixed_dictionaries({"labels": _junk | st.just(["e", "g"]),
                               "table": _junk | st.just([[0, 1], [1, 0]]),
                               "identity": _junk, "grading": _junk | st.just([1, -1])}),
        _junk,
    ),
    lambda inner: st.fixed_dictionaries({"product": st.lists(inner, max_size=2) | _junk}),
    max_leaves=3)
_scenarios = st.fixed_dictionaries(
    {"schema": st.just(SCHEMA) | _junk,
     "ring": st.fixed_dictionaries(
         {"variables": st.lists(st.sampled_from(["u", "v", "x", "i"]), max_size=3) | _junk},
         optional={"conductor": _junk}) | _junk},
    optional={"potential": _expressions | _junk,
              "setting": st.sampled_from(["antilinear", "contravariant"]) | _junk,
              "variant": st.sampled_from(["plain", "shifted"]) | _junk,
              "group": _groups,
              "action": st.lists(st.lists(_expressions, max_size=3) | _junk, max_size=4) | _junk,
              "twist": st.sampled_from(["trivial", "universal-sign"]) | _junk,
              "tasks": st.lists(st.fixed_dictionaries(
                  {"op": st.sampled_from(["hom-cohomology", "nope"]) | _junk}) | _junk,
                  max_size=2) | _junk,
              "name": _junk})


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    _scenarios.map(json.dumps),
    st.builds(lambda depth, core: f'{{"schema": "{SCHEMA}", "group": '
                                   + "[" * depth + core + "]" * depth + "}",
              st.integers(0, 4000), st.sampled_from(['"C(2)"', "", "{"])),
    st.text(max_size=12),
))
def test_load_scenario_returns_or_raises_scenario_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzzed-scenario.json"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    try:
        load_scenario(str(path))
    except ScenarioError:
        pass


def test_failing_verdict_is_recorded_in_detail(tmp_path, monkeypatch):
    import mfsym.cli as cli
    from mfsym.mf import Verdict

    broken = Verdict(False, "theta cocycle", ("g1", "g1", "g1"),
                     (0, 0, 0, (0, 0), Scalar.from_rational(3)))
    monkeypatch.setattr(cli, "theta_cocycle_check", lambda rep: broken)
    out = tmp_path / "report.json"
    path = os.path.join(SCENARIO_DIR, "orientifold-shifted-c2.json")
    assert main(["run", path, "--json", str(out)]) == 1
    tasks = json.loads(out.read_text())["tasks"]
    assert all(type(t["ok"]) is bool for t in tasks)
    assert [t["name"] for t in tasks if not t["ok"]] == ["theta-cocycle"]
    assert tasks[2]["detail"] == {"failed": {
        "identity": "theta cocycle", "at": ["g1", "g1", "g1"], "term": [0, 0, 0, [0, 0], "3"]}}


def _bare_op_probe(folder, op):
    p = folder / "bare.json"
    p.write_text(json.dumps({"schema": SCHEMA, "ring": {"variables": ["u", "v"]},
                             "potential": "u*v", "tasks": [{"op": op}]}))
    return ["run", str(p), "--json", str(folder / "report.json")]


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
@pytest.mark.parametrize("op", sorted(cli.TASKS))
def test_every_op_on_a_bare_scenario_passes_or_names_the_problem(tmp_path, request, op,
                                                                  optimize):
    """A scenario with no group, no action and no task parameters: each op
    passes, or gives an error detail and exit code 2; an op that needs a
    factorization is refused with the scenario, naming its d0."""
    (_, p, _, report), code, out, err = _probe(request, tmp_path, optimize, ("bare", op))
    assert "Traceback" not in out + err
    if op in ("hom-cohomology", "null-homotopy-scale"):
        assert code == 2 and not Path(report).exists()
        assert err.splitlines() == [f"error: {p}: tasks[0] needs field 'd0'"]
        return
    assert code in (0, 2), out
    if code == 2:
        assert "error" in json.loads(Path(report).read_text())["tasks"][0]["detail"]


# key -> writer of a probe into a folder, returning the argv of main that
# runs it; the probes with a plain and an -O half
PROBES = {
    **{("bad", probe): partial(_bad_scenario_probe, probe=probe) for probe in BAD_SCENARIOS},
    **{("rank-one", op): partial(_bad_rank_one_probe, op=op) for op in BAD_RANK_ONE},
    ("duplicate-variables",): _duplicate_variables_probe,
    **{("bare", op): partial(_bare_op_probe, op=op) for op in cli.TASKS},
}


# op, scenario fields, task parameters: input that only the task's run can
# tell is wrong, by the setting, the action, the window or the entries
BAD_TASKS = {
    "real-knorrer-contravariant": ("real-knorrer", C2_CONTRAVARIANT, {}),
    "rank-one-real-no-action": ("rank-one-real", {"setting": "antilinear"}, {}),
    "cutoff-past-bound": ("hom-cohomology", {}, {**HYPERBOLIC, "cutoff": 1000000}),
    "other-d1-alone": ("hom-cohomology", {}, {**HYPERBOLIC, "other_d1": [["u"]]}),
    # a factorization of u*v whose entries need conductor 359, 1436 with the ring's 4
    "conductor-entries": ("null-homotopy-scale", {},
                          {"d0": [["zeta(359)*u"]], "d1": [["zeta(359, 358)*v"]]}),
}


@pytest.mark.parametrize("case", sorted(BAD_TASKS))
def test_bad_task_input_gives_an_error_detail(tmp_path, case):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(_one_task(*BAD_TASKS[case])))
    out = tmp_path / "report.json"
    assert main(["run", str(p), "--json", str(out)]) == 2
    task, = json.loads(out.read_text())["tasks"]
    assert not task["ok"] and "error" in task["detail"]


# op: (scenario fields, task parameters, cli mutation or None, identity, place)
OP_FAILURES = {
    "validate-action": ({**C2_CONTRAVARIANT, "action": [["u", "v"], ["u", "v"]]}, {}, None,
                        "potential invariance", ["g1"]),
    "hom-cohomology": ({}, {**HYPERBOLIC, "cutoff": 3, "expect": [7, 7]}, None,
                       "cohomology dims", ["cutoff 3", "dims [1, 0]"]),
    "null-homotopy-scale": ({}, HYPERBOLIC,
                            ("hom_diff", lambda f: lambda h: f(h).scale(Scalar.from_rational(2))),
                            "w id = D(d/2)", ["ranks [1, 1]"]),
    "eightfold-consistency": ({}, {}, ("signature", lambda f: lambda q: (0, 0)),
                              "tensor signature", ["Cl(4,4)"]),
    "rank-one-orientifold": (C2_SHIFTED, {"expect": "none"}, None, "unexpected witness",
                             ["contravariant", "shifted"]),
    "real-knorrer": ({"group": "C(2)", "setting": "antilinear",
                      "action": [["u", "v"], ["v", "u"]]}, {}, None, "no witness", ["antilinear"]),
}


@pytest.mark.parametrize("op", sorted(OP_FAILURES))
def test_a_failing_scenario_op_names_what_failed(tmp_path, monkeypatch, op):
    """Each op that gave a bare bool now fails with the identity and the
    place in detail.failed, and the run exits 1."""
    fields, params, mutation, identity, at = OP_FAILURES[op]
    if mutation:
        name, mutate = mutation
        monkeypatch.setattr(cli, name, mutate(getattr(cli, name)))
    p = tmp_path / "failing.json"
    p.write_text(json.dumps(_one_task(op, fields, params)))
    out = tmp_path / "report.json"
    assert main(["run", str(p), "--json", str(out)]) == 1
    task, = json.loads(out.read_text())["tasks"]
    assert not task["ok"]
    assert (task["detail"]["failed"]["identity"], task["detail"]["failed"]["at"]) == (identity, at)
