"""The scenario schema, fuzzed one field at a time, and its README reference.

Every field of every object a scenario holds (the scenario, its ring, the
three group forms and each op's parameters) gets a wrong JSON value in an
otherwise valid scenario, which `mfsym validate` must refuse with exit code
2 and one `error:` line naming that field by its place in the file
(`ring.conductor`, `tasks[0].cutoff`): one value of each JSON kind,
then drawn values.  A valid value must pass.  The
rules below are written here, independently of `cli`'s table: only the
table's field names are read, so that a field added to it without a rule
here fails the test.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mfsym.cli as cli
from mfsym.cli import SCHEMA, main


OPS = ("validate-action", "rank-one-real", "real-knorrer", "rank-one-orientifold",
       "theta-cocycle", "orientifold-knorrer", "double-knorrer", "duality-suite",
       "hyperbolic-transport", "hom-cohomology", "null-homotopy-scale",
       "eightfold-consistency")

# a contravariant C2 scenario in u, v; each field below is set in a copy of it
BASE = {"schema": SCHEMA, "name": "base", "ring": {"variables": ["u", "v"], "conductor": 4},
        "potential": "u*v", "setting": "contravariant", "variant": "shifted", "group": "C(2)",
        "action": [["u", "v"], ["-u", "v"]], "twist": "universal-sign", "tasks": []}
GROUP_BASES = {
    "preset": {"preset": "C(2)", "graded": True},
    "table": {"labels": ["e", "g"], "table": [[0, 1], [1, 0]], "identity": 0,
              "grading": [1, -1]},
    "product": {"product": ["C(2)"]},
}
TASK_BASES = {op: {"op": op} for op in OPS} | {
    "hom-cohomology": {"op": "hom-cohomology", "d0": [["u"]], "d1": [["v"]]},
    "null-homotopy-scale": {"op": "null-homotopy-scale", "d0": [["u"]], "d1": [["v"]]},
}


def _scenario(place: str, field: str, value) -> dict:
    """BASE with field of the object at place set to value."""
    doc = json.loads(json.dumps(BASE))
    if place == "scenario":
        doc[field] = value
    elif place == "ring":
        doc["ring"][field] = value
    elif place.startswith("group "):
        doc["group"] = {**GROUP_BASES[place[6:]], field: value}
    else:
        doc["tasks"] = [{**TASK_BASES.get(place, {}), field: value}]
    return doc


def _int(v):
    return type(v) is int


def _one_of(*values):
    return lambda v: type(v) is str and v in values


def _positive(most=None):
    return lambda v: _int(v) and v >= 1 and (most is None or v <= most)


def _matrix(v):
    return type(v) is list and all(
        type(r) is list and len(r) == len(v[0]) and all(type(s) is str for s in r) for r in v)


def _preset(v):
    return type(v) is str and re.fullmatch(r"[CD]\([1-9][0-9]{0,8}\)", v) is not None


def _names(v):
    return type(v) is list and all(
        type(x) is str and re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", x) and x not in ("i", "zeta")
        for x in v) and len(set(v)) == len(v)


_MATRICES = st.sampled_from([[["u"]], [["v", "u"], ["1", "0"]], [], [[]]])

# (place, field): (the values of the right JSON type and range, a strategy of
# values that the base scenario accepts there).  A value outside the first
# must be refused naming the field; the loader may refuse more, by meaning.
RULES = {
    ("scenario", "schema"): (lambda v: v == SCHEMA, st.just(SCHEMA)),
    ("scenario", "name"): (lambda v: type(v) is str, st.text(max_size=8)),
    ("scenario", "ring"): (lambda v: type(v) is dict,
                           st.sampled_from([{"variables": ["u", "v"]},
                                            {"variables": ["v", "u"], "conductor": 8}])),
    ("scenario", "potential"): (lambda v: type(v) is str,
                                st.sampled_from(["0", "u*v", "u^2 - i*v/2"])),
    ("scenario", "setting"): (_one_of("antilinear", "contravariant"), st.just("contravariant")),
    ("scenario", "variant"): (_one_of("plain", "shifted"), st.sampled_from(["plain", "shifted"])),
    ("scenario", "group"): (lambda v: _preset(v) or type(v) is dict,
                            st.sampled_from(["C(2)", "D(2)", {"preset": "C(2)"},
                                             {"product": ["C(2)", "C(1)"]}])),
    ("scenario", "action"): (lambda v: type(v) is list and all(
                                 type(r) is list and all(type(s) is str for s in r) for r in v),
                             st.sampled_from([[["u", "v"], ["v", "u"]],
                                              [["u", "v"], ["-u", "-v"]]])),
    ("scenario", "twist"): (_one_of("trivial", "universal-sign"),
                            st.sampled_from(["trivial", "universal-sign"])),
    ("scenario", "tasks"): (lambda v: type(v) is list and all(type(t) is dict for t in v),
                            st.sampled_from([[], [{"op": "theta-cocycle"}]])),
    ("ring", "variables"): (_names, st.sampled_from([["u", "v"], ["v", "u"]])),
    ("ring", "conductor"): (_positive(360), st.integers(1, 360)),
    ("group preset", "preset"): (_preset, st.sampled_from(["C(2)", "D(2)"])),
    ("group preset", "graded"): (lambda v: type(v) is bool, st.booleans()),
    # the base table is C2's: anything but two distinct labels, a 2 x 2 table of
    # element indices, the identity 0 and a homomorphism onto {1, -1} is wrong
    ("group table", "labels"): (lambda v: type(v) is list and len(v) == 2 and all(
                                    type(x) is str for x in v) and len(set(v)) == 2,
                                st.lists(st.text(max_size=3), min_size=2, max_size=2,
                                         unique=True)),
    ("group table", "table"): (lambda v: type(v) is list and len(v) == 2 and all(
                                   type(r) is list and len(r) == 2 and all(
                                       _int(x) and x in (0, 1) for x in r) for r in v),
                               st.just([[0, 1], [1, 0]])),
    ("group table", "identity"): (lambda v: _int(v) and v == 0, st.just(0)),
    ("group table", "grading"): (lambda v: type(v) is list and all(_int(x) for x in v)
                                 and v in ([1, -1], [1, 1]),
                                 st.sampled_from([[1, -1], [1, 1]])),
    ("group product", "product"): (lambda v: type(v) is list and v and all(
                                       _preset(p) or type(p) is dict for p in v),
                                   st.sampled_from([["C(2)"], ["C(1)", "D(2)"],
                                                    [{"product": ["C(2)"]}]])),
    ("task", "op"): (_one_of(*OPS), st.sampled_from([op for op in OPS
                                                     if "d0" not in TASK_BASES[op]])),
    ("rank-one-real", "expect"): (_one_of("exists", "none"), st.sampled_from(["exists", "none"])),
    ("rank-one-orientifold", "expect"): (_one_of("exists", "none"),
                                         st.sampled_from(["exists", "none"])),
    **{("hom-cohomology", f): (_matrix, _MATRICES)
       for f in ("d0", "d1", "other_d0", "other_d1")},
    ("hom-cohomology", "cutoff"): (_positive(), st.integers(1, 10 ** 6)),
    ("hom-cohomology", "expect"): (lambda v: type(v) is list and len(v) == 2 and all(
                                       _int(d) and d >= 0 for d in v),
                                   st.lists(st.integers(0, 9), min_size=2, max_size=2)),
    **{("null-homotopy-scale", f): (_matrix, _MATRICES) for f in ("d0", "d1")},
    ("eightfold-consistency", "iterations"): (_positive(5), st.integers(1, 5)),
}

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 400) | st.text(max_size=5)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=2),
    max_leaves=4)
# one value of each JSON kind, and the edges of the ranges above
_KINDS = [None, True, False, 0, 1, -1, 6, 361, 2.5, "", "x", [], [None], ["u", "u"], [[1]], {},
          {"x": 1}]


def _validate(tmp_path_factory, doc):
    """main(["validate", ...]) on doc: its exit code, stdout and stderr,
    with the file's path in stderr replaced by <path>."""
    path = tmp_path_factory.getbasetemp() / "schema-probe.json"
    path.write_text(json.dumps(doc))
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = main(["validate", str(path)])
    return code, out.getvalue(), err.getvalue().replace(str(path), "<path>")


_FIELDS = pytest.mark.parametrize("place, field", sorted(RULES),
                                  ids=[f"{p}:{f}" for p, f in sorted(RULES)])


def test_every_field_of_the_table_has_a_rule_here():
    table = {("scenario", f) for f in cli.SCENARIO}
    table |= {("ring", f) for f in cli.SCENARIO["ring"][0]}
    table |= {(f"group {form}", f) for form, fields in cli.GROUP_FORMS.items() for f in fields}
    table |= {("task", "op")} | {(op, f) for op, (_, params) in cli.TASKS.items()
                                 for f in params}
    assert set(cli.TASKS) == set(OPS)
    assert table == set(RULES)


# where a field is named in an error line, after the file's path: a field of
# the scenario alone, one of the ring or of the (only) task after ring. or
# tasks[0].; one of a group after group. or, where a refusal reads several
# fields of the group together, anywhere after group:
PLACES = {"scenario": "", "ring": r"ring\.", "group": r"group(\.|: .*?)"}


def _assert_refused(tmp_path_factory, place, field, value):
    code, out, err = _validate(tmp_path_factory, _scenario(place, field, value))
    lines = err.splitlines()
    assert code == 2 and not out, (value, out, err)
    assert len(lines) == 1 and lines[0].startswith("error:"), (value, lines)
    where = PLACES.get(place.split()[0], r"tasks\[0\]\.")
    assert re.match(rf"error: <path>: {where}{re.escape(field)}(?![\w-])", lines[0]), (value, lines)


@_FIELDS
def test_each_kind_of_wrong_value_is_refused_naming_its_field(tmp_path_factory, place, field):
    right = RULES[place, field][0]
    for value in _KINDS:
        if not right(value):
            _assert_refused(tmp_path_factory, place, field, value)


@_FIELDS
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_wrong_value_is_refused_naming_its_field(tmp_path_factory, place, field, data):
    right = RULES[place, field][0]
    _assert_refused(tmp_path_factory, place, field,
                    data.draw(_JSON.filter(lambda v: not right(v)), label=field))


@_FIELDS
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_a_right_value_is_accepted(tmp_path_factory, place, field, data):
    value = data.draw(RULES[place, field][1], label=field)
    assert RULES[place, field][0](value)
    code, out, err = _validate(tmp_path_factory, _scenario(place, field, value))
    assert code == 0 and not err, err


def test_readme_names_every_field_and_op():
    """README's "Scenario files" section names each field and op of the table."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Scenario files", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`([\w-]+)`", section))
    assert {field for _, field in RULES} | set(OPS) <= named
