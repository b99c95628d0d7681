"""Scenario driver and verification suites.

Scenarios are JSON files with a versioned schema: a ring, a potential,
a graded group with an action, and an ordered task list, each field read
through one table, SCENARIO, when the file is loaded.  Polynomial
and scalar values are written in a small expression grammar (integers,
rationals, the imaginary unit ``i``, ``zeta(m)`` or ``zeta(m, k)``,
variables, ``+ - * ^`` and parentheses).  The ``suite`` verb runs named
verification batteries over the built-in catalogs.  Exit codes: 0 all
tasks pass, 1 failures, 2 usage or parse errors, or a task rejecting its
input.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
import time
from dataclasses import dataclass, asdict
from fractions import Fraction
from functools import cached_property, reduce

from .scalars import Scalar
from .polys import Poly, RingSpec, RingMap
from .mf import (
    MF, MFMor, mf_new, rank_one, identity_mor, scaled_identity, hom_diff, shift,
    double_dual_iso, grading_iso, swap_iso, tensor_dual_pairing,
    shift_tensor_iso_left, shift_tensor_iso_right, is_closed, is_isomorphism,
    diff_mor, Verdict, equation, window_slots, _block_shapes,
)
from .groups import (
    GroupSpec, ActionSpec, ANTILINEAR, CONTRAVARIANT, PLAIN, SHIFTED, ContraRep,
    cyclic_group, dihedral_group, product_group, Cocycle2, universal_sign_cocycle,
    potential_invariance, validate_action, twist_mf, cocycle_check,
)
from .real import (
    RealStruct, verify_real_structure, rank_one_real_condition, real_knorrer,
    fixed_hom, closed_dimension,
)
from .orientifold import (
    rank_one_contra_condition, verify_contra_structure, theta_cocycle_check,
    fixed_point_duality, duality_comparison, comparison_torsor_check,
    orientifold_knorrer, double_knorrer, hyperbolic_transport_check, ContraRealStruct,
)
from .clifford import (
    beh_hom_compare, real_clifford_fixed, graded_tensor, cl_rs, signature,
    module_validate, mf_to_clifford_module, module_hom_dim, parity_shift,
    beh_twist_intertwined,
)
from .cohomology import (
    CohoReport, hom_cohomology, default_cutoff, knorrer_hom_preservation,
)
from . import catalog


SCHEMA = "mfsym-scenario/1"
REPORT_SCHEMA = "mfsym-report/1"


class ScenarioError(ValueError):
    pass


# Size bounds on what a scenario may ask for; past them, reading and
# checking it takes seconds to hours.
MAX_GROUP_ORDER = 64
MAX_ITERATIONS = 5  # of eightfold-consistency; each costs about 4-5x the one before
# monomials of a power's or a product's degree or lower; bounds an exponent too
MAX_POWER_MONOMIALS = 500
# the same count summed over the powers and products of one expression
MAX_EXPRESSION_MONOMIALS = 2000
# of the ring and the zeta orders of one expression, and of their lcm over a scenario
MAX_CONDUCTOR = 360
MAX_WINDOW_UNKNOWNS = 20000  # per parity, of a hom-cohomology window at cutoff + 1


# ---------------------------------------------------------------------------
# expression grammar

_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN = re.compile(rf"\s*(\d+|{_NAME.pattern}|\*\*|[()+\-*/^,])")


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ScenarioError(f"bad character at position {pos} in {text!r}")
        out.append(m.group(1))
        pos = m.end()
    out.append(None)
    return out


class _ExprParser:
    def __init__(self, text: str, ring: RingSpec):
        self.tokens = _tokenize(text)
        self.k = 0
        self.ring = ring
        self.text = text
        self.conductor = 1  # lcm of the orders of i and zeta read so far
        self.monomials = 0  # counted by bound over the powers and products so far

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        t = self.tokens[self.k]
        self.k += 1
        return t

    def expect(self, t):
        got = self.next()
        if got != t:
            raise ScenarioError(f"expected {t!r}, got {got!r} in {self.text!r}")

    def parse(self) -> Poly:
        p = self.sum()
        if self.peek() is not None:
            raise ScenarioError(f"trailing input in {self.text!r}")
        return p

    def sum(self) -> Poly:
        if self.peek() == "-":
            self.next()
            p = -self.product()
        else:
            p = self.product()
        while self.peek() in ("+", "-"):
            op = self.next()
            q = self.product()
            p = p + q if op == "+" else p - q
        return p

    def product(self) -> Poly:
        p = self.power()
        while self.peek() in ("*", "/"):
            op = self.next()
            q = self.power()
            if op == "*":
                self.bound("product", self.monomials_to(p.total_degree() + q.total_degree()))
                p = p * q
            else:
                if not q.is_constant():
                    raise ScenarioError(f"division by a non-constant in {self.text!r}")
                if q.is_zero():
                    raise ScenarioError(f"division by zero in {self.text!r}")
                p = p * Poly.constant(self.ring, q.constant_coeff().inverse())
        return p

    def power(self) -> Poly:
        p = self.atom()
        while self.peek() in ("^", "**"):
            self.next()
            e = self.next()
            if not (isinstance(e, str) and e.isdigit()):
                raise ScenarioError(f"exponent must be a literal integer in {self.text!r}")
            n = self.integer(e)
            self.bound(f"power ^{n}", max(n, self.monomials_to(p.total_degree() * n)))
            p = p ** n
        return p

    def monomials_to(self, degree: int) -> int:
        """The number of monomials of the ring of the given degree or lower."""
        return math.comb(self.ring.nvars + degree, self.ring.nvars)

    def bound(self, what: str, count: int) -> None:
        """Refuses a power or product counted at more than MAX_POWER_MONOMIALS,
        or one that takes the expression's total past MAX_EXPRESSION_MONOMIALS."""
        if count > MAX_POWER_MONOMIALS:
            raise ScenarioError(f"{what} in {self.text!r} exceeds "
                                f"{MAX_POWER_MONOMIALS} monomials of its degree or lower")
        self.monomials += count
        if self.monomials > MAX_EXPRESSION_MONOMIALS:
            raise ScenarioError(f"the powers and products in {self.text!r} count more than "
                                f"{MAX_EXPRESSION_MONOMIALS} monomials together")

    def integer(self, t: str) -> int:
        try:
            return int(t)
        except ValueError:  # past the interpreter's digit limit
            raise ScenarioError(f"integer of {len(t)} digits in {self.text!r}") from None

    def root_of_unity(self, m: int, k: int) -> Poly:
        self.conductor = math.lcm(self.conductor, m)
        if self.conductor > MAX_CONDUCTOR:
            raise ScenarioError(f"the roots of unity in {self.text!r} need conductor "
                                f"{self.conductor}, more than {MAX_CONDUCTOR}")
        return Poly.constant(self.ring, Scalar.zeta(m, k))

    def atom(self) -> Poly:
        t = self.next()
        if t == "(":
            p = self.sum()
            self.expect(")")
            return p
        if t is None:
            raise ScenarioError(f"unexpected end of input in {self.text!r}")
        if t.isdigit():
            return Poly.constant(self.ring, self.integer(t))
        if t == "i":
            return self.root_of_unity(4, 1)
        if t == "zeta":
            self.expect("(")
            m = self.next()
            if not (isinstance(m, str) and m.isdigit()):
                raise ScenarioError(f"zeta needs an integer order in {self.text!r}")
            k = 1
            if self.peek() == ",":
                self.next()
                kk = self.next()
                if not (isinstance(kk, str) and kk.isdigit()):
                    raise ScenarioError(f"zeta power must be an integer in {self.text!r}")
                k = self.integer(kk)
            self.expect(")")
            order = self.integer(m)
            if order < 1:
                raise ScenarioError(f"zeta needs a positive order in {self.text!r}")
            return self.root_of_unity(order, k)
        if t in self.ring.variables:
            return Poly.variable(self.ring, t)
        raise ScenarioError(f"unknown name {t!r} in {self.text!r}")


def parse_poly(text: str, ring: RingSpec) -> Poly:
    try:
        return _ExprParser(text, ring).parse()
    except RecursionError:
        raise ScenarioError(f"expression of {len(text)} characters nests too deeply "
                            f"to parse") from None


def _bound_conductor(what: str, ring: RingSpec, potential: Poly, action, entries=()) -> None:
    """Refuses a scenario whose ring, potential, action images and the given
    entries need together a conductor past MAX_CONDUCTOR: scalars of two
    conductors combine at their lcm."""
    images = [p for rm in action.maps for p in rm.images] if action else []
    m = math.lcm(ring.conductor, *(c.conductor for p in (potential, *images, *entries)
                                   for c in p.terms.values()))
    if m > MAX_CONDUCTOR:
        raise ScenarioError(f"{what}: the ring and the expressions need conductor {m} "
                            f"together, more than {MAX_CONDUCTOR}")


# ---------------------------------------------------------------------------
# scenario loading

REQUIRED = object()  # the default of a field the scenario must give


def _read(value, rule, name: str, where: str | None = None):
    """value read through a rule of the schema, else a ScenarioError naming
    name or the field at fault by its place (tasks[1].cutoff), with the JSON
    of a wrong value.  A rule is a dict {field: (rule, default or REQUIRED)},
    a JSON object whose fields are named where + field (where is name + "."
    by default); [rule], a JSON list; (test, what); or a function (value,
    name) that reads it."""
    if callable(rule):
        return rule(value, name)
    test, what = _OBJECT if isinstance(rule, dict) else _LIST if isinstance(rule, list) else rule
    if not test(value):
        raise ScenarioError(f"{name} must be {what}, got {json.dumps(value)}")
    if isinstance(rule, list):
        return [_read(v, rule[0], f"{name}[{k}]") for k, v in enumerate(value)]
    if isinstance(rule, tuple):
        return value
    out, where = {}, f"{name}." if where is None else where
    for key, (sub, default) in rule.items():
        if key not in value and default is REQUIRED:
            raise ScenarioError(f"{name} needs field {key!r}")
        out[key] = _read(value[key], sub, where + key) if key in value else default
    if unknown := sorted(set(value) - set(rule)):
        raise ScenarioError(f"{name} has unknown field {unknown[0]!r}")
    return out


def group_from_spec(obj, name: str = "group") -> GroupSpec:
    """The group a preset string names, or an object of one of GROUP_FORMS
    describes: a product if it has a product field, a table if it has a
    table field, else a preset."""
    if type(obj) is not dict:
        obj = {"preset": _read(obj, _PRESET, name)}
    spec = _read(obj, GROUP_FORMS[next((k for k in ("product", "table") if k in obj), "preset")],
                 name)
    if "product" in spec:
        if not spec["product"]:
            raise ScenarioError(f"{name}.product must name at least one group")
        _check_group_order(math.prod(p.order for p in spec["product"]))
        return reduce(product_group, spec["product"])
    if "table" in spec:
        if not len(spec["labels"]) == len(spec["table"]) == len(spec["grading"]):
            raise ScenarioError(f"{name}: labels, table and grading must be of one length")
        _check_group_order(len(spec["table"]))
        g = GroupSpec(tuple(spec["labels"]), tuple(map(tuple, spec["table"])),
                      spec["identity"], tuple(spec["grading"]))
        try:
            g.validate()
        except ValueError as exc:
            raise ScenarioError(f"{name}: {exc}") from None
        return g
    preset, graded = spec["preset"], spec["graded"]
    n = int(preset[2:-1])
    _check_group_order(n)
    if preset[0] == "C":
        if graded and n % 2:
            raise ScenarioError(f"{name}.graded must be false for {preset}, of odd order")
        return cyclic_group(n, graded=graded is not False and n % 2 == 0)
    if n % 2:
        raise ScenarioError(f"{name}: dihedral preset D(2m) needs an even order")
    if graded is False:
        raise ScenarioError(f"{name}.graded must be true for {preset}, graded by reflections")
    return dihedral_group(n // 2)


def _check_group_order(n: int) -> None:
    if n > MAX_GROUP_ORDER:
        raise ScenarioError(f"group of order {n}, more than {MAX_GROUP_ORDER}")


def _task(obj, name: str) -> dict:
    """A task object: its op, and the parameters TASKS gives that op."""
    op = obj.get("op") if type(obj) is dict else None
    params = TASKS[op][1] if type(op) is str and op in TASKS else {}
    return _read(obj, {"op": (_one_of(*TASKS), REQUIRED), **params}, name)


@dataclass
class Scenario:
    name: str
    ring: RingSpec
    potential: Poly
    group: GroupSpec | None
    action: ActionSpec | None
    setting: str | None
    variant: str | None
    twist: Cocycle2 | None
    tasks: list

    @cached_property
    def contra_found(self):
        """rank_one_contra_condition on the scenario's contravariant rep,
        searched on first use: the tasks of one run share the rep and the
        witness.  An error is raised again at every use."""
        return rank_one_contra_condition(ContraRep(
            self.group, _action(self, CONTRAVARIANT), self.potential,
            self.variant or PLAIN, self.twist))


def load_scenario(path: str) -> Scenario:
    """The scenario of a file, read through SCENARIO, then checked across fields."""
    with open(path) as fh:
        try:
            spec = _read(json.load(fh), SCENARIO, f"{path}: scenario", f"{path}: ")
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}")
        except RecursionError:
            raise ScenarioError(f"{path}: JSON nested too deeply")
    ring = RingSpec(tuple(spec["ring"]["variables"]), conductor=spec["ring"]["conductor"])
    potential = parse_poly(spec["potential"], ring)
    setting, group, maps = spec["setting"], spec["group"], spec["action"]
    # only contravariant tasks read the variant and the twist
    if setting != CONTRAVARIANT and (spec["variant"] or spec["twist"] != "trivial"):
        raise ScenarioError(f"{path}: variant and twist need the contravariant setting")
    action = None
    if maps is not None:
        if group is None or setting is None:
            raise ScenarioError(f"{path}: action needs group and setting")
        if not ring.nvars or len(maps) != group.order or any(
                len(images) != ring.nvars for images in maps):
            raise ScenarioError(f"{path}: action needs a ring variable, and one list of "
                                f"{ring.nvars} images per element of the group")
        action = ActionSpec(group, setting, tuple(
            RingMap(tuple(parse_poly(s, ring) for s in images),
                    setting == ANTILINEAR and group.grading[idx] == -1)
            for idx, images in enumerate(maps)))
    _bound_conductor(path, ring, potential, action)
    if spec["twist"] == "universal-sign" and group is None:
        raise ScenarioError(f"{path}: twist needs a group")
    twist = universal_sign_cocycle(group) if spec["twist"] == "universal-sign" else None
    return Scenario(path if spec["name"] is None else spec["name"], ring, potential, group,
                    action, setting, spec["variant"], twist, spec["tasks"])


# ---------------------------------------------------------------------------
# tasks

def _action(sc: Scenario, setting: str | None = None) -> ActionSpec:
    """The scenario's action, in the given setting if one is given."""
    if sc.action is None or setting not in (None, sc.setting):
        raise ScenarioError(f"task needs an action{f' in the {setting} setting' if setting else ''}")
    return sc.action


def _contra_witness(sc: Scenario) -> ContraRealStruct:
    found = sc.contra_found
    if found is None:
        raise ScenarioError("no rank-one structure exists for this action")
    return found[1]


def task_validate_action(sc: Scenario, params: dict):
    act = _action(sc)
    return (validate_action(act, sc.potential),
            {"invariance": potential_invariance(act, sc.potential)})


def _rank_one(params: dict, found, verify, *at):
    """The verdict that found, (chi values, witness) or None, is as params'
    expect says ("exists" or "none"), and that a witness that should exist
    verifies; a missing or an unexpected witness fails at at."""
    if params["expect"] == "none":
        return _check(found is None, "unexpected witness", *at), {"found": found is not None}
    if found is None:
        return Verdict(False, "no witness", at), {"found": False}
    chi, struct = found
    return verify(struct), {"chi": [repr(c) for c in chi]}


def task_rank_one_real(sc: Scenario, params: dict):
    return _rank_one(params, rank_one_real_condition(_action(sc, ANTILINEAR)),
                     verify_real_structure, ANTILINEAR)


def task_real_knorrer(sc: Scenario, params: dict):
    found = rank_one_real_condition(_action(sc, ANTILINEAR))
    if found is None:
        return Verdict(False, "no witness", (ANTILINEAR,)), {"found": False}
    out = real_knorrer(found[1])
    return verify_real_structure(out), {"ranks": list(out.base.ranks)}


def task_rank_one_orientifold(sc: Scenario, params: dict):
    # the search returns only a witness that passed verify_fixed_point
    return _rank_one(params, sc.contra_found, lambda s: Verdict(True),
                     CONTRAVARIANT, sc.variant or PLAIN)


def task_theta_cocycle(sc: Scenario, params: dict):
    return theta_cocycle_check(_contra_witness(sc).rep), {}


def task_orientifold_knorrer(sc: Scenario, params: dict):
    s = _contra_witness(sc)
    out, coherent = orientifold_knorrer(s)
    ok = coherent and verify_contra_structure(out)
    return ok, {"coherent": bool(coherent), "variant": out.rep.variant}


def task_double_knorrer(sc: Scenario, params: dict):
    s = _contra_witness(sc)
    out, coherent = double_knorrer(s)
    ok = coherent and verify_contra_structure(out)
    return ok, {"coherent": bool(coherent), "ranks": list(out.base.ranks)}


def task_duality_suite(sc: Scenario, params: dict):
    s = _contra_witness(sc)
    g = s.rep.group
    odd = g.odd_elements()
    sub = ContraRealStruct(s.base, s.rep, {i: s.u[i] for i in g.kernel()})
    verdicts = {g.labels[sigma]: fixed_point_duality(s.rep, sigma, sub) for sigma in odd}
    if len(odd) >= 2:
        verdicts["comparison"] = duality_comparison(s.rep, odd[0], odd[1], s)
        verdicts["torsor"] = comparison_torsor_check(s.rep, s)
    return _first_failure(verdicts.values()), {k: bool(v) for k, v in verdicts.items()}


def task_hyperbolic_transport(sc: Scenario, params: dict):
    return hyperbolic_transport_check(), {}


def task_hom_cohomology(sc: Scenario, params: dict):
    M = _mf_from_params(sc, params)
    N = M if params["other_d0"] is params["other_d1"] is None else _mf_from_params(
        sc, params, key_prefix="other_")
    cutoff = params["cutoff"] or default_cutoff(M.w)
    entries = max(len(window_slots(M, N, p, [()])) for p in (0, 1))  # one per block entry
    unknowns = entries * math.comb(M.ring.nvars + cutoff + 1, M.ring.nvars)
    if unknowns > MAX_WINDOW_UNKNOWNS:
        raise ScenarioError(f"window of {unknowns} unknowns, more than {MAX_WINDOW_UNKNOWNS}")
    report = hom_cohomology(M, N, cutoff)
    detail = {"dims": list(report.dims), "cutoff": report.cutoff,
              "stable": report.stable}
    return _dims_check(report, params["expect"] and tuple(params["expect"])), detail


def _dims_check(report: CohoReport, want=None, *at) -> Verdict:
    """The verdict that report's dims are stable from its cutoff to the
    next and, where want is given, are want; a failure is placed at at,
    the cutoff and the dims."""
    return _check(report.stable and want in (None, report.dims), "cohomology dims",
                  *at, f"cutoff {report.cutoff}", f"dims {list(report.dims)}")


def task_null_homotopy_scale(sc: Scenario, params: dict):
    M = _mf_from_params(sc, params)
    return _potential_null_homotopy(M, f"ranks {list(M.ranks)}"), {}


def _potential_null_homotopy(M: MF, *at) -> Verdict:
    """w * id = D(d/2): check the exact witness rather than re-solving."""
    h = diff_mor(M).scale(Scalar.from_rational(Fraction(1, 2)))
    return equation("w id = D(d/2)", at, hom_diff(h), identity_mor(M).scale(M.w))


def _mf_from_params(sc: Scenario, params: dict, key_prefix: str = "") -> MF:
    mats = [params[f"{key_prefix}d{k}"] for k in (0, 1)]
    if None in mats:
        raise ScenarioError(f"task needs both {key_prefix}d0 and {key_prefix}d1")
    d0, d1 = (tuple(tuple(parse_poly(s, sc.ring) for s in row) for row in m) for m in mats)
    _bound_conductor(f"{key_prefix}d0 and d1", sc.ring, sc.potential, sc.action,
                     [e for row in d0 + d1 for e in row])
    return mf_new(sc.ring, sc.potential, d0, d1)


def task_eightfold(sc: Scenario, params: dict):
    detail, verdict = _eightfold_consistency(params["iterations"])
    return verdict, detail


def _eightfold_consistency(iters: int = 4):
    """Iterated Real Knoerrer from the one-variable spinor, compared to the
    start through fixed Hom dimensions and cohomology, cross-checked by the
    graded tensor tower of signature algebras."""
    ring = RingSpec(("x",), conductor=4)
    x = Poly.variable(ring, "x")
    base = rank_one(x, x)
    act = catalog.conjugation_action(ring)
    conj = scaled_identity(base, twist_mf(act.map_of(1), base), 1, 1)
    s = RealStruct(base, act, (identity_mor(base), conj))
    start_closed = tuple(
        closed_dimension(fixed_hom(s, s, p, cutoff=0)) for p in (0, 1)
    )
    start_coho = hom_cohomology(base, base, 3).dims
    cur = s
    for _ in range(iters):
        cur = real_knorrer(cur)
    structure = verify_real_structure(cur)
    end_closed = tuple(
        closed_dimension(fixed_hom(cur, cur, p, cutoff=0)) for p in (0, 1)
    )
    # the end factorization has linear entries, so its Hom data is read off
    # from the recovered graded module instead of a large polynomial window
    mod = mf_to_clifford_module(cur.base)
    end_coho = (module_hom_dim(mod, mod), module_hom_dim(mod, parity_shift(mod)))
    alg = acc = cl_rs(1, 1)
    steps = []
    for k in range(1, iters):
        acc, iso = graded_tensor(acc, alg)
        steps.append(_check(iso, "graded tensor iso", f"Cl({k},{k})", "Cl(1,1)"))
    tensor = _first_failure(steps)
    sig = signature(acc.quad)
    detail = {
        "structure_verified": structure.ok,
        "closed_fixed_dims": [list(start_closed), list(end_closed)],
        "cohomology_dims": [list(start_coho), list(end_coho)],
        "tensor_tower_ok": tensor.ok,
        "tensor_signature": list(sig),
    }
    # the factorization grows by rank two per step but its Hom data returns
    # to the start after four hyperbolic extensions
    ends = ("step 0", f"step {iters}")
    return detail, _first_failure([
        structure,
        _check(start_closed == end_closed, "closed fixed dims", *ends),
        _check(start_coho == end_coho, "cohomology dims", *ends),
        tensor,
        _check(sig == (iters, iters), "tensor signature", f"Cl({iters},{iters})")])


# ---------------------------------------------------------------------------
# the scenario schema: every field of a scenario, read by _read

def _one_of(*values):
    return (lambda v: v in values), " or ".join(values)


def _positive(most: int | None = None):
    return ((lambda v: type(v) is int and 0 < v <= (most or v)),
            f"a positive integer{f' up to {most}' if most else ''}")


_LIST = (lambda v: type(v) is list, "a list")
_EXPRESSION = (lambda v: type(v) is str, "an expression string")
_OBJECT = (lambda v: type(v) is dict, "an object")
_PRESET = (lambda v: type(v) is str and re.fullmatch(r"[CD]\([1-9][0-9]{0,8}\)", v) is not None,
           'a preset "C(n)" or "D(2m)", n and m positive')
_NAMES = (lambda v: type(v) is list and all(
    type(x) is str and _NAME.fullmatch(x) and x not in ("i", "zeta") for x in v)
    and len(set(v)) == len(v), "a list of distinct names other than i and zeta")
_MATRIX = (lambda m: type(m) is list and all(type(r) is list and len(r) == len(m[0]) and all(
    type(s) is str for s in r) for r in m), "a list of rows of one length of expression strings")
_D0_D1 = {"d0": (_MATRIX, REQUIRED), "d1": (_MATRIX, REQUIRED)}
_EXPECT = {"expect": (_one_of("exists", "none"), "exists")}

# the three objects that describe a group; a string is a preset
GROUP_FORMS = {
    "preset": {"preset": (_PRESET, REQUIRED),
               "graded": ((lambda v: type(v) is bool, "true or false"), None)},
    "table": {"labels": (_LIST, REQUIRED), "table": ([_LIST], REQUIRED),
              "identity": ((lambda v: type(v) is int, "an integer"), REQUIRED),
              "grading": (_LIST, REQUIRED)},
    "product": {"product": ([group_from_spec], REQUIRED)},
}

# op -> (task function, the parameters it reads besides op, as fields of a rule)
TASKS = {
    "validate-action": (task_validate_action, {}),
    "rank-one-real": (task_rank_one_real, _EXPECT),
    "real-knorrer": (task_real_knorrer, {}),
    "rank-one-orientifold": (task_rank_one_orientifold, _EXPECT),
    "theta-cocycle": (task_theta_cocycle, {}),
    "orientifold-knorrer": (task_orientifold_knorrer, {}),
    "double-knorrer": (task_double_knorrer, {}),
    "duality-suite": (task_duality_suite, {}),
    "hyperbolic-transport": (task_hyperbolic_transport, {}),
    "hom-cohomology": (task_hom_cohomology, {
        **_D0_D1, "other_d0": (_MATRIX, None), "other_d1": (_MATRIX, None),
        "cutoff": (_positive(), None),  # None: default_cutoff of the potential
        "expect": ((lambda v: type(v) is list and len(v) == 2 and all(
            type(d) is int and d >= 0 for d in v), "a list of two dimensions"), None)}),
    "null-homotopy-scale": (task_null_homotopy_scale, _D0_D1),
    "eightfold-consistency": (task_eightfold, {"iterations": (_positive(MAX_ITERATIONS), 4)}),
}

SCENARIO = {
    "schema": (_one_of(SCHEMA), REQUIRED),
    "name": ((lambda v: type(v) is str, "a string"), None),  # None: the file's path
    "ring": ({"variables": (_NAMES, REQUIRED),
              "conductor": (_positive(MAX_CONDUCTOR), 4)}, REQUIRED),
    "potential": (_EXPRESSION, "0"),
    "setting": (_one_of(ANTILINEAR, CONTRAVARIANT), None),
    "variant": (_one_of(PLAIN, SHIFTED), None),
    "group": (group_from_spec, None),
    "action": ([[_EXPRESSION]], None),  # per group element, the image of each variable
    "twist": (_one_of("trivial", "universal-sign"), "trivial"),
    "tasks": ([_task], ()),
}


# ---------------------------------------------------------------------------
# reports

@dataclass
class TaskResult:
    index: int
    name: str
    ok: bool
    detail: dict
    seconds: float


def _check(cond, identity: str, *at) -> Verdict:
    """Verdict(True) where cond holds, else the failure of identity at at."""
    return Verdict(True) if cond else Verdict(False, identity, at)


def _first_failure(verdicts) -> Verdict:
    """The first failing verdict, or Verdict(True) when every one holds."""
    return next((v for v in verdicts if not v), Verdict(True))


@dataclass
class Report:
    schema: str
    name: str
    results: list

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json(self) -> str:
        payload = {
            "schema": self.schema,
            "name": self.name,
            "ok": self.ok,
            "tasks": [asdict(r) for r in self.results],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _run(tasks, prefix: str = "", results: list | None = None) -> list[TaskResult]:
    """Run (name, verdict, detail) tasks lazily into results, numbered on
    from its length, each timed from the previous result.  A failing
    verdict is recorded in detail["failed"], unless detail holds the
    task's "error": the identity, the elements and one term [block, row,
    col, exponent, coefficient] of lhs - rhs."""
    results = [] if results is None else results
    t0 = time.monotonic()
    for name, verdict, detail in tasks:
        if not verdict and "error" not in detail:
            term = verdict.term and [*verdict.term[:3], list(verdict.term[3]),
                                     repr(verdict.term[4])]
            detail = {**detail, "failed": {"identity": verdict.identity,
                                           "at": list(verdict.at), "term": term}}
        t1 = time.monotonic()
        results.append(TaskResult(len(results), prefix + name, verdict.ok, detail,
                                  round(t1 - t0, 6)))
        t0 = t1
    return results


def run_scenario(path: str) -> Report:
    sc = load_scenario(path)

    def tasks():
        for task in sc.tasks:
            try:
                verdict, detail = TASKS[task["op"]][0](sc, task)
            except ValueError as exc:
                verdict, detail = Verdict(False), {"error": str(exc)}
            # one copy of each task name, however many reports a process keeps
            yield sys.intern(task["op"]), verdict, detail

    return Report(REPORT_SCHEMA, sc.name, _run(tasks()))


# ---------------------------------------------------------------------------
# suites

def _suite_signs(rng: random.Random):
    cat = catalog.mf_catalog()

    def rand_poly(ring):
        return Poly(ring, {tuple(rng.randrange(0, 2) for _ in range(ring.nvars)):
                           Scalar.from_rational(rng.randrange(-3, 4)) for _ in range(2)})

    def rand_mor(M, N, parity):
        return MFMor(M, N, parity, *(
            tuple(tuple(rand_poly(M.ring) for _ in range(cols)) for _ in range(rows))
            for rows, cols in _block_shapes(M, N, parity)))

    def dd_zero():
        for _ in range(60):
            name, M = cat[rng.randrange(len(cat))]
            dd = hom_diff(hom_diff(rand_mor(M, M, rng.randrange(2))))
            yield _check(all(p.is_zero() for blk in (dd.f0, dd.f1) for row in blk for p in row),
                         "D^2 = 0", name)

    yield "hom-differential-squares-to-zero", _first_failure(dd_zero()), {}
    yield "double-shift-identity", _first_failure(
        _check(shift(shift(M)).d0 == M.d0, "double shift", name) for name, M in cat), {}
    yield "double-dual-and-grading-isos", _first_failure(
        _closed_iso(iso(M), name, label) for name, M in cat
        for label, iso in (("double dual", double_dual_iso), ("grading", grading_iso))), {}

    Ruv = RingSpec(("u", "v"))
    Ryz = RingSpec(("y", "z"))
    A = rank_one(Poly.variable(Ruv, "u"), Poly.variable(Ruv, "v"))
    B = rank_one(Poly.variable(Ryz, "y"), Poly.variable(Ryz, "z"))
    yield "tensor-isos-closed-invertible", _first_failure(
        _closed_iso(mk(A, B), label) for label, mk in (
            ("swap", swap_iso), ("shift left", shift_tensor_iso_left),
            ("shift right", shift_tensor_iso_right), ("dual pairing", tensor_dual_pairing))), {}


def _closed_iso(f: MFMor, *at) -> Verdict:
    return _check(is_closed(f) and is_isomorphism(f), "closed isomorphism", *at)


def _suite_real():
    entries = catalog.real_catalog()
    yield ("catalog-structures-verify",
           _first_failure(verify_real_structure(s) for _, s in entries),
           {"entries": [name for name, _ in entries]})
    yield ("knorrer-images-verify",
           _first_failure(verify_real_structure(real_knorrer(s)) for _, s in entries), {})


def _suite_orientifold():
    ring = RingSpec(("u", "v"), conductor=4)
    u = Poly.variable(ring, "u")
    v = Poly.variable(ring, "v")
    w = u * v
    g2 = cyclic_group(2, graded=True)
    act2 = ActionSpec(g2, CONTRAVARIANT,
                      (RingMap.identity(ring), RingMap((-u, v), False)))
    rep2 = ContraRep(g2, act2, w, SHIFTED, universal_sign_cocycle(g2))
    found2 = rank_one_contra_condition(rep2)
    yield ("terminal-shifted-witness",
           _check(found2 is not None, "no witness", "C2", rep2.variant), {})
    g4 = cyclic_group(4, graded=True)
    act4 = ActionSpec(g4, CONTRAVARIANT, (
        RingMap.identity(ring), RingMap((-v, u), False),
        RingMap((-u, -v), False), RingMap((v, -u), False)))
    rep4 = ContraRep(g4, act4, w, PLAIN)
    found4 = rank_one_contra_condition(rep4)
    yield ("order-four-plain-witness",
           _check(found4 is not None, "no witness", "C4", rep4.variant), {})
    if found2 and found4:
        s2, s4 = found2[1], found4[1]
        yield "twist-is-2-cocycle", _cocycle(rep2.twist, "C2", rep2.variant), {}
        yield "theta-cocycle", theta_cocycle_check(rep2) and theta_cocycle_check(rep4), {}
        k2, c2 = orientifold_knorrer(s2)
        k4, c4 = orientifold_knorrer(s4)
        yield ("knorrer-coherence-and-verify",
               c2 and c4 and verify_contra_structure(k2) and verify_contra_structure(k4), {})
        d4, cd = double_knorrer(s4)
        yield "double-knorrer-roundtrip", cd and verify_contra_structure(d4), {}
        sub = ContraRealStruct(s4.base, rep4, {i: s4.u[i] for i in g4.kernel()})
        yield ("duality-and-comparison",
               fixed_point_duality(rep4, 1, sub) and duality_comparison(rep4, 1, 3, s4)
               and comparison_torsor_check(rep4, s4), {})
    yield "hyperbolic-transport", hyperbolic_transport_check(), {}


def _cocycle(twist: Cocycle2, *at) -> Verdict:
    """A twist is a 2-cocycle: cocycle_check(twist), failing at at and
    then its elements."""
    v = cocycle_check(twist)
    return _check(v, v.identity, *at, *v.at)


def _suite_clifford():
    mods = catalog.clifford_module_catalog()
    yield "modules-validate", _first_failure(
        _check(not module_validate(m), "module relations", name) for name, m in mods), {}
    pairs = [(n1, m1, n2, m2) for i, (n1, m1) in enumerate(mods) for n2, m2 in mods[i:]
             if m1.alg.quad.dimension == m2.alg.quad.dimension]

    def bridge(n1, m1, n2, m2):
        left, right, rep = beh_hom_compare(m1, m2, catalog.clifford_ring_for(m1))
        return _check(left == right and rep.stable, "bridge hom dims", n1, n2)

    yield ("bridge-hom-dims-agree", _first_failure(bridge(*pair) for pair in pairs),
           {"pairs": len(pairs)})
    act = catalog.conjugation_action(RingSpec(("x",), conductor=4))
    yield "bridge-commutes-with-twist", _first_failure(
        _check(beh_twist_intertwined(catalog.spinor_module(), act.ring, act.map_of(i)),
               "bridge commutes with twist", "spinor", act.group.labels[i])
        for i in act.group.elements()), {}
    signatures = [(r, s) for r in range(5) for s in range(5 - r) if r + s]
    yield "signature-fixed-points", _first_failure(
        _check(real_clifford_fixed(r, s)[1], "signature fixed points", f"Cl({r},{s})")
        for r, s in signatures), {}
    yield "graded-tensor-isos", _first_failure(
        _check(graded_tensor(cl_rs(r, s), cl_rs(1, 1))[1], "graded tensor iso",
               f"Cl({r},{s})", "Cl(1,1)")
        for r, s in signatures if r + s < 3), {}


def _suite_cohomology():
    Ruv = RingSpec(("u", "v"))
    u = Poly.variable(Ruv, "u")
    v = Poly.variable(Ruv, "v")
    yield ("hyperbolic-dims",
           _dims_check(hom_cohomology(rank_one(u, v), rank_one(u, v), 3), (1, 0), "(u, v)"), {})
    Rx = RingSpec(("x",))
    x = Poly.variable(Rx, "x")
    triv = rank_one(Poly.constant(Rx, 1), x ** 3)
    yield ("contractible-dims",
           _dims_check(hom_cohomology(triv, triv, 4), (0, 0), "(1, x^3)"), {})
    Ryz = RingSpec(("y", "z"))
    K = rank_one(Poly.variable(Ryz, "y"), Poly.variable(Ryz, "z"))

    def knorrer(n):
        # an_rank_one(n) factors x^(n + 1), so no two of them share a potential
        M = catalog.an_rank_one(n)
        cutoff = default_cutoff(M.w)
        left, right, same = knorrer_hom_preservation(M, M, K, cutoff)
        return _check(same, "knorrer preserves dims", f"an_rank_one({n})", f"cutoff {cutoff}",
                      f"dims {list(left.dims)} -> {list(right.dims)}")

    yield "knorrer-preserves-dims", _first_failure(knorrer(n) for n in range(1, 5)), {}
    yield "potential-null-homotopy-witness", _first_failure(
        _potential_null_homotopy(M, name) for name, M in catalog.mf_catalog()), {}


SUITES = {
    "signs": lambda: _suite_signs(random.Random(20240817)),
    "real": _suite_real,
    "orientifold": _suite_orientifold,
    "clifford": _suite_clifford,
    "cohomology": _suite_cohomology,
}


def run_suite(name: str) -> Report:
    if name == "all":
        results = []
        for key, suite in SUITES.items():
            _run(suite(), f"{key}:", results)
        return Report(REPORT_SCHEMA, "all", results)
    if name not in SUITES:
        raise ScenarioError(f"unknown suite {name!r}; choose from "
                            f"{sorted(SUITES) + ['all']}")
    return Report(REPORT_SCHEMA, name, _run(SUITES[name]()))


# ---------------------------------------------------------------------------
# entry point

def _print_report(report: Report, json_path: str | None) -> None:
    for r in report.results:
        mark = "pass" if r.ok else "FAIL"
        print(f"[{mark}] {r.name}")
        if not r.ok and r.detail:
            print(f"       {r.detail}")
    print(f"{'all tasks passed' if report.ok else 'failures present'} "
          f"({sum(r.ok for r in report.results)}/{len(report.results)})")
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(report.to_json() + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfsym",
        description="exact verification of symmetric matrix factorizations")
    sub = parser.add_subparsers(dest="verb")
    p_val = sub.add_parser("validate", help="parse and validate a scenario file")
    p_val.add_argument("file")
    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("file")
    p_run.add_argument("--json", dest="json_out", default=None)
    p_suite = sub.add_parser("suite", help="run a named verification suite")
    p_suite.add_argument("name")
    p_suite.add_argument("--json", dest="json_out", default=None)
    p_rep = sub.add_parser("report", help="run every suite and emit a report")
    p_rep.add_argument("--json", dest="json_out", default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.verb is None:
        parser.print_help()
        return 2
    try:
        if args.verb == "validate":
            load_scenario(args.file)
            print(f"{args.file}: valid")
            return 0
        if args.verb == "run":
            report = run_scenario(args.file)
            _print_report(report, args.json_out)
            if any("error" in r.detail for r in report.results):
                return 2
            return 0 if report.ok else 1
        if args.verb == "suite":
            report = run_suite(args.name)
            _print_report(report, args.json_out)
            return 0 if report.ok else 1
        report = run_suite("all")
        if args.json_out:
            _print_report(report, args.json_out)
        else:
            print(report.to_json())
        return 0 if report.ok else 1
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
