"""Scenario driver and verification suites.

Scenarios are JSON files with a versioned schema: a ring, a potential,
a graded group with an action, and an ordered task list.  Polynomial
and scalar values are written in a small expression grammar (integers,
rationals, the imaginary unit ``i``, ``zeta(m)`` or ``zeta(m, k)``,
variables, ``+ - * ^`` and parentheses).  The ``suite`` verb runs named
verification batteries over the built-in catalogs.  Exit codes: 0 all
tasks pass, 1 failures, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, asdict
from fractions import Fraction

from .scalars import Scalar
from .polys import Poly, RingSpec, RingMap
from .mf import (
    MF, MFMor, mf_new, rank_one, identity_mor, scaled_identity, hom_diff, shift,
    double_dual_iso, grading_iso, swap_iso, tensor_dual_pairing,
    shift_tensor_iso_left, shift_tensor_iso_right, is_closed, is_isomorphism,
    diff_mor,
)
from .groups import (
    GroupSpec, ActionSpec, ANTILINEAR, CONTRAVARIANT, cyclic_group,
    dihedral_group, product_group, Cocycle2, universal_sign_cocycle,
    validate_action, twist_mf,
)
from .real import (
    RealStruct, verify_real_structure, rank_one_real_condition, real_knorrer,
    fixed_hom, closed_dimension,
)
from .orientifold import (
    PLAIN, SHIFTED, ContraRep, rank_one_contra_condition,
    verify_contra_structure, theta_cocycle_check, fixed_point_duality,
    duality_comparison, comparison_torsor_check, orientifold_knorrer,
    double_knorrer, hyperbolic_transport_check, ContraRealStruct,
)
from .clifford import (
    beh_hom_compare, real_clifford_fixed, graded_tensor, cl_rs, signature,
    module_validate, mf_to_clifford_module, module_hom_dim, parity_shift,
)
from .cohomology import (
    hom_cohomology, default_cutoff, knorrer_hom_preservation,
)
from . import catalog


SCHEMA = "mfsym-scenario/1"
REPORT_SCHEMA = "mfsym-report/1"


class ScenarioError(ValueError):
    pass


# ---------------------------------------------------------------------------
# expression grammar

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[()+\-*/^,])")


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
                p = p * q
            else:
                if not q.is_constant():
                    raise ScenarioError(f"division by a non-constant in {self.text!r}")
                p = p * Poly.constant(self.ring, q.constant_coeff().inverse())
        return p

    def power(self) -> Poly:
        p = self.atom()
        while self.peek() in ("^", "**"):
            self.next()
            e = self.next()
            if not (isinstance(e, str) and e.isdigit()):
                raise ScenarioError(f"exponent must be a literal integer in {self.text!r}")
            p = p ** int(e)
        return p

    def atom(self) -> Poly:
        t = self.next()
        if t == "(":
            p = self.sum()
            self.expect(")")
            return p
        if t is None:
            raise ScenarioError(f"unexpected end of input in {self.text!r}")
        if t.isdigit():
            return Poly.constant(self.ring, int(t))
        if t == "i":
            return Poly.constant(self.ring, Scalar.i())
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
                k = int(kk)
            self.expect(")")
            return Poly.constant(self.ring, Scalar.zeta(int(m), k))
        if t in self.ring.variables:
            return Poly.variable(self.ring, t)
        raise ScenarioError(f"unknown name {t!r} in {self.text!r}")


def parse_poly(text: str, ring: RingSpec) -> Poly:
    return _ExprParser(str(text), ring).parse()


# ---------------------------------------------------------------------------
# scenario loading

_PRESET = re.compile(r"^([CD])\((\d+)\)$")


def group_from_spec(obj) -> GroupSpec:
    if isinstance(obj, dict) and "product" in obj:
        parts = [group_from_spec(p) for p in obj["product"]]
        if not parts:
            raise ScenarioError("empty group product")
        g = parts[0]
        for p in parts[1:]:
            g = product_group(g, p)
        return g
    if isinstance(obj, dict) and "table" in obj:
        g = GroupSpec(tuple(obj["labels"]), tuple(tuple(r) for r in obj["table"]),
                      int(obj["identity"]), tuple(obj["grading"]))
        g.validate()
        return g
    if isinstance(obj, dict):
        preset = obj.get("preset")
        graded = bool(obj.get("graded", True))
    else:
        preset, graded = obj, True
    m = _PRESET.match(str(preset or ""))
    if m is None:
        raise ScenarioError(f"unknown group spec {obj!r}")
    kind, n = m.group(1), int(m.group(2))
    if kind == "C":
        return cyclic_group(n, graded=graded and n % 2 == 0)
    if n % 2:
        raise ScenarioError("dihedral preset D(2m) needs an even order")
    return dihedral_group(n // 2)


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
    raw: dict


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}")
    if raw.get("schema") != SCHEMA:
        raise ScenarioError(f"{path}: schema must be {SCHEMA!r}")
    ring_spec = raw.get("ring")
    if not ring_spec or "variables" not in ring_spec:
        raise ScenarioError(f"{path}: missing ring.variables")
    ring = RingSpec(tuple(ring_spec["variables"]),
                    conductor=int(ring_spec.get("conductor", 4)))
    potential = parse_poly(raw.get("potential", "0"), ring)
    group = action = None
    setting = raw.get("setting")
    if setting is not None and setting not in (ANTILINEAR, CONTRAVARIANT):
        raise ScenarioError(f"{path}: setting must be antilinear or contravariant")
    variant = raw.get("variant")
    if variant is not None and variant not in (PLAIN, SHIFTED):
        raise ScenarioError(f"{path}: variant must be plain or shifted")
    if "group" in raw:
        group = group_from_spec(raw["group"])
    if "action" in raw:
        if group is None or setting is None:
            raise ScenarioError(f"{path}: action needs group and setting")
        maps = raw["action"]
        if len(maps) != group.order:
            raise ScenarioError(f"{path}: action needs one image list per element")
        ring_maps = []
        for idx, images in enumerate(maps):
            if len(images) != ring.nvars:
                raise ScenarioError(f"{path}: element {idx} needs {ring.nvars} images")
            polys = tuple(parse_poly(s, ring) for s in images)
            anti = setting == ANTILINEAR and group.grading[idx] == -1
            ring_maps.append(RingMap(polys, anti))
        action = ActionSpec(group, setting, tuple(ring_maps))
    twist = None
    tw = raw.get("twist", "trivial")
    if tw == "universal-sign":
        if group is None:
            raise ScenarioError(f"{path}: twist needs a group")
        twist = universal_sign_cocycle(group, setting or CONTRAVARIANT)
    elif tw != "trivial":
        raise ScenarioError(f"{path}: unknown twist {tw!r}")
    tasks = raw.get("tasks", [])
    if not isinstance(tasks, list):
        raise ScenarioError(f"{path}: tasks must be a list")
    for t in tasks:
        if not isinstance(t, dict) or "op" not in t:
            raise ScenarioError(f"{path}: each task needs an 'op' field")
        if t["op"] not in TASKS:
            raise ScenarioError(f"{path}: unknown task op {t['op']!r}")
    return Scenario(raw.get("name", path), ring, potential, group, action,
                    setting, variant, twist, tasks, raw)


# ---------------------------------------------------------------------------
# tasks

def _contra_rep(sc: Scenario) -> ContraRep:
    if sc.action is None or sc.setting != CONTRAVARIANT:
        raise ScenarioError("task needs a contravariant action")
    return ContraRep(sc.group, sc.action, sc.potential,
                     sc.variant or PLAIN, sc.twist)


def _contra_witness(sc: Scenario) -> ContraRealStruct:
    found = rank_one_contra_condition(_contra_rep(sc))
    if found is None:
        raise ScenarioError("no rank-one structure exists for this action")
    return found[1]


def task_validate_action(sc: Scenario, params: dict):
    report = validate_action(sc.action, sc.potential)
    return report.ok, {"invariance": report.invariance}


def task_rank_one_real(sc: Scenario, params: dict):
    if sc.setting != ANTILINEAR:
        raise ScenarioError("rank-one-real needs the antilinear setting")
    found = rank_one_real_condition(sc.action)
    want = params.get("expect", "exists")
    if want == "none":
        return found is None, {"found": found is not None}
    if found is None:
        return False, {"found": False}
    chi, struct = found
    return verify_real_structure(struct).ok, {
        "chi": [repr(c) for c in chi.values]
    }


def task_real_knorrer(sc: Scenario, params: dict):
    found = rank_one_real_condition(sc.action)
    if found is None:
        return False, {"found": False}
    out = real_knorrer(found[1])
    return verify_real_structure(out).ok, {"ranks": list(out.base.ranks)}


def task_rank_one_orientifold(sc: Scenario, params: dict):
    rep = _contra_rep(sc)
    found = rank_one_contra_condition(rep)
    want = params.get("expect", "exists")
    if want == "none":
        return found is None, {"found": found is not None}
    if found is None:
        return False, {"found": False}
    chi, struct = found
    return verify_contra_structure(struct).ok, {
        "chi": [repr(c) for c in chi]
    }


def task_theta_cocycle(sc: Scenario, params: dict):
    s = _contra_witness(sc)
    return theta_cocycle_check(s.rep, s.base), {}


def task_orientifold_knorrer(sc: Scenario, params: dict):
    s = _contra_witness(sc)
    out, coherent = orientifold_knorrer(s)
    ok = coherent and verify_contra_structure(out).ok
    return ok, {"coherent": coherent, "variant": out.rep.variant}


def task_double_knorrer(sc: Scenario, params: dict):
    s = _contra_witness(sc)
    out, coherent = double_knorrer(s)
    ok = (coherent and verify_contra_structure(out).ok
          and out.rep.variant == s.rep.variant)
    return ok, {"coherent": coherent, "ranks": list(out.base.ranks)}


def task_duality_suite(sc: Scenario, params: dict):
    s = _contra_witness(sc)
    g = s.rep.group
    odd = g.odd_elements()
    results = {}
    ok = True
    for sigma in odd[:1] if params.get("first_only") else odd:
        sub = ContraRealStruct(s.base, s.rep, {i: s.u[i] for i in g.kernel()})
        _, rep = fixed_point_duality(s.rep, sigma, sub)
        results[g.labels[sigma]] = bool(rep)
        ok = ok and bool(rep)
    if len(odd) >= 2:
        _, form = duality_comparison(s.rep, odd[0], odd[1], s)
        results["comparison"] = bool(form)
        results["torsor"] = comparison_torsor_check(s.rep, s)
        ok = ok and bool(form) and results["torsor"]
    return ok, results


def task_hyperbolic_transport(sc: Scenario, params: dict):
    return hyperbolic_transport_check(), {}


def task_hom_cohomology(sc: Scenario, params: dict):
    M = _mf_from_params(sc, params)
    N = _mf_from_params(sc, params, key_prefix="other_") if "other_d0" in params else M
    cutoff = params.get("cutoff") or default_cutoff(M.w)
    report = hom_cohomology(M, N, cutoff)
    detail = {"dims": list(report.dims), "cutoff": report.cutoff,
              "stable": report.stable}
    if "expect" in params:
        return list(report.dims) == list(params["expect"]) and report.stable, detail
    return report.stable, detail


def task_null_homotopy_scale(sc: Scenario, params: dict):
    M = _mf_from_params(sc, params)
    # w * id is D(d/2); verify the exact witness rather than re-solving
    half = Scalar.from_rational(Fraction(1, 2))
    d = diff_mor(M)
    h = MFMor(M, M, 1,
              tuple(tuple(p * half for p in row) for row in d.f0),
              tuple(tuple(p * half for p in row) for row in d.f1))
    target = hom_diff(h)
    ok = all(
        target.f0[r][c] == identity_mor(M).f0[r][c] * M.w
        for r in range(M.r0) for c in range(M.r0)
    ) and all(
        target.f1[r][c] == identity_mor(M).f1[r][c] * M.w
        for r in range(M.r1) for c in range(M.r1)
    )
    return ok, {}


def _mf_from_params(sc: Scenario, params: dict, key_prefix: str = "") -> MF:
    d0 = params.get(key_prefix + "d0")
    d1 = params.get(key_prefix + "d1")
    if d0 is None or d1 is None:
        raise ScenarioError("task needs d0 and d1 matrices of expressions")
    mat0 = tuple(tuple(parse_poly(s, sc.ring) for s in row) for row in d0)
    mat1 = tuple(tuple(parse_poly(s, sc.ring) for s in row) for row in d1)
    return mf_new(sc.ring, sc.potential, mat0, mat1)


def task_eightfold(sc: Scenario, params: dict):
    iters = int(params.get("iterations", 4))
    detail, ok = _eightfold_consistency(iters)
    return ok, detail


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
    ok = verify_real_structure(cur).ok
    end_closed = tuple(
        closed_dimension(fixed_hom(cur, cur, p, cutoff=0)) for p in (0, 1)
    )
    # the end factorization has linear entries, so its Hom data is read off
    # from the recovered graded module instead of a large polynomial window
    mod = mf_to_clifford_module(cur.base)
    end_coho = (module_hom_dim(mod, mod), module_hom_dim(mod, parity_shift(mod)))
    # the factorization grows by rank two per step but its Hom data returns
    # to the start after four hyperbolic extensions
    dims_match = start_closed == end_closed
    coho_match = start_coho == end_coho
    tensor_ok = True
    alg = cl_rs(1, 1)
    acc = alg
    for _ in range(iters - 1):
        acc, step_ok = graded_tensor(acc, alg)
        tensor_ok = tensor_ok and step_ok
    sig = signature(acc.quad)
    detail = {
        "structure_verified": ok,
        "closed_fixed_dims": [list(start_closed), list(end_closed)],
        "cohomology_dims": [list(start_coho), list(end_coho)],
        "tensor_tower_ok": tensor_ok,
        "tensor_signature": list(sig),
    }
    all_ok = ok and dims_match and coho_match and tensor_ok and sig == (iters, iters)
    return detail, all_ok


TASKS = {
    "validate-action": task_validate_action,
    "rank-one-real": task_rank_one_real,
    "real-knorrer": task_real_knorrer,
    "rank-one-orientifold": task_rank_one_orientifold,
    "theta-cocycle": task_theta_cocycle,
    "orientifold-knorrer": task_orientifold_knorrer,
    "double-knorrer": task_double_knorrer,
    "duality-suite": task_duality_suite,
    "hyperbolic-transport": task_hyperbolic_transport,
    "hom-cohomology": task_hom_cohomology,
    "null-homotopy-scale": task_null_homotopy_scale,
    "eightfold-consistency": task_eightfold,
}


# ---------------------------------------------------------------------------
# reports

@dataclass
class TaskResult:
    index: int
    name: str
    ok: bool
    detail: dict = field(default_factory=dict)
    seconds: float = 0.0


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


def _timed(tasks: Iterator[TaskResult]) -> list[TaskResult]:
    """Run tasks lazily, giving each result the time since the previous one."""
    out = []
    t0 = time.monotonic()
    for r in tasks:
        t1 = time.monotonic()
        r.seconds = round(t1 - t0, 6)
        out.append(r)
        t0 = t1
    return out


def run_scenario(path: str) -> Report:
    sc = load_scenario(path)

    def tasks() -> Iterator[TaskResult]:
        for idx, task in enumerate(sc.tasks):
            try:
                ok, detail = TASKS[task["op"]](sc, task)
            except ScenarioError as exc:
                ok, detail = False, {"error": str(exc)}
            yield TaskResult(idx, task["op"], bool(ok), detail)

    return Report(REPORT_SCHEMA, sc.name, _timed(tasks()))


# ---------------------------------------------------------------------------
# suites

def _suite_signs(rng: random.Random) -> Iterator[TaskResult]:
    cat = catalog.mf_catalog()

    def rand_mor(M, N, parity):
        ring = M.ring
        shapes = [(N.r0, M.r0), (N.r1, M.r1)] if parity == 0 else [(N.r1, M.r0), (N.r0, M.r1)]
        blocks = []
        for rows, cols in shapes:
            blk = []
            for r in range(rows):
                row = []
                for c in range(cols):
                    terms = {}
                    for _ in range(2):
                        e = tuple(rng.randrange(0, 2) for _ in range(ring.nvars))
                        terms[e] = Scalar.from_rational(rng.randrange(-3, 4))
                    row.append(Poly(ring, terms))
                blk.append(tuple(row))
            blocks.append(tuple(blk))
        return MFMor(M, N, parity, blocks[0], blocks[1])

    ok_dd = True
    for _ in range(60):
        name, M = cat[rng.randrange(len(cat))]
        f = rand_mor(M, M, rng.randrange(2))
        dd = hom_diff(hom_diff(f))
        zero_ok = all(p.is_zero() for blk in (dd.f0, dd.f1) for row in blk for p in row)
        ok_dd = ok_dd and zero_ok
    yield TaskResult(0, "hom-differential-squares-to-zero", ok_dd)

    ok_shift = all(shift(shift(M)).d0 == M.d0 for _, M in cat)
    yield TaskResult(1, "double-shift-identity", ok_shift)

    ok_dual = True
    for _, M in cat:
        theta = double_dual_iso(M)
        ok_dual = ok_dual and is_closed(theta) and is_isomorphism(theta)
        j = grading_iso(M)
        ok_dual = ok_dual and is_closed(j) and is_isomorphism(j)
    yield TaskResult(2, "double-dual-and-grading-isos", ok_dual)

    ok_swap = True
    pairs = [(catalog.an_rank_one(2), catalog.an_rank_one(3))]
    Ruv = RingSpec(("u", "v"))
    Ryz = RingSpec(("y", "z"))
    A = rank_one(Poly.variable(Ruv, "u"), Poly.variable(Ruv, "v"))
    B = rank_one(Poly.variable(Ryz, "y"), Poly.variable(Ryz, "z"))
    sw = swap_iso(A, B)
    ok_swap = ok_swap and is_closed(sw) and is_isomorphism(sw)
    for mk in (shift_tensor_iso_left, shift_tensor_iso_right):
        f = mk(A, B)
        ok_swap = ok_swap and is_closed(f) and is_isomorphism(f)
    pairing = tensor_dual_pairing(A, B)
    ok_swap = ok_swap and is_closed(pairing) and is_isomorphism(pairing)
    yield TaskResult(3, "tensor-isos-closed-invertible", ok_swap)


def _suite_real() -> Iterator[TaskResult]:
    ok = True
    names = []
    for name, s in catalog.real_catalog():
        good = verify_real_structure(s).ok
        ok = ok and good
        names.append(name)
    yield TaskResult(0, "catalog-structures-verify", ok, {"entries": names})
    ok_k = True
    for name, s in catalog.real_catalog():
        t = real_knorrer(s)
        ok_k = ok_k and verify_real_structure(t).ok
    yield TaskResult(1, "knorrer-images-verify", ok_k)


def _suite_orientifold() -> Iterator[TaskResult]:
    ring = RingSpec(("u", "v"), conductor=4)
    u = Poly.variable(ring, "u")
    v = Poly.variable(ring, "v")
    w = u * v
    g2 = cyclic_group(2, graded=True)
    act2 = ActionSpec(g2, CONTRAVARIANT,
                      (RingMap.identity(ring), RingMap((-u, v), False)))
    rep2 = ContraRep(g2, act2, w, SHIFTED, universal_sign_cocycle(g2))
    found2 = rank_one_contra_condition(rep2)
    yield TaskResult(0, "terminal-shifted-witness", found2 is not None)
    g4 = cyclic_group(4, graded=True)
    act4 = ActionSpec(g4, CONTRAVARIANT, (
        RingMap.identity(ring), RingMap((-v, u), False),
        RingMap((-u, -v), False), RingMap((v, -u), False)))
    rep4 = ContraRep(g4, act4, w, PLAIN)
    found4 = rank_one_contra_condition(rep4)
    yield TaskResult(1, "order-four-plain-witness", found4 is not None)
    if found2 and found4:
        s2, s4 = found2[1], found4[1]
        yield TaskResult(2, "theta-cocycle",
                         theta_cocycle_check(rep2, s2.base)
                         and theta_cocycle_check(rep4, s4.base))
        k2, c2 = orientifold_knorrer(s2)
        k4, c4 = orientifold_knorrer(s4)
        yield TaskResult(3, "knorrer-coherence-and-verify",
                         c2 and c4 and verify_contra_structure(k2).ok
                         and verify_contra_structure(k4).ok)
        d4, cd = double_knorrer(s4)
        yield TaskResult(4, "double-knorrer-roundtrip",
                         cd and verify_contra_structure(d4).ok
                         and d4.rep.variant == PLAIN)
        sub = ContraRealStruct(s4.base, rep4, {i: s4.u[i] for i in g4.kernel()})
        _, dr = fixed_point_duality(rep4, 1, sub)
        _, fr = duality_comparison(rep4, 1, 3, s4)
        yield TaskResult(5, "duality-and-comparison",
                         bool(dr) and bool(fr)
                         and comparison_torsor_check(rep4, s4))
    yield TaskResult(6, "hyperbolic-transport", hyperbolic_transport_check())


def _suite_clifford() -> Iterator[TaskResult]:
    mods = catalog.clifford_module_catalog()
    ok_valid = all(not module_validate(m) for _, m in mods)
    yield TaskResult(0, "modules-validate", ok_valid)
    ok_cmp = True
    count = 0
    for i, (n1, m1) in enumerate(mods):
        for n2, m2 in mods[i:]:
            if m1.alg.quad.dimension != m2.alg.quad.dimension:
                continue
            ring = catalog.clifford_ring_for(m1)
            left, right, rep = beh_hom_compare(m1, m2, ring)
            ok_cmp = ok_cmp and left == right and rep.stable
            count += 1
    yield TaskResult(1, "bridge-hom-dims-agree", ok_cmp, {"pairs": count})
    ok_fix = True
    for r in range(5):
        for s in range(5 - r):
            if r + s == 0:
                continue
            _, rel = real_clifford_fixed(r, s)
            ok_fix = ok_fix and rel
    yield TaskResult(2, "signature-fixed-points", ok_fix)
    ok_tensor = True
    for r in range(3):
        for s in range(3 - r):
            if r + s == 0:
                continue
            _, iso = graded_tensor(cl_rs(r, s), cl_rs(1, 1))
            ok_tensor = ok_tensor and iso
    yield TaskResult(3, "graded-tensor-isos", ok_tensor)


def _suite_cohomology() -> Iterator[TaskResult]:
    Ruv = RingSpec(("u", "v"))
    u = Poly.variable(Ruv, "u")
    v = Poly.variable(Ruv, "v")
    rep = hom_cohomology(rank_one(u, v), rank_one(u, v), 3)
    yield TaskResult(0, "hyperbolic-dims", rep.dims == (1, 0) and rep.stable)
    Rx = RingSpec(("x",))
    x = Poly.variable(Rx, "x")
    triv = rank_one(Poly.constant(Rx, 1), x ** 3)
    rep = hom_cohomology(triv, triv, 4)
    yield TaskResult(1, "contractible-dims", rep.dims == (0, 0) and rep.stable)
    ok_k = True
    Ryz = RingSpec(("y", "z"))
    K = rank_one(Poly.variable(Ryz, "y"), Poly.variable(Ryz, "z"))
    for n1 in range(1, 5):
        for n2 in range(n1, 5):
            M = catalog.an_rank_one(n1)
            N = catalog.an_rank_one(n2)
            if not M.w == N.w:
                continue
            cutoff = default_cutoff(M.w)
            _, _, same = knorrer_hom_preservation(M, N, K, cutoff)
            ok_k = ok_k and same
    yield TaskResult(2, "knorrer-preserves-dims", ok_k)
    ok_h = True
    for name, M in catalog.mf_catalog():
        half = Scalar.from_rational(Fraction(1, 2))
        d = diff_mor(M)
        h = MFMor(M, M, 1,
                  tuple(tuple(p * half for p in row) for row in d.f0),
                  tuple(tuple(p * half for p in row) for row in d.f1))
        target = hom_diff(h)
        idm = identity_mor(M)
        ok_h = ok_h and all(
            target.f0[r][c] == idm.f0[r][c] * M.w
            for r in range(M.r0) for c in range(M.r0)
        )
    yield TaskResult(3, "potential-null-homotopy-witness", ok_h)


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
        for key in ("signs", "real", "orientifold", "clifford", "cohomology"):
            for r in _timed(SUITES[key]()):
                results.append(TaskResult(len(results), f"{key}:{r.name}",
                                          r.ok, r.detail, r.seconds))
        return Report(REPORT_SCHEMA, "all", results)
    if name not in SUITES:
        raise ScenarioError(f"unknown suite {name!r}; choose from "
                            f"{sorted(SUITES) + ['all']}")
    return Report(REPORT_SCHEMA, name, _timed(SUITES[name]()))


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
