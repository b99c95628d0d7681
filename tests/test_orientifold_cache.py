"""The contravariant action's cached fast path against the slow path.

rep_apply and rep_apply_mor reuse what a rep has already built; here they
are compared with the twist_mf / twist_mor expressions written out, on the
bundled test reps and their Knoerrer extensions.  MFMor equality ignores
endpoints, so those are compared as MFs as well.
"""

import collections
import copy
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mfsym.scalars import Scalar
from mfsym.polys import Poly, RingSpec, RingMap
from mfsym.mf import (
    compose, diff_mor, dual, dual_mor, external_tensor, identity_mor, mf_key, rank_one, shift,
    shift_mor, window_monomials, window_slots,
)
from mfsym.groups import ActionSpec, CONTRAVARIANT, cyclic_group, twist_mf
import mfsym.cli as cli
import mfsym.groups as groups
import mfsym.linalg as linalg
import mfsym.mf as mf
import mfsym.orientifold as orientifold
from mfsym.cli import _contra_witness, load_scenario, run_scenario
from mfsym.orientifold import (
    PLAIN, SHIFTED, ContraRep, ContraRealStruct, rep_apply, rep_apply_mor, eta_blocks,
    orientifold_knorrer, double_knorrer, verify_contra_structure, _extend_rep,
)

from oracles import external_tensor_mor, mor_from_coordinates, twist_mor
from test_orientifold import (
    RING, U, V, W, c2_shifted_rep, c4_plain_rep, c2xc2_shifted_rep, witness, _eta_mor, _rows,
)

REPS = (c2_shifted_rep, c4_plain_rep, c2xc2_shifted_rep)
YZ = RingSpec(("y", "z"), conductor=4)
K = rank_one(Poly.variable(YZ, "y"), Poly.variable(YZ, "z"))
BASE = rank_one(U, V)
BASE_X_K = external_tensor(BASE, K)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _cases():
    """Fresh (rep, object) pairs: each test rep on the rank-one base, and
    its extension on the base tensored with K."""
    out = []
    for make in REPS:
        rep = make()
        out.append((rep, BASE))
        out.append((_extend_rep(rep, K), BASE_X_K))
    return out


def _slow_obj(rep, i, M):
    rm = rep.action.map_of(i)
    if rep.group.grading[i] == 1:
        return twist_mf(rm, M)
    if rep.variant == PLAIN:
        return twist_mf(rm, dual(M))
    return twist_mf(rm, dual(shift(M)))


def _slow_mor(rep, i, f):
    rm = rep.action.map_of(i)
    if rep.group.grading[i] == 1:
        return twist_mor(rm, f)
    if rep.variant == PLAIN:
        return twist_mor(rm, dual_mor(f))
    return twist_mor(rm, dual_mor(shift_mor(f)))


def _same_mor(f, g):
    return f == g and f.source == g.source and f.target == g.target


def test_rep_apply_matches_twist_cold_and_warm():
    for rep, M in _cases():
        for N in (M, shift(M)):
            for i in rep.group.elements():
                want = _slow_obj(rep, i, N)
                assert rep_apply(rep, i, N) == want
                assert rep_apply(rep, i, N) == want


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rep_apply_mor_matches_twist_mor(data):
    rep, M = data.draw(st.sampled_from(_cases()))
    N = data.draw(st.sampled_from((M, shift(M))))
    parity = data.draw(st.integers(0, 1))
    slots = window_slots(M, N, parity, window_monomials(M.ring.nvars, 1))
    coeff = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda ab: Scalar.from_rational(ab[0]) + Scalar.i() * ab[1])
    picks = data.draw(st.lists(st.tuples(st.sampled_from(slots), coeff),
                               min_size=1, max_size=5))
    f = mor_from_coordinates(M, N, parity,
                             {slot[:4]: c for slot, c in picks if not c.is_zero()})
    for g in (f, identity_mor(M), diff_mor(M)):
        for i in rep.group.elements():
            assert _same_mor(rep_apply_mor(rep, i, g), _slow_mor(rep, i, g))


def test_equal_copy_gives_equal_result():
    for rep, M in _cases():
        twin = copy.deepcopy(M)
        assert twin is not M and twin.d0[0][0] is not M.d0[0][0]
        assert mf_key(twin) == mf_key(M)
        for i in rep.group.elements():
            assert rep_apply(rep, i, twin) == rep_apply(rep, i, M) == _slow_obj(rep, i, M)


def test_key_is_built_once_per_object():
    for _, M in _cases():
        assert mf_key(M) is mf_key(M)
    keyed, fresh = rank_one(U, V), rank_one(U, V)
    mf_key(keyed)
    assert keyed == fresh and repr(keyed) == repr(fresh)


def test_keys_separate_what_builds_differently():
    other_conductor = RingSpec(("u", "v"), conductor=8)
    moved = rank_one(Poly.variable(other_conductor, "u"), Poly.variable(other_conductor, "v"))
    assert moved == BASE and mf_key(moved) != mf_key(BASE)
    assert mf_key(shift(BASE)) != mf_key(BASE)


def test_reps_with_different_actions_share_no_entries():
    g = cyclic_group(2, graded=True)
    flip_u = ContraRep(g, ActionSpec(g, CONTRAVARIANT, (
        RingMap.identity(RING), RingMap((-U, V), False))), W, SHIFTED)
    flip_v = ContraRep(g, ActionSpec(g, CONTRAVARIANT, (
        RingMap.identity(RING), RingMap((U, -V), False))), W, SHIFTED)
    a = rep_apply(flip_u, 1, BASE)
    b = rep_apply(flip_v, 1, BASE)
    assert a == _slow_obj(flip_u, 1, BASE)
    assert b == _slow_obj(flip_v, 1, BASE)
    assert not a == b


def test_cache_is_not_part_of_equality_or_repr():
    used, fresh = c4_plain_rep(), c4_plain_rep()
    witness(used)
    assert used == fresh
    assert repr(used) == repr(fresh)


def test_eta_and_knorrer_maps_match_direct_tensors():
    for make in REPS:
        rep = make()
        s = witness(rep)
        ext = _extend_rep(rep, K)
        for i in rep.group.elements():
            eta = _eta_mor(rep, ext, K, i, s.base)
            assert eta.source == external_tensor(_slow_obj(rep, i, s.base), K)
            assert eta.target == _slow_obj(ext, i, external_tensor(s.base, K))
            odd, ranks = rep.group.grading[i] == -1, rep_apply(rep, i, s.base).ranks
            assert (_rows(eta.f0), _rows(eta.f1)) == eta_blocks(odd, *ranks)

        out, _ = orientifold_knorrer(s)
        ring = RingSpec(("u1", "v1"), conductor=4)
        K1 = rank_one(Poly.variable(ring, "u1"), Poly.variable(ring, "v1"))
        assert out.base == external_tensor(s.base, K1)
        fresh = make()
        fresh_ext = _extend_rep(fresh, K1)
        for i, u in s.u.items():
            want = compose(_eta_mor(fresh, fresh_ext, K1, i, s.base),
                           external_tensor_mor(u, identity_mor(K1)))
            assert _same_mor(out.u[i], want)


def test_double_knorrer_twists_each_object_about_once(monkeypatch):
    """Twisting anew at every use takes 432 twists on this witness, and
    building eta's endpoints as morphisms took 44: only the u_i of each
    Knoerrer image, with their targets rho'(i)(M x K), need a twist."""
    s = witness(c4_plain_rep())
    calls = []

    def counted(rm, M):
        calls.append(1)
        return twist_mf(rm, M)

    monkeypatch.setattr(groups, "twist_mf", counted)
    _, coherent = double_knorrer(s)
    assert coherent
    assert len(calls) <= 8, len(calls)


@pytest.mark.parametrize("make", (c4_plain_rep, c2_shifted_rep), ids=("c4-plain", "c2-shifted"))
def test_contra_verify_twists_the_base_once_per_element(monkeypatch, make):
    """Building rho(i2) of each u_{i1}, with its twist of a twist, took 8
    twists on the C4 plain witness, 4 on the C2 shifted one.  Theta enters
    every check as its block scalars, so no theta morphism builder is left."""
    s = witness(make())
    fresh = ContraRealStruct(s.base, make(), s.u)
    twists = []
    twist_mf = groups.twist_mf

    def counted_twist(rm, M):
        twists.append(1)
        return twist_mf(rm, M)

    monkeypatch.setattr(groups, "twist_mf", counted_twist)
    assert verify_contra_structure(fresh).ok
    assert len(twists) == fresh.rep.group.order
    assert not any(hasattr(module, "theta_component") for module in (groups, orientifold))


def _counting(monkeypatch, targets):
    """Patches each (module, name) in targets to count its calls by name."""
    calls = collections.Counter()
    for module, name in targets:
        def counted(*args, _f=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_theta_cocycle_check_builds_no_morphism(monkeypatch):
    """The morphism identity built 256 theta components on the C4 plain
    witness, each through a twist of a twist, and composed and inverted
    them."""
    rep = c4_plain_rep()
    calls = _counting(monkeypatch, [(groups, "twist_mf"), (mf, "compose"),
                                    (orientifold, "compose"), (groups, "_inverse"),
                                    (mf, "_inverse")])
    assert orientifold.theta_cocycle_check(rep)
    assert calls == {}


def test_bundled_scenarios_invert_no_theta(monkeypatch):
    """One pass over both orientifold scenarios made 166 mor_inverse calls:
    46 in verify_fixed_point, 30 on eta, 10 on u and v components and 80
    on thetas; then 86, with eta still inverted as a morphism and each
    task verifying its own witness; then 34.  Now each block is eliminated
    once, by linalg's one inverse: 44 blocks in verify_fixed_point, which
    inverts every component it checks, and 20 in the duality's
    mor_inverse calls.  A morphism now keeps its inverse, so the duality
    suite inverts the kernel components once, not once per check: 12
    blocks, the torsor check's reading of them included."""
    calls = _counting(monkeypatch, [(groups, "_inverse"), (mf, "_inverse")])
    for name in ("orientifold-plain-c4.json", "orientifold-shifted-c2.json"):
        assert run_scenario(str(SCENARIOS / name)).ok
    assert calls["_inverse"] <= 56, calls


def test_eta_coherence_check_builds_no_morphism(monkeypatch):
    """eta_coherence_check built three eta morphisms per element pair, each
    through a twist of a twist and its tensor with K, and composed them;
    then it multiplied eta's blocks as polynomial matrices, 144 matrix
    products and 1440 Poly products on these cases.  mf multiplies
    matrices only through its _sparse_mul, and Poly.__rmul__ (a Scalar
    times a Poly) is bound apart from __mul__."""
    cases = [(make(), M) for make in REPS for M in (BASE, witness(make()).base)]
    cases = [(rep, _extend_rep(rep, K), M) for rep, M in cases]
    calls = _counting(monkeypatch, [
        (groups, "twist_mf"), (groups, "rep_apply"), (orientifold, "rep_apply"),
        (mf, "external_tensor"), (orientifold, "external_tensor"), (mf, "compose"),
        (orientifold, "compose"), (mf.MFMor, "__post_init__"), (mf, "_sparse_mul"),
        (Poly, "__mul__"), (Poly, "__rmul__")])
    for src, tgt, M in cases:
        assert orientifold.eta_coherence_check(src, tgt, K, M)
    assert calls == {}


def test_knorrer_step_multiplies_matrices_only_to_check_k(monkeypatch):
    """Multiplying eta's blocks into those of u_i x id_K as polynomial
    matrices took 42 matrix products on the C4 plain witness and 14 on the
    C2 shifted one; eta's rows select rows instead, and the two products
    left are mf_new's check d^2 = w of K.  Every matrix product of mf is
    a call of its _sparse_mul, made for its caller by mf._product."""
    callers = []
    sparse_mul = mf._sparse_mul

    def counted(*args):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "_product":
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return sparse_mul(*args)

    monkeypatch.setattr(mf, "_sparse_mul", counted)
    for name in ("orientifold-plain-c4.json", "orientifold-shifted-c2.json"):
        s = _contra_witness(load_scenario(str(SCENARIOS / name)))
        callers.clear()
        orientifold_knorrer(s)
        assert callers == ["mf_new", "mf_new"], (name, callers)


def test_fixed_point_law_multiplies_no_polynomial_matrices(monkeypatch):
    """The law multiplied rho(g)(u_h) into u_g as polynomial matrices and
    scaled the product by theta; now it is a product of sparse rows.
    is_closed multiplied polynomial matrices too; now a constant component
    only scales the entries of the differentials.  The products of two
    polynomials left are twist_mf's, where rep_apply builds an image.
    Every matrix product is linalg's _sparse_mul, under each name that
    holds it: one that mf._product makes, or one of two blocks of Poly
    entries, is a polynomial matrix product.  Checked on both bundled
    witnesses and their first and second Knoerrer images, built before
    counting."""
    structs = []
    for name in ("orientifold-plain-c4.json", "orientifold-shifted-c2.json"):
        s = _contra_witness(load_scenario(str(SCENARIOS / name)))
        structs += [s, orientifold_knorrer(s)[0], double_knorrer(s)[0]]
    stray = collections.Counter()

    def polynomial(x):
        return isinstance(x, Poly) or isinstance(x, list) and any(
            isinstance(v, Poly) for row in x for v in row.values())

    def watched(name, f):
        def call(a, b, *rest):
            frame, names = sys._getframe(1), set()
            while frame is not None and frame.f_code.co_name != "verify_fixed_point":
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            if frame is not None and "twist_mf" not in names and (
                    "_product" in names or polynomial(a) and polynomial(b)):
                stray[name] += 1
            return f(a, b, *rest)
        return call

    for module in (mf, groups, orientifold):
        monkeypatch.setattr(module, "_sparse_mul", watched("_sparse_mul", linalg._sparse_mul))
    for method in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Poly, method, watched(f"Poly.{method}", getattr(Poly, method)))
    for s in structs:
        assert verify_contra_structure(s).ok
    assert stray == {}, stray


def test_rank_one_orientifold_verifies_its_witness_once(monkeypatch):
    """The task ran verify_contra_structure on the family that
    scaled_fixed_point had just verified."""
    callers = []
    verify = groups.verify_fixed_point

    def counted(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return verify(*args)

    for module in (groups, orientifold):
        monkeypatch.setattr(module, "verify_fixed_point", counted)
    task = cli.TASKS["rank-one-orientifold"][0]
    for name in ("orientifold-plain-c4.json", "orientifold-shifted-c2.json"):
        callers.clear()
        verdict, detail = task(load_scenario(str(SCENARIOS / name)), {"expect": "exists"})
        assert verdict.ok and "chi" in detail, (name, detail)
        assert callers and set(callers) == {"scaled_fixed_point"}, (name, callers)


def test_bundled_scenarios_build_no_eta_endpoints(monkeypatch):
    """One pass over both orientifold scenarios made 122 twists, 15
    external tensors and 102 compositions in orientifold, building eta as
    morphisms."""
    calls = _counting(monkeypatch, [(groups, "twist_mf"), (orientifold, "external_tensor"),
                                    (orientifold, "compose")])
    for name in ("orientifold-plain-c4.json", "orientifold-shifted-c2.json"):
        assert run_scenario(str(SCENARIOS / name)).ok
    assert calls["twist_mf"] <= 32 and calls["external_tensor"] <= 6, calls
    assert calls["compose"] <= 24, calls


def test_bundled_scenarios_build_each_knorrer_image_once(monkeypatch):
    """The orientifold-knorrer and double-knorrer tasks each built the
    witness's first image: 6 builds for the 4 distinct images of a pass."""
    calls = _counting(monkeypatch, [(orientifold, "_extend_rep")])
    for name in ("orientifold-plain-c4.json", "orientifold-shifted-c2.json"):
        assert run_scenario(str(SCENARIOS / name)).ok
    assert calls["_extend_rep"] == 4, calls


def test_knorrer_image_is_kept_on_the_structure():
    s = witness(c4_plain_rep())
    once = orientifold_knorrer(s)
    assert orientifold_knorrer(s) is once
    assert double_knorrer(s)[0].base.ranks == (4, 4)
    assert orientifold_knorrer(once[0]) is once[0].knorrer
