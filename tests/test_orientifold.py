"""Orientifold (contravariant equivariant) structures, dualities on fixed
points, and the contravariant Knoerrer step."""

import os
import subprocess
import sys
from functools import cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mfsym.scalars import Scalar
from mfsym.polys import Poly, RingSpec, RingMap
from mfsym.groups import (
    cyclic_group, product_group, ActionSpec, ANTILINEAR, CONTRAVARIANT,
    Cocycle2, cocycle_check, universal_sign_cocycle, rep_apply, rep_apply_mor,
    theta_scalars, verify_fixed_point, _graded_act,
)
from mfsym.mf import (
    MF, MFError, MFMor, rank_one, identity_mor, compose, is_closed, is_isomorphism, mor_inverse,
    scaled_identity, equation, external_tensor, mat_neg, mat_scale, Verdict,
)
from mfsym.orientifold import (
    PLAIN, SHIFTED, ContraRep, ContraRealStruct, rank_one_contra_condition,
    verify_contra_structure, theta_cocycle_check,
    fixed_point_duality, duality_comparison, comparison_torsor_check,
    orientifold_knorrer, double_knorrer,
    hyperbolic_transport_check, eta_blocks, eta_coherence_check, _extend_rep,
)
from mfsym.mf import dual, dual_mor, double_dual_iso
from mfsym.cli import load_scenario, _cocycle, _contra_witness, _run
import mfsym.catalog as catalog
from oracles import external_tensor_mor, mat_block, mat_identity, mat_zero, verify_duality


RING = RingSpec(("u", "v"), conductor=4)
U = Poly.variable(RING, "u")
V = Poly.variable(RING, "v")
W = U * V
YZ = RingSpec(("y", "z"), conductor=4)
K_YZ = rank_one(Poly.variable(YZ, "y"), Poly.variable(YZ, "z"))
BASE_UV = rank_one(U, V)
# unequal ranks need w = 0; on them eta's swap blocks are not square
BASE_21 = MF(RING, Poly.zero(RING), mat_zero(RING, 1, 2), mat_zero(RING, 2, 1))


def c2_shifted_rep():
    g = cyclic_group(2, graded=True)
    act = ActionSpec(g, CONTRAVARIANT,
                     (RingMap.identity(RING), RingMap((-U, V), False)))
    return ContraRep(g, act, W, SHIFTED, universal_sign_cocycle(g))


def c4_plain_rep():
    g = cyclic_group(4, graded=True)
    act = ActionSpec(g, CONTRAVARIANT, (
        RingMap.identity(RING), RingMap((-V, U), False),
        RingMap((-U, -V), False), RingMap((V, -U), False)))
    return ContraRep(g, act, W, PLAIN)


def c2xc2_shifted_rep():
    g = product_group(cyclic_group(2, graded=True), cyclic_group(2))
    act = ActionSpec(g, CONTRAVARIANT, (
        RingMap.identity(RING), RingMap.identity(RING),
        RingMap((-U, V), False), RingMap((-U, V), False)))
    return ContraRep(g, act, W, SHIFTED, universal_sign_cocycle(g))


def witness(rep):
    found = rank_one_contra_condition(rep)
    assert found is not None
    return found[1]


def test_terminal_shifted_witness_needs_sign_twist():
    rep = c2_shifted_rep()
    assert rank_one_contra_condition(rep) is not None
    untwisted = ContraRep(rep.group, rep.action, rep.w, SHIFTED, None)
    assert rank_one_contra_condition(untwisted) is None


def test_order_four_plain_witness():
    rep = c4_plain_rep()
    s = witness(rep)
    assert verify_contra_structure(s).ok
    assert s.base.ranks == (1, 1)


def test_theta_cocycle_law():
    for rep in (c2_shifted_rep(), c4_plain_rep(), c2xc2_shifted_rep()):
        s = witness(rep)
        assert theta_cocycle_check(rep)


def test_theta_components_are_closed():
    rep = c4_plain_rep()
    s = witness(rep)
    g = rep.group
    for i in g.elements():
        for j in g.elements():
            assert is_closed(_theta_mor(rep, i, j, s.base))


def test_duality_laws_both_groups_both_ranks():
    for rep in (c4_plain_rep(), c2xc2_shifted_rep()):
        s = witness(rep)
        k, coherent = orientifold_knorrer(s)
        assert coherent and verify_contra_structure(k).ok
        for struct in (s, k):
            r = struct.rep
            g = r.group
            sub = ContraRealStruct(struct.base, r,
                                   {i: struct.u[i] for i in g.kernel()})
            for sigma in g.odd_elements():
                rep_out = fixed_point_duality(r, sigma, sub)
                assert rep_out.ok, rep_out
            odd = g.odd_elements()
            for s1 in odd:
                for s2 in odd:
                    form = duality_comparison(r, s1, s2, struct)
                    assert form.ok, form
            assert comparison_torsor_check(r, struct)


def test_generic_duality_on_catalog():
    objects = [M for _, M in catalog.mf_catalog()]
    assert verify_duality(objects, dual, dual_mor, double_dual_iso)


def test_eta_display_rank_one():
    s = witness(c2_shifted_rep())
    f0, f1 = eta_blocks(True, *s.base.ranks)
    one = Scalar.one()
    assert f0 == [{1: one}, {0: -one}]
    assert f1 == [{1: one}, {0: one}]
    ident = eta_blocks(False, *s.base.ranks)
    assert ident[0] == [{0: one}, {1: one}]


def test_knorrer_flips_variant():
    for rep in (c2_shifted_rep(), c4_plain_rep()):
        s = witness(rep)
        out, coherent = orientifold_knorrer(s)
        assert coherent
        assert out.rep.variant != s.rep.variant
        assert verify_contra_structure(out).ok


def test_double_knorrer_restores_variant():
    for rep in (c2_shifted_rep(), c4_plain_rep(), c2xc2_shifted_rep()):
        s = witness(rep)
        out, coherent = double_knorrer(s)
        assert coherent
        assert out.rep.variant == s.rep.variant
        assert out.base.ranks == (4, 4)
        assert verify_contra_structure(out).ok


def test_hyperbolic_transport():
    assert hyperbolic_transport_check()


def test_rank_one_contra_condition_rejects_other_potential():
    rep = c2_shifted_rep()
    bad = ContraRep(rep.group, rep.action, W + U ** 3, SHIFTED, rep.twist)
    with pytest.raises(ValueError):
        rank_one_contra_condition(bad)


def test_rank_one_contra_condition_rejects_three_variables():
    ring = RingSpec(("u", "v", "t"), conductor=4)
    u, v = Poly.variable(ring, "u"), Poly.variable(ring, "v")
    g = cyclic_group(2, graded=True)
    act = ActionSpec(g, CONTRAVARIANT, (RingMap.identity(ring),
                                        RingMap((-u, v, Poly.variable(ring, "t")), False)))
    with pytest.raises(ValueError):
        rank_one_contra_condition(ContraRep(g, act, u * v, SHIFTED))


def test_contra_rep_rejects_bad_variant_and_setting():
    rep = c2_shifted_rep()
    with pytest.raises(ValueError):
        ContraRep(rep.group, rep.action, W, "twisted")
    anti = ActionSpec(rep.group, ANTILINEAR, (
        RingMap.identity(RING), RingMap((-U, V), True)))
    with pytest.raises(ValueError):
        ContraRep(rep.group, anti, W, SHIFTED)


def test_contra_rep_rejects_bad_variant_under_optimize():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "from mfsym.polys import RingSpec, RingMap\n"
        "from mfsym.groups import cyclic_group, ActionSpec, CONTRAVARIANT\n"
        "from mfsym.orientifold import ContraRep\n"
        "ring = RingSpec(('u', 'v'))\n"
        "g = cyclic_group(2, graded=True)\n"
        "act = ActionSpec(g, CONTRAVARIANT, (RingMap.identity(ring),) * 2)\n"
        "try:\n"
        "    ContraRep(g, act, act.maps[0].images[0], 'twisted')\n"
        "except ValueError:\n"
        "    print('rejected')\n"
    )
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert run.stdout.strip() == "rejected", run.stderr


def test_dualities_reject_even_elements():
    rep = c4_plain_rep()
    s = witness(rep)
    even = [i for i in rep.group.kernel() if i != rep.group.identity][0]
    odd = rep.group.odd_elements()[0]
    sub = ContraRealStruct(s.base, rep, {i: s.u[i] for i in rep.group.kernel()})
    with pytest.raises(ValueError):
        fixed_point_duality(rep, even, sub)
    with pytest.raises(ValueError):
        duality_comparison(rep, odd, even, s)
    with pytest.raises(ValueError):
        duality_comparison(rep, even, odd, s)


def _scaled(s, i, c):
    """s with u_i scaled by c."""
    return ContraRealStruct(s.base, s.rep, {**s.u, i: s.u[i].scale(c)})


def _kernel_part(s):
    return ContraRealStruct(s.base, s.rep, {i: s.u[i] for i in s.rep.group.kernel()})


def _non_cocycle_twist():
    """The C2 shifted action twisted by mu with mu(g1, g1) = 2: not a
    2-cocycle, since inversion by g1 needs mu(g1, g1)^2 = 1."""
    rep = c2_shifted_rep()
    one, two = Scalar.one(), Scalar.from_rational(2)
    return ContraRep(rep.group, rep.action, W, SHIFTED,
                     Cocycle2(rep.group, CONTRAVARIANT, ((one, one), (one, two))))


def test_suite_cocycle_verdict_names_the_elements_of_a_non_cocycle_twist():
    """The orientifold suite's 2-cocycle entry, given a twist that is not
    a 2-cocycle, names the identity, the rep and the elements."""
    [result] = _run([("twist-is-2-cocycle", _cocycle(_non_cocycle_twist().twist, "C2", SHIFTED),
                      {})])
    assert not result.ok and result.detail == {"failed": {
        "identity": "2-cocycle", "at": ["C2", "shifted", "g1", "g1", "g1"], "term": None}}


def _knorrer_case(rep, M):
    """(rep, its Knoerrer extension by K_YZ, K_YZ, M): the inputs of
    eta_coherence_check."""
    return rep, _extend_rep(rep, K_YZ), K_YZ, M


def _eta_case_without_sign_twist():
    rep = c4_plain_rep()
    ext = _extend_rep(rep, K_YZ)
    untwisted = ContraRep(ext.group, ext.action, ext.w, ext.variant, None)
    return rep, untwisted, K_YZ, witness(rep).base


# One mutation per identity family: each check returns a verdict that names
# the identity, the elements where it first fails and a nonzero term of
# lhs - rhs.  The C4 plain witness has u_g2 scaled by i or u_g1 negated.
MUTATIONS = {
    "fixed point law": (
        lambda: verify_contra_structure(_scaled(witness(c4_plain_rep()), 1, -Scalar.one())),
        ("g1", "g2")),
    "2-cocycle": (lambda: cocycle_check(_non_cocycle_twist().twist), ("g1", "g1", "g1")),
    "theta cocycle": (lambda: theta_cocycle_check(_non_cocycle_twist()),
                      ("g1", "g1", "g1")),
    "eta coherence": (lambda: eta_coherence_check(*_eta_case_without_sign_twist()), ("g1", "g1")),
    "duality object law: fixed point law": (
        lambda: fixed_point_duality(c4_plain_rep(), 1, _kernel_part(
            _scaled(witness(c4_plain_rep()), 2, Scalar.i()))),
        ("g2", "g2")),
    "duality": (lambda: verify_duality(
        [M for _, M in catalog.mf_catalog()], dual, dual_mor,
        lambda M: double_dual_iso(M).scale(Scalar.from_rational(2))), ("objects[0]",)),
    "form coherence": (
        lambda: duality_comparison(c4_plain_rep(), 1, 3,
                                   _scaled(witness(c4_plain_rep()), 2, Scalar.i())),
        ("g1", "g3")),
    "comparison torsor": (
        lambda: comparison_torsor_check(c4_plain_rep(),
                                        _scaled(witness(c4_plain_rep()), 2, Scalar.i())),
        ("g1", "g3", "g1")),
}


@pytest.mark.parametrize("identity", sorted(MUTATIONS))
def test_failing_check_names_identity_elements_and_term(identity):
    check, at = MUTATIONS[identity]
    verdict = check()
    assert not verdict
    assert (verdict.identity, verdict.at) == (identity, at), verdict
    assert not verdict.term[4].is_zero()


def test_singular_component_fails_instead_of_raising():
    s = witness(c4_plain_rep())
    verdict = verify_contra_structure(_scaled(s, 1, Scalar.zero()))
    assert (verdict.ok, verdict.identity, verdict.at, verdict.term) == (
        False, "not invertible", ("g1",), None)


def test_non_constant_component_raises_or_fails_as_before():
    """A closed component that is not constant raises MFError where it is
    read as rows, in the fixed point law and in the dualities' inverses,
    as the determinant of its blocks did; one that is not closed fails on
    that first."""
    s = witness(c4_plain_rep())
    one_plus_w = Poly.constant(RING, 1) + W
    with pytest.raises(MFError, match="non-constant"):
        verify_contra_structure(_scaled(s, 1, one_plus_w))
    with pytest.raises(MFError, match="non-constant"):
        fixed_point_duality(s.rep, 1, _kernel_part(_scaled(s, 2, one_plus_w)))
    with pytest.raises(MFError, match="non-constant"):
        comparison_torsor_check(s.rep, _scaled(s, 2, one_plus_w))
    f = s.u[1]
    shifted = MFMor(f.source, f.target, 0, tuple(tuple(x + U for x in row) for row in f.f0), f.f1)
    verdict = verify_contra_structure(ContraRealStruct(s.base, s.rep, {**s.u, 1: shifted}))
    assert (verdict.ok, verdict.identity, verdict.at, verdict.term) == (
        False, "not closed", ("g1",), None)


def test_singular_kernel_component_fails_the_dualities_instead_of_raising():
    """Building the induced structure inverted u_g2 before any check ran;
    the torsor check composed the comparison maps without checking the
    components they read, and passed."""
    s = _scaled(witness(c4_plain_rep()), 2, Scalar.zero())
    rep = s.rep
    for verdict in (fixed_point_duality(rep, 1, _kernel_part(s)),
                    duality_comparison(rep, 1, 3, s), comparison_torsor_check(rep, s)):
        assert (verdict.ok, verdict.identity, verdict.at, verdict.term) == (
            False, "not invertible", ("g2",), None)
    # with C2's one odd element every comparison map is the identity's
    # scaled u_e, so the torsor check passed on a zero u_e
    s = _scaled(witness(c2_shifted_rep()), 0, Scalar.zero())
    for verdict in (duality_comparison(s.rep, 1, 1, s), comparison_torsor_check(s.rep, s)):
        assert (verdict.ok, verdict.identity, verdict.at, verdict.term) == (
            False, "not invertible", ("g0",), None)


def test_duality_comparison_does_not_rerun_the_dualities(monkeypatch):
    """The comparison builds both dualities' data; checking their laws is
    fixed_point_duality's, which it used to call twice."""
    import mfsym.orientifold as orientifold

    s = witness(c4_plain_rep())
    calls = []
    duality = orientifold.fixed_point_duality

    def counted(*args):
        calls.append(1)
        return duality(*args)

    monkeypatch.setattr(orientifold, "fixed_point_duality", counted)
    assert duality_comparison(s.rep, 1, 3, s).ok
    assert calls == []


def test_contra_verification_inverts_each_component_once(monkeypatch):
    """Inverting u_{i1} for every odd i2 took |odd| * |G| inversions; now
    each of a component's two blocks is eliminated once."""
    import mfsym.groups as groups

    s = witness(c4_plain_rep())
    calls = []
    inverse = groups._inverse

    def counted(rows, **kwargs):
        calls.append(1)
        return inverse(rows, **kwargs)

    monkeypatch.setattr(groups, "_inverse", counted)
    assert verify_contra_structure(s).ok
    assert len(calls) == 2 * len(s.u)


# ---------------------------------------------------------------------------
# reference: theta as morphisms

def _theta_mor(rep, i2, i1, M):
    """theta_{i2,i1} at M as the morphism rho(i2)(rho(i1)(M)) -> rho(i2*i1)(M)
    with theta_scalars on its two blocks."""
    src = rep_apply(rep, i2, rep_apply(rep, i1, M))
    tgt = rep_apply(rep, rep.group.mul(i2, i1), M)
    return scaled_identity(src, tgt, *theta_scalars(rep, i2, i1))


def _reference_theta_cocycle(rep, M):
    """theta_{i3 i2, i1} ∘ theta_{i3, i2} = theta_{i3, i2 i1} ∘ rho(i3)(theta_{i2, i1}^{pi(i3)})
    composed as morphisms, with rho(i3) applied by rep_apply_mor."""
    g = rep.group
    for i3, i2, i1 in product(g.elements(), repeat=3):
        lhs = compose(_theta_mor(rep, g.mul(i3, i2), i1, M),
                      _theta_mor(rep, i3, i2, rep_apply(rep, i1, M)))
        inner = _theta_mor(rep, i2, i1, M)
        if rep.action.flips(i3):
            inner = mor_inverse(inner)
        rhs = compose(_theta_mor(rep, i3, g.mul(i2, i1), M), rep_apply_mor(rep, i3, inner))
        at = (g.labels[i3], g.labels[i2], g.labels[i1])
        if not (v := equation("theta cocycle", at, lhs, rhs)):
            return v
    return Verdict(True)


def _eta_mor(src_rep, tgt_rep, K, i, M):
    """eta_i at M as the morphism rho(i)(M) x K -> rho'(i)(M x K): identity
    on even elements, the signed swap blocks on odd ones."""
    A = rep_apply(src_rep, i, M)
    src = external_tensor(A, K)
    tgt = rep_apply(tgt_rep, i, external_tensor(M, K))
    ring = src.ring
    if src_rep.group.grading[i] == 1:
        return MFMor(src, tgt, 0,
                     mat_identity(ring, src.r0), mat_identity(ring, src.r1))
    a0, a1 = A.ranks
    f0 = mat_block([
        [mat_zero(ring, a1, a0), mat_identity(ring, a1)],
        [mat_neg(mat_identity(ring, a0)), mat_zero(ring, a0, a1)],
    ])
    f1 = mat_block([
        [mat_zero(ring, a0, a1), mat_identity(ring, a0)],
        [mat_identity(ring, a1), mat_zero(ring, a1, a0)],
    ])
    return MFMor(src, tgt, 0, f0, f1)


def _rows(blk):
    """A block of constant polynomials as sparse rows {col: Scalar} of its
    nonzero entries."""
    return [{c: p.constant_coeff() for c, p in enumerate(row) if not p.is_zero()}
            for row in blk]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_eta_blocks_are_the_dense_reference_read_as_rows(data):
    """Even and odd elements, ranks up to 4, unequal ones included, on the
    factorization of 0 with zero differential."""
    rep = data.draw(st.sampled_from((c2_shifted_rep, c4_plain_rep, c2xc2_shifted_rep)))()
    i = data.draw(st.sampled_from(rep.group.elements()))
    a0, a1 = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    M = MF(RING, Poly.zero(RING), mat_zero(RING, a1, a0), mat_zero(RING, a0, a1))
    eta = _eta_mor(rep, _extend_rep(rep, K_YZ), K_YZ, i, M)
    odd = rep.group.grading[i] == -1
    assert (_rows(eta.f0), _rows(eta.f1)) == eta_blocks(odd, *rep_apply(rep, i, M).ranks)


def _reference_eta_coherence(src_rep, tgt_rep, K, M):
    """The eta coherence identity composed as morphisms: theta' at M x K,
    and theta x id_K as a tensor of morphisms."""
    g = src_rep.group
    for i2, i1 in product(g.elements(), repeat=2):
        term1 = _eta_mor(src_rep, tgt_rep, K, i2, rep_apply(src_rep, i1, M))
        inner = _eta_mor(src_rep, tgt_rep, K, i1, M)
        if g.grading[i2] == -1:
            inner = mor_inverse(inner)
        term3 = _theta_mor(tgt_rep, i2, i1, external_tensor(M, K))
        lhs = compose(term3, compose(rep_apply_mor(tgt_rep, i2, inner), term1))
        rhs = compose(_eta_mor(src_rep, tgt_rep, K, g.mul(i2, i1), M),
                      external_tensor_mor(_theta_mor(src_rep, i2, i1, M), identity_mor(K)))
        if not (v := equation("eta coherence", (g.labels[i2], g.labels[i1]), lhs, rhs)):
            return v
    return Verdict(True)


def _agree(scalar, reference):
    """The scalar theta cocycle verdict is the reference's, with a scalar
    equation's term in place of the constant term of lhs - rhs."""
    assert (scalar.ok, scalar.identity, scalar.at) == (
        reference.ok, reference.identity, reference.at), (scalar, reference)
    if not reference:
        block, row, col, exponent, value = reference.term
        assert scalar.term == (block, row, col, (), value) and not any(exponent)


def _scenario_case(name, steps):
    """The Knoerrer case of a bundled scenario's witness after the given
    number of Knoerrer steps: double_knorrer checks eta at steps 0 and 1."""
    s = _contra_witness(load_scenario(str(Path(__file__).resolve().parent.parent
                                          / "scenarios" / name)))
    for _ in range(steps):
        s, _ = orientifold_knorrer(s)
    return _knorrer_case(s.rep, s.base)


ORACLE_CASES = {
    **{f"{name}-step{steps}": (lambda name=name, steps=steps: _scenario_case(f"{name}.json", steps))
       for name in ("orientifold-plain-c4", "orientifold-shifted-c2") for steps in (0, 1)},
    "c4-plain": lambda: _knorrer_case(c4_plain_rep(), witness(c4_plain_rep()).base),
    "non-cocycle-twist": lambda: _knorrer_case(_non_cocycle_twist(), BASE_UV),
    "eta-without-sign-twist": _eta_case_without_sign_twist,
    "ranks-21-plain": lambda: _knorrer_case(c4_plain_rep(), BASE_21),
    "ranks-21-shifted": lambda: _knorrer_case(c2_shifted_rep(), BASE_21),
}

# The case holding the rep each MUTATIONS entry acts through; "duality"
# checks the catalog's double dual under no group action.
MUTATION_CASES = {
    "fixed point law": "c4-plain",
    "2-cocycle": "non-cocycle-twist",
    "theta cocycle": "non-cocycle-twist",
    "eta coherence": "eta-without-sign-twist",
    "duality object law: fixed point law": "c4-plain",
    "form coherence": "c4-plain",
    "comparison torsor": "c4-plain",
}


def test_every_mutation_with_a_rep_has_an_oracle_case():
    assert set(MUTATION_CASES) == set(MUTATIONS) - {"duality"}
    assert set(MUTATION_CASES.values()) <= set(ORACLE_CASES)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_scalar_theta_checks_match_the_morphism_reference(case):
    """On the source rep at M and the Knoerrer target rep at M x K, the
    theta cocycle verdicts agree; the eta coherence verdicts are equal."""
    src, tgt, K, M = ORACLE_CASES[case]()
    for rep, obj in ((src, M), (tgt, external_tensor(M, K))):
        _agree(theta_cocycle_check(rep), _reference_theta_cocycle(rep, obj))
    assert eta_coherence_check(src, tgt, K, M) == _reference_eta_coherence(src, tgt, K, M)


def _reference_fixed_point(rep, base, u):
    """verify_fixed_point composed as morphisms: rho(i2) on u_{i1}, or on
    its inverse where i2 flips, by rep_apply_mor, and theta as the scaled
    identity of its scalars."""
    g = rep.group
    if not (v := equation("u_e = id", (g.labels[g.identity],), u[g.identity],
                          identity_mor(base))):
        return v
    for i, f in u.items():
        at = (g.labels[i],)
        if f.parity != 0:
            return Verdict(False, "not even", at)
        if not is_closed(f):
            return Verdict(False, "not closed", at)
        if not is_isomorphism(f):
            return Verdict(False, "not invertible", at)
    for i2, i1 in product(u, repeat=2):
        prod = g.mul(i2, i1)
        if prod not in u:
            continue
        inner = mor_inverse(u[i1]) if rep.action.flips(i2) else u[i1]
        moved = rep_apply_mor(rep, i2, inner)
        theta = scaled_identity(moved.target, rep_apply(rep, prod, base),
                                *theta_scalars(rep, i2, i1))
        rhs = compose(theta, compose(moved, u[i2]))
        if not (v := equation("fixed point law", (g.labels[i2], g.labels[i1]), u[prod], rhs)):
            return v
    return Verdict(True)


@cache
def _image(make, steps):
    """The witness of a test rep after the given number of Knoerrer steps,
    built once per process."""
    s = witness(make())
    for _ in range(steps):
        s, _ = orientifold_knorrer(s)
    return s


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fixed_point_law_matches_the_morphism_reference_on_drawn_mutations(data):
    """One block, or both, of one component scaled by -1, i or 2, on the
    three test reps' witnesses and their first two Knoerrer images: the
    verdicts are equal, term included."""
    s = _image(data.draw(st.sampled_from((c2_shifted_rep, c4_plain_rep, c2xc2_shifted_rep))),
               data.draw(st.integers(0, 2)))
    i = data.draw(st.sampled_from(sorted(s.u)))
    c = data.draw(st.sampled_from((-Scalar.one(), Scalar.i(), Scalar.from_rational(2))))
    blocks = data.draw(st.sampled_from(((0,), (1,), (0, 1))))
    f = s.u[i]
    f0, f1 = (mat_scale(c, b) if p in blocks else b for p, b in enumerate((f.f0, f.f1)))
    u = {**s.u, i: MFMor(f.source, f.target, 0, f0, f1)}
    assert verify_fixed_point(s.rep, s.base, u) == _reference_fixed_point(s.rep, s.base, u)


def _antilinear_rep():
    g = cyclic_group(2, graded=True)
    act = ActionSpec(g, ANTILINEAR, (RingMap.identity(RING), RingMap((U, V), True)))
    return ContraRep(g, act, W)


def _coboundary(group, setting, f):
    """mu(g, h) = f(g) (g . f(h)) / f(gh), a 2-cocycle for any f with f(e) = 1."""
    return Cocycle2(group, setting, tuple(
        tuple(f[i] * _graded_act(setting, group.grading[i], f[j]) / f[group.mul(i, j)]
              for j in group.elements()) for i in group.elements()))


def _drawn_twist(data, rep):
    """A twist with values in {+-1, +-i}: either any table, which mostly
    fails, or the rep's own twist times the coboundary of a drawn unit
    function, which holds."""
    g, setting = rep.group, rep.action.setting
    unit = st.sampled_from((Scalar.one(), -Scalar.one(), Scalar.i(), -Scalar.i()))
    if data.draw(st.booleans()):
        return Cocycle2(g, setting, tuple(tuple(data.draw(unit) for _ in g.elements())
                                          for _ in g.elements()))
    f = [Scalar.one() if i == g.identity else data.draw(unit) for i in g.elements()]
    twist = rep.twist.multiply(_coboundary(g, setting, f))
    assert cocycle_check(twist)
    return twist


def _retwisted(rep, twist):
    return ContraRep(rep.group, rep.action, rep.w, rep.variant, twist)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_theta_cocycle_matches_the_reference_on_drawn_twists(data):
    rep = data.draw(st.sampled_from(
        (c2_shifted_rep, c4_plain_rep, c2xc2_shifted_rep, _antilinear_rep)))()
    drawn = _retwisted(rep, _drawn_twist(data, rep))
    _agree(theta_cocycle_check(drawn), _reference_theta_cocycle(drawn, BASE_UV))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_eta_coherence_matches_the_reference_on_drawn_twists(data):
    """The source and target twists are drawn independently, on the
    rank-one base or the ranks-(2, 1) one."""
    rep = data.draw(st.sampled_from((c2_shifted_rep, c4_plain_rep, c2xc2_shifted_rep)))()
    ext = _extend_rep(rep, K_YZ)
    src = _retwisted(rep, _drawn_twist(data, rep))
    tgt = _retwisted(ext, _drawn_twist(data, ext))
    M = data.draw(st.sampled_from((BASE_UV, BASE_21)))
    assert eta_coherence_check(src, tgt, K_YZ, M) == _reference_eta_coherence(src, tgt, K_YZ, M)


def test_dualities_hold_under_a_coboundary_twist_with_non_unit_theta():
    """With f(g2) = 2, theta's scalars include 2 and 1/2, which are not
    their own inverses, so composing with theta and with its inverse give
    different maps; the witness moved along the coboundary, u_g / f(g),
    passes every duality check."""
    s = witness(c4_plain_rep())
    g = s.rep.group
    f = [Scalar.one(), Scalar.one(), Scalar.from_rational(2), Scalar.one()]
    rep = ContraRep(g, s.rep.action, W, PLAIN, _coboundary(g, CONTRAVARIANT, f))
    moved = ContraRealStruct(s.base, rep, {i: u.scale(f[i].inverse()) for i, u in s.u.items()})
    assert verify_contra_structure(moved) and theta_cocycle_check(rep)
    odd = g.odd_elements()
    for sigma in odd:
        assert fixed_point_duality(rep, sigma, _kernel_part(moved))
    for s1, s2 in product(odd, repeat=2):
        assert duality_comparison(rep, s1, s2, moved)
    assert comparison_torsor_check(rep, moved)
