"""Real (antilinear equivariant) structures and the Real Knoerrer step."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from mfsym import scalars
from mfsym.scalars import Scalar, euler_phi
from mfsym.polys import Poly, RingSpec, RingMap
from mfsym.groups import (
    cyclic_group, product_group, ActionSpec, ANTILINEAR, twist_mf, twist_mor,
    universal_sign_cocycle, validate_action,
)
from mfsym.linalg import sparse_rank
from mfsym.mf import (
    MFError, MFMor, Verdict, compose, equation, hom_diff, is_closed, is_isomorphism, mat_apply,
    mor_coordinates, mor_from_coordinates, rank_one, identity_mor, scaled_identity,
    window_monomials, window_slots,
)
from mfsym.real import (
    RealStruct, verify_real_structure, rank_one_real_condition, real_knorrer,
    tensor_real_structure, fixed_hom, closed_dimension, _field_conductor,
)
import mfsym.catalog as catalog
import mfsym.mf as mf
import mfsym.real as real


def test_real_catalog_verifies():
    entries = catalog.real_catalog()
    assert len(entries) >= 5
    for name, s in entries:
        verdict = verify_real_structure(s)
        assert verdict.ok, (name, verdict)


def test_rank_one_condition_conjugation():
    ring = RingSpec(("u", "v"), conductor=4)
    act = catalog.conjugation_action(ring)
    found = rank_one_real_condition(act)
    assert found is not None
    chi, s = found
    assert verify_real_structure(s).ok
    assert chi.value(1) == Scalar.one()


def test_rank_one_condition_rejects_off_diagonal():
    ring = RingSpec(("u", "v"), conductor=4)
    u, v = Poly.variable(ring, "u"), Poly.variable(ring, "v")
    g = cyclic_group(2, graded=True)
    act = ActionSpec(g, ANTILINEAR,
                     (RingMap.identity(ring), RingMap((v, u), True)))
    assert rank_one_real_condition(act) is None


def test_real_knorrer_verifies_and_grows_rank():
    for name, s in catalog.real_catalog():
        out = real_knorrer(s)
        assert verify_real_structure(out).ok, name
        assert out.base.r0 == 2 * s.base.r0


def test_real_knorrer_iterates():
    s = dict(catalog.real_catalog())["conjugation-spinor"]
    cur = s
    for _ in range(3):
        cur = real_knorrer(cur)
    assert cur.base.ranks == (8, 8)
    assert verify_real_structure(cur).ok


def test_tensor_real_structure():
    entries = dict(catalog.real_catalog())
    a = entries["conjugation-spinor"]
    b = entries["conjugation-hyperbolic"]
    t = tensor_real_structure(a, b)
    assert verify_real_structure(t).ok
    assert t.base.ranks == (2, 2)


def test_fixed_hom_spinor():
    s = dict(catalog.real_catalog())["conjugation-spinor"]
    even = fixed_hom(s, s, 0, cutoff=0)
    odd = fixed_hom(s, s, 1, cutoff=0)
    assert len(even.columns) - sparse_rank(even.columns) == 2
    assert len(odd.columns) - sparse_rank(odd.columns) == 2
    assert closed_dimension(even) == 1
    assert closed_dimension(odd) == 1


def _reference_closed_dimension(s, parity, cutoff):
    """The closed fixed dimension over Q from morphisms: each rational
    unknown zeta_L^t x^m in one block entry is built with
    mor_from_coordinates, its Real residuals u_sigma . f - f^sigma . u_sigma
    with compose and twist_mor and its D with hom_diff; returns the nullity
    of their rational coordinates, ranked by sympy."""
    M = s.base
    L = _field_conductor(s, s)
    monomials = window_monomials(M.ring.nvars, cutoff)
    columns = []
    for b, r, c, m, t in window_slots(M, M, parity, monomials, euler_phi(L)):
        f = mor_from_coordinates(M, M, parity, {(b, r, c, m): Scalar.zeta(L, t)})
        images = {"D": mor_coordinates(hom_diff(f))}
        for i in s.group.elements():
            residual = mor_coordinates(compose(s.u[i], f))
            for k, v in mor_coordinates(
                    compose(twist_mor(s.action.map_of(i), f), s.u[i])).items():
                residual[k] = residual.get(k, Scalar.zero()) - v
            images[i] = residual
        columns.append({(tag, k, n): Fraction(x, v.promote(L).denominator)
                        for tag, image in images.items() for k, v in image.items()
                        for n, x in enumerate(v.promote(L).numerators) if x})
    keys = list({key for col in columns for key in col})
    matrix = DomainMatrix([[QQ(columns[j].get(key, 0)) for j in range(len(columns))]
                           for key in keys], (len(keys), len(columns)), QQ)
    return len(columns) - matrix.rank()


@pytest.mark.parametrize("name", [name for name, s in catalog.real_catalog()
                                  if max(s.base.ranks) <= 2])
def test_closed_dimension_matches_the_reference_oracle(name):
    """The catalog entries of base ranks <= 2, the spinor's Knoerrer image
    among them."""
    s = dict(catalog.real_catalog())[name]
    for parity in (0, 1):
        for cutoff in (0, 1):
            got = closed_dimension(fixed_hom(s, s, parity, cutoff))
            assert got == _reference_closed_dimension(s, parity, cutoff), (parity, cutoff)


def test_closed_dimension_builds_d_once_on_plain_monomials(monkeypatch):
    """D is Q(zeta_L)-linear: one window_operator call with a one-element
    basis, though phi(L) = 4 here."""
    s = dict(catalog.real_catalog())["dihedral-cubic-line"]
    space = fixed_hom(s, s, 0, cutoff=1)
    assert euler_phi(_field_conductor(s, s)) == 4
    bases = []
    window_operator = real.window_operator

    def counted(left, right, parity, monomials, twist=None, basis=(Scalar.one(),)):
        bases.append(len(basis))
        return window_operator(left, right, parity, monomials, twist, basis)

    monkeypatch.setattr(real, "window_operator", counted)
    assert closed_dimension(space) == _reference_closed_dimension(s, 0, 1)
    assert bases == [1]


def test_knorrer_closed_dims_are_stable():
    s = dict(catalog.real_catalog())["conjugation-spinor"]
    k = real_knorrer(s)
    dims = tuple(closed_dimension(fixed_hom(k, k, p, cutoff=0))
                 for p in (0, 1))
    assert dims == (1, 1)


def test_fixed_hom_rejects_differing_groups():
    entries = dict(catalog.real_catalog())
    with pytest.raises(ValueError):
        fixed_hom(entries["conjugation-spinor"], entries["dihedral-cubic-line"], 0)


def _conjugation_structure(base):
    """base with the conjugation action on its one variable x and identity
    components."""
    act = catalog.conjugation_action(base.ring)
    conj = scaled_identity(base, twist_mf(act.map_of(1), base), 1, 1)
    return RealStruct(base, act, (identity_mor(base), conj))


def test_fixed_hom_rejects_differing_rings_and_potentials():
    """Same group, bases over different rings (x against u, v) or over one
    ring with different potentials (x^2 against x^4)."""
    entries = dict(catalog.real_catalog())
    spinor = entries["conjugation-spinor"]
    with pytest.raises(MFError, match="rings differ"):
        fixed_hom(spinor, entries["conjugation-hyperbolic"], 0, cutoff=1)
    x = Poly.variable(spinor.base.ring, "x")
    quartic = _conjugation_structure(rank_one(x, x ** 3))
    assert verify_real_structure(quartic).ok
    for s, sp in ((spinor, quartic), (quartic, spinor)):
        with pytest.raises(MFError, match="potentials differ"):
            fixed_hom(s, sp, 0, cutoff=1)


@cache
def _spinor_tower(steps):
    """The spinor (x, x) of x^2 over Q(i) after `steps` Real Knoerrer steps:
    the start of criterion 09 and of the real-tower benchmark workload."""
    ring = RingSpec(("x",), conductor=4)
    x = Poly.variable(ring, "x")
    s = _conjugation_structure(rank_one(x, x))
    for _ in range(steps):
        s = real_knorrer(s)
    return s


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_closed_dimension_matches_the_oracle_on_the_tower(steps):
    """The workload's own shapes, ranks (2, 2), (4, 4) and (8, 8), cutoff 0."""
    s = _spinor_tower(steps)
    assert s.base.ranks == (2 ** steps,) * 2
    for parity in (0, 1):
        got = closed_dimension(fixed_hom(s, s, parity, cutoff=0))
        assert got == _reference_closed_dimension(s, parity, 0), parity


def _count_products(monkeypatch, module, name):
    """Count Scalar products: all of them, those made inside calls of
    module.name, and those made inside mf.apply_ring_map."""
    counts = {"inside": 0, "twist": 0, "all": 0}
    where = []
    mul, fn, apply = scalars._mul, getattr(module, name), mf.apply_ring_map

    def counting_mul(a, b):
        counts["all"] += 1
        for key in set(where):
            counts[key] += 1
        return mul(a, b)

    def within(key, f):
        def wrapped(*args, **kwargs):
            where.append(key)
            try:
                return f(*args, **kwargs)
            finally:
                where.pop()
        return wrapped

    monkeypatch.setattr(scalars, "_mul", counting_mul)
    monkeypatch.setattr(module, name, within("inside", fn))
    monkeypatch.setattr(mf, "apply_ring_map", within("twist", apply))
    return counts


def _terms(f):
    return sum(len(p.terms) for blk in (f.f0, f.f1) for row in blk for p in row)


@pytest.mark.parametrize("steps", [2, 3])
def test_real_residual_multiplies_per_block_row_and_column(monkeypatch, steps):
    """On the tower's (4, 4) and (8, 8) residuals every value is computed
    once per block row or column and basis element: at most len(basis) x
    (terms of left + terms of right) products beside the twist's, though
    the window has rows x cols entries per block."""
    s = _spinor_tower(steps)
    L = _field_conductor(s, s)
    basis = [Scalar.zeta(L, t) for t in range(euler_phi(L))]
    monomials = window_monomials(s.base.ring.nvars, 0)
    left = right = s.u[1]
    counts = _count_products(monkeypatch, mf, "window_operator")
    for parity in (0, 1):
        counts.update(inside=0, twist=0)
        mf.window_operator(left, right, parity, monomials, s.action.map_of(1), basis)
        bound = len(basis) * (_terms(left) + _terms(right)) + counts["twist"]
        assert 0 < counts["inside"] <= bound


@pytest.mark.parametrize("steps", [2, 3])
def test_closed_dimension_multiplies_only_in_window_operator(monkeypatch, steps):
    """The coordinates of zeta_L^t multiples are read off numerators."""
    s = _spinor_tower(steps)
    counts = _count_products(monkeypatch, real, "window_operator")
    for parity in (0, 1):
        space = fixed_hom(s, s, parity, cutoff=0)
        counts.update(inside=0, all=0)
        closed_dimension(space)
        assert counts["all"] == counts["inside"] > 0


def _power_coordinates(v, L):
    return {t: Scalar.from_rational(c) for t, c in enumerate(v.promote(L).coeffs) if c}


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_rational_coordinates_read_zeta_multiples_off_numerators(data):
    """For every t < phi(L), the coordinates of zeta_L^t * v; at 12 and 15
    shifting past phi(L) - 1 reduces modulo Phi_L nontrivially."""
    L = data.draw(st.sampled_from([1, 3, 4, 5, 8, 12, 15]))
    m = data.draw(st.sampled_from([d for d in range(1, L + 1) if L % d == 0]))
    nums = data.draw(st.lists(st.integers(-6, 6), min_size=euler_phi(m),
                              max_size=euler_phi(m)))
    if data.draw(st.booleans()):
        nums[1:] = [0] * (len(nums) - 1)
    v = Scalar(m, [Fraction(n, data.draw(st.integers(1, 6))) for n in nums])
    key = (0, 1, 0, (2,))
    for t in range(euler_phi(L)):
        got = real._rational_coordinates("tag", {key: v}, L, t)
        want = _power_coordinates(Scalar.zeta(L, t) * v, L)
        assert got == {("tag", *key, n): c for n, c in want.items()}, (L, m, v, t)


def test_rank_one_condition_rejects_three_variables():
    act = catalog.conjugation_action(RingSpec(("u", "v", "t"), conductor=4))
    with pytest.raises(ValueError):
        rank_one_real_condition(act)


def test_verify_twists_the_base_once_per_element(monkeypatch):
    """Re-twisting both endpoints of u_j for every pair (i, j) takes
    |G| + 2|G|^2 twists."""
    import mfsym.groups as groups
    import mfsym.real as real

    s = dict(catalog.real_catalog())["dihedral-cubic-line"]
    calls = []
    twist_mf = groups.twist_mf

    def counted(rm, M):
        calls.append(1)
        return twist_mf(rm, M)

    monkeypatch.setattr(real, "twist_mf", counted)
    monkeypatch.setattr(groups, "twist_mf", counted)
    assert verify_real_structure(s).ok
    assert len(calls) == s.group.order


def _replace(s, i, f):
    return RealStruct(s.base, s.action, s.u[:i] + (f,) + s.u[i + 1:], s.twist)


def _retarget(s, i, parity, c0, c1):
    """u_i replaced by constant blocks c0, c1 of the given parity."""
    one = Poly.constant(s.base.ring, 1)
    return _replace(s, i, MFMor(s.base, s.u[i].target, parity,
                                ((one * c0,),), ((one * c1,),)))


# case -> (catalog entry, mutation, (identity, at) of the first failure,
# whether that identity is an equation and so reports a term of lhs - rhs)
BROKEN_REAL = {
    "u_e scaled by -1": ("conjugation-spinor",
                         lambda s: _replace(s, 0, s.u[0].scale(-Scalar.one())),
                         ("u_e = id", ("g0",)), True),
    "odd component": ("conjugation-spinor", lambda s: _retarget(s, 1, 1, 1, 1),
                      ("not even", ("g1",)), False),
    "not closed": ("conjugation-spinor", lambda s: _retarget(s, 1, 0, 1, 2),
                   ("not closed", ("g1",)), False),
    "singular": ("conjugation-spinor", lambda s: _retarget(s, 1, 0, 0, 0),
                 ("not invertible", ("g1",)), False),
    "one component negated": ("dihedral-cubic-line",
                              lambda s: _replace(s, 1, s.u[1].scale(-Scalar.one())),
                              ("Real cocycle", ("r1", "r2")), True),
}


@pytest.mark.parametrize("case", sorted(BROKEN_REAL))
def test_verify_real_structure_names_each_problem(case):
    name, break_it, (identity, at), is_equation = BROKEN_REAL[case]
    s = dict(catalog.real_catalog())[name]
    assert verify_real_structure(s).ok
    verdict = verify_real_structure(break_it(s))
    assert not verdict.ok
    assert (verdict.identity, verdict.at) == (identity, at), verdict
    if is_equation:
        assert not verdict.term[4].is_zero()
    else:
        assert verdict.term is None


def _reference_verify(s):
    """verify_real_structure as a loop of its own over the Real cocycle law,
    written against the twist functor directly: the reference the shared
    fixed point law is compared with."""
    g = s.group
    act = s.action
    if act.setting != ANTILINEAR:
        return Verdict(False, "antilinear setting")
    if not (v := validate_action(act, s.base.w)):
        return v
    e = g.identity
    if not (v := equation("u_e = id", (g.labels[e],), s.u[e], identity_mor(s.base))):
        return v
    targets = [twist_mf(act.map_of(i), s.base) for i in g.elements()]
    for i in g.elements():
        ui = s.u[i]
        at = (g.labels[i],)
        if ui.parity != 0:
            return Verdict(False, "not even", at)
        check = MFMor(s.base, targets[i], 0, ui.f0, ui.f1)
        if not is_closed(check):
            return Verdict(False, "not closed", at)
        if not is_isomorphism(check):
            return Verdict(False, "not invertible", at)
    for i in g.elements():
        rm = act.map_of(i)
        for j in g.elements():
            ij = g.mul(i, j)
            uj = s.u[j]
            twisted = MFMor(targets[i], targets[ij], uj.parity,
                            mat_apply(rm, uj.f0), mat_apply(rm, uj.f1))
            mu = Scalar.one() if s.twist is None else s.twist.value(i, j)
            rhs = compose(twisted, s.u[i]).scale(mu)
            if not (v := equation("Real cocycle", (g.labels[i], g.labels[j]), s.u[ij], rhs)):
                return v
    return Verdict(True)


def _oracle_cases():
    entries = dict(catalog.real_catalog())
    cases = []
    for name, s in entries.items():
        cases += [(name, s), (f"{name} knorrer", real_knorrer(s))]
    for case, (name, break_it, _, _) in sorted(BROKEN_REAL.items()):
        cases.append((case, break_it(entries[name])))
    spin = entries["conjugation-spinor"]
    cases.append(("sign twisted", RealStruct(spin.base, spin.action, spin.u,
                                             universal_sign_cocycle(spin.group, ANTILINEAR))))
    return cases


def test_verify_real_structure_matches_the_reference_loop():
    for name, s in _oracle_cases():
        got, want = verify_real_structure(s), _reference_verify(s)
        assert (got.ok, got.identity, got.at) == (want.ok, want.identity, want.at), name
        assert got.term == want.term, name
