"""Clifford algebras, graded modules, and the bridge to factorizations."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mfsym.scalars import Scalar
from mfsym.polys import Poly, RingMap, RingSpec
from mfsym.clifford import (
    QuadForm, CliffAlg, CliffMod, clifford_mul,
    module_validate, beh_phi, module_hom_dim,
    beh_hom_compare, module_twist, beh_twist_intertwined, parity_shift,
    cl_rs, real_clifford_fixed, graded_tensor, GradedTensorAlg, signature,
    mf_to_clifford_module,
)
import mfsym.catalog as catalog
import mfsym.clifford as clifford
from mfsym.cli import run_suite
from mfsym.mf import rank_one
from oracles import clifford_mul_reference, graded_tensor_mul_reference, mat_mul


def test_quadform_validation():
    q = QuadForm.diagonal([1, -1])
    q.validate()
    with pytest.raises(ValueError):
        QuadForm.diagonal([1, 0])


def test_generator_relations():
    alg = cl_rs(2, 1)
    one = Scalar.one()
    for j, sign in enumerate((1, 1, -1)):
        e = alg.generator(j)
        sq = clifford_mul(alg, e, e)
        assert sq == {(): one * sign}
    e0, e1 = alg.generator(0), alg.generator(1)
    anti = clifford_mul(alg, e0, e1)
    swap = clifford_mul(alg, e1, e0)
    assert anti == {(0, 1): one}
    assert swap == {(0, 1): -one}


def test_straightening_reduces_words():
    alg = cl_rs(2, 0)
    e0, e1 = alg.generator(0), alg.generator(1)
    word = clifford_mul(alg, clifford_mul(alg, e1, e0), e1)
    # e1 e0 e1 = -e0 e1 e1 = -e0
    assert word == {(0,): -Scalar.one()}


# squares beyond +-1, so that the square factor of the blade rule shows
SQUARES = (Scalar.one(), -Scalar.one(), Scalar.from_rational(2),
           Scalar.from_rational(Fraction(-1, 3)), Scalar.zeta(8))


@st.composite
def clifford_algebras(draw):
    if draw(st.booleans()):
        r = draw(st.integers(0, 5))
        return cl_rs(r, draw(st.integers(0 if r else 1, 5 - r)))
    return CliffAlg(QuadForm.diagonal(draw(st.lists(st.sampled_from(SQUARES),
                                                    min_size=1, max_size=5))))


def elements(draw, basis):
    """Up to 4 terms on the given basis, coefficients a + b zeta_8."""
    coeffs = st.builds(lambda a, b: Scalar.from_rational(a) + Scalar.from_rational(b)
                       * Scalar.zeta(8), st.integers(-3, 3), st.integers(-3, 3))
    terms = draw(st.dictionaries(st.sampled_from(basis), coeffs, max_size=4))
    return {k: c for k, c in terms.items() if not c.is_zero()}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_blade_rule_matches_straightening(data):
    alg = data.draw(clifford_algebras())
    a, b = (elements(data.draw, alg.basis()) for _ in range(2))
    assert clifford_mul(alg, a, b) == clifford_mul_reference(alg, a, b)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_graded_tensor_mul_matches_straightening(data):
    left, right = data.draw(clifford_algebras()), data.draw(clifford_algebras())
    pairs = [(s, t) for s in left.basis() for t in right.basis()]
    a, b = (elements(data.draw, pairs) for _ in range(2))
    assert (GradedTensorAlg(left, right).mul(a, b)
            == graded_tensor_mul_reference(left, right, a, b))


def test_products_on_a_form_that_is_not_diagonal_are_refused():
    """The algebra of uv has B_01 = 1/2; the straightening reference gives
    e_1 e_0 = 1 - e_0 e_1 there, and the package refuses it."""
    ring = RingSpec(("u", "v"))
    alg = mf_to_clifford_module(rank_one(Poly.variable(ring, "u"),
                                         Poly.variable(ring, "v"))).alg
    e0, e1 = alg.generator(0), alg.generator(1)
    assert clifford_mul_reference(alg, e1, e0) == {(): Scalar.one(), (0, 1): -Scalar.one()}
    with pytest.raises(ValueError, match="not diagonal"):
        clifford_mul(alg, e1, e0)
    with pytest.raises(ValueError, match="not diagonal"):
        graded_tensor(alg, cl_rs(1, 0))
    with pytest.raises(ValueError, match="not diagonal"):
        signature(alg.quad)


def test_module_catalog_validates():
    for name, m in catalog.clifford_module_catalog():
        assert module_validate(m) == [], name


def test_beh_phi_factorizes_the_form():
    for name, m in catalog.clifford_module_catalog():
        ring = catalog.clifford_ring_for(m)
        M = beh_phi(m, ring)
        prod = mat_mul(M.d1, M.d0)
        for r in range(M.r0):
            for c in range(M.r0):
                want = M.w if r == c else Poly.zero(ring)
                assert prod[r][c] == want, name


def test_hom_dims_agree_across_bridge():
    mods = catalog.clifford_module_catalog()
    pairs = 0
    for i, (n1, m1) in enumerate(mods):
        for n2, m2 in mods[i:]:
            if m1.alg.quad.dimension != m2.alg.quad.dimension:
                continue
            ring = catalog.clifford_ring_for(m1)
            left, right, rep = beh_hom_compare(m1, m2, ring)
            assert left == right, (n1, n2)
            assert rep.stable
            pairs += 1
    assert pairs >= 6


def test_mf_to_clifford_module_round_trip():
    m = catalog.pauli_module()
    ring = catalog.clifford_ring_for(m)
    M = beh_phi(m, ring)
    back = mf_to_clifford_module(M)
    assert back.dims == m.dims
    assert back.alg.quad.bilinear == m.alg.quad.bilinear
    assert back.gammas == m.gammas


def test_mf_to_clifford_module_rejects_nonlinear():
    ring = RingSpec(("x",))
    x = Poly.variable(ring, "x")
    M = rank_one(x, x ** 3)
    with pytest.raises(ValueError):
        mf_to_clifford_module(M)


def test_parity_shift_involution():
    m = catalog.pauli_module()
    assert parity_shift(parity_shift(m)) == m
    assert module_validate(parity_shift(m)) == []


def test_signature_algebras_over_q():
    for r in range(4):
        for s in range(4 - r):
            if r + s == 0:
                continue
            alg, relations_ok = real_clifford_fixed(r, s)
            assert relations_ok, (r, s)


def test_graded_tensor_tower(monkeypatch):
    calls = 0
    mul = GradedTensorAlg.mul

    def counting_mul(self, a, b):
        nonlocal calls
        calls += 1
        return mul(self, a, b)

    monkeypatch.setattr(GradedTensorAlg, "mul", counting_mul)
    acc = cl_rs(1, 1)
    for _ in range(3):
        acc, iso = graded_tensor(acc, cl_rs(1, 1))
        assert iso
    assert signature(acc.quad) == (4, 4)
    # per step of k generators: k(k+1) for the relations and 2^k - 1 for
    # the basis, k = 4, 6, 8
    assert calls == sum(k * (k + 1) + 2 ** k - 1 for k in (4, 6, 8))


def test_graded_tensor_stops_at_the_first_failing_relation(monkeypatch):
    """Without the Koszul sign a left and a right generator commute, so
    Cl(1,1) x Cl(1,1) fails its first mixed relation, and the check stops
    there: before the k(k+1) = 20 products of all relations, k = 4."""
    calls = 0

    def unsigned_mul(self, a, b):
        nonlocal calls
        calls += 1
        out = {}
        one = Scalar.one()
        for (sa, ta), ca in a.items():
            for (sb, tb), cb in b.items():
                for ls, lc in clifford_mul(self.left, {sa: one}, {sb: one}).items():
                    for rs, rc in clifford_mul(self.right, {ta: one}, {tb: one}).items():
                        clifford._elem_add(out, (ls, rs), ca * cb * lc * rc)
        return out

    monkeypatch.setattr(GradedTensorAlg, "mul", unsigned_mul)
    _, iso = graded_tensor(cl_rs(1, 1), cl_rs(1, 1))
    assert not iso
    assert calls < 4 * 5


def test_twist_intertwines_bridge():
    ring = RingSpec(("x",), conductor=4)
    m = catalog.spinor_module()
    act = catalog.conjugation_action(ring)
    for i in act.group.elements():
        assert beh_twist_intertwined(m, ring, act.map_of(i))


def test_bridge_twist_verdict_names_the_module_and_element(monkeypatch):
    """The clifford suite's bridge-twist entry, with the twisted module's
    generators negated under the antilinear element: the bridge no longer
    commutes with that twist, and the verdict says where."""
    twist = clifford.module_twist

    def corrupted(m, rm):
        t = twist(m, rm)
        if not rm.antilinear:
            return t
        return CliffMod(t.alg, t.dims, tuple(tuple(tuple({c: -x for c, x in row.items()}
                                                         for row in blk)
                                                   for blk in g) for g in t.gammas))

    monkeypatch.setattr(clifford, "module_twist", corrupted)
    results = {r.name: r for r in run_suite("clifford").results}
    entry = results.pop("bridge-commutes-with-twist")
    assert not entry.ok and entry.detail == {"failed": {
        "identity": "bridge commutes with twist", "at": ["spinor", "g1"], "term": None}}
    assert all(r.ok for r in results.values())


def test_module_hom_dim_rejects_differing_algebras():
    with pytest.raises(ValueError):
        module_hom_dim(catalog.spinor_module(), catalog.pauli_module())


def _ragged_double_pauli():
    """The double Pauli module with an entry past the last column in row 1
    of gamma_0's even block."""
    m = catalog.double_pauli_module()
    (g0, g1), rest = m.gammas[0], m.gammas[1:]
    bad = (g0[0], {**g0[1], 2: Scalar.one()})
    return CliffMod(m.alg, m.dims, ((bad, g1),) + rest)


def test_module_validate_rejects_wrong_generator_count():
    m = catalog.pauli_module()
    with pytest.raises(ValueError):
        module_validate(CliffMod(m.alg, m.dims, m.gammas[:1]))


def test_module_validate_rejects_wrong_row_count():
    m = catalog.double_pauli_module()
    (g0, g1), rest = m.gammas[0], m.gammas[1:]
    with pytest.raises(ValueError):
        module_validate(CliffMod(m.alg, m.dims, ((g0[:1], g1),) + rest))


def test_clifford_module_rejects_a_zero_value():
    m = catalog.pauli_module()
    (g0, g1), rest = m.gammas[0], m.gammas[1:]
    with pytest.raises(ValueError):
        CliffMod(m.alg, m.dims, ((({0: Scalar.zero()},), g1),) + rest)


def test_module_validate_rejects_ragged_row():
    with pytest.raises(ValueError):
        module_validate(_ragged_double_pauli())


def test_module_validate_rejects_ragged_row_without_asserts():
    code = ("import sys; sys.path[:0] = sys.argv[1:]\n"
            "from test_clifford import _ragged_double_pauli\n"
            "from mfsym.clifford import module_validate\n"
            "try:\n"
            "    module_validate(_ragged_double_pauli())\n"
            "except ValueError:\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n")
    tests_dir = Path(__file__).resolve().parent
    src_dir = tests_dir.parent / "src"
    run = subprocess.run([sys.executable, "-O", "-c", code, str(tests_dir), str(src_dir)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_generator_index_out_of_range():
    with pytest.raises(ValueError):
        cl_rs(2, 0).generator(2)


def test_beh_phi_rejects_ring_size():
    with pytest.raises(ValueError):
        beh_phi(catalog.pauli_module(), RingSpec(("x",)))


def test_module_twist_rejects_ring_size():
    ring = RingSpec(("x", "y"))
    rm = RingMap((Poly.variable(ring, "x"), Poly.variable(ring, "y")), False)
    with pytest.raises(ValueError):
        module_twist(catalog.spinor_module(), rm)


def test_module_twist_rejects_nonlinear_map():
    ring = RingSpec(("x",))
    x = Poly.variable(ring, "x")
    with pytest.raises(ValueError):
        module_twist(catalog.spinor_module(), RingMap((x * x,), False))
