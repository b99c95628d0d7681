"""Clifford algebras, graded modules, and the bridge to factorizations."""

import subprocess
import sys
from pathlib import Path

import pytest

from mfsym.scalars import Scalar
from mfsym.polys import Poly, RingMap, RingSpec
from mfsym.mf import mat_mul, mat_eq
from mfsym.clifford import (
    QuadForm, CliffAlg, CliffMod, CliffModMor, clifford_mul, element_eq,
    module_validate, module_act, beh_phi, beh_phi_mor, module_hom_dim,
    beh_hom_compare, module_twist, beh_twist_intertwined, parity_shift,
    cl_rs, real_clifford_fixed, graded_tensor, signature, smat,
    mf_to_clifford_module,
)
import mfsym.catalog as catalog


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
        assert element_eq(sq, {(): one * sign})
    e0, e1 = alg.generator(0), alg.generator(1)
    anti = clifford_mul(alg, e0, e1)
    swap = clifford_mul(alg, e1, e0)
    assert element_eq(anti, {(0, 1): one})
    assert element_eq(swap, {(0, 1): -one})


def test_straightening_reduces_words():
    alg = cl_rs(2, 0)
    e0, e1 = alg.generator(0), alg.generator(1)
    word = clifford_mul(alg, clifford_mul(alg, e1, e0), e1)
    # e1 e0 e1 = -e0 e1 e1 = -e0
    assert element_eq(word, {(0,): -Scalar.one()})


def test_module_catalog_validates():
    for name, m in catalog.clifford_module_catalog():
        assert module_validate(m) == [], name


def test_module_act_matches_gamma_products():
    m = catalog.pauli_module()
    alg = m.alg
    prod = clifford_mul(alg, alg.generator(0), alg.generator(1))
    even, odd = module_act(m, prod, 0)
    _, g1_0 = m.gammas[0]
    g0_1, _ = m.gammas[1]
    # e0 e1 acts on the even part by gamma0 (odd to even) after gamma1
    # (even to odd), landing back in the even part
    direct = tuple(
        tuple(sum((g1_0[r][k] * g0_1[k][c] for k in range(len(g0_1))),
                  Scalar.zero()) for c in range(len(g0_1[0])))
        for r in range(len(g1_0))
    )
    assert even == direct


def test_beh_phi_factorizes_the_form():
    for name, m in catalog.clifford_module_catalog():
        ring = catalog.clifford_ring_for(m)
        M = beh_phi(m, ring)
        prod = mat_mul(M.d1, M.d0)
        for r in range(M.r0):
            for c in range(M.r0):
                want = M.w if r == c else Poly.zero(ring)
                assert prod[r][c] == want, name


def test_beh_phi_mor_preserves_module_maps():
    m = catalog.spinor_module()
    ident = CliffModMor(m, m, smat([[1]]), smat([[1]]))
    assert ident.is_module_map()
    ring = catalog.clifford_ring_for(m)
    f = beh_phi_mor(ident, ring)
    from mfsym.mf import is_closed
    assert is_closed(f)


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
    from mfsym.mf import rank_one
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


def test_graded_tensor_tower():
    acc = cl_rs(1, 1)
    for _ in range(3):
        acc, iso = graded_tensor(acc, cl_rs(1, 1))
        assert iso
    assert signature(acc.quad) == (4, 4)


def test_twist_intertwines_bridge():
    ring = RingSpec(("x",), conductor=4)
    m = catalog.spinor_module()
    act = catalog.conjugation_action(ring)
    for i in act.group.elements():
        assert beh_twist_intertwined(m, ring, act.map_of(i))


def test_module_hom_dim_rejects_differing_algebras():
    with pytest.raises(ValueError):
        module_hom_dim(catalog.spinor_module(), catalog.pauli_module())


def _ragged_double_pauli():
    """The double Pauli module with one extra entry in row 1 of gamma_0's even block."""
    m = catalog.double_pauli_module()
    (g0, g1), rest = m.gammas[0], m.gammas[1:]
    bad = (g0[0], g0[1] + (Scalar.one(),))
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
