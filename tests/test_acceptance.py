"""Acceptance gate: one test per release criterion, exact equality only.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion.
"""

import random
import time
from fractions import Fraction
from itertools import product as iproduct

from mfsym.scalars import Scalar
from mfsym.polys import Poly, RingSpec, RingMap
from mfsym.groups import (
    cyclic_group, product_group, ActionSpec, validate_action,
    ANTILINEAR, CONTRAVARIANT, universal_sign_cocycle, twist_mf,
)
from mfsym.mf import (
    MFMor, rank_one, identity_mor, compose, diff_mor, hom_diff, is_closed,
    is_isomorphism, shift_mor, dual, dual_mor, double_dual_iso,
    grading_iso, swap_iso, shift_tensor_iso_left, shift_tensor_iso_right,
    tensor_dual_pairing,
)
from mfsym.real import (
    RealStruct, verify_real_structure, rank_one_real_condition, real_knorrer,
)
from mfsym.orientifold import (
    PLAIN, SHIFTED, ContraRep, ContraRealStruct, rank_one_contra_condition,
    verify_contra_structure, fixed_point_duality,
    duality_comparison, comparison_torsor_check, orientifold_knorrer,
    double_knorrer, eta_blocks, eta_coherence_check, _extend_rep,
)
from mfsym.clifford import beh_hom_compare
from mfsym.cohomology import (
    hom_cohomology, default_cutoff, knorrer_hom_preservation,
)
from mfsym.cli import _eightfold_consistency
import mfsym.catalog as catalog
from oracles import mat_mul, verify_duality


def test_criterion_01_twisted_differential_soundness():
    t0 = time.monotonic()
    cat = catalog.mf_catalog()
    assert len(cat) >= 15
    for name, M in cat:
        ring = M.ring
        for prod, n in ((mat_mul(M.d1, M.d0), M.r0),
                        (mat_mul(M.d0, M.d1), M.r1)):
            for r in range(n):
                for c in range(n):
                    want = M.w if r == c else Poly.zero(ring)
                    assert prod[r][c] == want, name
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_koszul_sign_suite():
    t0 = time.monotonic()
    rng = random.Random(8241)
    cat = catalog.mf_catalog()

    def rand_mor(M, N, parity):
        ring = M.ring
        shapes = ([(N.r0, M.r0), (N.r1, M.r1)] if parity == 0
                  else [(N.r1, M.r0), (N.r0, M.r1)])
        blocks = []
        for rows, cols in shapes:
            blk = []
            for r in range(rows):
                row = []
                for c in range(cols):
                    terms = {}
                    for _ in range(2):
                        e = tuple(rng.randrange(0, 2)
                                  for _ in range(ring.nvars))
                        terms[e] = Scalar.from_rational(rng.randrange(-3, 4))
                    row.append(Poly(ring, terms))
                blk.append(tuple(row))
            blocks.append(tuple(blk))
        return MFMor(M, N, parity, blocks[0], blocks[1])

    checks = 0
    for _ in range(400):
        _, M = cat[rng.randrange(len(cat))]
        f = rand_mor(M, M, rng.randrange(2))
        dd = hom_diff(hom_diff(f))
        assert all(p.is_zero() for blk in (dd.f0, dd.f1)
                   for row in blk for p in row)
        checks += 1
    for _ in range(300):
        _, M = cat[rng.randrange(len(cat))]
        f = rand_mor(M, M, rng.randrange(2))
        assert shift_mor(shift_mor(f)) == f
        checks += 1
    for _ in range(300):
        _, M = cat[rng.randrange(len(cat))]
        f = rand_mor(M, M, rng.randrange(2))
        g = rand_mor(M, M, rng.randrange(2))
        assert hom_diff(dual_mor(f)) == dual_mor(hom_diff(f))
        lhs = dual_mor(compose(f, g))
        rhs = compose(dual_mor(g), dual_mor(f))
        if f.parity * g.parity:
            rhs = rhs.scale(-Scalar.one())
        assert lhs == rhs
        checks += 1
    assert checks == 1000
    for _, M in cat:
        assert is_closed(grading_iso(M)) and is_isomorphism(grading_iso(M))
    Ruv = RingSpec(("u", "v"))
    Ryz = RingSpec(("y", "z"))
    A = rank_one(Poly.variable(Ruv, "u"), Poly.variable(Ruv, "v"))
    B = rank_one(Poly.variable(Ryz, "y"), Poly.variable(Ryz, "z"))
    for iso in (swap_iso(A, B), shift_tensor_iso_left(A, B),
                shift_tensor_iso_right(A, B), tensor_dual_pairing(A, B)):
        assert is_closed(iso) and is_isomorphism(iso)
    assert time.monotonic() - t0 < 10.0


def test_criterion_03_double_dual_coherence():
    objects = [M for _, M in catalog.mf_catalog()]
    assert verify_duality(objects, dual, dual_mor, double_dual_iso)


def test_criterion_04_rank_one_oracle_agreement():
    t0 = time.monotonic()
    ring = RingSpec(("u", "v"), conductor=8)
    u, v = Poly.variable(ring, "u"), Poly.variable(ring, "v")
    w = u * v
    units4 = [Scalar.zeta(4, k) for k in range(4)]
    units8 = [Scalar.zeta(8, k) for k in range(8)]

    def diagonal_actions(group):
        non_id = [i for i in group.elements() if i != group.identity]
        out = []
        for combo in iproduct(iproduct(units4, units4), repeat=len(non_id)):
            maps = [None] * group.order
            maps[group.identity] = RingMap.identity(ring)
            for idx, (a, b) in zip(non_id, combo):
                maps[idx] = RingMap((u * a, v * b),
                                    group.grading[idx] == -1)
            act = ActionSpec(group, ANTILINEAR, tuple(maps))
            if act.check_homomorphism() is not None:
                continue
            if not validate_action(act, w).ok:
                continue
            out.append(act)
        return out

    def brute_force(act):
        g = act.group
        base = rank_one(u, v)
        per = {}
        for i in g.elements():
            if i == g.identity:
                per[i] = [identity_mor(base)]
                continue
            tgt = twist_mf(act.map_of(i), base)
            opts = []
            for c0 in units8:
                for c1 in units8:
                    f = MFMor(base, tgt, 0,
                              ((Poly.constant(ring, 1) * c0,),),
                              ((Poly.constant(ring, 1) * c1,),))
                    if is_closed(f):
                        opts.append(f)
            if not opts:
                return None
            per[i] = opts
        elems = list(g.elements())

        def rec(k, chosen):
            if k == len(elems):
                s = RealStruct(base, act,
                               tuple(chosen[i] for i in elems))
                return s if verify_real_structure(s).ok else None
            for f in per[elems[k]]:
                chosen[elems[k]] = f
                out = rec(k + 1, chosen)
                if out is not None:
                    return out
            return None

        return rec(0, {})

    groups = (cyclic_group(2, graded=True), cyclic_group(4, graded=True),
              product_group(cyclic_group(2, graded=True), cyclic_group(2)))
    compared = 0
    for g in groups:
        for act in diagonal_actions(g):
            fast = rank_one_real_condition(act)
            slow = brute_force(act)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert verify_real_structure(fast[1]).ok
            compared += 1
    assert compared >= 16
    assert time.monotonic() - t0 < 60.0


def test_criterion_05_real_knorrer_catalog():
    entries = catalog.real_catalog()
    group_kinds = {s.group.order for _, s in entries}
    assert {2, 6} <= group_kinds
    for name, s in entries:
        out = real_knorrer(s)
        verdict = verify_real_structure(out)
        assert verdict.ok, (name, verdict)


def test_criterion_06_orientifold_eta_and_double_knorrer():
    ring = RingSpec(("u", "v"), conductor=4)
    u, v = Poly.variable(ring, "u"), Poly.variable(ring, "v")
    w = u * v
    g2 = cyclic_group(2, graded=True)
    act2 = ActionSpec(g2, CONTRAVARIANT,
                      (RingMap.identity(ring), RingMap((-u, v), False)))
    rep2 = ContraRep(g2, act2, w, SHIFTED, universal_sign_cocycle(g2))
    g4 = cyclic_group(4, graded=True)
    act4 = ActionSpec(g4, CONTRAVARIANT, (
        RingMap.identity(ring), RingMap((-v, u), False),
        RingMap((-u, -v), False), RingMap((v, -u), False)))
    rep4 = ContraRep(g4, act4, w, PLAIN)
    yz = RingSpec(("y", "z"), conductor=4)
    K = rank_one(Poly.variable(yz, "y"), Poly.variable(yz, "z"))
    for rep in (rep2, rep4):
        found = rank_one_contra_condition(rep)
        assert found is not None
        s = found[1]
        ext = _extend_rep(rep, K)
        f0, f1 = eta_blocks(True, *s.base.ranks)
        one = Scalar.one()
        assert f0 == [{1: one}, {0: -one}]
        assert f1 == [{1: one}, {0: one}]
        assert eta_coherence_check(rep, ext, K, s.base)
        out, coherent = double_knorrer(s)
        assert coherent
        assert out.rep.variant == rep.variant
        assert verify_contra_structure(out).ok


def test_criterion_07_fixed_point_duality_suite():
    t0 = time.monotonic()
    ring = RingSpec(("u", "v"), conductor=4)
    u, v = Poly.variable(ring, "u"), Poly.variable(ring, "v")
    w = u * v
    g4 = cyclic_group(4, graded=True)
    act4 = ActionSpec(g4, CONTRAVARIANT, (
        RingMap.identity(ring), RingMap((-v, u), False),
        RingMap((-u, -v), False), RingMap((v, -u), False)))
    rep4 = ContraRep(g4, act4, w, PLAIN)
    g22 = product_group(cyclic_group(2, graded=True), cyclic_group(2))
    act22 = ActionSpec(g22, CONTRAVARIANT, (
        RingMap.identity(ring), RingMap.identity(ring),
        RingMap((-u, v), False), RingMap((-u, v), False)))
    rep22 = ContraRep(g22, act22, w, SHIFTED, universal_sign_cocycle(g22))
    for rep in (rep4, rep22):
        found = rank_one_contra_condition(rep)
        assert found is not None
        s = found[1]
        k, coherent = orientifold_knorrer(s)
        assert coherent and verify_contra_structure(k).ok
        assert k.base.ranks == (2, 2)
        for struct in (s, k):
            r = struct.rep
            g = r.group
            sub = ContraRealStruct(struct.base, r,
                                   {i: struct.u[i] for i in g.kernel()})
            for sigma in g.odd_elements():
                drep = fixed_point_duality(r, sigma, sub)
                assert drep.ok, drep
            odd = g.odd_elements()
            for s1 in odd:
                for s2 in odd:
                    form = duality_comparison(r, s1, s2, struct)
                    assert form.ok, form
            assert comparison_torsor_check(r, struct)
    assert time.monotonic() - t0 < 30.0


def test_criterion_08_bridge_full_faithfulness():
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


def test_criterion_09_eightfold_consistency():
    t0 = time.monotonic()
    detail, ok = _eightfold_consistency(4)
    assert detail["structure_verified"]
    assert detail["closed_fixed_dims"][0] == detail["closed_fixed_dims"][1]
    assert detail["cohomology_dims"][0] == detail["cohomology_dims"][1]
    assert detail["tensor_tower_ok"]
    assert detail["tensor_signature"] == [4, 4]
    assert ok
    assert time.monotonic() - t0 < 120.0


def test_criterion_10_cohomology_invariants():
    t0 = time.monotonic()
    half = Scalar.from_rational(Fraction(1, 2))
    for name, M in catalog.mf_catalog():
        d = diff_mor(M)
        h = MFMor(M, M, 1,
                  tuple(tuple(p * half for p in row) for row in d.f0),
                  tuple(tuple(p * half for p in row) for row in d.f1))
        target = hom_diff(h)
        ident = identity_mor(M)
        assert target.f0 == tuple(tuple(p * M.w for p in row)
                                  for row in ident.f0), name
        assert target.f1 == tuple(tuple(p * M.w for p in row)
                                  for row in ident.f1), name
    ring = RingSpec(("x",))
    x = Poly.variable(ring, "x")
    from mfsym.mf import mf_new
    w = x ** 2
    T = mf_new(ring, w, ((Poly.constant(ring, 1),),), ((w,),))
    rep = hom_cohomology(T, T, default_cutoff(w))
    assert rep.dims == (0, 0) and rep.stable
    ryz = RingSpec(("y", "z"))
    K = rank_one(Poly.variable(ryz, "y"), Poly.variable(ryz, "z"))
    for n in (2, 3, 4):
        for k in range(1, n):
            for j in range(k, n):
                M = rank_one(x ** k, x ** (n - k))
                N = rank_one(x ** j, x ** (n - j))
                cutoff = default_cutoff(x ** n)
                left, right, same = knorrer_hom_preservation(M, N, K, cutoff)
                assert same, (n, k, j)
                assert left.stable and right.stable
                plus2 = hom_cohomology(M, N, cutoff + 2)
                assert plus2.dims == left.dims
    assert time.monotonic() - t0 < 120.0
