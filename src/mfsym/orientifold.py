"""Contravariant group actions on matrix factorizations and duality.

A C2-graded group acts on the ring by k-linear automorphisms leaving the
potential semi-invariant: sigma(w) = pi(sigma) w.  Even elements act by
the twist functor; odd elements act through the dual (plain variant) or
the shifted dual (shifted variant).  The action, its theta and the
homotopy fixed point law are groups.ContraRep's, shared with Real
structures.  Theta is two block scalars at every object, so its 2-cocycle
identity is one of scalars, and the other categorical identities are
finite matrix checks in which theta scales blocks: the homotopy fixed
point law, the induced duality on fixed points with its coherence, and
form-functor comparisons between odd elements.  Eta, the equivariance
data of the Knoerrer functor, is constant blocks at every object too: the
identity on even elements and a signed swap on odd ones, laid out by the
ranks of rho(i)(M), held as linalg's sparse rows.  Its coherence is a check
on those rows, and the Knoerrer step applies them to u_i x id_K by row
selection; no eta morphism is built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import product

from .scalars import Scalar
from .polys import Poly, RingSpec, RingMap, apply_ring_map
from .linalg import _least_term, _sparse_mul, _sparse_scaled_identity
from .mf import (
    MF, MFMor, mat_scale, compose, identity_mor, mor_inverse, external_tensor,
    tensor_mor_blocks, rank_one, lift_poly, Verdict, equation,
)
from .groups import (
    CONTRAVARIANT, PLAIN, SHIFTED, ContraRep, diagonal_action, fresh_variable_pair,
    join_actions, rank_one_character, rep_apply, rep_apply_mor, scaled_fixed_point,
    theta_scalars, universal_sign_cocycle, verify_fixed_point, _graded_act,
)


def _scale_blocks(f: MFMor, source: MF, target: MF, c) -> MFMor:
    """f composed with a theta given as its block scalars c = (c0, c1)."""
    return MFMor(source, target, 0, mat_scale(c[0], f.f0), mat_scale(c[1], f.f1))


def theta_cocycle_check(rep: ContraRep) -> Verdict:
    """theta_{i3 i2, i1} ∘ theta_{i3, i2} = theta_{i3, i2 i1} ∘ rho(i3)(theta_{i2, i1}^{pi(i3)})
    on all element triples, on theta's block scalars, the same at every object:
    rho(i3) acts on them as on units (groups._graded_act) and swaps the
    blocks where it flips in the shifted variant, as rep_apply_mor does."""
    g = rep.group
    for i3, i2, i1 in product(g.elements(), repeat=3):
        inner = theta_scalars(rep, i2, i1)
        if rep.action.flips(i3) and rep.variant == SHIFTED:
            inner = inner[::-1]
        lhs = [a * b for a, b in zip(theta_scalars(rep, g.mul(i3, i2), i1),
                                     theta_scalars(rep, i3, i2))]
        rhs = [a * _graded_act(rep.action.setting, g.grading[i3], b)
               for a, b in zip(theta_scalars(rep, i3, g.mul(i2, i1)), inner)]
        for block in (0, 1):
            if not (lhs[block] == rhs[block]):
                return Verdict(False, "theta cocycle", (g.labels[i3], g.labels[i2], g.labels[i1]),
                               (block, 0, 0, (), lhs[block] - rhs[block]))
    return Verdict(True)


# ---------------------------------------------------------------------------
# homotopy fixed points

@dataclass(frozen=True)
class ContraRealStruct:
    """Fixed point data: one closed degree-0 isomorphism per element of a
    subset of the group (the whole group, or its even kernel)."""

    base: MF
    rep: ContraRep
    u: dict  # element index -> MFMor from base to rep_apply(element, base)

    @cached_property
    def knorrer(self):
        """orientifold_knorrer(self), built on first use and then stored in
        the instance __dict__, which cached_property writes past the frozen
        __setattr__.  That rests on the structure being frozen and on no
        component of u being replaced or mutated after it is built."""
        rep = self.rep
        fresh = RingSpec(fresh_variable_pair(set(rep.action.ring.variables)),
                         conductor=rep.action.ring.conductor)
        K = rank_one(*(Poly.variable(fresh, name) for name in fresh.variables))
        new_rep = _extend_rep(rep, K)
        new_base = external_tensor(self.base, K)
        one = Scalar.one()
        u = {}
        for i, f in self.u.items():
            eta = eta_blocks(rep.group.grading[i] == -1, *_image_ranks(rep, i, self.base.ranks))
            # each row of eta holds one entry, +-1, so eta times a block selects its rows
            u[i] = MFMor(new_base, rep_apply(new_rep, i, new_base), 0, *(
                tuple(blk[k] if x == one else tuple(-p for p in blk[k])
                      for row in rows for k, x in row.items())
                for rows, blk in zip(eta, tensor_mor_blocks(f, identity_mor(K)))))
        coherent = eta_coherence_check(rep, new_rep, K, self.base)
        return ContraRealStruct(new_base, new_rep, u), coherent


def verify_contra_structure(s: ContraRealStruct) -> Verdict:
    """groups.verify_fixed_point on the structure."""
    return verify_fixed_point(s.rep, s.base, s.u)


def rank_one_contra_condition(rep: ContraRep):
    """For w = u*v on two variables: extracts the character chi forced by
    the action pattern of the chosen variant, brute-forces a witness
    structure on {u, v}, and returns (chi values, witness) or None."""
    uvar, vvar, chi = rank_one_character(rep.action, rep.variant)
    if not rep.w == uvar * vvar:
        raise ValueError(f"rank-one orientifold needs w = {uvar * vvar}, got {rep.w}")
    if chi is None:
        return None
    base = rank_one(uvar, vvar)
    u = scaled_fixed_point(rep, base, (Scalar.one(), -Scalar.one(), Scalar.i(), -Scalar.i()))
    return None if u is None else (chi, ContraRealStruct(base, rep, u))


# ---------------------------------------------------------------------------
# duality on fixed points

def _inverses(rep: ContraRep, u: dict):
    """The inverse of each component of u, or the verdict naming the first
    one that is not invertible."""
    inverse = {}
    for i, f in u.items():
        inverse[i] = mor_inverse(f)
        if inverse[i] is None:
            return Verdict(False, "not invertible", (rep.group.labels[i],))
    return inverse


def _duality_data(rep: ContraRep, sigma: int, C: MF, u: dict, inverse: dict):
    """(P = rho(sigma)(C), the even-subgroup structure v that u induces on
    P, big theta: C -> rho(sigma)(P)), given the inverses of u's components."""
    g = rep.group
    P = rep_apply(rep, sigma, C)
    v = {}
    for gg in g.kernel():
        h = g.mul(g.mul(g.inv(sigma), gg), sigma)
        scale = [c / d for c, d in zip(theta_scalars(rep, sigma, h), theta_scalars(rep, gg, sigma))]
        v[gg] = _scale_blocks(rep_apply_mor(rep, sigma, inverse[h]), P, rep_apply(rep, gg, P), scale)
    big_theta = _scale_blocks(u[g.mul(sigma, sigma)], C, rep_apply(rep, sigma, P),
                              [c.inverse() for c in theta_scalars(rep, sigma, sigma)])
    return P, v, big_theta


def fixed_point_duality(rep: ContraRep, sigma: int, s: ContraRealStruct) -> Verdict:
    """The verdict on the duality that an odd element induces on an
    even-subgroup fixed point: the object law, the morphism law of the
    double dual comparison map big theta, and its coherence."""
    g = rep.group
    if g.grading[sigma] != -1:
        raise ValueError(f"fixed point duality needs an odd element, got {g.labels[sigma]}")
    if isinstance(inverse := _inverses(rep, s.u), Verdict):
        return inverse
    P, v, big_theta = _duality_data(rep, sigma, s.base, s.u, inverse)
    law = verify_contra_structure(ContraRealStruct(P, rep, v))
    if not law:
        return replace(law, identity=f"duality object law: {law.identity}")

    # the object law has found every component of v invertible
    _, w, big_theta_P = _duality_data(rep, sigma, P, v, {i: mor_inverse(f) for i, f in v.items()})
    for gg in g.kernel():
        if not (morphism := equation("duality morphism law", (g.labels[sigma], g.labels[gg]),
                                     compose(w[gg], big_theta),
                                     compose(rep_apply_mor(rep, gg, big_theta), s.u[gg]))):
            return morphism
    return equation("duality coherence", (g.labels[sigma],),
                    compose(rep_apply_mor(rep, sigma, big_theta), big_theta_P),
                    identity_mor(P))


def _comparison_map(rep: ContraRep, s1: int, s2: int, obj: MF, u: dict) -> MFMor:
    g = rep.group
    h = g.mul(g.inv(s2), s1)
    f = rep_apply_mor(rep, s2, u[h])
    return _scale_blocks(f, rep_apply(rep, s1, obj), f.target,
                         [c.inverse() for c in theta_scalars(rep, s2, h)])


def duality_comparison(rep: ContraRep, s1: int, s2: int, s: ContraRealStruct) -> Verdict:
    """The verdict on the comparison between the dualities of two odd
    elements: the fixed point morphism check, then form-functor coherence.
    The laws of each duality are fixed_point_duality's to check."""
    g = rep.group
    even = [g.labels[i] for i in (s1, s2) if g.grading[i] != -1]
    if even:
        raise ValueError(f"duality comparison needs two odd elements, got even {even}")
    C = s.base
    sub = {i: s.u[i] for i in g.kernel()}
    if isinstance(inverse := _inverses(rep, sub), Verdict):
        return inverse
    P1, v1, big_theta1 = _duality_data(rep, s1, C, sub, inverse)
    _, v2, big_theta2 = _duality_data(rep, s2, C, sub, inverse)
    phi = _comparison_map(rep, s1, s2, C, sub)

    at = (g.labels[s1], g.labels[s2])
    for gg in g.kernel():
        if not (v := equation("form fixed morphism", (*at, g.labels[gg]),
                              compose(v2[gg], phi), compose(rep_apply_mor(rep, gg, phi), v1[gg]))):
            return v

    return equation("form coherence", at,
                    compose(rep_apply_mor(rep, s2, phi), big_theta2),
                    compose(_comparison_map(rep, s1, s2, P1, v1), big_theta1))


def comparison_torsor_check(rep: ContraRep, s: ContraRealStruct) -> Verdict:
    """phi^{s1,s3} = phi^{s2,s3} ∘ phi^{s1,s2} over all odd triples, once
    the kernel components that phi reads are found invertible."""
    g = rep.group
    sub = {i: s.u[i] for i in g.kernel()}
    if isinstance(singular := _inverses(rep, sub), Verdict):
        return singular
    odd = g.odd_elements()
    phi = {(s1, s2): _comparison_map(rep, s1, s2, s.base, sub) for s1, s2 in product(odd, repeat=2)}
    for s1, s2, s3 in product(odd, repeat=3):
        if not (v := equation("comparison torsor", (g.labels[s1], g.labels[s2], g.labels[s3]),
                              phi[s1, s3], compose(phi[s2, s3], phi[s1, s2]))):
            return v
    return Verdict(True)


# ---------------------------------------------------------------------------
# the Knoerrer functor in the contravariant setting

def hyperbolic_transport_check() -> Verdict:
    """The involution fixing w = y^2 + z^2 up to sign, sigma(y) = -i z and
    sigma(z) = i y, transported through the hyperbolic coordinates
    u = y + i z and v = y - i z, equals sigma(u) = -u, sigma(v) = v as an
    identity of ring maps; the images of y and z are columns 0 and 1."""
    ring = RingSpec(("u", "v"), conductor=4)
    u = Poly.variable(ring, "u")
    v = Poly.variable(ring, "v")
    ii = Scalar.i()
    half = Scalar.from_rational(Fraction(1, 2))
    # y and z expressed in the hyperbolic coordinates
    y = (u + v) * half
    z = (u - v) * (half * ii.inverse())
    sigma_uv = RingMap((-u, v), False)
    # sigma in the quadric coordinates, written on the (u, v) ring
    sy = -ii * z
    sz = ii * y
    for col, (x, sx) in enumerate(((y, sy), (z, sz))):
        diff = apply_ring_map(sigma_uv, x) - sx
        if not diff.is_zero():
            e, c = min(diff.terms.items())
            return Verdict(False, "hyperbolic transport", ("sigma",), (0, 0, col, e, c))
    return Verdict(True)


def _extend_rep(rep: ContraRep, K: MF) -> ContraRep:
    """Extend the action to the two variables u, v of K = u*v by
    sigma(u) = pi(sigma) u, sigma(v) = v; toggle the variant and twist by
    the universal sign."""
    g = rep.group
    kernel = diagonal_action(g, K.ring, CONTRAVARIANT, {
        i: (Scalar.from_rational(g.grading[i]), Scalar.one()) for i in g.elements()})
    action = join_actions(rep.action, kernel)
    twist = rep.twist.multiply(universal_sign_cocycle(g, CONTRAVARIANT))
    new_w = lift_poly(rep.w, action.ring) + lift_poly(K.w, action.ring)
    return ContraRep(g, action, new_w, SHIFTED if rep.variant == PLAIN else PLAIN, twist)


def _image_ranks(rep: ContraRep, i: int, ranks: tuple) -> tuple:
    """The ranks of rho(i)(M) from those of M: the dual keeps them, the
    shift of the shifted variant swaps them."""
    return ranks[::-1] if rep.action.flips(i) and rep.variant == SHIFTED else ranks


def eta_blocks(odd: bool, a0: int, a1: int) -> tuple:
    """The blocks (f0, f1) of eta_i at M as sparse rows ({col: Scalar}, as in
    linalg), the Knoerrer equivariance map rho(i)(M) x K -> rho'(i)(M x K),
    where rho(i)(M) has ranks (a0, a1): the identity on even elements, the
    signed swap on odd ones."""
    one = Scalar.one()
    if not odd:
        ident = _sparse_scaled_identity(one, a0 + a1)
        return ident, ident
    f0 = [{a0 + r: one} for r in range(a1)] + [{r: -one} for r in range(a0)]
    f1 = [{a1 + r: one} for r in range(a0)] + [{r: one} for r in range(a1)]
    return f0, f1


def eta_coherence_check(src_rep: ContraRep, tgt_rep: ContraRep, K: MF, M: MF) -> Verdict:
    """theta'_{i2, i1} ∘ rho'(i2)(eta_{i1}^{pi(i2)}) ∘ eta_{i2} = eta_{i2 i1} ∘ (theta_{i2, i1} x id_K)
    at M on all element pairs, on eta's rows.  Where i2 flips, rho'(i2)
    takes the transposed inverse of a block pair, swapped in the shifted
    variant; eta's blocks are signed permutations, so that is the pair
    itself.  theta x id_K scales the column of each basis element m x n by
    theta's scalar on the part of m.  A failure's term is the least nonzero
    entry of lhs - rhs, at the constant exponent of the ring of M x K."""
    g = src_rep.group
    for i2, i1 in product(g.elements(), repeat=2):
        # rho(i2)(rho(i1)(M)) has the ranks of rho(i2 i1)(M)
        a0, a1 = _image_ranks(src_rep, g.mul(i2, i1), M.ranks)
        inner = eta_blocks(g.grading[i1] == -1, *_image_ranks(src_rep, i1, M.ranks))
        if tgt_rep.action.flips(i2) and tgt_rep.variant == SHIFTED:
            inner = inner[::-1]
        outer = eta_blocks(g.grading[i2] == -1, a0, a1)
        c = theta_scalars(tgt_rep, i2, i1)
        # the even basis of rho(i2 i1)(M) x K is M0 x K0, M1 x K1, the odd one M1 x K0, M0 x K1
        d0, d1 = (-x for x in theta_scalars(src_rep, i2, i1))
        minus_theta = ([{k: s} for k, s in enumerate([d0] * a0 + [d1] * a1)],
                       [{k: s} for k, s in enumerate([d1] * a1 + [d0] * a0)])
        eta = eta_blocks(g.grading[g.mul(i2, i1)] == -1, a0, a1)
        # lhs - rhs = c (inner outer) - eta (theta x id_K), block by block
        diff = [_sparse_mul(eta[p], minus_theta[p], _sparse_mul(
                    _sparse_scaled_identity(c[p], a0 + a1), _sparse_mul(inner[p], outer[p])))
                for p in (0, 1)]
        if (term := _least_term(diff, (0,) * (M.ring.nvars + K.ring.nvars))) is not None:
            return Verdict(False, "eta coherence", (g.labels[i2], g.labels[i1]), term)
    return Verdict(True)


def orientifold_knorrer(s: ContraRealStruct):
    """Tensors a fixed point structure with the rank-one factorization of
    u*v on fresh variables; returns the structure for the toggled-variant,
    sign-twisted action together with the eta coherence verdict.  Each
    structure builds its image once (ContraRealStruct.knorrer)."""
    return s.knorrer


def double_knorrer(s: ContraRealStruct):
    """Two Knoerrer steps; the universal sign twist has order two, so the
    result is a structure for the original variant and twist."""
    once, ok1 = orientifold_knorrer(s)
    twice, ok2 = orientifold_knorrer(once)
    if twice.rep.variant != s.rep.variant:
        raise ValueError(f"two Knoerrer steps give the {twice.rep.variant} variant "
                         f"from the {s.rep.variant} one")
    return twice, ok1 and ok2  # the first failing verdict
