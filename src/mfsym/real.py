"""Antilinear homotopy fixed points on matrix factorizations.

A Real structure is a family of closed degree-0 isomorphisms u_sigma
from the base to its sigma-twist satisfying the (optionally cocycle
twisted) law u_{ts} = mu([t|s]) * (u_s)^t . u_t, with u_e the identity:
the homotopy fixed point law of groups.verify_fixed_point for an
antilinear action, where every element acts covariantly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .scalars import Scalar, _rational, _reduce, euler_phi
from .polys import Poly, RingSpec, jacobi_basis
from .mf import (
    MF, MFError, MFMor, Verdict, rank_one, scaled_identity, diff_mor, external_tensor,
    tensor_mor_blocks, window_monomials, window_operator, window_slots,
)
from .groups import (
    ActionSpec, Char1, Cocycle2, ContraRep, GroupSpec, ANTILINEAR, diagonal_action,
    fresh_variable_pair, join_actions, rank_one_character, twist_mf, validate_action,
    verify_fixed_point,
)
from .linalg import sparse_rank


@dataclass(frozen=True)
class RealStruct:
    base: MF
    action: ActionSpec
    u: tuple[MFMor, ...]  # per group element: base -> twist(sigma, base)
    twist: Cocycle2 | None = None

    @property
    def group(self) -> GroupSpec:
        return self.action.group


def verify_real_structure(s: RealStruct) -> Verdict:
    """The setting, groups.validate_action's verdict on the action, then
    groups.verify_fixed_point on a fresh rep of the action, its law named
    "Real cocycle": u_{ts} = mu([t|s]) * (u_s)^t . u_t.  Stops at the
    first failure."""
    g = s.group
    act = s.action
    if act.setting != ANTILINEAR:
        return Verdict(False, "antilinear setting")
    if not (v := validate_action(act, s.base.w)):
        return v
    return verify_fixed_point(ContraRep(g, act, s.base.w, twist=s.twist), s.base,
                              dict(enumerate(s.u)), "Real cocycle")


def rank_one_real_condition(act: ActionSpec):
    """For an antilinear action on a two-variable ring with w = u*v: returns
    (chi, witness RealStruct) when every sigma scales the first variable by
    chi(sigma) and the second by its inverse, else None.  The witness's
    components are chi(sigma) times the identity, so its Real cocycle law
    is chi's own law, which Char1.check has just verified."""
    uvar, vvar, values = rank_one_character(act)
    g = act.group
    if values is None or not (chi := Char1(g, ANTILINEAR, values)).check():
        return None
    base = rank_one(uvar, vvar)
    struct = RealStruct(base, act, tuple(
        scaled_identity(base, twist_mf(act.map_of(i), base), 1, chi.value(i))
        for i in g.elements()
    ))
    return chi, struct


def tensor_real_structure(sM: RealStruct, sN: RealStruct) -> RealStruct:
    """The induced structure on the external tensor, components u x u'."""
    act = join_actions(sM.action, sN.action)
    base = external_tensor(sM.base, sN.base)
    comps = []
    for i in act.group.elements():
        # the tensor of the twists equals the twist of the tensor on the nose
        comps.append(MFMor(base, twist_mf(act.map_of(i), base), 0,
                           *tensor_mor_blocks(sM.u[i], sN.u[i])))
    twist = None
    if sM.twist is not None or sN.twist is not None:
        ta = sM.twist or Cocycle2.trivial(act.group, ANTILINEAR)
        tb = sN.twist or Cocycle2.trivial(act.group, ANTILINEAR)
        twist = ta.multiply(tb)
        if twist.is_trivial():
            twist = None
    return RealStruct(base, act, tuple(comps), twist)


def knorrer_action(group: GroupSpec, ring: RingSpec, chi: Char1 | None) -> ActionSpec:
    """Extend a group action to the hyperbolic kernel variables: sigma scales
    the first variable by pi(sigma)*chi(sigma) and the second by the inverse."""
    eigen = {}
    for i in group.elements():
        c = Scalar.from_rational(group.grading[i])
        if chi is not None:
            c = c * chi.value(i)
        eigen[i] = (c, c.inverse())
    return diagonal_action(group, ring, ANTILINEAR, eigen)


def real_knorrer(sM: RealStruct, chi: Char1 | None = None) -> RealStruct:
    """Tensor with the rank-one hyperbolic kernel in fresh variables, with the
    action extended so odd elements negate (and chi scales) the first new
    variable; returns the induced structure, the tensor of sM and a
    rank-one witness, which a caller verifies with verify_real_structure."""
    g = sM.group
    names = fresh_variable_pair(set(sM.base.ring.variables))
    kring = RingSpec(names, sM.base.ring.conductor)
    kact = knorrer_action(g, kring, chi)
    found = rank_one_real_condition(kact)
    if found is None:
        raise ValueError("extended action does not satisfy the rank-one condition")
    return tensor_real_structure(sM, found[1])


# ---------------------------------------------------------------------------
# fixed morphism spaces

@dataclass
class FixedMorSpace:
    """The chain-level morphisms f with u'_sigma . f = f^sigma . u_sigma for
    all sigma, entries of total degree <= cutoff, as the kernel of columns:
    one per rational unknown, a window_slots slot times zeta_L^t, holding
    the _rational_coordinates of every Real residual of that unknown."""
    source: RealStruct
    target: RealStruct
    parity: int
    cutoff: int
    columns: list  # of dict


def default_chain_cutoff(w: Poly) -> int:
    """Entry-degree bound for chain-level searches: socle degree + 1."""
    _, socle = jacobi_basis(w)
    return socle + 1


def fixed_hom(s: RealStruct, sp: RealStruct, parity: int, cutoff: int | None = None) -> FixedMorSpace:
    """The fixed space of morphisms s.base -> sp.base of the given parity;
    its dimension over Q is len(columns) minus their rank.  Structures over
    different groups raise ValueError, bases over different rings or
    potentials MFError."""
    if s.group != sp.group:
        raise ValueError("Real structures over different groups")
    M, N = s.base, sp.base
    if M.ring != N.ring:
        raise MFError("rings differ")
    if not M.w == N.w:
        raise MFError("potentials differ")
    if cutoff is None:
        cutoff = default_chain_cutoff(M.w)
    L = _field_conductor(s, sp)
    basis = [Scalar.zeta(L, t) for t in range(euler_phi(L))]
    monomials = window_monomials(M.ring.nvars, cutoff)
    columns = [{} for _ in window_slots(M, N, parity, monomials, len(basis))]
    for i in s.group.elements():
        if i == s.group.identity:
            continue
        images = window_operator(sp.u[i], s.u[i], parity, monomials,
                                 s.action.map_of(i), basis)
        for col, image in zip(columns, images):
            col.update(_rational_coordinates(i, image, L))
    return FixedMorSpace(s, sp, parity, cutoff, columns)


def closed_dimension(space: FixedMorSpace) -> int:
    """Dimension over Q of the closed morphisms inside the fixed space: the
    unknowns minus the rank of the Real residuals stacked on D, tagged -1
    where no group element tags.  D is Q(zeta_L)-linear, so the column of
    zeta_L^t x^m is zeta_L^t times that of x^m, from one window_operator
    call on the plain monomials; t is innermost in the slot order, and
    _rational_coordinates reads the coordinates of each zeta_L^t multiple
    off the values' numerators, with no Scalar product."""
    M, N = space.source.base, space.target.base
    L = _field_conductor(space.source, space.target)
    monomials = window_monomials(M.ring.nvars, space.cutoff)
    images = window_operator(diff_mor(N), diff_mor(M), space.parity, monomials)
    return len(space.columns) - sparse_rank([
        {**col, **_rational_coordinates(-1, image, L, t)}
        for col, (image, t) in zip(space.columns, product(images, range(euler_phi(L))))])


def _rational_coordinates(tag, image: dict, L: int, shift: int = 0) -> dict:
    """The coefficients of zeta_L^shift times image's values over the power
    basis of Q(zeta_L), keyed (tag, *key, t), for 0 <= shift < phi(L).  A
    rational value n/d has the one coefficient n/d at t = shift; any other
    value's numerators at L, shifted by shift, are reduced modulo Phi_L."""
    out = {}
    shared = {}  # one Scalar per (numerator, denominator): fewer objects, lower peak memory
    for k, v in image.items():
        den = v.denominator
        if v.is_rational():
            coords = ((shift, v.numerators[0]),)
        else:
            coords = enumerate(_reduce([0] * shift + list(v.promote(L).numerators), L))
        for t, n in coords:
            if n:
                q = (n, den)
                if q not in shared:
                    shared[q] = _rational(1, n, den)
                out[(tag, *k, t)] = shared[q]
    return out


def _field_conductor(*structs) -> int:
    L = 1
    for s in structs:
        for i in s.group.elements():
            for img in s.action.map_of(i).images:
                for c in img.terms.values():
                    L = math.lcm(L, c.conductor)
            for blk in (s.u[i].f0, s.u[i].f1):
                for row in blk:
                    for p in row:
                        for c in p.terms.values():
                            L = math.lcm(L, c.conductor)
        L = math.lcm(L, s.base.ring.conductor)
    return L
