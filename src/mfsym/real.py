"""Antilinear homotopy fixed points on matrix factorizations.

A Real structure is a family of closed degree-0 isomorphisms u_sigma
from the base to its sigma-twist satisfying the (optionally cocycle
twisted) law u_{ts} = mu([t|s]) * (u_s)^t . u_t, with u_e the identity:
the homotopy fixed point law of groups.verify_fixed_point for an
antilinear action, where every element acts covariantly.

Fixed Hom spaces are counted by Galois descent: a Real structure is
descent data for K = Q(zeta_L) over its real subfield, so the fixed
morphisms are a Q(zeta_L)^+-form of those fixed by the linear elements
(Speiser's lemma), and one rank over K gives their dimension over Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scalars import Scalar, euler_phi
from .polys import RingSpec
from .mf import (
    MF, MFError, MFMor, Verdict, rank_one, scaled_identity, diff_mor, external_tensor,
    tensor_mor_blocks, window_monomials, window_operator, window_slots,
)
from .groups import (
    ActionSpec, Cocycle2, ContraRep, GroupSpec, ANTILINEAR, diagonal_action,
    fresh_variable_pair, join_actions, rank_one_character, twist_mf, validate_action,
    verify_fixed_point, _graded_act,
)
from .linalg import sparse_rank


@dataclass(frozen=True)
class RealStruct:
    base: MF
    action: ActionSpec
    u: tuple[MFMor, ...]  # per group element: base -> twist(sigma, base)
    twist: Cocycle2 | None = None  # None is the trivial cocycle, stored as one

    def __post_init__(self):
        if self.twist is None:
            object.__setattr__(self, "twist", Cocycle2.trivial(self.group, self.action.setting))

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
    (chi values, witness RealStruct) when every sigma scales the first
    variable by chi(sigma) and the second by its inverse, and chi obeys the
    crossed law chi(e) = 1, chi(gh) = chi(g) * g(chi(h)); else None.  The
    witness's components are chi(sigma) times the identity, so its Real
    cocycle law is chi's crossed law, checked here."""
    uvar, vvar, chi = rank_one_character(act)
    g = act.group
    if chi is None or chi[g.identity] != 1 or not all(
            chi[g.mul(i, j)] == chi[i] * _graded_act(ANTILINEAR, g.grading[i], chi[j])
            for i in g.elements() for j in g.elements()):
        return None
    base = rank_one(uvar, vvar)
    struct = RealStruct(base, act, tuple(
        scaled_identity(base, twist_mf(act.map_of(i), base), 1, chi[i])
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
    return RealStruct(base, act, tuple(comps), sM.twist.multiply(sN.twist))


def knorrer_action(group: GroupSpec, ring: RingSpec) -> ActionSpec:
    """Extend a group action to the hyperbolic kernel variables: sigma scales
    both by pi(sigma) = +-1, its own inverse."""
    eigen = {}
    for i in group.elements():
        c = Scalar.from_rational(group.grading[i])
        eigen[i] = (c, c)
    return diagonal_action(group, ring, ANTILINEAR, eigen)


def real_knorrer(sM: RealStruct) -> RealStruct:
    """Tensor with the rank-one hyperbolic kernel in fresh variables, with the
    action extended so odd elements negate both new variables; returns the
    induced structure, the tensor of sM and a rank-one witness, which a
    caller verifies with verify_real_structure."""
    g = sM.group
    names = fresh_variable_pair(set(sM.base.ring.variables))
    kring = RingSpec(names, sM.base.ring.conductor)
    found = rank_one_real_condition(knorrer_action(g, kring))
    if found is None:
        raise ValueError("extended action does not satisfy the rank-one condition")
    return tensor_real_structure(sM, found[1])


# ---------------------------------------------------------------------------
# fixed morphism spaces

@dataclass
class FixedMorSpace:
    """The chain-level morphisms f with u'_sigma . f = f^sigma . u_sigma for
    all sigma, entries of total degree <= cutoff, by Galois descent over
    K = Q(zeta_L): columns, one per window_slots unknown over K, hold the
    window_operator residuals of the K-linear elements, keyed (-1 - element,
    *key) to sort before and apart from D's keys; their kernel is the
    K-space W they fix, and the fixed space has dimension scale * dim_K W
    over Q (see fixed_hom)."""
    source: RealStruct
    target: RealStruct
    parity: int
    cutoff: int
    columns: list  # of dict
    scale: int


def fixed_hom(s: RealStruct, sp: RealStruct, parity: int, cutoff: int) -> FixedMorSpace:
    """The fixed space of morphisms s.base -> sp.base of the given parity;
    its dimension over Q is scale * (len(columns) - their rank).

    Both structures must pass verify_real_structure; this is not checked
    here.  Then A_g(f) = u'_g^-1 f^g u_g satisfies A_t A_s = (mu'/mu)(t, s)
    A_ts for the twists mu of s and mu' of sp.  A fixed f != 0 forces
    mu = mu', so twists that differ literally leave no unknowns.  Equal
    twists make A a true action.  Its linear elements G_0 (all of G when
    L <= 2, where conjugation is trivial on K) cut out the
    K-space W by K-linear residuals, and any antilinear sigma acts on W as
    a semilinear involution: by Speiser's lemma (Hilbert 90 for GL_n) its
    fixed part is a Q(zeta_L)^+-form of W, so scale is phi(L)/2.  With no
    antilinear element, scale is phi(L).  Structures over different groups
    raise ValueError, bases over different rings or potentials MFError."""
    if s.group != sp.group:
        raise ValueError("Real structures over different groups")
    M, N = s.base, sp.base
    if M.ring != N.ring:
        raise MFError("rings differ")
    if not M.w == N.w:
        raise MFError("potentials differ")
    L = _field_conductor(s, sp)
    monomials = window_monomials(M.ring.nvars, cutoff)
    anti = L > 2 and any(s.action.map_of(i).antilinear for i in s.group.elements())
    columns = ([{} for _ in window_slots(M, N, parity, monomials)]
               if s.twist.values == sp.twist.values else [])
    for i in s.group.elements():
        rm = s.action.map_of(i)
        if columns and i != s.group.identity and not (anti and rm.antilinear):
            for col, image in zip(columns, window_operator(sp.u[i], s.u[i], parity,
                                                           monomials, rm)):
                col.update({(-1 - i, *k): v for k, v in image.items()})
    return FixedMorSpace(s, sp, parity, cutoff, columns,
                         euler_phi(L) // 2 if anti else euler_phi(L))


def closed_dimension(space: FixedMorSpace) -> int:
    """Dimension over Q of the closed morphisms inside the fixed space: D
    commutes with the action, so descent (Speiser's lemma) applies to W cut
    by D as well; scale times the K-nullity of each column stacked on its
    unknown's column of D, in one sparse_rank over K."""
    M, N = space.source.base, space.target.base
    monomials = window_monomials(M.ring.nvars, space.cutoff)
    images = window_operator(diff_mor(N), diff_mor(M), space.parity, monomials)
    return space.scale * (len(space.columns) - sparse_rank(
        [image | col for col, image in zip(space.columns, images)]))


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
