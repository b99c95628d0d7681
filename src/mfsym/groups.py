"""C2-graded finite groups, ring actions, characters, 2-cocycles, twists,
and the action on MF(R, w) with its one homotopy fixed point law.

Groups are explicit multiplication tables with a grading homomorphism to
{+1,-1}.  Actions assign one generalized ring automorphism per element;
the antilinear setting conjugates coefficients on odd elements, the
contravariant setting is k-linear throughout.  Characters and cocycles
take values in the units of the coefficient field, with the grading
acting by conjugation (antilinear) or inversion (contravariant) on odd
elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct

from .scalars import Scalar
from .linalg import _inverse, _least_term, _sparse_mul, _sparse_scaled_identity
from .polys import Poly, RingSpec, RingMap, apply_ring_map, monomial_ratio
from .mf import (
    MF, MFMor, Verdict, equation, identity_mor, scaled_witnesses,
    is_closed, join_rings, lift_poly, mat_apply, mf_key, _constant_rows,
    dual, dual_mor, shift, shift_mor,
)


ANTILINEAR = "antilinear"
CONTRAVARIANT = "contravariant"

# odd elements of a contravariant action act through the dual, or the shifted dual
PLAIN = "plain"
SHIFTED = "shifted"

# Variable stems of the rank-one kernel u*v added by a Knoerrer step.
KERNEL_STEMS = ("u", "v")


@dataclass(frozen=True)
class GroupSpec:
    labels: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]  # table[i][j] = index of g_i * g_j
    identity: int
    grading: tuple[int, ...]  # +1 or -1 per element

    @property
    def order(self) -> int:
        return len(self.labels)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        for j in range(self.order):
            if self.mul(i, j) == self.identity:
                return j
        raise ValueError(f"no inverse for element {self.labels[i]}")

    def elements(self):
        return range(self.order)

    def odd_elements(self):
        return [i for i in self.elements() if self.grading[i] == -1]

    def kernel(self):
        return [i for i in self.elements() if self.grading[i] == 1]

    def validate(self) -> None:
        n = self.order
        if not (all(isinstance(x, str) for x in self.labels) and len(set(self.labels)) == n):
            raise ValueError(f"labels must be {n} distinct strings")
        if not (len(self.table) == n and all(
                len(row) == n and all(type(x) is int and 0 <= x < n for x in row)
                for row in self.table)):
            raise ValueError(f"table must be {n} rows of {n} element indices")
        if not (len(self.grading) == n and all(
                type(x) is int and x in (1, -1) for x in self.grading)):
            raise ValueError(f"grading must be {n} values, each 1 or -1")
        e = self.identity
        if not 0 <= e < n:
            raise ValueError(f"identity {e} is not an element index")
        for i in range(n):
            if self.mul(e, i) != i or self.mul(i, e) != i:
                raise ValueError(f"identity fails at {self.labels[i]}")
            self.inv(i)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.mul(self.mul(i, j), k) != self.mul(i, self.mul(j, k)):
                        raise ValueError(
                            f"associativity fails at ({self.labels[i]},{self.labels[j]},{self.labels[k]})"
                        )
        for i in range(n):
            for j in range(n):
                if self.grading[self.mul(i, j)] != self.grading[i] * self.grading[j]:
                    raise ValueError("grading is not a homomorphism")


def cyclic_group(n: int, graded: bool = False) -> GroupSpec:
    """C_n; with graded=True (n even) the generator is odd, so the grading is
    the surjection onto C2 with kernel the squares."""
    labels = tuple(f"g{k}" for k in range(n))
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    if graded:
        if n % 2:
            raise ValueError(f"graded cyclic group needs even order, got {n}")
        grading = tuple(-1 if k % 2 else 1 for k in range(n))
    else:
        grading = (1,) * n
    g = GroupSpec(labels, table, 0, grading)
    g.validate()
    return g


def dihedral_group(m: int) -> GroupSpec:
    """D_{2m} of order 2m: rotations r^k even, reflections s*r^k odd."""
    labels = tuple(f"r{k}" for k in range(m)) + tuple(f"s{k}" for k in range(m))

    def mul(i, j):
        ri, si = i % m, i >= m
        rj, sj = j % m, j >= m
        if not si and not sj:
            return (ri + rj) % m
        if not si and sj:
            return m + (rj - ri) % m
        if si and not sj:
            return m + (ri + rj) % m
        return (rj - ri) % m

    table = tuple(tuple(mul(i, j) for j in range(2 * m)) for i in range(2 * m))
    grading = (1,) * m + (-1,) * m
    g = GroupSpec(labels, table, 0, grading)
    g.validate()
    return g


def product_group(a: GroupSpec, b: GroupSpec) -> GroupSpec:
    """Direct product, graded by the product of the factor gradings."""
    pairs = list(iproduct(range(a.order), range(b.order)))
    index = {p: k for k, p in enumerate(pairs)}
    labels = tuple(f"{a.labels[i]}.{b.labels[j]}" for i, j in pairs)
    table = tuple(
        tuple(index[(a.mul(i1, i2), b.mul(j1, j2))] for (i2, j2) in pairs)
        for (i1, j1) in pairs
    )
    grading = tuple(a.grading[i] * b.grading[j] for i, j in pairs)
    g = GroupSpec(labels, table, index[(a.identity, b.identity)], grading)
    g.validate()
    return g


# ---------------------------------------------------------------------------
# actions

@dataclass(frozen=True)
class ActionSpec:
    group: GroupSpec
    setting: str  # ANTILINEAR or CONTRAVARIANT
    maps: tuple[RingMap, ...]  # one generalized automorphism per element

    def __post_init__(self):
        if self.setting not in (ANTILINEAR, CONTRAVARIANT):
            raise ValueError(f"setting must be {ANTILINEAR!r} or {CONTRAVARIANT!r}, "
                             f"got {self.setting!r}")
        if len(self.maps) != self.group.order:
            raise ValueError(f"an action needs one map per group element: "
                             f"{len(self.maps)} maps for order {self.group.order}")

    def map_of(self, i: int) -> RingMap:
        return self.maps[i]

    def flips(self, i: int) -> bool:
        """Whether element i acts contravariantly on MF(R, w)."""
        return self.setting == CONTRAVARIANT and self.group.grading[i] == -1

    @property
    def ring(self) -> RingSpec:
        return self.maps[self.group.identity].images[0].ring

    def check_homomorphism(self) -> tuple[int, int] | None:
        """Returns the first offending pair, or None if the assignment is a
        homomorphism (composition matches the table)."""
        g = self.group
        for i in g.elements():
            for j in g.elements():
                if not (self.maps[g.mul(i, j)] == self.maps[i].compose(self.maps[j])):
                    return (i, j)
        return None


def diagonal_action(group: GroupSpec, ring: RingSpec, setting: str,
                    eigenvalues: dict[int, tuple[Scalar, ...]]) -> ActionSpec:
    """Action where each element scales each variable; eigenvalues maps the
    element index to a scalar per variable."""
    maps = []
    for i in group.elements():
        evs = eigenvalues[i]
        images = tuple(
            Poly.variable(ring, v) * c for v, c in zip(ring.variables, evs)
        )
        anti = (setting == ANTILINEAR and group.grading[i] == -1)
        maps.append(RingMap(images, anti))
    return ActionSpec(group, setting, tuple(maps))


def join_actions(a: ActionSpec, b: ActionSpec) -> ActionSpec:
    """Combine actions of the same group and setting on disjoint variable
    sets: each element acts on the joined ring by both of its maps."""
    if a.group != b.group or a.setting != b.setting:
        raise ValueError("joined actions need the same group and setting")
    ring = join_rings(a.ring, b.ring)
    maps = []
    for i, ma, mb in zip(a.group.elements(), a.maps, b.maps):
        if ma.antilinear != mb.antilinear:
            raise ValueError(f"joined actions disagree on antilinearity at {a.group.labels[i]}")
        maps.append(RingMap(tuple(lift_poly(p, ring) for p in ma.images + mb.images),
                            ma.antilinear))
    return ActionSpec(a.group, a.setting, tuple(maps))


def fresh_variable_pair(taken) -> tuple[str, str]:
    """KERNEL_STEMS, or the first of (u1, v1), (u2, v2), ... with neither
    name in taken."""
    names, k = KERNEL_STEMS, 0
    while names[0] in taken or names[1] in taken:
        k += 1
        names = tuple(f"{stem}{k}" for stem in KERNEL_STEMS)
    return names


def potential_invariance(a: ActionSpec, w: Poly) -> list[bool]:
    """Per element, whether it leaves w (semi-)invariant: sigma(w) = w
    antilinearly, sigma(w) = pi(sigma) w in the contravariant setting."""
    return [apply_ring_map(a.maps[i], w) == (-w if a.flips(i) else w)
            for i in a.group.elements()]


def validate_action(a: ActionSpec, w: Poly) -> Verdict:
    """The action's verdict, element by element up to the first failure:
    the antilinear flag the setting asks for ("action flags"), variable
    images homogeneous of degree 1 ("linear images"), and the
    (semi-)invariance of w ("potential invariance").  An assignment that is
    not a homomorphism raises ValueError."""
    g = a.group
    if (hom := a.check_homomorphism()) is not None:
        raise ValueError(f"action is not a homomorphism at pair "
                         f"({g.labels[hom[0]]},{g.labels[hom[1]]})")
    invariant = potential_invariance(a, w)
    for i in g.elements():
        rm, at = a.maps[i], (g.labels[i],)
        if rm.antilinear != (a.setting == ANTILINEAR and g.grading[i] == -1):
            return Verdict(False, "action flags", at)
        if any(img.is_zero() or any(sum(e) != 1 for e in img.terms) for img in rm.images):
            return Verdict(False, "linear images", at)
        if not invariant[i]:
            return Verdict(False, "potential invariance", at)
    return Verdict(True)


# ---------------------------------------------------------------------------
# the unit action and cocycles

def _graded_act(setting: str, grading: int, c: Scalar) -> Scalar:
    """The action of a group element on a coefficient-field unit: odd elements
    conjugate (antilinear setting) or invert (contravariant setting)."""
    if grading == 1:
        return c
    if setting == ANTILINEAR:
        return c.conjugate()
    return c.inverse()


@dataclass(frozen=True)
class Cocycle2:
    group: GroupSpec
    setting: str
    values: tuple[tuple[Scalar, ...], ...]  # values[i][j] = mu([g_i|g_j])

    def value(self, i: int, j: int) -> Scalar:
        return self.values[i][j]

    @staticmethod
    def trivial(group: GroupSpec, setting: str) -> "Cocycle2":
        one = Scalar.one()
        return Cocycle2(group, setting, tuple((one,) * group.order for _ in range(group.order)))

    def multiply(self, other: "Cocycle2") -> "Cocycle2":
        if self.group is not other.group and self.group != other.group:
            raise ValueError("cocycles over different groups")
        vals = tuple(
            tuple(self.values[i][j] * other.values[i][j] for j in self.group.elements())
            for i in self.group.elements()
        )
        return Cocycle2(self.group, self.setting, vals)


def cocycle_check(mu: Cocycle2) -> Verdict:
    """Normalization on pairs containing the identity, nonzero values, and
    the twisted 2-cocycle identity with the graded unit action."""
    g = mu.group
    e = g.identity
    for i in g.elements():
        for pair in ((e, i), (i, e)):
            if not (mu.value(*pair) == 1):
                return Verdict(False, "cocycle normalization", tuple(g.labels[k] for k in pair),
                               (0, 0, 0, (), mu.value(*pair) - 1))
        for j in g.elements():
            if mu.value(i, j).is_zero():
                return Verdict(False, "not invertible", (g.labels[i], g.labels[j]))
    for i, j, k in iproduct(g.elements(), repeat=3):
        lhs = _graded_act(mu.setting, g.grading[i], mu.value(j, k)) * mu.value(i, g.mul(j, k))
        rhs = mu.value(g.mul(i, j), k) * mu.value(i, j)
        if not (lhs == rhs):
            return Verdict(False, "2-cocycle", (g.labels[i], g.labels[j], g.labels[k]),
                           (0, 0, 0, (), lhs - rhs))
    return Verdict(True)


def universal_sign_cocycle(group: GroupSpec, setting: str = CONTRAVARIANT) -> Cocycle2:
    """The pullback along the grading of the nontrivial C2 class: -1 exactly
    on pairs of odd elements."""
    minus = -Scalar.one()
    one = Scalar.one()
    vals = tuple(
        tuple(minus if (group.grading[i] == -1 and group.grading[j] == -1) else one
              for j in group.elements())
        for i in group.elements()
    )
    return Cocycle2(group, setting, vals)


# ---------------------------------------------------------------------------
# the twist functor

def twist_mf(rm: RingMap, M: MF) -> MF:
    """M^sigma: same ranks, entrywise image of the differential blocks, and
    potential sigma(w)."""
    return MF(M.ring, apply_ring_map(rm, M.w), mat_apply(rm, M.d0), mat_apply(rm, M.d1))


# ---------------------------------------------------------------------------
# the action on matrix factorizations

@dataclass(frozen=True)
class ContraRep:
    """A group action on MF(R, w) with coherence data, in either setting.
    Odd elements of a contravariant action flip: they act contravariantly.
    Every other element acts by the twist functor.  The coherence data
    theta_{g,h} is two block scalars, theta_scalars, at every object; an
    antilinear rep has mu(g,h) on both blocks and keeps the plain variant.
    A twist of None is the trivial cocycle, stored as one.

    Each rep keeps the objects rho(i)(M) built from it under
    (i, mf_key(M)).  A key holds the full content of its inputs, so a hit
    is exactly what a fresh build would give.  The key is built once per
    MF and kept on it, so a lookup on an object seen before hashes the
    stored key instead of building it again.
    """

    group: GroupSpec
    action: ActionSpec
    w: Poly
    variant: str = PLAIN
    twist: Cocycle2 | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        variants = (PLAIN, SHIFTED) if self.action.setting == CONTRAVARIANT else (PLAIN,)
        if self.variant not in variants:
            raise ValueError(f"variant {self.variant!r} is not one of {variants} in the "
                             f"{self.action.setting} setting")
        if self.twist is None:
            object.__setattr__(self, "twist", Cocycle2.trivial(self.group, self.action.setting))


def rep_apply(rep: ContraRep, i: int, M: MF) -> MF:
    """The action of element i on objects: the twist, of the dual (plain)
    or of the shifted dual (shifted) where i acts contravariantly."""
    key = (i, mf_key(M))
    out = rep._cache.get(key)
    if out is None:
        if rep.action.flips(i):
            M = dual(M if rep.variant == PLAIN else shift(M))
        out = rep._cache[key] = twist_mf(rep.action.map_of(i), M)
    return out


def rep_apply_mor(rep: ContraRep, i: int, f: MFMor) -> MFMor:
    """The action on morphisms; contravariant where i flips.  The
    endpoints come from rep_apply, so only the blocks are twisted here."""
    src, tgt = f.source, f.target
    if rep.action.flips(i):
        f = dual_mor(f if rep.variant == PLAIN else shift_mor(f))
        src, tgt = tgt, src
    rm = rep.action.map_of(i)
    return MFMor(rep_apply(rep, i, src), rep_apply(rep, i, tgt), f.parity,
                 mat_apply(rm, f.f0), mat_apply(rm, f.f1))


def theta_scalars(rep: ContraRep, i2: int, i1: int) -> tuple[Scalar, Scalar]:
    """theta_{i2,i1}: rho(i2)(rho(i1)(M)) -> rho(i2*i1)(M) as its scalars
    (c0, c1) on the two blocks, the same at every M: the twist's mu(i2, i1),
    times the double dual's grading blocks (1, -1) where both elements flip
    in the plain variant.  In the shifted variant the two shifts cancel the
    double dual; the sign of moving a shift past the dual is carried by the
    universal sign cocycle in the twist."""
    c = rep.twist.value(i2, i1)
    return c, (-c if rep.action.flips(i2) and rep.action.flips(i1) and rep.variant == PLAIN else c)


def verify_fixed_point(rep: ContraRep, base: MF, u: dict,
                       law: str = "fixed point law") -> Verdict:
    """Checks components u (element -> map base -> rep_apply(element, base))
    up to the first failure: u_e = id; each component even, closed and
    invertible; then the law u_{gh} = theta_{g,h} ∘ rho(g)(u_h^{pi(g)}) ∘ u_g
    (pi(g) = -1 where g flips) on carried pairs with carried product.  An
    invertible component is constant, so the law is a product of linalg's
    sparse rows, scaled by theta's scalars; a failure's term is the least
    nonzero entry of lhs - rhs at the constant exponent.  No theta morphism
    and no twist of a twist is built."""
    g = rep.group
    if not (v := equation("u_e = id", (g.labels[g.identity],), u[g.identity], identity_mor(base))):
        return v
    # blocks as rows; where g flips, rho(g) takes u_h's transposed inverse, swapped if shifted
    own, flipped = {}, {}
    for i, f in u.items():
        at = (g.labels[i],)
        if f.parity != 0:
            return Verdict(False, "not even", at)
        if not is_closed(MFMor(base, rep_apply(rep, i, base), 0, f.f0, f.f1)):
            return Verdict(False, "not closed", at)
        own[i], flipped[i] = [], []
        for blk in (f.f0, f.f1):
            own[i].append(rows := _constant_rows(blk))
            if (inverse := _inverse(rows, transposed=True)) is None:
                return Verdict(False, "not invertible", at)
            flipped[i].append(inverse)
        if rep.variant != PLAIN:
            flipped[i].reverse()
    constant = (0,) * base.ring.nvars
    for i2, i1 in iproduct(u, repeat=2):
        prod = g.mul(i2, i1)
        if prod not in u:
            continue
        a = flipped[i1] if rep.action.flips(i2) else own[i1]
        # on constant blocks rho(i2) only conjugates values, where antilinear
        if rep.action.map_of(i2).antilinear:
            a = [[{k: x.conjugate() for k, x in row.items()} for row in blk] for blk in a]
        c = theta_scalars(rep, i2, i1)
        # lhs - rhs = u_prod - c (a u_i2), block by block
        diff = [_sparse_mul(_sparse_scaled_identity(-c[p], len(a[p])), _sparse_mul(a[p], own[i2][p]),
                            [dict(row) for row in own[prod][p]]) for p in (0, 1)]
        if (term := _least_term(diff, constant)) is not None:
            return Verdict(False, law, (g.labels[i2], g.labels[i1]), term)
    return Verdict(True)


def scaled_fixed_point(rep: ContraRep, base: MF, units) -> dict | None:
    """The first family of mf.scaled_witnesses over units that passes
    verify_fixed_point, as a dict element -> component; None if none does."""
    targets = [rep_apply(rep, i, base) for i in rep.group.elements()]
    for family in scaled_witnesses(base, targets, rep.group.identity, units):
        if verify_fixed_point(rep, base, u := dict(enumerate(family))):
            return u
    return None


def rank_one_character(action: ActionSpec, variant: str = PLAIN):
    """(u, v, chi) for an action on the two variables u, v: chi holds the
    scalar chi(sigma) of each element that sends u to pi(sigma) chi(sigma) u
    and v to v / chi(sigma), and is None if some element does not; where
    sigma flips, pi(sigma) = -1 and in the plain variant u and v trade."""
    ring = action.ring
    if ring.nvars != 2:
        raise ValueError(f"rank-one structures need two variables, got {ring.nvars}")
    u, v = (Poly.variable(ring, name) for name in ring.variables)
    chi = []
    for i in action.group.elements():
        iu, iv = action.map_of(i).images
        swap = action.flips(i) and variant == PLAIN
        cu = monomial_ratio(iu, v if swap else u)
        cv = monomial_ratio(iv, u if swap else v)
        if cu is None or cv is None or not ((c := -cu if action.flips(i) else cu) * cv == 1):
            return u, v, None
        chi.append(c)
    return u, v, tuple(chi)
