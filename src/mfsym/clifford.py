"""Clifford algebras, graded modules, and the bridge to factorizations.

A Clifford algebra is stored by the polarized bilinear matrix of its
quadratic form, with basis the subsets of the generator index set;
products are taken on an orthogonal basis, by one closed rule for two
basis blades.  Graded modules are pairs of generator
blocks in ``linalg``'s sparse rows, checked once when the module is built,
so module products touch only nonzero entries.  The bridge functor
sends a module to the factorization with differential sum gamma_j x_j.
Conjugation fixed points realize the signature algebras Cl_{r,s} over
the rationals, and the graded tensor product carries the periodicity
building block with an explicit isomorphism check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct

from .scalars import Scalar
from .polys import Poly, RingSpec
from .mf import MF, mf_new
from .linalg import _elem_add, _sparse_mul, _sparse_scaled_identity, sparse_rank


def _to_scalar(c) -> Scalar:
    if isinstance(c, Scalar):
        return c
    return Scalar.from_rational(Fraction(c))


@dataclass(frozen=True)
class QuadForm:
    """A nondegenerate quadratic form by its polarized symmetric matrix:
    bilinear[i][i] = q(e_i) and 2*bilinear[i][j] = q(e_i+e_j) - q(e_i) - q(e_j)."""

    bilinear: tuple[tuple[Scalar, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.bilinear)

    def value(self, i: int, j: int) -> Scalar:
        return self.bilinear[i][j]

    @cached_property
    def squares(self) -> tuple[Scalar, ...]:
        """q(e_i) for each basis vector of a diagonal form; raises ValueError
        when the form is not diagonal.  Kept in the instance __dict__, which
        cached_property writes past the frozen __setattr__."""
        for i, row in enumerate(self.bilinear):
            for j, c in enumerate(row):
                if i != j and not c.is_zero():
                    raise ValueError(f"the form is not diagonal: B[{i}][{j}] = {c}")
        return tuple(row[i] for i, row in enumerate(self.bilinear))

    def validate(self) -> None:
        n = self.dimension
        for i in range(n):
            if len(self.bilinear[i]) != n:
                raise ValueError("bilinear matrix is not square")
            for j in range(n):
                if not self.value(i, j) == self.value(j, i):
                    raise ValueError(f"bilinear matrix not symmetric at ({i},{j})")
        rows = [{j: c for j, c in enumerate(row) if not c.is_zero()}
                for row in self.bilinear]
        if sparse_rank(rows) != n:
            raise ValueError("quadratic form is degenerate")

    @staticmethod
    def diagonal(entries) -> "QuadForm":
        vals = [_to_scalar(c) for c in entries]
        n = len(vals)
        mat = tuple(
            tuple(vals[i] if i == j else Scalar.zero() for j in range(n))
            for i in range(n)
        )
        q = QuadForm(mat)
        q.validate()
        return q

    def direct_sum(self, other: "QuadForm") -> "QuadForm":
        return QuadForm.diagonal(self.squares + other.squares)


# Algebra elements are dicts mapping sorted index tuples to nonzero Scalars;
# the empty tuple is the unit basis element.

@dataclass(frozen=True)
class CliffAlg:
    quad: QuadForm

    @property
    def dimension(self) -> int:
        return 2 ** self.quad.dimension

    def basis(self):
        n = self.quad.dimension
        out = []
        for bits in iproduct((0, 1), repeat=n):
            out.append(tuple(i for i in range(n) if bits[i]))
        return sorted(out, key=lambda s: (len(s), s))

    def generator(self, j: int):
        if not 0 <= j < self.quad.dimension:
            raise ValueError(f"generator index {j} out of range")
        return {(j,): Scalar.one()}


def element_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for s, c in b.items():
        _elem_add(out, s, c)
    return out


def _blade_mul(squares, a: tuple[int, ...], b: tuple[int, ...], c: Scalar):
    """c e_a e_b on an orthogonal basis, for sorted index tuples a and b:
    e_a e_b = (-1)^N prod_{i in a & b} q(e_i) e_{a ^ b}, N the number of
    pairs (x, y) in a x b with x > y.  Returns (a ^ b sorted, coefficient)."""
    for i in set(a).intersection(b):
        c = c * squares[i]
    if sum(x > y for x in a for y in b) % 2:
        c = -c
    return tuple(sorted(set(a).symmetric_difference(b))), c


def clifford_mul(alg: CliffAlg, a: dict, b: dict) -> dict:
    """a b in a Clifford algebra of a diagonal form; raises ValueError
    when the form is not diagonal."""
    squares = alg.quad.squares
    out = {}
    for sa, ca in a.items():
        for sb, cb in b.items():
            _elem_add(out, *_blade_mul(squares, sa, sb, ca * cb))
    return out


# ---------------------------------------------------------------------------
# graded modules

@dataclass(frozen=True)
class CliffMod:
    """A graded module by generator blocks in sparse rows: gammas[j] =
    (g0, g1) with g0: A0 -> A1 as a1 rows over columns 0..a0-1 and
    g1: A1 -> A0 as a0 rows over columns 0..a1-1, each a tuple of
    {column: nonzero scalar} dicts.  Raises ValueError when the generator
    count, a row count, a column or a value is wrong."""

    alg: CliffAlg
    dims: tuple[int, int]
    gammas: tuple[tuple[tuple[dict, ...], tuple[dict, ...]], ...]

    def __post_init__(self):
        n = self.alg.quad.dimension
        if len(self.gammas) != n:
            raise ValueError(f"{len(self.gammas)} generators for a form of dimension {n}")
        a0, a1 = self.dims
        for j, (g0, g1) in enumerate(self.gammas):
            for what, block, rows, cols in (("even", g0, a1, a0), ("odd", g1, a0, a1)):
                if len(block) != rows:
                    raise ValueError(f"gamma_{j} {what} block has {len(block)} rows, "
                                     f"expected {rows}")
                for r, row in enumerate(block):
                    for c, x in row.items():
                        if not 0 <= c < cols or x.is_zero():
                            raise ValueError(f"gamma_{j} {what} block row {r} has "
                                             f"{x} at column {c}, expected a nonzero "
                                             f"value at a column below {cols}")


def smat(rows):
    """A dense literal as sparse rows."""
    return tuple({c: x for c, x in enumerate(map(_to_scalar, row)) if not x.is_zero()}
                 for row in rows)


def module_validate(m: CliffMod) -> list[tuple[int, int]]:
    """Failing index pairs of the anticommutation relations
    gamma_i gamma_j + gamma_j gamma_i = 2 B_ij I, per parity; empty if valid.
    A wrong generator count or block shape is refused earlier, by CliffMod."""
    gs = m.gammas
    a0, a1 = m.dims
    two = _to_scalar(2)
    failures = []
    for i, (g0i, g1i) in enumerate(gs):
        for j in range(i, len(gs)):
            g0j, g1j = gs[j]
            # the left side is symmetric in i, j, so it is formed once per
            # pair; an unvalidated form may not be, so both orders are compared
            even = _sparse_mul(g1i, g0j, _sparse_mul(g1j, g0i))
            odd = _sparse_mul(g0i, g1j, _sparse_mul(g0j, g1i))
            for p, q in {(i, j), (j, i)}:
                c = two * m.alg.quad.value(p, q)
                if (even != _sparse_scaled_identity(c, a0)
                        or odd != _sparse_scaled_identity(c, a1)):
                    failures.append((p, q))
    return sorted(failures)


# ---------------------------------------------------------------------------
# the bridge functor to matrix factorizations

def beh_phi(m: CliffMod, ring: RingSpec) -> MF:
    """The factorization of the quadratic form with differential
    sum_j gamma_j x_j over the given ring."""
    n = m.alg.quad.dimension
    if ring.nvars != n:
        raise ValueError("ring variables must match the form dimension")
    xs = [Poly.variable(ring, v) for v in ring.variables]
    a0, a1 = m.dims
    zero = Poly.zero(ring)
    d0 = [[zero] * a0 for _ in range(a1)]
    d1 = [[zero] * a1 for _ in range(a0)]
    for x, blocks in zip(xs, m.gammas):
        for d, blk in zip((d0, d1), blocks):
            for r, row in enumerate(blk):
                for c, v in row.items():
                    d[r][c] = d[r][c] + x * v
    w = Poly.zero(ring)
    for i in range(n):
        for j in range(n):
            w = w + xs[i] * xs[j] * m.alg.quad.value(i, j)
    return mf_new(ring, w,
                  tuple(tuple(row) for row in d0),
                  tuple(tuple(row) for row in d1))


def mf_to_clifford_module(M: MF) -> CliffMod:
    """Recover a graded module from a factorization whose differentials have
    linear homogeneous entries, so d = sum_j gamma_j x_j.  The form is read
    off by polarizing the potential.  Raises ValueError on nonlinear entries
    or failing anticommutation relations."""
    ring = M.ring
    n = ring.nvars
    half = _to_scalar(Fraction(1, 2))
    bil = [[Scalar.zero()] * n for _ in range(n)]
    for e, c in M.w.terms.items():
        nz = [k for k, p in enumerate(e) if p]
        if sum(e) != 2:
            raise ValueError("potential is not homogeneous quadratic")
        if len(nz) == 1:
            bil[nz[0]][nz[0]] = c
        else:
            i, j = nz
            bil[i][j] = c * half
            bil[j][i] = c * half
    quad = QuadForm(tuple(tuple(row) for row in bil))
    quad.validate()

    def generator_rows(mat):
        out = [[{} for _ in mat] for _ in range(n)]
        for r, row in enumerate(mat):
            for c, entry in enumerate(row):
                for e, v in entry.terms.items():
                    if sum(e) != 1:
                        raise ValueError("differential entry is not linear")
                    out[e.index(1)][r][c] = v
        return [tuple(rows) for rows in out]

    mod = CliffMod(CliffAlg(quad), M.ranks,
                   tuple(zip(generator_rows(M.d0), generator_rows(M.d1))))
    bad = module_validate(mod)
    if bad:
        raise ValueError(f"anticommutation relations fail at {bad}")
    return mod


def module_hom_dim(m: CliffMod, mp: CliffMod) -> int:
    """Dimension over the scalar field of the space of degree-zero module
    maps f: m -> mp, the solutions of h_p f_p = f_{1-p} g_p (p = 0, 1) for
    every generator pair (g, h).  Entry (i, j) of an equation is one sparse
    row on int unknowns: entry (r, c) of f_p, a b_p x a_p block, is
    base[p] + r * a_p + c with base = (0, a0 * b0), so the keys of its h
    side (f_p) and of its g side (f_{1-p}) never collide."""
    if m.alg != mp.alg:
        raise ValueError("modules over different Clifford algebras")
    a, (b0, b1) = m.dims, mp.dims
    base = (0, a[0] * b0)
    rows = []
    for g, h in zip(m.gammas, mp.gammas):
        for p in (0, 1):
            q = 1 - p
            minus_g_cols = [[(base[q] + c, -row[j]) for c, row in enumerate(g[p]) if j in row]
                            for j in range(a[p])]
            for i, hrow in enumerate(h[p]):
                h_side = [(base[p] + r * a[p], x) for r, x in hrow.items()]
                for j, col in enumerate(minus_g_cols):
                    if h_side or col:
                        eq = {k + j: x for k, x in h_side}
                        for k, x in col:
                            eq[k + i * a[q]] = x
                        rows.append(eq)
    return base[1] + a[1] * b1 - sparse_rank(rows)


def beh_hom_compare(m: CliffMod, mp: CliffMod, ring: RingSpec):
    """(dim of graded module homs, dim H0 Hom of the bridge images, report)."""
    from .cohomology import hom_cohomology, default_cutoff

    left = module_hom_dim(m, mp)
    M = beh_phi(m, ring)
    N = beh_phi(mp, ring)
    report = hom_cohomology(M, N, default_cutoff(M.w, entry_degree=1))
    return left, report.dims[0], report


def module_twist(m: CliffMod, rm) -> CliffMod:
    """The module twisted by a generalized automorphism of the algebra that
    is induced by a linear change of variables: the new generator matrices
    are the (conjugated, when the map is antilinear) old actions of the
    preimage vectors, read off from the ring-map images of the coordinates."""
    ring = rm.images[0].ring
    n = m.alg.quad.dimension
    if ring.nvars != n or len(rm.images) != n:
        raise ValueError("twist needs one image per form variable")
    gs = m.gammas
    if rm.antilinear:
        gs = [tuple([{c: x.conjugate() for c, x in row.items()} for row in blk]
                    for blk in g) for g in gs]
    a0, a1 = m.dims
    new = tuple((tuple({} for _ in range(a1)), tuple({} for _ in range(a0)))
                for _ in range(n))
    # image j = sum_k c x_k adds c times old generator j to new generator k
    for img, (g0, g1) in zip(rm.images, gs):
        for e, c in img.terms.items():
            if sum(e) != 1:
                raise ValueError("twist needs a linear change of variables")
            k = e.index(1)
            _sparse_mul(_sparse_scaled_identity(c, a1), g0, new[k][0])
            _sparse_mul(_sparse_scaled_identity(c, a0), g1, new[k][1])
    return CliffMod(m.alg, m.dims, new)


def beh_twist_intertwined(m: CliffMod, ring: RingSpec, rm) -> bool:
    """The bridge functor commutes with twisting: the factorization of the
    twisted module equals the twisted factorization, matrices compared
    entry by entry."""
    from .groups import twist_mf

    lhs = twist_mf(rm, beh_phi(m, ring))
    mt = module_twist(m, rm)
    if module_validate(mt):
        return False
    rhs = beh_phi(mt, ring)
    return lhs.d0 == rhs.d0 and lhs.d1 == rhs.d1 and lhs.w == rhs.w


def parity_shift(m: CliffMod) -> CliffMod:
    """The same module with the grading reversed; generators swap blocks."""
    a0, a1 = m.dims
    return CliffMod(m.alg, (a1, a0), tuple((g1, g0) for (g0, g1) in m.gammas))


# ---------------------------------------------------------------------------
# conjugation fixed points and signature algebras

def cl_rs(r: int, s: int) -> CliffAlg:
    """The signature algebra over the rationals: r generators squaring to
    +1 followed by s squaring to -1."""
    return CliffAlg(QuadForm.diagonal([1] * r + [-1] * s))


def real_clifford_fixed(r: int, s: int):
    """Realizes the signature algebra inside the complex Clifford algebra
    of the sum-of-squares form fixed by conjugation composed with negation
    of the last s coordinates: f_j = e_j for j < r and f_j = i e_j after.
    Returns (CliffAlg over the rationals, relations verified flag); the
    check stops at the first relation that fails."""
    n = r + s
    amb = CliffAlg(QuadForm.diagonal([1] * n))
    gens = [amb.generator(j) if j < r else {(j,): Scalar.i()} for j in range(n)]
    target = cl_rs(r, s)
    two = _to_scalar(2)
    for a in range(n):
        for b in range(n):
            prod = element_add(clifford_mul(amb, gens[a], gens[b]),
                               clifford_mul(amb, gens[b], gens[a]))
            if prod != ({(): two * target.quad.squares[a]} if a == b else {}):
                return target, False
    return target, True


# ---------------------------------------------------------------------------
# graded tensor products and the periodicity building block

@dataclass(frozen=True)
class GradedTensorAlg:
    """The Koszul-signed tensor product of two Clifford algebras; basis
    elements are pairs of subsets."""

    left: CliffAlg
    right: CliffAlg

    def unit(self):
        return {((), ()): Scalar.one()}

    def mul(self, a: dict, b: dict) -> dict:
        lsq, rsq = self.left.quad.squares, self.right.quad.squares
        out = {}
        for (sa, ta), ca in a.items():
            for (sb, tb), cb in b.items():
                c = -(ca * cb) if len(ta) % 2 and len(sb) % 2 else ca * cb
                ls, c = _blade_mul(lsq, sa, sb, c)
                rs, c = _blade_mul(rsq, ta, tb, c)
                _elem_add(out, (ls, rs), c)
        return out


def graded_tensor(a: CliffAlg, b: CliffAlg):
    """(Clifford algebra of the direct-sum form, isomorphism verified flag):
    checks that v + v' maps to v tensor 1 + 1 tensor v' compatibly with all
    generator relations and carries the monomial basis to a basis; the
    check stops at the first relation or basis image that fails.  Raises
    ValueError when either form is not diagonal."""
    total = CliffAlg(a.quad.direct_sum(b.quad))
    tensor = GradedTensorAlg(a, b)
    n, m = a.quad.dimension, b.quad.dimension
    images = []
    for j in range(n):
        images.append({((j,), ()): Scalar.one()})
    for j in range(m):
        images.append({((), (j,)): Scalar.one()})
    two = _to_scalar(2)
    squares = total.quad.squares
    for x in range(n + m):
        for y in range(x, n + m):
            # the left side is symmetric in x, y, so it is formed once per pair
            prod = element_add(tensor.mul(images[x], images[y]),
                               tensor.mul(images[y], images[x]))
            if prod != ({((), ()): two * squares[x]} if x == y else {}):
                return total, False
    # basis check: images of sorted monomials are single pair-basis terms;
    # the basis lists each prefix first, so one product extends its image
    image_of = {(): tensor.unit()}
    seen = set()
    for subset in total.basis():
        if subset:
            image_of[subset] = tensor.mul(image_of[subset[:-1]], images[subset[-1]])
        img = image_of[subset]
        if len(img) != 1:
            return total, False
        (pair, coeff), = img.items()
        if not (coeff == Scalar.one() or coeff == -Scalar.one()):
            return total, False
        seen.add(pair)
    return total, len(seen) == total.dimension


def signature(q: QuadForm) -> tuple[int, int]:
    """(positive, negative) counts for a rational diagonal form."""
    signs = [d.as_fraction() for d in q.squares]
    return sum(d > 0 for d in signs), sum(d < 0 for d in signs)
