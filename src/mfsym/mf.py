"""Matrix factorizations and their dg-categorical operations.

An MF is a pair of polynomial matrix blocks (d0: M0 -> M1, d1: M1 -> M0)
with d1*d0 and d0*d1 both equal to the potential times the identity,
checked exactly on construction.  Morphisms carry a parity and two
blocks; all signs (Hom differential, shift, external tensor, duality)
live here.  Every matrix product is linalg's product of sparse rows, and
D has one kernel of such products, which is_closed and hom_diff read.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property

from .polys import Poly, RingSpec, RingMap, apply_ring_map, _monomials_by_degree
from .linalg import _inverse, _sparse_mul, _sparse_scaled_identity
from .scalars import Scalar

Matrix = tuple  # rows of tuples of Poly


class MFError(ValueError):
    pass


# ---------------------------------------------------------------------------
# matrix helpers

def mat(rows) -> Matrix:
    return tuple(tuple(r) for r in rows)


def mat_shape(m: Matrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in r) for r in a)


def mat_scale(c, a: Matrix) -> Matrix:
    return tuple(tuple(x * c for x in r) for r in a)


def mat_transpose(a: Matrix) -> Matrix:
    r, c = mat_shape(a)
    return tuple(tuple(a[i][j] for i in range(r)) for j in range(c))


def mat_eq(a: Matrix, b: Matrix) -> bool:
    if mat_shape(a) != mat_shape(b):
        return False
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_apply(rm: RingMap, a: Matrix) -> Matrix:
    return tuple(tuple(apply_ring_map(rm, x) for x in r) for r in a)


def _rows(a: Matrix) -> list[dict]:
    """a as linalg's sparse rows, each constant entry read as its Scalar."""
    return [{c: x.constant_coeff() if x.is_constant() else x for c, x in enumerate(row) if x.terms}
            for row in a]


def _constant_rows(a: Matrix) -> list[dict]:
    """The sparse rows of a nonempty square matrix of constants; others raise MFError."""
    if not a or len(a) != len(a[0]):
        raise MFError(f"structure map must be a nonempty square matrix, got shape {mat_shape(a)}")
    if not all(x.is_constant() for row in a for x in row):
        raise MFError("structure map has non-constant entries")
    return _rows(a)


def _poly_block(ring: RingSpec, rows, cols: int) -> Matrix:
    """The matrix of Polys with these sparse rows and cols columns, the one
    writer of blocks from rows: a Scalar value becomes a constant Poly."""
    zero, const = Poly.zero(ring), (0,) * ring.nvars
    return tuple(tuple(v if (v := row.get(c, zero)).__class__ is Poly
                       else Poly._trusted(ring, {const: v}) for c in range(cols)) for row in rows)


def _product(ring: RingSpec, a: Matrix, b: Matrix) -> Matrix:
    """a b, the product of their sparse rows (linalg._sparse_mul); inner
    sizes that differ raise MFError."""
    if mat_shape(a)[1] != len(b):
        raise MFError(f"shape mismatch {mat_shape(a)} x {mat_shape(b)}")
    return _poly_block(ring, _sparse_mul(_rows(a), _rows(b)), mat_shape(b)[1])


# ---------------------------------------------------------------------------
# objects and morphisms

@dataclass(frozen=True)
class MF:
    ring: RingSpec
    w: Poly
    d0: Matrix  # r1 x r0, the map M0 -> M1
    d1: Matrix  # r0 x r1, the map M1 -> M0

    @property
    def r0(self) -> int:
        return mat_shape(self.d1)[0]

    @property
    def r1(self) -> int:
        return mat_shape(self.d0)[0]

    @property
    def ranks(self) -> tuple[int, int]:
        return (self.r0, self.r1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MF):
            return NotImplemented
        return (
            self.ring.variables == other.ring.variables
            and self.w == other.w
            and mat_eq(self.d0, other.d0)
            and mat_eq(self.d1, other.d1)
        )

    __hash__ = None

    @cached_property
    def _key(self) -> tuple:
        """mf_key(self), built on first use and then stored in the instance
        __dict__, which cached_property writes past the frozen __setattr__."""
        ring = self.ring

        def poly(p: Poly) -> tuple:
            terms = tuple((e, c.conductor, c.numerators, c.denominator)
                          for e, c in p.terms.items())
            return terms if p.ring == ring else (p.ring, terms)

        return (ring, poly(self.w),
                tuple(tuple(poly(p) for p in row) for row in self.d0),
                tuple(tuple(poly(p) for p in row) for row in self.d1))


def mf_key(M: MF) -> tuple:
    """A hashable key of M's content: the ring and every term of w, d0
    and d1 as (exponent, conductor, numerators, denominator), in storage
    order, with an entry's own ring where it differs from M's.  Equal keys
    mean the two factorizations are identical field by field, so whatever
    is built from one is exactly what would be built from the other.

    The key is computed once per MF and kept on it (MF._key).  That rests
    on MF being frozen and on no Poly's terms dict being mutated after the
    Poly is built."""
    return M._key


def mf_new(ring: RingSpec, w: Poly, d0, d1) -> MF:
    d0, d1 = mat(d0), mat(d1)
    r1, r0 = mat_shape(d0)
    r0b, r1b = mat_shape(d1)
    if (r0, r1) != (r0b, r1b):
        raise MFError(f"block shapes inconsistent: d0 {mat_shape(d0)}, d1 {mat_shape(d1)}")
    for name, prod, n in (("d1*d0", _product(ring, d1, d0), r0),
                          ("d0*d1", _product(ring, d0, d1), r1)):
        for i in range(n):
            for j in range(n):
                want = w if i == j else Poly.zero(ring)
                if not (prod[i][j] == want):
                    raise MFError(
                        f"twisted differential violation in {name} at ({i},{j}): "
                        f"got {prod[i][j]}, want {want}"
                    )
    return MF(ring, w, d0, d1)


def rank_one(a: Poly, b: Poly) -> MF:
    return mf_new(a.ring, a * b, ((a,),), ((b,),))


def _block_shapes(M: MF, N: MF, parity: int):
    """(rows, cols) of the blocks, out of source parts 0 and 1, of a map
    M -> N of the given parity."""
    if parity == 0:
        return ((N.r0, M.r0), (N.r1, M.r1))
    return ((N.r1, M.r0), (N.r0, M.r1))


@dataclass(frozen=True)
class MFMor:
    source: MF
    target: MF
    parity: int  # 0 even, 1 odd
    f0: Matrix  # even: M0 -> N0 ; odd: M0 -> N1
    f1: Matrix  # even: M1 -> N1 ; odd: M1 -> N0

    def __post_init__(self):
        want0, want1 = _block_shapes(self.source, self.target, self.parity)
        if mat_shape(self.f0) != want0 or mat_shape(self.f1) != want1:
            raise MFError(f"block shapes {mat_shape(self.f0)}, {mat_shape(self.f1)}"
                          f" != {want0}, {want1}")

    def block(self, p: int) -> Matrix:
        """The block out of source part p."""
        return self.f0 if p == 0 else self.f1

    @cached_property
    def _inverted(self) -> "MFMor | None":
        """mor_inverse(self), found on first use and then kept, as MF._key is."""
        if self.parity != 0:
            return None
        blocks = []
        for blk in (self.f0, self.f1):
            if (rows := _inverse(_constant_rows(blk))) is None:
                return None
            blocks.append(_poly_block(blk[0][0].ring, rows, len(rows)))
        return MFMor(self.target, self.source, 0, *blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MFMor):
            return NotImplemented
        return (
            self.parity == other.parity
            and mat_eq(self.f0, other.f0)
            and mat_eq(self.f1, other.f1)
        )

    __hash__ = None

    def scale(self, c) -> "MFMor":
        return MFMor(self.source, self.target, self.parity,
                     mat_scale(c, self.f0), mat_scale(c, self.f1))


def identity_mor(M: MF) -> MFMor:
    return scaled_identity(M, M, 1, 1)


def scaled_identity(M: MF, N: MF, c0, c1) -> MFMor:
    """The even map M -> N with blocks c0 * id and c1 * id (N has M's
    ranks), for Scalars or ints c0 and c1."""
    return MFMor(M, N, 0, *(_poly_block(M.ring, _sparse_scaled_identity(
        c if isinstance(c, Scalar) else Scalar.from_rational(c), n), n)
        for c, n in ((c0, M.r0), (c1, M.r1))))


def scaled_witnesses(base: MF, targets, identity: int, units):
    """Candidate families u of closed even maps base -> targets[i], in the
    order of itertools.product.  u[identity] is the identity; every other
    u[i] is scaled_identity(base, targets[i], a, b) with a in units and b
    forced by closedness, read off the term of targets[i].d0[0][0] * a at
    the exponent of base.d0[0][0]'s leading term.  Yields nothing when
    some element has no closed candidate."""
    (e, c), = list(base.d0[0][0].terms.items())[:1]
    options = []
    for i, target in enumerate(targets):
        if i == identity:
            options.append((identity_mor(base),))
            continue
        closed = []
        for a in units:
            top = (target.d0[0][0] * a).terms.get(e)
            if top is None:
                continue
            f = scaled_identity(base, target, a, top * c.inverse())
            if is_closed(f):
                closed.append(f)
        if not closed:
            return
        options.append(closed)
    yield from itertools.product(*options)


def compose(f: MFMor, g: MFMor) -> MFMor:
    """f after g."""
    parity = (f.parity + g.parity) % 2
    # g sends source part p to part p+|g|, where f's block picks up
    b0 = _product(g.source.ring, f.block(g.parity % 2), g.f0)
    b1 = _product(g.source.ring, f.block((1 + g.parity) % 2), g.f1)
    return MFMor(g.source, f.target, parity, b0, b1)


def diff_mor(M: MF) -> MFMor:
    """d_M viewed as an odd endomorphism."""
    return MFMor(M, M, 1, M.d0, M.d1)


def _hom_diff_rows(f: MFMor):
    """The sparse rows of D(f) = d_N f - (-1)^{|f|} f d_M out of each source
    part p in turn, d_N f_p - (-1)^{|f|} f_{1-p} d_M: products of rows, so
    a constant entry of f only scales entries of the differentials."""
    q = f.parity
    dN, dM, fr = ((_rows(h.f0), _rows(h.f1)) for h in (diff_mor(f.target), diff_mor(f.source), f))
    for p in (0, 1):
        right = fr[1 - p] if q else [{k: -x for k, x in row.items()} for row in fr[1 - p]]
        yield _sparse_mul(right, dM[p], _sparse_mul(dN[(p + q) % 2], fr[p]))


def hom_diff(f: MFMor) -> MFMor:
    """D(f) = d_N . f - (-1)^{|f|} f . d_M."""
    parity = 1 - f.parity
    blocks = [_poly_block(f.source.ring, rows, cols) for rows, (_, cols) in
              zip(_hom_diff_rows(f), _block_shapes(f.source, f.target, parity))]
    return MFMor(f.source, f.target, parity, *blocks)


def window_monomials(nvars: int, cutoff: int) -> list:
    """Exponent tuples of total degree <= cutoff, in order of degree."""
    return [m for bucket in _monomials_by_degree(nvars, cutoff) for m in bucket]


def window_slots(M: MF, N: MF, parity: int, monomials) -> list:
    """The unknowns (block, row, col, monomial) of the window of morphisms
    M -> N of the given parity with entries in the span of x^monomial."""
    return [(b, r, c, m)
            for b, (rows, cols) in enumerate(_block_shapes(M, N, parity))
            for r in range(rows) for c in range(cols) for m in monomials]


def window_operator(left: MFMor, right: MFMor, parity: int, monomials,
                    twist: RingMap | None = None) -> list:
    """The matrix of  f -> left . f - (-1)^{|f||right|} twist(f) . right  on
    the window of morphisms f: right.source -> left.source of the given
    parity whose entries are combinations of x^m, m in monomials.

    With left = d_N and right = d_M this is hom_diff; with left = u'_sigma,
    right = u_sigma and twist = sigma it is the Real residual
    u'_sigma . f - f^sigma . u_sigma.  Column k is the image of the k-th
    unknown of window_slots, the entry x^m with coefficient one, a dict
    (block, row, col, exponent) -> nonzero coefficient.  The operator is
    linear over the coefficient field, except under an antilinear twist,
    which conjugates f's coefficients: there it is linear over Q only.

    Multiplying an entry by a monomial only shifts its exponents, and the
    left piece of block entry (b, r, c), column r of left's block, does not
    depend on c, nor the right piece, sign times row c of right's block, on
    r.  So the values are read once per block row r or column c, at the
    entries' own exponents, and only the keys are built per entry.  The
    column of x^m shifts the left piece by m and the right piece by each
    exponent of twist(x^m), scaled by that term's coefficient unless it is
    one; with no twist that is m with coefficient one, and nothing is
    multiplied.  Each shifted exponent is built once per call, in a table
    from entry exponent to its shifts.
    """
    M, N = right.source, left.source
    q = right.parity
    negate = not parity * q % 2
    # images[k]: the terms of twist(x^monomials[k]), (index into shifts,
    # coefficient or None for one)
    shifts = list(monomials)
    if twist is None:
        images = [((k, None),) for k in range(len(monomials))]
    else:
        at = {m: k for k, m in enumerate(shifts)}
        one = Scalar.one()
        images = []
        for m in monomials:
            image = apply_ring_map(twist, Poly(M.ring, {m: one})).terms
            for e in image:
                if e not in at:
                    at[e] = len(shifts)
                    shifts.append(e)
            images.append([(at[e], None if v == one else v) for e, v in image.items()])
    shifted = {e: [tuple(map(operator.add, e, m)) for m in shifts]
               for f in (left, right) for blk in (f.f0, f.f1)
               for row in blk for p in row for e in p.terms}
    columns = []
    for b, (rows, cols) in enumerate(_block_shapes(M, N, parity)):
        out = (b + q) % 2
        lblock, rblock = left.block((b + parity) % 2), right.block(out)
        rvals = [[(j, e, -v if negate else v) for j, p in enumerate(rblock[c])
                  for e, v in p.terms.items()] for c in range(cols)]
        for r in range(rows):
            lvals = [(i, e, v) for i, row in enumerate(lblock) for e, v in row[r].terms.items()]
            for c in range(cols):
                lpiece = [([(b, i, c, x) for x in shifted[e]], v) for i, e, v in lvals]
                rpiece = [([(out, r, j, x) for x in shifted[e]], v) for j, e, v in rvals[c]]
                for k, image in enumerate(images):
                    col = {ks[k]: v for ks, v in lpiece}
                    summed = False
                    for s, w in image:
                        for ks, v in rpiece:
                            key = ks[s]
                            if w is not None:
                                v = v * w
                            if key in col:
                                v, summed = col[key] + v, True
                            col[key] = v
                    columns.append({key: v for key, v in col.items() if not v.is_zero()}
                                   if summed else col)
    return columns


def is_closed(f: MFMor) -> bool:
    """Whether D(f) = 0, read part by part off hom_diff's rows."""
    return not any(any(rows) for rows in _hom_diff_rows(f))


def mor_inverse(f: MFMor) -> MFMor | None:
    """The inverse of f, or None if f is odd or a block is singular; MFError
    for a block that _constant_rows refuses, f0 decided before f1 is read."""
    return f._inverted


def is_isomorphism(f: MFMor) -> bool:
    """Whether f is even with invertible blocks, as mor_inverse decides."""
    return mor_inverse(f) is not None


# ---------------------------------------------------------------------------
# verdicts

@dataclass(frozen=True)
class Verdict:
    """The outcome of an exact check, true exactly when ok.

    A failing verdict names the first identity that failed, the labels of
    the group elements (or the place) where it failed, and, when that
    identity is an equation, one nonzero term (block, row, col, exponent,
    coefficient) of lhs - rhs.  A scalar equation reads as block, row and
    col 0 with the empty exponent.
    """

    ok: bool
    identity: str = ""
    at: tuple = ()
    term: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def equation(identity: str, at: tuple, lhs, rhs) -> Verdict:
    """Whether lhs == rhs, two morphisms or two block pairs (f0, f1),
    failing with the first nonzero term of lhs - rhs.  Morphisms of
    different parities and blocks of different shapes raise MFError."""
    if isinstance(lhs, MFMor):
        if lhs.parity != rhs.parity:
            raise MFError("parities differ")
        lhs, rhs = (lhs.f0, lhs.f1), (rhs.f0, rhs.f1)
    if (shapes := list(map(mat_shape, lhs))) != list(map(mat_shape, rhs)):
        raise MFError(f"block shapes {shapes} != {list(map(mat_shape, rhs))}")
    if all(map(mat_eq, lhs, rhs)):
        return Verdict(True)
    return Verdict(False, identity, at, min(
        (b, r, c, e, v) for b, blk in enumerate(map(mat_sub, lhs, rhs))
        for r, row in enumerate(blk) for c, p in enumerate(row) for e, v in p.terms.items()))


# ---------------------------------------------------------------------------
# shift

def shift(M: MF) -> MF:
    return MF(M.ring, M.w, mat_neg(M.d1), mat_neg(M.d0))


def shift_mor(f: MFMor) -> MFMor:
    src, tgt = shift(f.source), shift(f.target)
    if f.parity == 0:
        return MFMor(src, tgt, 0, f.f1, f.f0)
    return MFMor(src, tgt, 1, mat_neg(f.f1), mat_neg(f.f0))


def negate_mf(M: MF) -> MF:
    """M with both differential blocks negated (written M- below)."""
    return MF(M.ring, M.w, mat_neg(M.d0), mat_neg(M.d1))


# ---------------------------------------------------------------------------
# external tensor product

def join_rings(r1: RingSpec, r2: RingSpec) -> RingSpec:
    clash = set(r1.variables) & set(r2.variables)
    if clash:
        raise MFError(f"variable name collision: {sorted(clash)}")
    return RingSpec(r1.variables + r2.variables, math.lcm(r1.conductor, r2.conductor))


def lift_poly(p: Poly, ring: RingSpec) -> Poly:
    """Embed p into a ring containing its variables (matched by name)."""
    perm = [ring.var_index(v) for v in p.ring.variables]
    terms = {}
    for e, c in p.terms.items():
        e2 = [0] * ring.nvars
        for pos, k in enumerate(e):
            e2[perm[pos]] = k
        terms[tuple(e2)] = c
    return Poly(ring, terms)


def lift_mat(a: Matrix, ring: RingSpec) -> Matrix:
    return tuple(tuple(lift_poly(x, ring) for x in r) for r in a)


def tensor_basis(M: MF, N: MF):
    """Ordered bases of the tensor: even = (M0xN0, M1xN1), odd = (M1xN0, M0xN1)."""
    even = [(0, i, 0, j) for i in range(M.r0) for j in range(N.r0)] + \
           [(1, i, 1, j) for i in range(M.r1) for j in range(N.r1)]
    odd = [(1, i, 0, j) for i in range(M.r1) for j in range(N.r0)] + \
          [(0, i, 1, j) for i in range(M.r0) for j in range(N.r1)]
    return even, odd


def _tensor_blocks(ring: RingSpec, terms, parity: int, tgt_bases, place=None) -> tuple:
    """The blocks, out of source parts 0 and 1, of the map of the given
    parity into the tensor product with ordered bases tgt_bases that is the
    sum of f x g over the pairs (f, g) in terms, all from one source:

        (f x g)(m x n) = (-1)^{|g||m|} f(m) x g(n),

    the one place this Koszul sign is applied.  The image f(m) x g(n) is
    filled in at the target basis element m' x n' of each of its terms, or
    at place(m' x n') = (element, negate) when place is given."""
    f, g = terms[0]
    src_bases = tensor_basis(f.source, g.source)
    index = [{t: k for k, t in enumerate(b)} for b in tgt_bases]

    def columns(h: MFMor) -> list:
        """Per source part: column -> [(target part, row, lifted entry)]."""
        out = []
        for p in (0, 1):
            cols: dict = {}
            for r, row in enumerate(h.block(p)):
                for c, x in enumerate(row):
                    if x.terms:
                        cols.setdefault(c, []).append(((p + h.parity) % 2, r, lift_poly(x, ring)))
            out.append(cols)
        return out

    lifted = [(columns(f), columns(g), g.parity) for f, g in terms]
    zero = Poly.zero(ring)
    blocks = []
    for p in (0, 1):
        rows = index[(p + parity) % 2]
        entries = [[zero] * len(src_bases[p]) for _ in rows]
        for col, (pM, iM, pN, iN) in enumerate(src_bases[p]):
            for fcols, gcols, g_parity in lifted:
                koszul = bool(g_parity and pM)
                for qM, rM, fv in fcols[pM].get(iM, ()):
                    for qN, rN, gv in gcols[pN].get(iN, ()):
                        elem, negate = (qM, rM, qN, rN), koszul
                        if place is not None:
                            elem, sign = place(elem)
                            negate = negate != sign
                        val = fv * gv
                        if negate:
                            val = -val
                        row = rows[elem]
                        acc = entries[row][col]
                        entries[row][col] = acc + val if acc.terms else val
        blocks.append(tuple(tuple(r) for r in entries))
    return tuple(blocks)


def external_tensor(M: MF, N: MF) -> MF:
    """M x N with d = d_M x 1 + 1 x d_N.  d^2 = w_M + w_N holds by
    construction when M and N are factorizations, so it is not checked
    again (mf_new checks each input where it is built)."""
    ring = join_rings(M.ring, N.ring)
    d0, d1 = _tensor_blocks(ring, [(diff_mor(M), identity_mor(N)),
                                   (identity_mor(M), diff_mor(N))], 1, tensor_basis(M, N))
    w = lift_poly(M.w, ring) + lift_poly(N.w, ring)
    return MF(ring, w, d0, d1)


def tensor_mor_blocks(f: MFMor, g: MFMor) -> tuple:
    """The blocks (f0, f1) of the external tensor f x g,
    (f x g)(m x n) = (-1)^{|g||m|} f(m) x g(n), between the external
    tensors of the sources and of the targets."""
    ring = join_rings(f.source.ring, g.source.ring)
    return _tensor_blocks(ring, [(f, g)], (f.parity + g.parity) % 2,
                          tensor_basis(f.target, g.target))


def _basis_permutation_mor(src: MF, tgt: MF, f: MFMor, g: MFMor, tgt_bases,
                           place=None) -> MFMor:
    """The degree-0 morphism src -> tgt with the blocks of f x g, where f and
    g are identities or odd shift identities and place relabels."""
    return MFMor(src, tgt, 0, *_tensor_blocks(src.ring, [(f, g)], 0, tgt_bases, place))


def _shift_identity(M: MF) -> MFMor:
    """The odd map Sigma M -> M that is the identity on the underlying
    module: part p of Sigma M is part 1-p of M."""
    ident = identity_mor(shift(M))
    return MFMor(ident.source, M, 1, ident.f0, ident.f1)


def transport_mf(M: MF, ring: RingSpec) -> MF:
    """Reinterpret M over a ring with the same variables in another order."""
    return MF(ring, lift_poly(M.w, ring), lift_mat(M.d0, ring), lift_mat(M.d1, ring))


def swap_iso(M: MF, N: MF) -> MFMor:
    """The closed degree-0 isomorphism M x N -> N x M,
    m x n -> (-1)^{|m||n|} n x m (target transported to the source ring)."""
    src = external_tensor(M, N)
    nm = external_tensor(N, M)
    tgt = transport_mf(nm, src.ring)

    def place(elem):
        pM, iM, pN, iN = elem
        return (pN, iN, pM, iM), bool(pM and pN)

    return _basis_permutation_mor(src, tgt, identity_mor(M), identity_mor(N),
                                  tensor_basis(N, M), place)


# ---------------------------------------------------------------------------
# duality

def dual(M: MF) -> MF:
    return MF(M.ring, -M.w, mat_neg(mat_transpose(M.d1)), mat_transpose(M.d0))


def dual_mor(f: MFMor) -> MFMor:
    """f^v(xi) = (-1)^{|f||xi|} xi . f, i.e. transpose blocks with a sign on
    the odd-part block for odd f."""
    src, tgt = dual(f.target), dual(f.source)
    if f.parity == 0:
        return MFMor(src, tgt, 0, mat_transpose(f.f0), mat_transpose(f.f1))
    return MFMor(src, tgt, 1, mat_transpose(f.f1), mat_neg(mat_transpose(f.f0)))


def grading_iso(M: MF) -> MFMor:
    """J_M = id_{M0} + (-id_{M1}): M -> M-."""
    return scaled_identity(M, negate_mf(M), 1, -1)


def double_dual_iso(M: MF) -> MFMor:
    """Theta_M: M -> M^vv; evaluation is the identity in the chosen bases,
    composed with the grading isomorphism."""
    return scaled_identity(M, dual(dual(M)), 1, -1)


def tensor_dual_pairing(M: MF, N: MF) -> MFMor:
    """The closed degree-0 isomorphism N^v x M^v -> (M x N)^v induced by
    <n^v x m^v, m x n> = n^v(n) m^v(m) (source transported to the ring of
    M x N)."""
    mxn = external_tensor(M, N)
    tgt = dual(mxn)
    Nd, Md = dual(N), dual(M)
    src_raw = external_tensor(Nd, Md)
    src = transport_mf(src_raw, mxn.ring)

    def place(elem):
        pN, iN, pM, iM = elem
        return (pM, iM, pN, iN), False

    # the parts of a dual share the labels of the primal basis
    return _basis_permutation_mor(src, tgt, identity_mor(Nd), identity_mor(Md),
                                  tensor_basis(M, N), place)


def shift_tensor_iso_left(M: MF, N: MF) -> MFMor:
    """Canonical closed iso (Sigma M) x N -> Sigma(M x N)."""
    src = external_tensor(shift(M), N)
    tgt = shift(external_tensor(M, N))
    mn_bases = tensor_basis(M, N)
    return _basis_permutation_mor(src, tgt, _shift_identity(M), identity_mor(N),
                                  (mn_bases[1], mn_bases[0]))


def shift_tensor_iso_right(M: MF, N: MF) -> MFMor:
    """Canonical closed iso M x (Sigma N) -> Sigma(M x N), with Koszul sign
    (-1)^{|m|} on the m x n basis element."""
    src = external_tensor(M, shift(N))
    tgt = shift(external_tensor(M, N))
    mn_bases = tensor_basis(M, N)
    return _basis_permutation_mor(src, tgt, identity_mor(M), _shift_identity(N),
                                  (mn_bases[1], mn_bases[0]))
