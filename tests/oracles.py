"""Reference constructions the tests compare the package against.

Each is the direct morphism-level form of a construction the package
computes another way: the product of two polynomial matrices entry by
entry, the sum of two morphisms and the Hom differential built from them,
twisting a morphism entrywise, the external tensor of two morphisms, a
morphism's coordinates and back, the generic duality identity, and the
Clifford product by straightening words over any symmetric form;
identity and zero matrices and block grids of polynomial matrices serve
the dense references.  The package itself never imports this module.
"""

from mfsym.polys import Poly, RingMap, RingSpec
from mfsym.mf import (
    MF, MFError, MFMor, Matrix, Verdict, _block_shapes, compose, equation, external_tensor,
    identity_mor, mat_apply, mat_shape, tensor_mor_blocks,
)
from mfsym.groups import twist_mf
from mfsym.linalg import _elem_add
from mfsym.scalars import Scalar


def mat_identity(ring: RingSpec, n: int) -> Matrix:
    one, zero = Poly.constant(ring, 1), Poly.zero(ring)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_zero(ring: RingSpec, r: int, c: int) -> Matrix:
    zero = Poly.zero(ring)
    return tuple((zero,) * c for _ in range(r))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b, entry by entry on Polys; the package multiplies sparse rows."""
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise MFError(f"shape mismatch {mat_shape(a)} x {mat_shape(b)}")
    ring = a[0][0].ring if ra and ca else b[0][0].ring
    zero = Poly.zero(ring)
    out = []
    for i in range(ra):
        row = []
        for j in range(cb):
            acc = zero
            for k in range(ca):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mor_add(f: MFMor, g: MFMor, sign: int = 1) -> MFMor:
    """f + sign * g, blockwise, for two maps of one parity between the same
    objects."""
    if f.parity != g.parity:
        raise MFError("parities differ")
    return MFMor(f.source, f.target, f.parity, *(
        tuple(tuple(x + y * sign for x, y in zip(rf, rg)) for rf, rg in zip(bf, bg))
        for bf, bg in ((f.f0, g.f0), (f.f1, g.f1))))


def hom_diff_reference(f: MFMor) -> MFMor:
    """D(f) = d_N f - (-1)^{|f|} f d_M, out of each source part p
    d_N f_p - (-1)^{|f|} f_{1-p} d_M, from mat_mul."""
    q, dN, dM = f.parity, (f.target.d0, f.target.d1), (f.source.d0, f.source.d1)
    left = MFMor(f.source, f.target, 1 - q, *(mat_mul(dN[(p + q) % 2], f.block(p))
                                             for p in (0, 1)))
    right = MFMor(f.source, f.target, 1 - q, *(mat_mul(f.block(1 - p), dM[p]) for p in (0, 1)))
    return mor_add(left, right, 1 if q else -1)


def mat_block(blocks) -> Matrix:
    """Assemble a 2x2 (or general) grid of matrices."""
    out = []
    for brow in blocks:
        nrows = len(brow[0])
        for i in range(nrows):
            row = []
            for blk in brow:
                row.extend(blk[i])
            out.append(tuple(row))
    return tuple(out)


def twist_mor(rm: RingMap, f: MFMor) -> MFMor:
    return MFMor(twist_mf(rm, f.source), twist_mf(rm, f.target), f.parity,
                 mat_apply(rm, f.f0), mat_apply(rm, f.f1))


def external_tensor_mor(f: MFMor, g: MFMor) -> MFMor:
    """(f x g)(m x n) = (-1)^{|g||m|} f(m) x g(n)."""
    src = external_tensor(f.source, g.source)
    tgt = external_tensor(f.target, g.target)
    return MFMor(src, tgt, (f.parity + g.parity) % 2, *tensor_mor_blocks(f, g))


def mor_coordinates(f: MFMor) -> dict:
    """{(block, row, col, exponent): coefficient} over the terms of f."""
    return {(b, r, c, e): v
            for b, blk in enumerate((f.f0, f.f1))
            for r, row in enumerate(blk)
            for c, p in enumerate(row)
            for e, v in p.terms.items()}


def mor_from_coordinates(M: MF, N: MF, parity: int, coords: dict) -> MFMor:
    """The morphism M -> N with the given mor_coordinates: Scalar values at
    exponents of M's ring; zero values are dropped."""
    terms = [[[{} for _ in range(cols)] for _ in range(rows)]
             for rows, cols in _block_shapes(M, N, parity)]
    for (b, r, c, e), v in coords.items():
        if not v.is_zero():
            terms[b][r][c][e] = v
    f0, f1 = (tuple(tuple(Poly._trusted(M.ring, t) for t in row) for row in blk)
              for blk in terms)
    return MFMor(M, N, parity, f0, f1)


def verify_duality(objects, p_obj, p_mor, theta) -> Verdict:
    """P(Theta_C) ∘ Theta_{P(C)} = id for each object in the list; p_obj
    and p_mor give the contravariant functor, theta the comparison maps.
    A failure is placed at the object's position in the list."""
    for k, C in enumerate(objects):
        PC = p_obj(C)
        if not (v := equation("duality", (f"objects[{k}]",),
                              compose(p_mor(theta(C)), theta(PC)), identity_mor(PC))):
            return v
    return Verdict(True)


def _gen_left(quad, j: int, subset: tuple[int, ...]) -> dict:
    """e_j times the basis element e_subset, straightened back onto the
    sorted basis via e_j e_i = -e_i e_j + 2 B_ij (i != j) and e_j^2 = B_jj."""
    if not subset:
        return {(j,): Scalar.one()}
    i = subset[0]
    rest = subset[1:]
    if j < i:
        return {(j,) + subset: Scalar.one()}
    if j == i:
        return {rest: quad.value(j, j)}
    out = {}
    cross = quad.value(j, i) + quad.value(i, j)
    if not cross.is_zero():
        _elem_add(out, rest, cross)
    for s, c in _gen_left(quad, j, rest).items():
        _elem_add(out, (i,) + s, -c)
    return out


def clifford_mul_reference(alg, a: dict, b: dict) -> dict:
    """a b in a Clifford algebra of any symmetric form, one generator of
    each word of a at a time, last first, by straightening; the package
    multiplies two blades of an orthogonal basis in closed form."""
    out = {}
    for sa, ca in a.items():
        for sb, cb in b.items():
            term = {sb: ca * cb}
            for j in reversed(sa):
                nxt = {}
                for s, c in term.items():
                    for s2, c2 in _gen_left(alg.quad, j, s).items():
                        _elem_add(nxt, s2, c * c2)
                term = nxt
            for s, c in term.items():
                _elem_add(out, s, c)
    return out


def graded_tensor_mul_reference(left, right, a: dict, b: dict) -> dict:
    """a b in the graded tensor product of two Clifford algebras:
    (x (x) y)(x' (x) y') = (-1)^{|y||x'|} x x' (x) y y', from
    clifford_mul_reference on single blades."""
    one = Scalar.one()
    out = {}
    for (sa, ta), ca in a.items():
        for (sb, tb), cb in b.items():
            c = ca * cb * (-1) ** (len(ta) * len(sb))
            for ls, lc in clifford_mul_reference(left, {sa: one}, {sb: one}).items():
                for rs, rc in clifford_mul_reference(right, {ta: one}, {tb: one}).items():
                    _elem_add(out, (ls, rs), c * lc * rc)
    return out
