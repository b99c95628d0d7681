"""Matrix factorizations, sign conventions, and structural isomorphisms."""

import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mfsym.scalars import Scalar
from mfsym.polys import Poly, RingMap, RingSpec
from mfsym.groups import twist_mf
from mfsym.mf import (
    MF, MFMor, MFError, mf_new, rank_one, identity_mor, compose,
    diff_mor, hom_diff, is_closed, is_isomorphism, mor_inverse, shift,
    shift_mor, dual, dual_mor, double_dual_iso, grading_iso, external_tensor,
    swap_iso, shift_tensor_iso_left,
    shift_tensor_iso_right, tensor_dual_pairing,
    mat_eq, mat_neg, mat_shape, scaled_identity,
    join_rings, lift_poly, lift_mat, negate_mf, _block_shapes,
)
import mfsym.catalog as catalog
from oracles import (
    external_tensor_mor, hom_diff_reference, mat_block, mat_identity, mat_mul, mat_zero, mor_add,
)


RNG = random.Random(20240824)


def random_mor(M, N, parity):
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
                    e = tuple(RNG.randrange(0, 2) for _ in range(ring.nvars))
                    terms[e] = Scalar.from_rational(RNG.randrange(-3, 4))
                row.append(Poly(ring, terms))
            blk.append(tuple(row))
        blocks.append(tuple(blk))
    return MFMor(M, N, parity, blocks[0], blocks[1])


def test_mf_new_rejects_bad_factorization():
    ring = RingSpec(("u", "v"))
    u, v = Poly.variable(ring, "u"), Poly.variable(ring, "v")
    with pytest.raises(MFError):
        mf_new(ring, u * v, ((u,),), ((u,),))


def test_catalog_twisted_differentials():
    cat = catalog.mf_catalog()
    assert len(cat) >= 15
    for name, M in cat:
        ring = M.ring
        want0 = tuple(tuple(M.w if r == c else Poly.zero(ring)
                            for c in range(M.r0)) for r in range(M.r0))
        want1 = tuple(tuple(M.w if r == c else Poly.zero(ring)
                            for c in range(M.r1)) for r in range(M.r1))
        assert mat_eq(mat_mul(M.d1, M.d0), want0), name
        assert mat_eq(mat_mul(M.d0, M.d1), want1), name


def test_hom_diff_squares_to_zero():
    cat = catalog.mf_catalog()
    for _ in range(40):
        _, M = cat[RNG.randrange(len(cat))]
        f = random_mor(M, M, RNG.randrange(2))
        dd = hom_diff(hom_diff(f))
        assert all(p.is_zero() for blk in (dd.f0, dd.f1) for row in blk
                   for p in row)


def test_diff_mor_squares_to_potential():
    for _, M in catalog.mf_catalog():
        d = diff_mor(M)
        sq = compose(d, d)
        ident = identity_mor(M)
        assert sq.f0 == tuple(tuple(p * M.w for p in row) for row in ident.f0)
        assert sq.f1 == tuple(tuple(p * M.w for p in row) for row in ident.f1)


def test_shift_involution_and_dual():
    for _, M in catalog.mf_catalog():
        assert shift(shift(M)) == M
        assert dual(dual(M)).w == M.w
        f = random_mor(M, M, RNG.randrange(2))
        assert shift_mor(shift_mor(f)) == f


def test_dual_dg_functoriality():
    cat = catalog.mf_catalog()
    for _ in range(20):
        _, M = cat[RNG.randrange(len(cat))]
        f = random_mor(M, M, RNG.randrange(2))
        assert hom_diff(dual_mor(f)) == dual_mor(hom_diff(f))
        g = random_mor(M, M, RNG.randrange(2))
        lhs = dual_mor(compose(f, g))
        rhs = compose(dual_mor(g), dual_mor(f))
        if f.parity * g.parity:
            rhs = rhs.scale(-Scalar.one())
        assert lhs == rhs


def test_double_dual_and_grading_isos():
    for _, M in catalog.mf_catalog():
        for iso in (double_dual_iso(M), grading_iso(M)):
            assert is_closed(iso)
            assert is_isomorphism(iso)


def test_mor_inverse_round_trip():
    for _, M in catalog.mf_catalog()[:4]:
        j = grading_iso(M)
        inv = mor_inverse(j)
        assert compose(inv, j) == identity_mor(j.source)


def test_external_tensor_potentials_add():
    Ruv = RingSpec(("u", "v"))
    Ryz = RingSpec(("y", "z"))
    A = rank_one(Poly.variable(Ruv, "u"), Poly.variable(Ruv, "v"))
    B = rank_one(Poly.variable(Ryz, "y"), Poly.variable(Ryz, "z"))
    T = external_tensor(A, B)
    joined = join_rings(Ruv, Ryz)
    assert T.w == lift_poly(A.w, joined) + lift_poly(B.w, joined)
    assert T.ranks == (2, 2)


def _renamed(M, suffix):
    """M over a copy of its ring whose variable names carry the suffix."""
    ring = RingSpec(tuple(v + suffix for v in M.ring.variables), M.ring.conductor)

    def move(a):
        return tuple(tuple(Poly(ring, dict(p.terms)) for p in row) for row in a)

    return MF(ring, Poly(ring, dict(M.w.terms)), move(M.d0), move(M.d1))


def _catalog_pairs(max_rank):
    """(M, N) over the small catalog factorizations, N's variables renamed
    apart from M's."""
    small = [M for _, M in catalog.mf_catalog() if max(M.ranks) <= max_rank]
    return [(M, _renamed(N, "_n")) for M in small for N in small]


def _kron(a, b):
    return tuple(tuple(a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(len(b[0])))
                 for i in range(len(a)) for k in range(len(b)))


def test_external_tensor_matches_kronecker_block_formula():
    """The differential of M x N entry for entry against the Kronecker block
    formula, written out here as the reference."""
    pairs = _catalog_pairs(2)
    assert len(pairs) >= 100
    for M, N in pairs:
        ring = join_rings(M.ring, N.ring)
        dM0, dM1 = lift_mat(M.d0, ring), lift_mat(M.d1, ring)
        dN0, dN1 = lift_mat(N.d0, ring), lift_mat(N.d1, ring)
        i_m0, i_m1 = mat_identity(ring, M.r0), mat_identity(ring, M.r1)
        i_n0, i_n1 = mat_identity(ring, N.r0), mat_identity(ring, N.r1)
        d0 = mat_block([[_kron(dM0, i_n0), mat_neg(_kron(i_m1, dN1))],
                        [_kron(i_m0, dN0), _kron(dM1, i_n1)]])
        d1 = mat_block([[_kron(dM1, i_n0), _kron(i_m0, dN1)],
                        [mat_neg(_kron(i_m1, dN0)), _kron(dM0, i_n1)]])
        T = external_tensor(M, N)
        assert T.d0 == d0 and T.d1 == d1


def _rank_one_draws(names):
    """Rank-one factorizations (a, b) of a*b over a fresh ring, with a and
    b drawn nonzero with a few terms c0 + c1*i."""
    ring = RingSpec(names, conductor=4)
    coeff = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda ab: Scalar.from_rational(ab[0]) + Scalar.i() * ab[1])
    poly = st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(names)), coeff,
                           min_size=1, max_size=3).map(lambda t: Poly(ring, t))
    nonzero = poly.filter(lambda p: not p.is_zero())
    return st.tuples(nonzero, nonzero).map(lambda ab: rank_one(*ab))


_SMALL_CATALOG = [M for _, M in catalog.mf_catalog() if max(M.ranks) <= 2]


_DIAGONAL_SCALES = st.lists(
    st.sampled_from([Scalar.one(), -Scalar.one(), Scalar.from_rational(2),
                     Scalar.i(), Scalar.one() + Scalar.i()]), min_size=6, max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SMALL_CATALOG), _rank_one_draws(("p1", "q1")),
       _rank_one_draws(("p2", "q2")), _DIAGONAL_SCALES, st.booleans())
def test_external_tensor_of_factorizations_passes_mf_new(M, A, B, scales, antilinear):
    """external_tensor, shift, dual, negate_mf and twist_mf do not check
    d^2 = w again; mf_new's check accepts each of them applied to checked
    factorizations, also to a tensor.  The twist scales each variable."""
    MA = external_tensor(M, A)
    diagonal = RingMap(tuple(Poly.variable(MA.ring, v) * c
                             for v, c in zip(MA.ring.variables, scales)), antilinear)
    for T in (MA, external_tensor(A, M), external_tensor(MA, B), shift(MA), dual(MA),
              negate_mf(MA), twist_mf(diagonal, MA)):
        assert mf_new(T.ring, T.w, T.d0, T.d1) == T


def test_external_tensor_mor_functorial():
    """(f x g)(f' x g') = (-1)^{|g||f'|} (f f') x (g g'), all parities."""
    Ruv = RingSpec(("u", "v"))
    Ryz = RingSpec(("y", "z"))
    A = rank_one(Poly.variable(Ruv, "u"), Poly.variable(Ruv, "v"))
    B = rank_one(Poly.variable(Ryz, "y"), Poly.variable(Ryz, "z"))
    pairs = [(A, B)] + _catalog_pairs(2)[::43]
    for M, N in pairs:
        for pf, pf2, pg, pg2 in itertools.product((0, 1), repeat=4):
            f, f2 = random_mor(M, M, pf), random_mor(M, M, pf2)
            g, g2 = random_mor(N, N, pg), random_mor(N, N, pg2)
            lhs = compose(external_tensor_mor(f, g), external_tensor_mor(f2, g2))
            rhs = external_tensor_mor(compose(f, f2), compose(g, g2))
            if pg * pf2:
                rhs = rhs.scale(-Scalar.one())
            assert lhs == rhs


def test_external_tensor_mor_leibniz():
    """D(f x g) = D(f) x g + (-1)^{|f|} f x D(g), both parities."""
    for M, N in _catalog_pairs(2)[::13]:
        for pf, pg in itertools.product((0, 1), repeat=2):
            f, g = random_mor(M, M, pf), random_mor(N, N, pg)
            lhs = hom_diff(external_tensor_mor(f, g))
            right = external_tensor_mor(f, hom_diff(g))
            if pf:
                right = right.scale(-Scalar.one())
            assert lhs == mor_add(external_tensor_mor(hom_diff(f), g), right)


def test_tensor_structure_isos():
    Ruv = RingSpec(("u", "v"))
    Ryz = RingSpec(("y", "z"))
    A = rank_one(Poly.variable(Ruv, "u"), Poly.variable(Ruv, "v"))
    B = rank_one(Poly.variable(Ryz, "y"), Poly.variable(Ryz, "z"))
    for iso in (swap_iso(A, B), shift_tensor_iso_left(A, B),
                shift_tensor_iso_right(A, B), tensor_dual_pairing(A, B)):
        assert is_closed(iso)
        assert is_isomorphism(iso)


def test_knorrer_apply_shapes():
    Rx = RingSpec(("x",))
    x = Poly.variable(Rx, "x")
    M = rank_one(x, x)
    Ryz = RingSpec(("y", "z"))
    K = rank_one(Poly.variable(Ryz, "y"), Poly.variable(Ryz, "z"))
    MK = external_tensor(M, K)
    assert MK.ranks == (2, 2)
    assert MK.ring.nvars == 3


def _block_mor(ring, f0):
    """The even map with block f0, of any shape, and the 1 x 1 identity,
    between factorizations of 0 with zero differentials (built as MFs: an
    empty block has no column count for mf_new to check)."""
    def zero_mf(n):
        return MF(ring, Poly.zero(ring), mat_zero(ring, 1, n), mat_zero(ring, n, 1))
    rows, cols = mat_shape(f0)
    return MFMor(zero_mf(cols), zero_mf(rows), 0, f0, mat_identity(ring, 1))


def _assert_inverts(f):
    """mor_inverse(f) composes with f to the identity on both sides."""
    inv = mor_inverse(f)
    assert compose(inv, f) == identity_mor(f.source)
    assert compose(f, inv) == identity_mor(f.target)


def test_matrix_det_and_inverse_constant():
    ring = RingSpec(("x",), conductor=4)
    i, half = Scalar.i(), Scalar.from_rational(Fraction(1, 2))
    rows = [[Scalar.one(), i], [Scalar.zero(), Scalar.from_rational(2)]]
    assert _laplace_det(rows) == 2
    f = _block_mor(ring, _as_matrix(ring, rows))
    assert is_isomorphism(f)
    assert mat_eq(mor_inverse(f).f0, _as_matrix(ring, [[Scalar.one(), -i * half],
                                                      [Scalar.zero(), half]]))
    _assert_inverts(f)


def _laplace_det(rows):
    """Determinant by cofactor expansion along the first row: the oracle
    for invertibility, which an elimination of [A | I] decides."""
    if len(rows) == 1:
        return rows[0][0]
    acc = Scalar.zero()
    for j, x in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = x * _laplace_det(minor)
        acc = acc - term if j % 2 else acc + term
    return acc


@st.composite
def constant_matrices(draw, min_size=1):
    """(ring, scalar rows) of a square matrix over Q(zeta_m), m in {1, 3, 4}."""
    m = draw(st.sampled_from((1, 3, 4)))
    n = draw(st.integers(min_size, 4))
    degree = {1: 1, 3: 2, 4: 2}[m]
    entry = st.lists(st.integers(-3, 3), min_size=degree, max_size=degree).map(
        lambda cs: sum((Scalar.from_rational(c) * Scalar.zeta(m, k)
                        for k, c in enumerate(cs)), Scalar.zero()))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return RingSpec(("x",), conductor=m), rows


def _as_matrix(ring, rows):
    return tuple(tuple(Poly.constant(ring, x) for x in row) for row in rows)


@settings(max_examples=80, deadline=None)
@given(constant_matrices())
def test_gauss_jordan_matches_laplace_and_inverts(drawn):
    """A constant map is invertible exactly when its Laplace determinant is
    nonzero, and then its inverse composes to the identity on both sides."""
    ring, rows = drawn
    f = _block_mor(ring, _as_matrix(ring, rows))
    invertible = not _laplace_det(rows).is_zero()
    assert is_isomorphism(f) == invertible
    if invertible:
        _assert_inverts(f)
    else:
        assert mor_inverse(f) is None


@settings(max_examples=40, deadline=None)
@given(constant_matrices(min_size=2), st.data())
def test_gauss_jordan_singular_matrix(drawn, data):
    ring, rows = drawn
    n = len(rows)
    i, j = data.draw(st.permutations(range(n)))[:2]
    c = data.draw(st.sampled_from((Scalar.one(), -Scalar.zeta(ring.conductor), Scalar.zero())))
    rows[j] = [c * x for x in rows[i]]
    assert _laplace_det(rows).is_zero()
    f = _block_mor(ring, _as_matrix(ring, rows))
    assert mor_inverse(f) is None
    assert not is_isomorphism(f)


def test_gauss_jordan_rejects_polynomial_and_non_square_input():
    """A block that is not a nonempty square matrix of constants raises
    MFError; f0 is decided before f1 is read, so a singular f0 answers
    first.  An odd map has no even inverse."""
    ring = RingSpec(("x",), conductor=4)
    one, x, zero = Poly.constant(ring, 1), Poly.variable(ring, "x"), Poly.zero(ring)
    polynomial = ((one, x), (zero, one))
    for bad in (polynomial, ((one, one),), ()):
        f = _block_mor(ring, bad)
        for check in (is_isomorphism, mor_inverse):
            with pytest.raises(MFError):
                check(f)
    singular = _block_mor(ring, ((zero,),))
    for f1 in (((x,),), ((zero,),)):
        f = MFMor(singular.source, singular.target, 0, singular.f0, f1)
        assert mor_inverse(f) is None and not is_isomorphism(f)
    f = MFMor(singular.source, singular.target, 0, ((one,),), ((x,),))
    with pytest.raises(MFError):
        is_isomorphism(f)
    odd = diff_mor(rank_one(x, x))
    assert not is_isomorphism(odd)
    assert mor_inverse(odd) is None


def _permutation_mor(ring, perm, scale):
    """The map whose f0 has scale[r] at (r, perm[r]), with its Laplace
    determinant, which is the product of the scales signed by the
    inversions of perm, and the exact inverse block: 1 / scale[r] at
    (perm[r], r)."""
    n = len(perm)
    rows = [[scale[r] if c == perm[r] else Scalar.zero() for c in range(n)] for r in range(n)]
    inverse = [[scale[c].inverse() if r == perm[c] else Scalar.zero() for c in range(n)]
               for r in range(n)]
    inversions = sum(perm[j] > perm[r] for r in range(n) for j in range(r))
    product = math.prod(scale, start=Scalar.one())
    assert _laplace_det(rows) == (-product if inversions % 2 else product)
    return _block_mor(ring, _as_matrix(ring, rows)), _as_matrix(ring, inverse)


def test_scaled_permutation_det_sign_and_inverse():
    """Row r of a permutation matrix finds its lead column at perm[r]; the
    inverse is read off whatever order the leads are found in."""
    ring = RingSpec(("x",), conductor=12)
    for n in range(1, 5):
        for perm in itertools.permutations(range(n)):
            f, inverse = _permutation_mor(ring, perm,
                                          [Scalar.zeta(12, 5 * r + 1) for r in range(n)])
            assert is_isomorphism(f)
            assert mat_eq(mor_inverse(f).f0, inverse)
            _assert_inverts(f)


def test_rational_scaled_permutation_det_sign_and_inverse():
    """The same with signed integer scales, which linalg eliminates on its
    integer lane, where pivot rows are fixed only up to a factor."""
    ring = RingSpec(("x",), conductor=1)
    for n in range(1, 5):
        for perm in itertools.permutations(range(n)):
            f, inverse = _permutation_mor(ring, perm, [Scalar.from_rational((-1) ** r * (r + 2))
                                                       for r in range(n)])
            assert is_isomorphism(f)
            assert mat_eq(mor_inverse(f).f0, inverse)
            _assert_inverts(f)


def test_structure_maps_make_no_public_linalg_calls(monkeypatch):
    """Inverses and closedness run on linalg's private elimination core and
    row products, so a benchmark tracer that wraps the public linalg
    functions sees none of them (and the orientifold checks make no linalg
    calls)."""
    import mfsym.linalg as linalg

    def refuse(*args, **kwargs):
        raise AssertionError("public linalg function called")

    public = [fn for name, fn in vars(linalg).items()
              if callable(fn) and not name.startswith("_")
              and getattr(fn, "__module__", None) == linalg.__name__]
    # every mfsym module is loaded by now (catalog imports them); patch each
    # name a public linalg function is held by, as the tracer does
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("mfsym."):
            for name, value in list(vars(module).items()):
                if any(value is fn for fn in public):
                    monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError):
        linalg.sparse_rank([])
    ring = RingSpec(("x",), conductor=4)
    f = _block_mor(ring, _as_matrix(ring, [[Scalar.one(), Scalar.i()],
                                           [Scalar.from_rational(2), Scalar.zero()]]))
    assert is_isomorphism(f)
    assert is_closed(f)
    _assert_inverts(f)


@st.composite
def drawn_mors(draw, M, N, parity=None, constant=None):
    """A map M -> N of a drawn parity, its entries drawn sums of at most two
    terms of degree at most one (of degree zero where constant), with small
    integer coefficients, so zero entries are common."""
    parity = draw(st.integers(0, 1)) if parity is None else parity
    constant = draw(st.booleans()) if constant is None else constant
    nvars = M.ring.nvars
    exps = [(0,) * nvars] + ([] if constant else
                             [tuple(int(k == j) for k in range(nvars)) for j in range(nvars)])
    blocks = [tuple(tuple(Poly(M.ring, {e: draw(st.integers(-2, 2)) for e in
                                        draw(st.lists(st.sampled_from(exps), max_size=2))})
                          for _ in range(cols)) for _ in range(rows))
              for rows, cols in _block_shapes(M, N, parity)]
    return MFMor(M, N, parity, *blocks)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_SMALL_CATALOG), st.data())
def test_is_closed_matches_hom_diff(M, data):
    """is_closed and hom_diff read one kernel of sparse-row products; both
    agree with D built from the tests' own matrix product, on drawn maps of
    both parities, constant and not, closed (boundaries, scaled identities
    with equal scales, the grading iso) and not."""
    kind = data.draw(st.sampled_from(("drawn", "boundary", "scaled", "grading")))
    if kind == "drawn":
        f = data.draw(drawn_mors(M, M))
    elif kind == "boundary":
        f = hom_diff_reference(data.draw(drawn_mors(M, M)))
        assert is_closed(f)
    else:
        N = M if kind == "scaled" else negate_mf(M)
        a, b = (Scalar.from_rational(data.draw(st.integers(-2, 2))) for _ in range(2))
        f = scaled_identity(M, N, a, data.draw(st.sampled_from((a, -a, b))))
    if data.draw(st.booleans()):
        f = mor_add(f, data.draw(drawn_mors(f.source, f.target, f.parity, constant=True)))
    boundary = hom_diff_reference(f)
    assert hom_diff(f) == boundary
    assert is_closed(f) == all(p.is_zero() for blk in (boundary.f0, boundary.f1)
                               for row in blk for p in row)


_BAD_MOR = """
import sys
sys.path[:0] = sys.argv[1:]
from mfsym.catalog import an_rank_one
from mfsym.mf import (
    MFError, MFMor, compose, diff_mor, equation, external_tensor, identity_mor, rank_one)
from mfsym.polys import Poly, RingSpec
M = an_rank_one(2)
ident = identity_mor(M)
yz = RingSpec(("y", "z"))
# ranks (2, 2): the blocks of its identity do not compose with ident's
wide = external_tensor(M, rank_one(Poly.variable(yz, "y"), Poly.variable(yz, "z")))
blocks = (ident.f0, ident.f1)
bad = {
    "f0 shape": lambda: MFMor(M, M, 0, (), ident.f1),
    "f1 shape": lambda: MFMor(M, M, 0, ident.f0, ()),
    "matrix product shapes": lambda: compose(identity_mor(wide), ident),
    "short matrix product": lambda: compose(ident, identity_mor(wide)),
    "equation of parities": lambda: equation("e", (), ident, diff_mor(M)),
    # the rows the two sides share are equal
    "equation of block shapes": lambda: equation("e", (), blocks,
                                                 (ident.f0 + ident.f0, ident.f1)),
    "equation of block counts": lambda: equation("e", (), blocks, (ident.f0,)),
}
for name, build in bad.items():
    try:
        build()
    except MFError:
        continue
    sys.exit(f"no MFError for {name}")
"""


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_bad_morphism_raises_mf_error_without_asserts(optimize):
    src_dir = Path(__file__).resolve().parent.parent / "src"
    flags = ["-O"] if optimize else []
    run = subprocess.run([sys.executable, *flags, "-c", _BAD_MOR, str(src_dir)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
