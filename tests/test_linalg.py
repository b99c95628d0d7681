"""The one sparse elimination against sympy over Q, and by substitution
over Q(zeta_m): rank on drawn matrices whose kernels are not spanned by
unit vectors, and the rank profile of an elimination continued chunk by
chunk.  Its integer lane (rational rows)
is checked against its Scalar lane (the same rows scaled by units).  Rows
of one or two entries and repeated rows, rational or over Q(zeta_8), check
that the rank ignores row order and that one-entry pivots, which clear by
deleting a key, keep the rank profile, against sympy over Q(zeta_8)."""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from mfsym.scalars import Scalar
from mfsym.linalg import _ratio, sparse_echelon, sparse_rank


@st.composite
def sparse_rows(draw, entry, zero, max_width=6, max_rows=5):
    """(width, rows) of a sparse matrix with up to max_width columns and
    max_rows rows, plus a dense right-hand side column."""
    width = draw(st.integers(1, max_width))
    nrows = draw(st.integers(0, max_rows))
    dense = [[draw(entry) for _ in range(width + 1)] for _ in range(nrows)]
    rows = [{j: x for j, x in enumerate(row) if not x == zero} for row in dense]
    return width, rows


rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
                      ).map(Scalar.from_rational)


def _sympy(width, rows, cols):
    return sympy.Matrix(len(rows), cols, lambda r, c: sympy.Rational(
        rows[r][c].as_fraction()) if rows and c in rows[r] else 0)


def _without(rows, col):
    return [{k: v for k, v in row.items() if k != col} for row in rows]


@settings(max_examples=150, deadline=None)
@given(sparse_rows(rationals, Scalar.zero()))
def test_fraction_elimination_matches_sympy(drawn):
    _check_against_sympy(*drawn)


def _check_against_sympy(width, rows):
    """The rank of the coefficient rows and of the augmented rows against
    sympy."""
    assert sparse_rank(_without(rows, width)) == _sympy(width, rows, width).rank()
    assert sparse_rank(rows) == _sympy(width, rows, width + 1).rank()


def _scalars(m):
    degree = {1: 1, 3: 2, 4: 2}[m]
    return st.lists(st.integers(-2, 2), min_size=degree, max_size=degree).map(
        lambda cs: sum((Scalar.from_rational(c) * Scalar.zeta(m, k)
                        for k, c in enumerate(cs)), Scalar.zero()))


def _apply(row, vec):
    return sum((c * vec[j] for j, c in row.items()), Scalar.zero())


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((1, 3, 4)).flatmap(
    lambda m: st.tuples(sparse_rows(_scalars(m), Scalar.zero()),
                        st.lists(_scalars(m), min_size=6, max_size=6))))
def test_scalar_elimination_by_substitution(drawn):
    """A column that is a combination of the others, with the drawn
    coefficients x0, adds no rank."""
    (width, rows), x0 = drawn
    coeffs = _without(rows, width)
    consistent = []
    for row in coeffs:
        b = -_apply(row, x0)
        consistent.append(row if b.is_zero() else {**row, width: b})
    assert sparse_rank(consistent) == sparse_rank(coeffs)


@settings(max_examples=150, deadline=None)
@given(sparse_rows(rationals, Scalar.zero()), st.lists(st.integers(0, 3), max_size=5))
def test_continued_elimination_reads_every_leading_rank(drawn, cuts):
    """After each chunk, the pivots of the continued elimination count the
    rank of the rows so far, and those on keys below k the rank of their
    projection onto those keys, for every k: against sparse_rank and
    against sympy."""
    width, rows = drawn
    pivots, pushed = {}, []
    for size in cuts + [len(rows)]:
        chunk = rows[len(pushed):len(pushed) + size]
        pushed += chunk
        assert sparse_echelon(chunk, pivots) is pivots
        assert len(pivots) == sparse_rank(pushed) == _sympy(width, pushed, width + 1).rank()
        for k in range(width + 2):
            below = [{j: v for j, v in row.items() if j < k} for row in pushed]
            want = _sympy(width, below, width + 1).rank()
            assert sum(1 for lead in pivots if lead < k) == sparse_rank(below) == want


def test_explicit_zero_values_are_dropped():
    """A zero value is no entry, on either lane: it neither leads a row
    nor is inverted."""
    zero, one, z = Scalar.zero(), Scalar.one(), Scalar.zeta(3)
    assert sparse_rank([{0: zero, 1: one}, {1: one}]) == 1
    assert sparse_rank([{0: zero * z, 1: z}, {1: z}]) == 1


def _same_line(a, b):
    """Two pivot dicts with the same keys whose rows agree up to their
    factors, read through _ratio."""
    return a.keys() == b.keys() and all(
        a[lead].keys() == b[lead].keys()
        and all(_ratio(a[lead][k], a[lead][lead]) == _ratio(b[lead][k], b[lead][lead])
                for k in a[lead])
        for lead in a)


def _unit_scaled(rows, powers):
    """Each row times zeta_3^k, a non-rational unit, which puts the rows on
    the Scalar lane without moving their lines."""
    return [{j: v * Scalar.zeta(3, k) for j, v in row.items()}
            for row, k in zip(rows, powers)]


def _on_integers(pivots):
    return all(v.__class__ is int for row in pivots.values() for v in row.values())


@settings(max_examples=80, deadline=None)
@given(sparse_rows(rationals, Scalar.zero()), st.lists(st.integers(1, 2), min_size=5, max_size=5))
def test_integer_lane_matches_the_scalar_lane(drawn, powers):
    width, rows = drawn
    on_ints = sparse_echelon(rows)
    assert _on_integers(on_ints)
    assert _same_line(on_ints, sparse_echelon(_unit_scaled(rows, powers)))


wide_rationals = st.one_of(st.just(Fraction(0)), st.builds(
    Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 50))).map(Scalar.from_rational)


@settings(max_examples=30, deadline=None)
@given(sparse_rows(wide_rationals, Scalar.zero(), max_width=12, max_rows=10))
def test_wide_integer_rows_match_sympy(drawn):
    """Numerators up to 10^6 over denominators up to 50."""
    _check_against_sympy(*drawn)


@settings(max_examples=60, deadline=None)
@given(sparse_rows(rationals, Scalar.zero()),
       st.lists(st.lists(_scalars(3), min_size=7, max_size=7), max_size=3),
       st.lists(st.integers(1, 2), min_size=5, max_size=5))
def test_continued_elimination_leaves_the_integer_lane_once(drawn, dense, powers):
    """A rational chunk, then a cyclotomic one: the integer pivots move to
    the Scalar lane once and the run ends where the all-Scalar run does."""
    width, rows = drawn
    later = [{j: x for j, x in enumerate(row[:width + 1]) if not x.is_zero()}
             for row in dense] + [{width: Scalar.zeta(3)}]
    pivots = sparse_echelon(rows)
    reference = sparse_echelon(_unit_scaled(rows, powers))
    assert _same_line(pivots, reference)
    assert sparse_echelon(later, pivots) is pivots
    assert not any(v.__class__ is int for row in pivots.values() for v in row.values())
    assert _same_line(pivots, sparse_echelon(later, reference))


_Q8 = sympy.QQ.algebraic_field((1 + sympy.I) * sympy.sqrt(2) / 2)
_ZETA8 = _Q8.from_sympy((1 + sympy.I) * sympy.sqrt(2) / 2)


def _in_q8(v):
    """A Scalar of conductor 1, 4 or 8 as an element of sympy's Q(zeta_8)."""
    z = _ZETA8 ** (8 // v.conductor)
    return sum((_Q8.from_sympy(sympy.Rational(c.numerator, c.denominator)) * z ** k
                for k, c in enumerate(v.coeffs)), _Q8.zero)


def _q8_rank(width, rows):
    return DomainMatrix([[_in_q8(row[c]) if c in row else _Q8.zero for c in range(width)]
                         for row in rows], (len(rows), width), _Q8).rank()


@st.composite
def structured_rows(draw):
    """(width, rows) of the shapes structured elimination meets: rows of one
    entry, rows of two, repeats of an earlier row, and rows of any length,
    with rational values or, on the Scalar lane, values times i or zeta_8."""
    unit = draw(st.sampled_from((Scalar.one(), Scalar.i(), Scalar.zeta(8))))
    values = st.builds(lambda n, d, k: Scalar.from_rational(Fraction(n, d)) * unit ** k,
                       st.integers(-3, 3).filter(bool), st.integers(1, 3), st.integers(0, 3))
    width = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        size = draw(st.sampled_from((1, 1, 2, 2, None, "repeat")))
        if size == "repeat" and rows:
            rows.append(dict(draw(st.sampled_from(rows))))
            continue
        size = min(width, draw(st.integers(0, width)) if size in (None, "repeat") else size)
        cols = draw(st.lists(st.integers(0, width - 1), min_size=size, max_size=size,
                             unique=True))
        rows.append({c: draw(values) for c in cols})
    return width, rows


@settings(max_examples=150, deadline=None)
@given(structured_rows(), st.randoms(use_true_random=False))
def test_rank_ignores_row_order(drawn, rnd):
    """sparse_rank on the rows as drawn and shuffled, against sympy over
    Q(zeta_8)."""
    width, rows = drawn
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert sparse_rank(rows) == sparse_rank(shuffled) == _q8_rank(width, rows)


@settings(max_examples=100, deadline=None)
@given(structured_rows(), st.lists(st.integers(0, 3), max_size=5))
def test_one_entry_pivots_keep_every_leading_rank(drawn, cuts):
    """An elimination continued chunk by chunk on rows whose one-entry pivots
    clear by deleting keys still reads the rank of every leading column
    block off its pivots, against sympy over Q(zeta_8)."""
    width, rows = drawn
    pivots, pushed = {}, []
    for size in cuts + [len(rows)]:
        chunk = rows[len(pushed):len(pushed) + size]
        pushed += chunk
        sparse_echelon(chunk, pivots)
        for k in range(1, width + 1):
            below = [{j: v for j, v in row.items() if j < k} for row in pushed]
            assert sum(1 for lead in pivots if lead < k) == _q8_rank(k, below)
