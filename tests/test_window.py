"""The window operator against the slow path through the MFMor algebra.

For a drawn window morphism f, the operator's image of f's coordinates
must equal the coordinates of hom_diff(f), and of the Real residual
u'_sigma . f - f^sigma . u_sigma computed with compose and twist_mor.
The image is the sum of f's coefficients times the columns, which holds
over Q(zeta_L) unless sigma is antilinear; there the operator is only
Q-linear, and f is drawn with rational coefficients.
Its column lists must also equal those of a per-slot builder kept here,
which computes every column afresh, one Scalar product per term.
"""

from functools import cache

from hypothesis import given, settings, strategies as st

from mfsym import scalars
from mfsym.scalars import Scalar
from mfsym.polys import Poly, RingSpec, apply_ring_map
from mfsym.mf import (
    compose, diff_mor, external_tensor, hom_diff, rank_one, window_monomials,
    window_operator, window_slots,
)
from mfsym.real import _field_conductor
import mfsym.catalog as catalog
from oracles import mor_add, mor_coordinates, mor_from_coordinates, twist_mor


@cache
def _mf_catalog():
    return catalog.mf_catalog()


@cache
def _real_catalog():
    return catalog.real_catalog()


def _a_series(n, k):
    ring = RingSpec(("x",), conductor=1)
    x = Poly.variable(ring, "x")
    return rank_one(x ** k, x ** (n - k))


@cache
def _knorrer_pair(n, k, j):
    """(A_n pair k, A_n pair j), each tensored with the hyperbolic kernel (y, z)."""
    ryz = RingSpec(("y", "z"), conductor=1)
    K = rank_one(Poly.variable(ryz, "y"), Poly.variable(ryz, "z"))
    return external_tensor(_a_series(n, k), K), external_tensor(_a_series(n, j), K)


def _slot_builder(left, right, parity, monomials, twist=None):
    """window_operator as it was built before its columns were shifted:
    each slot's column computed anew, every value multiplied per monomial."""
    M, N = right.source, left.source
    q = right.parity
    sign = 1 if parity * q % 2 else -1
    one = Scalar.one()
    if twist is None:
        twisted = {m: {m: one} for m in monomials}
    else:
        twisted = {m: apply_ring_map(twist, Poly(M.ring, {m: one})).terms
                   for m in monomials}

    def add(e, m):
        return tuple(x + y for x, y in zip(e, m))

    columns = []
    for b, r, c, m in window_slots(M, N, parity, monomials):
        out = (b + q) % 2
        shifted = [(e1, sign * v1) for e1, v1 in twisted[m].items()]
        terms = [((b, i, c, add(e, m)), v)
                 for i, row in enumerate(left.block((b + parity) % 2))
                 for e, v in row[r].terms.items()]
        terms += [((out, r, j, add(e1, e2)), v1 * v2)
                  for j, p in enumerate(right.block(out)[c])
                  for e2, v2 in p.terms.items()
                  for e1, v1 in shifted]
        col: dict = {}
        for key, val in terms:
            col[key] = col[key] + val if key in col else val
        columns.append({k: v for k, v in col.items() if not v.is_zero()})
    return columns


def _draw_window_mor(data, M, N, L, rational=False):
    """f: M -> N with a few terms a + b*zeta_L, small a and b (b = 0 when
    rational), on a window."""
    parity = data.draw(st.integers(0, 1))
    monomials = window_monomials(M.ring.nvars, data.draw(st.integers(0, 4)))
    zeta = Scalar.zeta(L)
    b = st.just(0) if rational else st.integers(-3, 3)
    coeff = st.tuples(st.integers(-3, 3), b).map(
        lambda ab: Scalar.from_rational(ab[0]) + zeta * ab[1])
    picks = data.draw(st.lists(
        st.tuples(st.sampled_from(window_slots(M, N, parity, monomials)), coeff),
        min_size=1, max_size=6))
    coords = {slot[:4]: c for slot, c in picks if not c.is_zero()}
    return mor_from_coordinates(M, N, parity, coords), monomials


def _operator_image(f, monomials, left, right, twist=None):
    """The operator applied to f's coordinates: each coefficient times its
    unknown's column, summed; the column list must equal the per-slot
    builder's."""
    slots = window_slots(f.source, f.target, f.parity, monomials)
    columns = window_operator(left, right, f.parity, monomials, twist)
    assert columns == _slot_builder(left, right, f.parity, monomials, twist)
    column = dict(zip(slots, columns))
    image = {}
    for key, c in mor_coordinates(f).items():
        for k, v in column[key].items():
            image[k] = image.get(k, Scalar.zero()) + v * c
    return {k: v for k, v in image.items() if not v.is_zero()}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_operator_matches_hom_diff(data):
    entries = _mf_catalog()
    M = data.draw(st.sampled_from(entries))[1]
    N = data.draw(st.sampled_from(
        [N for _, N in entries if N.ring.variables == M.ring.variables and N.w == M.w]))
    L = 4 * M.ring.conductor
    f, monomials = _draw_window_mor(data, M, N, L)
    image = _operator_image(f, monomials, diff_mor(N), diff_mor(M))
    assert image == mor_coordinates(hom_diff(f))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_operator_matches_hom_diff_on_knorrer_images(data):
    """The hom-cohomology workload's slowest shape: an A-series pair
    tensored with (y, z), three variables, rank (2, 2)."""
    n = data.draw(st.integers(2, 5))
    M, N = _knorrer_pair(n, data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, n - 1)))
    f, monomials = _draw_window_mor(data, M, N, 4)
    image = _operator_image(f, monomials, diff_mor(N), diff_mor(M))
    assert image == mor_coordinates(hom_diff(f))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_operator_matches_real_residual(data):
    s = data.draw(st.sampled_from(_real_catalog()))[1]
    sigma = data.draw(st.sampled_from(list(s.group.elements())))
    rm = s.action.map_of(sigma)
    f, monomials = _draw_window_mor(data, s.base, s.base, _field_conductor(s), rm.antilinear)
    image = _operator_image(f, monomials, s.u[sigma], s.u[sigma], rm)
    slow = mor_add(compose(s.u[sigma], f), compose(twist_mor(rm, f), s.u[sigma]), -1)
    assert image == mor_coordinates(slow)


def test_untwisted_operator_multiplies_per_entry_not_per_monomial(monkeypatch):
    """With no twist, every column is a shift of its block entry's values,
    taken as they are or negated: no Scalar product at any window size."""
    M, N = _knorrer_pair(3, 1, 2)
    mul = scalars._mul

    def count(cutoff):
        n = 0

        def counting_mul(a, b):
            nonlocal n
            n += 1
            return mul(a, b)

        monkeypatch.setattr(scalars, "_mul", counting_mul)
        window_operator(diff_mor(N), diff_mor(M), 0, window_monomials(M.ring.nvars, cutoff))
        monkeypatch.setattr(scalars, "_mul", mul)
        return n

    products = {cutoff: count(cutoff) for cutoff in (2, 6)}
    assert products[2] == products[6] == 0
