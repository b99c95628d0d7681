"""The window operator against the slow path through the MFMor algebra.

For a drawn window morphism f, the operator's image of f's coordinates
must equal the coordinates of hom_diff(f), and of the Real residual
u'_sigma . f - f^sigma . u_sigma computed with compose and twist_mor.
"""

from functools import cache

from hypothesis import given, settings, strategies as st

from mfsym.scalars import Scalar, euler_phi
from mfsym.mf import (
    compose, diff_mor, hom_diff, mor_coordinates, mor_from_coordinates,
    window_monomials, window_operator, window_slots,
)
from mfsym.groups import twist_mor
from mfsym.real import _field_conductor
import mfsym.catalog as catalog


@cache
def _mf_catalog():
    return catalog.mf_catalog()


@cache
def _real_catalog():
    return catalog.real_catalog()


def _draw_window_mor(data, M, N, L):
    """f: M -> N with a few terms a + b*zeta_L, small a and b, on a window."""
    parity = data.draw(st.integers(0, 1))
    monomials = window_monomials(M.ring.nvars, data.draw(st.integers(0, 2)))
    zeta = Scalar.zeta(L)
    coeff = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda ab: Scalar.from_rational(ab[0]) + zeta * ab[1])
    picks = data.draw(st.lists(
        st.tuples(st.sampled_from(window_slots(M, N, parity, monomials)), coeff),
        min_size=1, max_size=6))
    coords = {slot[:4]: c for slot, c in picks if not c.is_zero()}
    return mor_from_coordinates(M, N, parity, coords), monomials


def _operator_image(f, monomials, L, left, right, twist=None):
    """The operator applied to f's coordinates over the power basis of Q(zeta_L)."""
    basis = [Scalar.zeta(L, t) for t in range(euler_phi(L))]
    slots = window_slots(f.source, f.target, f.parity, monomials, len(basis))
    column = dict(zip(slots, window_operator(left, right, f.parity, monomials, twist, basis)))
    image = {}
    for key, c in mor_coordinates(f).items():
        for t, q in enumerate(c.promote(L).coeffs):
            for k, v in column[(*key, t)].items():
                image[k] = image.get(k, Scalar.zero()) + v * q
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
    image = _operator_image(f, monomials, L, diff_mor(N), diff_mor(M))
    assert image == mor_coordinates(hom_diff(f))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_operator_matches_real_residual(data):
    s = data.draw(st.sampled_from(_real_catalog()))[1]
    sigma = data.draw(st.sampled_from(list(s.group.elements())))
    L = _field_conductor(s)
    f, monomials = _draw_window_mor(data, s.base, s.base, L)
    rm = s.action.map_of(sigma)
    image = _operator_image(f, monomials, L, s.u[sigma], s.u[sigma], rm)
    slow = compose(s.u[sigma], f) - compose(twist_mor(rm, f), s.u[sigma])
    assert image == mor_coordinates(slow)
