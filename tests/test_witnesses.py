"""The unit-scalar witness search: which components it finds, and the
candidate families it enumerates."""

import pytest

from mfsym.scalars import Scalar
from mfsym.polys import Poly, RingSpec
from mfsym.mf import rank_one, identity_mor, scaled_identity, scaled_witnesses
from mfsym.orientifold import rank_one_contra_condition
import mfsym.catalog as catalog

from test_orientifold import c2_shifted_rep, c4_plain_rep, c2xc2_shifted_rep


def _constants(f):
    """The (f0, f1) scalars of a rank-one component a*id (+) b*id."""
    assert f.source.ranks == (1, 1)
    zero = (0,) * f.source.ring.nvars
    (e0, a), = f.f0[0][0].terms.items()
    (e1, b), = f.f1[0][0].terms.items()
    assert e0 == e1 == zero
    return a, b


Z3 = Scalar.zeta(3, 1)
Z3SQ = Scalar.zeta(3, 2)

# components u_0, u_1, ... as found before the two searches were merged
PINNED_CONTRA = {
    "c2-shifted": (c2_shifted_rep, [(1, 1), (1, -1)]),
    "c4-plain": (c4_plain_rep, [(1, 1), (1, -1), (1, -1), (1, 1)]),
    "c2xc2-shifted": (c2xc2_shifted_rep, [(1, 1), (1, 1), (1, -1), (1, -1)]),
}


def test_dihedral_cubic_line_witness_is_pinned():
    s = dict(catalog.real_catalog())["dihedral-cubic-line"]
    want = [(1, 1), (1, Z3), (1, Z3SQ), (1, 1), (1, Z3SQ), (1, Z3)]
    assert [_constants(f) for f in s.u] == want


@pytest.mark.parametrize("name", sorted(PINNED_CONTRA))
def test_contravariant_witness_is_pinned(name):
    make, pairs = PINNED_CONTRA[name]
    _, s = rank_one_contra_condition(make())
    assert sorted(s.u) == list(range(len(pairs)))
    assert [_constants(s.u[i]) for i in sorted(s.u)] == pairs


RING = RingSpec(("u", "v"), conductor=4)
U, V = Poly.variable(RING, "u"), Poly.variable(RING, "v")


def test_scaled_witnesses_enumerates_closed_families_in_product_order():
    base = rank_one(U, V)
    flipped = rank_one(-U, -V)
    units = (Scalar.one(), -Scalar.one())
    got = list(scaled_witnesses(base, [base, flipped, base], 0, units))
    # b is forced: a for the base itself, -a for the flipped signs
    want = [(identity_mor(base), scaled_identity(base, flipped, a, -a),
             scaled_identity(base, base, c, c)) for a in units for c in units]
    assert got == want


def test_scaled_witnesses_yields_nothing_without_a_closed_candidate():
    base = rank_one(U, V)
    swapped = rank_one(V, U)
    units = (Scalar.one(), -Scalar.one(), Scalar.i(), -Scalar.i())
    assert list(scaled_witnesses(base, [base, swapped], 0, units)) == []
