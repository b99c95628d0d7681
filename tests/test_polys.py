"""Sparse polynomial arithmetic and ring maps."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mfsym.scalars import Scalar
from mfsym.polys import (
    Poly, RingSpec, RingMap, apply_ring_map, jacobi_basis,
)


RING = RingSpec(("x", "y"), conductor=4)
X = Poly.variable(RING, "x")
Y = Poly.variable(RING, "y")


def test_arithmetic_basics():
    p = (X + Y) * (X - Y)
    assert p == X * X - Y * Y
    assert (X + 1) ** 2 == X * X + 2 * X + 1
    assert (X - X).is_zero()
    assert Poly.constant(RING, 5).is_constant()
    assert not X.is_constant()
    assert (X * Y + X).total_degree() == 2


def test_scalar_coefficients():
    i = Scalar.i()
    p = X * i
    assert p * p == -(X * X)
    assert p.conjugate_coeffs() == X * (-i)


def test_partial_derivatives():
    w = X ** 3 + X * Y
    assert w.partial(0) == 3 * X * X + Y
    assert w.partial(1) == X


def test_ring_map_application():
    rm = RingMap((Y, -X), False)
    assert apply_ring_map(rm, X * Y) == -(X * Y)
    assert apply_ring_map(rm, X ** 2) == Y ** 2
    anti = RingMap((X, Y), True)
    assert apply_ring_map(anti, X * Scalar.i()) == X * (-Scalar.i())
    # cancelling terms leave no zero behind: inside one monomial's image,
    # and across the images of different monomials
    image = apply_ring_map(RingMap((X + Y, X - Y), False), X * Y)
    assert image == X * X - Y * Y and set(image.terms) == {(2, 0), (0, 2)}
    image = apply_ring_map(RingMap((X + Y, Y), False), X - Y)
    assert image == X and set(image.terms) == {(1, 0)}


def test_ring_map_composition():
    a = RingMap((Y, X), False)
    b = RingMap((-X, Y), False)
    ab = a.compose(b)
    for p in (X, Y, X * Y + X ** 2):
        assert apply_ring_map(ab, p) == apply_ring_map(a, apply_ring_map(b, p))


def test_antilinear_composition_conjugates():
    c = RingMap((X, Y), True)
    assert c.compose(c) == RingMap.identity(RING)
    rm = RingMap((X * Scalar.i(), Y), False)
    both = c.compose(rm)
    assert apply_ring_map(both, X) == X * (-Scalar.i())


def test_ring_maps_with_more_images_differ():
    assert RingMap((X,)) != RingMap((X, Y))
    assert RingMap((X, Y)) != RingMap((X,))


def test_jacobi_basis_a_series():
    Rx = RingSpec(("x",))
    x = Poly.variable(Rx, "x")
    basis, socle = jacobi_basis(x ** 4)
    # k[x]/(x^3) has monomial basis 1, x, x^2
    assert len(basis) == 3
    assert socle == 2


def test_mismatched_rings_rejected():
    other = RingSpec(("z",))
    with pytest.raises((ValueError, AssertionError, KeyError)):
        X + Poly.variable(other, "z")


_BAD_ARITHMETIC = """
import sys
sys.path[:0] = sys.argv[1:]
from mfsym.polys import Poly, RingSpec
x = Poly.variable(RingSpec(("x",)), "x")
y = Poly.variable(RingSpec(("y",)), "y")
bad = {
    "x + y": lambda: x + y,
    "x - y": lambda: x - y,
    "x * y": lambda: x * y,
    "negative power": lambda: x ** -1,
    "exponent length": lambda: Poly(x.ring, {(1, 0): 1}),
}
for name, build in bad.items():
    try:
        build()
    except ValueError:
        continue
    sys.exit(f"no ValueError for {name}")
"""


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_bad_arithmetic_raises_value_error_without_asserts(optimize):
    """Before these checks, x + y gave 2x, x - y gave 0 and, under -O,
    x * y gave x^2 for x and y over different rings."""
    src_dir = Path(__file__).resolve().parent.parent / "src"
    flags = ["-O"] if optimize else []
    run = subprocess.run([sys.executable, *flags, "-c", _BAD_ARITHMETIC, str(src_dir)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


# Fast paths against slow ones.  Arithmetic results and ring-map images are
# built without the normalizing pass of Poly(...); here they are checked
# against it, and apply_ring_map's memoized substitution against a plain
# one on term dicts that uses no Poly arithmetic.

def _coefficients(ring):
    """Small a + b*zeta, zero included, so sums cancel often."""
    zeta = Scalar.zeta(ring.conductor)
    return st.tuples(st.integers(-2, 2), st.integers(-1, 1)).map(
        lambda ab: Scalar.from_rational(ab[0]) + zeta * ab[1])


def _polys(ring, max_degree=2, max_terms=4):
    exponent = st.tuples(*[st.integers(0, max_degree)] * ring.nvars)
    return st.dictionaries(exponent, _coefficients(ring), max_size=max_terms).map(
        lambda terms: Poly(ring, terms))


_RINGS = st.sampled_from([RingSpec(("x",), 4), RING, RingSpec(("x", "y", "z"), 3)])


def _assert_normal(p):
    """p is what public Poly(...) makes of its own terms."""
    assert p == Poly(p.ring, dict(p.terms))
    assert all(isinstance(c, Scalar) and not c.is_zero() for c in p.terms.values())
    assert all(len(e) == p.ring.nvars for e in p.terms)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_arithmetic_results_are_normal(data):
    ring = data.draw(_RINGS)
    p, q = data.draw(_polys(ring)), data.draw(_polys(ring))
    c = data.draw(_coefficients(ring))
    results = [p + q, p - q, q - p, p + (-p), p - p, -p, p * q, (p + q) * (p - q),
               p * c, c * p, p * 0, p * Fraction(1, 2), 3 * p, p + 1, 1 - p,
               p.conjugate_coeffs(), p ** 2, Poly.zero(ring)]
    for r in results:
        _assert_normal(r)
    assert (p + (-p)).is_zero() and (p - p).is_zero() and (p * 0).is_zero()


def _substitute(rm, p):
    """rm applied to p on plain term dicts, one image factor at a time."""
    ring = rm.images[0].ring
    total = {}
    for e, c in p.terms.items():
        term = {(0,) * ring.nvars: c.conjugate() if rm.antilinear else c}
        for img, k in zip(rm.images, e):
            for _ in range(k):
                product = {}
                for e1, c1 in term.items():
                    for e2, c2 in img.terms.items():
                        e12 = tuple(a + b for a, b in zip(e1, e2))
                        product[e12] = product.get(e12, Scalar.zero()) + c1 * c2
                term = product
        for e2, c2 in term.items():
            total[e2] = total.get(e2, Scalar.zero()) + c2
    return Poly(ring, total)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_apply_ring_map_matches_plain_substitution(data):
    ring = data.draw(_RINGS)
    linear = data.draw(st.booleans())
    images = st.tuples(*[_polys(ring, max_degree=1 if linear else 2, max_terms=3)]
                       * ring.nvars)
    rm = RingMap(data.draw(images), data.draw(st.booleans()))
    for p in data.draw(st.lists(_polys(ring, max_degree=3), min_size=1, max_size=4)):
        for _ in range(2):  # the second application reads the memo
            got = apply_ring_map(rm, p)
            assert got == _substitute(rm, p)
            _assert_normal(got)


def test_ring_map_memo_is_shared_by_repeated_calls_and_not_aliased():
    rm = RingMap((X + Y, X * Scalar.i()), True)
    p = X ** 2 * Y + Scalar.i() * Y ** 2
    first = apply_ring_map(rm, p)
    memo = dict(rm._monomial_images)
    assert (2, 1) in memo and (0, 2) in memo
    second = apply_ring_map(rm, p)
    assert second == first and second.terms is not first.terms
    assert rm._monomial_images == memo
    assert all(first.terms is not image.terms for image in memo.values())


def test_ring_map_memo_is_not_part_of_equality_or_repr():
    used, fresh = RingMap((Y, -X), False), RingMap((Y, -X), False)
    apply_ring_map(used, X ** 3 * Y + X)
    assert used._monomial_images and not fresh._monomial_images
    assert used == fresh
    assert repr(used) == repr(fresh)
