"""Sparse polynomial arithmetic and ring maps."""

import subprocess
import sys
from pathlib import Path

import pytest

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
