"""Exact cyclotomic scalar arithmetic."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from mfsym.scalars import Scalar, euler_phi, cyclotomic_poly
from mfsym.cli import MAX_CONDUCTOR


rationals = st.builds(
    Fraction,
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=12),
)


def scalars(conductor):
    deg = euler_phi(conductor)
    return st.lists(rationals, min_size=deg, max_size=deg).map(
        lambda coeffs: sum(
            (Scalar.from_rational(c) * Scalar.zeta(conductor, k)
             for k, c in enumerate(coeffs)),
            Scalar.zero(),
        )
    )


def test_phi_and_cyclotomic_basics():
    assert euler_phi(1) == 1
    assert euler_phi(4) == 2
    assert euler_phi(8) == 4
    assert euler_phi(12) == 4
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)


def test_cyclotomic_poly_matches_sympy_at_every_admitted_conductor():
    x = sympy.Symbol("x")
    for m in range(1, MAX_CONDUCTOR + 1):
        want = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert cyclotomic_poly(m) == tuple(want), m


def test_roots_of_unity():
    i = Scalar.i()
    assert i * i == Scalar.from_rational(-1)
    for m in (2, 3, 4, 5, 6, 8, 12):
        z = Scalar.zeta(m)
        assert z ** m == Scalar.one()
        if m > 1:
            assert not z ** 1 == Scalar.one() or m == 1
    assert Scalar.zeta(8) ** 2 == Scalar.i()


def test_promotion_mixes_conductors():
    z3 = Scalar.zeta(3)
    i = Scalar.i()
    prod = z3 * i
    assert prod ** 12 == Scalar.one()
    assert z3 + i - i == z3


@settings(max_examples=60, deadline=None)
@given(scalars(8), scalars(8), scalars(8))
def test_field_axioms_conductor_8(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Scalar.zero() == a
    assert a * Scalar.one() == a
    assert a - a == Scalar.zero()


@settings(max_examples=60, deadline=None)
@given(scalars(8))
def test_inverse_and_conjugation(a):
    if not a.is_zero():
        assert a * a.inverse() == Scalar.one()
    assert a.conjugate().conjugate() == a
    norm = a * a.conjugate()
    assert norm.conjugate() == norm


def test_conjugate_is_a_field_map():
    a = Scalar.zeta(8) + Scalar.from_rational(Fraction(1, 3))
    b = Scalar.zeta(8, 3) - Scalar.i()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert Scalar.i().conjugate() == -Scalar.i()


def test_rational_detection():
    assert Scalar.from_rational(Fraction(3, 7)).as_fraction() == Fraction(3, 7)
    z = Scalar.zeta(4)
    assert (z * z).as_fraction() == -1
    with pytest.raises(ValueError):
        z.as_fraction()


def test_bad_construction_raises_without_asserts():
    code = ("import sys; sys.path[:0] = sys.argv[1:]\n"
            "from mfsym.scalars import Scalar\n"
            "for bad in (lambda: Scalar(4, (1,)), lambda: Scalar.i().promote(6)):\n"
            "    try:\n"
            "        bad()\n"
            "    except ValueError:\n"
            "        continue\n"
            "    sys.exit(1)\n")
    src_dir = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run([sys.executable, "-O", "-c", code, str(src_dir)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_bad_conductors_raise_value_error():
    for m in (0, -3):
        with pytest.raises(ValueError):
            Scalar.zeta(m)
        with pytest.raises(ValueError):
            Scalar(m, ())
    with pytest.raises(ValueError):
        Scalar.one().promote(0)


# ---------------------------------------------------------------------------
# an independent oracle: every conductor drawn below divides N, so each value
# is a polynomial in zeta_N reduced modulo sympy's N-th cyclotomic polynomial

CONDUCTORS = (1, 2, 3, 4, 5, 8, 12)
N = 120
X = sympy.Symbol("x")


def _phi(m):
    return sympy.Poly(sympy.cyclotomic_poly(m, X), X, domain="QQ")


PHI_N = _phi(N)


def _oracle(coeffs, m, L=N, sign=1):
    """sum coeffs[k] * zeta_m^(sign*k) as a polynomial in zeta_L, reduced."""
    step = L // m
    terms = {}
    for k, c in enumerate(coeffs):
        e = (sign * k * step % L,)
        terms[e] = terms.get(e, 0) + sympy.Rational(c.numerator, c.denominator)
    return sympy.Poly.from_dict(terms, X, domain="QQ").rem(_phi(L))


def _coeffs_of(poly, m):
    """The power-basis coefficients of a reduced polynomial in zeta_m."""
    out = [Fraction(0)] * euler_phi(m)
    for (e,), c in poly.as_dict().items():
        out[e] = Fraction(int(c.p), int(c.q))
    return tuple(out)


def _value(s):
    return _oracle(s.coeffs, s.conductor)


def _canonical(s, conductor):
    """s lives at `conductor` and is stored in lowest terms."""
    num, den = s.numerators, s.denominator
    assert s.conductor == conductor
    assert len(num) == euler_phi(conductor)
    assert all(type(n) is int for n in num) and type(den) is int
    assert den > 0 and gcd(den, *num) == 1
    assert s._rat == (not any(num[1:]))
    assert s.coeffs == tuple(Fraction(n, den) for n in num)


def cyclotomic(conductor=None):
    m = st.sampled_from(CONDUCTORS) if conductor is None else st.just(conductor)
    return m.flatmap(lambda m: st.lists(rationals, min_size=euler_phi(m),
                                        max_size=euler_phi(m)).map(lambda c: Scalar(m, c)))


multiples = st.sampled_from([(m, L) for L in CONDUCTORS for m in CONDUCTORS if L % m == 0])


@settings(max_examples=80, deadline=None)
@given(cyclotomic(), cyclotomic())
def test_ring_operations_match_sympy(a, b):
    L = lcm(a.conductor, b.conductor)
    va, vb = _value(a), _value(b)
    for got, want in ((a + b, va + vb), (a - b, va - vb), (a * b, (va * vb).rem(PHI_N))):
        _canonical(got, L)
        assert _value(got) == want
    _canonical(-a, a.conductor)
    assert _value(-a) == -va
    assert (a == b) == (va == vb)
    for s in (a, b):
        for twin in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
            assert twin == s and hash(twin) == hash(s)
            assert ((twin.conductor, twin.numerators, twin.denominator)
                    == (s.conductor, s.numerators, s.denominator))


@settings(max_examples=60, deadline=None)
@given(cyclotomic())
def test_inverse_and_conjugate_match_sympy(a):
    va = _value(a)
    bar = a.conjugate()
    _canonical(bar, a.conductor)
    assert _value(bar) == _oracle(a.coeffs, a.conductor, sign=-1)
    if va.is_zero:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    inv = a.inverse()
    _canonical(inv, a.conductor)
    assert _value(inv) == va.invert(PHI_N)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_promote_matches_sympy_and_keeps_value(data):
    m, L = data.draw(multiples)
    a = data.draw(cyclotomic(m))
    up = a.promote(L)
    _canonical(up, L)
    assert up.coeffs == _coeffs_of(_oracle(a.coeffs, m, L), L)
    assert up == a and a == up and hash(up) == hash(a)
    if a._rat:
        q = a.as_fraction()
        assert up == q and hash(up) == hash(q)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rational_operands_match_sympy(data):
    """A rational operand given at conductor 1, promoted to the other
    operand's conductor L, or as a bare Fraction."""
    q = Scalar.from_rational(data.draw(rationals))
    b = data.draw(cyclotomic())
    L = b.conductor
    vq, vb = _value(q), _value(b)
    for r in (q, q.promote(L), q.as_fraction()):
        for got, want in ((r * b, (vq * vb).rem(PHI_N)), (b * r, (vq * vb).rem(PHI_N)),
                          (r + b, vq + vb), (b - r, vb - vq), (r - b, vq - vb)):
            _canonical(got, L)
            assert _value(got) == want
    p = data.draw(cyclotomic(1)).promote(data.draw(st.sampled_from(CONDUCTORS)))
    for got, want in ((q.promote(L) * p, (vq * _value(p)).rem(PHI_N)),
                      (q.promote(L) + p, vq + _value(p))):
        _canonical(got, lcm(L, p.conductor))
        assert _value(got) == want
    qL = q.promote(L)
    _canonical(qL.conjugate(), L)
    assert qL.conjugate() == qL
    if q.is_zero():
        with pytest.raises(ZeroDivisionError):
            qL.inverse()
    else:
        _canonical(qL.inverse(), L)
        assert _value(qL.inverse()) == vq.invert(PHI_N)
