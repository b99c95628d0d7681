"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A scalar of conductor m is stored as integer numerators over the reduced
power basis 1, zeta_m, ..., zeta_m^(phi(m)-1) and one positive common
denominator, in lowest terms, so two values at one conductor are equal
exactly when their numerators and denominators are.  Phi_m is monic with
integer coefficients, so reduction modulo it runs on ints.

Scalars of different conductors combine at the lcm conductor; a value is
never moved to a smaller field.  Rational operands take short cuts: a
product scales numerators, promotion pads with zeros, inversion swaps
numerator and denominator, and conjugation (the automorphism
zeta_m -> zeta_m^{-1}) leaves them alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    result = m
    p = 2
    n = m
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, low degree first."""
    if m == 1:
        return (-1, 1)
    # divide x^m - 1 by the product of Phi_d over proper divisors d of m
    num = [0] * (m + 1)
    num[0] = -1
    num[m] = 1
    for d in range(1, m):
        if m % d == 0:
            num = _poly_divide_exact(num, list(cyclotomic_poly(d)))
    return tuple(num)


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    """num / den for a monic den that divides num, as every Phi_d divides
    x^m - 1: each quotient digit is the leading coefficient left in num."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        q = num[k]
        if q:
            quot[k - dd] = q
            for j in range(dd + 1):
                num[k - dd + j] -= q * den[j]
    return quot


@lru_cache(maxsize=None)
def _phi_tail(m: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(m) and the nonzero (j, c) of Phi_m below its leading term."""
    phi = cyclotomic_poly(m)
    return len(phi) - 1, tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


def _reduce(raw: list[int], m: int) -> list[int]:
    """raw (ints, low degree first) modulo Phi_m, as phi(m) ints; in place."""
    d, tail = _phi_tail(m)
    for k in range(len(raw) - 1, d - 1, -1):
        c = raw[k]
        if c:
            for j, p in tail:
                raw[k - d + j] -= c * p
    del raw[d:]
    raw += [0] * (d - len(raw))
    return raw


def _mulmod(a, b, m: int) -> list[int]:
    """The product of two numerator sequences at conductor m."""
    raw = [0] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        if x:
            for k, y in enumerate(b, j):
                raw[k] += x * y
    return _reduce(raw, m)


def _galois(num, m: int, k: int) -> list[int]:
    """The image of numerators under the automorphism zeta_m -> zeta_m^k."""
    raw = [0] * m
    for j, x in enumerate(num):
        raw[j * k % m] += x
    return _reduce(raw, m)


_new = object.__new__


def _scalar(m: int, num: tuple, den: int, rational: bool) -> "Scalar":
    s = _new(Scalar)
    s._m, s._num, s._den, s._rat = m, num, den, rational
    return s


def _lowest(m: int, num: list[int], den: int) -> "Scalar":
    """num/den at conductor m, for den > 0, brought to lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    return _scalar(m, tuple(num), den, not any(num[1:]))


def _rational(m: int, n: int, d: int) -> "Scalar":
    """n/d at conductor m, for d > 0."""
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
    return _scalar(m, (n,) if m == 1 else (n,) + (0,) * (euler_phi(m) - 1), d, True)


def _coerce(x):
    """An int or a Fraction as a Scalar of conductor 1; None for anything
    else.  Callers test for a Scalar first."""
    return Scalar.from_rational(x) if isinstance(x, (int, Fraction)) else None


def _promoted(a: "Scalar", L: int) -> "Scalar":
    """a at conductor L, a multiple of its own; lowest terms carry over,
    since the power basis of Z[zeta_m] is an integral basis."""
    if a._m == L:
        return a
    if a._rat:
        return _rational(L, a._num[0], a._den)
    step = L // a._m
    raw = [0] * ((len(a._num) - 1) * step + 1)
    raw[::step] = a._num
    return _scalar(L, tuple(_reduce(raw, L)), a._den, False)


def _add(a: "Scalar", b: "Scalar", sign: int) -> "Scalar":
    """a + sign * b."""
    L = a._m if a._m == b._m else lcm(a._m, b._m)
    da, db = a._den, b._den
    if a._rat and b._rat:
        return _rational(L, a._num[0] * db + sign * b._num[0] * da, da * db)
    sda = sign * da
    return _lowest(L, [x * db + y * sda for x, y in
                       zip(_promoted(a, L)._num, _promoted(b, L)._num)], da * db)


def _mul(a: "Scalar", b: "Scalar") -> "Scalar":
    L = a._m if a._m == b._m else lcm(a._m, b._m)
    if a._rat:
        if b._rat:
            return _rational(L, a._num[0] * b._num[0], a._den * b._den)
        a, b = b, a
    elif not b._rat:
        a, b = _promoted(a, L), _promoted(b, L)
        return _lowest(L, _mulmod(a._num, b._num, L), a._den * b._den)
    # b is rational: scale a's numerators
    n = b._num[0]
    a = _promoted(a, L)
    return _lowest(L, [x * n for x in a._num], a._den * b._den)


class Scalar:
    """An element of Q(zeta_m) in the reduced power basis: integer
    numerators and one positive denominator, in lowest terms.  Immutable;
    the public fields are read-only properties."""

    __slots__ = ("_m", "_num", "_den", "_rat")

    def __init__(self, conductor: int, coeffs):
        if conductor < 1:
            raise ValueError(f"conductor must be a positive integer, got {conductor}")
        if len(coeffs) != euler_phi(conductor):
            raise ValueError(f"{len(coeffs)} coefficients for conductor {conductor}, "
                             f"which needs {euler_phi(conductor)}")
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fracs))
        num = tuple(f.numerator * (den // f.denominator) for f in fracs)
        self._m, self._num, self._den, self._rat = conductor, num, den, not any(num[1:])

    @property
    def conductor(self) -> int:
        return self._m

    @property
    def numerators(self) -> tuple[int, ...]:
        return self._num

    @property
    def denominator(self) -> int:
        return self._den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients over the reduced power basis."""
        return tuple(Fraction(n, self._den) for n in self._num)

    def __reduce__(self):
        return _scalar, (self._m, self._num, self._den, self._rat)

    @staticmethod
    def from_rational(q) -> "Scalar":
        if q.__class__ is int:
            return _scalar(1, (q,), 1, True)
        q = Fraction(q)
        return _scalar(1, (q.numerator,), q.denominator, True)

    @staticmethod
    def zero() -> "Scalar":
        return _ZERO

    @staticmethod
    def one() -> "Scalar":
        return _ONE

    @staticmethod
    def zeta(m: int, power: int = 1) -> "Scalar":
        if m < 1:
            raise ValueError(f"zeta needs a positive order, got {m}")
        power %= m
        d = euler_phi(m)
        num = [0] * max(d, power + 1)
        num[power] = 1
        if power >= d:
            num = _reduce(num, m)
        return _scalar(m, tuple(num), 1, not any(num[1:]))

    @staticmethod
    def i() -> "Scalar":
        return Scalar.zeta(4)

    def promote(self, L: int) -> "Scalar":
        if L < 1 or L % self._m:
            raise ValueError(f"cannot promote conductor {self._m} to {L}")
        return _promoted(self, L)

    def is_zero(self) -> bool:
        return self._rat and not self._num[0]

    def as_fraction(self) -> Fraction:
        if not self._rat:
            raise ValueError(f"not rational: {self}")
        return Fraction(self._num[0], self._den)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if self._den != other._den:
            return False
        if self._m == other._m:
            return self._num == other._num
        if self._rat or other._rat:
            return self._rat and other._rat and self._num[0] == other._num[0]
        L = lcm(self._m, other._m)
        return _promoted(self, L)._num == _promoted(other, L)._num

    def __hash__(self):
        # equal scalars can live at different conductors, so only the
        # rational case gets a discriminating hash
        if self._rat:
            n, d = self._num[0], self._den
            return hash(n) if d == 1 else hash(Fraction(n, d))
        return hash("cyclotomic")

    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _add(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _scalar(self._m, tuple(-x for x in self._num), self._den, self._rat)

    def __sub__(self, other):
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _add(self, other, -1)

    def __rsub__(self, other) -> "Scalar":
        return _add(Scalar.from_rational(other), self, -1)

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _mul(self, other)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        m, num, den = self._m, self._num, self._den
        if self._rat:
            n = num[0]
            if not n:
                raise ZeroDivisionError("scalar inverse of zero")
            return _rational(m, den if n > 0 else -den, abs(n))
        # 1/a is the product of a's other Galois conjugates over the norm of a
        cofactor = [1]
        for k in range(2, m):
            if gcd(k, m) == 1:
                cofactor = _mulmod(cofactor, _galois(num, m, k), m)
        norm = _mulmod(num, cofactor, m)[0]
        if norm < 0:
            norm, den = -norm, -den
        return _lowest(m, [x * den for x in cofactor], norm)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar.from_rational(other) / self

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        result = Scalar.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "Scalar":
        """The automorphism zeta_m -> zeta_m^{-1}; fixes the rationals."""
        if self._rat:
            return self
        m = self._m
        return _scalar(m, tuple(_galois(self._num, m, m - 1)), self._den, False)

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*z{self.conductor}")
            else:
                parts.append(f"{c}*z{self.conductor}^{k}")
        return " + ".join(parts)


_ZERO = _scalar(1, (0,), 1, True)
_ONE = _scalar(1, (1,), 1, True)
