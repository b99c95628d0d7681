"""Multivariate polynomials over cyclotomic scalars.

Terms are stored sparsely as a map from exponent tuples to nonzero
scalars.  A RingSpec is the variable list and a default coefficient
conductor.  Degrees are total degrees: every bounded window of the
program is cut by total degree, and the Jacobi basis is taken for a
homogeneous potential.

Public Poly(...) normalizes its terms; arithmetic results, whose terms
are already nonzero Scalars at the ring's exponent length, are built by
Poly._trusted without that pass.  No terms dict is mutated once it
belongs to a Poly: the keys and caches built on polynomials rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import Scalar
from .linalg import sparse_echelon


@dataclass(frozen=True)
class RingSpec:
    variables: tuple[str, ...]
    conductor: int = 4

    def __post_init__(self):
        if self.conductor < 1:
            raise ValueError(f"conductor must be a positive integer, got {self.conductor}")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variable names in {self.variables}")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        return self.variables.index(name)


def _normalize(ring: RingSpec, terms: dict) -> dict:
    out = {}
    for exp, c in terms.items():
        if isinstance(c, (int, Fraction)):
            c = Scalar.from_rational(c)
        if c.is_zero():
            continue
        if len(exp) != ring.nvars:
            raise ValueError(f"exponent {tuple(exp)} does not fit the variables {ring.variables}")
        out[tuple(exp)] = c
    return out


_new, _set = object.__new__, object.__setattr__


def _check_same_variables(p: "Poly", q: "Poly") -> None:
    if p.ring is not q.ring and p.ring.variables != q.ring.variables:
        raise ValueError(f"polynomials over different variables "
                         f"{p.ring.variables} and {q.ring.variables}")


@dataclass(frozen=True)
class Poly:
    ring: RingSpec
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "terms", _normalize(self.ring, self.terms))

    @staticmethod
    def _trusted(ring: RingSpec, terms: dict) -> "Poly":
        """The Poly with exactly these terms, which must already be nonzero
        Scalars at exponents of the ring's length; no check, no copy."""
        p = _new(Poly)
        _set(p, "ring", ring)  # past the frozen __setattr__, as __post_init__ does
        _set(p, "terms", terms)
        return p

    @staticmethod
    def zero(ring: RingSpec) -> "Poly":
        return Poly._trusted(ring, {})

    @staticmethod
    def constant(ring: RingSpec, c) -> "Poly":
        if isinstance(c, (int, Fraction)):
            c = Scalar.from_rational(c)
        return Poly(ring, {(0,) * ring.nvars: c})

    @staticmethod
    def variable(ring: RingSpec, name: str) -> "Poly":
        exp = [0] * ring.nvars
        exp[ring.var_index(name)] = 1
        return Poly(ring, {tuple(exp): Scalar.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_coeff(self) -> Scalar:
        return self.terms.get((0,) * self.ring.nvars, Scalar.zero())

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Scalar)):
            other = Poly.constant(self.ring, Scalar.one() * other)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.ring.variables != other.ring.variables:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[e] == other.terms[e] for e in self.terms)

    __hash__ = None

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction, Scalar)):
            other = Poly.constant(self.ring, Scalar.one() * other)
        _check_same_variables(self, other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            if e in terms:
                c = terms[e] + c
                if c.is_zero():
                    del terms[e]
                    continue
            terms[e] = c
        return Poly._trusted(self.ring, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction, Scalar)):
            other = Poly.constant(self.ring, Scalar.one() * other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_rational(other)
        if isinstance(other, Scalar):
            if other.is_zero():
                return Poly.zero(self.ring)
            return Poly._trusted(self.ring, {e: c * other for e, c in self.terms.items()})
        _check_same_variables(self, other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                old = terms.get(e)
                terms[e] = prod if old is None else old + prod
        return Poly._trusted(self.ring, {e: c for e, c in terms.items() if not c.is_zero()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError(f"negative power {n} of a polynomial")
        result = Poly.constant(self.ring, 1)
        for _ in range(n):
            result = result * self
        return result

    def conjugate_coeffs(self) -> "Poly":
        return Poly._trusted(self.ring, {e: c.conjugate() for e, c in self.terms.items()})

    def partial(self, idx: int) -> "Poly":
        terms = {}
        for e, c in self.terms.items():
            if e[idx] == 0:
                continue
            e2 = list(e)
            e2[idx] -= 1
            terms[tuple(e2)] = terms.get(tuple(e2), Scalar.zero()) + c * e[idx]
        return Poly(self.ring, terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.ring.variables, e)
                if k
            )
            c = repr(self.terms[e])
            piece = f"({c})*{mono}" if mono else f"({c})"
            parts.append(piece)
        return " + ".join(parts)


@dataclass(frozen=True)
class RingMap:
    """A generalized ring endomorphism: one image per variable, and an
    antilinearity flag meaning coefficients are conjugated first.

    Each map keeps the image of every monomial it has substituted into,
    exponent -> Poly, in _monomial_images; that memo is derived from the
    images alone and is no part of equality or repr."""

    images: tuple[Poly, ...]
    antilinear: bool = False
    _monomial_images: dict = field(default_factory=dict, init=False, repr=False,
                                   compare=False)

    def compose(self, other: "RingMap") -> "RingMap":
        """self after other (apply other first)."""
        new_images = tuple(apply_ring_map(self, img) for img in other.images)
        return RingMap(new_images, self.antilinear != other.antilinear)

    @staticmethod
    def identity(ring: RingSpec) -> "RingMap":
        return RingMap(tuple(Poly.variable(ring, v) for v in ring.variables))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingMap):
            return NotImplemented
        return self.antilinear == other.antilinear and self.images == other.images

    __hash__ = None


def _monomial_image(rm: RingMap, e: tuple) -> Poly:
    """prod_v images[v] ** e[v], from rm's memo, which gains the image of
    every exponent passed on the way down from e to a known one: each step
    lowers e's last nonzero exponent by one, so the factors multiply in
    variable order."""
    memo = rm._monomial_images
    chain = []
    while e not in memo:
        k = max(v for v, a in enumerate(e) if a)
        chain.append((e, k))
        e = e[:k] + (e[k] - 1,) + e[k + 1:]
    image = memo[e]
    for e, k in reversed(chain):
        image = memo[e] = image * rm.images[k]
    return image


def apply_ring_map(rm: RingMap, p: Poly) -> Poly:
    """p with every variable replaced by its image under rm, coefficients
    conjugated first when rm is antilinear.  Monomial images come from rm's
    memo (see _monomial_image); the conjugation is applied to p's
    coefficients only, so the memo is the same for both flags."""
    if len(rm.images) != p.ring.nvars:
        raise ValueError("variable count mismatch between map and polynomial")
    ring = rm.images[0].ring if rm.images else p.ring
    if not rm._monomial_images:
        rm._monomial_images[(0,) * p.ring.nvars] = Poly.constant(ring, 1)
    terms: dict = {}
    for e, c in p.terms.items():
        if rm.antilinear:
            c = c.conjugate()
        for e2, c2 in _monomial_image(rm, e).terms.items():
            prod = c * c2
            old = terms.get(e2)
            terms[e2] = prod if old is None else old + prod
    return Poly._trusted(ring, {e: c for e, c in terms.items() if not c.is_zero()})


def monomial_ratio(p: Poly, q: Poly):
    """The scalar c with p = c*q when p and q are single terms at the same
    exponent, else None."""
    if len(p.terms) != 1 or len(q.terms) != 1:
        return None
    (ep, cp), = p.terms.items()
    (eq, cq), = q.terms.items()
    if ep != eq:
        return None
    return cp * cq.inverse()


def _monomials_by_degree(nvars: int, bound: int) -> list:
    """buckets[d] lists the exponent tuples in nvars variables of total
    degree d, for 0 <= d <= bound, each bucket in lexicographic order."""
    buckets = [[] for _ in range(bound + 1)]

    def walk(prefix, room):
        if len(prefix) == nvars:
            buckets[bound - room].append(prefix)
            return
        for k in range(room + 1):
            walk(prefix + (k,), room - k)

    if bound >= 0:
        walk((), bound)
    return buckets


def jacobi_basis(w: Poly):
    """Monomial basis of the quotient by all partials of w, plus socle degree.

    Requires w homogeneous with a finite-dimensional quotient; per-degree
    rational linear algebra.
    """
    ring = w.ring
    degs = {sum(e) for e in w.terms}
    if len(degs) != 1:
        raise ValueError("potential is not homogeneous")
    D = degs.pop()
    partials = [w.partial(i) for i in range(ring.nvars)]
    partials = [p for p in partials if not p.is_zero()]
    socle_bound = max(0, ring.nvars * (D - 2))
    buckets = _monomials_by_degree(ring.nvars, socle_bound + 1 + D)
    basis = []
    socle = 0
    for d, monos in enumerate(buckets):
        index = {m: j for j, m in enumerate(monos)}
        # each partial is homogeneous of degree D - 1, so its multiples by
        # the monomials of degree d - D + 1 lie in bucket d
        rows = [{index[tuple(a + b for a, b in zip(e, m))]: c for e, c in p.terms.items()}
                for p in partials for m in (buckets[d - (D - 1)] if d >= D - 1 else [])]
        pivots = sparse_echelon(rows)
        free = [monos[j] for j in range(len(monos)) if j not in pivots]
        if free:
            if d > socle_bound:
                raise ValueError("quotient by the partials is not finite-dimensional")
            basis.extend(free)
            socle = d
    return basis, socle
