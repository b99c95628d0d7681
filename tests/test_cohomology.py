"""Hom complex cohomology on bounded-degree windows."""

import pytest
from hypothesis import given, settings, strategies as st

from mfsym import cohomology, scalars
from mfsym.scalars import Scalar
from mfsym.polys import Poly, RingSpec
from mfsym.linalg import sparse_rank
from mfsym.mf import (
    rank_one, mf_new, identity_mor, MFMor, hom_diff, diff_mor, external_tensor,
    window_monomials, window_operator, window_slots,
)
from mfsym.cohomology import hom_cohomology, default_cutoff, knorrer_hom_preservation
import mfsym.catalog as catalog


def test_hyperbolic_pair_dims():
    ring = RingSpec(("u", "v"))
    u, v = Poly.variable(ring, "u"), Poly.variable(ring, "v")
    M = rank_one(u, v)
    rep = hom_cohomology(M, M, 3)
    assert rep.dims == (1, 0)
    assert rep.stable


def test_spinor_dims():
    ring = RingSpec(("x",))
    x = Poly.variable(ring, "x")
    M = rank_one(x, x)
    rep = hom_cohomology(M, M, 3)
    assert rep.dims == (1, 1)
    assert rep.stable


def test_trivial_factorization_contractible():
    ring = RingSpec(("x",))
    x = Poly.variable(ring, "x")
    w = x ** 2
    M = mf_new(ring, w, ((Poly.constant(ring, 1),),), ((w,),))
    rep = hom_cohomology(M, M, default_cutoff(w))
    assert rep.dims == (0, 0)
    assert rep.stable


def test_a_series_dims():
    # End of {x, x^k} inside w = x^n has H0 = H1 = min(k, n - k)
    for n, k, want in ((4, 1, 1), (4, 2, 2), (5, 2, 2), (6, 3, 3)):
        ring = RingSpec(("x",))
        x = Poly.variable(ring, "x")
        M = rank_one(x ** k, x ** (n - k))
        rep = hom_cohomology(M, M, default_cutoff(x ** n))
        assert rep.dims == (want, want), (n, k)
        assert rep.stable


def test_half_differential_is_exact_witness():
    half = Scalar.from_rational(1) / Scalar.from_rational(2)
    for name, M in catalog.mf_catalog():
        d = diff_mor(M)
        h = MFMor(M, M, 1,
                  tuple(tuple(p * half for p in row) for row in d.f0),
                  tuple(tuple(p * half for p in row) for row in d.f1))
        target = hom_diff(h)
        ident = identity_mor(M)
        assert target.f0 == tuple(tuple(p * M.w for p in row)
                                  for row in ident.f0), name
        assert target.f1 == tuple(tuple(p * M.w for p in row)
                                  for row in ident.f1), name


def test_knorrer_preserves_hom_dims():
    ryz = RingSpec(("y", "z"))
    K = rank_one(Poly.variable(ryz, "y"), Poly.variable(ryz, "z"))
    # the n = 4 pairs run in the acceptance gate; keep the unit test quick
    for n in (2, 3):
        ring = RingSpec(("x",))
        x = Poly.variable(ring, "x")
        for k in range(1, n):
            for j in range(k, n):
                M = rank_one(x ** k, x ** (n - k))
                N = rank_one(x ** j, x ** (n - j))
                cutoff = default_cutoff(x ** n)
                left, right, same = knorrer_hom_preservation(M, N, K, cutoff)
                assert same, (n, k, j)
                assert left.stable and right.stable


def test_rational_elimination_makes_no_cyclotomic_reduction(monkeypatch):
    """Hom from (x, x^2) to (x^2, x), both tensored with (y, z), over
    conductor-1 rings: every scalar is rational, so no product is reduced
    modulo a cyclotomic polynomial (the Fraction-coefficient scalars did
    about 57k such reductions here)."""
    rx = RingSpec(("x",), conductor=1)
    x = Poly.variable(rx, "x")
    ryz = RingSpec(("y", "z"), conductor=1)
    K = rank_one(Poly.variable(ryz, "y"), Poly.variable(ryz, "z"))
    M = external_tensor(rank_one(x, x ** 2), K)
    N = external_tensor(rank_one(x ** 2, x), K)
    calls = 0
    reduce = scalars._reduce

    def counting_reduce(raw, m):
        nonlocal calls
        calls += 1
        return reduce(raw, m)

    monkeypatch.setattr(scalars, "_reduce", counting_reduce)
    rep = hom_cohomology(M, N, default_cutoff(x ** 3))
    monkeypatch.undo()
    assert rep.dims == (1, 1) and rep.stable
    assert calls == 0


def test_hom_cohomology_rejects_differing_potentials():
    ring = RingSpec(("x",))
    x = Poly.variable(ring, "x")
    with pytest.raises(ValueError):
        hom_cohomology(rank_one(x, x), rank_one(x, x ** 2), 3)


def test_hom_cohomology_rejects_cutoff_below_one():
    ring = RingSpec(("x",))
    x = Poly.variable(ring, "x")
    M = rank_one(x, x)
    with pytest.raises(ValueError):
        hom_cohomology(M, M, 0)


def _reference_hom_cohomology(M, N, cutoff):
    """(dims, stable) from four ranks per parity, each from scratch: D on
    the unknowns of degree <= c, and its projection onto degree > c, for
    c = cutoff and cutoff + 1; the image of D that stays in degree <= c has
    dimension rank - high."""
    monomials = window_monomials(M.ring.nvars, cutoff + 1)
    size, rank, high = {}, {}, {}
    for p in (0, 1):
        slots = window_slots(M, N, p, monomials)
        columns = window_operator(diff_mor(N), diff_mor(M), p, monomials)
        for c in (cutoff, cutoff + 1):
            cols = [col for slot, col in zip(slots, columns) if sum(slot[3]) <= c]
            size[p, c] = len(cols)
            rank[p, c] = sparse_rank(cols)
            high[p, c] = sparse_rank([{k: v for k, v in col.items() if sum(k[3]) > c}
                                      for col in cols])
    dims = {c: tuple(size[p, c] - rank[p, c] - (rank[1 - p, c] - high[1 - p, c])
                     for p in (0, 1))
            for c in (cutoff, cutoff + 1)}
    return dims[cutoff], dims[cutoff] == dims[cutoff + 1]


def _agrees_with_reference(M, N, cutoff):
    rep = hom_cohomology(M, N, cutoff)
    return (rep.dims, rep.stable) == _reference_hom_cohomology(M, N, cutoff)


def _a_series(n, k):
    ring = RingSpec(("x",), conductor=1)
    x = Poly.variable(ring, "x")
    return rank_one(x ** k, x ** (n - k))


def _hyperbolic_kernel():
    ryz = RingSpec(("y", "z"), conductor=1)
    return rank_one(Poly.variable(ryz, "y"), Poly.variable(ryz, "z"))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n - 1), st.integers(1, n - 1), st.integers(1, 2 * n))))
def test_one_elimination_matches_the_four_rank_reference(drawn):
    n, k, j, cutoff = drawn
    assert _agrees_with_reference(_a_series(n, k), _a_series(n, j), cutoff), drawn


def test_one_elimination_matches_the_reference_on_knorrer_images():
    """Every pair with n <= 3 tensored with (y, z), at the cutoff of the
    Knoerrer check, default_cutoff(x^n)."""
    K = _hyperbolic_kernel()
    for n in (2, 3):
        cutoff = default_cutoff(_a_series(n, 1).w)
        for k in range(1, n):
            for j in range(1, n):
                M = external_tensor(_a_series(n, k), K)
                N = external_tensor(_a_series(n, j), K)
                assert _agrees_with_reference(M, N, cutoff), (n, k, j)


def test_one_elimination_matches_the_reference_off_the_stable_range():
    ring = RingSpec(("x",))
    x = Poly.variable(ring, "x")
    w = x ** 2
    trivial = mf_new(ring, w, ((Poly.constant(ring, 1),),), ((w,),))
    tensored = external_tensor(_a_series(4, 1), _hyperbolic_kernel())
    square = _a_series(6, 2)  # (x^2, x^4)
    cases = [(trivial, trivial, 1), (trivial, trivial, default_cutoff(w)),
             (square, square, 1), (square, square, 2), (square, _a_series(6, 4), 1),
             (tensored, tensored, 1)]
    for M, N, cutoff in cases:
        assert _agrees_with_reference(M, N, cutoff), (M.ranks, cutoff)
    stable = [hom_cohomology(M, N, cutoff).stable for M, N, cutoff in cases]
    assert stable == [True, True, False, False, False, False]


def test_hom_cohomology_pushes_each_unknown_once(monkeypatch):
    """One elimination per parity: the rows handed to sparse_echelon are
    the unknowns of both parities at cutoff + 1, each once."""
    M = external_tensor(_a_series(3, 1), _hyperbolic_kernel())
    N = external_tensor(_a_series(3, 2), _hyperbolic_kernel())
    cutoff = 4
    pushed = []
    echelon = cohomology.sparse_echelon

    def counted(rows, pivots=None):
        pushed.append(len(rows))
        return echelon(rows, pivots)

    monkeypatch.setattr(cohomology, "sparse_echelon", counted)
    hom_cohomology(M, N, cutoff)
    monomials = window_monomials(M.ring.nvars, cutoff + 1)
    assert sum(pushed) == sum(len(window_slots(M, N, p, monomials)) for p in (0, 1))
    assert len(pushed) == 4


def test_a_series_windows_eliminate_on_integers(monkeypatch):
    """An A-series pair has rational windows, so each of hom_cohomology's
    eliminations stays on linalg's integer lane: no Scalar product, int
    pivot rows."""
    products = 0
    mul = scalars._mul

    def counting_mul(a, b):
        nonlocal products
        products += 1
        return mul(a, b)

    echelon = cohomology.sparse_echelon
    eliminated = []

    def counted(rows, pivots=None):
        monkeypatch.setattr(scalars, "_mul", counting_mul)
        eliminated.append(echelon(rows, pivots))
        monkeypatch.setattr(scalars, "_mul", mul)
        return eliminated[-1]

    monkeypatch.setattr(cohomology, "sparse_echelon", counted)
    hom_cohomology(_a_series(6, 2), _a_series(6, 4), 2)
    assert products == 0 and len(eliminated) == 4 and any(eliminated)
    assert all(v.__class__ is int
               for pivots in eliminated for row in pivots.values() for v in row.values())
