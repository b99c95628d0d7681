"""The sparse-row module kernels against sympy and against dense work.

Each drawn graded module is also written as sympy matrices on A0 + A1,
where generator j acts by [[0, g1], [g0, 0]]; the anticommutation
relations and the module-map equations are then plain rational matrix
identities.
"""

from functools import cache

import sympy
from hypothesis import given, settings, strategies as st

from mfsym import catalog
import mfsym.clifford as clifford
import mfsym.linalg as linalg
import mfsym.mf as mf
import mfsym.scalars as scalars
from mfsym.linalg import sparse_echelon
from mfsym.clifford import (
    CliffAlg, CliffMod, QuadForm, module_hom_dim,
    module_validate, mf_to_clifford_module, parity_shift, smat,
)
from mfsym.polys import Poly
from mfsym.real import real_knorrer
from mfsym.scalars import Scalar

ENTRY = st.sampled_from([0, 0, 0, 1, -1, 2])


def _block(data, rows, cols):
    return [[data.draw(ENTRY) for _ in range(cols)] for _ in range(rows)]


def _draw_module(data, n=None):
    """A module with 1-3 generators, block ranks up to 4, small integer entries
    and a diagonal form with entries +-1 or 0 (not checked to be nondegenerate)."""
    if n is None:
        n = data.draw(st.integers(1, 3))
    a0, a1 = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    diag = [data.draw(st.sampled_from([1, -1, 0])) for _ in range(n)]
    quad = QuadForm(tuple(
        tuple(Scalar.from_rational(diag[i] if i == j else 0) for j in range(n))
        for i in range(n)))
    raw = [(_block(data, a1, a0), _block(data, a0, a1)) for _ in range(n)]
    m = CliffMod(CliffAlg(quad), (a0, a1), tuple((smat(g0), smat(g1)) for g0, g1 in raw))
    return m, diag, raw


def _sym(rows, nrows, ncols):
    return sympy.Matrix(nrows, ncols, lambda r, c: rows[r][c])


def _sym_gammas(m, raw):
    a0, a1 = m.dims
    out = []
    for g0, g1 in raw:
        full = sympy.zeros(a0 + a1, a0 + a1)
        full[a0:, :a0] = _sym(g0, a1, a0)
        full[:a0, a0:] = _sym(g1, a0, a1)
        out.append(full)
    return out


def _sym_of_block(block, nrows, ncols):
    return sympy.Matrix(nrows, ncols, lambda r, c: block[r].get(c, Scalar.zero()).as_fraction())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_module_validate_matches_sympy(data):
    m, diag, raw = _draw_module(data)
    gs = _sym_gammas(m, raw)
    size = sum(m.dims)
    want = [(i, j) for i in range(len(gs)) for j in range(len(gs))
            if gs[i] * gs[j] + gs[j] * gs[i]
            != 2 * (diag[i] if i == j else 0) * sympy.eye(size)]
    assert module_validate(m) == want


@cache
def _tower_module(steps=3):
    """The module of the spinor's Knoerrer tower after the given number of
    steps, of ranks (2^steps, 2^steps)."""
    cur = dict(catalog.real_catalog())["conjugation-spinor"]
    for _ in range(steps):
        cur = real_knorrer(cur)
    return mf_to_clifford_module(cur.base)


def test_module_validate_multiplies_nonzeros_only(monkeypatch):
    """Products over nonzero entries only: on the rank-(8,8) tower module the
    dense product made about 107k scalar multiplies; the sparse one makes
    about five per nonzero generator entry."""
    m = _tower_module()
    assert m.dims == (8, 8)
    nnz = sum(len(row) for g in m.gammas for blk in g for row in blk)
    calls = 0
    mul = Scalar.__mul__

    def counting_mul(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting_mul)
    assert module_validate(m) == []
    monkeypatch.undo()
    assert 0 < calls <= 8 * nnz


def _hom_nullity(m, mp):
    """Nullity of H0_j F0 = F1 G0_j, H1_j F1 = F0 G1_j over every generator
    pair (G_j, H_j), in sympy unknowns F0: b0 x a0 and F1: b1 x a1."""
    (a0, a1), (b0, b1) = m.dims, mp.dims
    F0 = sympy.Matrix(b0, a0, lambda r, c: sympy.Symbol(f"f0_{r}_{c}"))
    F1 = sympy.Matrix(b1, a1, lambda r, c: sympy.Symbol(f"f1_{r}_{c}"))
    unknowns = list(F0) + list(F1)
    eqs = []
    for (g0, g1), (h0, h1) in zip(m.gammas, mp.gammas):
        G0, G1 = _sym_of_block(g0, a1, a0), _sym_of_block(g1, a0, a1)
        H0, H1 = _sym_of_block(h0, b1, b0), _sym_of_block(h1, b0, b1)
        eqs += list(H0 * F0 - F1 * G0) + list(H1 * F1 - F0 * G1)
    if not (unknowns and eqs):
        return len(unknowns)
    return len(unknowns) - sympy.linear_eq_to_matrix(eqs, unknowns)[0].rank()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_module_hom_dim_matches_sympy(data):
    """Drawn block ranks run from 0, so zero-rank blocks on either side are
    drawn; the relations are not required to hold."""
    m, _, raw = _draw_module(data)
    if data.draw(st.booleans()):
        mp = m
    else:
        drawn, _, _ = _draw_module(data, len(raw))
        mp = CliffMod(m.alg, drawn.dims, drawn.gammas)
    assert module_hom_dim(m, mp) == _hom_nullity(m, mp)


def test_module_hom_dim_on_zero_rank_blocks():
    """A one-dimensional even space against the spinor module: on the
    spinor side h0 = 1 forces f0 = 0 in both directions."""
    alg = CliffAlg(QuadForm.diagonal([1]))
    even = CliffMod(alg, (1, 0), (((), ({},)),))
    spinor = CliffMod(alg, (1, 1), ((smat([[1]]), smat([[1]])),))
    assert module_hom_dim(even, even) == 1
    assert module_hom_dim(even, spinor) == 0
    assert module_hom_dim(spinor, even) == 0
    assert all(_hom_nullity(a, b) == 0 for a, b in ((even, spinor), (spinor, even)))


def test_module_hom_dim_builds_no_polynomials(monkeypatch):
    """The module equations are read off the sparse generator rows: no
    constant polynomial is built and no polynomial window is linearized."""
    m = _tower_module()
    calls = []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Poly, "constant", staticmethod(counted("constant", Poly.constant)))
    for module in (mf, clifford):
        if hasattr(module, "window_operator"):
            monkeypatch.setattr(module, "window_operator",
                                counted("window", module.window_operator))
    assert module_hom_dim(m, m) == 1
    assert calls == []


def test_module_hom_dim_hands_sparse_rank_no_empty_row(monkeypatch):
    """The hyperbolic generators square to zero, so their blocks have empty
    rows and columns: the (8,8) tower module gave 192 empty equations of
    896, the (16,16) one 1024 of 4608."""
    modules = [_tower_module(steps) for steps in (3, 4)]
    ranked = []
    sparse_rank = clifford.sparse_rank

    def counted(rows):
        ranked.append(rows)
        return sparse_rank(rows)

    monkeypatch.setattr(clifford, "sparse_rank", counted)
    for m, rank in zip(modules, (8, 16)):
        assert m.dims == (rank, rank)
        assert (module_hom_dim(m, m), module_hom_dim(m, parity_shift(m))) == (1, 1)
    assert len(ranked) == 4 and all(row for rows in ranked for row in rows)


def test_module_hom_rows_eliminate_on_integers(monkeypatch):
    """The (16,16) tower module's equations are rational, so linalg
    eliminates them on its integer lane: no Scalar product, int pivot rows."""
    m = _tower_module(4)
    ranked = []
    monkeypatch.setattr(clifford, "sparse_rank", lambda rows: ranked.append(rows) or 0)
    module_hom_dim(m, m)
    products = 0
    mul = scalars._mul

    def counting_mul(a, b):
        nonlocal products
        products += 1
        return mul(a, b)

    monkeypatch.setattr(scalars, "_mul", counting_mul)
    pivots = sparse_echelon(ranked[0])
    monkeypatch.undo()
    assert products == 0 and len(pivots) == 511
    assert all(v.__class__ is int for row in pivots.values() for v in row.values())


def test_module_hom_rows_clear_few_rows(monkeypatch):
    """The (16,16) tower module's Hom(m, m) equations are 3584 rows of one
    or two entries over 512 unknowns.  Ranked shortest first, the one-entry
    rows become pivots that clear by deleting a key, so few rows are
    cleared by a product: 609, where the rows in equation order with every
    pivot cleared by a product took 7201."""
    m = _tower_module(4)
    clears = 0
    clear = linalg._clear

    def counting_clear(*args):
        nonlocal clears
        clears += 1
        return clear(*args)

    monkeypatch.setattr(linalg, "_clear", counting_clear)
    assert module_hom_dim(m, m) == 1
    assert clears <= 1000, clears
