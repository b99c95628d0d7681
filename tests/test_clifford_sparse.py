"""The sparse-row module kernels against sympy and against dense work.

Each drawn graded module is also written as sympy matrices on A0 + A1,
where generator j acts by [[0, g1], [g0, 0]]; the anticommutation
relations, the action of algebra elements and the module-map condition
are then plain rational matrix identities.
"""

from functools import cache
from itertools import combinations

import sympy
from hypothesis import given, settings, strategies as st

from mfsym import catalog
from mfsym.clifford import (
    CliffAlg, CliffMod, CliffModMor, QuadForm, module_act, module_validate,
    mf_to_clifford_module, smat,
)
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
    return sympy.Matrix(nrows, ncols, lambda r, c: block[r][c].as_fraction())


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


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_module_act_matches_sympy(data):
    m, _, raw = _draw_module(data)
    n = len(raw)
    gs = _sym_gammas(m, raw)
    subsets = [s for k in range(n + 1) for s in combinations(range(n), k)]
    picked = data.draw(st.lists(st.sampled_from(subsets), max_size=4, unique=True))
    elem = {s: Scalar.from_rational(data.draw(st.sampled_from([1, -1, 3]))) for s in picked}
    parity = data.draw(st.integers(0, 1))
    a0, a1 = m.dims
    size = a0 + a1
    total = sympy.zeros(size, size)
    for s, c in elem.items():
        word = sympy.eye(size)
        for j in s:
            word = word * gs[j]
        total += c.as_fraction() * word
    cols = slice(0, a0) if parity == 0 else slice(a0, size)
    src = m.dims[parity]
    even, odd = module_act(m, elem, parity)
    assert _sym_of_block(even, a0, src) == total[:a0, cols]
    assert _sym_of_block(odd, a1, src) == total[a0:, cols]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_is_module_map_matches_sympy(data):
    m, _, raw = _draw_module(data)
    target, _, raw_t = (m, None, raw) if data.draw(st.booleans()) else _draw_module(data, len(raw))
    (a0, a1), (b0, b1) = m.dims, target.dims
    kind = data.draw(st.sampled_from(["drawn", "zero", "scalar"]))
    if kind == "drawn":
        f0, f1 = _block(data, b0, a0), _block(data, b1, a1)
    else:
        c = 0 if kind == "zero" else data.draw(st.sampled_from([1, -2]))
        f0 = [[c if r == k else 0 for k in range(a0)] for r in range(b0)]
        f1 = [[c if r == k else 0 for k in range(a1)] for r in range(b1)]
    F = sympy.zeros(b0 + b1, a0 + a1)
    F[:b0, :a0] = _sym(f0, b0, a0)
    F[b0:, a0:] = _sym(f1, b1, a1)
    want = all(F * g == h * F for g, h in zip(_sym_gammas(m, raw), _sym_gammas(target, raw_t)))
    assert CliffModMor(m, target, smat(f0), smat(f1)).is_module_map() == want


@cache
def _tower_module_8():
    cur = dict(catalog.real_catalog())["conjugation-spinor"]
    for _ in range(3):
        cur = real_knorrer(cur)
    return mf_to_clifford_module(cur.base)


def test_module_validate_multiplies_nonzeros_only(monkeypatch):
    """Products over nonzero entries only: on the rank-(8,8) tower module the
    dense product made about 107k scalar multiplies; the sparse one makes
    about five per nonzero generator entry."""
    m = _tower_module_8()
    assert m.dims == (8, 8)
    nnz = sum(not x.is_zero() for g in m.gammas for blk in g for row in blk for x in row)
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
