"""Cohomology of Hom complexes between matrix factorizations.

Dimensions are computed on bounded-degree windows of the polynomial Hom
space.  For each parity, D is built once, by mf.window_operator, on the
window of degree <= cutoff + 1: the column of x^m e_rc is the column of
e_rc with its exponents shifted by m, so its values are computed once per
block entry, not once per monomial (a Macaulay matrix; Lazard, EUROCAL
1983).  D is eliminated once, its unknowns in by ascending degree and its
image coordinates numbered by descending degree, each degree read once
per call, so that the pivots give every rank (linalg's rank profile).
Images are kept whole: at each c, dim H = kernel of D on the unknowns of
degree <= c minus the part of the other parity's image in degree <= c.
The flag compares cutoff and cutoff + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polys import Poly, jacobi_basis
from .mf import MF, MFError, diff_mor, external_tensor, window_monomials, window_operator
from .linalg import sparse_echelon


@dataclass
class CohoReport:
    dims: tuple[int, int]  # (dim H0, dim H1) over the coefficient field
    cutoff: int
    stable: bool


def hom_cohomology(M: MF, N: MF, cutoff: int) -> CohoReport:
    """(dim H0, dim H1) of the Hom complex on the window of degree <= cutoff,
    with a flag recording agreement between cutoff and cutoff + 1."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be at least 1, got {cutoff}")
    if not M.w == N.w:
        raise MFError("potentials differ")
    monomials = window_monomials(M.ring.nvars, cutoff + 1)
    counts = [_window_counts(M, N, p, monomials, cutoff) for p in (0, 1)]
    dims = {c: tuple(counts[p][c][0] - counts[1 - p][c][1] for p in (0, 1))
            for c in (cutoff, cutoff + 1)}
    return CohoReport(dims[cutoff], cutoff, dims[cutoff] == dims[cutoff + 1])


def _window_counts(M: MF, N: MF, parity: int, monomials, cutoff: int) -> dict:
    """{c: (kernel of D on the unknowns of degree <= c, dimension of their
    image that stays in degree <= c)} for c = cutoff, cutoff + 1, at once."""
    parts, high = _numbered_window(M, N, parity, monomials, cutoff)
    unknowns, pivots, counts = 0, {}, {}
    for c, part in parts.items():
        sparse_echelon(part, pivots)
        unknowns += len(part)
        counts[c] = (unknowns - len(pivots), sum(1 for k in pivots if k >= high[c]))
    return counts


def _numbered_window(M: MF, N: MF, parity: int, monomials, cutoff: int):
    """D's columns with their image keys numbered by descending degree,
    {c: columns of the unknowns of degree max(cutoff, that degree) = c},
    and {c: how many keys have degree > c, numbered first}.  The keys die
    here, before the elimination."""
    columns = window_operator(diff_mor(N), diff_mor(M), parity, monomials)
    # the monomial is innermost in window_slots order
    where = [max(cutoff, sum(m)) for m in monomials] * (len(columns) // len(monomials))
    by_degree: dict = {}  # each list in first-seen order
    for k in {k for col in columns for k in col}:
        by_degree.setdefault(sum(k[3]), []).append(k)
    index = {k: j for j, k in enumerate(
        k for d in sorted(by_degree, reverse=True) for k in by_degree[d])}
    parts = {cutoff: [], cutoff + 1: []}
    for j, c in enumerate(where):
        col, columns[j] = columns[j], None  # frees each original column as it goes
        parts[c].append({index[k]: v for k, v in col.items()})
    return parts, {c: sum(len(keys) for d, keys in by_degree.items() if d > c) for c in parts}


def default_cutoff(w: Poly, entry_degree: int | None = None) -> int:
    """2 * socle degree + maximal differential entry degree + 2; the entry
    degree defaults to deg(w) - 1, the generic rank-one bound."""
    _, socle = jacobi_basis(w)
    if entry_degree is None:
        entry_degree = max(1, w.total_degree() - 1)
    return 2 * socle + entry_degree + 2


def knorrer_hom_preservation(M: MF, N: MF, K: MF, cutoff: int):
    """Reports for (M,N) and for their images under - x K, with a verdict."""
    left = hom_cohomology(M, N, cutoff)
    MK = external_tensor(M, K)
    NK = external_tensor(N, K)
    right = hom_cohomology(MK, NK, cutoff)
    return left, right, left.dims == right.dims
