"""Cohomology of Hom complexes between matrix factorizations.

Dimensions are computed on bounded-degree windows of the polynomial Hom
space.  For each parity, D is built once, by mf.window_operator, on the
window of degree <= cutoff + 1 and eliminated once, its unknowns in by
ascending degree and its image coordinates numbered by descending degree,
so that the pivots give every rank (linalg's rank profile).  Images are
kept whole: at each c, dim H = kernel of D on the unknowns of degree <= c
minus the part of the other parity's image in degree <= c.  The flag
compares cutoff and cutoff + 1.  A null homotopy h of f solves D(h) = f
in degrees <= cutoff on the window of degree <= cutoff: cutting by degree
is a ring homomorphism onto k[x]/(monomials of degree > cutoff).
"""

from __future__ import annotations

from dataclasses import dataclass

from .polys import Poly, jacobi_basis
from .mf import (
    MF, MFError, MFMor, diff_mor, external_tensor, mor_coordinates,
    mor_from_coordinates, window_monomials, window_operator, window_slots,
)
from .linalg import sparse_echelon, sparse_solve, sparse_transpose


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
    slots = window_slots(M, N, parity, monomials)
    columns = window_operator(diff_mor(N), diff_mor(M), parity, monomials)
    keys = sorted({k for col in columns for k in col}, key=lambda k: -sum(k[3]))
    index = {k: j for j, k in enumerate(keys)}
    for j, col in enumerate(columns):  # frees each original column as it goes
        columns[j] = {index[k]: v for k, v in col.items()}
    pivots, counts = {}, {}
    for c in (cutoff, cutoff + 1):
        sparse_echelon([col for slot, col in zip(slots, columns)
                        if max(cutoff, sum(slot[3])) == c], pivots)
        counts[c] = (sum(1 for s in slots if sum(s[3]) <= c) - len(pivots),
                     sum(1 for k in pivots if sum(keys[k][3]) <= c))
    return counts


def null_homotopy(f: MFMor, cutoff: int) -> MFMor | None:
    """A morphism h with entries of degree <= cutoff and D(h) = f in degrees
    <= cutoff, if one exists."""
    parity = (f.parity + 1) % 2
    monomials = window_monomials(f.source.ring.nvars, cutoff)
    slots = window_slots(f.source, f.target, parity, monomials)
    columns = window_operator(diff_mor(f.target), diff_mor(f.source), parity, monomials)
    # solve sum_j D(e_j) x_j - f = 0 on the coordinates of degree <= cutoff
    target = {k: -v for k, v in mor_coordinates(f).items()}
    rows = sparse_transpose(
        [{k: v for k, v in col.items() if sum(k[3]) <= cutoff}
         for col in columns + [target]])
    sol = sparse_solve(rows, len(slots), len(slots))
    if sol is None:
        return None
    coords = {slot[:4]: v for slot, v in zip(slots, sol) if not v.is_zero()}
    return mor_from_coordinates(f.source, f.target, parity, coords)


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
