"""Cohomology of Hom complexes between matrix factorizations.

Dimensions are computed on bounded-degree windows of the polynomial Hom
space.  The Hom differential D is built once, by mf.window_operator, on
the window of degree <= cutoff + 1; its columns are restricted to the
unknowns of degree <= c for c = cutoff and cutoff + 1.  Images under D
are kept whole, so there is no target window: at each c, dim H = kernel
of D on the window minus the part of the other parity's image that
stays in degree <= c, which is that image's rank minus the rank of its
projection onto degree > c.  The stabilization flag compares the
dimensions at cutoff and cutoff + 1.  A null homotopy h of f is solved
on the window of degree <= cutoff, with D(h) = f in degrees <= cutoff.
Cutting by degree is a ring homomorphism onto k[x]/(monomials of degree
> cutoff), so this is D(h) = f over that quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polys import Poly, jacobi_basis
from .mf import (
    MF, MFError, MFMor, diff_mor, external_tensor, mor_coordinates,
    mor_from_coordinates, window_monomials, window_operator, window_slots,
)
from .linalg import sparse_rank, sparse_solve, sparse_transpose


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

    # the image of D that stays in degree <= c has dimension rank - high,
    # high being the rank of its part in degree > c
    dims = {c: tuple(size[p, c] - rank[p, c] - (rank[1 - p, c] - high[1 - p, c])
                     for p in (0, 1))
            for c in (cutoff, cutoff + 1)}
    return CohoReport(dims[cutoff], cutoff, dims[cutoff] == dims[cutoff + 1])


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
