"""Exact sparse linear algebra over the scalar field.

Rows (or columns) are dicts mapping a sortable key to a nonzero
``Scalar``.  Every elimination of the package runs on one forward
elimination, ``_echelon``, which pivots on the smallest key of each row;
``mf``'s determinants and inverses call it directly, everything else
through ``sparse_echelon``.  It continues on pivots handed back, and then
the pivots on keys below k are the rank of all rows so far projected onto
those keys (the rank profile; Dumas, Pernet and Sultan, ISSAC 2013).
"""

from __future__ import annotations

from .scalars import Scalar


def _sparse_axpy(row, coeff, prow):
    """row -= coeff * prow, in place on a copy-free dict."""
    for col, val in prow.items():
        cur = row.get(col)
        new = (cur - coeff * val) if cur is not None else -(coeff * val)
        if new.is_zero():
            row.pop(col, None)
        else:
            row[col] = new


def _echelon(rows, pivots=None):
    """Forward elimination, continued in place on pivots if given; returns
    {pivot_col: normalized row dict}, each row reduced by the rows before."""
    pivots = {} if pivots is None else pivots
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            if lead not in pivots:
                c = row[lead].inverse()
                row = {k: v * c for k, v in row.items()}
                pivots[lead] = row
                break
            _sparse_axpy(row, row[lead], pivots[lead])
    return pivots


def sparse_echelon(rows, pivots=None):
    """_echelon, continuing pivots if given.  Rank, solve and cohomology go
    through this public name, so perfbench's tracer sees their
    eliminations and none of mf's."""
    return _echelon(rows, pivots)


def sparse_rank(rows) -> int:
    return len(sparse_echelon(rows))


def sparse_transpose(columns) -> list[dict]:
    """The rows of the matrix whose j-th column is columns[j], keyed by j."""
    rows: dict = {}
    for j, col in enumerate(columns):
        for key, v in col.items():
            rows.setdefault(key, {})[j] = v
    return list(rows.values())


def _back_substitute(pivots):
    """Clear each pivot column from every other pivot row, in place, so
    forward-eliminated pivots become the reduced echelon form."""
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for other_lead, other in pivots.items():
            if other_lead < lead and lead in other:
                _sparse_axpy(other, other[lead], row)
    return pivots


def sparse_solve(rows, rhs_col, width):
    """Solve the homogeneous system on the extended vector (x, 1): each row
    encodes sum a_j x_j + row[rhs_col] = 0; returns a dense solution list
    (free variables set to zero) or None if inconsistent."""
    pivots = _back_substitute(sparse_echelon(rows))
    if rhs_col in pivots:
        return None  # inconsistent: a pivot in the augmented column
    x = [Scalar.zero()] * width
    for lead, row in pivots.items():
        val = row.get(rhs_col)
        if val is not None:
            x[lead] = -val
    return x
