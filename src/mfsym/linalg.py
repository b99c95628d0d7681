"""Exact sparse linear algebra over the scalar field or the rationals.

Rows (or columns) are dicts mapping a sortable key to a nonzero
coefficient.  Every routine here runs on one forward elimination,
sparse_echelon, which pivots on the smallest key of each row.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar


def _sparse_ops(rows):
    for row in rows:
        for c in row.values():
            if isinstance(c, Scalar):
                return (lambda x: x.is_zero()), (lambda x: x.inverse())
            return (lambda x: x == 0), (lambda x: Fraction(1) / x)
    return (lambda x: x == 0), (lambda x: Fraction(1) / x)


def _sparse_axpy(row, coeff, prow, is_zero):
    """row -= coeff * prow, in place on a copy-free dict."""
    for col, val in prow.items():
        cur = row.get(col)
        new = (cur - coeff * val) if cur is not None else -(coeff * val)
        if is_zero(new):
            row.pop(col, None)
        else:
            row[col] = new


def sparse_echelon(rows):
    """Forward elimination; returns {pivot_col: normalized row dict}."""
    is_zero, inv = _sparse_ops(rows)
    pivots: dict = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            if lead not in pivots:
                c = inv(row[lead])
                row = {k: v * c for k, v in row.items()}
                pivots[lead] = row
                break
            _sparse_axpy(row, row[lead], pivots[lead], is_zero)
    return pivots


def sparse_rank(rows) -> int:
    return len(sparse_echelon(rows))


def sparse_transpose(columns) -> list[dict]:
    """The rows of the matrix whose j-th column is columns[j], keyed by j."""
    rows: dict = {}
    for j, col in enumerate(columns):
        for key, v in col.items():
            rows.setdefault(key, {})[j] = v
    return list(rows.values())


def _reduced_echelon(rows):
    """sparse_echelon followed by back-substitution: each pivot column is
    zero in every other pivot row."""
    is_zero, _ = _sparse_ops(rows)
    pivots = sparse_echelon(rows)
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for other_lead, other in pivots.items():
            if other_lead >= lead:
                continue
            c = other.get(lead)
            if c is not None and not is_zero(c):
                _sparse_axpy(other, c, row, is_zero)
    return pivots


def sparse_nullspace(rows, width, zero, one):
    """Kernel basis (list of dense lists) of the sparse constraint rows."""
    pivots = _reduced_echelon(rows)
    basis = []
    for fcol in range(width):
        if fcol in pivots:
            continue
        vec = [zero] * width
        vec[fcol] = one
        for lead, row in pivots.items():
            c = row.get(fcol)
            if c is not None:
                vec[lead] = -c
        basis.append(vec)
    return basis


def sparse_solve(rows, rhs_col, width, zero):
    """Solve the homogeneous system on the extended vector (x, 1): each row
    encodes sum a_j x_j + row[rhs_col] = 0; returns a dense solution list
    (free variables set to zero) or None if inconsistent."""
    pivots = _reduced_echelon(rows)
    if rhs_col in pivots:
        return None  # inconsistent: a pivot in the augmented column
    x = [zero] * width
    for lead, row in pivots.items():
        val = row.get(rhs_col)
        if val is not None:
            x[lead] = -val
    return x
