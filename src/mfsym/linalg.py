"""Exact sparse linear algebra over the scalar field.

Rows (or columns) are dicts mapping a sortable key to a ``Scalar``; zero
values count as absent.  Every elimination of the package runs on one
forward elimination, ``_echelon``, which pivots on the smallest key of
each row; ``_inverse`` calls it directly, everything else through
``sparse_echelon``.  It continues on pivots handed back, and then the
pivots on keys below k are the rank of all rows so far projected onto
those keys (the rank profile; Dumas, Pernet and Sultan, ISSAC 2013).
Rational rows run as primitive int rows, fraction-free (Bareiss 1968), the
rest as monic Scalar rows: a pivot row is fixed up to a factor (``_ratio``).
A pivot row with one entry clears its column from a row by deleting that
key, with no product, on either lane.  ``sparse_rank`` eliminates the
shortest rows first, so one-entry rows become pivots before the rows they
clear (structured Gaussian elimination; LaMacchia and Odlyzko, 1990); a
rank does not depend on row order.

A constant matrix is a sequence of such rows, keyed by column; its sum,
product, inverse and scaled identity below touch only the nonzero
entries, and a failing identity of such blocks names their least nonzero
entry.  The product takes polynomial values too: it is the package's one
matrix product, which mf uses for every product of polynomial blocks.
"""

from __future__ import annotations

from math import gcd, lcm

from .scalars import Scalar, _rational


def _ratio(x, y):
    """x / y as a Scalar, for two values of one pivot row."""
    if x.__class__ is int:
        return _rational(1, x, y) if y > 0 else _rational(1, -x, -y)
    return x * y.inverse()


def _primitive(row):
    """row, with int values, divided in place by their gcd."""
    if (g := gcd(*row.values())) > 1:
        for k in row:
            row[k] //= g
    return row


def _integer_row(row):
    """The primitive integer row on the line of row, without its zeros, or
    None if a value is not rational.  Reads each value's slots once."""
    out, dens = {}, []
    for k, v in row.items():
        if not v._rat:
            return None
        if n := v._num[0]:
            out[k] = n
            dens.append(v._den)
    if (den := lcm(*dens)) > 1:
        for k, d in zip(out, dens):
            out[k] *= den // d
    return _primitive(out)


def _clear(row, prow, lead):
    """row <- a * row - b * prow, in place, for a and b that clear column lead:
    on int rows the coprime pair with a > 0, then made primitive; else a = 1."""
    b = row[lead]
    integer = b.__class__ is int
    if integer:
        a = prow[lead]
        g = gcd(a, b) if a > 0 else -gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            for k in row:
                row[k] *= a
    for k, v in prow.items():
        new = row[k] - b * v if k in row else -(b * v)
        if new.is_zero() if not integer else not new:
            del row[k]
        else:
            row[k] = new
    if integer:
        _primitive(row)


def _echelon(rows, pivots=None):
    """Forward elimination, continued in place on pivots if given; returns
    {pivot_col: pivot row dict}, each row reduced by the rows before.  The
    first non-rational row turns int pivot rows into monic Scalar rows."""
    pivots = {} if pivots is None else pivots
    integer = all(row[lead].__class__ is int for lead, row in pivots.items())
    for row in rows:
        if integer and (new := _integer_row(row)) is None:
            integer = False
            for lead, prow in pivots.items():
                pivots[lead] = {k: _ratio(v, prow[lead]) for k, v in prow.items()}
        if not integer:
            new = {k: v for k, v in row.items() if not v.is_zero()}
        dropped = False
        while new:
            lead = min(new)
            prow = pivots.get(lead)
            if prow is None:
                if not integer:
                    c = new[lead].inverse()
                    new = {k: v * c for k, v in new.items()}
                elif dropped:  # a deleted key can leave a common factor
                    _primitive(new)
                pivots[lead] = new
                break
            if len(prow) == 1:
                del new[lead]
                dropped = True
            else:
                _clear(new, prow, lead)
    return pivots


def sparse_echelon(rows, pivots=None):
    """_echelon, continuing pivots if given.  Rank and cohomology go
    through this public name, so perfbench's tracer sees their
    eliminations and none of _inverse's."""
    return _echelon(rows, pivots)


def sparse_rank(rows) -> int:
    """The rank, eliminated shortest row first."""
    return len(sparse_echelon(sorted(rows, key=len)))


def _inverse(rows, transposed=False):
    """The inverse of the square matrix with these sparse rows, as rows (of
    its transpose if transposed), or None if it is singular: [I | A^-1] up
    to row factors, back-substituted from the forward echelon of [A | I]."""
    n, one = len(rows), Scalar.one()
    pivots = _echelon([{**row, n + r: one} for r, row in enumerate(rows)])
    if any(lead >= n for lead in pivots):
        return None
    for lead in range(n - 1, 0, -1):
        for other in range(lead):
            if lead in pivots[other]:
                _clear(pivots[other], pivots[lead], lead)
    out = [{} for _ in rows]
    for r, row in pivots.items():
        for c, v in row.items():
            if c >= n:
                i, j = (c - n, r) if transposed else (r, c - n)
                out[i][j] = _ratio(v, row[r])
    return out


def _elem_add(acc: dict, subset, c: Scalar) -> None:
    cur = acc.get(subset)
    new = c if cur is None else cur + c
    if new.is_zero():
        acc.pop(subset, None)
    else:
        acc[subset] = new


def _sparse_mul(a: list[dict], b: list[dict], acc: list[dict] | None = None) -> list[dict]:
    """The product a b of sparse-row blocks, added onto acc when given."""
    out = [{} for _ in a] if acc is None else acc
    for row, orow in zip(a, out):
        for k, x in row.items():
            for c, y in b[k].items():
                _elem_add(orow, c, x * y)
    return out


def _sparse_scaled_identity(c: Scalar, n: int) -> list[dict]:
    return [{r: c} if not c.is_zero() else {} for r in range(n)]


def _least_term(blocks, exponent):
    """The least (block, row, col, exponent, value) over the nonzero entries
    of a sequence of sparse-row blocks, or None if every block is zero: the
    term of a failing Verdict on constant blocks, at the given exponent."""
    return min(((p, r, c, exponent, v) for p, blk in enumerate(blocks)
                for r, row in enumerate(blk) for c, v in row.items()), default=None)
