"""Row-space membership by direct reduction against a reduced form, and
the reduced forms the elimination results are compared with: an
independent reference for tests of the elimination results."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from jacmod.fields import Field
from jacmod.linalg import GrowingRref, Matrix, RrefResult, rref


_to_fraction = np.frompyfunc(Fraction, 1, 1)


def canonical(M, field: Field) -> Matrix:
    """Copy of the matrix M with canonical entries in field.dtype."""
    if field.p is not None:
        return np.asarray(M, dtype=np.int64) % field.p
    # Macaulay matrices are mostly zero: convert only the nonzeros
    M = np.asarray(M)
    out = np.full(M.shape, Fraction(0), dtype=object)
    nonzero = np.nonzero(M)
    out[nonzero] = _to_fraction(M[nonzero])
    return out


def reversed_rref(M: Matrix, field: Field) -> RrefResult:
    """The rref of M with its columns in reverse order, mapped back: each
    row's pivot is its rightmost nonzero column, rows sorted by pivot."""
    R = rref(M[:, ::-1], field)
    n = M.shape[1]
    pivots = tuple(n - 1 - c for c in reversed(R.pivots))
    return RrefResult(R.matrix[::-1, ::-1].copy(), pivots)


def kept_form(grown: GrowingRref) -> RrefResult:
    """The reduced form a GrowingRref keeps, read off its normal-form
    table (a pivot column's row is minus the tail of the kept row
    pivoting there), as a dense matrix with its rows sorted by pivot
    column."""
    pivots = np.sort(np.array(grown.pivots, dtype=np.intp))
    M = grown.field.zeros((grown.rank, grown.ncols))
    M[np.arange(grown.rank), pivots] = grown.field.entry(1)
    M[:, grown.free] = grown.field.reduce(-grown.table[pivots])
    return RrefResult(M, tuple(pivots.tolist()))


def add_rows(grown: GrowingRref, N: Matrix) -> Matrix:
    """Extend the row space kept by grown by the rows of N (ncols wide,
    canonical entries) and return N reduced modulo the form kept before
    the call, N @ table, on the columns free before it: its left kernel
    is the combinations of N's rows that lie in that row space.  The
    product is taken over Python integers (or Fractions) and then
    reduced, so it is exact for every prime the int64 engine takes."""
    field = grown.field
    block = field.reduce(N.astype(object) @ grown.table.astype(object)).astype(field.dtype)
    grown.add_reduced(block)
    return block


def null_space(R: RrefResult, field: Field) -> Matrix:
    """Canonical basis of the right kernel of the matrix reduced to R,
    rows = vectors, with no elimination: one vector per free column j,
    a 1 in position j and minus the reduced column j on the pivot
    positions."""
    ncols = R.matrix.shape[1]
    free = [j for j in range(ncols) if j not in R.pivots]
    K = field.zeros((len(free), ncols))
    K[np.arange(len(free)), free] = field.entry(1)
    if R.pivots and free:
        K[:, list(R.pivots)] = field.reduce(-R.matrix[:, free].T)
    return K


def in_row_space(R: RrefResult, v: Matrix, field: Field) -> bool:
    """Membership of vector v in the row space described by R: unit
    pivots, each zero on the other pivot columns."""
    w = canonical(v, field)
    for i, c in enumerate(R.pivots):
        if w[c] != 0:
            w = field.reduce(w - w[c] * R.matrix[i])
    return not np.any(w != 0)


def rows_in_row_space(R: RrefResult, V: Matrix, field: Field) -> bool:
    """All rows of V lie in the row space described by R."""
    return all(in_row_space(R, V[i], field) for i in range(V.shape[0]))
