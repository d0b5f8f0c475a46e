"""Exact dense linear algebra over GF(p) and the rationals.

Matrices are numpy arrays in the field's dtype: int64 with canonical
entries in [0, p) for GF(p), dtype object holding Fractions for the
rationals.  One code path serves both fields: every row operation is a
whole-array numpy expression, and Field.reduce brings its result back
to canonical form (mod p over GF(p), nothing to do over Q).  GF(p)
needs p < 2^31 so that one multiply-subtract on reduced entries stays
below 2^63.

Elimination is dense row-major with partial pivoting by column order,
ties broken by lowest row index, so every result (and in particular
every kernel basis) is reproducible bit for bit.  A run of columns
that are zero below the current row is crossed with one scan: a row
operation never makes such a column nonzero again.

rref and row_rank first peel the rows with one nonzero, in whole-array
passes (the singleton step of structured Gaussian elimination).  A row
whose one nonzero is at column c spans e_c, so e_c is a row of the
reduced form; clearing c from the other rows only zeroes their entry
there, which may leave more rows with one nonzero for the next pass.
The row space is then the span of the unit rows plus that of the rows
left, which are zero on the peeled columns, and so is their reduced
form: the unit rows and the reduced rows left, merged by pivot column.
The reduced form of a row space is unique, so the result is the one
the column loop alone would give, entry for entry.  Sparse blocks (the
sweep's remainders, the syzygy kernels) get most or all of their
pivots this way, and the column loop only sees the rows left.

GrowingRref keeps a reduced form of a row space that grows by rows
and by columns (the graded pieces of an ideal, degree after degree)
without eliminating the whole matrix again.  Its state is one
normal-form table Q, one row per column: e_c modulo the row space, on
the free columns.  A free column's row is a unit row and a pivot
column's row is minus the tail of the kept row pivoting there; Q is
also the projection onto the quotient.  A batch of new rows N reduces
to N @ Q; the caller (the Jacobian sweep, whose rows are sums of
shifted monomials) computes that as scaled contiguous slices of Q with
Field.add_combination and hands the result to add_reduced.  The
remainder goes through rref with its columns reversed; each new pivot
turns its unit row into minus its reduced row, updates the other pivot
rows as Q - Q[:, cols] @ rows and drops its column.  Pivoting on the
newest column first pays when the kept rows are zero on the columns
just added (x-multiples of a lower degree on the x-free monomials).  A
column added since the last new pivot is still a unit column of Q: zero
on every row but its own unit row, which its pivot overwrites.  So a
pivot there has no update term at all; the update gathers only the
pivots on older columns and is skipped when there are none.  On the
Jacobian sweep of a ladder curve or a line arrangement about nine new
pivots in ten land on such columns, and all of them do in 30% to 55% of
the degrees.  Such a column is also a trailing one, dropped without
moving the others.  Q lives in a buffer with room to grow, so adding
columns copies nothing either.

Every sum stays exact in int64 over GF(p).  A sparse combination adds
reduced products, each below p < 2^31, so a sum of fewer than 2^32 of
them is exact.  A slice sum (Field.add_combination) adds products of
signed coefficients, at most p/2 in size, and reduces only before the
sum of their sizes would let the accumulator reach 2^63.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .fields import Field

Matrix = np.ndarray


@dataclass(frozen=True)
class RrefResult:
    """Reduced row echelon form: unit pivots, zeros above and below.

    matrix holds only the nonzero rows of the reduced form, as wide as
    the matrix reduced; pivots are their pivot column indices, strictly
    increasing.
    """

    matrix: Matrix
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _clear_column(M: Matrix, targets: np.ndarray, r: int, c: int, field: Field) -> None:
    """Subtract from each target row its column-c multiple of the unit
    pivot row r, which is zero left of column c."""
    M[targets, c:] = field.reduce(M[targets, c:] - np.outer(M[targets, c], M[r, c:]))


def _forward_eliminate(M: Matrix, field: Field) -> list[int]:
    """In-place forward elimination; returns pivot column list.

    After the call, row i (i < rank) has a unit pivot at pivots[i] and
    zeros below every pivot.
    """
    rows, cols = M.shape
    pivots: list[int] = []
    r = c = 0
    while r < rows and c < cols:
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            live = np.flatnonzero(M[r:, c:].any(axis=0))
            if live.size == 0:
                break
            c += int(live[0])
            nz = np.nonzero(M[r:, c])[0]
        piv = r + int(nz[0])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        lead = M[r, c]
        if lead != 1:
            M[r, c:] = field.reduce(M[r, c:] * field.inv(lead))
        if nz.size > 1:  # rows r..piv-1 were zero in column c
            _clear_column(M, r + nz[1:], r, c, field)
        pivots.append(c)
        r += 1
        c += 1
    return pivots


def _back_substitute(M: Matrix, pivots: list[int], field: Field) -> None:
    """Clear entries above each pivot (rows already unit-normalized)."""
    for t in range(len(pivots) - 1, 0, -1):
        c = pivots[t]
        above = np.nonzero(M[:t, c])[0]
        if above.size:
            _clear_column(M, above, t, c, field)


def _peel(W: Matrix, field: Field) -> tuple[np.ndarray | tuple[()], Matrix]:
    """Peel the one-nonzero rows of W, pass after pass.

    A row whose one nonzero is at column c spans e_c, which is its
    reduced row; clearing c from every other row only zeroes that entry,
    and may leave further rows with one nonzero.  Returns the peeled
    columns, increasing (one unit row each), and the rows of W left
    nonzero, with those columns cleared: () and W itself if no row has
    one nonzero."""
    if not W.size:
        return (), W
    nonzero = W.astype(bool)
    counts = nonzero.sum(axis=1)
    single = (counts == 1).nonzero()[0]
    if single.size == 0:
        return (), W
    owner = np.full(W.shape[1], -1)  # column -> the row peeled there
    while single.size:
        cols = nonzero[single].nonzero()[1]  # one per row, in row order
        owner[cols] = single
        cols = cols[owner[cols] == single]  # one row per column
        counts -= nonzero[:, cols].sum(axis=1)
        nonzero[:, cols] = False
        single = (counts == 1).nonzero()[0]
    units = (owner >= 0).nonzero()[0]
    W = W[counts > 0]
    W[:, units] = field.zero()
    return units, W


def rref(M: Matrix, field: Field) -> RrefResult:
    """Reduced row echelon form of a copy of M: the unit rows peeled
    first, the rows left eliminated, the two merged by pivot column."""
    ncols = M.shape[1]
    units, W = _peel(field.array(M), field)
    found = _forward_eliminate(W, field)
    _back_substitute(W, found, field)
    rank = len(units) + len(found)
    if not len(units):
        return RrefResult(W[:rank].copy(), tuple(found))
    out = field.zeros((rank, ncols))
    if not found:  # every pivot peeled
        out[np.arange(rank), units] = field.one()
        return RrefResult(out, tuple(units.tolist()))
    is_pivot = np.zeros(ncols, dtype=bool)
    is_pivot[units] = True
    is_pivot[found] = True
    pivots = is_pivot.nonzero()[0]
    row = np.empty(ncols, dtype=np.intp)  # pivot column -> its row of the result
    row[pivots] = np.arange(rank)
    out[row[units], units] = field.one()
    out[row[found]] = W[: len(found)]
    return RrefResult(out, tuple(pivots.tolist()))


def row_rank(M: Matrix, field: Field) -> int:
    """Rank via forward elimination only (no back substitution), after
    peeling the unit rows."""
    units, W = _peel(field.array(M), field)
    return len(units) + len(_forward_eliminate(W, field))


def kernel_basis(M: Matrix, field: Field) -> Matrix:
    """Canonical basis of the right kernel {v : M v = 0}, rows = vectors,
    read off the rref of M.

    One vector per free column j, with a 1 in position j and minus the
    reduced column j on the pivot positions.  The result is itself in
    reduced echelon form up to column permutation, hence deterministic.
    """
    R, ncols = rref(M, field), M.shape[1]
    pivots = set(R.pivots)
    free = [j for j in range(ncols) if j not in pivots]
    K = field.zeros((len(free), ncols))
    K[np.arange(len(free)), free] = field.one()
    if R.pivots and free:
        K[:, list(R.pivots)] = field.reduce(-R.matrix[:, free].T)
    return K


def _add_combination(A: Matrix, C: Matrix, R: Matrix, field: Field) -> None:
    """A += C @ R in place, for a sparse C: each nonzero C[i, t] adds
    one reduced product C[i, t] * R[t] to row i, and only the rows of A
    where C has a nonzero are rewritten."""
    rows, terms = np.nonzero(C)
    if rows.size == 0:
        return
    products = field.reduce(C[rows, terms][:, None] * R[terms])
    new_row = np.empty(rows.size, dtype=bool)
    new_row[0] = True
    np.not_equal(rows[1:], rows[:-1], out=new_row[1:])
    starts = np.flatnonzero(new_row)
    if starts.size < rows.size:  # some row has more than one term
        products = np.add.reduceat(products, starts, axis=0)
    touched = rows[starts]
    A[touched] = field.reduce(A[touched] + products)


class GrowingRref:
    """Reduced echelon form of a row space that grows by rows and by
    columns, pivoting on the newest column first.

    The state is the normal-form table: row c is e_c modulo the row
    space, on the free columns (increasing).  A free column's row is a
    unit row; a pivot column's row is minus the tail of the kept row
    pivoting there, which has a 1 in that column, zeros on the other
    pivot columns and is nonzero only left of its pivot.  That is the
    rref of the row space with its columns in reverse order, mapped
    back, whatever the order the rows came in; pivots lists the pivot
    columns in the order they were found.  The table is also the
    projection onto the quotient: kernel_basis(form).T.

    _fresh counts the trailing free columns added since the last new
    pivot: those are still unit columns of the table, so add_reduced
    needs no update term for a pivot on one of them.
    """

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.pivots: list[int] = []
        self.free = np.arange(ncols)
        self._fresh = ncols
        self._buffer = field.zeros((ncols, ncols))
        self._buffer[self.free, self.free] = field.one()

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def ncols(self) -> int:
        return len(self.pivots) + len(self.free)

    @property
    def table(self) -> Matrix:
        """The normal-form table, ncols x len(free): a view, changed by
        the next add_columns or add_reduced."""
        return self._buffer[: self.ncols, : len(self.free)]

    def add_columns(self, n: int) -> None:
        """Append n columns on the right, zero on every kept row: n
        unit rows and n columns of the table."""
        rows, cols = self.ncols, len(self.free)
        buffer = self._reserve(rows + n, cols + n)
        zero = self.field.zero()
        buffer[:rows, cols : cols + n] = zero
        buffer[rows : rows + n, : cols + n] = zero
        buffer[rows + np.arange(n), cols + np.arange(n)] = self.field.one()
        self.free = np.concatenate([self.free, np.arange(rows, rows + n)])
        self._fresh += n

    def _reserve(self, rows: int, cols: int) -> Matrix:
        """The buffer, reallocated if it has fewer than rows rows or
        cols columns.  Rows grow by half and columns by an eighth: every
        written row is as wide as the buffer, so spare columns cost
        memory on every row."""
        have_rows, have_cols = self._buffer.shape
        if rows > have_rows or cols > have_cols:
            grown = self.field.zeros(
                (
                    have_rows if rows <= have_rows else max(rows, have_rows + have_rows // 2),
                    have_cols if cols <= have_cols else max(cols, have_cols + have_cols // 8),
                )
            )
            grown[: self.ncols, : len(self.free)] = self.table
            self._buffer = grown
        return self._buffer

    def add_reduced(self, block: Matrix) -> None:
        """Extend the row space by rows given already reduced modulo the
        kept form, on the free columns (N @ table for rows N).

        The block goes through rref with its columns reversed.  Each of
        its reduced rows pivots on a free column, whose unit row in the
        table becomes minus that reduced row; every pivot column's row t
        becomes t - t[cols] @ rows, cols the new pivot positions; then
        the new pivot columns leave the table.  A column among the
        _fresh ones is zero on every row but its own unit row, which is
        overwritten, so its term of the update is zero: only the pivots
        on older columns, the last ones of cols (which decrease), enter
        the update, and none may."""
        if not block.size:  # no row, or no free column left
            return
        field = self.field
        new = rref(block[:, ::-1], field)
        if new.rank == 0:
            return
        width = len(self.free)
        cols = [width - 1 - c for c in new.pivots]  # positions in self.free, decreasing
        units = self.free[cols]
        table = self.table
        negated = field.reduce(-new.matrix[:, ::-1])
        # the reversed block's first _fresh columns are the fresh ones
        old = bisect_left(new.pivots, self._fresh)
        if old < new.rank:  # some pivot is on an older column
            C = table[:, cols[old:]]
            C[units[old:], np.arange(new.rank - old)] = field.zero()  # overwritten below
            _add_combination(table, C, negated[old:], field)
        table[units] = negated
        self.pivots.extend(units.tolist())
        self._fresh = 0
        first = cols[-1]
        if first == width - new.rank:  # only trailing columns drop
            self.free = self.free[:first]
            return
        keep = np.ones(width, dtype=bool)
        keep[cols] = False
        table[:, first : width - new.rank] = table[:, first:][:, keep[first:]]
        self.free = self.free[keep]
