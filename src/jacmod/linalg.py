"""Exact dense linear algebra over GF(p) and the rationals.

Matrices are numpy arrays in the field's dtype: int64 with canonical
entries in [0, p) for GF(p), dtype object holding Fractions for the
rationals.  One code path serves both fields: every row operation is a
whole-array numpy expression, Field.reduce brings its result back to
canonical form (mod p over GF(p), nothing to do over Q), and the two
inner loops, the column loop and the table update, are Field kernels
(Field.gauss_jordan, Field.add_product), so nothing here branches on
the field.  GF(p) needs p < 2^31 so that one multiply-subtract on
reduced entries stays below 2^63.  rref, row_rank and kernel_basis
take their input in that form, as every caller builds it, so they
work on a plain copy: reducing it again would spend one hardware
division per entry on data already canonical.  A negation is
Field.negate, p - A with zeros kept, again with no division.

Elimination is dense row-major, one Gauss-Jordan pass
(Field.gauss_jordan): pivots by column order, ties broken by lowest
row index, each pivot row scaled to a unit and clearing its column
from every other row at once, so every result (and in particular
every kernel basis) is reproducible bit for bit.  A run of columns
that are zero below the current row is crossed with one scan: a row
operation never makes such a column nonzero again.  row_rank runs
the same pass.

rref and row_rank first peel the rows with one nonzero, in whole-array
passes (the singleton step of structured Gaussian elimination).  A row
whose one nonzero is at column c spans e_c, so e_c is a row of the
reduced form; clearing c from the other rows only zeroes their entry
there, which may leave more rows with one nonzero for the next pass.
The row space is then the span of the unit rows plus that of the rows
left, which are zero on the peeled columns, and so is their reduced
form: the unit rows and the reduced rows left, merged by pivot column.
The reduced form of a row space is unique, so the result is the one
the column loop alone would give, entry for entry.

Then the rows whose lead (first nonzero) column holds no other row's
nonzero are set aside, in one whole-array pass (the matching
column-singleton step of structured Gaussian elimination; LaMacchia
and Odlyzko, "Solving large sparse linear systems over finite fields",
CRYPTO '90).  Only the rows left go through the column loop.  A
set-aside row r with lead column c keeps c as a pivot of the reduced
form, and no other row needs clearing there: every other row is zero
at c, and row operations among them keep it so.  After the loop the
set-aside rows are cleared at the loop's pivot columns in one product,
A - A[:, found] @ loop rows (Field.add_product; each loop row is zero
at c and left of its own pivot, so this leaves r's lead and the
columns left of it alone, and r is zero at the other set-aside rows'
leads), then each is divided by its lead.  The
unit rows, the set-aside rows and the loop's rows, merged by pivot
column, are then in reduced form, so again the result is the one the
column loop alone gives.  Sparse blocks (the sweep's remainders, the
syzygy kernels) get most or all of their pivots from these two steps:
on the sweep of a ladder curve no row reaches the column loop at all.

GrowingRref keeps a reduced form of a row space that grows by rows
and by columns (the graded pieces of an ideal, degree after degree)
without eliminating the whole matrix again.  Its state is one
normal-form table Q, one row per column: e_c modulo the row space, on
the free columns.  A free column's row is a unit row and a pivot
column's row is minus the tail of the kept row pivoting there; Q is
also the projection onto the quotient.  A batch of new rows N reduces
to N @ Q; the caller (the Jacobian sweep, whose rows are sums of
shifted monomials) computes that as sums of scaled contiguous slices
of Q with Field.slice_sums and hands the result to add_reduced.  The
remainder goes through rref with its columns reversed; each new pivot
turns its unit row into minus its reduced row, updates the other pivot
rows as Q - Q[:, cols] @ rows and drops its column.  Pivoting on the
newest column first pays when the kept rows are zero on the columns
just added (x-multiples of a lower degree on the x-free monomials).  A
column added since the last new pivot is still a unit column of Q: zero
on every row but its own unit row, which its pivot overwrites.  So a
pivot there has no update term at all; the update gathers only the
pivots on older columns and is skipped when there are none.  Such a
column is also a trailing one, dropped without moving the others.  Q
lives in a buffer with room to grow, so adding columns copies nothing
either.

Row t of Q is nonzero only on free columns c <= t: a free column's row
is its unit row, and a pivot column's row is nonzero only left of its
pivot.  add_reduced keeps this: a new pivot's row becomes minus a
reduced row that is nonzero only left of its pivot, and the update adds
to row t multiples of such rows only for pivots u <= t where row t is
nonzero.  So the rows above the lowest new pivot column u are zero on
u and on every free column right of it: the update gathers and adds
only from row u down, and dropping the pivot columns moves entries only
on those rows.

A finished GrowingRref hands its buffer back as the spare of its dtype,
one per process, and the next one takes it when it has room for the
first table; the buffer keeps its shape.  A sweep in a warm process then
writes into pages it has written before and grows only past the largest
table the process has held, where it copies into a new buffer as
before.  Nothing reads the buffer outside the table: __init__ zeroes
the first table and add_columns every stripe and row it adds, so what a
previous sweep left there is never seen.  The spare is taken with
dict.pop and put back with one assignment, so no two threads hold one
buffer; a forked process inherits it copy-on-write.

Every sum stays exact in int64 over GF(p): the column loop
(Field.gauss_jordan), the table update (Field.add_product, also the
clearing of the set-aside rows) and the slice sums (Field.slice_sums)
each prove their bound below 2^63 where they are defined.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .fields import Field

Matrix = np.ndarray

# dtype -> the table buffer a finished GrowingRref handed back, for the
# next one in this process to take (module docstring)
_spare: dict[np.dtype, Matrix] = {}


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


def _peel(W: Matrix, field: Field) -> tuple[np.ndarray, Matrix, np.ndarray]:
    """Peel the one-nonzero rows of W, pass after pass.

    A row whose one nonzero is at column c spans e_c, which is its
    reduced row; clearing c from every other row only zeroes that entry,
    and may leave further rows with one nonzero.  Returns the peeled
    columns, increasing (one unit row each), the rows of W left nonzero,
    with those columns cleared, and where those rows are nonzero.  With
    no row to peel and none zero, W comes back as it is, with an empty
    index array of peeled columns."""
    nonzero = W.astype(bool)
    counts = nonzero.sum(axis=1)
    single = (counts == 1).nonzero()[0]
    if not single.size and counts.all():  # nothing to peel or drop
        return single, W, nonzero
    owner = np.full(W.shape[1], -1)  # column -> the row peeled there
    while single.size:
        cols = nonzero[single].nonzero()[1]  # one per row, in row order
        owner[cols] = single
        cols = cols[owner[cols] == single]  # one row per column
        counts -= nonzero[:, cols].sum(axis=1)
        nonzero[:, cols] = False
        single = (counts == 1).nonzero()[0]
    units = (owner >= 0).nonzero()[0]
    left = counts > 0
    if not left.all():
        W, nonzero = W[left], nonzero[left]
    W[:, units] = field.entry(0)
    return units, W, nonzero


def _split(M: Matrix, field: Field) -> tuple[np.ndarray, Matrix, np.ndarray, Matrix]:
    """A plain copy of M, canonical already, in three parts: the columns
    of its unit rows (peeled), the rows whose lead column no other row
    touches, with their lead columns (set aside), and the rows left for
    the column loop.  None of the rows is zero, and every one is zero on
    the peeled columns."""
    units, W, nonzero = _peel(M.copy(), field)
    if not W.size:
        return units, W, np.zeros(0, dtype=np.intp), W
    lead = nonzero.argmax(axis=1)  # no row is zero: its first nonzero
    aside = (nonzero.sum(axis=0) == 1)[lead]
    if not aside.any():
        return units, W[:0], lead[:0], W
    return units, W[aside], lead[aside], W[~aside]


def rref(M: Matrix, field: Field) -> RrefResult:
    """Reduced row echelon form of a copy of M, whose entries must be
    canonical in the field's dtype: the unit rows peeled and the
    lone-lead rows set aside first, the rows left eliminated, the
    set-aside rows cleared at their pivots and scaled, and the three
    merged by pivot column."""
    ncols = M.shape[1]
    units, A, leads, W = _split(M, field)
    found = field.gauss_jordan(W)
    rank = len(units) + len(leads) + len(found)
    if rank == len(found):
        return RrefResult(W[:rank].copy(), tuple(found))
    if len(leads):
        if found:  # W's rows are zero on the lead columns
            field.add_product(A, field.negate(A[:, found]), W[: len(found)])
        A = field.reduce(A * field.inverses(A[np.arange(len(leads)), leads])[:, None])
    is_pivot = np.zeros(ncols, dtype=bool)
    for cols in (units, leads, found):
        is_pivot[cols] = True
    pivots = is_pivot.nonzero()[0]
    row = np.empty(ncols, dtype=np.intp)  # pivot column -> its row of the result
    row[pivots] = np.arange(rank)
    out = field.zeros((rank, ncols))
    out[row[units], units] = field.entry(1)
    out[row[leads]] = A
    out[row[found]] = W[: len(found)]
    return RrefResult(out, tuple(pivots.tolist()))


def row_rank(M: Matrix, field: Field) -> int:
    """Rank of M, with canonical entries in the field's dtype: the
    column loop's rank on the rows neither peeled nor set aside, which
    each add one."""
    units, _, leads, W = _split(M, field)
    return len(units) + len(leads) + len(field.gauss_jordan(W))


def kernel_basis(M: Matrix, field: Field) -> Matrix:
    """Canonical basis of the right kernel {v : M v = 0}, rows = vectors,
    read off the rref of M (canonical entries in the field's dtype).

    One vector per free column j, with a 1 in position j and minus the
    reduced column j on the pivot positions.  The result is itself in
    reduced echelon form up to column permutation, hence deterministic.
    """
    R, ncols = rref(M, field), M.shape[1]
    pivots = set(R.pivots)
    free = [j for j in range(ncols) if j not in pivots]
    K = field.zeros((len(free), ncols))
    K[np.arange(len(free)), free] = field.entry(1)
    if R.pivots and free:
        K[:, list(R.pivots)] = field.negate(R.matrix[:, free].T)
    return K


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

    The table is the top-left corner of a buffer, the process's spare
    one when it has room for the first table (module docstring).
    Correctness needs no zeros outside the table: __init__ zeroes its
    first table, add_columns zeroes every stripe and row it adds, and
    nothing reads the rest.  release() hands the buffer back.
    """

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.pivots: list[int] = []
        self.free = np.arange(ncols)
        self._fresh = ncols
        buffer = _spare.pop(np.dtype(field.dtype), None)
        if buffer is None or min(buffer.shape) < ncols:
            buffer = field.zeros((ncols, ncols))
        else:
            buffer[:ncols, :ncols] = field.entry(0)
        buffer[self.free, self.free] = field.entry(1)
        self._buffer = buffer

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

    def release(self) -> None:
        """Hand the buffer back as the process's spare for its dtype,
        unless the spare there is larger; the form is unusable after.
        Two threads releasing at once may keep the smaller buffer, but
        never hand one buffer to two sweeps."""
        buffer, self._buffer = self._buffer, None
        spare = _spare.get(buffer.dtype)
        if spare is None or spare.size < buffer.size:
            _spare[buffer.dtype] = buffer

    def add_columns(self, n: int) -> None:
        """Append n columns on the right, zero on every kept row: n
        unit rows and n columns of the table."""
        rows, cols = self.ncols, len(self.free)
        buffer = self._reserve(rows + n, cols + n)
        zero = self.field.entry(0)
        buffer[:rows, cols : cols + n] = zero
        buffer[rows : rows + n, : cols + n] = zero
        buffer[rows + np.arange(n), cols + np.arange(n)] = self.field.entry(1)
        self.free = np.concatenate([self.free, np.arange(rows, rows + n)])
        self._fresh += n

    def _reserve(self, rows: int, cols: int) -> Matrix:
        """The buffer, reallocated if it has fewer than rows rows or
        cols columns.  Rows grow by half and columns by an eighth: every
        written row is as wide as the buffer, so spare columns cost
        memory on every row.  The table is copied over and the old
        buffer dropped, so a buffer taken from the spare is reallocated
        only past the largest table this process has held."""
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
        negated = field.negate(new.matrix[:, ::-1])
        # the reversed block's first _fresh columns are the fresh ones
        old = bisect_left(new.pivots, self._fresh)
        # rows above the lowest new pivot column are zero from its
        # position on (module docstring): units decrease
        low, first = units[-1], cols[-1]
        if old < new.rank:  # some pivot is on an older column
            C = table[low:, cols[old:]]
            C[units[old:] - low, np.arange(new.rank - old)] = field.entry(0)  # overwritten below
            field.add_product(table[low:], C, negated[old:])
        table[units] = negated
        self.pivots.extend(units.tolist())
        self._fresh = 0
        if first == width - new.rank:  # only trailing columns drop
            self.free = self.free[:first]
            return
        keep = np.ones(width, dtype=bool)
        keep[cols] = False
        table[low:, first : width - new.rank] = table[low:, first:][:, keep[first:]]
        self.free = self.free[keep]
