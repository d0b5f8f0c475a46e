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

GrowingRref keeps a reduced form of a row space that grows by rows
and by columns (the graded pieces of an ideal, degree after degree)
without eliminating the whole matrix again: each batch of new rows is
reduced against the kept form, the remainder goes through rref with its
columns reversed, and the new pivots are cleared from the kept rows.
Pivoting on the newest column first pays when the kept rows are zero
on the columns just added (x-multiples of a lower degree on the x-free
monomials): a new pivot there needs no clearing, only one on an older
free column does.  quotient_projector() reads the projection onto the
quotient off the kept tails.  Both reductions are sparse combinations
of kept rows, one reduced product per nonzero coefficient, summed per
row; over GF(p) every summand is below p < 2^31, so a sum of fewer
than 2^32 of them is exact in int64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Field

Matrix = np.ndarray


@dataclass(frozen=True)
class RrefResult:
    """Reduced row echelon form: unit pivots, zeros above and below.

    matrix holds only the first `rank` rows of the reduced form (the
    nonzero rows); pivots are their pivot column indices, strictly
    increasing.  ncols is kept so an empty row space still knows its
    ambient dimension.
    """

    matrix: Matrix
    pivots: tuple[int, ...]
    rank: int
    ncols: int


def matrix_zeros(field: Field, rows: int, cols: int) -> Matrix:
    return np.full((rows, cols), field.zero(), dtype=field.dtype)


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
        below = np.nonzero(M[r + 1 :, c])[0]
        if below.size:
            _clear_column(M, r + 1 + below, r, c, field)
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


def rref(M: Matrix, field: Field) -> RrefResult:
    """Reduced row echelon form of a copy of M."""
    W = field.array(M)
    pivots = _forward_eliminate(W, field)
    _back_substitute(W, pivots, field)
    rank = len(pivots)
    return RrefResult(W[:rank].copy(), tuple(pivots), rank, M.shape[1])


def row_rank(M: Matrix, field: Field) -> int:
    """Rank via forward elimination only (no back substitution)."""
    return len(_forward_eliminate(field.array(M), field))


def null_space(R: RrefResult, field: Field) -> Matrix:
    """Canonical basis of the right kernel of the matrix reduced to R,
    rows = vectors; no elimination is run.

    One vector per free column j, with a 1 in position j and minus the
    reduced column j on the pivot positions.  The result is itself in
    reduced echelon form up to column permutation, hence deterministic.
    """
    pivots = set(R.pivots)
    free = [j for j in range(R.ncols) if j not in pivots]
    K = matrix_zeros(field, len(free), R.ncols)
    K[np.arange(len(free)), free] = field.one()
    if R.pivots and free:
        K[:, list(R.pivots)] = field.reduce(-R.matrix[:, free].T)
    return K


def kernel_basis(M: Matrix, field: Field) -> Matrix:
    """Canonical basis of the right kernel {v : M v = 0}, rows = vectors."""
    return null_space(rref(M, field), field)


def _subtract_combination(A: Matrix, C: Matrix, R: Matrix, field: Field) -> None:
    """A -= C @ R in place, for a sparse C: each nonzero C[i, t] adds
    one reduced product C[i, t] * R[t] to row i, and only the rows of A
    where C has a nonzero are rewritten."""
    rows, terms = np.nonzero(C)
    if rows.size == 0:
        return
    products = field.reduce(C[rows, terms][:, None] * R[terms])
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    touched = rows[starts]
    A[touched] = field.reduce(A[touched] - np.add.reduceat(products, starts, axis=0))


class GrowingRref:
    """Reduced echelon form of a row space that grows by rows and by
    columns, pivoting on the newest column first.

    Kept as pivot columns plus tails: kept row i has a 1 in column
    pivots[i], zeros on the other pivot columns and tails[i] on the
    free columns (increasing), nonzero only left of pivots[i].  That is
    the rref of the row space with its columns in reverse order, mapped
    back, whatever the order the rows came in; the rows are kept in the
    order they were found.
    """

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.pivots: list[int] = []
        self.free = np.arange(ncols)
        self.tails = matrix_zeros(field, 0, ncols)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def ncols(self) -> int:
        return len(self.pivots) + len(self.free)

    def add_columns(self, n: int) -> None:
        """Append n columns on the right, zero on every kept row."""
        start = self.ncols
        self.free = np.concatenate([self.free, np.arange(start, start + n)])
        self.tails = np.concatenate(
            [self.tails, matrix_zeros(self.field, self.rank, n)], axis=1
        )

    def add_rows(self, N: Matrix) -> Matrix:
        """Extend the row space by the rows of N: ncols wide, canonical
        entries in the field's dtype.  Returns N reduced modulo the kept
        form, on the columns that were free before the call: its left
        kernel is the combinations of N's rows that lie in the kept row
        space."""
        field = self.field
        block = N[:, self.free]
        _subtract_combination(block, N[:, self.pivots], self.tails, field)
        new = rref(block[:, ::-1], field)
        if new.rank == 0:
            return block
        cols = [len(self.free) - 1 - c for c in new.pivots]  # positions in self.free
        rows = new.matrix[:, ::-1]
        _subtract_combination(self.tails, self.tails[:, cols], rows, field)
        keep = np.ones(len(self.free), dtype=bool)
        keep[cols] = False
        self.pivots.extend(self.free[cols].tolist())
        self.free = self.free[keep]
        self.tails = np.concatenate([self.tails[:, keep], rows[:, keep]])
        return block

    def quotient_projector(self) -> Matrix:
        """Row c: e_c modulo the kept row space, on the free columns (a
        unit row, or minus the tail pivoting on c); null_space(form).T."""
        field = self.field
        Q = matrix_zeros(field, self.ncols, len(self.free))
        Q[self.free, np.arange(len(self.free))] = field.one()
        Q[self.pivots] = field.reduce(-self.tails)
        return Q
