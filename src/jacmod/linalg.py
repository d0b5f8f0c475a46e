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
every kernel basis) is reproducible bit for bit.
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
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
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
