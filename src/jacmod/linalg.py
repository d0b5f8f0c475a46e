"""Exact dense linear algebra over GF(p) and the rationals.

Matrices are numpy arrays: dtype int64 with canonical entries in
[0, p) for GF(p), dtype object holding Fractions for the rationals.
Elimination is dense row-major with partial pivoting by column order,
ties broken by lowest row index, so every result (and in particular
every kernel basis) is reproducible bit for bit.

GF(p) row updates stay inside int64: entries are < 2^31, one
multiply-subtract stays below 2^63, and rows are reduced mod p after
every pivot step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    if field.kind == "gfp":
        return np.zeros((rows, cols), dtype=np.int64)
    M = np.empty((rows, cols), dtype=object)
    M[:] = Fraction(0)
    return M


def _forward_eliminate(M: Matrix, field: Field):
    """In-place forward elimination; returns pivot column list.

    After the call, row i (i < rank) has a unit pivot at pivots[i] and
    zeros below every pivot.
    """
    rows, cols = M.shape
    gfp = field.kind == "gfp"
    p = field.p
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = M[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        lead = M[r, c]
        if gfp:
            if lead != 1:
                M[r, c:] = (M[r, c:] * pow(int(lead), p - 2, p)) % p
            below = M[r + 1 :, c]
            nzb = np.nonzero(below)[0]
            if nzb.size:
                idx = r + 1 + nzb
                M[idx, c:] = (M[idx, c:] - np.outer(M[idx, c], M[r, c:])) % p
        else:
            if lead != 1:
                M[r, c:] = M[r, c:] * (Fraction(1) / lead)
            below = M[r + 1 :, c]
            nzb = np.nonzero(below)[0]
            if nzb.size:
                idx = r + 1 + nzb
                M[idx, c:] = M[idx, c:] - np.outer(M[idx, c], M[r, c:])
        pivots.append(c)
        r += 1
    return pivots


def _back_substitute(M: Matrix, pivots: list[int], field: Field) -> None:
    """Clear entries above each pivot (rows already unit-normalized)."""
    gfp = field.kind == "gfp"
    p = field.p
    for t in range(len(pivots) - 1, 0, -1):
        c = pivots[t]
        above = M[:t, c]
        nz = np.nonzero(above)[0]
        if nz.size == 0:
            continue
        if gfp:
            M[nz, c:] = (M[nz, c:] - np.outer(M[nz, c], M[t, c:])) % p
        else:
            M[nz, c:] = M[nz, c:] - np.outer(M[nz, c], M[t, c:])


def canonicalize(M: Matrix, field: Field) -> Matrix:
    """Copy of M with canonical entries (reduced mod p / Fraction)."""
    if field.kind == "gfp":
        return np.asarray(M, dtype=np.int64) % field.p
    out = np.empty(M.shape, dtype=object)
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            out[i, j] = Fraction(M[i, j])
    return out


def rref(M: Matrix, field: Field) -> RrefResult:
    """Reduced row echelon form of a copy of M."""
    W = canonicalize(M, field)
    pivots = _forward_eliminate(W, field)
    _back_substitute(W, pivots, field)
    rank = len(pivots)
    return RrefResult(W[:rank].copy(), tuple(pivots), rank, M.shape[1])


def row_rank(M: Matrix, field: Field) -> int:
    """Rank via forward elimination only (no back substitution)."""
    W = canonicalize(M, field)
    return len(_forward_eliminate(W, field))


def kernel_basis(M: Matrix, field: Field) -> Matrix:
    """Canonical basis of the right kernel {v : M v = 0}, rows = vectors.

    Derived from the RREF: one vector per free column j, with a 1 in
    position j and minus the reduced column above the pivots.  The
    result is itself in reduced echelon form up to column permutation,
    hence deterministic.
    """
    R = rref(M, field)
    ncols = R.ncols
    free = [j for j in range(ncols) if j not in set(R.pivots)]
    K = matrix_zeros(field, len(free), ncols)
    one = 1 if field.kind == "gfp" else Fraction(1)
    for i, j in enumerate(free):
        K[i, j] = one
    if R.pivots and free:
        block = R.matrix[:, free]
        if field.kind == "gfp":
            K[:, list(R.pivots)] = (-block.T) % field.p
        else:
            K[:, list(R.pivots)] = -block.T
    return K

