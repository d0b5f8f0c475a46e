"""Row-space membership by direct reduction against an RREF: an
independent reference for tests of the elimination results."""

from __future__ import annotations

import numpy as np

from jacmod.fields import Field
from jacmod.linalg import Matrix, RrefResult, canonicalize


def in_row_space(R: RrefResult, v: Matrix, field: Field) -> bool:
    """Membership of vector v in the row space described by R."""
    w = canonicalize(v.reshape(1, -1), field)[0]
    gfp = field.kind == "gfp"
    p = field.p
    for i, c in enumerate(R.pivots):
        coeff = w[c]
        if coeff == 0:
            continue
        if gfp:
            w = (w - coeff * R.matrix[i]) % p
        else:
            w = w - coeff * R.matrix[i]
    return not np.any(w != 0)


def rows_in_row_space(R: RrefResult, V: Matrix, field: Field) -> bool:
    """All rows of V lie in the row space described by R."""
    return all(in_row_space(R, V[i], field) for i in range(V.shape[0]))
