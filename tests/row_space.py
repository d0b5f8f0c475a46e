"""Row-space membership by direct reduction against an RREF: an
independent reference for tests of the elimination results."""

from __future__ import annotations

import numpy as np

from jacmod.fields import Field
from jacmod.linalg import Matrix, RrefResult


def in_row_space(R: RrefResult, v: Matrix, field: Field) -> bool:
    """Membership of vector v in the row space described by R."""
    w = field.array(v)
    for i, c in enumerate(R.pivots):
        if w[c] != 0:
            w = field.reduce(w - w[c] * R.matrix[i])
    return not np.any(w != 0)


def rows_in_row_space(R: RrefResult, V: Matrix, field: Field) -> bool:
    """All rows of V lie in the row space described by R."""
    return all(in_row_space(R, V[i], field) for i in range(V.shape[0]))
