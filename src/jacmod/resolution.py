"""Minimal resolution data of the gradient syzygy module.

Syz(f) = {(a, b, c) in S^3 : a f_x + b f_y + c f_z = 0}, graded by
deg a.  The exponents d_1 <= ... <= d_m are the degrees of a minimal
generating set; new generators in degree k are counted as
dim Syz_k - dim(S_1 * Syz_{k-1}), both sides by exact elimination.

The second-level degrees e_1 <= ... <= e_{m-2} are recovered from the
Hilbert-series balance: with P(t) = (1-t)^3 * HS(S/J_f),

    sum_j t^(e_j) = 1 - 3 t^(d-1) + sum_i t^(d-1+d_i) - P(t),

an identity of polynomials of degree <= 3d-3 once HS(S/J_f) is known
through its stable range.  The right side having nonnegative
coefficients summing to m-2, with each e_j >= d + d_{j+2}, certifies
that the generator search is complete; the search stops at the first
degree where the identity balances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jacobian import (
    CurveJacobian,
    InternalConsistencyError,
    MilnorProfile,
    _shift_index,
    _unit_shift,
)
from .linalg import kernel_basis, matrix_zeros, row_rank
from .poly import basis_dimension


class IncompleteResolutionError(RuntimeError):
    """Generator search exhausted the extended degree window without
    balancing the Hilbert identity.  This should be unreachable for
    reduced curves; it indicates a bug or an unlucky prime."""


class PencilOfLinesError(ValueError):
    """mdr(f) = 0: the partials are linearly dependent, which happens
    exactly when f is a product of lines through one point.  The
    resolution machinery assumes mdr >= 1."""


@dataclass(frozen=True)
class ResolutionProfile:
    """Degrees attached to the minimal resolution of the syzygy module.

    exponents: generator degrees d_1 <= ... <= d_m of Syz(f).
    second_degrees: e_1 <= ... <= e_{m-2} (empty iff the curve is free).
    epsilons: e_j - (d + d_{j+2} - 1), each >= 1 by minimality.
    sigma: 3(d-1) - e_{m-2}, the first degree where N(f) can be
        nonzero; None for free curves (N(f) = 0, no second level).
    extended_window: the search needed degrees beyond 2d-4 (never seen
        for reduced curves; kept as a loud flag).
    """

    degree: int
    mdr: int
    exponents: tuple[int, ...]
    second_degrees: tuple[int, ...]
    epsilons: tuple[int, ...]
    sigma: int | None
    extended_window: bool

    @property
    def generator_count(self) -> int:
        return len(self.exponents)


def syzygy_dimension(jac: CurveJacobian, k: int) -> int:
    """dim Syz(f)_k = 3 dim S_k - dim (J_f)_{k+d-1}."""
    if k < 0:
        return 0
    return 3 * basis_dimension(k) - jac.jacobian_rank(k + jac.degree - 1)


def syzygy_basis(jac: CurveJacobian, k: int) -> np.ndarray:
    """Canonical kernel basis; rows are concatenated (a | b | c)
    coefficient vectors over the degree-k monomial basis."""
    if k < 0:
        return matrix_zeros(jac.field, 0, 0)
    return kernel_basis(jac.mult_matrix(k).T, jac.field)


def mdr(jac: CurveJacobian) -> int:
    """Minimal degree of a gradient relation; 0 exactly for pencils of
    lines (linearly dependent partials).  Bounded by d-1 because the
    Koszul relations live there."""
    for k in range(jac.degree):
        if syzygy_dimension(jac, k) > 0:
            return k
    raise InternalConsistencyError(
        "no gradient relation found up to the Koszul degree"
    )  # pragma: no cover


def _shift_up(V: np.ndarray, k: int, field) -> np.ndarray:
    """Images x*v, y*v, z*v in Syz_{k+1} coordinates for each row v of
    the degree-k coefficient matrix V (three blocks per component)."""
    nv = V.shape[0]
    nk = basis_dimension(k)
    nk1 = basis_dimension(k + 1)
    out = matrix_zeros(field, 3 * nv, 3 * nk1)
    for var in range(3):
        idx = _shift_index(k, _unit_shift(var))
        rows = slice(var * nv, (var + 1) * nv)
        for block in range(3):
            out[rows, block * nk1 + idx] = V[:, block * nk : (block + 1) * nk]
    return out


def hilbert_numerator(milnor: MilnorProfile) -> tuple[int, ...]:
    """Coefficients of P(t) = (1-t)^3 * HS(S/J_f) on degrees 0..3d-3.

    The Hilbert function is known on 0..T+2 and constant (= tjurina)
    beyond, which pins every coefficient of P in this range; P is zero
    above 3d-3 = T+3 because the fourth difference of a constant
    vanishes."""
    T = milnor.top
    vals = list(milnor.values)

    def m(j: int) -> int:
        if j < 0:
            return 0
        if j < len(vals):
            return vals[j]
        return milnor.tjurina

    return tuple(
        m(k) - 3 * m(k - 1) + 3 * m(k - 2) - m(k - 3) for k in range(T + 4)
    )


def second_syzygy_degrees(
    d: int, exponents: list[int], numerator: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Solve the balance identity for the e_j, or None if it does not
    balance for this exponent multiset (meaning: keep searching).

    Returns (second_degrees, epsilons) with epsilons[j] =
    e_j - (d + d_{j+2} - 1) >= 1 enforced; the identity must produce
    exactly m-2 terms with nonnegative multiplicities."""
    m = len(exponents)
    if m < 2:
        return None
    width = len(numerator)
    coeffs = [-c for c in numerator]
    coeffs[0] += 1
    if d - 1 < width:
        coeffs[d - 1] -= 3
    for di in exponents:
        pos = d - 1 + di
        if pos >= width:
            return None
        coeffs[pos] += 1
    if any(c < 0 for c in coeffs):
        return None
    e_list: list[int] = []
    for deg, c in enumerate(coeffs):
        e_list.extend([deg] * c)
    if len(e_list) != m - 2:
        return None
    eps = []
    exps = sorted(exponents)
    for j, e in enumerate(e_list):
        slack = e - (d + exps[j + 2] - 1)
        if slack < 1:
            return None
        eps.append(slack)
    return tuple(e_list), tuple(eps)


def resolve(jac: CurveJacobian, milnor: MilnorProfile | None = None) -> ResolutionProfile:
    """Find the minimal generator degrees of Syz(f) and the second-level
    degrees, certifying completeness via the Hilbert balance identity.

    The scan runs over [mdr, max(d-1, 2d-4)], which suffices for every
    reduced curve (generator degrees are bounded by 2d-4 for singular
    curves and by d-1 for smooth ones); if the identity still does not
    balance the window is extended to 3d-6 and then the run fails
    loudly rather than report unverified degrees."""
    if milnor is None:
        milnor = jac.milnor_hilbert()
    d = jac.degree
    r = mdr(jac)
    if r == 0:
        raise PencilOfLinesError(
            "the partials are linearly dependent (pencil of lines)"
        )
    numerator = hilbert_numerator(milnor)
    window_end = max(d - 1, 2 * d - 4)
    hard_end = max(window_end, 3 * d - 6)

    exponents: list[int] = []
    prev_basis: np.ndarray | None = None
    extended = False
    k = r
    while k <= hard_end:
        if k > window_end:
            extended = True
        dim_k = syzygy_dimension(jac, k)
        if k == r:
            image_rank = 0
        else:
            if prev_basis is None:
                prev_basis = syzygy_basis(jac, k - 1)
            if prev_basis.shape[0] == 0:
                image_rank = 0
            else:
                image = _shift_up(prev_basis, k - 1, jac.field)
                image_rank = row_rank(image, jac.field)
        new = dim_k - image_rank
        if new < 0:
            raise IncompleteResolutionError(
                f"negative generator count at degree {k} (bad prime?)"
            )
        exponents.extend([k] * new)
        balanced = second_syzygy_degrees(d, exponents, numerator)
        if balanced is not None:
            e_list, eps = balanced
            sigma = 3 * (d - 1) - e_list[-1] if e_list else None
            return ResolutionProfile(
                degree=d,
                mdr=r,
                exponents=tuple(exponents),
                second_degrees=e_list,
                epsilons=eps,
                sigma=sigma,
                extended_window=extended,
            )
        prev_basis = syzygy_basis(jac, k)
        k += 1
    raise IncompleteResolutionError(
        f"generator degrees {exponents} found on [{r}, {hard_end}] do not "
        "balance the Hilbert identity; refusing to report an unverified "
        "resolution"
    )
