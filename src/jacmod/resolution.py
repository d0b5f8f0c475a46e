"""Minimal resolution data of the gradient syzygy module.

Syz(f) = {(a, b, c) in S^3 : a f_x + b f_y + c f_z = 0}, graded by
deg a.  The exponents d_1 <= ... <= d_m are the degrees of a minimal
generating set, with dim Syz_k - dim(S_1 * Syz_{k-1}) new ones in
degree k, counted on x-free parts.  Let pi send a triple in S_k^3 to
its x-free part in k[y, z]_k^3 (3(k+1) coordinates), and
P_k = pi(Syz_k).  This module owns P_k: it is the left kernel of the
Milnor sweep's reduced batch CurveJacobian.batches[k] (see jacobian.py),
computed here for the degrees the scan reads.  x is a nonzerodivisor
on S^3, so the kernel of pi is x * Syz_{k-1} both on Syz_k and on
S_1 * Syz_{k-1}; and pi(y v) = y pi(v), pi(z v) = z pi(v).  Hence

    new_k = dim P_k - rank [y P_{k-1} ; z P_{k-1}],

with dim P_k = dim Syz_k - dim Syz_{k-1} read off the Milnor values:
dim Syz_k = 3 dim S_k - dim (J_f)_{k+d-1} = 3 dim S_k - dim S_{k+d-1}
+ m_{k+d-1}.  The x-free monomials of each block are ordered by their
z exponent, so y * appends a zero coordinate and z * prepends one.

The second-level degrees e_1 <= ... <= e_{m-2} are recovered from the
Hilbert-series balance: with P(t) = (1-t)^3 * HS(S/J_f),

    sum_j t^(e_j) = 1 - 3 t^(d-1) + sum_i t^(d-1+d_i) - P(t),

an identity of polynomials of degree <= 3d-3 once HS(S/J_f) is known
through its stable range.  The right side having nonnegative
coefficients summing to m-2, with each e_j >= d + d_{j+2}, certifies
that the generator search is complete; the search stops at the first
degree where the identity balances.

The scan never goes past max(d-1, 2d-4), because every generator lies
there.  A smooth curve has d_i = d-1 (Koszul relations).  A free curve
has d_1 + d_2 = d-1 with d_1 >= 1, so d_2 <= d-2.  A singular curve has
Sat_0 = 0 (a unit in the saturation would make the singular scheme
empty), so n_0 = 0 and sigma = 3(d-1) - e_{m-2} >= 1; with
e_{m-2} >= d + d_m (minimality) this gives
d_m <= e_{m-2} - d = 2d-3-sigma <= 2d-4.
A search that has not balanced by then is wrong, not incomplete, and
raises IncompleteResolutionError: the Milnor values it reads stop at
degree max(2d-2, 3d-5) <= T+2, which the Milnor sweep already holds.

The sweep holds batches only up to where it stopped: one degree past
the first r at which J_f is certified r-regular, or T+2.  At degree i
the scan reads the batch in degree i+d-2, for i up to d_m, the last
generator, and d+d_m-2 <= reg(J_f) <= r (a generator of Syz in degree
d_m is a first syzygy of J_f in degree d-1+d_m), so every batch it
needs is held.  Only an unlucky prime can make it ask for one past the
stop, and that raises IncompleteResolutionError too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jacobian import CurveJacobian, InternalConsistencyError, MilnorProfile
from .linalg import kernel_basis, row_rank
from .poly import basis_dimension


class IncompleteResolutionError(RuntimeError):
    """Generator search reached the end of the proven degree window
    without balancing the Hilbert identity.  This should be unreachable
    for reduced curves; it indicates a bug or an unlucky prime."""


class PencilOfLinesError(ValueError):
    """mdr(f) = 0: the partials are linearly dependent, which happens
    exactly when f is a product of lines through one point.  The
    resolution machinery assumes mdr >= 1."""


@dataclass(frozen=True)
class ResolutionProfile:
    """Degrees attached to the minimal resolution of the syzygy module.

    exponents: generator degrees d_1 <= ... <= d_m of Syz(f).
    second_degrees: e_1 <= ... <= e_{m-2} (empty iff the curve is free).
    """

    degree: int
    exponents: tuple[int, ...]
    second_degrees: tuple[int, ...]

    @property
    def mdr(self) -> int:
        return self.exponents[0]

    @property
    def epsilons(self) -> tuple[int, ...]:
        """e_j - (d + d_{j+2} - 1), each >= 1 by minimality."""
        d, exps = self.degree, self.exponents
        return tuple(e - (d + exps[j + 2] - 1) for j, e in enumerate(self.second_degrees))

    @property
    def sigma(self) -> int | None:
        """3(d-1) - e_{m-2}, the first degree where N(f) can be nonzero;
        None for free curves (N(f) = 0, no second level)."""
        if not self.second_degrees:
            return None
        return 3 * (self.degree - 1) - self.second_degrees[-1]


def syzygy_dimension(milnor: MilnorProfile, k: int) -> int:
    """dim Syz(f)_k = 3 dim S_k - dim (J_f)_{k+d-1}, for k+d-1 <= T+2."""
    if k < 0:
        return 0
    n = k + milnor.degree - 1
    return 3 * basis_dimension(k) - basis_dimension(n) + milnor.values[n]


def mdr(milnor: MilnorProfile) -> int:
    """Minimal degree of a gradient relation; 0 exactly for pencils of
    lines (linearly dependent partials).  Bounded by d-1 because the
    Koszul relations live there."""
    for k in range(milnor.degree):
        if syzygy_dimension(milnor, k) > 0:
            return k
    raise InternalConsistencyError(
        "no gradient relation found up to the Koszul degree"
    )  # pragma: no cover


def _y_z_shifts(P: np.ndarray, k: int, field) -> np.ndarray:
    """[y P ; z P] for the x-free parts P of degree k (module docstring):
    three blocks of k+2 coordinates, y * keeping each z exponent and
    z * raising it by one."""
    n = P.shape[0]
    blocks = P.reshape(n, 3, k + 1)
    out = field.zeros((2 * n, 3 * (k + 2))).reshape(2 * n, 3, k + 2)
    out[:n, :, :-1] = blocks
    out[n:, :, 1:] = blocks
    return out.reshape(2 * n, 3 * (k + 2))


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


def balanced_profile(
    d: int, exponents: list[int], numerator: tuple[int, ...]
) -> ResolutionProfile | None:
    """Solve the balance identity for the e_j, or None if it does not
    balance for this exponent multiset (meaning: keep searching).

    The identity must produce exactly m-2 terms with nonnegative
    multiplicities, and each epsilon must be >= 1."""
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
    profile = ResolutionProfile(d, tuple(exponents), tuple(e_list))
    return profile if all(eps >= 1 for eps in profile.epsilons) else None


def resolve(jac: CurveJacobian) -> ResolutionProfile:
    """Find the minimal generator degrees of Syz(f) and the second-level
    degrees, certifying completeness via the Hilbert balance identity.

    The scan runs over [mdr, max(d-1, 2d-4)], which holds every
    generator of a reduced curve (module docstring); if the identity
    does not balance there, the run fails loudly rather than report
    unverified degrees."""
    milnor = jac.milnor_hilbert()
    d, field = jac.degree, jac.field
    r = mdr(milnor)
    if r == 0:
        raise PencilOfLinesError(
            "the partials are linearly dependent (pencil of lines)"
        )
    numerator = hilbert_numerator(milnor)
    window_end = max(d - 1, 2 * d - 4)

    def x_free_dimension(k: int) -> int:  # dim P_k
        return syzygy_dimension(milnor, k) - syzygy_dimension(milnor, k - 1)

    exponents: list[int] = []
    for k in range(r, window_end + 1):
        image_rank = 0
        if x_free_dimension(k - 1):
            if k > len(jac.batches):
                raise IncompleteResolutionError(
                    f"degree {k} needs the sweep's batch in degree {k + d - 2}, "
                    f"past its certified stop at {len(jac.batches) + d - 2} (bad prime?)"
                )
            parts = kernel_basis(jac.batches[k - 1].T, field)  # P_(k-1)
            image_rank = row_rank(_y_z_shifts(parts, k - 1, field), field)
        new = x_free_dimension(k) - image_rank
        if new < 0:
            raise IncompleteResolutionError(
                f"negative generator count at degree {k} (bad prime?)"
            )
        exponents.extend([k] * new)
        profile = balanced_profile(d, exponents, numerator)
        if profile is not None:
            return profile
    raise IncompleteResolutionError(
        f"generator degrees {exponents} found on [{r}, {window_end}] do not "
        "balance the Hilbert identity; refusing to report an unverified "
        "resolution"
    )
