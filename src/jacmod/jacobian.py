"""Graded linear-algebra oracle for the Jacobian ideal of a plane curve.

For f homogeneous of degree d in S = C[x, y, z], the object of study
is the quotient N(f) = (J_f saturated)/J_f where J_f = (f_x, f_y, f_z).
Everything here is computed by exact rank/kernel calculations on
multiplication matrices, degree by degree; no closed-form results
enter, so these values can serve as the independent reference for the
formula layer.

Degrees are capped at T + 2 with T = 3(d - 2): the Hilbert function
of S/J_f is constant equal to the global Tjurina number from T + 1 on
when f is reduced, and failure of m(T+1) = m(T+2) is exactly the
non-reduced signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import Field
from .linalg import RrefResult, matrix_zeros, null_space, row_rank, rref
from .poly import Monomial, TernaryForm, basis_dimension, basis_position, monomial_basis


class AnalysisError(ValueError):
    """The requested analysis cannot be carried out as specified: input
    outside the engine's domain (degree, reducedness, ...) or options
    that do not fit the input."""


class NotReducedError(AnalysisError):
    """The Hilbert function of S/J_f kept growing past degree 3(d-2)+1,
    which certifies a repeated component."""


class InternalConsistencyError(RuntimeError):
    """A structural identity failed mid-run.  Over GF(p) the most
    likely cause is an unlucky prime; rerun with a fresh one."""


@dataclass(frozen=True)
class MilnorProfile:
    """Hilbert function of the Milnor algebra S/J_f on degrees 0..T+2."""

    degree: int
    values: tuple[int, ...]
    tjurina: int

    @property
    def top(self) -> int:
        return 3 * (self.degree - 2)


@dataclass(frozen=True)
class ModuleVector:
    """Graded dimensions n_k = dim N(f)_k for k = 0..T."""

    degree: int
    values: tuple[int, ...]
    sigma: int | None  # smallest k with n_k != 0; None when N(f) = 0
    nu: int  # peak value n_{floor(T/2)} (0 when N(f) = 0)

    @property
    def top(self) -> int:
        return 3 * (self.degree - 2)


@dataclass(frozen=True)
class CoincidenceThreshold:
    """Largest q with m(f)_k = m(f_smooth)_k for all k <= q.

    censored means every computed degree (up to T+2) matched, so the
    true threshold is only known to be >= value.
    """

    value: int
    censored: bool


@lru_cache(maxsize=None)
def smooth_reference(d: int) -> tuple[int, ...]:
    """Hilbert function of the Milnor algebra of any smooth degree-d
    curve on 0..T+2: coefficients of ((1 - t^(d-1)) / (1 - t))^3."""
    if d < 2:
        raise AnalysisError("smooth reference needs degree >= 2")
    block = [1] * (d - 1)  # 1 + t + ... + t^(d-2)
    square = np.convolve(block, block)
    cube = np.convolve(square, block)
    out = [0] * (3 * (d - 2) + 3)
    for i, v in enumerate(cube):
        out[i] = int(v)
    return tuple(out)


@lru_cache(maxsize=None)
def _yz_exponents(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents of y and of z over basis(k)."""
    basis = monomial_basis(k)
    return (
        np.array([m[1] for m in basis], dtype=np.intp),
        np.array([m[2] for m in basis], dtype=np.intp),
    )


def _shift_index(k: int, shift: Monomial) -> np.ndarray:
    """Positions in basis(k + |shift|) of m * x^shift for m running over
    basis(k)."""
    b, c = _yz_exponents(k)
    return basis_position(b + shift[1], c + shift[2])


def _unit_shift(var: int, n: int = 1) -> Monomial:
    """The exponent vector of x_var^n."""
    return tuple(n if v == var else 0 for v in range(3))


class CurveJacobian:
    """All graded data attached to one curve over one field.

    Results are cached per instance; one instance should be reused for
    a whole analysis so ranks computed for the Hilbert function also
    serve the syzygy layer.
    """

    def __init__(self, f: TernaryForm, field: Field | None = None):
        if f.is_zero() or f.degree < 1:
            raise AnalysisError("a curve needs a nonzero form of degree >= 1")
        self.f = f
        self.field = field if field is not None else f.field
        if self.field.config != f.field.config:
            raise AnalysisError("field mismatch between form and engine")
        self.degree = f.degree
        self.partials = f.gradient()
        self._rank_cache: dict[int, int] = {}
        self._piece_cache: dict[int, RrefResult] = {}
        self._sat_dim_cache: dict[int, int] = {}
        self._projector: np.ndarray | None = None
        self._milnor: MilnorProfile | None = None

    @property
    def top(self) -> int:
        """T = 3(d - 2), the last degree where N(f) can be nonzero."""
        return 3 * (self.degree - 2)

    # -- multiplication matrices ----------------------------------------

    def mult_matrix(self, j: int) -> np.ndarray:
        """Matrix of (a, b, c) in S_j^3 -> a f_x + b f_y + c f_z.

        Rows are indexed by (which partial, monomial of S_j) with the
        three blocks concatenated; columns by the degree j+d-1 basis.
        Row space is (J_f)_{j+d-1}; the left kernel is the degree-j
        piece of the syzygy module of the gradient.
        """
        nj = basis_dimension(j)
        M = matrix_zeros(self.field, 3 * nj, basis_dimension(j + self.degree - 1))
        rows = np.arange(nj)
        for block, partial in enumerate(self.partials):
            for mono, coeff in partial.terms.items():
                M[block * nj + rows, _shift_index(j, mono)] = coeff
        return M

    # -- Jacobian ideal pieces --------------------------------------------

    def jacobian_rank(self, k: int) -> int:
        """dim (J_f)_k via one elimination (cached)."""
        if k in self._rank_cache:
            return self._rank_cache[k]
        if k in self._piece_cache:
            r = self._piece_cache[k].rank
        else:
            j = k - (self.degree - 1)
            if j < 0:
                r = 0
            else:
                r = row_rank(self.mult_matrix(j), self.field)
        self._rank_cache[k] = r
        return r

    def jacobian_piece(self, k: int) -> RrefResult:
        """Canonical reduced basis of (J_f)_k inside S_k."""
        if k not in self._piece_cache:
            j = k - (self.degree - 1)
            if j < 0:
                result = RrefResult(
                    matrix_zeros(self.field, 0, basis_dimension(k)),
                    (),
                    0,
                    basis_dimension(k),
                )
            else:
                result = rref(self.mult_matrix(j), self.field)
            self._piece_cache[k] = result
            self._rank_cache[k] = result.rank
        return self._piece_cache[k]

    # -- Milnor algebra Hilbert function -----------------------------------

    def milnor_hilbert(self) -> MilnorProfile:
        """Hilbert function of S/J_f on 0..T+2; rejects non-reduced f.

        For k < d-1 the value is dim S_k with no computation (the
        ideal has no elements below the partials' degree).  Degree T+1
        is reduced in full once, since the saturation layer needs its
        RREF, and after T+2, so that RREF is not held in memory while
        the larger T+2 matrix is eliminated."""
        if self._milnor is not None:
            return self._milnor
        d = self.degree
        if d < 2:
            raise AnalysisError("Milnor data needs degree >= 2")
        T = self.top
        rank = {k: self.jacobian_rank(k) for k in (*range(T + 1), T + 2)}
        rank[T + 1] = self.jacobian_piece(T + 1).rank
        values = [basis_dimension(k) - rank[k] for k in range(T + 3)]
        if values[T + 1] != values[T + 2]:
            raise NotReducedError(
                f"S/J_f keeps growing at degree {T + 2} "
                f"({values[T + 1]} -> {values[T + 2]}): "
                "the curve has a repeated component"
            )
        self._milnor = MilnorProfile(d, tuple(values), values[T + 1])
        return self._milnor

    def tjurina(self) -> int:
        """Global Tjurina number: stable value of the Milnor Hilbert
        function (0 exactly when the curve is smooth)."""
        return self.milnor_hilbert().tjurina

    def coincidence_threshold(self) -> CoincidenceThreshold:
        """Last degree (up to T+2) where m(f) agrees with the smooth
        reference of the same degree."""
        mil = self.milnor_hilbert()
        ref = smooth_reference(self.degree)
        for k, (a, b) in enumerate(zip(mil.values, ref)):
            if a != b:
                return CoincidenceThreshold(k - 1, censored=False)
        return CoincidenceThreshold(len(mil.values) - 1, censored=True)

    # -- saturation --------------------------------------------------------

    def _quotient_projector(self) -> np.ndarray:
        """Matrix Q sending a degree-(T+1) coefficient vector, given as
        a basis unit vector index, to its canonical coordinates in
        S_{T+1} / (J_f)_{T+1}.

        Q is the transpose of the null-space basis of the full RREF at
        degree T+1: row j is a unit vector for a non-pivot column j and
        minus the reduced tail for a pivot column.  Built once."""
        if self._projector is None:
            piece = self.jacobian_piece(self.top + 1)
            self._projector = null_space(piece, self.field).T
        return self._projector

    def _saturation_test_matrix(self, k: int) -> np.ndarray:
        """Rows indexed by the S_k basis; row of m is the concatenated
        quotient coordinates of x^N m, y^N m, z^N m at degree T+1,
        N = T+1-k.  A form lies in the saturation of J_f exactly when
        its coefficient vector is a left null vector of this matrix."""
        N = self.top + 1 - k
        Q = self._quotient_projector()
        return np.concatenate(
            [Q[_shift_index(k, _unit_shift(var, N))] for var in range(3)], axis=1
        )

    def saturation_dimension(self, k: int) -> int:
        """dim of the degree-k piece of the saturated Jacobian ideal."""
        if k in self._sat_dim_cache:
            return self._sat_dim_cache[k]
        if k > self.top + 1:
            dim = self.jacobian_rank(k)
        elif k < 0:
            dim = 0
        else:
            A = self._saturation_test_matrix(k)
            dim = basis_dimension(k) - row_rank(A, self.field)
        self._sat_dim_cache[k] = dim
        return dim

    # -- the Jacobian module N(f) -------------------------------------------

    def module_vector(self) -> ModuleVector:
        """Graded dimensions of N(f) for k = 0..T.  Symmetry, unimodality
        and the support window are not enforced here: the analysis layer
        reports them as checks."""
        mil = self.milnor_hilbert()  # also certifies reducedness
        T = self.top
        values = []
        for k in range(T + 1):
            n_k = self.saturation_dimension(k) - self.jacobian_rank(k)
            if n_k < 0:
                raise InternalConsistencyError(
                    f"saturation smaller than ideal at degree {k}"
                )
            values.append(n_k)
        sigma = next((k for k, v in enumerate(values) if v), None)
        nu = values[T // 2] if values else 0
        return ModuleVector(self.degree, tuple(values), sigma, nu)
