"""Graded linear-algebra oracle for the Jacobian ideal of a plane curve.

For f homogeneous of degree d in S = C[x, y, z], the object of study
is the quotient N(f) = (J_f saturated)/J_f where J_f = (f_x, f_y, f_z)
(N(f) = H^0_m(S/J_f); Sernesi, Doc. Math. 19, 2014).  Everything here
is computed by exact rank/kernel calculations on multiplication
matrices; no closed-form results enter, so these values can serve as
the independent reference for the formula layer.

The oracle is two straight-line computations, each run once and in
this order: one degree sweep gives the Milnor values and what the
syzygy layer needs, and one saturation pass gives N(f).  No degree is
served on demand.

The pieces (J_f)_k come from one sweep over k = d-1, ..., at most
T+2, instead of one elimination per degree.  basis_position does not
depend on the x exponent, so x * basis(k) is exactly the first dim S_k
positions of basis(k + 1), and (J_f)_{k+1} is x * (J_f)_k, the same
vectors zero-padded, plus the multiples y^b z^c * f_i with
b + c = k + 2 - d.
The sweep keeps the reduced form of (J_f)_k as its normal-form table
Q_k (linalg.GrowingRref): row t of Q_k is the t-th monomial of degree
k modulo (J_f)_k, on the quotient's basis monomials.  It adds only
those new rows at each degree, and reduces them without building them.
basis_position depends only on the y and z exponents, so for a term m
= x^a' y^b' z^c' of f_i the products y^b z^c m, b + c = j (ordered by
c), sit at the j+1 consecutive positions of basis(k) from that of
y^j m, s(s+1)/2 + c' with s = j + b' + c'.  The reduced rows of f_i
are therefore sum_m coeff_m * Q_k[start_m : start_m + j + 1], one
scaled contiguous slice of the table per term.  The sweep records
m_k = dim (S/J_f)_k and keeps the tau free columns where it stopped
(below), and the dim S_(T+1) x tau table Q_(T+1), the projector onto
S_(T+1) / (J_f)_(T+1), only when the saturation pass needs it (below).

The sweep also keeps each degree's batch of new rows reduced modulo
x * (J_f)_{k-1}, as the list batches, indexed by j = k - d + 1 up to
the degree where the sweep stopped, and never changed once it is done.
A combination sum c_(i,m) m f_i of its rows (m x-free of degree j)
lies in x * (J_f)_{k-1} exactly when c is the x-free part of a degree-j
syzygy (if sum c_i f_i = x sum a_i f_i, c - x a is one).  So P_j, the
x-free parts of Syz_j, is the left kernel of batch j; the syzygy layer
(resolution.py) owns P_j and computes it from the batches, only for
the degrees it reads.

Degrees are capped at T + 2 with T = 3(d - 2): the Hilbert function
of S/J_f is constant equal to the global Tjurina number tau from T + 1
on when f is reduced, and failure of m(T+1) = m(T+2) is exactly the
non-reduced signal.  The sweep stops earlier, after step k+1, at the
first k >= d-1 where J_f is certified k-regular.  J_f is generated in
degree d-1 <= k, so by the criterion of Bayer and Stillman ("A
criterion for detecting m-regularity", Invent. Math. 87, 1987) two
facts suffice:
  - (J_f, x)_k = S_k: after step k no x-free column of degree k, at or
    past dim S_(k-1), is free;
  - (J_f : x)_k = (J_f)_k: step k+1 makes no new pivot on the first
    dim S_k columns, the x-multiples.
Then x maps (S/J_f)_k' onto (S/J_f)_(k'+1) bijectively for every
k' >= k (Eisenbud, The Geometry of Syzygies, ch. 4): m_k' = tau, f is
reduced, and the free columns never change again.  The test after step
k+1 is two integer comparisons: m_(k+1) = m_k, and no free column is at
or past dim S_(k-1).  Free columns only ever become pivots, and
free_(k+1) lies in free_k plus the columns added at k+1; the bound
rules out those and the x-free columns of degree k, and the equal count
then makes free_(k+1) = free_k, which is both facts.  The values from
k+2 to T+2 are m_(k+1).  The first fact says that x misses Sigma, so a
reduced curve whose line x meets Sigma never passes, nor does a
non-reduced one, whose m keeps growing: both sweep to T+2.

Saturation is one pass over nested images.  If a line l misses every
point of the Jacobian scheme Sigma, l is a nonzerodivisor on S/Sat and
Sat_{T+1} = (J_f)_{T+1}, so Sat_k = (J_f : l^(T+1-k))_k (Bayer and
Stillman, Invent. Math. 87, 1987): dim Sat_k = dim S_k - rank Phi_k,
Phi_k(g) = [l^(T+1-k) g] in S_{T+1} / (J_f)_{T+1}, of dimension tau,
so n_k = dim Sat_k - dim (J_f)_k = m_k - rank Phi_k.
A line is accepted only if rank Phi_T = tau: if l meets Sigma,
(J_f : l)_T contains the degree-T ideal of the residual scheme, of
length below tau.  The lines tried are x + a y + a^2 z for a = 0, 1/2,
1/3, ... (not small integers, which hand-made curves favour as
coordinates of singular points).  A point of Sigma lies on at most two
of them (a nonzero quadratic in a) and Sigma has at most tau points,
so 2 tau + 1 distinct slopes always yield one; mod p at most p - 1 of
these slopes are distinct.

For l = x the ranks need no elimination.  x^(T+1-k) basis(k) is the
first dim S_k monomials of basis(T+1), so the matrix of Phi_k is the
first dim S_k rows of the table Q_(T+1), and those rows span exactly
the unit vectors of the free columns below dim S_k (the free columns
where the sweep stopped, which are those of Q_(T+1)):
  - the row of a free column c is the unit vector of c;
  - the row of a pivot column c is nonzero only on free columns left
    of c, so below dim S_k when c is;
  - so the rows below dim S_k span the units of the free columns there.
rank Phi_k is therefore the number of free columns where the sweep
stopped below dim S_k, and rank Phi_T = tau holds exactly when no free
column is at or past dim S_T, that is when x misses Sigma.  Another
line is tried only when x meets Sigma, which only a sweep that reaches
T+1 with no certificate allows, so only then does the sweep copy
Q_(T+1).
For l = x + a y + a^2 z, a != 0, S_{k+1} = l S_k + <x-free
monomials>, so the images nest: Phi_k has the image of Phi_(k-1) plus
that of its k+1 x-free rows.  Stacked for k = 0..T, those rows are
dim S_T rows, and rank Phi_k is the rank of the first dim S_k of them:
the number of pivots below dim S_k of one rref of the stack's
transpose, one elimination per line.

The two layers are tied by n_k = m_k + m_(T-k) - m_s(k) - tau for
0 <= k <= T, m_s the smooth reference: 0 -> E -> O^3 -> I_Sigma(d-1)
-> 0 gives n_k = h^1(E(k-d+1)), and h^1 = h^0 + h^2 - chi, Serre
duality with E^dual = E(d-1) and the Gorenstein symmetry of m_s give
the rest.  module_vector checks it as a guard, at O(T) cost: a vector
that breaks it (an unlucky prime, a wrongly accepted line) is refused,
never reported.  N(f) is not computed from it, which would make its
symmetry and support window tautologies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import Element
from .linalg import GrowingRref, rref
from .poly import TernaryForm, basis_dimension, basis_position, monomial_basis


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
class CoincidenceThreshold:
    """Largest q with m(f)_k = m(f_smooth)_k for all k <= q.

    censored means every computed degree (up to T+2) matched, so the
    true threshold is only known to be >= value.
    """

    value: int
    censored: bool


@dataclass(frozen=True)
class MilnorProfile:
    """Hilbert function of the Milnor algebra S/J_f on degrees 0..T+2."""

    degree: int
    values: tuple[int, ...]

    @property
    def top(self) -> int:
        return 3 * (self.degree - 2)

    @property
    def tjurina(self) -> int:
        """The stable value m(T+1) = m(T+2) of a reduced curve."""
        return self.values[self.top + 1]

    @property
    def coincidence(self) -> CoincidenceThreshold:
        """Last degree (up to T+2) where the values agree with the
        smooth reference of the same degree."""
        ref = smooth_reference(self.degree)
        for k, (a, b) in enumerate(zip(self.values, ref)):
            if a != b:
                return CoincidenceThreshold(k - 1, censored=False)
        return CoincidenceThreshold(len(self.values) - 1, censored=True)


@dataclass(frozen=True)
class ModuleVector:
    """Graded dimensions n_k = dim N(f)_k for k = 0..T."""

    degree: int
    values: tuple[int, ...]

    @property
    def top(self) -> int:
        return 3 * (self.degree - 2)

    @property
    def sigma(self) -> int | None:
        """Smallest k with n_k != 0; None when N(f) = 0."""
        return next((k for k, v in enumerate(self.values) if v), None)

    @property
    def nu(self) -> int:
        """Peak value n_{floor(T/2)} (0 when N(f) = 0)."""
        return self.values[self.top // 2]


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


class CurveJacobian:
    """The oracle's graded data of one curve over one field, in the
    order the pipeline reads it: milnor_hilbert() runs the one degree
    sweep, up to its certified regularity degree or T+2, and keeps
    batches[j], its reduced batch in degree j+d-1, for the syzygy
    layer, and module_vector() runs the one saturation pass on the free
    columns of the sweep's table where it stopped, and on its table at
    T+1, the quotient projector, when the line x meets Sigma."""

    def __init__(self, f: TernaryForm):
        if f.is_zero() or f.degree < 1:
            raise AnalysisError("a curve needs a nonzero form of degree >= 1")
        self.f = f
        self.field = f.field
        self.degree = f.degree
        self.partials = f.gradient()
        # j -> reduced batch in degree j+d-1, up to where the sweep stopped
        self.batches: list[np.ndarray] = []
        self._free = self._projector = None  # free columns at the stop; Q_(T+1) if needed
        self._milnor: MilnorProfile | None = None

    @property
    def top(self) -> int:
        """T = 3(d - 2), the last degree where N(f) can be nonzero."""
        return 3 * (self.degree - 2)

    def _reduced_batch(self, table: np.ndarray, j: int) -> np.ndarray:
        """The rows y^b z^c * f_i, b + c = j, reduced modulo the kept
        form whose normal-form table is given: one block of j+1 rows per
        partial, ordered by the z exponent.  Row c of partial i's block
        is sum_m coeff_m * table[start_m + c] over the terms m of f_i,
        start_m the position of y^j m, so the block is one scaled
        contiguous slice of the table per term (module docstring)."""
        n = j + 1
        batch = self.field.zeros((3 * n, table.shape[1]))
        for i, partial in enumerate(self.partials):
            starts = [basis_position(j + m[1], m[2]) for m in partial.terms]
            self.field.add_combination(
                batch[i * n : (i + 1) * n],
                list(partial.terms.values()),
                [table[s : s + n] for s in starts],
            )
        return batch

    def milnor_hilbert(self) -> MilnorProfile:
        """Hilbert function of S/J_f on 0..T+2; rejects non-reduced f.

        For k < d-1 the value is dim S_k (the ideal has no elements
        below the partials' degree).  From d-1 one sweep gives every
        rank: each step appends the k+1 monomials free of x as columns,
        reduces the 3(j+1) new rows, j = k-d+1, as slice sums of the
        normal-form table and adds them, keeping their reduced batch.
        It stops after step k+1 once J_f is certified k-regular (module
        docstring), with every value above k+1 equal to m_(k+1), or
        else after step T+2.  For the saturation pass it keeps the free
        columns where it stopped, or at T+1, and the table at T+1, the
        quotient projector, only when a free column is at or past
        dim S_T (x meets Sigma).  Computed once."""
        if self._milnor is not None:
            return self._milnor
        d, T = self.degree, self.top
        if d < 2:
            raise AnalysisError("Milnor data needs degree >= 2")
        sweep = GrowingRref(self.field, basis_dimension(d - 2))
        values = [basis_dimension(k) for k in range(d - 1)]
        batches = []
        kept = None  # m_(k-1), the number of free columns after step k-1
        for k in range(d - 1, T + 3):
            sweep.add_columns(k + 1)
            batches.append(self._reduced_batch(sweep.table, k - d + 1))
            sweep.add_reduced(batches[-1])
            values.append(basis_dimension(k) - sweep.rank)
            free = sweep.free
            if values[k] == kept and (not kept or free[-1] < basis_dimension(k - 2)):
                # J_f is (k-1)-regular: m is constant from k-1 on and the
                # free columns never change again (module docstring)
                values += values[k:] * (T + 2 - k)
                self._free = free
                break
            kept = values[k]
            if k == T + 1:
                self._free = free
                if np.any(free >= basis_dimension(T)):  # x meets Sigma
                    self._projector = sweep.table.copy()
        sweep.release()  # the next sweep in this process reuses its buffer
        if values[T + 1] != values[T + 2]:
            raise NotReducedError(
                f"S/J_f keeps growing at degree {T + 2} "
                f"({values[T + 1]} -> {values[T + 2]}): "
                "the curve has a repeated component"
            )
        self.batches = batches
        self._milnor = MilnorProfile(d, tuple(values))
        return self._milnor

    def _image_ranks(self, a: Element) -> list[int]:
        """rank Phi_k, k = 0..T, for l = x + a y + a^2 z (module
        docstring).  For a = 0, rank Phi_k is the number of free columns
        below dim S_k where the sweep stopped.  Otherwise Phi_(T+1) is
        the projector kept at T+1 and Phi_k = Phi_(k+1)(l *), one
        variable shift each; row block [dim S_(k-1), dim S_k) of the
        stack holds the x-free rows of Phi_k, so rank Phi_k is the rank
        of its first dim S_k rows: the pivots of one rref of the stack's
        transpose below dim S_k."""
        dims = [basis_dimension(k) for k in range(self.top + 1)]
        if not a:
            return np.searchsorted(self._free, dims).tolist()
        field, phi, square = self.field, self._projector, self.field.mul(a, a)
        stack = field.zeros((dims[-1], phi.shape[1]))
        for k in range(self.top, -1, -1):
            low, high = basis_dimension(k - 1), dims[k]
            phi, above = phi[:high], phi
            b, c = _yz_exponents(k)
            # below p + 2(p-1)^2 < 2^63: one reduction for both shifts
            phi = field.reduce(
                phi + a * above[basis_position(b + 1, c)] + square * above[basis_position(b, c + 1)]
            )
            stack[low:high] = phi[low:]
        return np.searchsorted(rref(stack.T, field).pivots, dims).tolist()

    def module_vector(self) -> ModuleVector:
        """n_k = m_k - rank Phi_k for k = 0..T, from the first line that
        passes the certificate rank Phi_T = tau (module docstring).

        For l = x the ranks are counts of the sweep's free columns where
        it stopped; another line is tried only when x meets Sigma, on the
        projector the sweep kept then.  A vector that breaks
        n_k = m_k + m_(T-k) - m_s(k) - tau (module docstring) raises
        InternalConsistencyError.  Unimodality and the support window
        are not enforced here: the analysis layer reports them as
        checks."""
        milnor = self.milnor_hilbert()  # certifies reducedness
        field, tau = self.field, milnor.tjurina
        slopes = 2 * tau + 1 if field.p is None else min(2 * tau + 1, field.p - 1)
        for m in range(1, slopes + 1):
            a = field.inv(field.embed_integer(m)) if m > 1 else field.zero()
            ranks = self._image_ranks(a)
            if ranks[self.top] == tau:
                break
        else:
            raise InternalConsistencyError("every line tried meets the singular scheme")
        m, T = milnor.values, self.top
        values = tuple(m_k - r for m_k, r in zip(m, ranks))
        negative = [k for k, n_k in enumerate(values) if n_k < 0]
        if negative:
            raise InternalConsistencyError(
                f"saturation smaller than ideal at degree {negative[0]}"
            )
        smooth = smooth_reference(self.degree)
        for k, n_k in enumerate(values):
            expected = m[k] + m[T - k] - smooth[k] - tau
            if n_k != expected:
                raise InternalConsistencyError(
                    f"saturation and Milnor ranks disagree at degree {k}: "
                    f"n_k = {n_k}, m_k + m_(T-k) - m_s(k) - tau = {expected}"
                )
        return ModuleVector(self.degree, values)
