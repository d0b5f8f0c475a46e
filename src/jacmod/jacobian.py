"""Graded linear-algebra oracle for the Jacobian ideal of a plane curve.

For f homogeneous of degree d in S = C[x, y, z], the object of study
is the quotient N(f) = (J_f saturated)/J_f where J_f = (f_x, f_y, f_z)
(N(f) = H^0_m(S/J_f); Sernesi, Doc. Math. 19, 2014).  Everything here
is computed by exact rank/kernel calculations on multiplication
matrices; no closed-form results enter, so these values can serve as
the independent reference for the formula layer.

The oracle is two straight-line computations, each run once and in
this order, in coordinates where the line x misses the Jacobian scheme
Sigma (below): one degree sweep gives the Milnor values and what the
syzygy layer needs, and one count of its free columns gives N(f).

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
(below).

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
k+2 to T+2 are m_(k+1).  The first fact says that x misses Sigma; when
it does and f is reduced, (J_f)_k = Sat_k from T+1 on (below), both
facts hold at T+1, and the sweep stops by T+2.

Where x misses Sigma it is a nonzerodivisor on S/Sat and Sat_{T+1} =
(J_f)_{T+1}, so Sat_k = (J_f : x^(T+1-k))_k (Bayer and Stillman):
n_k = dim Sat_k - dim (J_f)_k = m_k - rank Phi_k, with Phi_k(g) =
[x^(T+1-k) g] in S_{T+1} / (J_f)_{T+1}.  x^(T+1-k) basis(k) is the
first dim S_k monomials of basis(T+1), so the matrix of Phi_k is the
first dim S_k rows of the table Q_(T+1), whose free columns are those
where the sweep stopped.  The row of a free column is its unit vector
and the row of a pivot column c is nonzero only on free columns left
of c, so rank Phi_k is the number of free columns below dim S_k.

The Milnor values, tau, the exponents and N(f) do not change under a
linear change of coordinates.  Those tried, in order, are the
identity, x <-> y, x <-> z, x -> x - y/2, x -> x - z/2, then
x -> x - a y - a^2 z for a = 1/2, 1/3, ... (not small integers, which
hand-made curves favour as coordinates of singular points).  The new
line x, the old y, z, 2x + y, 2x + z or x + a y + a^2 z, misses Sigma
exactly when f's partials restricted to it have no common zero on P^1.
Each of the at most tau points of Sigma lies on at most two lines
x + a y + a^2 z, so 2 tau + 1 slopes always yield one.  That needs tau, and a non-reduced f fails
every line, so f itself is swept (refusing it if non-reduced) when
none of the first six changes passes, before the search goes on and
a second sweep, whose Milnor values must equal the first's.

The two layers are tied by n_k = m_k + m_(T-k) - m_s(k) - tau for
0 <= k <= T, m_s the smooth reference: 0 -> E -> O^3 -> I_Sigma(d-1)
-> 0 gives n_k = h^1(E(k-d+1)), and h^1 = h^0 + h^2 - chi, Serre
duality with E^dual = E(d-1) and the Gorenstein symmetry of m_s give
the rest.  module_vector checks it as a guard, at O(T) cost: a vector
that breaks it (an unlucky prime) is refused, never reported.  N(f) is
not computed from it, which would make its symmetry and support window
tautologies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import Element, Field, SliceTerms
from .linalg import GrowingRref
from .poly import Terms, TernaryForm, _add_terms, _mul_terms, basis_dimension, basis_position


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


Change = tuple[tuple[int, int, int], Element, Element]

# the partials' y exponents, z exponents and coefficients, for the slice
# sums of every step of one sweep (CurveJacobian._slice_plan)
SlicePlan = tuple[np.ndarray, np.ndarray, SliceTerms]


def _change(field: Field, n: int) -> Change:
    """The n-th change tried (module docstring) as (order, b, c): f goes to
    f(u[order[0]], u[order[1]], u[order[2]]), u = (x + b y + c z, y, z)."""
    half = field.neg(field.inv(field.embed_integer(2)))
    if n >= 5:
        a = field.neg(field.inv(field.embed_integer(n - 3)))  # -a, a = 1/(n - 3)
        return (0, 1, 2), a, field.neg(field.mul(a, a))
    orders = ((0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 1, 2), (0, 1, 2))
    return orders[n], half if n == 3 else 0, half if n == 4 else 0


def _substitute(field: Field, terms: Terms, change: Change) -> Terms:
    """A form's terms after the change: grouped by the exponent of the
    variable sent to x + b y + c z, by Horner's rule in that form."""
    order, b, c = change
    shear = {m: e for m, e in (((1, 0, 0), 1), ((0, 1, 0), b), ((0, 0, 1), c)) if e}
    groups: dict[int, Terms] = {}
    for m, coeff in terms.items():
        image = [0, 0, 0]
        for i, k in enumerate(order):
            image[k] = m[i]
        groups.setdefault(image[0], {})[(0, image[1], image[2])] = coeff
    out: Terms = {}
    for e in range(max(groups), -1, -1):
        out = _add_terms(field, _mul_terms(field, out, shear), groups.get(e, {}))
    return out


def _remainder(field: Field, a: list, b: list) -> list:
    """a mod b; coefficient lists, constant term first, b's last nonzero."""
    add, mul = field.add, field.mul
    a, lead = list(a), field.neg(field.inv(b[-1]))
    while len(a) >= len(b):
        q = mul(a.pop(), lead)
        for i, c in enumerate(b[:-1], start=len(a) + 1 - len(b)):
            a[i] = add(a[i], mul(q, c))
        while a and a[-1] == 0:
            a.pop()
    return a


def _misses_sigma(field: Field, partials, change: Change) -> bool:
    """Whether the change's line x misses Sigma: f's partials on it (the
    variables sent to x + b y + c z, y and z at b s + c, s and 1) have
    gcd 1 in s, and one keeps the degree d-1, so (1 : 0) is no zero."""
    order, b, c = change
    add, mul = field.add, field.mul
    moved, along = order.index(0), order.index(1)
    powers, gcd, finite = [[1]], [], False  # powers of b s + c
    for partial in partials:
        poly = [0] * (partial.degree + 1)
        for m, coeff in partial.terms.items():
            if m[moved] and not (b or c):  # (b s + c)^e = 0
                continue
            while len(powers) <= m[moved]:
                last = powers[-1]
                powers.append([add(mul(c, u), mul(b, v)) for u, v in zip(last + [0], [0] + last)])
            for i, q in enumerate(powers[m[moved]], start=m[along]):
                poly[i] = add(poly[i], mul(coeff, q))
        finite = finite or poly[-1] != 0
        while poly and poly[-1] == 0:
            poly.pop()
        while poly and len(gcd) != 1:
            gcd, poly = poly, _remainder(field, gcd, poly)
    return finite and len(gcd) == 1


class CurveJacobian:
    """The oracle's graded data of one curve over one field, in the
    order the pipeline reads it: milnor_hilbert() runs the degree sweep,
    keeping batches[j], its reduced batch in degree j+d-1, for the
    syzygy layer, and module_vector() counts its free columns.  f stays
    the input; partials, batches and _free are of the form swept."""

    def __init__(self, f: TernaryForm):
        if f.is_zero() or f.degree < 1:
            raise AnalysisError("a curve needs a nonzero form of degree >= 1")
        self.f = f
        self.field = f.field
        self.degree = f.degree
        self.partials = f.gradient()
        # j -> reduced batch in degree j+d-1, up to where the sweep stopped
        self.batches: list[np.ndarray] = []
        self._free: np.ndarray | None = None  # free columns where the sweep stopped
        self._milnor: MilnorProfile | None = None

    @property
    def top(self) -> int:
        """T = 3(d - 2), the last degree where N(f) can be nonzero."""
        return 3 * (self.degree - 2)

    def _slice_plan(self) -> SlicePlan:
        """The partials' terms for _reduced_batch, made once per sweep:
        the y and z exponents of each partial's terms, one row per
        partial, zero-padded to the longest, and their coefficients as
        the field's SliceTerms (padded with zeros the same way)."""
        terms = [list(partial.terms.items()) for partial in self.partials]
        ys, zs = np.zeros((2, 3, max(map(len, terms))), dtype=np.intp)
        for i, row in enumerate(terms):
            ys[i, : len(row)] = [m[1] for m, _ in row]
            zs[i, : len(row)] = [m[2] for m, _ in row]
        return ys, zs, self.field.slice_terms([[c for _, c in row] for row in terms])

    def _reduced_batch(self, table: np.ndarray, j: int, plan: SlicePlan) -> np.ndarray:
        """The rows y^b z^c * f_i, b + c = j, reduced modulo the kept
        form whose normal-form table is given: one block of j+1 rows per
        partial, ordered by the z exponent.  Row c of partial i's block
        is sum_m coeff_m * table[start_m + c] over the terms m of f_i,
        start_m the position of y^j m, so the block is one scaled
        contiguous slice of the table per term (module docstring), and
        the three blocks are one Field.slice_sums.  A padding term of
        the plan has exponents 0 and coefficient 0: its slice starts at
        the position of y^j and lies in the table, and it adds nothing.
        Field.slice_sums keeps every int64 sum below 2^63."""
        ys, zs, terms = plan
        return self.field.slice_sums(table, basis_position(j + ys, zs), j + 1, terms)

    def _sweep(self) -> tuple[list[int], list[np.ndarray], np.ndarray | None]:
        """The Milnor values on 0..T+2 of the form with these partials
        (dim S_k below d-1), its batches, and its free columns where it
        stopped, None with no certificate (module docstring); rejects a
        non-reduced form."""
        d, T = self.degree, self.top
        sweep = GrowingRref(self.field, basis_dimension(d - 2))
        values = [basis_dimension(k) for k in range(d - 1)]
        batches, free = [], None
        plan = self._slice_plan()
        kept = None  # m_(k-1), the number of free columns after step k-1
        for k in range(d - 1, T + 3):
            sweep.add_columns(k + 1)
            batches.append(self._reduced_batch(sweep.table, k - d + 1, plan))
            sweep.add_reduced(batches[-1])
            values.append(basis_dimension(k) - sweep.rank)
            if values[k] == kept and (not kept or sweep.free[-1] < basis_dimension(k - 2)):
                # J_f is (k-1)-regular: m is constant from k-1 on and the
                # free columns never change again (module docstring)
                values += values[k:] * (T + 2 - k)
                free = sweep.free
                break
            kept = values[k]
        sweep.release()  # the next sweep in this process reuses its buffer
        if values[T + 1] != values[T + 2]:
            raise NotReducedError(
                f"S/J_f keeps growing at degree {T + 2} "
                f"({values[T + 1]} -> {values[T + 2]}): "
                "the curve has a repeated component"
            )
        return values, batches, free

    def _first_change(self, candidates: range) -> Change | None:
        """The first of these changes whose line x misses Sigma."""
        changes = (_change(self.field, n) for n in candidates)
        return next((c for c in changes if _misses_sigma(self.field, self.partials, c)), None)

    def milnor_hilbert(self) -> MilnorProfile:
        """Hilbert function of S/J_f on 0..T+2, computed once; rejects
        non-reduced f.  Swept where x misses Sigma (module docstring); a
        sweep there that does not certify, or two that disagree, raise
        InternalConsistencyError."""
        if self._milnor is not None:
            return self._milnor
        d, T, field = self.degree, self.top, self.field
        if d < 2:
            raise AnalysisError("Milnor data needs degree >= 2")
        first = None  # f's own values, swept if none of the first six changes passes
        chosen = self._first_change(range(6))
        if chosen is None:
            first = self._sweep()[0]
            slopes = 2 * first[T + 1] + 1  # mod p only p - 1 are distinct
            slopes = min(slopes, field.p - 1) if field.p else slopes
            chosen = self._first_change(range(6, slopes + 4))  # a = 1/3, ..., 1/slopes
            if chosen is None:
                raise InternalConsistencyError("every line tried meets the singular scheme")
        if chosen != _change(field, 0):
            self.partials = TernaryForm(field, d, _substitute(field, self.f.terms, chosen)).gradient()
        values, self.batches, self._free = self._sweep()
        if first is not None and values != first:
            raise InternalConsistencyError("the Milnor values changed with the coordinates")
        if self._free is None:
            raise InternalConsistencyError("no regularity certificate where x misses Sigma")
        self._milnor = MilnorProfile(d, tuple(values))
        return self._milnor

    def module_vector(self) -> ModuleVector:
        """n_k = m_k - rank Phi_k for k = 0..T, rank Phi_k the number of
        the sweep's free columns below dim S_k; a vector that breaks
        n_k = m_k + m_(T-k) - m_s(k) - tau raises InternalConsistencyError
        (module docstring).  The analysis layer checks the rest."""
        milnor = self.milnor_hilbert()  # certifies reducedness
        m, T, tau = milnor.values, self.top, milnor.tjurina
        ranks = np.searchsorted(self._free, [basis_dimension(k) for k in range(T + 1)])
        values = tuple(m_k - int(r) for m_k, r in zip(m, ranks))
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
