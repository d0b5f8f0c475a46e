"""Closed-form Hilbert vectors and curve classification.

Every evaluator here is a pure integer function of the discrete data
(degree, exponents, Tjurina number, mdr); none of them looks at the
polynomial.  The orchestration layer compares their output against
the linear-algebra oracle degree by degree.

Conventions: d = degree, T = 3(d-2), r = mdr = smallest exponent,
exponents d_1 <= ... <= d_m, second-level degrees e_1 <= ... <= e_{m-2},
sigma = 3(d-1) - e_{m-2}, nu = peak value of the vector.
"""

from __future__ import annotations

from dataclasses import dataclass

from .jacobian import InternalConsistencyError
from .resolution import ResolutionProfile


class MetadataError(ValueError):
    """User-supplied curve metadata contradicts the computation."""


def binom2(n: int) -> int:
    """C(n, 2), zero for n < 2."""
    return n * (n - 1) // 2 if n >= 2 else 0


# ---------------------------------------------------------------------------
# central-window values (parabolic profile near T/2)
# ---------------------------------------------------------------------------


def central_window(d: int, r: int) -> tuple[int, int]:
    """Degree window [2d-4-r, d-2+r] where the parabolic formula holds
    for non-free curves with 2r >= d."""
    return (2 * d - 4 - r, d - 2 + r)


def central_value(d: int, tau: int, j: int) -> int:
    """Parabolic central value at degree j (valid inside the window):

        d = 2e+1:  3e^2 - (j-3e+2)(j-3e+1) - tau
        d = 2e:    3e^2 - 3e + 1 - (j-3e+3)^2 - tau
    """
    if d % 2:
        e = (d - 1) // 2
        return 3 * e * e - (j - 3 * e + 2) * (j - 3 * e + 1) - tau
    e = d // 2
    return 3 * e * e - 3 * e + 1 - (j - 3 * e + 3) ** 2 - tau


def central_values(d: int, r: int, tau: int) -> dict[int, int]:
    """Central-window vector values {j: n_j} for 2r >= d, clipped to
    the report range [0, T]."""
    if 2 * r < d:
        raise ValueError("central window formula needs 2*mdr >= degree")
    T = 3 * (d - 2)
    lo, hi = central_window(d, r)
    return {j: central_value(d, tau, j) for j in range(max(lo, 0), min(hi, T) + 1)}


def plateau_window(d: int, r: int) -> tuple[int, int]:
    """Degree window [d+r-3, 2d-r-3] where the vector is constant (= nu)
    for non-free curves with 2r < d; one step outside on each side the
    value is nu - 1."""
    return (d + r - 3, 2 * d - r - 3)


# ---------------------------------------------------------------------------
# full vectors for the structured classes
# ---------------------------------------------------------------------------


def three_syzygy_vector(d: int, exponents: tuple[int, int, int], tau: int | None) -> list[int]:
    """Full Hilbert vector of N(f) for a 3-syzygy curve with
    d_1 + d_2 > d (not plus-one generated).

    Below a turning point T_0 the vector is an alternating sum of
    binomials read off the resolution; from T_0 to T/2 it follows the
    central formulas (parabola when 2 d_1 >= d, needing tau; constant
    plateau otherwise, with the constant forced by continuity).  The
    upper half is the mirror image.
    """
    d1, d2, d3 = sorted(exponents)
    if d1 + d2 <= d:
        raise ValueError("plus-one generated exponents: use plus_one_vector")
    T = 3 * (d - 2)
    half = T // 2
    e = d1 + d2 + d3
    sigma = 3 * (d - 1) - e
    k3 = 2 * (d - 1) - d3
    k2 = 2 * (d - 1) - d2
    k1 = 2 * (d - 1) - d1
    T0 = k1 - 1 if 2 * d1 >= d else d + d1 - 2

    def branch(k: int) -> int:
        if k < sigma:
            return 0
        v = binom2(k - sigma + 2)
        if k >= k3:
            v -= binom2(k - k3 + 2)
        if k >= k2:
            v -= binom2(k - k2 + 2)
        return v

    values = [0] * (T + 1)
    for k in range(0, min(T0, half + 1)):
        values[k] = branch(k)
    if T0 <= half:
        if 2 * d1 >= d:
            if tau is None:
                raise ValueError("tau is required when 2*d_1 >= d")
            filled = central_values(d, d1, tau)
            for k in range(T0, half + 1):
                values[k] = filled[k]
            lo = max(central_window(d, d1)[0], sigma)
            for k in range(lo, min(T0, half + 1)):
                if filled.get(k, branch(k)) != branch(k):
                    raise InternalConsistencyError(
                        f"central and resolution formulas disagree at {k}"
                    )
        else:
            plateau = branch(T0 - 1)
            for k in range(T0, half + 1):
                values[k] = plateau
    for k in range(half + 1, T + 1):
        values[k] = values[T - k]
    return values


def plus_one_vector(d: int, exponents: tuple[int, int, int]) -> list[int]:
    """Full Hilbert vector for a plus-one generated curve
    (d_1 + d_2 = d, d_3 >= d_2), which includes the nearly free case
    d_3 = d_2: ramp up from 2d-3-d_3, plateau at d_3 - d_2 + 1, mirror."""
    d1, d2, d3 = sorted(exponents)
    if d1 + d2 != d or d3 < d2:
        raise ValueError("not plus-one generated exponent pattern")
    T = 3 * (d - 2)
    half = T // 2
    k3 = 2 * d - d3 - 3
    k2 = 2 * d - d2 - 3
    nu = d3 - d2 + 1
    values = [0] * (T + 1)
    for k in range(k3, half + 1):
        values[k] = k - k3 + 1 if k <= k2 else nu
    for k in range(half + 1, T + 1):
        values[k] = values[T - k]
    return values


def max_tjurina_tau(d: int, r: int) -> int:
    """Largest Tjurina number an (d, r) curve can have:
    (d-1)(d-r-1) + r^2 - C(2r-d+2, 2)."""
    return (d - 1) * (d - r - 1) + r * r - binom2(2 * r - d + 2)


def maximal_tjurina_vector(d: int, r: int, tau: int) -> list[int]:
    """Full vector for a maximal Tjurina curve with 2r >= d: the
    central parabola on [2d-3-r, d-3+r], zero outside."""
    if 2 * r < d:
        raise ValueError("needs 2*mdr >= degree")
    if tau != max_tjurina_tau(d, r):
        raise ValueError("tau is not maximal for this (d, r)")
    T = 3 * (d - 2)
    values = [0] * (T + 1)
    for j in range(max(2 * d - 3 - r, 0), min(d - 3 + r, T) + 1):
        values[j] = central_value(d, tau, j)
    # the parabola must vanish exactly at the window edges, making the
    # zero-extension consistent with the general central formula
    for edge in (2 * d - 4 - r, d - 2 + r):
        if 0 <= edge <= T and central_value(d, tau, edge) != 0:
            raise InternalConsistencyError(
                "maximal Tjurina vector does not close at the window edge"
            )
    return values


def nodal_values(
    d: int,
    smooth_ref: tuple[int, ...],
    nodes: int,
    components: int,
    all_rational: bool,
) -> dict[int, int]:
    """Known vector values for a nodal curve (all singularities A_1).

    m(f_s)_k - |nodes| on d-3 < k <= T/2, the corrected value at the
    boundary degree d-3, zero below d-3 when every component is
    rational, and the mirror images of all of the above.  Degrees the
    formula does not determine are simply absent from the dict."""
    if d < 4:
        raise MetadataError("nodal evaluation needs degree >= 4")
    if nodes < 1 or components < 1:
        raise MetadataError("a nodal curve needs >= 1 node and component")
    T = 3 * (d - 2)
    half = T // 2
    vals: dict[int, int] = {}
    for k in range(d - 2, half + 1):
        vals[k] = smooth_ref[k] - nodes
    boundary = smooth_ref[d - 3] - nodes + components - 1
    vals[d - 3] = boundary
    if all_rational:
        for k in range(0, d - 3):
            vals[k] = 0
        if boundary != 0:
            raise MetadataError(
                "rational nodal curve must have a zero vector below the "
                f"plateau, got {boundary} at degree {d - 3}"
            )
    if any(v < 0 for v in vals.values()):
        raise MetadataError("node count exceeds the smooth reference values")
    for k in list(vals):
        vals[T - k] = vals[k]
    return vals


# ---------------------------------------------------------------------------
# rank-2 bundle data and the cohomological lower bound for sigma
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BundleInvariants:
    c1: int
    c2: int


def bundle_invariants(d: int, tau: int) -> BundleInvariants:
    """Chern numbers of the rank-2 vector bundle attached to the curve,
    normalized so c1 is 0 or -1.  Its (semi)stability depends on mdr
    versus d/2 only and is reported by classify."""
    if d % 2:
        e = (d - 1) // 2
        return BundleInvariants(0, 3 * e * e - tau)
    e = d // 2
    return BundleInvariants(-1, 3 * e * e - 3 * e + 1 - tau)


def hartshorne_bound(d: int, r: int, tau: int) -> int:
    """Lower bound for sigma (first nonzero degree of N(f)) valid when
    2r >= d-1, from the classification of semistable rank-2 bundles."""
    if 2 * r < d - 1:
        raise ValueError("bound needs 2*mdr >= degree - 1")
    if d % 2:
        e = (d - 1) // 2
        return tau - 2 * e * e - 2 * r * e + r * r + 3 * e - 1
    e = d // 2
    return tau - 2 * e * e - 2 * r * e + r * r + 5 * e + r - 3


def defect_stable_degree(d: int, r: int) -> int:
    """From 2d-4-r on, dim(S/J_f^sat)_k is already the Tjurina number."""
    return 2 * d - 4 - r


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveClass:
    """One primary tag plus orthogonal flags."""

    tag: str  # pencil-of-lines | smooth | free | nearly-free |
    #           plus-one-generated | three-syzygy | m-syzygy
    m: int | None
    exponents: tuple[int, ...]
    level: int | None  # d_3 for plus-one generated curves
    maximal_tjurina: bool
    stable: bool
    semistable: bool


PENCIL = CurveClass("pencil-of-lines", None, (), None, False, False, False)


def classify(d: int, profile: ResolutionProfile, tjurina: int | None) -> CurveClass:
    """Primary tag from the exponent pattern, maximal-Tjurina flag from
    the Tjurina count cross-checked against the degree pattern.  With
    tjurina None only the exponent pattern is used: the smooth tag and
    the maximal-Tjurina flag are never set."""
    exps = profile.exponents
    m = len(exps)
    r = profile.mdr
    stable = 2 * r >= d
    semistable = 2 * r >= d - 1

    if tjurina == 0:
        if exps != (d - 1,) * 3:
            raise InternalConsistencyError(
                f"smooth curve with exponents {exps} instead of Koszul"
            )
        tag, level = "smooth", None
    elif m == 2:
        tag, level = "free", None
    elif m == 3:
        d1, d2, d3 = exps
        if d1 + d2 == d and d2 == d3:
            tag, level = "nearly-free", None
        elif d1 + d2 == d:
            tag, level = "plus-one-generated", d3
        else:
            tag, level = "three-syzygy", None
    else:
        tag, level = "m-syzygy", None

    maximal = False
    if semistable and tjurina is not None:
        by_count = tjurina == max_tjurina_tau(d, r)
        by_pattern = (
            m == 2 * r - d + 3
            and all(di == r for di in exps)
            and all(ej == d + r for ej in profile.second_degrees)
        )
        if by_count != by_pattern:
            raise InternalConsistencyError(
                f"maximal-Tjurina detection split: count says {by_count}, "
                f"degree pattern says {by_pattern} (d={d}, r={r}, "
                f"tau={tjurina}, exponents={exps})"
            )
        maximal = by_count
    return CurveClass(tag, m, exps, level, maximal, stable, semistable)
