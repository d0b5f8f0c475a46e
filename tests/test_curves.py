"""Closed-form vector evaluators and classification, frozen against
hand-computed values and cross-checked against the oracle on small
curves."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jacmod.curves import (
    BundleInvariants,
    MetadataError,
    binom2,
    bundle_invariants,
    central_value,
    central_values,
    central_window,
    classify,
    defect_stable_degree,
    hartshorne_bound,
    max_tjurina_tau,
    maximal_tjurina_vector,
    nodal_values,
    plateau_window,
    plus_one_vector,
    three_syzygy_vector,
)
from jacmod.fields import prime_field
from jacmod.jacobian import CurveJacobian, smooth_reference
from jacmod.poly import parse_form
from jacmod.resolution import ResolutionProfile, resolve

GFP = prime_field(2**31 - 1)


def analyzed(text: str):
    j = CurveJacobian(parse_form(text, GFP))
    return j, resolve(j)


class TestBinom2:
    def test_values(self):
        assert [binom2(n) for n in range(-1, 6)] == [0, 0, 0, 1, 3, 6, 10]


class TestCentralValues:
    def test_smooth_cubic(self):
        assert central_values(3, 2, 0) == {0: 1, 1: 3, 2: 3, 3: 1}

    def test_smooth_quartic(self):
        # window [1, 5] for r = 3; interior matches the Milnor algebra
        assert central_values(4, 3, 0) == {1: 3, 2: 6, 3: 7, 4: 6, 5: 3}

    def test_window_endpoints(self):
        assert central_window(5, 3) == (3, 6)

    def test_even_degree_parabola(self):
        # d = 4, tau = 6 (maximal for r = 2): 1 - (j-3)^2
        assert central_value(4, 6, 3) == 1
        assert central_value(4, 6, 2) == 0
        assert central_value(4, 6, 4) == 0

    def test_requires_large_mdr(self):
        with pytest.raises(ValueError):
            central_values(5, 2, 3)


class TestThreeSyzygyVector:
    def test_low_mdr_plateau_profile(self):
        # d = 63, exponents (9, 56, 62): plateau branch, no tau needed
        v = three_syzygy_vector(63, (9, 56, 62), None)
        T = 3 * 61
        assert len(v) == T + 1
        assert v[58] == 0 and v[59] == 1  # sigma = 59
        assert v[60:63] == [3, 6, 9]  # ramp slows at k3 = 62
        assert v[68] == 26 and v[69] == 27  # plateau starts at d+r-4+1
        assert all(v[k] == 27 for k in range(69, 92))
        assert v[T // 2] == 27
        assert all(v[k] == v[T - k] for k in range(T + 1))
        assert plateau_window(63, 9) == (69, 114)

    def test_tau_needed_only_for_high_mdr(self):
        with pytest.raises(ValueError):
            three_syzygy_vector(4, (2, 3, 3), None)

    def test_criterion_curve_degree_twenty(self):
        v = three_syzygy_vector(20, (9, 19, 19), 190)
        assert v[19] == 53
        assert v[26] == 81 and v[27] == 81 and v[28] == 81
        assert next(k for k, x in enumerate(v) if x) == 10

    def test_rejects_plus_one_exponents(self):
        with pytest.raises(ValueError):
            three_syzygy_vector(5, (2, 3, 4), None)


class TestPlusOneVector:
    def test_quintic_level_four(self):
        assert plus_one_vector(5, (2, 3, 4)) == [0, 0, 0, 1, 2, 2, 1, 0, 0, 0]

    def test_nearly_free_quartic(self):
        assert plus_one_vector(4, (1, 3, 3)) == [0, 0, 1, 1, 1, 0, 0]

    def test_nearly_free_cubic(self):
        # T = 3, so the single plateau value sits at both middle degrees
        assert plus_one_vector(3, (1, 2, 2)) == [0, 1, 1, 0]

    def test_oracle_agreement_nearly_free(self):
        j, _ = analyzed("y^4 + x*z^3")
        assert tuple(plus_one_vector(4, (1, 3, 3))) == j.module_vector().values

    def test_rejects_other_patterns(self):
        with pytest.raises(ValueError):
            plus_one_vector(4, (2, 3, 3))


class TestMaximalTjurina:
    def test_tau_bound_values(self):
        assert max_tjurina_tau(4, 2) == 6
        assert max_tjurina_tau(2, 1) == 0
        assert max_tjurina_tau(3, 1) == 3  # triangle of lines attains it

    def test_quartic_vector(self):
        assert maximal_tjurina_vector(4, 2, 6) == [0, 0, 0, 1, 0, 0, 0]

    def test_rejects_non_maximal_tau(self):
        with pytest.raises(ValueError):
            maximal_tjurina_vector(4, 2, 5)

    def test_rejects_small_mdr(self):
        with pytest.raises(ValueError):
            maximal_tjurina_vector(5, 2, max_tjurina_tau(5, 2))


class TestNodal:
    def test_conic_pair(self):
        ref = smooth_reference(4)
        vals = nodal_values(4, ref, nodes=4, components=2, all_rational=True)
        # determined at every degree here: matches the oracle vector
        assert [vals[k] for k in range(7)] == [0, 0, 2, 3, 2, 0, 0]

    def test_boundary_needs_component_count(self):
        ref = smooth_reference(4)
        vals = nodal_values(4, ref, nodes=3, components=1, all_rational=False)
        assert vals[1] == ref[1] - 3 + 1 - 1  # elliptic-smooth part allowed
        assert vals[2] == ref[2] - 3

    def test_rational_inconsistency_caught(self):
        ref = smooth_reference(4)
        with pytest.raises(MetadataError):
            nodal_values(4, ref, nodes=3, components=2, all_rational=True)

    def test_too_many_nodes_caught(self):
        with pytest.raises(MetadataError):
            nodal_values(4, smooth_reference(4), nodes=8, components=2, all_rational=False)

    def test_degree_three_rejected(self):
        with pytest.raises(MetadataError):
            nodal_values(3, smooth_reference(3), nodes=1, components=1, all_rational=False)

    def test_symmetric_fill(self):
        ref = smooth_reference(5)
        vals = nodal_values(5, ref, nodes=2, components=1, all_rational=False)
        T = 9
        for k in list(vals):
            assert vals[T - k] == vals[k]


def bundle_class(d: int, exponents: tuple[int, ...], second: tuple[int, ...]):
    """classify's verdict on the exponent pattern alone (tau unknown)."""
    return classify(d, ResolutionProfile(d, exponents, second), None)


class TestBundleInvariants:
    def test_odd_degree(self):
        assert bundle_invariants(5, 10) == BundleInvariants(c1=0, c2=12 - 10)
        c = bundle_class(5, (3, 3, 3, 3), (8, 8))
        assert c.stable and c.semistable

    def test_even_degree(self):
        b = bundle_invariants(4, 4)
        assert b.c1 == -1
        assert b.c2 == 7 - 4
        assert bundle_class(4, (2, 2, 2), (6,)).stable

    def test_not_semistable(self):
        c = bundle_class(20, (9, 19, 19), (47,))
        assert not c.stable and not c.semistable

    def test_stability_threshold(self):
        c = bundle_class(5, (2, 3, 3), (8,))
        assert not c.stable
        assert c.semistable


class TestHartshorneBound:
    def test_uninodal_quintic(self):
        # r = d - 1 = 4, tau = 1: bound is -2, vacuously satisfied
        assert hartshorne_bound(5, 4, 1) == -2

    def test_smooth_quartic(self):
        assert hartshorne_bound(4, 3, 0) == -1

    def test_equality_at_maximal_tjurina(self):
        # when tau is maximal and 2r >= d the bound is attained: sigma = 2d-r-3
        for d in range(3, 30):
            for r in range((d + 1) // 2, d):
                tau = max_tjurina_tau(d, r)
                assert hartshorne_bound(d, r, tau) == 2 * d - r - 3

    def test_requires_semistable_range(self):
        with pytest.raises(ValueError):
            hartshorne_bound(20, 9, 190)

    def test_defect_stable_degree(self):
        assert defect_stable_degree(4, 2) == 2


class TestClassify:
    def test_smooth(self):
        j, prof = analyzed("x^3 + y^3 + z^3")
        c = classify(3, prof, j.milnor_hilbert().tjurina)
        assert c.tag == "smooth"
        assert c.exponents == (2, 2, 2)
        assert not c.maximal_tjurina
        assert c.stable

    def test_smooth_conic_is_maximal_tjurina(self):
        j, prof = analyzed("x^2 + y^2 + z^2")
        c = classify(2, prof, j.milnor_hilbert().tjurina)
        assert c.tag == "smooth"
        assert c.maximal_tjurina

    def test_free_triangle_maximal(self):
        j, prof = analyzed("x*y*z")
        c = classify(3, prof, j.milnor_hilbert().tjurina)
        assert c.tag == "free"
        assert c.m == 2
        assert c.maximal_tjurina  # balanced free curves attain the bound
        assert c.semistable and not c.stable

    def test_unbalanced_free_not_flagged(self):
        j, prof = analyzed("x * y * (x + y) * z")
        c = classify(4, prof, j.milnor_hilbert().tjurina)
        assert c.tag == "free"
        assert not c.semistable
        assert not c.maximal_tjurina

    def test_nearly_free(self):
        j, prof = analyzed("y^4 + x*z^3")
        c = classify(4, prof, j.milnor_hilbert().tjurina)
        assert c.tag == "nearly-free"
        assert c.level is None
        assert c.exponents == (1, 3, 3)

    def test_four_syzygy(self):
        j, prof = analyzed("(x*z - y^2) * (y*z - x^2)")
        c = classify(4, prof, j.milnor_hilbert().tjurina)
        assert c.tag == "m-syzygy"
        assert c.m == 4
        assert c.stable

    def test_nearly_free_cubic(self):
        j, prof = analyzed("x * (x^2 + y*z)")
        c = classify(3, prof, j.milnor_hilbert().tjurina)
        assert c.tag == "nearly-free"


class TestFormulaProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_three_syzygy_vector_shape(self, data):
        d = data.draw(st.integers(min_value=4, max_value=40))
        d1 = data.draw(st.integers(min_value=1, max_value=d - 2))
        lo2 = max(d1, d + 1 - d1)
        assume(lo2 <= 2 * d - 4)
        d2 = data.draw(st.integers(min_value=lo2, max_value=2 * d - 4))
        hi3 = min(2 * d - 4, 3 * (d - 1) - 1 - d1 - d2)  # keep sigma >= 1
        assume(d2 <= hi3)
        d3 = data.draw(st.integers(min_value=d2, max_value=hi3))

        sigma = 3 * (d - 1) - (d1 + d2 + d3)
        k3 = 2 * (d - 1) - d3
        k2 = 2 * (d - 1) - d2

        def resolution_branch(k: int) -> int:
            v = binom2(k - sigma + 2)
            if k >= k3:
                v -= binom2(k - k3 + 2)
            if k >= k2:
                v -= binom2(k - k2 + 2)
            return v

        tau = None
        if 2 * d1 >= d:
            # the tau that an actual curve with these exponents must have,
            # read off from the junction degree of the two formulas
            j = 2 * d - 4 - d1
            tau = central_value(d, 0, j) - resolution_branch(j)
            assume(tau >= 0)
        v = three_syzygy_vector(d, (d1, d2, d3), tau)
        T = 3 * (d - 2)
        assert len(v) == T + 1
        assert all(v[k] == v[T - k] for k in range(T + 1))
        assert all(v[k] == 0 for k in range(sigma))
        assert v[sigma] == 1

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_plus_one_vector_shape(self, data):
        d = data.draw(st.integers(min_value=3, max_value=60))
        d1 = data.draw(st.integers(min_value=1, max_value=d // 2))
        d2 = d - d1
        d3 = data.draw(st.integers(min_value=d2, max_value=2 * d - 4))
        v = plus_one_vector(d, (d1, d2, d3))
        T = 3 * (d - 2)
        assert all(x >= 0 for x in v)
        assert all(v[k] == v[T - k] for k in range(T + 1))
        assert max(v) == d3 - d2 + 1

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=50).flatmap(
            lambda d: st.tuples(st.just(d), st.integers(min_value=(d + 1) // 2, max_value=d - 1))
        )
    )
    def test_maximal_tjurina_vector_consistent(self, dr):
        d, r = dr
        tau = max_tjurina_tau(d, r)
        v = maximal_tjurina_vector(d, r, tau)
        T = 3 * (d - 2)
        assert all(x >= 0 for x in v)
        assert all(v[k] == v[T - k] for k in range(T + 1))
        # bound attained: first nonzero degree is 2d-r-3
        if any(v):
            assert next(k for k, x in enumerate(v) if x) == max(2 * d - r - 3, 0)
            assert hartshorne_bound(d, r, tau) == 2 * d - r - 3
