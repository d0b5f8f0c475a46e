"""Oracle tests: Milnor/Tjurina numbers, saturation, and the Hilbert
vector of N(f) on small curves with independently known answers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacmod.fields import Field, prime_field, rational_field
from jacmod.jacobian import (
    CurveJacobian,
    NotReducedError,
    smooth_reference,
)
from jacmod.linalg import kernel_basis, rref
from jacmod.poly import monomial_basis, parse_form
from row_space import in_row_space

GFP = prime_field(2**31 - 1)


def jac(text: str, field: Field = GFP) -> CurveJacobian:
    return CurveJacobian(parse_form(text, field))


class TestSmoothReference:
    def test_quartic(self):
        assert smooth_reference(4) == (1, 3, 6, 7, 6, 3, 1, 0, 0)

    def test_cubic(self):
        assert smooth_reference(3) == (1, 3, 3, 1, 0, 0)

    def test_total_dimension_is_milnor_of_fermat(self):
        assert sum(smooth_reference(5)) == 4**3


class TestMilnor:
    def test_fermat_cubic(self):
        m = jac("x^3 + y^3 + z^3").milnor_hilbert()
        assert m.values == (1, 3, 3, 1, 0, 0)
        assert m.tjurina == 0
        assert m.top == 3

    def test_triangle_of_lines(self):
        m = jac("x*y*z").milnor_hilbert()
        assert m.values == (1, 3, 3, 3, 3, 3)
        assert m.tjurina == 3

    def test_conic_pair_four_nodes(self):
        m = jac("(x*z - y^2) * (y*z - x^2)").milnor_hilbert()
        assert m.values == (1, 3, 6, 7, 6, 4, 4, 4, 4)
        assert m.tjurina == 4

    def test_cuspidal_cubic(self):
        # one A_2 cusp
        assert jac("y^2*z - x^3").tjurina() == 2

    def test_nearly_free_quartic(self):
        m = jac("y^4 + x*z^3").milnor_hilbert()
        assert m.values == (1, 3, 6, 7, 7, 6, 6, 6, 6)
        assert m.tjurina == 6

    def test_non_reduced_rejected(self):
        with pytest.raises(NotReducedError):
            jac("x^2*y*z").milnor_hilbert()

    def test_non_reduced_conic_rejected(self):
        with pytest.raises(NotReducedError):
            jac("x^2").milnor_hilbert()

    def test_rational_field_agrees(self):
        q = jac("(x*z - y^2) * (y*z - x^2)", rational_field())
        assert q.milnor_hilbert().values == (1, 3, 6, 7, 6, 4, 4, 4, 4)


class TestJacobianPieces:
    def test_fermat_cubic_piece_ranks(self):
        j = jac("x^3 + y^3 + z^3")
        assert j.jacobian_piece(2).rank == 3
        assert j.jacobian_piece(3).rank == 9
        # dim M(f)_3 = 10 - 9 = 1, matching the Milnor tail
        assert len(monomial_basis(3)) - j.jacobian_rank(3) == 1

    def test_triangle_piece_rank(self):
        assert jac("x*y*z").jacobian_rank(3) == 7

    def test_piece_rows_multiples_of_partials(self):
        j = jac("x^3 + y^3 + z^3")
        piece = j.jacobian_piece(3)
        fx = np.zeros(len(monomial_basis(3)), dtype=np.int64)
        for mono, c in j.f.partial(0).terms.items():
            ex, ey, ez = mono
            fx[monomial_basis(3).index((ex + 1, ey, ez))] = c
        assert in_row_space(piece, fx, GFP)


class TestModuleVector:
    def test_fermat_cubic_full_module(self):
        # tau = 0 so N(f) = M(f): the whole Milnor algebra up to T
        n = jac("x^3 + y^3 + z^3").module_vector()
        assert n.values == (1, 3, 3, 1)
        assert n.sigma == 0
        assert n.nu == 3

    def test_smooth_conic(self):
        n = jac("x^2 + y^2 + z^2").module_vector()
        assert n.values == (1,)
        assert n.sigma == 0
        assert n.nu == 1

    def test_free_curve_vanishes(self):
        n = jac("x*y*z").module_vector()
        assert n.values == (0, 0, 0, 0)
        assert n.sigma is None
        assert n.nu == 0

    def test_conic_pair(self):
        n = jac("(x*z - y^2) * (y*z - x^2)").module_vector()
        assert n.values == (0, 0, 2, 3, 2, 0, 0)
        assert n.sigma == 2
        assert n.nu == 3

    def test_nearly_free_quartic(self):
        n = jac("y^4 + x*z^3").module_vector()
        assert n.values == (0, 0, 1, 1, 1, 0, 0)
        assert n.sigma == 2
        assert n.nu == 1

    def test_rational_field_agrees(self):
        n = jac("y^4 + x*z^3", rational_field()).module_vector()
        assert n.values == (0, 0, 1, 1, 1, 0, 0)


class TestSaturation:
    def test_saturation_contains_ideal(self):
        j = jac("(x*z - y^2) * (y*z - x^2)")
        for k in range(3, 7):
            piece = j.jacobian_piece(k)
            # canonical basis of the saturation piece: the left kernel of
            # the membership test matrix (k <= T + 1 here)
            test_matrix = j._saturation_test_matrix(k)
            sat = rref(kernel_basis(test_matrix.T, GFP), GFP)
            assert sat.rank == j.saturation_dimension(k)
            for row in piece.matrix:
                assert in_row_space(sat, row, GFP)

    def test_smooth_curve_saturates_to_everything(self):
        # tau = 0 forces the saturation to be the whole ring in low degrees
        j = jac("x^3 + y^3 + z^3")
        for k in range(0, 4):
            assert j.saturation_dimension(k) == len(monomial_basis(k))

    def test_free_curve_ideal_already_saturated(self):
        j = jac("x*y*z")
        for k in range(2, 6):
            assert j.saturation_dimension(k) == j.jacobian_rank(k)

    def test_high_degree_falls_back_to_ideal(self):
        j = jac("x*y*z")
        T = 3 * (j.degree - 2)
        assert j.saturation_dimension(T + 2) == j.jacobian_rank(T + 2)


class TestCoincidenceThreshold:
    def test_free_cubic(self):
        ct = jac("x*y*z").coincidence_threshold()
        assert ct.value == 2
        assert not ct.censored

    def test_conic_pair(self):
        ct = jac("(x*z - y^2) * (y*z - x^2)").coincidence_threshold()
        assert ct.value == 4
        assert not ct.censored

    def test_smooth_curve_censored(self):
        ct = jac("x^3 + y^3 + z^3").coincidence_threshold()
        assert ct.censored
        assert ct.value == 3 * (3 - 2) + 2


@st.composite
def random_reduced_quartic(draw):
    """Smooth-ish random quartics: generic coefficients on the full
    monomial basis are reduced with overwhelming probability; the
    NotReducedError filter catches the rest."""
    coeffs = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**31 - 2),
            min_size=15,
            max_size=15,
        )
    )
    if all(c == 0 for c in coeffs):
        coeffs[0] = 1
    return coeffs


class TestProperties:
    @settings(max_examples=10, deadline=None)
    @given(random_reduced_quartic())
    def test_vector_symmetric_and_unimodal(self, coeffs):
        from jacmod.poly import TernaryForm

        terms = {m: c for m, c in zip(monomial_basis(4), coeffs) if c}
        f = TernaryForm(GFP, 4, terms)
        j = CurveJacobian(f)
        try:
            n = j.module_vector()
        except NotReducedError:
            return
        T = n.top
        # module_vector re-checks these internally; assert independently
        vals = n.values
        assert all(vals[k] == vals[T - k] for k in range(T + 1))
        rising = vals[: T // 2 + 1]
        assert all(a <= b for a, b in zip(rising, rising[1:]))

    @settings(max_examples=6, deadline=None)
    @given(random_reduced_quartic())
    def test_two_primes_agree(self, coeffs):
        from jacmod.poly import TernaryForm

        pa, pb = prime_field(2**31 - 1), prime_field(2147483629)
        results = []
        for fld in (pa, pb):
            terms = {
                m: c % fld.config.modulus
                for m, c in zip(monomial_basis(4), coeffs)
                if c % fld.config.modulus
            }
            if not terms:
                return
            try:
                results.append(CurveJacobian(TernaryForm(fld, 4, terms)).module_vector())
            except NotReducedError:
                return
        assert results[0].values == results[1].values
