"""Oracle tests: Milnor/Tjurina numbers, saturation, and the Hilbert
vector of N(f) on small curves with independently known answers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jacmod.fields import Field, prime_field, rational_field
from jacmod.jacobian import (
    CurveJacobian,
    NotReducedError,
    _shift_index,
    _unit_shift,
    smooth_reference,
)
from jacmod.linalg import kernel_basis, row_rank, rref
from jacmod.poly import TernaryForm, basis_dimension, monomial_basis, parse_form
from macaulay import macaulay_matrix
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


LADDER_OCTIC = "(x+1*y)^2*(x-1*y)^2*(x+2*y)^2*(x-2*y)^2 + z^8"
SWEEP_CURVES = (
    "(x*z - y^2) * (y*z - x^2)",
    "y^4 + x*z^3",
    "x^5 + y^5 + z^5",
    "x*y*z",
    LADDER_OCTIC,
)


def assert_sweep_matches_elimination(j: CurveJacobian, degrees) -> None:
    """Each rank and piece the sweep reports equals an independent
    elimination of the Macaulay matrix in degree k - d + 1.  The rank is
    compared with the reference rref's, which test_linalg pins to
    row_rank: over Q a second elimination per degree would double the
    test's time."""
    for k in degrees:
        expected = rref(macaulay_matrix(j, k - j.degree + 1), j.field)
        piece = j.jacobian_piece(k)
        assert j.jacobian_rank(k) == expected.rank, k
        assert piece.pivots == expected.pivots, k
        assert (piece.rank, piece.ncols) == (expected.rank, expected.ncols), k
        assert piece.matrix.dtype == expected.matrix.dtype
        assert piece.matrix.shape == expected.matrix.shape, k
        assert np.array_equal(piece.matrix, expected.matrix), k


class TestDegreeSweep:
    @pytest.mark.parametrize("field", [GFP, rational_field()], ids=["gfp", "rational"])
    @pytest.mark.parametrize("text", SWEEP_CURVES)
    def test_sweep_equals_independent_elimination(self, text, field):
        j = jac(text, field)
        T = j.top
        # ranks first: the sweep runs to T+4, past the Milnor window
        ranks = [j.jacobian_rank(k) for k in range(T + 5)]
        # the sweep only moves up, so the pieces below it come from fresh
        # sweeps: one stopped at T+1, one run up degree by degree
        assert_sweep_matches_elimination(jac(text, field), [T + 1])
        assert_sweep_matches_elimination(jac(text, field), range(T + 5))
        assert ranks == [j.jacobian_rank(k) for k in range(T + 5)]

    def test_piece_below_the_sweep_is_refused(self):
        j = jac("(x*z - y^2) * (y*z - x^2)")
        T = j.top
        j.jacobian_piece(T + 1)
        j.jacobian_rank(T + 2)
        assert j.jacobian_piece(T + 1).rank == j.jacobian_rank(T + 1)  # cached
        assert j.jacobian_rank(T) == basis_dimension(T) - 4
        with pytest.raises(RuntimeError, match="below the sweep"):
            j.jacobian_piece(T)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 6),
        st.lists(
            st.tuples(st.integers(0, 27), st.integers(1, 2**31 - 2)), min_size=1, max_size=10
        ),
    )
    def test_sweep_equals_elimination_on_random_curves(self, d, picks):
        basis = monomial_basis(d)
        terms = {basis[i % len(basis)]: c for i, c in picks}
        j = CurveJacobian(TernaryForm(GFP, d, terms))
        assert_sweep_matches_elimination(j, range(j.top + 4))

    @pytest.mark.parametrize("text", ["(x*z - y^2) * (y*z - x^2)", "x^2*y*z"])
    def test_milnor_builds_no_macaulay_matrix(self, text, monkeypatch):
        multiples = CurveJacobian._multiples

        def refuse(self, j, first):
            # only the new rows y^b z^c * f_i of degree j, never the x-multiples
            if first < basis_dimension(j - 1):
                raise AssertionError("the Milnor layer built the Macaulay matrix")
            return multiples(self, j, first)

        monkeypatch.setattr(CurveJacobian, "_multiples", refuse)
        j = jac(text)
        if text == "x^2*y*z":
            with pytest.raises(NotReducedError):
                j.milnor_hilbert()
        else:
            assert j.milnor_hilbert().values == (1, 3, 6, 7, 6, 4, 4, 4, 4)

    @pytest.mark.parametrize("text", ["(x*z - y^2) * (y*z - x^2)", "y^4 + x*z^3"])
    def test_mult_matrix_grows_by_x_shift(self, text):
        # the Macaulay matrix _multiples(j+1, 0) is _multiples(j, 0)
        # zero-padded (the multiples by x * basis(j)) plus, at the end of
        # each block, y^b z^c * f_i
        j = jac(text)
        d = j.degree
        for deg in range(5):
            small, big = j._multiples(deg, 0), j._multiples(deg + 1, 0)
            n0, n1 = basis_dimension(deg), basis_dimension(deg + 1)
            for i, partial in enumerate(j.partials):
                old = big[i * n1 : i * n1 + n0]
                assert np.array_equal(old[:, : small.shape[1]], small[i * n0 : (i + 1) * n0])
                assert not np.any(old[:, small.shape[1] :] != 0)
                target = monomial_basis(deg + d)
                for row, (a, b, c) in zip(
                    big[i * n1 + n0 : (i + 1) * n1], monomial_basis(deg + 1)[n0:]
                ):
                    assert a == 0 and b + c == deg + 1
                    multiple = partial * TernaryForm(GFP, deg + 1, {(0, b, c): 1})
                    expected = np.zeros(len(target), dtype=np.int64)
                    for mono, coeff in multiple.terms.items():
                        expected[target.index(mono)] = coeff
                    assert np.array_equal(row, expected)


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


def membership_matrix(j: CurveJacobian, k: int) -> np.ndarray:
    """Rows indexed by basis(k), 0 <= k <= T+1: the row of m holds the
    coordinates of x^N m, y^N m and z^N m in S_{T+1} / (J_f)_{T+1},
    N = T+1-k.  A form lies in Sat_k exactly when its coefficient vector
    is a left null vector (the definition of the saturation, with
    Sat_{T+1} = (J_f)_{T+1})."""
    N = j.top + 1 - k
    Q = j._quotient_projector()
    return np.concatenate([Q[_shift_index(k, _unit_shift(var, N))] for var in range(3)], axis=1)


def assert_saturation_matches_membership(j: CurveJacobian) -> None:
    """saturation_dimension(k) = dim S_k - rank of the membership matrix
    for k = 0..T+1, and dim (J_f)_{T+2} at T+2 (the ideal is saturated
    from T+1 on)."""
    T = j.top
    for k in range(T + 2):
        expected = basis_dimension(k) - row_rank(membership_matrix(j, k), j.field)
        assert j.saturation_dimension(k) == expected, k
    assert j.saturation_dimension(T + 2) == j.jacobian_rank(T + 2)


# x meets the singular scheme at (0 : 0 : 1); so does x + y/2 + z/4,
# at (1 : -2 : 0), where the lines z and 2x + y cross
TWO_LINES_REJECTED = "x*y*z*(2*x + y)"


class TestSaturation:
    def test_saturation_contains_ideal(self):
        j = jac("(x*z - y^2) * (y*z - x^2)")
        # the pieces first: the saturation runs the sweep up to T+2
        pieces = {k: j.jacobian_piece(k) for k in range(3, 7)}
        for k, piece in pieces.items():
            # canonical basis of the saturation piece: the left kernel of
            # the membership matrix (k <= T + 1 here)
            sat = rref(kernel_basis(membership_matrix(j, k).T, GFP), GFP)
            assert sat.rank == j.saturation_dimension(k)
            for row in piece.matrix:
                assert in_row_space(sat, row, GFP)

    @pytest.mark.parametrize("field", [GFP, rational_field()], ids=["gfp", "rational"])
    @pytest.mark.parametrize("text", [*SWEEP_CURVES, TWO_LINES_REJECTED])
    def test_nested_pass_equals_membership(self, text, field):
        assert_saturation_matches_membership(jac(text, field))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(3, 6),
        st.lists(
            st.tuples(st.integers(0, 27), st.integers(1, 2**31 - 2)), min_size=1, max_size=10
        ),
    )
    def test_nested_pass_equals_membership_on_random_curves(self, d, picks):
        basis = monomial_basis(d)
        terms = {basis[i % len(basis)]: c for i, c in picks}
        j = CurveJacobian(TernaryForm(GFP, d, terms))
        try:
            j.milnor_hilbert()
        except NotReducedError:
            assume(False)
        assert_saturation_matches_membership(j)

    @pytest.mark.parametrize("field", [GFP, rational_field()], ids=["gfp", "rational"])
    @pytest.mark.parametrize(
        "text, rejected",
        [("x*y*z", 1), ("(x*z - y^2) * (y*z - x^2)", 1), (TWO_LINES_REJECTED, 2)],
    )
    def test_certificate_rejects_lines_through_singular_points(
        self, text, rejected, field, monkeypatch
    ):
        tried = []
        image_ranks = CurveJacobian._image_ranks

        def recorded(self, a):
            tried.append(a)
            return image_ranks(self, a)

        monkeypatch.setattr(CurveJacobian, "_image_ranks", recorded)
        j = jac(text, field)
        T, tau = j.top, j.tjurina()
        j.saturation_dimension(0)
        # x + a y + a^2 z for a = 0, 1/2, 1/3, ...: the first `rejected`
        # lines fail the certificate and the pass stops at the next one
        slopes = [field.zero()] + [field.inv(field.embed_integer(m)) for m in range(2, 5)]
        assert tried == slopes[: rejected + 1]
        for a in slopes[:rejected]:
            assert image_ranks(j, a)[T] < tau
        assert image_ranks(j, slopes[rejected])[T] == tau

    @pytest.mark.parametrize("field", [GFP, rational_field()], ids=["gfp", "rational"])
    def test_quotient_projector_of_conic_pair(self, field):
        j = jac("(x*z - y^2) * (y*z - x^2)", field)
        piece = j.jacobian_piece(j.top + 1)
        Q = j._quotient_projector()
        free = [c for c in range(piece.ncols) if c not in piece.pivots]
        assert Q.shape == (piece.ncols, len(free))
        # the rows of (J_f)_{T+1} project to zero ...
        product = field.reduce(piece.matrix.astype(object) @ Q.astype(object))
        assert not np.any(product != 0)
        # ... and the free monomials are the coordinates of the quotient
        assert np.array_equal(Q[free], np.eye(len(free), dtype=np.int64))

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
