"""Oracle tests: Milnor/Tjurina numbers, saturation, and the Hilbert
vector of N(f) on small curves with independently known answers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jacmod import jacobian, linalg
from jacmod.fields import Field, prime_field, rational_field
from jacmod.jacobian import (
    CurveJacobian,
    InternalConsistencyError,
    MilnorProfile,
    NotReducedError,
    _yz_exponents,
    smooth_reference,
)
from jacmod.linalg import GrowingRref, RrefResult, kernel_basis, row_rank, rref
from jacmod.poly import TernaryForm, basis_dimension, basis_position, monomial_basis, parse_form
from macaulay import macaulay_matrix, new_rows
from row_space import in_row_space, null_space, reversed_rref

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
        assert jac("y^2*z - x^3").milnor_hilbert().tjurina == 2

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
        m = jac("x^3 + y^3 + z^3").milnor_hilbert().values
        # dim (J_f)_2 = 3 and dim (J_f)_3 = 9, so dim M(f)_3 = 10 - 9 = 1
        assert basis_dimension(2) - m[2] == 3
        assert basis_dimension(3) - m[3] == 9
        assert m[3] == 1

    def test_triangle_piece_rank(self):
        assert basis_dimension(3) - jac("x*y*z").milnor_hilbert().values[3] == 7

    def test_piece_rows_multiples_of_partials(self):
        # the sweep keeps the free columns of the reversed rref of the
        # multiples m * f_i of degree T+1, and the projector onto
        # S_(T+1) / (J_f)_(T+1) only when x meets Sigma (tau = 0 for the
        # Fermat cubic; 4 for the conic pair, where x meets Sigma); every
        # m * f_i maps to zero under that projector
        for text, meets in (("x^3 + y^3 + z^3", False), ("(x*z - y^2) * (y*z - x^2)", True)):
            j = jac(text)
            tau = j.milnor_hilbert().tjurina
            multiples = macaulay_matrix(j, j.top + 2 - j.degree)
            assert j._free.tolist() == free_columns(reversed_rref(multiples, GFP))
            if not meets:
                assert j._projector is None
                continue
            assert j._projector.shape == (basis_dimension(j.top + 1), tau)
            product = GFP.reduce(multiples.astype(object) @ j._projector.astype(object))
            assert not np.any(product != 0)


LADDER_OCTIC = "(x+1*y)^2*(x-1*y)^2*(x+2*y)^2*(x-2*y)^2 + z^8"


def lines_curve(d: int) -> str:
    """The d lines x + i*y + i^2*z: nodal, and no node lies on the line x."""
    return "*".join(f"(x+{i}*y+{i * i}*z)" for i in range(1, d + 1))


SWEEP_CURVES = (
    "(x*z - y^2) * (y*z - x^2)",
    "y^4 + x*z^3",
    "x^5 + y^5 + z^5",
    "x*y*z",
    LADDER_OCTIC,
    lines_curve(5),
)


def free_columns(reference: RrefResult) -> list[int]:
    """The columns of a reduced form that hold no pivot."""
    return [c for c in range(reference.matrix.shape[1]) if c not in reference.pivots]


def assert_sweep_matches_elimination(j: CurveJacobian) -> None:
    """Each Milnor value m_k, k <= T+2, is dim S_k minus the rank of an
    independent elimination of the Macaulay matrix in degree k - d + 1.
    The free columns kept at T+1 are those of that matrix's rref with
    the columns in reverse order (the pivot rule of the sweep).  The
    projector is kept exactly when x meets Sigma, that is when the first
    dim S_T rows of the null-space projector of that rref have rank
    below tau, and then equals it.  A curve the sweep rejects as
    non-reduced has m_(T+1) != m_(T+2) there too."""
    T = j.top
    expected = [
        basis_dimension(k) - row_rank(macaulay_matrix(j, k - j.degree + 1), j.field)
        for k in range(T + 3)
    ]
    try:
        values = j.milnor_hilbert().values
    except NotReducedError:
        assert expected[T + 1] != expected[T + 2]
        return
    assert list(values) == expected
    reference = reversed_rref(macaulay_matrix(j, T + 2 - j.degree), j.field)
    projector = null_space(reference, j.field).T
    assert reference.matrix.shape[1] - reference.rank == values[T + 1]
    assert j._free.tolist() == free_columns(reference)
    if row_rank(projector[: basis_dimension(T)], j.field) == values[T + 1]:
        assert j._projector is None
        return
    assert j._projector.dtype == projector.dtype
    assert j._projector.shape == projector.shape
    assert np.array_equal(j._projector, projector)


def record_batches(monkeypatch) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(j, the table read, the batch built) for every slice-kernel call
    from now on."""
    batches = []
    reduced_batch = CurveJacobian._reduced_batch

    def recorded(self, table, j):
        batch = reduced_batch(self, table, j)
        batches.append((j, table.copy(), batch))
        return batch

    monkeypatch.setattr(CurveJacobian, "_reduced_batch", recorded)
    return batches


def assert_batch_is_new_rows_times_table(
    j: CurveJacobian, deg: int, table: np.ndarray, batch: np.ndarray
) -> None:
    """The batch equals the new rows of the Macaulay matrix in degree
    deg times the table, entry for entry, in the field's dtype."""
    rows = new_rows(j, deg)
    assert rows.shape[1] == table.shape[0]
    expected = j.field.array(j.field.reduce(rows.astype(object) @ table.astype(object)))
    assert batch.dtype == expected.dtype
    assert batch.shape == expected.shape
    assert np.array_equal(batch, expected)


class TestDegreeSweep:
    @pytest.mark.parametrize("field", [GFP, rational_field()], ids=["gfp", "rational"])
    @pytest.mark.parametrize("text", SWEEP_CURVES)
    def test_sweep_equals_independent_elimination(self, text, field):
        assert_sweep_matches_elimination(jac(text, field))

    @pytest.mark.parametrize("text", ["(x*z - y^2) * (y*z - x^2)", "x^2*y*z"])
    def test_non_reduced_is_rejected_as_elimination_shows(self, text):
        assert_sweep_matches_elimination(jac(text))

    def test_sweep_runs_once(self, monkeypatch):
        j = jac("(x*z - y^2) * (y*z - x^2)")
        first = j.milnor_hilbert()
        monkeypatch.setattr(GrowingRref, "add_reduced", lambda *args: pytest.fail("swept again"))
        assert j.milnor_hilbert() is first

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
        assert_sweep_matches_elimination(CurveJacobian(TernaryForm(GFP, d, terms)))

    def test_table_update_skips_pivots_on_the_columns_just_added(self, monkeypatch):
        # a column added since the last pivot is a unit column of the
        # table, so a new pivot there changes no other row: each step's
        # update gets one column per new pivot on an older column, and a
        # step whose pivots all land on new columns makes no update call
        add_combination, add_reduced = linalg._add_combination, GrowingRref.add_reduced
        updates, steps = [], []
        settled = 0  # columns older than this were there at the last pivot

        def recorded_update(A, C, R, field):
            updates.append(C.shape[1])
            add_combination(A, C, R, field)

        def recorded_step(grown, block):
            nonlocal settled
            before = grown.rank
            updates.clear()
            add_reduced(grown, block)
            new = grown.pivots[before:]
            steps.append((sum(c < settled for c in new), len(new), list(updates)))
            if new:
                settled = grown.ncols

        monkeypatch.setattr(linalg, "_add_combination", recorded_update)
        monkeypatch.setattr(GrowingRref, "add_reduced", recorded_step)
        jac(LADDER_OCTIC).milnor_hilbert()
        for old, new, calls in steps:
            assert calls == ([old] if old else [])
        assert any(new and not old for old, new, _ in steps)
        assert any(0 < old < new for old, new, _ in steps)

    @pytest.mark.parametrize("text", ["(x*z - y^2) * (y*z - x^2)", "x^2*y*z"])
    def test_milnor_builds_no_macaulay_matrix(self, text, monkeypatch):
        # the slice kernel builds only the new rows y^b z^c * f_i of each
        # degree j = 0..2d-3, reduced, once each, never the x-multiples
        batches = record_batches(monkeypatch)
        j = jac(text)
        if text == "x^2*y*z":
            with pytest.raises(NotReducedError):
                j.milnor_hilbert()
        else:
            assert j.milnor_hilbert().values == (1, 3, 6, 7, 6, 4, 4, 4, 4)
        assert [(deg, batch.shape[0]) for deg, _, batch in batches] == [
            (k, 3 * (k + 1)) for k in range(2 * j.degree - 2)
        ]
        for deg, table, batch in batches:
            assert_batch_is_new_rows_times_table(j, deg, table, batch)

    @pytest.mark.parametrize(
        "field, top", [(GFP, 6), (rational_field(), 4)], ids=["gfp", "rational"]
    )
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_slice_sums_equal_new_rows_times_table(self, field, top, data):
        # at every degree of the sweep, the batch the slice kernel builds
        # is the Macaulay matrix's new rows times the normal-form table
        # (degrees up to 4 over Q, where entries grow)
        d = data.draw(st.integers(2, top))
        basis = monomial_basis(d)
        picks = data.draw(
            st.lists(st.tuples(st.integers(0, 27), st.integers(-5, 5)), min_size=1, max_size=12)
        )
        terms = {basis[i % len(basis)]: field.embed_integer(c) for i, c in picks}
        terms = {m: c for m, c in terms.items() if c}
        assume(terms)
        with pytest.MonkeyPatch.context() as monkeypatch:
            batches = record_batches(monkeypatch)
            j = CurveJacobian(TernaryForm(field, d, terms))
            try:
                j.milnor_hilbert()
                kept = len(j.batches)  # the sweep may stop before T+2
            except NotReducedError:
                kept = 2 * d - 2  # a non-reduced curve sweeps to T+2
        assert [deg for deg, _, _ in batches] == list(range(kept))
        for deg, table, batch in batches:
            assert_batch_is_new_rows_times_table(j, deg, table, batch)

    @pytest.mark.parametrize("text", ["(x*z - y^2) * (y*z - x^2)", "y^4 + x*z^3"])
    def test_mult_matrix_grows_by_x_shift(self, text):
        # the Macaulay matrix in degree j+1 is the one in degree j
        # zero-padded (the multiples by x * basis(j)) plus, at the end of
        # each block, the new rows y^b z^c * f_i
        j = jac(text)
        for deg in range(5):
            small, big = macaulay_matrix(j, deg), macaulay_matrix(j, deg + 1)
            new = new_rows(j, deg + 1)
            n0, n1 = basis_dimension(deg), basis_dimension(deg + 1)
            assert [m[0] for m in monomial_basis(deg + 1)[n0:]] == [0] * (n1 - n0)
            for i in range(3):
                old = big[i * n1 : i * n1 + n0]
                assert np.array_equal(old[:, : small.shape[1]], small[i * n0 : (i + 1) * n0])
                assert not np.any(old[:, small.shape[1] :] != 0)
                assert np.array_equal(
                    big[i * n1 + n0 : (i + 1) * n1], new[i * (deg + 2) : (i + 1) * (deg + 2)]
                )


def x_multiples(field: Field, k: int) -> np.ndarray:
    """The unit rows of the monomials of degree k divisible by x, over
    basis(k): a basis of x * S_(k-1)."""
    basis = monomial_basis(k)
    columns = [t for t, m in enumerate(basis) if m[0] > 0]
    rows = field.zeros((len(columns), len(basis)))
    rows[np.arange(len(columns)), columns] = field.entry(1)
    return rows


def regularity_facts(j: CurveJacobian, k: int) -> tuple[bool, bool]:
    """(J_f, x)_k = S_k and (J_f : x)_k = (J_f)_k, from ranks of Macaulay
    matrices and of unit rows, with no use of the sweep.  x S_k has
    dim S_k - dim (J_f : x)_k dimensions modulo (J_f)_(k+1)."""
    field, n = j.field, basis_dimension(k)
    ideal = macaulay_matrix(j, k - j.degree + 1)
    above = macaulay_matrix(j, k - j.degree + 2)
    with_x = row_rank(np.concatenate([ideal, x_multiples(field, k)]), field)
    image = row_rank(np.concatenate([above, x_multiples(field, k + 1)]), field)
    colon = n - (image - row_rank(above, field))
    return with_x == n, colon == row_rank(ideal, field)


def certified_degree(j: CurveJacobian) -> int | None:
    """The first k in [d-1, T+1] at which both regularity facts hold."""
    return next(
        (k for k in range(j.degree - 1, j.top + 2) if all(regularity_facts(j, k))), None
    )


def swept_degrees(j: CurveJacobian, monkeypatch) -> list[int]:
    """The degrees k of the sweep's steps, non-reduced curves included."""
    batches = record_batches(monkeypatch)
    try:
        j.milnor_hilbert()
    except NotReducedError:
        pass
    return [deg + j.degree - 1 for deg, _, _ in batches]


class TestRegularityCut:
    @pytest.mark.parametrize("field", [GFP, rational_field()], ids=["gfp", "rational"])
    @pytest.mark.parametrize(
        "text, certified",
        [
            (LADDER_OCTIC, 15),  # T + 1 = 19
            (lines_curve(6), 8),  # T + 1 = 13
            ("(x*z - y^2) * (y*z - x^2)", None),  # x meets Sigma
            ("x^5 + y^5 + z^5", 10),  # T + 1: no degree saved
            ("y^4 + x*z^3", 5),  # T + 1 = 7
        ],
    )
    def test_sweep_stops_one_degree_after_the_certificate(
        self, text, certified, field, monkeypatch
    ):
        # by Bayer and Stillman the two facts at k make J_f k-regular, so
        # the sweep's last step is k+1; with no certificate by T+1 it
        # steps to T+2.  The free columns kept are those where it stopped,
        # or at T+1 (the same ones once the certificate holds)
        j = jac(text, field)
        d, T = j.degree, j.top
        assert certified_degree(j) == certified
        steps = swept_degrees(j, monkeypatch)
        stop = T + 2 if certified is None else certified + 1
        assert steps == list(range(d - 1, stop + 1))
        assert len(j.batches) == stop - d + 2
        reference = reversed_rref(macaulay_matrix(j, min(stop, T + 1) - d + 1), field)
        assert j._free.tolist() == free_columns(reference)
        if certified is not None:
            assert j._projector is None

    @pytest.mark.parametrize(
        "text",
        [
            "x*y*z",  # x meets Sigma: the curve is reduced
            "(x*z - y^2) * (y*z - x^2)",
            "x^2*y*z + y^4",
            "x^2*y*z",  # not reduced
            "x^2",
            "(x*z - y^2)^2 * y",
        ],
    )
    def test_no_cut_where_x_meets_sigma_or_f_is_not_reduced(self, text, monkeypatch):
        j = jac(text)
        assert certified_degree(j) is None
        assert swept_degrees(j, monkeypatch) == list(range(j.degree - 1, j.top + 3))
        if j.batches:  # reduced
            assert len(j.batches) == j.top + 4 - j.degree

    @pytest.mark.parametrize(
        "field", [prime_field(7), GFP, rational_field()], ids=["gf7", "gf2^31-1", "rational"]
    )
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_cut_on_random_curves(self, field, data):
        # the sweep stops one degree after the certificate, which implies
        # that x misses Sigma: no projector is kept then
        d = data.draw(st.integers(2, 5))
        basis = monomial_basis(d)
        picks = data.draw(
            st.lists(st.tuples(st.integers(0, 20), st.integers(-6, 6)), min_size=2, max_size=10)
        )
        terms = {basis[i % len(basis)]: field.embed_integer(c) for i, c in picks}
        terms = {m: c for m, c in terms.items() if c}
        assume(terms)
        j = CurveJacobian(TernaryForm(field, d, terms))
        with pytest.MonkeyPatch.context() as monkeypatch:
            steps = swept_degrees(j, monkeypatch)
        assume(j.batches)  # reduced
        certified = certified_degree(j)
        assert steps[-1] == (j.top + 2 if certified is None else certified + 1)
        if certified is not None:
            assert j._projector is None


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


def quotient_projector(j: CurveJacobian) -> np.ndarray:
    """Row m: the coordinates of the monomial m of degree T+1 in
    S_{T+1} / (J_f)_{T+1}, with (J_f)_{T+1} from the rref of the
    Macaulay matrix."""
    piece = rref(macaulay_matrix(j, j.top + 2 - j.degree), j.field)
    return null_space(piece, j.field).T


def membership_matrix(j: CurveJacobian, k: int, Q: np.ndarray) -> np.ndarray:
    """Rows indexed by basis(k), 0 <= k <= T+1: the row of m holds the
    coordinates (by Q = quotient_projector(j)) of x^N m, y^N m and z^N m,
    N = T+1-k.  A form lies in Sat_k exactly when its coefficient vector
    is a left null vector (the definition of the saturation, with
    Sat_{T+1} = (J_f)_{T+1})."""
    N = j.top + 1 - k
    b, c = _yz_exponents(k)
    shifts = (basis_position(b, c), basis_position(b + N, c), basis_position(b, c + N))
    return np.concatenate([Q[index] for index in shifts], axis=1)


def assert_saturation_matches_membership(j: CurveJacobian) -> None:
    """n_k = dim Sat_k - dim (J_f)_k = m_k - rank of the membership
    matrix, for k = 0..T."""
    milnor, vec, Q = j.milnor_hilbert(), j.module_vector(), quotient_projector(j)
    expected = [
        milnor.values[k] - row_rank(membership_matrix(j, k, Q), j.field)
        for k in range(j.top + 1)
    ]
    assert list(vec.values) == expected


def recorded_passes(monkeypatch) -> list[tuple[np.ndarray | None, object]]:
    """The (projector kept, slope) of every saturation pass tried from
    now on."""
    tried = []
    image_ranks = CurveJacobian._image_ranks

    def recorded(self, a):
        tried.append((self._projector, a))
        return image_ranks(self, a)

    monkeypatch.setattr(CurveJacobian, "_image_ranks", recorded)
    return tried


def image_rank_from_definition(j: CurveJacobian, Q: np.ndarray, m: int, k: int) -> int:
    """rank Phi_k for the m-th line tried, l = x + y/m + z/m^2 (l = x for
    m = 1): l^(T+1-k) * mono expanded for each mono in basis(k), its
    coordinates in S_{T+1} / (J_f)_{T+1} read off Q =
    quotient_projector(j)."""
    line = "x" if m == 1 else f"x + y/{m} + z/{m * m}"
    rows = []
    for e in monomial_basis(k):
        g = parse_form(f"({line})^{j.top + 1 - k} * x^{e[0]}*y^{e[1]}*z^{e[2]}", j.field)
        row = j.field.zeros((1, Q.shape[1]))
        for mono, coeff in g.terms.items():
            row = j.field.reduce(row + coeff * Q[basis_position(mono[1], mono[2])])
        rows.append(row)
    return row_rank(np.concatenate(rows), j.field)


# x meets the singular scheme at (0 : 0 : 1); so does x + y/2 + z/4,
# at (1 : -2 : 0), where the lines z and 2x + y cross
TWO_LINES_REJECTED = "x*y*z*(2*x + y)"


class TestSaturation:
    def test_saturation_contains_ideal(self):
        j = jac("(x*z - y^2) * (y*z - x^2)")
        vec, Q = j.module_vector(), quotient_projector(j)
        for k in range(3, 7):
            piece = rref(macaulay_matrix(j, k - j.degree + 1), GFP)
            # canonical basis of the saturation piece: the left kernel of
            # the membership matrix (k <= T + 1 here)
            sat = rref(kernel_basis(membership_matrix(j, k, Q).T, GFP), GFP)
            assert sat.rank == piece.rank + vec.values[k]
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
        tried = recorded_passes(monkeypatch)
        j = jac(text, field)
        T, tau = j.top, j.milnor_hilbert().tjurina
        j.module_vector()
        # x + a y + a^2 z for a = 0, 1/2, 1/3, ...: the first `rejected`
        # lines fail the certificate and the pass stops at the next one
        slopes = [field.zero()] + [field.inv(field.embed_integer(m)) for m in range(2, 5)]
        assert [a for _, a in tried] == slopes[: rejected + 1]
        projector = tried[0][0]
        assert all(p is projector for p, _ in tried)  # built once
        image_ranks = CurveJacobian._image_ranks
        for a in slopes[:rejected]:
            assert image_ranks(j, a)[T] < tau
        assert image_ranks(j, slopes[rejected])[T] == tau

    @pytest.mark.parametrize("field", [GFP, rational_field()], ids=["gfp", "rational"])
    @pytest.mark.parametrize(
        "text, lines",
        [
            ("(x*z - y^2) * (y*z - x^2)", 2),
            (TWO_LINES_REJECTED, 3),
            (LADDER_OCTIC, 1),
            ("x^5 + y^5 + z^5", 1),
            ("y^4 + x*z^3", 1),
        ],
    )
    def test_every_rank_of_every_line_tried_matches_the_definition(
        self, text, lines, field, monkeypatch
    ):
        # the rejected lines too, at every degree, not only at k = T
        tried = recorded_passes(monkeypatch)
        j = jac(text, field)
        j.module_vector()
        passes = tried.copy()  # the calls below are recorded too
        assert len(passes) == lines
        Q = quotient_projector(j)
        image_ranks = CurveJacobian._image_ranks
        for m, (_, a) in enumerate(passes, start=1):
            expected = [image_rank_from_definition(j, Q, m, k) for k in range(j.top + 1)]
            assert image_ranks(j, a) == expected, m

    @pytest.mark.parametrize(
        "field", [prime_field(7), GFP, rational_field()], ids=["gf7", "gf2^31-1", "rational"]
    )
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_ranks_for_x_count_the_free_columns_below_each_degree(self, field, data):
        # rows [0, dim S_k) of the sweep's table at T+1 span the unit
        # vectors of its free columns there, so for l = x each rank
        # Phi_k is a count; the table is kept exactly when x fails the
        # certificate rank Phi_T = tau
        d = data.draw(st.integers(2, 5))
        basis = monomial_basis(d)
        picks = data.draw(
            st.lists(st.tuples(st.integers(0, 20), st.integers(-6, 6)), min_size=2, max_size=10)
        )
        terms = {basis[i % len(basis)]: field.embed_integer(c) for i, c in picks}
        terms = {m: c for m, c in terms.items() if c}
        assume(terms)
        j = CurveJacobian(TernaryForm(field, d, terms))
        try:
            tau = j.milnor_hilbert().tjurina
        except NotReducedError:
            assume(False)
        Q = quotient_projector(j)
        ranks = j._image_ranks(field.zero())
        assert ranks == [row_rank(Q[: basis_dimension(k)], field) for k in range(j.top + 1)]
        assert (j._projector is None) == (ranks[j.top] == tau)

    @pytest.mark.parametrize("text, lines", [(TWO_LINES_REJECTED, 2), (LADDER_OCTIC, 0)])
    def test_one_elimination_per_line_tried(self, text, lines, monkeypatch):
        # the ranks for l = x are counts of free columns, with no
        # elimination; every rank Phi_k of another line is read off one
        # rref of the transposed stack of x-free rows, tau x dim S_T
        j = jac(text)
        tau = j.milnor_hilbert().tjurina
        shapes = []
        eliminate = jacobian.rref

        def recorded(M, field):
            shapes.append(M.shape)
            return eliminate(M, field)

        monkeypatch.setattr(jacobian, "rref", recorded)
        j.module_vector()
        assert shapes == [(tau, basis_dimension(j.top))] * lines

    @pytest.mark.parametrize("field", [GFP, rational_field()], ids=["gfp", "rational"])
    def test_quotient_projector_of_conic_pair(self, field, monkeypatch):
        tried = recorded_passes(monkeypatch)
        j = jac("(x*z - y^2) * (y*z - x^2)", field)
        j.module_vector()
        Q = tried[0][0]
        piece = reversed_rref(macaulay_matrix(j, j.top + 2 - j.degree), field)
        width = piece.matrix.shape[1]
        free = [c for c in range(width) if c not in piece.pivots]
        assert Q.shape == (width, len(free))
        # the rows of (J_f)_{T+1} project to zero ...
        product = field.reduce(piece.matrix.astype(object) @ Q.astype(object))
        assert not np.any(product != 0)
        # ... and the free monomials are the coordinates of the quotient
        assert np.array_equal(Q[free], np.eye(len(free), dtype=np.int64))

    def test_smooth_curve_saturates_to_everything(self):
        # tau = 0 forces the saturation to be the whole ring up to T, so
        # N(f) is the Milnor algebra there
        j = jac("x^3 + y^3 + z^3")
        assert j.module_vector().values == j.milnor_hilbert().values[: j.top + 1]

    def test_free_curve_ideal_already_saturated(self):
        # five lines, three through each of two points: free, exponents 2, 2
        j = jac("x*y*z*(x-y)*(x-z)")
        assert j.module_vector().values == (0,) * (j.top + 1)

    def test_vector_stops_at_top(self):
        # the ideal is saturated from T+1 on, so the vector ends at T
        j = jac("x*y*z")
        assert len(j.module_vector().values) == 3 * (j.degree - 2) + 1

    def test_negative_value_is_an_internal_error(self, monkeypatch):
        exact = CurveJacobian._image_ranks

        def inflated(self, a):
            ranks = exact(self, a)
            ranks[0] += 2  # rank Phi_0 above m_0 = 1
            return ranks

        monkeypatch.setattr(CurveJacobian, "_image_ranks", inflated)
        with pytest.raises(InternalConsistencyError, match="at degree 0"):
            jac("(x*z - y^2) * (y*z - x^2)").module_vector()

    @pytest.mark.parametrize("k", [0, 3, 5])
    def test_vector_breaking_the_milnor_identity_is_an_internal_error(self, k, monkeypatch):
        # n_k = m_k + m_(T-k) - m_s(k) - tau ties the saturation to the
        # Milnor ranks; one rank off by one at degree k breaks it there
        exact = CurveJacobian._image_ranks

        def skewed(self, a):
            ranks = exact(self, a)
            ranks[k] -= 1
            return ranks

        monkeypatch.setattr(CurveJacobian, "_image_ranks", skewed)
        with pytest.raises(InternalConsistencyError, match=f"at degree {k}:"):
            jac("(x*z - y^2) * (y*z - x^2)").module_vector()


class TestCoincidenceThreshold:
    def test_free_cubic(self):
        ct = jac("x*y*z").milnor_hilbert().coincidence
        assert ct.value == 2
        assert not ct.censored

    def test_conic_pair(self):
        ct = jac("(x*z - y^2) * (y*z - x^2)").milnor_hilbert().coincidence
        assert ct.value == 4
        assert not ct.censored

    def test_smooth_curve_censored(self):
        ct = jac("x^3 + y^3 + z^3").milnor_hilbert().coincidence
        assert ct.censored
        assert ct.value == 3 * (3 - 2) + 2

    def test_profile_without_an_oracle(self):
        # a property of the values alone: the Fermat quartic's with one
        # degree raised from 7 breaks off at degree 3
        ct = MilnorProfile(4, (1, 3, 6, 8, 6, 3, 1, 0, 0)).coincidence
        assert (ct.value, ct.censored) == (2, False)


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
