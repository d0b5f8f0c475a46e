"""Oracle tests: Milnor/Tjurina numbers, saturation, and the Hilbert
vector of N(f) on small curves with independently known answers."""

from __future__ import annotations

import copy
import importlib
import sys
import threading
from pathlib import Path

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
    _change,
    _misses_sigma,
    _substitute,
    smooth_reference,
)
from jacmod.linalg import GrowingRref, RrefResult, kernel_basis, row_rank, rref
from jacmod.poly import TernaryForm, basis_dimension, basis_position, monomial_basis, parse_form
from jacmod.resolution import mdr, resolve
from macaulay import macaulay_matrix, new_generator_count, new_rows
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
        # multiples m * f_i of degree T+1, in the coordinates it ran in
        # (tau = 0 for the Fermat cubic; 4 for the conic pair, swept with
        # x and z swapped), tau of them
        for text in ("x^3 + y^3 + z^3", "(x*z - y^2) * (y*z - x^2)"):
            j = jac(text)
            tau = j.milnor_hilbert().tjurina
            multiples = macaulay_matrix(j, j.top + 2 - j.degree)
            assert j._free.tolist() == free_columns(reversed_rref(multiples, GFP))
            assert len(j._free) == tau


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
    independent elimination of f's Macaulay matrix in degree k - d + 1.
    The free columns kept are those of the Macaulay matrix at T+1 in the
    coordinates swept, its rref with the columns in reverse order (the
    pivot rule of the sweep), and in those coordinates x misses Sigma:
    the first dim S_T rows of the null-space projector of that rref have
    rank tau.  A curve the sweep rejects as non-reduced has
    m_(T+1) != m_(T+2) there too."""
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
    assert row_rank(projector[: basis_dimension(T)], j.field) == values[T + 1]


def record_batches(monkeypatch) -> list[tuple[int, np.ndarray, np.ndarray, CurveJacobian]]:
    """(j, the table read, the batch built, a copy of the CurveJacobian
    with the partials swept) for every slice-kernel call from now on."""
    batches = []
    reduced_batch = CurveJacobian._reduced_batch

    def recorded(self, table, j):
        batch = reduced_batch(self, table, j)
        batches.append((j, table.copy(), batch, copy.copy(self)))
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
        add_product, add_reduced = Field.add_product, GrowingRref.add_reduced
        updates, steps = [], []
        settled = 0  # columns older than this were there at the last pivot

        def recorded_update(field, A, C, R):
            updates.append(C.shape[1])
            add_product(field, A, C, R)

        def recorded_step(grown, block):
            nonlocal settled
            before = grown.rank
            updates.clear()
            add_reduced(grown, block)
            new = grown.pivots[before:]
            steps.append((sum(c < settled for c in new), len(new), list(updates)))
            if new:
                settled = grown.ncols

        monkeypatch.setattr(Field, "add_product", recorded_update)
        monkeypatch.setattr(GrowingRref, "add_reduced", recorded_step)
        jac(LADDER_OCTIC).milnor_hilbert()
        for old, new, calls in steps:
            assert calls == ([old] if old else [])
        assert any(new and not old for old, new, _ in steps)
        assert any(0 < old < new for old, new, _ in steps)

    @pytest.mark.parametrize("text", ["(x*z - y^2) * (y*z - x^2)", "x^2*y*z"])
    def test_milnor_builds_no_macaulay_matrix(self, text, monkeypatch):
        # the slice kernel builds only the new rows y^b z^c * f_i of each
        # degree j = 0..2d-3 (the non-reduced curve) or up to the cut,
        # reduced, once each, never the x-multiples
        batches = record_batches(monkeypatch)
        j = jac(text)
        if text == "x^2*y*z":
            with pytest.raises(NotReducedError):
                j.milnor_hilbert()
            kept = 2 * j.degree - 2
        else:
            assert j.milnor_hilbert().values == (1, 3, 6, 7, 6, 4, 4, 4, 4)
            kept = len(j.batches)
        assert [(deg, batch.shape[0]) for deg, _, batch, _ in batches] == [
            (k, 3 * (k + 1)) for k in range(kept)
        ]
        for deg, table, batch, swept in batches:
            assert_batch_is_new_rows_times_table(swept, deg, table, batch)

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
        # a curve that reaches the second phase of the search sweeps
        # twice; the last sweep is the one kept
        assert [deg for deg, _, _, _ in batches[-kept:]] == list(range(kept))
        for deg, table, batch, swept in batches:
            assert_batch_is_new_rows_times_table(swept, deg, table, batch)

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
    return [deg + j.degree - 1 for deg, _, _, _ in batches]


class TestRegularityCut:
    @pytest.mark.parametrize("field", [GFP, rational_field()], ids=["gfp", "rational"])
    @pytest.mark.parametrize(
        "text, certified",
        [
            (LADDER_OCTIC, 15),  # T + 1 = 19
            (lines_curve(6), 8),  # T + 1 = 13
            ("(x*z - y^2) * (y*z - x^2)", 5),  # swept with x <-> z; T + 1 = 7
            ("x^5 + y^5 + z^5", 10),  # T + 1: no degree saved
            ("y^4 + x*z^3", 5),  # T + 1 = 7
        ],
    )
    def test_sweep_stops_one_degree_after_the_certificate(
        self, text, certified, field, monkeypatch
    ):
        # by Bayer and Stillman the two facts at k make J_f k-regular, so
        # the sweep's last step is k+1, in the coordinates it ran in.  The
        # free columns kept are those where it stopped, the same as at
        # T+1 once the certificate holds
        j = jac(text, field)
        d, T = j.degree, j.top
        steps = swept_degrees(j, monkeypatch)
        assert certified_degree(j) == certified
        stop = certified + 1
        assert steps == list(range(d - 1, stop + 1))
        assert len(j.batches) == stop - d + 2
        reference = reversed_rref(macaulay_matrix(j, min(stop, T + 1) - d + 1), field)
        assert j._free.tolist() == free_columns(reference)

    @pytest.mark.parametrize("text", ["x^2*y*z", "x^2", "(x*z - y^2)^2 * y"])
    def test_no_cut_where_f_is_not_reduced(self, text, monkeypatch):
        j = jac(text)
        assert certified_degree(j) is None
        assert swept_degrees(j, monkeypatch) == list(range(j.degree - 1, j.top + 3))
        assert not j.batches

    @pytest.mark.parametrize("text", ["x*y*z", "(x*z - y^2) * (y*z - x^2)", "x^2*y*z + y^4"])
    def test_reduced_curves_where_x_meets_sigma_are_swept_elsewhere(self, text, monkeypatch):
        # in f's own coordinates x meets Sigma and no degree is certified;
        # the one sweep runs where x misses it and stops after the cut
        j = jac(text)
        assert certified_degree(j) is None
        steps = swept_degrees(j, monkeypatch)
        certified = certified_degree(j)  # in the coordinates swept
        assert certified is not None
        assert steps == list(range(j.degree - 1, certified + 2))
        assert len(j.batches) == certified - j.degree + 3

    @pytest.mark.parametrize(
        "field", [prime_field(7), GFP, rational_field()], ids=["gf7", "gf2^31-1", "rational"]
    )
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_cut_on_random_curves(self, field, data):
        # every reduced curve certifies in the coordinates swept, and the
        # last sweep stops one degree after the certificate
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
        assert certified is not None
        assert steps[-1] == certified + 1


def sweep_data(text: str, field: Field) -> tuple:
    """What one sweep leaves: the Milnor values, the batches and the
    free columns, or the class of the error it raised."""
    j = jac(text, field)
    try:
        values = j.milnor_hilbert().values
    except NotReducedError:
        return (NotReducedError,)
    return values, j.batches, j._free


def assert_same_sweep(got: tuple, expected: tuple) -> None:
    assert len(got) == len(expected)
    if len(got) == 1:
        assert got == expected
        return
    (values, batches, free), (values0, batches0, free0) = got, expected
    assert values == values0
    assert len(batches) == len(batches0)
    for batch, batch0 in zip(batches, batches0):
        assert batch.dtype == batch0.dtype
        assert batch.shape == batch0.shape and np.array_equal(batch, batch0)
    assert np.array_equal(free, free0)


def plant_spare(field: Field, shape: tuple[int, int]) -> np.ndarray:
    """A spare table buffer of this shape with every entry p - 1 (-1
    over Q), where a sweep that read past its table would see it."""
    spare = np.full(shape, field.entry(-1), dtype=field.dtype)
    linalg._spare[np.dtype(field.dtype)] = spare
    return spare


class TestSpareTable:
    """A sweep takes the process's spare table buffer when it is large
    enough and hands its own back when it ends (linalg docstring)."""

    @pytest.mark.parametrize(
        "field", [prime_field(7), GFP, rational_field()], ids=["gf7", "gfp", "rational"]
    )
    @pytest.mark.parametrize("text", SWEEP_CURVES)
    @pytest.mark.parametrize("room", ["tight", "roomy"])
    def test_dirty_spare_changes_no_output(self, text, field, room):
        # a tight spare has the sweep's first width in both dimensions,
        # so the sweep grows out of it; a roomy one holds every degree
        expected = sweep_data(text, field)
        linalg._spare.clear()
        d = parse_form(text, field).degree
        size = basis_dimension(d - 2) if room == "tight" else basis_dimension(3 * d)
        spare = plant_spare(field, (size, size))
        assert_same_sweep(sweep_data(text, field), expected)
        assert (linalg._spare[np.dtype(field.dtype)] is spare) == (room == "roomy")

    def test_second_sweep_allocates_no_table(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        ladder_curve = importlib.import_module("workloads").ladder_curve
        jac(ladder_curve(12)).milnor_hilbert()
        spare = linalg._spare[np.dtype(np.int64)]
        released = []
        release = GrowingRref.release

        def recorded(grown):
            released.append(grown._buffer)
            release(grown)

        monkeypatch.setattr(GrowingRref, "release", recorded)
        jac(ladder_curve(12)).milnor_hilbert()
        assert len(released) == 1 and released[0] is spare
        assert linalg._spare[np.dtype(np.int64)] is spare

    @pytest.mark.parametrize("field", [GFP, rational_field()], ids=["gfp", "rational"])
    def test_non_reduced_sweep_hands_its_buffer_back(self, field):
        spare = plant_spare(field, (100, 100))
        with pytest.raises(NotReducedError):
            jac("x^2*y*z", field).milnor_hilbert()
        assert linalg._spare[np.dtype(field.dtype)] is spare

    def test_spare_keeps_the_larger_buffer(self):
        small, large = GrowingRref(GFP, 3), GrowingRref(GFP, 5)
        large.release()
        small.release()
        assert linalg._spare[np.dtype(np.int64)].shape == (5, 5)

    def test_threads_share_no_buffer(self):
        # 4 threads sweep 3 curves each, switching as often as the
        # interpreter allows; each result equals the one-thread sweep
        curves = [SWEEP_CURVES[i % len(SWEEP_CURVES)] for i in range(12)]
        expected = {text: sweep_data(text, GFP) for text in set(curves)}
        results: dict[int, tuple] = {}

        def work(first: int) -> None:
            for i in range(first, len(curves), 4):
                results[i] = sweep_data(curves[i], GFP)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == list(range(len(curves)))
        for i, text in enumerate(curves):
            assert_same_sweep(results[i], expected[text])

    @pytest.mark.parametrize("field", [GFP, rational_field()], ids=["gfp", "rational"])
    @pytest.mark.parametrize("text", SWEEP_CURVES)
    def test_table_rows_are_zero_past_their_own_column(self, text, field, monkeypatch):
        # row t of the table is nonzero only on free columns c <= t, the
        # bound the update and the column drop start from
        add_reduced, steps = GrowingRref.add_reduced, []

        def checked(grown, block):
            add_reduced(grown, block)
            table = grown.table
            past = grown.free[None, :] > np.arange(table.shape[0])[:, None]
            assert not np.any(table[past] != 0)
            steps.append(grown.rank)

        monkeypatch.setattr(GrowingRref, "add_reduced", checked)
        try:
            jac(text, field).milnor_hilbert()
        except NotReducedError:
            pass
        assert steps and steps[-1] > 0


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
    b = np.array([m[1] for m in monomial_basis(k)], dtype=np.intp)
    c = np.array([m[2] for m in monomial_basis(k)], dtype=np.intp)
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


def drop_free_column(j: CurveJacobian, k: int) -> None:
    """The first of the sweep's free columns of degree k removed: rank
    Phi_i one short for every i >= k, so n_i one too large from k on."""
    free = j._free
    inside = np.flatnonzero((free >= basis_dimension(k - 1)) & (free < basis_dimension(k)))
    j._free = np.delete(free, inside[:1])


# x meets the singular scheme at (0 : 0 : 1), and so do the lines of the
# first six changes: y, z, 2x + y and 2x + z at coordinate points, and
# 4x + 2y + z at (1 : -2 : 0), where the lines z and 2x + y cross
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
        "text",
        [
            "(x*z - y^2) * (y*z - x^2)",
            TWO_LINES_REJECTED,
            LADDER_OCTIC,
            "x^5 + y^5 + z^5",
            "y^4 + x*z^3",
        ],
    )
    def test_every_rank_matches_the_definition(self, text, field):
        # at every degree, in the coordinates swept: m_k - n_k, the count
        # of free columns below dim S_k, is rank Phi_k for l = x, whose
        # images x^(T+1-k) basis(k) are the first dim S_k monomials of
        # basis(T+1)
        j = jac(text, field)
        vec, milnor = j.module_vector(), j.milnor_hilbert()
        Q = quotient_projector(j)
        for k in range(j.top + 1):
            rank = row_rank(Q[: basis_dimension(k)], field)
            assert milnor.values[k] - vec.values[k] == rank, k

    @pytest.mark.parametrize(
        "field", [prime_field(7), GFP, rational_field()], ids=["gf7", "gf2^31-1", "rational"]
    )
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_ranks_for_x_count_the_free_columns_below_each_degree(self, field, data):
        # rows [0, dim S_k) of the sweep's table at T+1 span the unit
        # vectors of its free columns there, so for l = x each rank
        # Phi_k is a count, and x misses Sigma in the coordinates swept:
        # rank Phi_T = tau
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
        ranks = np.searchsorted(j._free, [basis_dimension(k) for k in range(j.top + 1)])
        assert ranks.tolist() == [row_rank(Q[: basis_dimension(k)], field) for k in range(j.top + 1)]
        assert ranks[j.top] == tau

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

    def test_negative_value_is_an_internal_error(self):
        # two spare free columns at 0: rank Phi_0 = 3, above m_0 = 1
        j = jac("(x*z - y^2) * (y*z - x^2)")
        j.milnor_hilbert()
        j._free = np.concatenate([[0, 0], j._free])
        with pytest.raises(InternalConsistencyError, match="at degree 0"):
            j.module_vector()

    @pytest.mark.parametrize("text", ["(x*z - y^2) * (y*z - x^2)", LADDER_OCTIC])
    def test_vector_breaking_the_milnor_identity_is_an_internal_error(self, text):
        # n_k = m_k + m_(T-k) - m_s(k) - tau ties the saturation to the
        # Milnor ranks; one free column of degree k missing breaks it
        # there, for every degree that has one
        j = jac(text)
        j.milnor_hilbert()
        free = j._free
        degrees = {k for k in range(j.top + 1) for c in free.tolist()
                   if basis_dimension(k - 1) <= c < basis_dimension(k)}
        assert {0, 2} <= degrees
        for k in sorted(degrees):
            j._free = free
            drop_free_column(j, k)
            with pytest.raises(InternalConsistencyError, match=f"at degree {k}:"):
                j.module_vector()
        j._free = free
        j.module_vector()


SIX_CANDIDATE_LINES = "x*y*z*(2*x+y)*(2*x+z)*(4*x+2*y+z)"


def line_misses_sigma_by_rank(f: TernaryForm, n: int) -> bool:
    """(J_g, x)_(2d-3) = S_(2d-3) for g, f in the coordinates of the n-th
    change, by one Macaulay rank: the partials of g restricted to x = 0
    span every binary form of degree 2d-3 exactly when they have no
    common zero on that line."""
    field, d = f.field, f.degree
    g = CurveJacobian(TernaryForm(field, d, _substitute(field, f.terms, _change(field, n))))
    rows = np.concatenate([macaulay_matrix(g, d - 2), x_multiples(field, 2 * d - 3)])
    return row_rank(rows, field) == basis_dimension(2 * d - 3)


def invariants_from_definition(f: TernaryForm) -> tuple:
    """The Milnor values and N(f) of f in its own coordinates, from
    Macaulay ranks with no sweep, and a CurveJacobian that is never
    swept, whose partials are f's."""
    j, d = CurveJacobian(f), f.degree
    milnor = [
        basis_dimension(k) - row_rank(macaulay_matrix(j, k - d + 1), f.field)
        for k in range(j.top + 3)
    ]
    Q = quotient_projector(j)
    vector = [milnor[k] - row_rank(membership_matrix(j, k, Q), f.field) for k in range(j.top + 1)]
    return tuple(milnor), tuple(vector), j


def recorded_tests(monkeypatch) -> list:
    """The changes of coordinates tested from now on, each with the
    number of sweeps run before it."""
    tested, sweeps = [], []
    misses_sigma, sweep = jacobian._misses_sigma, CurveJacobian._sweep

    def recorded(field, partials, change):
        tested.append((change, len(sweeps)))
        return misses_sigma(field, partials, change)

    def counted(self):
        sweeps.append(None)
        return sweep(self)

    monkeypatch.setattr(jacobian, "_misses_sigma", recorded)
    monkeypatch.setattr(CurveJacobian, "_sweep", counted)
    return tested


@st.composite
def reduced_curves(draw, field: Field, max_degree: int):
    """A curve of degree 2..max_degree with small coefficients that the
    sweep does not refuse as non-reduced."""
    d = draw(st.integers(2, max_degree))
    basis = monomial_basis(d)
    picks = draw(
        st.lists(st.tuples(st.integers(0, 20), st.integers(-6, 6)), min_size=2, max_size=10)
    )
    terms = {basis[i % len(basis)]: field.embed_integer(c) for i, c in picks}
    terms = {m: c for m, c in terms.items() if c}
    assume(terms)
    f = TernaryForm(field, d, terms)
    try:
        CurveJacobian(f).milnor_hilbert()
    except NotReducedError:
        assume(False)
    return f


def assert_swept_coordinates_keep_the_invariants(f: TernaryForm) -> None:
    """The sweep in the coordinates chosen certifies, and its Milnor
    values, exponents and N(f) are f's own."""
    j = CurveJacobian(f)
    milnor, vector = j.milnor_hilbert(), j.module_vector()
    assert j._free is not None and certified_degree(j) is not None
    values, expected_vector, unswept = invariants_from_definition(f)
    assert milnor.values == values
    assert vector.values == expected_vector
    if mdr(milnor):  # a pencil of lines has no resolution
        # the generators resolve() finds in the coordinates swept, degree
        # by degree up to its last, are f's own by definition
        exponents = resolve(j).exponents
        for k in range(exponents[0], exponents[-1] + 1):
            assert exponents.count(k) == new_generator_count(unswept, k), k


class TestCoordinates:
    """The sweep runs in the first coordinates of a fixed list where the
    line x misses Sigma (module docstring)."""

    @pytest.mark.parametrize("field", [GFP, rational_field()], ids=["gfp", "rational"])
    def test_changes_make_the_documented_lines_the_line_x(self, field):
        # the identity, x <-> y, x <-> z, x - y/2, x - z/2, then
        # x - a y - a^2 z for a = 1/2, 1/3, 1/4: the old line each one
        # makes the new line x, in that order
        lines = ["x", "y", "z", "2*x + y", "2*x + z", "x + y/2 + z/4", "x + y/3 + z/9", "x + y/4 + z/16"]
        for n, line in enumerate(lines):
            image = _substitute(field, parse_form(line, field).terms, _change(field, n))
            assert list(image) == [(1, 0, 0)], n

    @pytest.mark.parametrize("field", [GFP, rational_field()], ids=["gfp", "rational"])
    @pytest.mark.parametrize(
        "text", ["x*y*z", "(x*z - y^2) * (y*z - x^2)", "y^4 + x*z^3", SIX_CANDIDATE_LINES]
    )
    def test_line_test_is_a_macaulay_rank(self, text, field):
        f = parse_form(text, field)
        for n in range(8):
            assert _misses_sigma(field, f.gradient(), _change(field, n)) == (
                line_misses_sigma_by_rank(f, n)
            ), n

    @pytest.mark.parametrize("field", [GFP, rational_field()], ids=["gfp", "rational"])
    @pytest.mark.parametrize(
        "text", ["x*y*z", "(x*z - y^2) * (y*z - x^2)", "y^4 + x*z^3", TWO_LINES_REJECTED]
    )
    def test_swept_coordinates_keep_the_invariants(self, text, field):
        assert_swept_coordinates_keep_the_invariants(parse_form(text, field))

    @pytest.mark.parametrize(
        "field, top", [(GFP, 5), (rational_field(), 4)], ids=["gfp", "rational"]
    )
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_line_test_and_invariants_on_random_curves(self, field, top, data):
        # degrees up to 4 over Q, where the definitions' entries grow
        f = data.draw(reduced_curves(field, top))
        for n in range(8):
            assert _misses_sigma(field, f.gradient(), _change(field, n)) == (
                line_misses_sigma_by_rank(f, n)
            ), n
        assert_swept_coordinates_keep_the_invariants(f)

    @pytest.mark.parametrize("field", [GFP, rational_field()], ids=["gfp", "rational"])
    @pytest.mark.parametrize(
        "text, chosen",
        [
            ("y^4 + x*z^3", 0),
            (LADDER_OCTIC, 0),
            ("(x*z - y^2) * (y*z - x^2)", 2),
            ("x*y*z", 5),
            ("x*y*z*(x+y+z)", 5),
        ],
    )
    def test_first_change_whose_line_misses_sigma_is_swept(self, text, chosen, field, monkeypatch):
        # the identity, x <-> y, x <-> z, x - y/2, x - z/2, x - y/2 - z/4:
        # each is tested on f before the one sweep, up to the first pass
        tested = recorded_tests(monkeypatch)
        j = jac(text, field)
        j.milnor_hilbert()
        assert tested == [(_change(field, n), 0) for n in range(chosen + 1)]
        for n in range(chosen):
            assert not line_misses_sigma_by_rank(j.f, n)
        g = _substitute(field, j.f.terms, _change(field, chosen))
        assert j.partials == TernaryForm(field, j.degree, g).gradient()
        assert j.f == parse_form(text, field)

    @pytest.mark.parametrize("field", [GFP, rational_field()], ids=["gfp", "rational"])
    @pytest.mark.parametrize("text", [SIX_CANDIDATE_LINES, TWO_LINES_REJECTED])
    def test_second_phase_sweeps_f_then_the_change_found(self, text, field, monkeypatch):
        # every line of the first six changes meets Sigma: f itself is
        # swept, which gives tau, and a = 1/3 passes after it
        tested = recorded_tests(monkeypatch)
        j = jac(text, field)
        values = j.milnor_hilbert().values
        assert tested == [(_change(field, n), 0) for n in range(6)] + [(_change(field, 6), 1)]
        assert certified_degree(j) is not None
        assert values == invariants_from_definition(j.f)[0]
        assert_saturation_matches_membership(j)

    @pytest.mark.parametrize(
        "text",
        [
            "x^2*y*z",
            "x^2",
            "(x*z - y^2)^2 * y",
            "(x+2*y+3*z)^2*(x^6+y^6+z^6)",
            "(x+y)^2*(x^18+y^18+z^18)",
        ],
    )
    def test_non_reduced_tests_six_changes_before_its_sweep(self, text, monkeypatch):
        # a non-reduced curve's Sigma holds a curve, which every line
        # meets: the six changes fail, and the sweep of f refuses it
        tested = recorded_tests(monkeypatch)
        with pytest.raises(NotReducedError):
            jac(text).milnor_hilbert()
        assert tested == [(_change(GFP, n), 0) for n in range(6)]

    @pytest.mark.parametrize("p, last", [(13, 12), (17, 13)])
    def test_small_primes_never_try_a_slope_with_m_divisible_by_p(self, p, last, monkeypatch):
        # tau = 6: 2 tau + 1 = 13 slopes over Q, and at most p - 1 mod p,
        # so a = 1/m never needs m = 0 mod p; when every line fails the
        # error is the internal one, not a FieldError
        field, tested = prime_field(p), []
        monkeypatch.setattr(jacobian, "_misses_sigma", lambda *args: tested.append(args[2]) and False)
        with pytest.raises(InternalConsistencyError, match="every line tried meets"):
            jac("x*y*z*(x+y+z)", field).milnor_hilbert()
        assert tested == [_change(field, n) for n in range(6)] + [
            _change(field, m + 3) for m in range(3, last + 1)
        ]

    def test_sweeps_that_disagree_are_an_internal_error(self, monkeypatch):
        # the two sweeps of the second phase must give the same values
        sweep, calls = CurveJacobian._sweep, []

        def skewed(self):
            values, batches, free = sweep(self)
            calls.append(None)
            if len(calls) == 2:
                values = [*values[:-1], values[-1] + 1]
            return values, batches, free

        monkeypatch.setattr(CurveJacobian, "_sweep", skewed)
        with pytest.raises(InternalConsistencyError, match="changed with the coordinates"):
            jac(TWO_LINES_REJECTED).milnor_hilbert()

    def test_sweep_without_certificate_is_an_internal_error(self, monkeypatch):
        # where x misses Sigma a reduced curve always certifies; only an
        # unlucky prime could make its sweep run to T+2
        sweep = CurveJacobian._sweep
        monkeypatch.setattr(CurveJacobian, "_sweep", lambda self: (*sweep(self)[:2], None))
        with pytest.raises(InternalConsistencyError, match="no regularity certificate"):
            jac("(x*z - y^2) * (y*z - x^2)").milnor_hilbert()


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
