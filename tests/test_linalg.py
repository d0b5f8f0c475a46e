import importlib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacmod.fields import CHUNK, Field, prime_field, rational_field
from jacmod import linalg
from jacmod.jacobian import CurveJacobian
from jacmod.linalg import GrowingRref, kernel_basis, row_rank, rref
from jacmod.poly import parse_form
from row_space import (
    add_rows,
    in_row_space,
    kept_form,
    null_space,
    reversed_rref,
    rows_in_row_space,
)

GF7 = prime_field(7)
GF = prime_field(2**31 - 1)
QQ = rational_field()


def gf7(rows):
    return np.array(rows, dtype=np.int64) % 7


def test_rref_rank_one():
    R = rref(gf7([[2, 4], [1, 2]]), GF7)
    assert R.rank == 1
    assert R.pivots == (0,)
    assert R.matrix.tolist() == [[1, 2]]


def test_rref_identity():
    R = rref(np.eye(3, dtype=np.int64), GF7)
    assert R.rank == 3
    assert R.pivots == (0, 1, 2)


def test_rref_is_idempotent():
    M = gf7([[1, 2, 3], [4, 5, 6], [5, 0, 2]])
    R1 = rref(M, GF7)
    R2 = rref(R1.matrix, GF7)
    assert R1.rank == R2.rank
    assert R1.pivots == R2.pivots
    assert np.array_equal(R1.matrix, R2.matrix)


def test_kernel_of_zero_matrix():
    K = kernel_basis(GF7.zeros((2, 3)), GF7)
    assert K.shape == (3, 3)
    assert np.array_equal(K, np.eye(3, dtype=np.int64))


def test_kernel_single_row():
    K = kernel_basis(gf7([[1, 1]]), GF7)
    assert K.shape == (1, 2)
    assert K.tolist() == [[6, 1]]  # (-1, 1) mod 7


def test_kernel_empty_when_injective():
    K = kernel_basis(np.eye(4, dtype=np.int64), GF7)
    assert K.shape == (0, 4)


def test_kernel_zero_columns():
    K = kernel_basis(GF7.zeros((3, 0)), GF7)
    assert K.shape == (0, 0)


def test_in_row_space_examples():
    R = rref(gf7([[1, 0, 1], [0, 1, 1]]), GF7)
    assert in_row_space(R, np.array([1, 1, 2], dtype=np.int64), GF7)
    assert in_row_space(R, np.array([3, 4, 0], dtype=np.int64), GF7)
    assert not in_row_space(R, np.array([0, 0, 1], dtype=np.int64), GF7)
    assert rows_in_row_space(R, gf7([[1, 1, 2], [2, 0, 2]]), GF7)


def test_rational_elimination_exact():
    M = np.empty((2, 3), dtype=object)
    M[0] = [Fraction(1, 2), Fraction(1, 3), Fraction(1)]
    M[1] = [Fraction(1, 4), Fraction(1, 6), Fraction(1, 2)]
    R = rref(M, QQ)
    assert R.rank == 1
    assert R.matrix[0].tolist() == [Fraction(1), Fraction(2, 3), Fraction(2)]


def test_rational_kernel():
    M = np.empty((1, 3), dtype=object)
    M[0] = [Fraction(2), Fraction(-1), Fraction(4)]
    K = kernel_basis(M, QQ)
    assert K.shape == (2, 3)
    for i in range(2):
        dot = sum(M[0][j] * K[i][j] for j in range(3))
        assert dot == 0


# -- randomized structural properties ---------------------------------------


@st.composite
def random_matrices(draw, max_dim=6):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entries = draw(
        st.lists(
            st.integers(-20, 20), min_size=rows * cols, max_size=rows * cols
        )
    )
    return rows, cols, entries


def _build(field, rows, cols, entries):
    M = field.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            v = entries[i * cols + j]
            M[i, j] = field.embed_integer(v)
    return M


def _mod_p(M):
    """Image in GF(2^31 - 1) of a matrix of Fractions."""
    p = GF.p
    out = np.array(
        [x.numerator * pow(x.denominator, -1, p) % p for x in M.flat], dtype=np.int64
    )
    return out.reshape(M.shape)


@given(random_matrices())
@settings(max_examples=200, deadline=None)
def test_rank_nullity_and_kernel_exact_gfp(spec):
    rows, cols, entries = spec
    M = _build(GF7, rows, cols, entries)
    R = rref(M, GF7)
    K = kernel_basis(M, GF7)
    assert R.rank == row_rank(M, GF7)
    assert R.rank + K.shape[0] == cols
    # every kernel vector is annihilated exactly
    if rows and cols and K.shape[0]:
        prod = (M.astype(object) @ K.T.astype(object)) % 7
        assert not np.any(prod != 0)
    # pivots strictly increasing, unit pivot columns
    assert list(R.pivots) == sorted(set(R.pivots))
    for i, c in enumerate(R.pivots):
        col = R.matrix[:, c]
        assert col[i] == 1
        assert not np.any(np.delete(col, i) != 0)


@given(random_matrices(max_dim=5))
@settings(max_examples=100, deadline=None)
def test_rank_matches_rationals_vs_big_prime(spec):
    # integer matrices small enough that a 31-bit prime cannot lose rank:
    # every minor is below p, so no denominator of the Q results vanishes
    # mod p and both fields must give the same reduced form and kernel
    rows, cols, entries = spec
    Mq = _build(QQ, rows, cols, entries)
    Mp = _build(GF, rows, cols, entries)
    assert row_rank(Mq, QQ) == row_rank(Mp, GF)
    Rq, Rp = rref(Mq, QQ), rref(Mp, GF)
    assert Rq.pivots == Rp.pivots
    assert np.array_equal(_mod_p(Rq.matrix), Rp.matrix)
    assert np.array_equal(_mod_p(kernel_basis(Mq, QQ)), kernel_basis(Mp, GF))


@given(random_matrices(max_dim=5))
@settings(max_examples=100, deadline=None)
def test_row_space_membership_of_original_rows(spec):
    rows, cols, entries = spec
    M = _build(GF7, rows, cols, entries)
    R = rref(M, GF7)
    assert rows_in_row_space(R, M, GF7)


@st.composite
def stacked_rows(draw, max_dim=6):
    """Width and rows of a matrix in which some rows are zero and some
    repeat an earlier row; 0 rows or 0 columns are allowed."""
    width = draw(st.integers(0, max_dim))
    rows: list[list[int]] = []
    for _ in range(draw(st.integers(0, max_dim))):
        kind = draw(st.sampled_from(["new", "zero", "repeat"]))
        if kind == "zero":
            rows.append([0] * width)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(draw(st.lists(st.integers(-3, 3), min_size=width, max_size=width)))
    return width, rows


@pytest.mark.parametrize("field", [GF7, GF, QQ], ids=["gf7", "gfp", "rational"])
@given(spec=stacked_rows())
@settings(max_examples=60, deadline=None)
def test_pivots_of_the_transpose_give_the_rank_of_every_row_prefix(field, spec):
    # column j of M.T is a pivot exactly when row j of M is not in the
    # span of the rows above it, so the pivots below j count the rank of
    # the first j rows
    width, rows = spec
    M = _build(field, len(rows), width, sum(rows, []))
    pivots = rref(M.T, field).pivots
    for j in range(len(rows) + 1):
        assert sum(c < j for c in pivots) == row_rank(M[:j], field), j


def test_two_primes_agree_on_fixed_matrix():
    rows = [[3, 1, 4, 1], [5, 9, 2, 6], [8, 10, 6, 7], [5, 3, 5, 8]]
    p1, p2 = 2**31 - 1, 2**31 - 19
    r1 = row_rank(_build(prime_field(p1), 4, 4, sum(rows, [])), prime_field(p1))
    r2 = row_rank(_build(prime_field(p2), 4, 4, sum(rows, [])), prime_field(p2))
    assert r1 == r2 == row_rank(_build(QQ, 4, 4, sum(rows, [])), QQ)


@st.composite
def growth_steps(draw):
    """A list of (width, integer rows of that width) steps with
    nondecreasing widths."""
    width = draw(st.integers(0, 3))
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        width += draw(st.integers(0, 2))
        nrows = draw(st.integers(0, 3))
        rows = draw(
            st.lists(
                st.lists(st.integers(-3, 3), min_size=width, max_size=width),
                min_size=nrows,
                max_size=nrows,
            )
        )
        steps.append((width, rows))
    return steps


@pytest.mark.parametrize("field", [GF7, GF, QQ], ids=["gf7", "gf2^31-1", "rational"])
@given(steps=growth_steps())
@settings(max_examples=60, deadline=None)
def test_growing_rref_equals_reversed_rref_of_padded_stack(field, steps):
    # after every step the kept form is the rref, with the columns in
    # reverse order, of all rows so far, each zero-padded on the right to
    # the current width
    grown = GrowingRref(field, 0)
    stacked: list[list[int]] = []
    for width, rows in steps:
        grown.add_columns(width - grown.ncols)
        stacked = [row + [0] * (width - len(row)) for row in stacked] + rows
        add_rows(grown, _build(field, len(rows), width, sum(rows, [])))
        expected = reversed_rref(_build(field, len(stacked), width, sum(stacked, [])), field)
        got = kept_form(grown)
        assert grown.rank == expected.rank
        assert (got.pivots, got.rank) == (expected.pivots, expected.rank)
        assert got.matrix.shape == expected.matrix.shape == (expected.rank, width)
        assert np.array_equal(got.matrix, expected.matrix)


@pytest.mark.parametrize("field", [GF7, GF, QQ], ids=["gf7", "gf2^31-1", "rational"])
@given(steps=growth_steps())
@settings(max_examples=60, deadline=None)
def test_growing_rref_returns_rows_reduced_modulo_kept_form(field, steps):
    # the left kernel of the returned batch is exactly the combinations
    # of the new rows that lie in the kept row space
    grown = GrowingRref(field, 0)
    for width, rows in steps:
        grown.add_columns(width - grown.ncols)
        kept = kept_form(grown)
        N = _build(field, len(rows), width, sum(rows, []))
        block = add_rows(grown, N)
        assert block.shape == (len(rows), width - kept.rank)
        relations = kernel_basis(block.T, field)
        assert relations.shape[0] == len(rows) - (grown.rank - kept.rank)
        for c in relations:
            assert in_row_space(kept, field.reduce(c @ N), field)


@pytest.mark.parametrize("field", [GF7, GF, QQ], ids=["gf7", "gf2^31-1", "rational"])
@given(steps=growth_steps(), new=st.integers(1, 3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_new_pivots_on_new_columns_leave_kept_rows_alone(field, steps, new, data):
    # a batch whose remainder has full rank on the n columns just added
    # pivots on those columns only: every earlier kept row, free column
    # and tail stays as it was, whatever the batch holds on older columns
    grown = GrowingRref(field, 0)
    for width, rows in steps:
        grown.add_columns(width - grown.ncols)
        add_rows(grown, _build(field, len(rows), width, sum(rows, [])))
    width = grown.ncols
    pivots, free, table = list(grown.pivots), grown.free.copy(), grown.table.copy()
    grown.add_columns(new)
    old = data.draw(st.lists(st.integers(-3, 3), min_size=new * width, max_size=new * width))
    below = data.draw(st.lists(st.integers(-3, 3), min_size=new * new, max_size=new * new))
    N = field.zeros((new, width + new))
    N[:, :width] = _build(field, new, width, old)
    # unit upper triangular on the new columns: rank new there
    triangle = np.triu(_build(field, new, new, below), 1)
    triangle[np.arange(new), np.arange(new)] = field.entry(1)
    N[:, width:] = triangle
    add_rows(grown, N)
    assert grown.rank == len(pivots) + new
    assert grown.pivots[: len(pivots)] == pivots
    assert sorted(grown.pivots[len(pivots) :]) == list(range(width, width + new))
    assert np.array_equal(grown.free, free)
    assert np.array_equal(grown.table[pivots], table[pivots])
    assert np.array_equal(grown.table[:width], table)


@pytest.mark.parametrize("field", [GF7, GF, QQ], ids=["gf7", "gf2^31-1", "rational"])
@given(steps=growth_steps())
@settings(max_examples=60, deadline=None)
def test_table_is_null_space_of_reversed_rref(field, steps):
    # the normal-form table is the projection onto the quotient: the
    # null-space basis, transposed, of the reference reduced form of the
    # padded stack
    grown = GrowingRref(field, 0)
    stacked: list[list[int]] = []
    for width, rows in steps:
        grown.add_columns(width - grown.ncols)
        stacked = [row + [0] * (width - len(row)) for row in stacked] + rows
        add_rows(grown, _build(field, len(rows), width, sum(rows, [])))
        reference = reversed_rref(_build(field, len(stacked), width, sum(stacked, [])), field)
        expected = null_space(reference, field).T
        assert grown.table.dtype == expected.dtype
        assert grown.table.shape == expected.shape == (width, width - grown.rank)
        assert np.array_equal(grown.table, expected)


@st.composite
def interleaved_steps(draw):
    """(start, steps): a GrowingRref of start columns, then steps (added,
    rows) that call add_columns once per count in added (0, 1 or 2
    calls) and add the integer rows, as wide as every column so far.  A
    row is random, zero or a copy of an earlier row (zero-padded), so
    blocks of rank 0 occur; a step that adds no column adds rows right
    after the last step's; random rows pivot on old and new columns."""
    start = width = draw(st.integers(0, 3))
    earlier: list[list[int]] = []
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        added = draw(st.lists(st.integers(0, 2), max_size=2))
        width += sum(added)
        rows = []
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["random", "zero", "copy"]))
            if kind == "copy" and earlier:
                row = draw(st.sampled_from(earlier))
                rows.append(row + [0] * (width - len(row)))
            elif kind == "zero":
                rows.append([0] * width)
            else:
                rows.append(draw(st.lists(st.integers(-3, 3), min_size=width, max_size=width)))
        earlier += rows
        steps.append((added, rows))
    return start, steps


@pytest.mark.parametrize("field", [GF7, GF, QQ], ids=["gf7", "gf2^31-1", "rational"])
@given(spec=interleaved_steps())
@example(  # one block pivots on the old free column 0 and on new columns 2, 3
    spec=(2, [([], [[1, 1]]), ([2], [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 1, 0]])])
)
@settings(max_examples=80, deadline=None)
def test_table_is_null_space_whatever_the_order_of_columns_and_rows(field, spec):
    # the update skips the columns added since the last pivot, which are
    # still unit columns: after every step the table is still exactly the
    # null-space projector of the padded stack's reference reduced form
    start, steps = spec
    grown = GrowingRref(field, start)
    stacked: list[list[int]] = []
    for added, rows in steps:
        for n in added:
            grown.add_columns(n)
        width = grown.ncols
        stacked = [row + [0] * (width - len(row)) for row in stacked] + rows
        add_rows(grown, _build(field, len(rows), width, sum(rows, [])))
        reference = reversed_rref(_build(field, len(stacked), width, sum(stacked, [])), field)
        expected = null_space(reference, field).T
        assert grown.table.shape == expected.shape
        assert np.array_equal(grown.table, expected)


def naive_gauss_jordan(M, field):
    """Reference for Field.gauss_jordan: one column at a time, one row at
    a time, with the same pivot rule (lowest column, then lowest row);
    each pivot row is scaled to a unit and then clears its column from
    every other row, one row after another."""
    rows, cols = M.shape
    pivots, r = [], 0
    for c in range(cols):
        if r == rows:
            break
        live = [i for i in range(r, rows) if M[i, c] != 0]
        if not live:
            continue
        M[[r, live[0]]] = M[[live[0], r]]
        M[r] = field.reduce(M[r] * field.inv(M[r, c]))
        for i in range(rows):
            if i != r and M[i, c] != 0:
                M[i] = field.reduce(M[i] - M[i, c] * M[r])
        pivots.append(c)
        r += 1
    return pivots


@st.composite
def sparse_low_rank(draw):
    """Integer matrices A @ B of rank below min(rows, cols), mostly zero,
    with runs of zero columns (the zero columns of B)."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(2, 14))
    inner = draw(st.integers(0, min(rows, cols) - 1))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, 3])
    A = np.array(draw(st.lists(entry, min_size=rows * inner, max_size=rows * inner)))
    B = np.array(draw(st.lists(entry, min_size=inner * cols, max_size=inner * cols)))
    B = B.reshape(inner, cols)
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, cols - 1))
        B[:, start : start + draw(st.integers(1, 4))] = 0
    return (A.reshape(rows, inner) @ B).astype(np.int64)


@st.composite
def column_loop_matrices(draw):
    """Small integer matrices for the column loop alone: zero rows, no
    pivot at all, full rank, runs of zero columns, and rows in a drawn
    order, so that many pivots need a search and a swap.  Entries
    include -1 and +-(2^31 - 2)/2, the largest signed representatives
    of GF(2^31 - 1); 7 and (2^31 - 2)/2 vanish in GF(7)."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 9))
    half = (2**31 - 2) // 2
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, 3, 7, half, -half])
    M = np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)), dtype=object)
    M = M.reshape(rows, cols)
    shape = draw(st.sampled_from(["any", "any", "zero", "full rank"]))
    if shape == "zero":
        M[:] = 0
    elif shape == "full rank":  # upper triangle, nonzero diagonal
        for i in range(min(rows, cols)):
            M[i, :i] = 0
            M[i, i] = draw(st.sampled_from([1, 2, -1, half]))
    else:
        for _ in range(draw(st.integers(0, 2))):
            if cols:
                start = draw(st.integers(0, cols - 1))
                M[:, start : start + draw(st.integers(1, 3))] = 0
    order = draw(st.permutations(range(rows)))
    return M[order] if rows else M


@pytest.mark.parametrize("field", [GF7, GF, QQ], ids=["gf7", "gf2^31-1", "rational"])
@given(M=st.one_of(sparse_low_rank(), column_loop_matrices()))
@example(M=np.array([[0, 0, 2, 1], [0, 0, 0, 0], [0, 3, 1, 0], [0, 1, 0, 4]]))
@settings(max_examples=150, deadline=None)
def test_gauss_jordan_equals_column_by_column_reference(field, M):
    # the whole matrix: the reduced rows on top, zero rows below
    fast, slow = field.array(M), field.array(M)
    assert field.gauss_jordan(fast) == naive_gauss_jordan(slow, field)
    assert_identical(fast, slow)
    # and what the eliminations built on the loop give, after the peel
    # and the rows set aside
    expected = reference_rref(field.array(M), field)
    got = rref(field.array(M), field)
    assert (got.pivots, got.rank) == (expected.pivots, expected.rank)
    assert_identical(got.matrix, expected.matrix)
    assert row_rank(field.array(M), field) == expected.rank
    assert_identical(kernel_basis(field.array(M), field), null_space(expected, field))


class CountedFraction(Fraction):
    """A Fraction whose arithmetic results stay CountedFraction and whose
    products are recorded as (product of a zero?) in products."""

    products: list[bool] = []

    def __mul__(self, other):
        CountedFraction.products.append(self == 0 or other == 0)
        return CountedFraction(Fraction(self) * Fraction(other))

    __rmul__ = __mul__

    def __sub__(self, other):
        return CountedFraction(Fraction(self) - Fraction(other))

    def __rsub__(self, other):
        return CountedFraction(Fraction(other) - Fraction(self))


@given(M=column_loop_matrices())
@example(M=np.array([[0, 2, 0, 1, 0], [3, 1, 0, 0, 0], [0, 1, 0, 2, 5], [1, 0, 4, 0, 0]]))
@settings(max_examples=100, deadline=None)
def test_rational_row_update_multiplies_no_zero(M):
    # over Q the loop scales and updates only the rows nonzero in the
    # pivot column and the columns where the pivot row is nonzero
    CountedFraction.products.clear()
    counted = np.array([CountedFraction(x) for x in M.flat], dtype=object).reshape(M.shape)
    expected = QQ.array(M)
    pivots = QQ.gauss_jordan(counted)
    assert pivots == naive_gauss_jordan(expected, QQ)
    assert np.array_equal(counted, expected)
    assert not any(CountedFraction.products)


def test_rational_row_update_counts_its_products():
    # the recorder sees the products: one scaling and one update, of the
    # pivot row's two nonzeros each
    CountedFraction.products.clear()
    M = np.array([[CountedFraction(x) for x in row] for row in [[2, 0, 4], [3, 0, 1]]])
    assert QQ.gauss_jordan(M[:1].copy()) == [0]
    assert CountedFraction.products == [False, False]
    CountedFraction.products.clear()
    assert QQ.gauss_jordan(M) == [0, 2]
    assert CountedFraction.products and not any(CountedFraction.products)


# -- the table update: a product in chunks of signed representatives -------


def exact_product(A, C, R, p=None):
    """(A + C @ R) in Python integers or Fractions, mod p when given."""
    exact = A.astype(object) + C.astype(object).dot(R.astype(object))
    return exact % p if p else exact


@st.composite
def product_operands(draw, p):
    """A, C, R with C wider than one chunk, some chunks of C and some
    rows of C all zero, and entries at the edges of the signed
    representatives: p - 1, (p - 1)/2 and (p + 1)/2."""
    rows, width = draw(st.integers(0, 6)), draw(st.integers(0, 5))
    k = draw(st.integers(0, 3 * CHUNK + 2))
    edge = [0, 1, 2, p - 1, (p - 1) // 2, (p + 1) // 2]
    entry = st.sampled_from(edge)

    def block(r, c):
        values = draw(st.lists(entry, min_size=r * c, max_size=r * c))
        return np.array(values, dtype=np.int64).reshape(r, c)

    A, C, R = block(rows, width), block(rows, k), block(k, width)
    for _ in range(draw(st.integers(0, 2))):
        if k:
            start = draw(st.integers(0, k - 1))
            C[:, start : start + CHUNK] = 0
        if rows:
            C[draw(st.integers(0, rows - 1))] = 0
    return A, C, R


@pytest.mark.parametrize("p", [7, 2**31 - 1])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_chunked_product_equals_the_exact_product(p, data):
    A, C, R = data.draw(product_operands(p))
    expected = exact_product(A, C, R, p)
    prime_field(p).add_product(A, C, R)
    assert A.dtype == np.int64
    assert A.tolist() == expected.tolist()


def test_chunked_product_at_the_int64_edge():
    # every product is ((p - 1)/2)^2 in size, and a chunk of them of one
    # sign plus p - 1 is the largest sum the bound allows; the middle
    # chunk of C and its row 3 are zero
    p = 2**31 - 1
    half = (p - 1) // 2
    # (p + 1)/2 has the signed representative -(p - 1)/2: the first
    # chunk's products all have the same sign, the last one's mixed
    C = np.full((5, 3 * CHUNK), half + 1, dtype=np.int64)
    C[:, 2 * CHUNK :: 2] = half
    C[:, CHUNK : 2 * CHUNK] = 0
    C[3] = 0
    R = np.full((3 * CHUNK, 4), half + 1, dtype=np.int64)
    R[2 * CHUNK :: 3] = half
    A = np.full((5, 4), p - 1, dtype=np.int64)
    expected = exact_product(A, C, R, p)
    GF.add_product(A, C, R)
    assert A.tolist() == expected.tolist()
    assert A[3].tolist() == [p - 1] * 4


def test_rational_product_equals_the_exact_product():
    C = QQ.array([[0, 2, 0], [0, 0, 0], [1, 0, -3]])
    R = QQ.array([[1, 2], [Fraction(1, 2), 0], [0, 5]])
    A = QQ.array([[1, 1], [7, 7], [0, 1]])
    expected = exact_product(A, C, R)
    QQ.add_product(A, C, R)
    assert A.tolist() == expected.tolist()
    assert all(type(x) is Fraction for x in A.flat)


# -- the one-nonzero-row peel -------------------------------------------------


def reference_rref(M, field):
    """The reduced form by the column-by-column reference alone, with no
    row peeled or set aside."""
    W = M.copy()
    pivots = naive_gauss_jordan(W, field)
    return linalg.RrefResult(W[: len(pivots)].copy(), tuple(pivots))


def assert_identical(got, expected):
    """Same shape, dtype and entries; over Q also the same element types."""
    assert got.shape == expected.shape
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    if got.dtype == object:
        assert [type(x) for x in got.flat] == [type(x) for x in expected.flat]


@st.composite
def peelable_matrices(draw):
    """Small integer matrices with planted one-nonzero rows, in a drawn
    row order: several in one column, and a chain of rows each left with
    one nonzero only once the previous one is peeled; around them zero
    rows and sparse rows (7 vanishes in GF(7)).  Shapes include 0 rows,
    0 columns and all-zero matrices."""
    cols = draw(st.integers(0, 7))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, 3, 7])
    noise = draw(st.integers(0, 3))
    rows = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(noise)]
    if cols and draw(st.booleans()):
        column = draw(st.integers(0, cols - 1))
        for value in draw(st.lists(st.sampled_from([1, 2, -3, 5]), min_size=1, max_size=3)):
            rows.append([value if c == column else 0 for c in range(cols)])
    if cols and draw(st.booleans()):
        chain = draw(st.permutations(range(cols)))[: draw(st.integers(1, cols))]
        for previous, c in zip([None, *chain], chain):
            row = [0] * cols
            row[c] = draw(st.sampled_from([1, 2, -1, 4]))
            if previous is not None:
                row[previous] = draw(st.sampled_from([1, -2, 3]))
            rows.append(row)
    rows += [[0] * cols] * draw(st.integers(0, 2))
    if draw(st.integers(0, 9)) == 0:
        rows = [[0] * cols for _ in rows]
    order = draw(st.permutations(range(len(rows))))
    return np.array([rows[i] for i in order], dtype=np.int64).reshape(len(rows), cols)


@pytest.mark.parametrize("field", [GF7, GF, QQ], ids=["gf7", "gf2^31-1", "rational"])
@given(M=peelable_matrices())
@settings(max_examples=150, deadline=None)
def test_peeled_elimination_equals_the_column_loop_alone(field, M):
    M = field.array(M)  # rref and its kin take canonical entries
    expected = reference_rref(M, field)
    got = rref(M, field)
    assert (got.pivots, got.rank) == (expected.pivots, expected.rank)
    assert_identical(got.matrix, expected.matrix)  # its shape holds the width
    assert row_rank(M, field) == expected.rank
    assert_identical(kernel_basis(M, field), null_space(expected, field))


def test_unit_pivots_leave_the_column_loop_no_row(monkeypatch):
    # every pivot comes from a one-nonzero row: column 1 at once (twice),
    # column 3 once column 1 is peeled, column 0 once column 3 is
    M = gf7([[0, 3, 0, 0, 0], [2, 0, 0, 5, 0], [0, 0, 0, 0, 0], [0, 1, 0, 6, 0], [0, 4, 0, 0, 0]])
    handed = []
    loop = Field.gauss_jordan

    def recorded(field, W):
        handed.append(int(np.count_nonzero(W.any(axis=1))))
        return loop(field, W)

    monkeypatch.setattr(Field, "gauss_jordan", recorded)
    R = rref(M, GF7)
    assert R.pivots == (0, 1, 3)
    assert R.matrix.tolist() == [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0]]
    assert row_rank(M, GF7) == 3
    assert kernel_basis(M, GF7).tolist() == [[0, 0, 1, 0, 0], [0, 0, 0, 0, 1]]
    assert sum(handed) == 0


def test_blocks_with_no_row_or_no_free_column_start_no_elimination(monkeypatch):
    # such a block cannot add a pivot: add_reduced returns without
    # calling rref
    calls = []
    eliminate = linalg.rref

    def recorded(M, field):
        calls.append(M.shape)
        return eliminate(M, field)

    monkeypatch.setattr(linalg, "rref", recorded)
    grown = GrowingRref(GF7, 3)
    add_rows(grown, GF7.zeros((0, 3)))
    assert calls == []
    add_rows(grown, gf7([[1, 2, 0], [0, 1, 1], [1, 0, 1]]))
    assert calls == [(3, 3)] and grown.rank == 3 and not grown.free.size
    block = add_rows(grown, gf7([[1, 2, 3], [4, 5, 6]]))
    assert block.shape == (2, 0)
    assert calls == [(3, 3)] and grown.rank == 3


def test_benchmark_tracer_wraps_callables_of_linalg(monkeypatch):
    # perfbench/tracer.py looks up each elimination it wraps by name
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    tracer = importlib.import_module("tracer")
    assert tracer.ELIMINATIONS
    for name in tracer.ELIMINATIONS:
        assert callable(getattr(linalg, name, None)), name


# -- the rows set aside: lead column touched by no other row -------------------


@st.composite
def lone_lead_matrices(draw):
    """Small integer matrices with planted rows whose first nonzero column
    holds no other row's nonzero, in a drawn row order, among coupled
    rows (two or more nonzeros on shared columns), one-nonzero rows and
    zero rows.  Some have no one-nonzero row at all (no row is peeled)
    and some only one-nonzero rows; shapes include 0 rows and 0
    columns.  7 vanishes in GF(7), so a planted lead may vanish there."""
    cols = draw(st.integers(0, 8))
    entry = st.sampled_from([0, 0, 1, -1, 2, 3, 7])
    rows = []
    if cols:
        leads = draw(st.lists(st.integers(0, cols - 1), max_size=cols, unique=True))
        for c in leads:
            row = [0] * cols
            row[c] = draw(st.sampled_from([1, 2, -3, 5]))
            for t in range(c + 1, cols):
                row[t] = draw(entry)
            rows.append(row)
        taken = set(leads)
        for _ in range(draw(st.integers(0, 3))):  # zero on every planted lead
            rows.append([0 if c in taken else draw(entry) for c in range(cols)])
        if draw(st.booleans()):
            c = draw(st.integers(0, cols - 1))
            rows.append([draw(st.sampled_from([1, 4])) if t == c else 0 for t in range(cols)])
    rows += [[0] * cols] * draw(st.integers(0, 2))
    if draw(st.integers(0, 9)) == 0:  # only unit rows
        rows = [[1 if t == i else 0 for t in range(cols)] for i in range(cols)]
    order = draw(st.permutations(range(len(rows))))
    return np.array([rows[i] for i in order], dtype=np.int64).reshape(len(rows), cols)


@pytest.mark.parametrize("field", [GF7, GF, QQ], ids=["gf7", "gf2^31-1", "rational"])
@given(M=lone_lead_matrices())
@settings(max_examples=200, deadline=None)
def test_set_aside_rows_give_the_column_loop_result(field, M):
    M = field.array(M)  # rref and its kin take canonical entries
    expected = reference_rref(M, field)
    got = rref(M, field)
    assert (got.pivots, got.rank) == (expected.pivots, expected.rank)
    assert_identical(got.matrix, expected.matrix)
    assert row_rank(M, field) == expected.rank
    assert_identical(kernel_basis(M, field), null_space(expected, field))


def record_loop_rows(monkeypatch) -> list[int]:
    """The number of rows each call of the column loop is handed."""
    handed = []
    loop = Field.gauss_jordan

    def recorded(field, W):
        handed.append(W.shape[0])
        return loop(field, W)

    monkeypatch.setattr(Field, "gauss_jordan", recorded)
    return handed


@pytest.mark.parametrize("field", [GF7, QQ], ids=["gf7", "rational"])
def test_zero_row_with_no_row_peeled_is_not_set_aside(monkeypatch, field):
    # no row has one nonzero, so no row is peeled; the zero row's first
    # "nonzero" by argmax would be column 0, which only row 1 touches
    M = field.array([[0, 0, 0, 0], [2, 1, 0, 0], [0, 3, 1, 0], [0, 0, 1, 4]])
    handed = record_loop_rows(monkeypatch)
    expected = reference_rref(M, field)
    handed.clear()
    got = rref(M, field)
    assert got.pivots == expected.pivots == (0, 1, 2)
    assert_identical(got.matrix, expected.matrix)
    assert handed == [2]  # row 1 set aside, the zero row dropped
    assert row_rank(M, field) == 3


@pytest.mark.parametrize("field", [GF7, QQ], ids=["gf7", "rational"])
def test_set_aside_rows_with_no_unit_row(monkeypatch, field):
    # no unit row, so the peeled columns are none; row 0's lead column 0
    # and row 2's lead column 3 hold no other nonzero; row 0 is cleared
    # at the loop's pivot column 1 and both are scaled to a unit lead
    M = field.array([[3, 1, 2, 0, 0], [0, 2, 1, 0, 1], [0, 0, 0, 5, 1], [0, 1, 3, 0, 2]])
    handed = record_loop_rows(monkeypatch)
    expected = reference_rref(M, field)
    handed.clear()
    got = rref(M, field)
    assert got.pivots == expected.pivots
    assert_identical(got.matrix, expected.matrix)
    assert handed == [2]
    assert row_rank(M, field) == expected.rank
    assert_identical(kernel_basis(M, field), null_space(expected, field))


@pytest.mark.parametrize("d", [12, 16])
def test_ladder_sweep_sends_no_row_to_the_column_loop(monkeypatch, d):
    # every remainder row of a ladder curve's sweep is peeled or has a
    # lead column no other row touches
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    ladder_curve = importlib.import_module("workloads").ladder_curve
    handed = record_loop_rows(monkeypatch)
    milnor = CurveJacobian(parse_form(ladder_curve(d), GF)).milnor_hilbert()
    assert milnor.tjurina > 0 and handed
    assert sum(handed) == 0


def test_rational_results_hold_no_float():
    M = QQ.array([[2, 3, 0, 1], [0, 6, 4, 0], [4, 0, 5, 7], [0, 0, 3, 0]])
    for result in (rref(M, QQ).matrix, kernel_basis(M, QQ), rref(M[:, ::-1], QQ).matrix):
        assert all(type(x) is Fraction for x in result.flat)
    assert type(QQ.inv(3)) is Fraction and QQ.inv(3) == Fraction(1, 3)
    assert type(QQ.inv(Fraction(2, 3))) is Fraction
