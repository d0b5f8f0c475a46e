from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacmod.fields import prime_field, rational_field
from jacmod.linalg import kernel_basis, matrix_zeros, row_rank, rref
from row_space import in_row_space, rows_in_row_space

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
    K = kernel_basis(matrix_zeros(GF7, 2, 3), GF7)
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
    K = kernel_basis(matrix_zeros(GF7, 3, 0), GF7)
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
    M = matrix_zeros(field, rows, cols)
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


def test_two_primes_agree_on_fixed_matrix():
    rows = [[3, 1, 4, 1], [5, 9, 2, 6], [8, 10, 6, 7], [5, 3, 5, 8]]
    p1, p2 = 2**31 - 1, 2**31 - 19
    r1 = row_rank(_build(prime_field(p1), 4, 4, sum(rows, [])), prime_field(p1))
    r2 = row_rank(_build(prime_field(p2), 4, 4, sum(rows, [])), prime_field(p2))
    assert r1 == r2 == row_rank(_build(QQ, 4, 4, sum(rows, [])), QQ)
