"""The Macaulay matrix of the gradient and the syzygies it defines, built
from the definitions with no use of the degree sweep: an independent
reference for tests of the Jacobian pieces and of the resolution."""

from __future__ import annotations

import numpy as np

from jacmod.fields import Field
from jacmod.jacobian import CurveJacobian
from jacmod.linalg import kernel_basis, row_rank
from jacmod.poly import basis_dimension, monomial_basis


def macaulay_matrix(j: CurveJacobian, k: int) -> np.ndarray:
    """Matrix of (a, b, c) in S_k^3 -> a f_x + b f_y + c f_z: the row of
    (i, m) holds m * f_i, for the partials i = 0, 1, 2 and m in basis(k),
    the three blocks concatenated; columns are basis(k + d - 1).  Its row
    space is (J_f)_{k+d-1} and its left kernel Syz_k."""
    source = monomial_basis(k)
    target = {m: t for t, m in enumerate(monomial_basis(k + j.degree - 1))}
    M = j.field.zeros((3 * len(source), len(target)))
    for i, partial in enumerate(j.f.gradient()):
        for r, m in enumerate(source):
            for mono, coeff in partial.terms.items():
                M[i * len(source) + r, target[tuple(a + b for a, b in zip(m, mono))]] = coeff
    return M


def new_rows(j: CurveJacobian, deg: int) -> np.ndarray:
    """Rows y^b z^c * f_i, b + c = deg, one block of deg+1 per partial
    ordered by the z exponent, over basis(deg + d - 1): the rows of the
    Macaulay matrix in degree deg at the x-free monomials."""
    source = monomial_basis(deg)[basis_dimension(deg - 1) :]
    target = {m: t for t, m in enumerate(monomial_basis(deg + j.degree - 1))}
    M = j.field.zeros((3 * len(source), len(target)))
    for i, partial in enumerate(j.f.gradient()):
        for r, m in enumerate(source):
            for mono, coeff in partial.terms.items():
                M[i * len(source) + r, target[tuple(a + b for a, b in zip(m, mono))]] = coeff
    return M


def syzygy_kernel(j: CurveJacobian, k: int) -> np.ndarray:
    """Canonical basis of Syz_k: the kernel of the transposed Macaulay
    matrix, rows (a | b | c) over basis(k)."""
    return kernel_basis(macaulay_matrix(j, k).T, j.field)


def variable_shift(V: np.ndarray, k: int, var: int, field: Field) -> np.ndarray:
    """x_var * v for each row v of V (three blocks over basis(k)), in
    three blocks over basis(k + 1)."""
    source, target = monomial_basis(k), monomial_basis(k + 1)
    position = {m: t for t, m in enumerate(target)}
    index = [position[tuple(e + (v == var) for v, e in enumerate(m))] for m in source]
    out = field.zeros((V.shape[0], 3 * len(target)))
    for block in range(3):
        out[:, [block * len(target) + t for t in index]] = V[
            :, block * len(source) : (block + 1) * len(source)
        ]
    return out


def new_generator_count(j: CurveJacobian, k: int) -> int:
    """dim Syz_k - dim (S_1 * Syz_{k-1}): the x-, y- and z-multiples of
    a basis of Syz_{k-1} span S_1 * Syz_{k-1}."""
    dim = syzygy_kernel(j, k).shape[0]
    below = syzygy_kernel(j, k - 1)
    if below.shape[0] == 0:
        return dim
    image = np.concatenate([variable_shift(below, k - 1, var, j.field) for var in range(3)])
    return dim - row_rank(image, j.field)
