"""Syzygy module tests: mdr, exponents, second-level degrees, and the
Hilbert-series balance identity on curves with known resolutions."""

from __future__ import annotations

import pytest

from jacmod.fields import Field, prime_field, rational_field
from jacmod.jacobian import CurveJacobian
from jacmod.poly import TernaryForm, monomial_basis, parse_form
from jacmod.resolution import (
    PencilOfLinesError,
    hilbert_numerator,
    mdr,
    resolve,
    syzygy_basis,
    syzygy_dimension,
)

GFP = prime_field(2**31 - 1)


def jac(text: str, field: Field = GFP) -> CurveJacobian:
    return CurveJacobian(parse_form(text, field))


def syzygy_triples(j: CurveJacobian, k: int) -> list[tuple[TernaryForm, ...]]:
    """The degree-k syzygy basis read back as polynomial triples (a, b, c)."""
    basis_k = monomial_basis(k)
    n = len(basis_k)
    out = []
    for row in syzygy_basis(j, k):
        triple = []
        for block in range(3):
            terms = {
                mono: row[block * n + t]
                for t, mono in enumerate(basis_k)
                if not j.field.is_zero(row[block * n + t])
            }
            triple.append(TernaryForm(j.field, k, terms))
        out.append(tuple(triple))
    return out


class TestSyzygyDimensions:
    def test_fermat_cubic(self):
        j = jac("x^3 + y^3 + z^3")
        assert syzygy_dimension(j, 0) == 0
        assert syzygy_dimension(j, 1) == 0
        assert syzygy_dimension(j, 2) == 3
        assert syzygy_dimension(j, 3) == 9

    def test_kernel_matches_dimension(self):
        j = jac("x^3 + y^3 + z^3")
        assert syzygy_basis(j, 2).shape[0] == 3
        assert syzygy_basis(j, 3).shape[0] == 9

    def test_triangle_koszul_syzygies(self):
        j = jac("x*y*z")
        assert syzygy_dimension(j, 0) == 0
        assert syzygy_dimension(j, 1) == 2

    def test_syzygy_triples_annihilate_gradient(self):
        j = jac("(x*z - y^2) * (y*z - x^2)")
        fx, fy, fz = j.f.gradient()
        triples = syzygy_triples(j, 2)
        assert len(triples) == syzygy_dimension(j, 2)
        for a, b, c in triples:
            combo = a * fx + b * fy + c * fz
            assert combo.is_zero()

    def test_syzygy_triples_rational(self):
        j = jac("x*y*z", rational_field())
        fx, fy, fz = j.f.gradient()
        triples = syzygy_triples(j, 1)
        assert len(triples) == syzygy_dimension(j, 1)
        for a, b, c in triples:
            assert (a * fx + b * fy + c * fz).is_zero()


class TestMdr:
    def test_smooth_conic(self):
        assert mdr(jac("x^2 + y^2 + z^2")) == 1

    def test_fermat_cubic(self):
        assert mdr(jac("x^3 + y^3 + z^3")) == 2

    def test_triangle(self):
        assert mdr(jac("x*y*z")) == 1

    def test_pencil_of_lines(self):
        assert mdr(jac("x*y")) == 0

    def test_pencil_three_lines(self):
        assert mdr(jac("x^2*y + x*y^2")) == 0


class TestResolve:
    def test_fermat_cubic_koszul(self):
        prof = resolve(jac("x^3 + y^3 + z^3"))
        assert prof.mdr == 2
        assert prof.exponents == (2, 2, 2)
        assert prof.second_degrees == (6,)
        assert prof.epsilons == (2,)
        assert prof.sigma == 0
        assert not prof.extended_window

    def test_smooth_conic(self):
        prof = resolve(jac("x^2 + y^2 + z^2"))
        assert prof.exponents == (1, 1, 1)
        assert prof.second_degrees == (3,)
        assert prof.epsilons == (1,)
        assert prof.sigma == 0

    def test_triangle_free(self):
        prof = resolve(jac("x*y*z"))
        assert prof.exponents == (1, 1)
        assert len(prof.exponents) == 2
        assert prof.second_degrees == ()
        assert prof.sigma is None

    def test_unbalanced_free_quartic(self):
        # near-pencil of 4 lines: 3 concurrent plus 1 generic
        j = jac("x * y * (x + y) * z")
        prof = resolve(j)
        d = 4
        assert prof.exponents == (1, 2)
        d1, d2 = prof.exponents
        assert d1 + d2 == d - 1
        assert j.tjurina() == (d - 1) ** 2 - d1 * d2

    def test_nearly_free_cubic(self):
        # line plus transversal conic: two nodes
        j = jac("x * (x^2 + y*z)")
        prof = resolve(j)
        assert prof.exponents == (1, 2, 2)
        assert j.tjurina() == 2

    def test_conic_pair_four_syzygy(self):
        prof = resolve(jac("(x*z - y^2) * (y*z - x^2)"))
        assert prof.mdr == 2
        assert prof.exponents == (2, 3, 3, 3)
        assert prof.second_degrees == (7, 7)
        assert prof.epsilons == (1, 1)
        assert prof.sigma == 2

    def test_nearly_free_quartic(self):
        prof = resolve(jac("y^4 + x*z^3"))
        assert prof.exponents == (1, 3, 3)
        assert prof.second_degrees == (7,)
        assert prof.epsilons == (1,)
        assert prof.sigma == 2

    def test_pencil_raises(self):
        with pytest.raises(PencilOfLinesError):
            resolve(jac("x*y"))

    def test_rational_field_agrees(self):
        prof = resolve(jac("y^4 + x*z^3", rational_field()))
        assert prof.exponents == (1, 3, 3)


class TestBalanceIdentity:
    def test_numerator_nearly_free_quartic(self):
        j = jac("y^4 + x*z^3")
        num = hilbert_numerator(j.milnor_hilbert())
        # P(t) = (1-t)^3 * HS(M(f)): for exponents (1,3,3), e=(7,):
        # P = 1 - 3t^3 + t^4 + 2t^6 - t^7
        expected = [0] * len(num)
        for pos, c in ((0, 1), (3, -3), (4, 1), (6, 2), (7, -1)):
            expected[pos] = c
        assert list(num) == expected

    def test_numerator_free(self):
        j = jac("x*y*z")
        num = hilbert_numerator(j.milnor_hilbert())
        # free curve: P = 1 - 3t^2 + 2t^3, no second-level term
        expected = [0] * len(num)
        for pos, c in ((0, 1), (2, -3), (3, 2)):
            expected[pos] = c
        assert list(num) == expected

    def test_resolution_reproduces_milnor_series(self):
        # balance identity inverted: sum of the resolution's binomial
        # contributions must reproduce dim M(f)_k for every k up to T+2
        j = jac("(x*z - y^2) * (y*z - x^2)")
        prof = resolve(j)
        m = j.milnor_hilbert()
        d = j.degree

        def dim_s(k: int) -> int:
            return (k + 2) * (k + 1) // 2 if k >= 0 else 0

        for k in range(len(m.values)):
            total = dim_s(k) - 3 * dim_s(k - d + 1)
            total += sum(dim_s(k - d + 1 - di) for di in prof.exponents)
            total -= sum(dim_s(k - ej) for ej in prof.second_degrees)
            assert total == m.values[k]
