"""Syzygy module tests: mdr, exponents, second-level degrees, and the
Hilbert-series balance identity on curves with known resolutions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from macaulay import new_generator_count, syzygy_kernel

from jacmod import linalg, resolution
from jacmod.fields import Field, prime_field, rational_field
from jacmod.jacobian import CurveJacobian, NotReducedError
from jacmod.linalg import kernel_basis, rref
from jacmod.poly import TernaryForm, monomial_basis, parse_form
from jacmod.resolution import (
    IncompleteResolutionError,
    PencilOfLinesError,
    ResolutionProfile,
    hilbert_numerator,
    mdr,
    resolve,
    syzygy_dimension,
)

GFP = prime_field(2**31 - 1)
GF13 = prime_field(13)
FIELDS = [GFP, GF13, rational_field()]
FIELD_IDS = ["gfp", "gf13", "rational"]
LADDER_OCTIC = "(x+1*y)^2*(x-1*y)^2*(x+2*y)^2*(x-2*y)^2 + z^8"
# a survey-pool curve with seven generators, in degrees 6 and 7
SEVEN_GENERATORS = (
    "-4*x^8 - 4*x^5*y^2*z + 3*x^3*y^4*z - 8*x^2*y^4*z^2 + 7*x*y^3*z^4 - 4*y^3*z^5"
)
DEFINITION_CURVES = (
    "x*y*z",
    "x^3 + y^3 + z^3",
    "(x*z - y^2) * (y*z - x^2)",
    "y^4 + x*z^3",
    LADDER_OCTIC,
    SEVEN_GENERATORS,
)


# up to 10 (position, coefficient) picks of monomials of one degree
RANDOM_TERMS = st.lists(
    st.tuples(st.integers(0, 35), st.integers(1, 2**31 - 2)), min_size=1, max_size=10
)


def jac(text: str, field: Field = GFP) -> CurveJacobian:
    return CurveJacobian(parse_form(text, field))


def random_resolution(d: int, picks) -> tuple[CurveJacobian, ResolutionProfile]:
    """The curve with the picked terms over GF(2^31-1) and its resolution;
    non-reduced curves and pencils of lines are discarded."""
    basis = monomial_basis(d)
    j = CurveJacobian(TernaryForm(GFP, d, {basis[i % len(basis)]: c for i, c in picks}))
    try:
        return j, resolve(j)
    except (NotReducedError, PencilOfLinesError):
        assume(False)


def syzygy_triples(j: CurveJacobian, k: int) -> list[tuple[TernaryForm, ...]]:
    """The degree-k syzygy basis read back as polynomial triples (a, b, c)."""
    basis_k = monomial_basis(k)
    n = len(basis_k)
    out = []
    for row in syzygy_kernel(j, k):
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


def annihilates_gradient(j: CurveJacobian, triple: tuple[TernaryForm, ...]) -> bool:
    """a f_x + b f_y + c f_z = 0 for the triple (a, b, c) and j's
    partials, expanded by the parser: the sum plus x^n is x^n."""
    n = triple[0].degree + j.degree - 1
    combination = " + ".join(f"({a})*({f_i})" for a, f_i in zip(triple, j.partials))
    return parse_form(f"{combination} + x^{n}", j.field) == parse_form(f"x^{n}", j.field)


class TestSyzygyDimensions:
    def test_fermat_cubic(self):
        m = jac("x^3 + y^3 + z^3").milnor_hilbert()
        assert syzygy_dimension(m, 0) == 0
        assert syzygy_dimension(m, 1) == 0
        assert syzygy_dimension(m, 2) == 3
        assert syzygy_dimension(m, 3) == 9

    def test_kernel_matches_dimension(self):
        j = jac("x^3 + y^3 + z^3")
        assert syzygy_kernel(j, 2).shape[0] == 3
        assert syzygy_kernel(j, 3).shape[0] == 9

    def test_triangle_koszul_syzygies(self):
        m = jac("x*y*z").milnor_hilbert()
        assert syzygy_dimension(m, 0) == 0
        assert syzygy_dimension(m, 1) == 2

    def test_syzygy_triples_annihilate_gradient(self):
        j = jac("(x*z - y^2) * (y*z - x^2)")
        dimension = syzygy_dimension(j.milnor_hilbert(), 2)  # in the swept coordinates
        triples = syzygy_triples(j, 2)
        assert len(triples) == dimension
        for triple in triples:
            assert annihilates_gradient(j, triple)

    def test_syzygy_triples_rational(self):
        j = jac("x*y*z", rational_field())
        dimension = syzygy_dimension(j.milnor_hilbert(), 1)
        triples = syzygy_triples(j, 1)
        assert len(triples) == dimension
        for triple in triples:
            assert annihilates_gradient(j, triple)


class TestMdr:
    def test_smooth_conic(self):
        assert mdr(jac("x^2 + y^2 + z^2").milnor_hilbert()) == 1

    def test_fermat_cubic(self):
        assert mdr(jac("x^3 + y^3 + z^3").milnor_hilbert()) == 2

    def test_triangle(self):
        assert mdr(jac("x*y*z").milnor_hilbert()) == 1

    def test_pencil_of_lines(self):
        assert mdr(jac("x*y").milnor_hilbert()) == 0

    def test_pencil_three_lines(self):
        assert mdr(jac("x^2*y + x*y^2").milnor_hilbert()) == 0


class TestResolve:
    def test_fermat_cubic_koszul(self):
        prof = resolve(jac("x^3 + y^3 + z^3"))
        assert prof.mdr == 2
        assert prof.exponents == (2, 2, 2)
        assert prof.second_degrees == (6,)
        assert prof.epsilons == (2,)
        assert prof.sigma == 0

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
        assert j.milnor_hilbert().tjurina == (d - 1) ** 2 - d1 * d2

    def test_nearly_free_cubic(self):
        # line plus transversal conic: two nodes
        j = jac("x * (x^2 + y*z)")
        prof = resolve(j)
        assert prof.exponents == (1, 2, 2)
        assert j.milnor_hilbert().tjurina == 2

    def test_conic_pair_four_syzygy(self):
        prof = resolve(jac("(x*z - y^2) * (y*z - x^2)"))
        assert prof.mdr == 2
        assert prof.exponents == (2, 3, 3, 3)
        assert prof.second_degrees == (7, 7)
        assert prof.epsilons == (1, 1)
        assert prof.sigma == 2

    @pytest.mark.parametrize("text", ["(x*z - y^2) * (y*z - x^2)", LADDER_OCTIC])
    def test_resolving_twice_gives_the_same_profile(self, text):
        # the sweep's batches are read, not consumed
        j = jac(text)
        first = resolve(j)
        kept = [batch.copy() for batch in j.batches]
        assert resolve(j) == first
        assert len(j.batches) == len(kept)
        assert all(np.array_equal(a, b) for a, b in zip(j.batches, kept))

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


class TestProvenWindow:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 7), RANDOM_TERMS)
    def test_exponents_lie_in_the_window(self, d, picks):
        _, prof = random_resolution(d, picks)
        assert max(prof.exponents) <= max(d - 1, 2 * d - 4)

    @pytest.mark.parametrize(
        "text", ["y^4 + x*z^3", "(x*z - y^2) * (y*z - x^2)", LADDER_OCTIC, SEVEN_GENERATORS]
    )
    def test_unbalanced_search_stops_at_the_window(self, text, monkeypatch):
        # a read past T+2 would be an IndexError on the Milnor values
        monkeypatch.setattr(resolution, "balanced_profile", lambda *args: None)
        with pytest.raises(IncompleteResolutionError):
            resolve(jac(text))

    def test_a_read_past_the_kept_batches_is_incomplete(self):
        # only an unlucky prime can make the scan need a batch past the
        # sweep's certified stop: refused, never an IndexError
        j = jac(LADDER_OCTIC)
        r = mdr(j.milnor_hilbert())
        j.batches = j.batches[:r]  # P_(r-1) = 0 is never read; P_r is
        with pytest.raises(IncompleteResolutionError, match="past its certified stop"):
            resolve(j)


def assert_counts_match_definition(j: CurveJacobian, prof: ResolutionProfile) -> None:
    """For every degree resolve() scanned, from mdr to the last
    generator, its count of new generators is dim Syz_k minus the rank
    of the x-, y- and z-multiples of a basis of Syz_{k-1}."""
    for k in range(prof.mdr, prof.exponents[-1] + 1):
        assert prof.exponents.count(k) == new_generator_count(j, k), k


class TestGeneratorsFromXFreeParts:
    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("text", DEFINITION_CURVES)
    def test_new_generators_match_definition(self, text, field):
        j = jac(text, field)
        assert_counts_match_definition(j, resolve(j))

    def test_seven_generators(self):
        assert resolve(jac(SEVEN_GENERATORS)).exponents == (6, 6, 7, 7, 7, 7, 7)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 7), RANDOM_TERMS)
    def test_new_generators_match_definition_on_random_curves(self, d, picks):
        assert_counts_match_definition(*random_resolution(d, picks))

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("text", ["(x*z - y^2) * (y*z - x^2)", "y^4 + x*z^3", LADDER_OCTIC])
    def test_x_free_parts_span_the_projected_kernel(self, text, field):
        # on every batch the sweep kept before its cut; resolve() reads
        # none past them
        j = jac(text, field)
        milnor = j.milnor_hilbert()
        read = []

        class Recorded(list):
            def __getitem__(self, k):
                read.append(k)
                return super().__getitem__(k)

        j.batches = Recorded(j.batches)
        resolve(j)
        assert read and max(read) < len(j.batches)
        for k in range(min(2 * j.degree - 3, len(j.batches))):
            basis = monomial_basis(k)
            free = [t for t, m in enumerate(basis) if m[0] == 0]
            # the x-free monomials come in the order of their z exponent
            assert [basis[t][2] for t in free] == list(range(k + 1))
            columns = [block * len(basis) + t for block in range(3) for t in free]
            expected = rref(syzygy_kernel(j, k)[:, columns], field)
            parts = kernel_basis(j.batches[k].T, field)
            dim = syzygy_dimension(milnor, k) - syzygy_dimension(milnor, k - 1)
            assert parts.shape == (dim, 3 * (k + 1))
            got = rref(parts, field)
            assert got.pivots == expected.pivots, k
            assert np.array_equal(got.matrix, expected.matrix), k

    @pytest.mark.parametrize(
        "text", ["(x*z - y^2) * (y*z - x^2)", "y^4 + x*z^3", LADDER_OCTIC, SEVEN_GENERATORS]
    )
    def test_resolution_eliminates_no_macaulay_size_matrix(self, text, monkeypatch):
        # recorded where the resolution layer enters linalg: row_rank of
        # the shifted parts and kernel_basis of the transposed batches
        j = jac(text)
        j.milnor_hilbert()
        widths = []

        def recorder(eliminate):
            def recorded(M, field):
                widths.append(M.shape[1])
                return eliminate(M, field)

            return recorded

        monkeypatch.setattr(resolution, "row_rank", recorder(resolution.row_rank))
        monkeypatch.setattr(resolution, "kernel_basis", recorder(resolution.kernel_basis))
        prof = resolve(j)
        # every scanned degree k is at most the last generator's
        assert widths
        assert max(widths) <= 3 * (prof.exponents[-1] + 1)

    def test_ladder_kernels_pivot_on_unit_rows_only(self, monkeypatch):
        # on the ladder every pivot of the resolution's eliminations comes
        # from a row with one nonzero, at once or once earlier ones are
        # peeled: the column loop gets no work
        j = jac(LADDER_OCTIC)
        j.milnor_hilbert()
        handed = []
        forward = linalg._forward_eliminate

        def recorded(M, field):
            handed.append(int(np.count_nonzero(M.any(axis=1))))
            return forward(M, field)

        monkeypatch.setattr(linalg, "_forward_eliminate", recorded)
        resolve(j)
        assert sum(handed) == 0
