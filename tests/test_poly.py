import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacmod.fields import prime_field, rational_field
from jacmod.poly import (
    NonHomogeneousError,
    ParseError,
    PolynomialError,
    TernaryForm,
    basis_dimension,
    basis_position,
    format_form,
    monomial_basis,
    parse_form,
)

GF = prime_field(2**31 - 1)
QQ = rational_field()


# -- monomial bases ---------------------------------------------------------


def test_basis_sizes():
    assert len(monomial_basis(0)) == 1
    assert len(monomial_basis(2)) == 6
    # C(33, 2) = 528
    assert len(monomial_basis(31)) == 528
    assert basis_dimension(31) == 528
    assert basis_dimension(-1) == 0


def test_basis_order_graded_lex():
    b = monomial_basis(2)
    assert b == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    assert basis_position(2, 0) == 3  # y^2
    # descending in lex order with x > y > z
    assert all(b[i] > b[i + 1] for i in range(len(b) - 1))
    # the position formula holds in every degree
    for k in range(6):
        for t, m in enumerate(monomial_basis(k)):
            assert basis_position(m[1], m[2]) == t


def test_basis_deterministic():
    assert monomial_basis(9) == monomial_basis(9)


# -- parsing ----------------------------------------------------------------


def test_parse_fermat_cubic():
    f = parse_form("x^3+y^3+z^3", GF)
    assert f.degree == 3
    assert f.terms == {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}


def test_parse_degree_63_sparse():
    f = parse_form("(x^9+y^4*z^5)^7+x*z^62", GF)
    assert f.degree == 63
    # binomial expansion gives 8 terms, plus the tail term
    assert len(f.terms) == 9
    assert f.terms[(63, 0, 0)] == 1
    assert f.terms[(1, 0, 62)] == 1
    # middle binomial coefficient C(7,3) = 35 on x^36 y^12 z^15
    assert f.terms[(36, 12, 15)] == 35


def test_parse_rejects_mixed_degrees():
    with pytest.raises(NonHomogeneousError) as err:
        parse_form("x^2+y^3", GF)
    assert err.value.degrees == (2, 3)


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_form("2x", GF)
    with pytest.raises(ParseError):
        parse_form("x y", GF)


def test_parse_syntax_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_form("x^3+", GF)
    assert err.value.pos == 4
    with pytest.raises(ParseError):
        parse_form("(x+y", GF)
    with pytest.raises(ParseError):
        parse_form("x^-2", GF)
    with pytest.raises(ParseError):
        parse_form("w^2", GF)


def test_parse_errors_survive_pickling():
    # a forked second-prime run sends its error back pickled
    for exc in (ParseError("division by zero", 3), NonHomogeneousError(1, 2)):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
    assert pickle.loads(pickle.dumps(ParseError("x", 7))).pos == 7


def test_parse_fraction_coefficients():
    f = parse_form("1/2*x^2 - 3/4*y^2", QQ)
    assert f.terms[(2, 0, 0)] == Fraction(1, 2)
    assert f.terms[(0, 2, 0)] == Fraction(-3, 4)


def test_parse_division_by_polynomial_rejected():
    with pytest.raises(ParseError):
        parse_form("x^2/y", QQ)
    with pytest.raises(ParseError):
        parse_form("x/0", QQ)


def test_parse_unary_minus_and_parens():
    f = parse_form("-(x-y)^2 + x^2 + y^2", GF)
    # -(x^2 - 2xy + y^2) + x^2 + y^2 = 2xy
    assert f.terms == {(1, 1, 0): 2}


def test_parse_cancellation_to_zero_rejected():
    with pytest.raises(PolynomialError):
        parse_form("x-x", GF)


def test_whitespace_ignored():
    assert parse_form(" x ^ 2 + y^2 ", GF) == parse_form("x^2+y^2", GF)


# -- printing ---------------------------------------------------------------


def test_format_canonical():
    f = parse_form("z^2+x^2-2*x*y", GF)
    # graded-lex descending, explicit *, magnitudes after the sign
    p = GF.p
    assert format_form(f) == f"x^2 + {p - 2}*x*y + z^2"
    g = parse_form("z^2+x^2-2*x*y", QQ)
    assert format_form(g) == "x^2 - 2*x*y + z^2"


def test_format_zero():
    assert format_form(TernaryForm.zero(GF, 4)) == "0"


# -- arithmetic and calculus -------------------------------------------------


def test_partial_derivatives():
    f = parse_form("x^3+y^3+z^3", QQ)
    fx, fy, fz = f.gradient()
    assert fx == parse_form("3*x^2", QQ)
    assert fy == parse_form("3*y^2", QQ)
    assert fz == parse_form("3*z^2", QQ)


def test_partial_of_mixed_term():
    f = parse_form("x^2*y^4*z", QQ)
    assert f.partial(1) == parse_form("4*x^2*y^3*z", QQ)
    assert f.partial(2) == parse_form("x^2*y^4", QQ)


def test_monomial_shift():
    f = parse_form("x+y", GF)
    z_squared = TernaryForm(GF, 2, {(0, 0, 2): GF.one()})
    assert f * z_squared == parse_form("x*z^2+y*z^2", GF)


@st.composite
def random_forms(draw, field, max_degree=5, max_terms=6):
    d = draw(st.integers(1, max_degree))
    basis = monomial_basis(d)
    n = draw(st.integers(1, min(max_terms, len(basis))))
    monos = draw(
        st.lists(st.sampled_from(basis), min_size=n, max_size=n, unique=True)
    )
    terms = {}
    for m in monos:
        c = draw(st.integers(-9, 9).filter(lambda v: v != 0))
        terms[m] = field.embed_integer(c)
    return TernaryForm(field, d, terms)


@given(random_forms(QQ))
@settings(max_examples=150)
def test_euler_identity(f):
    # x f_x + y f_y + z f_z = deg(f) * f
    fx, fy, fz = f.gradient()
    x, y, z = (TernaryForm(QQ, 1, {m: QQ.one()}) for m in monomial_basis(1))
    euler = fx * x + fy * y + fz * z
    assert euler == TernaryForm(QQ, 0, {(0, 0, 0): Fraction(f.degree)}) * f


@given(random_forms(GF))
@settings(max_examples=150)
def test_parse_format_round_trip(f):
    assert parse_form(format_form(f), GF) == f


@given(random_forms(QQ, max_degree=4))
@settings(max_examples=100)
def test_parse_format_round_trip_rational(f):
    assert parse_form(format_form(f), QQ) == f


@given(random_forms(QQ, max_degree=3), random_forms(QQ, max_degree=3))
@settings(max_examples=100)
def test_product_degree_and_derivative_leibniz(f, g):
    prod = f * g
    assert prod.degree == f.degree + g.degree
    lhs = prod.partial(0)
    rhs = f.partial(0) * g + f * g.partial(0)
    assert lhs == rhs


def test_addition_requires_matching_degree():
    with pytest.raises(NonHomogeneousError):
        parse_form("x", GF) + parse_form("x^2", GF)
