import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacmod import poly
from jacmod.fields import prime_field, rational_field
from jacmod.poly import (
    DegreeLimitError,
    NonHomogeneousError,
    ParseError,
    PolynomialError,
    TernaryForm,
    basis_dimension,
    basis_position,
    format_form,
    monomial_basis,
    parse_form,
    reduce_form,
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


@pytest.mark.parametrize(
    "text, degree, pos",
    [
        ("(x+y+z)^300", 300, 8),  # refused at the exponent, not expanded
        ("x^9*y^3 + z^12", 12, 3),  # at the product, before the sum
        ("(x+y)^30 - (x+y)^30 + x^3", 30, 6),  # even though it cancels
        ("(x^2+y^2)^5*(x+z)^2", 12, 11),
    ],
)
def test_parse_refuses_expansion_past_the_degree_limit(text, degree, pos):
    with pytest.raises(DegreeLimitError) as err:
        parse_form(text, QQ, max_degree=10)
    assert (err.value.degree, err.value.limit) == (degree, 10)
    assert f"degree {degree} (at position {pos})" in str(err.value)
    assert isinstance(err.value, PolynomialError)


def test_parse_takes_forms_up_to_the_degree_limit():
    assert parse_form("(x^2+y*z)^3*(x+y)^4", QQ, max_degree=10).degree == 10
    assert parse_form("(x^9+y^4*z^5)^7+x*z^62", QQ, max_degree=63).degree == 63
    assert parse_form("(x+y+z)^30", QQ).degree == 30  # no limit
    assert parse_form("(x+y+z)^100", GF).degree == 100  # 1,856,790 of 10^7 term pairs


def _count_term_pairs(monkeypatch) -> list[int]:
    """The term pairs of each product the parser multiplies."""
    pairs: list[int] = []
    mul = poly._mul_terms

    def counted(field, a, b):
        pairs.append(len(a) * len(b))
        return mul(field, a, b)

    monkeypatch.setattr(poly, "_mul_terms", counted)
    return pairs


def test_power_squares_no_further_than_its_top_bit(monkeypatch):
    # (x+y+z)^20 = (x+y+z)^4 * (x+y+z)^16: squares of 3, 6, 15 and 45
    # terms, and the products 1 * 15 and 15 * 153; no square of the
    # 153-term sixteenth power
    pairs = _count_term_pairs(monkeypatch)
    f = parse_form("(x+y+z)^20", QQ)
    assert len(f.terms) == basis_dimension(20)
    assert f.terms[(4, 8, 8)] == 62_355_150  # 20! / (4! 8! 8!)
    assert pairs == [9, 36, 15, 225, 2025, 2295]


def test_parse_refuses_past_its_term_pair_budget(monkeypatch):
    # a product or a power's step that would take the parse's running
    # total past the budget is refused before it is expanded
    monkeypatch.setattr(poly, "MAX_TERM_PAIRS", 4605)
    assert parse_form("(x+y+z)^20", QQ).degree == 20  # exactly 4,605 pairs
    monkeypatch.setattr(poly, "MAX_TERM_PAIRS", 4604)
    pairs = _count_term_pairs(monkeypatch)
    with pytest.raises(ParseError, match="more than 4,604 pairs of terms") as info:
        parse_form("(x+y+z)^20", QQ)
    assert info.value.pos == 8
    assert pairs == [9, 36, 15, 225, 2025]
    monkeypatch.setattr(poly, "MAX_TERM_PAIRS", 3)
    with pytest.raises(ParseError, match="more than 3 pairs") as info:
        parse_form("x*y*z + (x+y)*(x+z)", GF)  # 1 + 1, then 4 pairs
    assert info.value.pos == 13


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


@pytest.mark.parametrize("digit", ["\u00b3", "\u0663", "\uff13", "\u2083"])
def test_only_ascii_digits_are_numbers(digit):
    # str.isdigit takes each of these, and int() refuses some of them
    for field in (GF, QQ):
        with pytest.raises(ParseError) as caught:
            parse_form(f"x{digit}+y^3+z^3", field)
        assert caught.value.pos == 1
        with pytest.raises(ParseError):
            parse_form(f"x^{digit}", field)


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
    assert format_form(TernaryForm(GF, 4, {})) == "0"


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
    assert parse_form(f"({f})*({z_squared})", GF) == parse_form("x*z^2+y*z^2", GF)


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
    euler = parse_form(f"({fx})*x + ({fy})*y + ({fz})*z", QQ)
    assert euler == parse_form(f"{Fraction(f.degree)}*({f})", QQ)


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
    prod = parse_form(f"({f})*({g})", QQ)
    assert prod.degree == f.degree + g.degree
    lhs = prod.partial(0)
    rhs = f"({f.partial(0)})*({g}) + ({f})*({g.partial(0)})"
    if lhs.is_zero():  # neither factor has x
        with pytest.raises(PolynomialError, match="expanded to zero"):
            parse_form(rhs, QQ)
    else:
        assert lhs == parse_form(rhs, QQ)


def test_addition_requires_matching_degree():
    with pytest.raises(NonHomogeneousError):
        parse_form("x + x^2", GF)


# -- one parse over Q, reduced mod each prime ---------------------------------

RATIONAL_TEXTS = (
    "x^3/2 - 3/4*y^3 + z^3",
    "(x - y/3)^4 + 5*z^4/7",
    "-(x+2*y+3*z)^3 + 9*x*y*z",
    "x^2*y^2*z/5 + y^5",
    "(x^9+y^4*z^5)^7+x*z^62",
)


@pytest.mark.parametrize("text", RATIONAL_TEXTS)
@pytest.mark.parametrize("p", [7, 11, 2**31 - 1])
def test_reduced_form_is_the_parse_over_the_prime(text, p):
    field = prime_field(p)
    form = parse_form(text, QQ)
    try:
        expected = parse_form(text, field)
    except PolynomialError:  # a divisor vanished mod p
        with pytest.raises(PolynomialError):
            reduce_form(form, field)
        return
    assert reduce_form(form, field) == expected


@given(random_forms(QQ), st.sampled_from([2, 3, 5, 7, 2**31 - 1]))
@settings(max_examples=100)
def test_reduced_form_of_integer_forms(f, p):
    field = prime_field(p)
    terms = {m: c % p for m, c in f.terms.items() if c % p}
    if not terms:
        with pytest.raises(PolynomialError, match="vanishes"):
            reduce_form(f, field)
    else:
        assert reduce_form(f, field) == TernaryForm(field, f.degree, terms)


def test_unlucky_denominator_or_vanishing_form_is_a_polynomial_error():
    with pytest.raises(PolynomialError, match="division by zero mod 7"):
        reduce_form(parse_form("x^3/14 + y^3", QQ), prime_field(7))
    with pytest.raises(PolynomialError, match="vanishes mod 7"):
        reduce_form(parse_form("7*x^3 - 14*y^3", QQ), prime_field(7))
    # a denominator cancelled over Q is no division mod p
    form = reduce_form(parse_form("x^3/7*7 + y^3", QQ), prime_field(7))
    assert form.terms == {(3, 0, 0): 1, (0, 3, 0): 1}


@pytest.mark.parametrize("text", RATIONAL_TEXTS)
def test_rational_parse_holds_no_float(text):
    f = parse_form(text, QQ)
    for form in (f, *f.gradient()):
        assert all(type(c) in (int, Fraction) for c in form.terms.values())
    # integer values stay ints, so an integer form parses with no Fraction
    assert all(type(c) is int for c in parse_form("(x+2*y-z)^5", QQ).terms.values())


def test_literal_past_the_digit_limit_is_a_parse_error():
    assert parse_form("7" * 4300 + "*x", QQ).degree == 1
    with pytest.raises(ParseError, match="more than 4300 digits") as info:
        parse_form("x + " + "7" * 4301 + "*y", QQ)
    assert info.value.pos == 4


@pytest.mark.parametrize("text", ["2^20000*x", "(2*x + y)^20000", "(x/3 + y)^15000"])
def test_power_with_a_coefficient_past_the_digit_limit_is_refused_over_q(text):
    # the leading coefficient alone would have more than 4300 digits;
    # mod p coefficients do not grow, so the same power is computed there
    with pytest.raises(ParseError, match="coefficient past 4300 digits"):
        parse_form(text, QQ)
    assert parse_form("2^20000*x", GF).terms == {(1, 0, 0): pow(2, 20000, GF.p)}


def test_power_of_a_unit_coefficient_is_not_refused():
    assert parse_form("(-1)^100000000*(x - y)^3", QQ) == parse_form("(x - y)^3", QQ)
