"""Homogeneous polynomials in x, y, z with exact coefficients.

Monomials are exponent triples (a, b, c).  The fixed term order is
graded lexicographic with x > y > z: compare total degree first, then
the exponent triple lexicographically.  All graded bases enumerate
monomials in this order, descending, so matrix layouts are stable
across runs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .fields import Element, Field

Monomial = tuple[int, int, int]
Terms = dict[Monomial, Element]

VARS = ("x", "y", "z")


class PolynomialError(ValueError):
    pass


class ParseError(PolynomialError):
    """Syntax error; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos

    def __reduce__(self):  # pickle by the constructor's arguments
        return type(self), (self.message, self.pos)


class NonHomogeneousError(PolynomialError):
    """Input mixed two total degrees after expansion."""

    def __init__(self, deg_a: int, deg_b: int):
        super().__init__(
            f"polynomial is not homogeneous: degrees {deg_a} and {deg_b} present"
        )
        self.degrees = (deg_a, deg_b)

    def __reduce__(self):  # pickle by the constructor's arguments
        return type(self), self.degrees


class DegreeLimitError(PolynomialError):
    """The input would expand past the degree limit given to
    parse_form; the product or power that reaches it is not computed."""

    def __init__(self, degree: int, limit: int, pos: int):
        super().__init__(
            f"the input reaches degree {degree} (at position {pos}), above the limit {limit}"
        )
        self.degree = degree
        self.limit = limit


def monomial_degree(m: Monomial) -> int:
    return m[0] + m[1] + m[2]


@lru_cache(maxsize=None)
def monomial_basis(k: int) -> tuple[Monomial, ...]:
    """All degree-k monomials, graded-lex descending (x^k first, z^k last)."""
    if k < 0:
        return ()
    out = []
    for a in range(k, -1, -1):
        for b in range(k - a, -1, -1):
            out.append((a, b, k - a - b))
    return tuple(out)


def basis_position(b, c):
    """Position of x^a y^b z^c in monomial_basis(a + b + c), which does
    not depend on a: s(s+1)/2 + c with s = b + c.  Elementwise on
    numpy arrays."""
    s = b + c
    return s * (s + 1) // 2 + c


def basis_dimension(k: int) -> int:
    # dim S_k = C(k+2, 2)
    if k < 0:
        return 0
    return (k + 2) * (k + 1) // 2


# Term-dict arithmetic shared by the parser and jacobian.py's changes of
# coordinates: exact field operations, zero coefficients dropped, no
# degree bookkeeping.


def _add_terms(f: Field, a: Terms, b: Terms) -> Terms:
    terms = dict(a)
    for m, c in b.items():
        s = f.add(terms.get(m, f.zero()), c)
        if f.is_zero(s):
            terms.pop(m, None)
        else:
            terms[m] = s
    return terms


def _neg_terms(f: Field, a: Terms) -> Terms:
    return {m: f.neg(c) for m, c in a.items()}


def _mul_terms(f: Field, a: Terms, b: Terms) -> Terms:
    out: Terms = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            s = f.add(out.get(m, f.zero()), f.mul(c1, c2))
            if f.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
    return out


class TernaryForm:
    """A homogeneous form in x, y, z over a fixed field.

    terms maps monomials to nonzero coefficients; the zero form keeps
    an explicit degree so graded bookkeeping stays total.
    """

    __slots__ = ("field", "degree", "terms")

    def __init__(self, field: Field, degree: int, terms: Terms):
        if degree < 0:
            raise PolynomialError("degree must be nonnegative")
        for m, c in terms.items():
            if monomial_degree(m) != degree:
                raise NonHomogeneousError(degree, monomial_degree(m))
            if field.is_zero(c):
                raise PolynomialError("terms must carry nonzero coefficients")
        self.field = field
        self.degree = degree
        self.terms = dict(terms)

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TernaryForm):
            return NotImplemented
        return (
            self.field == other.field
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.field, self.degree, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[Monomial, Element]]:
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    # -- calculus ---------------------------------------------------------

    def partial(self, var: int) -> "TernaryForm":
        """Partial derivative with respect to variable index 0, 1 or 2.

        Exponent factors k <= degree are embedded into the field, which
        is exact as long as the characteristic exceeds the degree (the
        prime-selection policy guarantees this)."""
        if self.degree == 0:
            raise PolynomialError("derivative of a constant form is degree -1")
        f = self.field
        out: dict[Monomial, Element] = {}
        for m, c in self.terms.items():
            e = m[var]
            if e == 0:
                continue
            lowered = list(m)
            lowered[var] = e - 1
            coeff = f.mul(f.embed_integer(e), c)
            if not f.is_zero(coeff):
                out[tuple(lowered)] = coeff
        return TernaryForm(f, self.degree - 1, out)

    def gradient(self) -> tuple["TernaryForm", "TernaryForm", "TernaryForm"]:
        return (self.partial(0), self.partial(1), self.partial(2))

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_form(self)

    def __repr__(self) -> str:
        return f"TernaryForm({self!s})"


def format_form(f: TernaryForm) -> str:
    """Canonical text form; format_form and parse_form are inverse.

    Terms in graded-lex descending order, explicit '*' between factors,
    '^' for exponents > 1, coefficient printed only when needed.
    """
    if f.is_zero():
        return "0"
    parts: list[str] = []
    for mono, coeff in f.sorted_terms():
        factors = []
        for var, e in zip(VARS, mono):
            if e == 1:
                factors.append(var)
            elif e > 1:
                factors.append(f"{var}^{e}")
        coeff_str = str(coeff)
        negative = coeff_str.startswith("-")
        magnitude = coeff_str[1:] if negative else coeff_str
        if not factors:
            body = magnitude
        elif magnitude == "1":
            body = "*".join(factors)
        else:
            body = "*".join([magnitude] + factors)
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Parser.  Tokens: x y z, integer literals (ASCII digits only, at most
# MAX_DIGITS of them), + - * / ^ ( ).  '^' binds tightest and takes a
# literal nonnegative integer exponent; there is no implicit
# multiplication; '/' requires a constant divisor.  Whitespace is ignored.
# A parse multiplies at most MAX_TERM_PAIRS pairs of terms in all.
# ---------------------------------------------------------------------------


DIGITS = frozenset("0123456789")
MAX_DIGITS = 4300  # the most int() converts from text by default
MAX_TERM_PAIRS = 10**7  # each pair is a field product and a dict update


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value, pos: int):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str) -> Iterator[_Token]:
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            yield _Token(ch, ch, i)
            i += 1
            continue
        if ch in DIGITS:  # str.isdigit also takes digits int() refuses
            j = i
            while j < n and text[j] in DIGITS:
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError(f"integer literal of more than {MAX_DIGITS} digits", i)
            yield _Token("int", int(text[i:j]), i)
            i = j
            continue
        if ch in VARS:
            yield _Token("var", ch, i)
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    yield _Token("end", None, n)


class _Parser:
    def __init__(self, text: str, field: Field, max_degree: int | None):
        self.field = field
        self.max_degree = max_degree
        self.tokens = list(_tokenize(text))
        self.i = 0
        self.pairs = 0  # term pairs multiplied so far

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.take()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.kind!r}", tok.pos)
        return tok

    # expression := ['-'] term (('+'|'-') term)*
    def expression(self) -> Terms:
        if self.peek().kind == "-":
            self.take()
            value = _neg_terms(self.field, self.term())
        else:
            value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term()
            if op == "-":
                rhs = _neg_terms(self.field, rhs)
            value = _add_terms(self.field, value, rhs)
        return value

    # term := power (('*'|'/') power)*
    def term(self) -> Terms:
        value = self.power()
        while self.peek().kind in ("*", "/"):
            op = self.take()
            rhs = self.power()
            if op.kind == "*":
                self._check_degree(_degree(value) + _degree(rhs), op.pos)
                value = self._mul(value, rhs, op.pos)
            else:
                value = self._divide(value, rhs, op.pos)
        return value

    # power := atom ['^' int]
    def power(self) -> Terms:
        value = self.atom()
        if self.peek().kind == "^":
            self.take()
            tok = self.expect("int")
            if tok.value < 0:
                raise ParseError("negative exponent", tok.pos)
            self._check_degree(_degree(value) * tok.value, tok.pos)
            if self.field.p is None and value:  # over Q, refuse a coefficient past
                c = value[max(value)]  # MAX_DIGITS digits: the leading one is c^e
                bits = abs(c.numerator).bit_length() + c.denominator.bit_length() - 2
                if tok.value * bits * 30103 > MAX_DIGITS * 100000:  # log10(2) = 0.30103
                    raise ParseError(f"a power with a coefficient past {MAX_DIGITS} digits", tok.pos)
            value = self._power(value, tok.value, tok.pos)
        return value

    # atom := int | var | '(' expression ')'
    def atom(self) -> Terms:
        tok = self.take()
        f = self.field
        if tok.kind == "int":
            c = f.embed_integer(tok.value)
            return {} if f.is_zero(c) else {(0, 0, 0): c}
        if tok.kind == "var":
            mono = tuple(1 if v == tok.value else 0 for v in VARS)
            return {mono: f.one()}
        if tok.kind == "(":
            inner = self.expression()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {tok.kind!r}", tok.pos)

    # -- accumulator arithmetic (field-exact, inhomogeneous) -----------

    def _check_degree(self, degree: int, pos: int) -> None:
        """Refuse a product or power of this degree before expanding
        it.  Over a field deg(gh) = deg g + deg h and deg(g^e) = e deg g
        exactly, so the degree is the one the expansion would reach."""
        if self.max_degree is not None and degree > self.max_degree:
            raise DegreeLimitError(degree, self.max_degree, pos)

    def _mul(self, a: Terms, b: Terms, pos: int) -> Terms:
        """a * b, refused before it is expanded when it would take the
        parse past MAX_TERM_PAIRS term pairs."""
        self.pairs += len(a) * len(b)
        if self.pairs > MAX_TERM_PAIRS:
            raise ParseError(
                f"the expansion would multiply more than {MAX_TERM_PAIRS:,} pairs of terms", pos
            )
        return _mul_terms(self.field, a, b)

    def _divide(self, a: Terms, b: Terms, pos: int) -> Terms:
        if list(b) not in ([], [(0, 0, 0)]):
            raise ParseError("division is only allowed by a nonzero constant", pos)
        if not b:
            raise ParseError("division by zero", pos)
        return self._mul(a, {(0, 0, 0): self.field.inv(b[(0, 0, 0)])}, pos)

    def _power(self, a: Terms, e: int, pos: int) -> Terms:
        """a^e by squaring, with no square past the exponent's top bit."""
        result = {(0, 0, 0): self.field.one()}
        base = a
        while e:
            if e & 1:
                result = self._mul(result, base, pos)
            e >>= 1
            if e:
                base = self._mul(base, base, pos)
        return result


def _degree(terms: Terms) -> int:
    """The largest total degree of the terms; 0 for none."""
    return max(map(monomial_degree, terms), default=0)


def parse_form(text: str, field: Field, max_degree: int | None = None) -> TernaryForm:
    """Parse a homogeneous form; raise on syntax or mixed degrees.  An
    input nested past the interpreter's recursion limit is a ParseError
    at the token reached.  With max_degree, a product or power whose
    degree would pass it raises DegreeLimitError before it is expanded,
    even if a later term would cancel it.  A product that would take the
    parse past MAX_TERM_PAIRS pairs of terms is a ParseError."""
    parser = _Parser(text, field, max_degree)
    try:
        terms = parser.expression()
    except RecursionError:
        pos = parser.tokens[min(parser.i, len(parser.tokens) - 1)].pos
        raise ParseError("parentheses nested too deeply", pos) from None
    parser.expect("end")
    if not terms:
        raise PolynomialError("polynomial expanded to zero")
    degrees = sorted({monomial_degree(m) for m in terms})
    if len(degrees) > 1:
        raise NonHomogeneousError(degrees[0], degrees[1])
    return TernaryForm(field, degrees[0], terms)


def reduce_form(form: TernaryForm, field: Field) -> TernaryForm:
    """A form over Q reduced mod the prime of field, coefficient by
    coefficient: a/b becomes a * b^-1.  Raises PolynomialError when the
    prime divides a denominator or every coefficient, so that a caller
    drawing primes draws again."""
    p, terms = field.p, {}
    for m, c in form.terms.items():  # c is an int or a Fraction
        if c.denominator % p == 0:
            raise PolynomialError(
                f"division by zero mod {p}: a coefficient has denominator {c.denominator}"
            )
        value = field.mul(field.embed_integer(c.numerator), field.inv(c.denominator % p))
        if value:
            terms[m] = value
    if not terms:
        raise PolynomialError(f"polynomial vanishes mod {p}")
    return TernaryForm(field, form.degree, terms)
