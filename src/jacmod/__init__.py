"""jacmod: exact Hilbert vectors of Jacobian modules of plane curves.

Given a reduced homogeneous f in C[x, y, z], the package computes the
graded dimensions of N(f) = (saturated Jacobian ideal)/(Jacobian
ideal) by exact linear algebra, extracts the minimal resolution data
of the gradient syzygy module, classifies the curve (free, nearly
free, plus-one generated, ...), and cross-checks the computed vector
against closed-form predictions for each class.
"""

from .fields import (
    BadPrimeError,
    Field,
    FieldError,
    prime_field,
    prime_pair,
    rational_field,
)
from .poly import (
    NonHomogeneousError,
    ParseError,
    PolynomialError,
    TernaryForm,
    format_form,
    monomial_basis,
    parse_form,
)

__all__ = [
    "BadPrimeError",
    "Field",
    "FieldError",
    "prime_field",
    "prime_pair",
    "rational_field",
    "NonHomogeneousError",
    "ParseError",
    "PolynomialError",
    "TernaryForm",
    "format_form",
    "monomial_basis",
    "parse_form",
]
