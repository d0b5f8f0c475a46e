"""Exact coefficient fields: prime fields GF(p) and the rationals.

Elements are kept as plain Python values (canonical int in [0, p) for
GF(p); an int or a fractions.Fraction for the rationals); a Field object
supplies the arithmetic.  A rational with an integer value may stay an
int: zero(), one() and embed_integer give ints, and sums and products
of ints are ints, so parsing a form with integer coefficients over Q
does no Fraction arithmetic.  Field.inv is the one true division on
elements, and it gives a Fraction, never a float.  This keeps hot loops
cheap and lets matrix code store coefficients directly in numpy arrays:
int64 residues for GF(p), Fraction objects only for the rationals
(entry() and zeros() give those), so that an entry has one type
whichever elimination step wrote it.  The Field is the only place that
knows which; matrix code works through array(), entry() and reduce().
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

Element = Union[int, Fraction]

PRIME_LOW = 2**30
PRIME_HIGH = 2**31


class FieldError(ValueError):
    """Invalid field construction or illegal element operation."""


class BadPrimeError(FieldError):
    """An explicitly requested modulus is not prime."""


@dataclass(frozen=True)
class FieldConfig:
    """Declarative description of a coefficient field.

    kind is "gfp" or "rational"; modulus is the prime for "gfp" and
    None otherwise.
    """

    kind: str
    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("gfp", "rational"):
            raise FieldError(f"unknown field kind {self.kind!r}")
        if self.kind == "gfp":
            if self.modulus is None or self.modulus < 2:
                raise FieldError("gfp field needs a prime modulus")
        elif self.modulus is not None:
            raise FieldError("rational field takes no modulus")


class Field:
    """Arithmetic over one FieldConfig.

    All operations are exact.  Division by zero and bad-prime
    embeddings raise instead of returning wrong values.
    """

    def __init__(self, config: FieldConfig):
        self.config = config
        self.kind = config.kind
        self.p = config.modulus
        self.dtype = np.int64 if self.kind == "gfp" else object

    # -- constants ---------------------------------------------------

    def zero(self) -> Element:
        return 0

    def one(self) -> Element:
        return 1

    # -- ring operations ---------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        if self.kind == "gfp":
            return (a + b) % self.p
        return a + b

    def mul(self, a: Element, b: Element) -> Element:
        if self.kind == "gfp":
            return (a * b) % self.p
        return a * b

    def neg(self, a: Element) -> Element:
        if self.kind == "gfp":
            return (-a) % self.p
        return -a

    def inv(self, a: Element) -> Element:
        """Multiplicative inverse; raises FieldError on zero."""
        if self.is_zero(a):
            raise FieldError("inverse of zero")
        if self.kind == "gfp":
            return pow(int(a), -1, self.p)
        return Fraction(1, a)  # 1 / a is a float for an int a

    def inverses(self, values: np.ndarray) -> np.ndarray:
        """The inverses of a vector of nonzero matrix entries, as a
        vector of entries."""
        if self.kind == "gfp":
            p = self.p
            return np.array([pow(a, -1, p) for a in values.tolist()], dtype=np.int64)
        return np.array([self.inv(a) for a in values], dtype=object)

    def is_zero(self, a: Element) -> bool:
        return a == 0

    # -- arrays -------------------------------------------------------

    def entry(self, n: int) -> Element:
        """The integer n as a matrix entry: an int64 residue for GF(p), a
        Fraction for the rationals."""
        if self.kind == "gfp":
            return n % self.p
        return Fraction(n)

    def zeros(self, shape: tuple[int, int]) -> np.ndarray:
        """A zero matrix in self.dtype."""
        if self.kind == "gfp":
            return np.zeros(shape, dtype=np.int64)
        return np.full(shape, Fraction(0), dtype=object)

    def array(self, M) -> np.ndarray:
        """Copy of the matrix M with canonical entries in self.dtype."""
        if self.kind == "gfp":
            return np.asarray(M, dtype=np.int64) % self.p
        # Macaulay matrices are mostly zero: convert only the nonzeros
        M = np.asarray(M)
        out = np.full(M.shape, Fraction(0), dtype=object)
        nonzero = np.nonzero(M)
        out[nonzero] = _to_fraction(M[nonzero])
        return out

    def reduce(self, A: np.ndarray) -> np.ndarray:
        """A, computed by ring operations on canonical entries, brought
        back to canonical form.  Over GF(p) the int64 entries stay
        exact when every operand is below p < 2^31: one product plus
        one difference is below 2^63."""
        if self.kind == "gfp":
            return A % self.p
        return A  # Fractions are always in lowest terms

    def add_combination(self, out: np.ndarray, coeffs, blocks) -> None:
        """out += sum_t coeffs[t] * blocks[t] in place, for canonical
        out, coefficients and blocks of out's shape.

        Over GF(p) each coefficient c enters as its signed
        representative, c - p when 2c > p, so |c| <= (p-1)/2, and out is
        reduced only when the next term would push the sum of |c| over
        the terms added since the last reduction past room = (2^63 - p)
        // (p - 1).  A reduced out is below p and each product is at
        most |c|(p-1) in size, so |out| <= (p-1)(1 + room) < 2^63
        throughout.  For p < 2^31 room is over 2^32: at least four
        terms per reduction, and small coefficients need only the one
        at the end.  The reduction is out -= (out // p) * p: numpy
        divides int64 by a scalar with a multiply and a shift
        (libdivide) but computes % with hardware division, so on blocks
        of thousands of entries it costs about half as much.  On blocks
        of a few dozen entries its three ufunc calls cost more than one
        %, so Field.reduce, which mostly sees such blocks, keeps %.
        Over Q only the nonzero entries of a block are scaled and
        added, since arithmetic on a Fraction zero costs as much as on
        any other."""
        if self.kind == "gfp":
            p = self.p
            room = (2**63 - p) // (p - 1)
            product = np.empty_like(out)
            pending = 0  # sum of |c| since the last reduction
            for c, block in zip(coeffs, blocks):
                if 2 * c > p:
                    c -= p
                if pending + abs(c) > room:
                    _reduce_in_place(out, p, product)
                    pending = 0
                np.multiply(block, c, out=product)
                out += product
                pending += abs(c)
            if pending:
                _reduce_in_place(out, p, product)
            return
        for c, block in zip(coeffs, blocks):
            nonzero = np.nonzero(block)
            out[nonzero] += c * block[nonzero]

    # -- embeddings ---------------------------------------------------

    def embed_integer(self, n: int) -> Element:
        if self.kind == "gfp":
            return n % self.p
        return n

    def __repr__(self) -> str:
        if self.kind == "gfp":
            return f"Field(GF({self.p}))"
        return "Field(QQ)"


_to_fraction = np.frompyfunc(Fraction, 1, 1)


def _reduce_in_place(out: np.ndarray, p: int, scratch: np.ndarray) -> None:
    """out %= p for int64 out, as out -= (out // p) * p with scratch (of
    out's shape) holding the multiple of p."""
    np.floor_divide(out, p, out=scratch)
    scratch *= p
    out -= scratch


def rational_field() -> Field:
    return Field(FieldConfig("rational"))


def prime_field(p: int) -> Field:
    return Field(FieldConfig("gfp", p))


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7, which is exact for every
    n < 3,215,031,751 (Pomerance, Selfridge and Wagstaff, Math. Comp.
    35, 1980) and so for every modulus below PRIME_HIGH."""
    if n < 2:
        return False
    for b in (2, 3, 5, 7):
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, low: int = PRIME_LOW, high: int = PRIME_HIGH) -> int:
    """Draw a uniform random prime in [low, high) from rng."""
    while True:
        candidate = rng.randrange(low | 1, high, 2)
        if _is_prime(candidate):
            return candidate


def prime_pair(seed: int, max_degree: int = 256) -> tuple[int, int]:
    """Two distinct random primes for independent verification runs.

    Both exceed 3*max_degree so that no derivative coefficient k <= d
    or classification constant 3(d-1) can vanish spuriously mod p.
    The default 30-bit range satisfies this for any realistic degree;
    the bound is still checked so explicit small primes cannot sneak
    past validation elsewhere.
    """
    rng = random.Random(seed)
    p1 = random_prime(rng)
    p2 = random_prime(rng)
    while p2 == p1:
        p2 = random_prime(rng)
    for p in (p1, p2):
        if p <= 3 * max_degree:
            raise FieldError(f"prime {p} too small for degree cap {max_degree}")
    return p1, p2


def validate_prime_for_degree(p: int, degree: int) -> None:
    """Reject moduli the int64 engine cannot hold, composite moduli and
    primes small enough to corrupt degree-d bookkeeping."""
    if p >= PRIME_HIGH:
        raise FieldError(f"modulus {p} is too large: the int64 engine needs p < 2^31")
    if not _is_prime(p):
        raise BadPrimeError(f"{p} is not prime")
    if p <= 3 * degree:
        raise FieldError(
            f"prime {p} must exceed 3*degree = {3 * degree} for exact results"
        )
