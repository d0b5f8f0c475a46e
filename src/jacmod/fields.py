"""Exact coefficient fields: prime fields GF(p) and the rationals.

Elements are kept as plain Python values (canonical int in [0, p) for
GF(p); an int or a fractions.Fraction for the rationals); a Field object
supplies the arithmetic.  A rational with an integer value may stay an
int: the literals 0 and 1 and embed_integer give ints, and sums and
products of ints are ints, so parsing a form with integer coefficients
over Q does no Fraction arithmetic.  Field.inv is the one true division
on elements, and it gives a Fraction, never a float.  This keeps hot
loops cheap and lets matrix code store coefficients directly in numpy
arrays: int64 residues for GF(p), Fraction objects only for the
rationals (entry() and zeros() give those), so that an entry has one
type whichever elimination step wrote it.  The Field is the only place
that knows which; matrix code works through entry(), zeros(), reduce()
and negate(), and through three kernels that hold the inner loops of
exact elimination, one GF(p) path and one Q path each: sums of scaled
slices of a table (slice_sums), the Gauss-Jordan column loop
(gauss_jordan) and the product update A += C @ R (add_product).  Over
Q no kernel forms a product with a zero coefficient, since arithmetic
on a Fraction zero costs as much as on any other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Union

import numpy as np

Element = Union[int, Fraction]

PRIME_LOW = 2**30
PRIME_HIGH = 2**31

# products summed per chunk of Field.add_product over GF(p)
CHUNK = 7

# the most entries of a slice that Field.slice_sums over GF(p) gathers
GATHER = 1024


class FieldError(ValueError):
    """Invalid field construction or illegal element operation."""


class BadPrimeError(FieldError):
    """An explicitly requested modulus is not prime."""


@dataclass(frozen=True)
class SliceTerms:
    """The coefficients of a family of slice sums (Field.slice_sums),
    made once by Field.slice_terms: coeffs holds one row per sum, and
    chunks are runs of its columns."""

    coeffs: np.ndarray
    chunks: tuple[slice, ...]


class Field:
    """GF(p) as Field(p), the rationals as Field(); two fields are equal
    when their p is.  label names the field as the command line does:
    gfp:<p> or rational.

    All operations are exact.  Division by zero and bad-prime
    embeddings raise instead of returning wrong values.
    """

    def __init__(self, p: int | None = None):
        if p is not None and p < 2:
            raise FieldError("a prime field needs a modulus p >= 2")
        self.p = p
        self.label = "rational" if p is None else f"gfp:{p}"
        self.dtype = object if p is None else np.int64

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return self.p == other.p

    def __hash__(self) -> int:
        return hash(self.p)

    # -- ring operations ---------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        if self.p is not None:
            return (a + b) % self.p
        return a + b

    def mul(self, a: Element, b: Element) -> Element:
        if self.p is not None:
            return (a * b) % self.p
        return a * b

    def neg(self, a: Element) -> Element:
        if self.p is not None:
            return (-a) % self.p
        return -a

    def inv(self, a: Element) -> Element:
        """Multiplicative inverse; raises FieldError on zero."""
        if a == 0:
            raise FieldError("inverse of zero")
        if self.p is not None:
            return pow(int(a), -1, self.p)
        return Fraction(1, a)  # 1 / a is a float for an int a

    def inverses(self, values: np.ndarray) -> np.ndarray:
        """The inverses of a vector of nonzero matrix entries, as a
        vector of entries."""
        return np.array([self.inv(a) for a in values.tolist()], dtype=self.dtype)

    # -- arrays -------------------------------------------------------

    def entry(self, n: int) -> Element:
        """The integer n as a matrix entry: an int64 residue for GF(p), a
        Fraction for the rationals."""
        if self.p is not None:
            return n % self.p
        return Fraction(n)

    def zeros(self, shape: tuple[int, int]) -> np.ndarray:
        """A zero matrix in self.dtype."""
        if self.p is not None:
            return np.zeros(shape, dtype=np.int64)
        return np.full(shape, Fraction(0), dtype=object)

    def reduce(self, A: np.ndarray) -> np.ndarray:
        """A, computed by ring operations on canonical entries, brought
        back to canonical form.  Over GF(p) the int64 entries stay
        exact when every operand is below p < 2^31: one product plus
        one difference is below 2^63."""
        if self.p is not None:
            return A % self.p
        return A  # Fractions are always in lowest terms

    def negate(self, A: np.ndarray) -> np.ndarray:
        """-A as a new matrix, for canonical A, with no division: p - A
        over GF(p), times A != 0 so that zeros stay zero (p - 0 = p is
        not canonical); over Q simply -A."""
        if self.p is not None:
            out = self.p - A
            out *= A != 0
            return out
        return -A

    def slice_terms(self, rows: list[list[Element]]) -> SliceTerms:
        """The coefficients of a family of slice sums (slice_sums), one
        list per sum, as SliceTerms: zero-padded to the longest list,
        signed over GF(p) (c - p when 2c > p), and split into chunks of
        terms in which every sum's total of |c| is at most room =
        (2^63 - p) // (p - 1), each chunk as long as that allows.  Over
        Q the one chunk is every term."""
        width = max(map(len, rows))
        coeffs = np.zeros((len(rows), width), dtype=self.dtype)
        for i, row in enumerate(rows):
            coeffs[i, : len(row)] = row
        if self.p is None:
            return SliceTerms(coeffs, (slice(0, width),))
        p = self.p
        room = (2**63 - p) // (p - 1)
        coeffs[2 * coeffs > p] -= p
        chunks, first, totals = [], 0, [0] * len(rows)
        for t, column in enumerate(np.abs(coeffs).T.tolist()):
            totals = [a + b for a, b in zip(totals, column)]
            if max(totals) > room:
                chunks.append(slice(first, t))
                first, totals = t, column
        chunks.append(slice(first, width))
        return SliceTerms(coeffs, tuple(chunks))

    def slice_sums(
        self, table: np.ndarray, starts: np.ndarray, n: int, terms: SliceTerms
    ) -> np.ndarray:
        """The sums of scaled n-row slices of canonical table, stacked:
        block i of the result (rows i n to (i+1) n) is sum_t c[i, t] *
        table[starts[i, t] : starts[i, t] + n], c = terms.coeffs, in
        canonical form.  starts has the shape of c, and the slice of a
        padding term (c = 0) must lie in the table like any other.

        Over GF(p) every int64 sum stays below 2^63: each block enters
        a chunk of terms reduced, below p, adds that chunk's products and
        is reduced after it.  Every slice entry is below p, so a chunk's
        sum is at most room (p - 1) in size (SliceTerms), and with the
        reduced block at most (p - 1)(1 + room) < 2^63.  When a slice
        has at most GATHER entries (n times the table's width), a chunk
        is one gather of its slices, scaled by the signed coefficients
        and summed over the terms, reduced by %.  Larger slices are
        added one term at a time, where the calls per term cost little
        next to their arithmetic, and reduced by out -= (out // p) * p:
        numpy divides int64 by a scalar with a multiply and a shift but
        computes % with a hardware division.  A padding term adds zero.
        Over Q only the nonzero entries of a slice are scaled and added,
        and no padding term is."""
        sums, width, coeffs = len(starts), table.shape[1], terms.coeffs
        if self.p is not None and n * width <= GATHER:
            p, index = self.p, starts[:, :, None] + np.arange(n)
            out = None
            for chunk in terms.chunks:
                products = table[index[:, chunk]]
                products *= coeffs[:, chunk, None, None]
                total = products.sum(axis=1)
                out = total if out is None else np.add(out, total, out=out)
                out %= p
            return out.reshape(sums * n, width)
        gfp, out = self.p is not None, self.zeros((sums * n, width))
        product = np.empty((n, width), dtype=np.int64)
        for i, (row_starts, row_coeffs) in enumerate(zip(starts.tolist(), coeffs.tolist())):
            block = out[i * n : (i + 1) * n]
            for chunk in terms.chunks:
                for c, s in zip(row_coeffs[chunk], row_starts[chunk]):
                    if c and gfp:
                        np.multiply(table[s : s + n], c, out=product)
                        block += product
                    elif c:
                        slab = table[s : s + n]
                        nonzero = np.nonzero(slab)
                        block[nonzero] += c * slab[nonzero]
                if gfp:
                    _reduce_in_place(block, self.p, product)
        return out

    def gauss_jordan(self, M: np.ndarray) -> list[int]:
        """Bring canonical M to reduced row echelon form in place, in one
        pass; returns the pivot columns.  M[:rank] holds the nonzero
        rows of the form, the rest is zero.

        Pivots are taken left to right, each on the lowest row left with
        a nonzero in its column.  When M[r, c] is zero, one scan of
        M[r:, c:] in column order finds the next pivot, crossing any run
        of columns zero below row r, which no later row operation makes
        nonzero there; rows r on are zero left of column c, so the swap
        moves only the columns from c on.  Each pivot row
        is scaled to a unit and clears its column from every other row,
        above and below.  Over GF(p) both are one update of the slice
        M[:, c:]: M[:, c:] -= g * M[r, c:], g being column c times the
        inverse i of the lead, mod p, with g[r] = 1 - i so that row r
        becomes itself times i.  Every g and entry is below p < 2^31,
        so each product is below 2^62 and the int64 difference exact
        before the one % p; rows with g = 0 come out unchanged.  Over Q
        only the rows where column c is nonzero and the columns where
        the pivot row is are scaled or updated."""
        rows, cols = M.shape
        p = self.p
        pivots: list[int] = []
        r = c = 0
        while r < rows and c < cols:
            if M[r, c] == 0:
                j, i = divmod(int((M[r:, c:] != 0).T.argmax()), rows - r)
                if M[r + i, c + j] == 0:
                    break
                c += j
                if i:
                    row = M[r + i, c:].copy()
                    M[r + i, c:] = M[r, c:]
                    M[r, c:] = row
            if p is not None:
                inverse = pow(int(M[r, c]), -1, p)
                g = M[:, c] * inverse
                g %= p
                g[r] = (1 - inverse) % p
                tail = M[:, c:]
                tail -= np.multiply.outer(g, M[r, c:])
                tail %= p
            else:
                span = c + np.flatnonzero(M[r, c:])
                M[r, span] = M[r, span] * self.inv(M[r, c])
                targets = np.flatnonzero(M[:, c])
                targets = targets[targets != r]
                if targets.size:
                    M[np.ix_(targets, span)] -= np.multiply.outer(M[targets, c], M[r, span])
            pivots.append(c)
            r += 1
            c += 1
        return pivots

    def add_product(self, A: np.ndarray, C: np.ndarray, R: np.ndarray) -> None:
        """A += C @ R in place, for canonical A, C and R; only the rows of
        A where C has a nonzero are rewritten.

        Over GF(p) the product runs in chunks of CHUNK columns of C (rows
        of R), each on the rows where that chunk of C has a nonzero:
        A[rows] = (A[rows] + Cs @ Rs) % p, with Cs and Rs the signed
        representatives (c - p when 2c > p), so |c|, |r| <= (p-1)/2 and
        |c * r| < 2^60 for p < 2^31.  CHUNK = 7 such products plus a
        canonical accumulator stay below 2^63.  A chunk with no nonzero
        costs one scan of its columns of C.  Over Q each nonzero
        C[i, t] adds C[i, t] * R[t] to row i, summed per row, and no
        product with a zero coefficient is formed."""
        if self.p is not None:
            p, half = self.p, self.p // 2
            nonzero = C != 0
            for start in range(0, C.shape[1], CHUNK):
                chunk = slice(start, start + CHUNK)
                rows = np.flatnonzero(nonzero[:, chunk].any(axis=1))
                if rows.size:
                    Cs, Rs = C[rows, chunk], R[chunk]
                    Cs = np.where(Cs > half, Cs - p, Cs)
                    Rs = np.where(Rs > half, Rs - p, Rs)
                    A[rows] = (A[rows] + Cs @ Rs) % p
            return
        rows, terms = np.nonzero(C)
        if rows.size == 0:
            return
        products = C[rows, terms][:, None] * R[terms]
        new_row = np.empty(rows.size, dtype=bool)
        new_row[0] = True
        np.not_equal(rows[1:], rows[:-1], out=new_row[1:])
        starts = np.flatnonzero(new_row)
        if starts.size < rows.size:  # some row has more than one term
            products = np.add.reduceat(products, starts, axis=0)
        touched = rows[starts]
        A[touched] += products

    # -- embeddings ---------------------------------------------------

    def embed_integer(self, n: int) -> Element:
        if self.p is not None:
            return n % self.p
        return n

    def __repr__(self) -> str:
        return f"Field({self.label})"


def _reduce_in_place(out: np.ndarray, p: int, scratch: np.ndarray) -> None:
    """out %= p for int64 out, as out -= (out // p) * p with scratch (of
    out's shape) holding the multiple of p."""
    np.floor_divide(out, p, out=scratch)
    scratch *= p
    out -= scratch


def rational_field() -> Field:
    return Field()


def prime_field(p: int) -> Field:
    return Field(p)


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


@lru_cache(maxsize=256)
def prime_pair(seed: int, max_degree: int = 256) -> tuple[int, int]:
    """Two distinct random 31-bit primes, from [PRIME_LOW, PRIME_HIGH),
    for independent verification runs.

    Both must exceed 3*max_degree so that no derivative coefficient
    k <= d or classification constant 3(d-1) can vanish spuriously mod
    p; a FieldError says when one does not, which no degree below 2^30/3
    causes.  The pair depends only on the arguments, so it is drawn once
    per process for each; the FieldError is raised again on every call,
    since lru_cache keeps no exception.
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
