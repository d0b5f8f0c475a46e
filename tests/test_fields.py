import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jacmod import fields
from jacmod.fields import (
    BadPrimeError,
    Field,
    FieldError,
    _is_prime,
    prime_field,
    prime_pair,
    random_prime,
    rational_field,
    validate_prime_for_degree,
)
from row_space import canonical

GF7 = prime_field(7)


def test_gf7_inverse():
    assert GF7.inv(3) == 5
    assert GF7.mul(3, GF7.inv(3)) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(FieldError):
        GF7.inv(0)
    with pytest.raises(FieldError):
        rational_field().inv(Fraction(0))


def test_embed_integer_gf7():
    assert GF7.embed_integer(10) == 3
    assert GF7.embed_integer(-1) == 6
    assert GF7.embed_integer(7) == 0


def test_field_config_validation():
    # Field(p) is GF(p) and Field() is Q; a field is named by its p alone
    for p in (0, 1):
        with pytest.raises(FieldError):
            Field(p)
    assert prime_field(7) == prime_field(7)
    assert hash(prime_field(7)) == hash(prime_field(7))
    assert prime_field(7) != prime_field(11)
    assert prime_field(7) != rational_field()
    assert rational_field() == Field()
    assert prime_field(7).label == "gfp:7"
    assert rational_field().label == "rational"


def test_prime_pair_deterministic_and_distinct():
    a = prime_pair(seed=12345)
    b = prime_pair(seed=12345)
    assert a == b
    p1, p2 = a
    assert p1 != p2
    for p in (p1, p2):
        assert 2**30 <= p < 2**31


def test_prime_pair_is_drawn_once_per_arguments(monkeypatch):
    # the pair depends only on (seed, max_degree): a repeated call draws
    # nothing and returns the same pair; a cap too small for every prime
    # raises on every call, since no error is kept
    draws = []
    draw = fields.random_prime

    def counted(rng):
        draws.append(1)
        return draw(rng)

    monkeypatch.setattr(fields, "random_prime", counted)
    first = prime_pair(2024_1020, max_degree=9)
    drawn = len(draws)
    assert drawn >= 2
    assert prime_pair(2024_1020, max_degree=9) == first
    assert len(draws) == drawn
    for _ in range(2):
        with pytest.raises(FieldError, match="too small"):
            prime_pair(2024_1020, max_degree=2**30)
    assert len(draws) == 3 * drawn


@pytest.mark.parametrize("p", [2**31 - 1, 13, random_prime(random.Random(5))])
def test_inverse_of_random_units(p):
    field, rng = prime_field(p), random.Random(p)
    for a in [1, p - 1, *(rng.randrange(1, p) for _ in range(200))]:
        assert field.mul(a, field.inv(a)) == 1
        assert field.inv(a) == pow(a, p - 2, p)  # Fermat
    with pytest.raises(FieldError):
        field.inv(0)


def test_random_prime_in_range():
    rng = random.Random(99)
    for _ in range(5):
        p = random_prime(rng)
        assert 2**30 <= p < 2**31


def test_validate_prime_for_degree():
    validate_prime_for_degree(2**30 + 3, 64)
    with pytest.raises(FieldError):
        validate_prime_for_degree(101, 64)
    with pytest.raises(BadPrimeError):
        validate_prime_for_degree(2**31 - 3, 64)
    # Miller-Rabin with bases 2, 3, 5, 7 is exact only below 3.2e9, so a
    # larger modulus is refused as out of range, prime or not
    for p in (2**31, 2**61 - 1, 3215031751):
        with pytest.raises(FieldError, match="too large"):
            validate_prime_for_degree(p, 4)


def test_is_prime_matches_sieve():
    n = 10**5
    sieve = [False, False] + [True] * (n - 2)
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(range(i * i, n, i))
    assert [k for k in range(n) if _is_prime(k)] == [k for k in range(n) if sieve[k]]
    # strong pseudoprimes to base 2
    for k in (2047, 3277, 4033, 4681, 8321):
        assert not _is_prime(k)
    assert _is_prime(2**31 - 1)
    assert _is_prime(2**31 - 19)


# -- axioms, property-based ------------------------------------------------

small_prime_fields = st.sampled_from(
    [prime_field(p) for p in (7, 101, 2**31 - 1)]
)


@st.composite
def field_and_elements(draw, n=3):
    field = draw(st.one_of(small_prime_fields, st.just(rational_field())))
    elems = []
    for _ in range(n):
        num = draw(st.integers(-50, 50))
        if field.p is not None:
            elems.append(field.embed_integer(num))
        else:
            den = draw(st.integers(1, 20))
            elems.append(Fraction(num, den))
    return field, elems


@given(field_and_elements())
@settings(max_examples=200)
def test_field_axioms(fe):
    field, (a, b, c) = fe
    assert field.add(a, b) == field.add(b, a)
    assert field.mul(a, b) == field.mul(b, a)
    assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
    assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
    assert field.mul(a, field.add(b, c)) == field.add(
        field.mul(a, b), field.mul(a, c)
    )
    assert field.add(a, 0) == a
    assert field.mul(a, 1) == a
    assert field.add(a, field.neg(a)) == 0


@given(field_and_elements(n=1))
@settings(max_examples=200)
def test_inverse_axiom(fe):
    field, (a,) = fe
    if a == 0:
        return
    assert field.mul(a, field.inv(a)) == 1


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
@settings(max_examples=100)
def test_embedding_is_ring_hom(m, n):
    f = prime_field(2**31 - 1)
    assert f.embed_integer(m + n) == f.add(f.embed_integer(m), f.embed_integer(n))
    assert f.embed_integer(m * n) == f.mul(f.embed_integer(m), f.embed_integer(n))


P = 2**31 - 1
ROOM = (2**63 - P) // (P - 1)  # 4 * (P-1)/2 + 7
BIG = (P - 1) // 2
# coefficient lists whose running sum of |c| mod P meets room exactly
# and passes it by one, in one chunk or two
AT_ROOM = [
    [BIG] * 4 + [7],
    ([BIG] * 4 + [7]) * 2,
    ([P - BIG] * 4 + [P - 7]) * 2,
    [BIG] * 4 + [7, 1],
]


@st.composite
def slice_sums(draw, p, large=True):
    """(coefficient lists, table, starts, n) with entries canonical mod p,
    many of them near p - 1 and the coefficients (p-1)/2 and (p+1)/2,
    whose signed representatives are the largest in size.  One to three
    sums of up to 16 terms each, of different lengths (so the shorter
    ones are padded), the lists of AT_ROOM among them, and tables all
    p - 1 at times: for p = 2^31 - 1 a sum then reaches the int64 bound
    exactly.  Each slice has at most GATHER entries, or with large more,
    about as often."""
    entry = st.one_of(st.integers(p - 3, p - 1), st.integers(0, p - 1), st.just(0))
    coeff = st.one_of(entry, st.sampled_from([(p - 1) // 2, (p + 1) // 2]))
    terms = st.one_of(st.lists(coeff, max_size=16), st.sampled_from(AT_ROOM))
    rows = draw(st.lists(terms, min_size=1, max_size=3))
    assume(any(rows))
    n = draw(st.integers(1, 4))
    width = draw(st.integers(1, 4)) + (fields.GATHER // n if large and draw(st.booleans()) else 0)
    height = n + draw(st.integers(0, 6))
    starts = [draw(st.lists(st.integers(0, height - n), min_size=len(r), max_size=len(r))) for r in rows]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        table = rng.integers(0, p, size=(height, width))
        table[rng.random(table.shape) < 0.3] = 0
        table[rng.random(table.shape) < 0.3] = p - 1
    else:
        table = np.full((height, width), p - 1)
    return rows, table, starts, n


def exact_slice_sums(p, rows, table, starts, n):
    """The sums in Python integers, reduced mod p over GF(p) (p None over Q)."""
    table = table.astype(object)
    out = []
    for coeffs, row_starts in zip(rows, starts):
        block = sum((c * table[s : s + n] for c, s in zip(coeffs, row_starts)), np.zeros_like(table[:n]))
        out += (block % p if p is not None else block).reshape(-1).tolist()
    return out


def assert_slice_sums_are_exact(field, p, rows, table, starts, n):
    terms = field.slice_terms([[field.embed_integer(c) for c in row] for row in rows])
    width = terms.coeffs.shape[1]
    padded = np.zeros((len(rows), width), dtype=np.intp)  # padding starts at 0
    for i, row_starts in enumerate(starts):
        padded[i, : len(row_starts)] = row_starts
    out = field.slice_sums(canonical(table, field), padded, n, terms)
    assert out.dtype == field.dtype
    assert out.shape == (len(rows) * n, table.shape[1])
    assert out.reshape(-1).tolist() == exact_slice_sums(field.p, rows, table, starts, n)
    return terms


@pytest.mark.parametrize(
    "kind, p",
    [("gfp", 2**31 - 1), ("gfp", 7), ("rational", 2**31 - 1)],
    ids=["gfp", "gf7", "rational"],
)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_slice_sums_equal_exact_sums(kind, p, data):
    # int64 sums of signed products, gathered per chunk of terms on small
    # slices and added term by term on large ones, reduced once per chunk
    # on both, and the nonzero-only Fraction sums, against exact integer
    # arithmetic; padding terms add nothing.  Q has no gate, so its
    # slices stay small
    field = prime_field(p) if kind == "gfp" else rational_field()
    terms = assert_slice_sums_are_exact(field, p, *data.draw(slice_sums(p, kind == "gfp")))
    if kind == "gfp":
        signed = np.abs(terms.coeffs)
        assert np.all(2 * signed < p)
        for chunk in terms.chunks:
            assert signed[:, chunk].sum(axis=1).max() <= (2**63 - p) // (p - 1)


def test_slice_terms_pads_and_chunks():
    # every sum's total of |c| stays within room per chunk, and each
    # chunk is as long as that allows for the sum that fills it first
    terms = prime_field(P).slice_terms([[BIG] * 6, [P - 1, 3], []])
    assert terms.coeffs.tolist() == [[BIG] * 6, [-1, 3, 0, 0, 0, 0], [0] * 6]
    assert terms.chunks == (slice(0, 4), slice(4, 6))
    rational = rational_field().slice_terms([[Fraction(1, 2)], [1, 2]])
    assert rational.coeffs.tolist() == [[Fraction(1, 2), 0], [1, 2]]
    assert rational.chunks == (slice(0, 2),)


@pytest.mark.parametrize("path", ["gathered", "term-by-term"])
@pytest.mark.parametrize(
    "coeffs, reductions",
    [
        ([BIG] * 4 + [7], 1),  # the running sum is room exactly
        ([BIG] * 4 + [7, 1], 2),  # and passes it
        ([P - BIG] * 4 + [P - 7], 1),  # the same, every coefficient negative
        ([P - BIG] * 4 + [P - 7, P - 1], 2),
        ([BIG] * 16, 4),
        ([3, P - 3] * 8, 1),
    ],
    ids=["room", "past-room", "room-negative", "past-room-negative", "largest", "small"],
)
def test_slice_sums_reduce_only_past_room(coeffs, reductions, path, monkeypatch):
    # every table entry p - 1: at room exactly the unreduced sum of the
    # first terms reaches room (p-1), and with a reduced block from the
    # chunk before it stays below (p-1)(1 + room) = 2^63 - 8.  Both
    # paths reduce each block once per chunk: a small slice by %, a
    # large one by _reduce_in_place
    assert ROOM == 4 * BIG + 7
    calls = []
    reduce_in_place = fields._reduce_in_place

    def recorded(out, p, scratch):
        calls.append(int(np.abs(out).max()))
        reduce_in_place(out, p, scratch)

    monkeypatch.setattr(fields, "_reduce_in_place", recorded)
    n, width = 2, 3 if path == "gathered" else fields.GATHER // 2 + 1
    table = np.full((n + 2, width), P - 1)
    starts = [[t % 3 for t in range(len(coeffs))]] * 2
    terms = assert_slice_sums_are_exact(prime_field(P), P, [coeffs] * 2, table, starts, n)
    assert len(terms.chunks) == reductions
    if path == "gathered":
        assert calls == []
        return
    assert len(calls) == 2 * reductions
    assert max(calls) < 2**63
    if coeffs[:5] == [BIG] * 4 + [7]:
        assert calls[0] == ROOM * (P - 1)
