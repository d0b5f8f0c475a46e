import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacmod import fields
from jacmod.fields import (
    BadPrimeError,
    Field,
    FieldConfig,
    FieldError,
    _is_prime,
    prime_field,
    prime_pair,
    random_prime,
    rational_field,
    validate_prime_for_degree,
)

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
    with pytest.raises(FieldError):
        FieldConfig("gfp")
    with pytest.raises(FieldError):
        FieldConfig("rational", 7)
    with pytest.raises(FieldError):
        FieldConfig("octonion")


def test_prime_pair_deterministic_and_distinct():
    a = prime_pair(seed=12345)
    b = prime_pair(seed=12345)
    assert a == b
    p1, p2 = a
    assert p1 != p2
    for p in (p1, p2):
        assert 2**30 <= p < 2**31


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
        if field.kind == "gfp":
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
    assert field.add(a, field.zero()) == a
    assert field.mul(a, field.one()) == a
    assert field.is_zero(field.add(a, field.neg(a)))


@given(field_and_elements(n=1))
@settings(max_examples=200)
def test_inverse_axiom(fe):
    field, (a,) = fe
    if field.is_zero(a):
        return
    assert field.mul(a, field.inv(a)) == field.one()


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
@settings(max_examples=100)
def test_embedding_is_ring_hom(m, n):
    f = prime_field(2**31 - 1)
    assert f.embed_integer(m + n) == f.add(f.embed_integer(m), f.embed_integer(n))
    assert f.embed_integer(m * n) == f.mul(f.embed_integer(m), f.embed_integer(n))


@st.composite
def combinations(draw, p):
    """(coefficients, blocks, start, shape) with entries canonical mod p,
    many of them near p - 1 and the coefficients (p-1)/2 and (p+1)/2,
    whose signed representatives are the largest in size.  Up to 16
    terms, and blocks all p - 1 at times: for p = 2^31 - 1 the running
    sum of |c| passes the bound where add_combination reduces, some
    times more than once."""
    entry = st.one_of(st.integers(p - 3, p - 1), st.integers(0, p - 1), st.just(0))
    coeff = st.one_of(entry, st.sampled_from([(p - 1) // 2, (p + 1) // 2]))
    rows, cols, terms = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(0, 16))
    coeffs = draw(st.lists(coeff, min_size=terms, max_size=terms))
    size = (terms + 1) * rows * cols
    if draw(st.booleans()):
        cells = draw(st.lists(entry, min_size=size, max_size=size))
    else:
        cells = [draw(entry)] * rows * cols + [p - 1] * terms * rows * cols
    arrays = [cells[t * rows * cols : (t + 1) * rows * cols] for t in range(terms + 1)]
    return coeffs, arrays[1:], arrays[0], (rows, cols)


def assert_add_combination_is_exact(field, p, coeffs, blocks, start, shape):
    out = field.array(np.array(start, dtype=object).reshape(shape))
    arrays = [field.array(np.array(b, dtype=object).reshape(shape)) for b in blocks]
    field.add_combination(out, [field.embed_integer(c) for c in coeffs], arrays)
    exact = [s + sum(c * b[i] for c, b in zip(coeffs, blocks)) for i, s in enumerate(start)]
    if field.kind == "gfp":
        exact = [v % p for v in exact]
    assert out.dtype == field.dtype
    assert out.reshape(-1).tolist() == exact


@pytest.mark.parametrize(
    "kind, p",
    [("gfp", 2**31 - 1), ("gfp", 7), ("rational", 2**31 - 1)],
    ids=["gfp", "gf7", "rational"],
)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_add_combination_equals_exact_sum(kind, p, data):
    # int64 accumulation of signed products, reduced only before the
    # running sum of |c| would pass room, and the nonzero-only Fraction
    # accumulation, against exact integer arithmetic
    field = prime_field(p) if kind == "gfp" else rational_field()
    coeffs, blocks, start, shape = data.draw(combinations(p))
    assert_add_combination_is_exact(field, p, coeffs, blocks, start, shape)


P = 2**31 - 1
ROOM = (2**63 - P) // (P - 1)  # 4 * (P-1)/2 + 7
BIG = (P - 1) // 2


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
def test_add_combination_reduces_only_past_room(coeffs, reductions, monkeypatch):
    # out and every block all p - 1: at room exactly the unreduced
    # accumulator reaches (p-1)(1 + room) = 2^63 - 8 and stays exact
    assert ROOM == 4 * BIG + 7
    calls = []
    reduce_in_place = fields._reduce_in_place

    def recorded(out, p, scratch):
        calls.append(int(np.abs(out).max()))
        reduce_in_place(out, p, scratch)

    monkeypatch.setattr(fields, "_reduce_in_place", recorded)
    shape = (2, 3)
    blocks = [[P - 1] * 6] * len(coeffs)
    assert_add_combination_is_exact(prime_field(P), P, coeffs, blocks, [P - 1] * 6, shape)
    assert len(calls) == reductions
    assert max(calls) < 2**63
    if coeffs[:5] == [BIG] * 4 + [7]:
        assert calls[0] == 2**63 - 8
