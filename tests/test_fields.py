import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
def combinations(draw):
    """(coefficients, blocks, start) of one shape, entries canonical mod
    the largest prime the int64 engine takes, many of them near p - 1."""
    p = 2**31 - 1
    entry = st.one_of(st.integers(p - 3, p - 1), st.integers(0, p - 1), st.just(0))
    rows, cols, terms = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(0, 7))
    coeffs = draw(st.lists(entry, min_size=terms, max_size=terms))
    size = (terms + 1) * rows * cols
    cells = draw(st.lists(entry, min_size=size, max_size=size))
    arrays = [cells[t * rows * cols : (t + 1) * rows * cols] for t in range(terms + 1)]
    return coeffs, arrays[:-1], arrays[-1], (rows, cols)


@pytest.mark.parametrize("kind", ["gfp", "rational"])
@given(combinations())
@settings(max_examples=100, deadline=None)
def test_add_combination_equals_exact_sum(kind, spec):
    # int64 accumulation with a reduction every second product, and the
    # nonzero-only Fraction accumulation, against exact integer arithmetic
    coeffs, blocks, start, shape = spec
    p = 2**31 - 1
    field = prime_field(p) if kind == "gfp" else rational_field()
    out = field.array(np.array(start, dtype=object).reshape(shape))
    arrays = [field.array(np.array(b, dtype=object).reshape(shape)) for b in blocks]
    field.add_combination(out, [field.embed_integer(c) for c in coeffs], arrays)
    exact = [s + sum(c * b[i] for c, b in zip(coeffs, blocks)) for i, s in enumerate(start)]
    if kind == "gfp":
        exact = [v % p for v in exact]
    assert out.dtype == field.dtype
    assert out.reshape(-1).tolist() == exact
