"""Exact cyclotomic arithmetic: ring axioms, inversion, conjugation,
Gauss sums, and the complex embedding."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinmod.cyclo import (FieldMismatchError, cyclo_field,
                           cyclotomic_polynomial, euler_phi, gauss_sum,
                           make_root)

ORDERS = [1, 2, 3, 4, 5, 8, 12, 20, 24, 30, 32, 45, 60, 120]


def random_number(rng, field, terms=4, span=5):
    acc = field.zero
    for _ in range(terms):
        acc = acc + field.zeta(rng.randrange(field.order)) * rng.randint(-span, span)
    if rng.random() < 0.3:
        acc = acc.scale(Fraction(1, rng.randint(1, 6)))
    return acc


def test_cyclotomic_polynomials_divide_x_n_minus_1():
    for n in ORDERS:
        phi = cyclotomic_polynomial(n)
        assert phi[-1] == 1
        assert len(phi) - 1 == euler_phi(n)
        # product over divisors reassembles x^n - 1
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                q = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(q) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(q):
                        out[i + j] += a * b
                prod = out
        want = [-1] + [0] * (n - 1) + [1]
        assert prod == want


def test_make_root_examples():
    assert make_root(4, 1) + make_root(4, 3) == 0
    assert make_root(8, 2) ** 2 == -1
    assert make_root(12, 4) == cyclo_field(12).from_coeffs([-1, 0, 1, 0])
    assert make_root(7, 0).is_one()


def test_ring_op_examples():
    z5 = make_root(5, 1)
    assert (1 + z5) * (1 + make_root(5, 4)) == 2 + z5 + make_root(5, 4)
    z8 = make_root(8, 1)
    assert z8 * make_root(8, 7) == 1
    a = make_root(20, 3) + 2
    assert a + 0 == a


def test_field_mismatch_is_an_error():
    with pytest.raises(FieldMismatchError):
        make_root(4, 1) + make_root(8, 1)


def test_invert_examples():
    assert make_root(12, 5).invert() == make_root(12, 7)
    two = cyclo_field(8).from_integer(2)
    assert two.invert() == Fraction(1, 2)
    x = 1 + make_root(4, 1)
    assert x.invert() == (1 - make_root(4, 1)).scale(Fraction(1, 2))
    assert x * x.invert() == 1
    with pytest.raises(ZeroDivisionError):
        cyclo_field(12).zero.invert()


def test_invert_is_two_sided_on_1000_random_values():
    rng = random.Random(123)
    fields = [cyclo_field(n)
              for n in (4, 5, 8, 12, 18, 20, 24, 32, 40, 48, 56, 96)]
    done = 0
    while done < 1000:
        f = fields[rng.randrange(len(fields))]
        a = random_number(rng, f)
        if a.is_zero():
            continue
        inv = a.invert()
        assert a * inv == 1
        assert inv * a == 1
        done += 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 8, 12, 30, 60, 120]), st.data())
def test_ring_axioms_random_triples(n, data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
    f = cyclo_field(n)
    a, b, c = (random_number(rng, f, terms=3) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a
    assert a - a == f.zero


def test_conj_is_an_involution_and_multiplicative():
    rng = random.Random(5)
    for n in (5, 8, 12, 20):
        f = cyclo_field(n)
        for _ in range(25):
            a, b = random_number(rng, f), random_number(rng, f)
            assert a.conj().conj() == a
            assert (a * b).conj() == a.conj() * b.conj()
        assert f.zeta(1).conj() == f.zeta(n - 1)


def test_embed_complex_examples():
    assert cyclo_field(5).zero.embed_complex() == 0
    assert abs(make_root(4, 1).embed_complex() - 1j) < 1e-12
    val = (1 + make_root(8, 1)).embed_complex()
    assert abs(val - (1 + math.sqrt(2) / 2 + 1j * math.sqrt(2) / 2)) < 1e-12


def test_embed_complex_is_a_ring_homomorphism():
    rng = random.Random(9)
    for n in (7, 12, 24, 40):
        f = cyclo_field(n)
        for _ in range(20):
            a, b = random_number(rng, f), random_number(rng, f)
            assert abs((a * b).embed_complex()
                       - a.embed_complex() * b.embed_complex()) < 1e-10
            assert abs((a + b).embed_complex()
                       - (a.embed_complex() + b.embed_complex())) < 1e-10


def test_gauss_sum_examples():
    f = cyclo_field(10)
    assert gauss_sum(1, f.zeta(3)).is_one()
    assert gauss_sum(4, make_root(8, 1)) == make_root(8, 1) * 2
    g = gauss_sum(3, make_root(3, 1))
    assert g * g.conj() == 3


def test_embedding_between_fields():
    big = cyclo_field(24)
    small = make_root(8, 1)
    emb = big.embed(small)
    assert emb == big.zeta(3)
    with pytest.raises(FieldMismatchError):
        cyclo_field(9).embed(make_root(8, 1))


def test_powers_and_rationals():
    z = make_root(20, 3)
    assert z ** 0 == 1
    assert z ** -1 == make_root(20, 17)
    assert z ** 25 == make_root(20, 75)
    q = cyclo_field(4).from_rational(Fraction(-3, 7))
    assert q.as_rational() == Fraction(-3, 7)
    assert q.coeffs[0] == Fraction(-3, 7)
