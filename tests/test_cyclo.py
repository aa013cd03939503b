"""Exact cyclotomic arithmetic: the multiply-accumulate kernel and the
packed vector times matrix product against long division by Phi_N, ring
axioms, inversion, conjugation, Gauss sums, and the complex embedding."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinmod.cyclo import (CycloNumber, FieldMismatchError, MatrixRow,
                           cyclo_field, cyclotomic_polynomial, euler_phi,
                           gauss_sum, make_root, pack, pack_width, unpack)


def random_number(rng, field, terms=4, span=5):
    acc = field.zero
    for _ in range(terms):
        acc = acc + field.zeta(rng.randrange(field.order)) * rng.randint(-span, span)
    if rng.random() < 0.3:
        acc = acc.scale(Fraction(1, rng.randint(1, 6)))
    return acc


def test_cyclotomic_polynomials_divide_x_n_minus_1():
    # by induction on n, the product identity pins every Phi_n
    for n in range(1, 301):
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


def test_cyclotomic_polynomial_of_a_smooth_order_is_fast_cold():
    # the field charge admits Q(zeta_7560), and 7560 = 2^3 3^3 5 7 has 64
    # divisors: Phi_7560 must not cost one long division per divisor
    cyclotomic_polynomial.cache_clear()
    start = time.perf_counter()
    phi = cyclotomic_polynomial(7560)
    assert time.perf_counter() - start < 0.5
    assert len(phi) - 1 == euler_phi(7560)


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


def test_powers_spend_no_product_by_one(monkeypatch):
    # square-and-multiply from the lowest set bit: x**(2^k) costs k
    # products, x**3 one squaring and one product
    x = cyclo_field(24).zeta(5)
    calls = []
    mul = CycloNumber.__mul__

    def counting_mul(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(CycloNumber, "__mul__", counting_mul)
    for exponent, products in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2),
                               (8, 3), (20, 5)):
        calls.clear()
        x ** exponent
        assert len(calls) == products, exponent


def test_powers_match_repeated_multiplication():
    field = cyclo_field(24)
    for x in (field.zeta(7), field.zeta(5) + 2 * field.zeta(1)):
        assert x ** 0 == field.one
        acc = field.one
        for exponent in range(21):
            assert x ** exponent == acc, exponent
            acc = acc * x
        inv = x.invert()
        acc = field.one
        for exponent in range(0, -6, -1):
            assert x ** exponent == acc, exponent
            acc = acc * inv


# -- the multiply-accumulate kernel against long division ---------------------

# Phi_105 is the first cyclotomic polynomial with a coefficient -2; 40, 56,
# 64 and 96 are fields of the sl2 categories, with sparse reduction rows.
KERNEL_ORDERS = [1, 2, 3, 5, 12, 15, 40, 56, 64, 96, 105]


def reduce_mod_phi(poly, n):
    """Integer polynomial (low degree first) modulo Phi_n, by long division."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    poly = list(poly) + [0] * max(0, d - len(poly))
    for k in range(len(poly) - 1, d - 1, -1):
        c = poly[k]
        if c:
            for j in range(d + 1):
                poly[k - d + j] -= c * phi[j]
    assert not any(poly[d:])
    return poly[:d]


def oracle_product(a, b):
    """Coordinates of a * b from the schoolbook product of the numerators."""
    prod = [0] * (len(a.num) + len(b.num) - 1)
    for i, x in enumerate(a.num):
        for j, y in enumerate(b.num):
            prod[i + j] += x * y
    den = a.den * b.den
    return tuple(Fraction(c, den)
                 for c in reduce_mod_phi(prod, a.field.order))


def kernel_operands(field, rng):
    """Zero, monomials, sparse and dense values, with negative
    coefficients and denominators, built from coordinates alone."""
    d = field.degree

    def coords(nonzero):
        out = [Fraction(0)] * d
        for j in rng.sample(range(d), nonzero):
            out[j] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                              rng.choice([1, 1, 2, 3, 4, 6]))
        return out

    values = [field.zero, field.one, field.from_coeffs(coords(1)),
              field.from_coeffs(coords(1)), field.from_coeffs(coords(d))]
    values += [field.from_coeffs(coords(min(d, 3))) for _ in range(2)]
    return values


def assert_canonical(x):
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    assert len(x.num) == x.field.degree
    if x.is_zero():
        assert x.den == 1


@pytest.mark.parametrize("n", KERNEL_ORDERS)
def test_products_match_long_division(n):
    field = cyclo_field(n)
    values = kernel_operands(field, random.Random(n))
    for a in values:
        for b in values:
            got = a * b
            assert got.coeffs == oracle_product(a, b)
            assert_canonical(got)


@pytest.mark.parametrize("n", KERNEL_ORDERS)
def test_dot_is_the_sum_of_products(n):
    field = cyclo_field(n)
    rng = random.Random(1000 + n)
    values = kernel_operands(field, rng)
    assert field.dot([]) == field.zero
    assert_canonical(field.dot([]))
    for size in (1, 2, 3, 5, 8):
        for _ in range(6):
            pairs = [(rng.choice(values), rng.choice(values))
                     for _ in range(size)]
            want = field.zero
            for a, b in pairs:
                want = want + a * b
            got = field.dot(pairs)
            assert got == want
            assert_canonical(got)
    # denominators 2 then 3 then 4: the accumulator is rescaled both ways
    halves = [(field.from_rational(Fraction(1, q)), x)
              for q, x in zip((2, 3, 4), values[2:])]
    want = sum((a * b for a, b in halves), field.zero)
    assert field.dot(halves) == want
    # a sum that cancels to zero over a denominator comes back as 0 / 1
    x = values[-1].scale(Fraction(1, 3))
    cancelled = field.dot([(x, values[4]), (-x, values[4])])
    assert cancelled == field.zero
    assert_canonical(cancelled)


def test_dot_rejects_numbers_of_another_field():
    with pytest.raises(FieldMismatchError):
        cyclo_field(8).dot([(make_root(8, 1), make_root(4, 1))])


@pytest.mark.parametrize("n", KERNEL_ORDERS)
def test_substitute_matches_long_division(n):
    field = cyclo_field(n)
    for x in kernel_operands(field, random.Random(2000 + n)):
        for k in range(n):
            poly = [0] * n
            for j, c in enumerate(x.num):
                poly[j * k % n] += c     # x^n = 1 modulo Phi_n
            want = tuple(Fraction(c, x.den) for c in reduce_mod_phi(poly, n))
            got = field._substitute(x, k)
            assert got.coeffs == want
            assert_canonical(got)


def test_numbers_are_canonical_for_any_sign_of_denominator():
    field = cyclo_field(12)
    assert CycloNumber(field, (1, -2, 0, 3), -1).num == (-1, 2, 0, -3)
    for nums, den in [((1, -2, 0, 3), -1), ((2, 4, 0, -6), -6),
                      ((3, 0, 0, 9), 1), ((0, 0, 0, 0), -5),
                      ((0, 0, 0, 0), 7), ((5, 5, 0, 0), 5)]:
        x = CycloNumber(field, nums, den)
        assert_canonical(x)
        assert x.coeffs == tuple(Fraction(v, den) for v in nums)


def galois_norm(x):
    """The product of all Galois conjugates of x, each by substitution."""
    field, n = x.field, x.field.order
    norm = field.one
    for k in range(1, n + 1):
        if math.gcd(k, n) == 1:
            norm = norm * field._substitute(x, k)
    return norm


def real_units(field):
    """Up to three irrational real units of Z[zeta]: quantum integers
    [m] at q = zeta and the numbers a + zeta^k + zeta^-k, kept when their
    norm is +-1."""
    n = field.order
    candidates = [sum((field.zeta(m - 1 - 2 * i) for i in range(m)),
                      field.zero) for m in range(2, n)]
    candidates += [a + field.zeta(k) + field.zeta(-k)
                   for k in range(1, n) for a in range(-2, 3)]
    out = []
    for x in candidates:
        if (not x.is_rational() and x not in out
                and abs(galois_norm(x).as_rational()) == 1):
            out.append(x)
            if len(out) == 3:
                break
    return out


@pytest.mark.parametrize("n", KERNEL_ORDERS)
def test_inverse_of_roots_of_unity_real_units_and_non_units(n):
    field = cyclo_field(n)
    roots = [field.zeta(k) for k in range(n)]
    units = real_units(field)
    assert all(x.conj() == x for x in units)
    if field.degree >= 4:
        assert units
    others = [x for x in kernel_operands(field, random.Random(3000 + n))
              if not x.is_zero()]
    others += [2 + field.zeta(1), (3 + field.zeta(1)) * (2**70 + 1)]
    for x in roots + units + others:
        inv = x.invert()
        assert x * inv == 1
        assert inv * x == 1
        assert_canonical(inv)
    for k in range(n):
        assert field.zeta(k).invert() == field.zeta(-k)


# -- the packed vector times matrix product -----------------------------------

def test_pack_width_is_the_least_that_holds_the_bound():
    assert pack_width(0) == 8
    for w in (8, 16, 32, 64, 128, 256):
        assert pack_width(2 ** (w - 1) - 1) == w
        assert pack_width(2 ** (w - 1)) == 2 * w


@pytest.mark.parametrize("w", [8, 16, 32, 64, 128, 256])
def test_pack_and_unpack_are_inverse_at_the_extreme_digits(w):
    top = 2 ** (w - 1)
    digits = [top - 1, -top, 0, -1, 1, -(top - 1), top - 1, -top]
    rng = random.Random(w)
    digits += [rng.randrange(-top, top) for _ in range(20)]
    for cut in (1, 2, 8, len(digits)):
        part = digits[:cut]
        value = pack(part, w)
        assert value == sum(c << (w * k) for k, c in enumerate(part))
        assert unpack(value, w, cut) == part


def column_oracle(pairs, col):
    """sum f * row[col] from schoolbook products and long division."""
    acc = [Fraction(0)] * pairs[0][0].field.degree if pairs else []
    for f, row in pairs:
        acc = [x + y for x, y in zip(acc, oracle_product(f, row[col]))]
    return tuple(acc)


def vecmat_operands(field, rng):
    """kernel_operands, and the same values scaled past 2^64."""
    values = kernel_operands(field, rng)
    big = [x * (2**70 + rng.randrange(1, 1000)) for x in values[1:4]]
    return values + big + [values[4].scale(Fraction(1, 2**66 + 1))]


@pytest.mark.parametrize("n", KERNEL_ORDERS)
def test_vecmat_matches_dot_and_long_division(n):
    field = cyclo_field(n)
    rng = random.Random(4000 + n)
    values = vecmat_operands(field, rng)
    size = 4
    assert field.vecmat([], size) == (field.zero,) * size
    zero_row = MatrixRow(field, [field.zero] * size)
    assert field.vecmat([(values[-2], zero_row)], size) == (field.zero,) * size
    for length in (1, 2, 3, 6):
        for trial in range(5):
            vec = [rng.choice(values) for _ in range(length)]
            if trial == 0:
                vec[0] = field.zero
            rows = [[rng.choice(values) for _ in range(size)]
                    for _ in range(length)]
            pairs = list(zip(vec, rows))
            got = field.vecmat(((f, MatrixRow(field, row))
                                for f, row in pairs), size)
            assert len(got) == size
            for col, x in enumerate(got):
                assert x == field.dot((f, row[col]) for f, row in pairs)
                assert x.coeffs == column_oracle(pairs, col)
                assert_canonical(x)


@pytest.mark.parametrize("w", [8, 16, 32, 64, 128])
@pytest.mark.parametrize("n", [1, 12, 96])
def test_vecmat_at_the_edge_of_the_width(n, w):
    """Two terms over rows of l1 norm 1 attain the width bound exactly: a
    column coefficient of +-(2^(w-1) - 1) is the largest that width w
    holds, and one of +-2^(w-1) needs the next width."""
    field = cyclo_field(n)
    ones = MatrixRow(field, [field.one, -field.zeta(1)])
    top = 2 ** (w - 1)
    for total in (top - 1, top):
        for sign in (1, -1):
            third = total // 3
            parts = [third, total - third]
            got = field.vecmat([(field.from_integer(sign * p), ones)
                                for p in parts], 2)
            assert got == (field.from_integer(sign * total),
                           -field.zeta(1) * (sign * total))


def test_vecmat_rejects_numbers_of_another_field_and_short_rows():
    field = cyclo_field(8)
    row = MatrixRow(field, [field.one, field.one])
    with pytest.raises(FieldMismatchError):
        field.vecmat([(make_root(4, 1), row)], 2)
    with pytest.raises(FieldMismatchError):
        MatrixRow(field, [make_root(4, 1)])
    with pytest.raises(ValueError):
        field.vecmat([(field.one, row)], 3)
