"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Every quantity in this package (quantum dimensions, twists, Hopf-link
matrices, invariant values, Gauss sums) lives in a single cyclotomic field
fixed when a category is built.  A number is stored as an integer
coordinate vector over one positive denominator, in the power basis
1, zeta, ..., zeta^(phi(N)-1), always reduced modulo the N-th cyclotomic
polynomial.  The representation is canonical, so equality (in particular
exactness of vanishing results) is coefficient-wise.

Multiplication is one sparse multiply-accumulate kernel,
``CycloField.dot(pairs)`` = sum of a*b: it multiplies only nonzero
coordinates into one unreduced polynomial of degree 2 phi(N) - 2 over the
lcm of the pair denominators, reduces it through sparse rows x^k mod Phi_N
(1 to 6 nonzero terms for the fields the sl2 categories use), and
normalizes once.  ``CycloNumber.__mul__`` is its one-pair case.

A vector times a matrix, the S-transform of the evaluator's fold, is
``CycloField.vecmat``: Kronecker substitution evaluates each polynomial
at x = 2^w, so Python's big-integer arithmetic runs the inner loops.  A
vector entry f_i is packed once into one integer F_i = f_i(2^w); each
nonzero coordinate c of a matrix entry at power j adds c * (F_i << wj) to
its column; each column sum is unpacked once into balanced base-2^w
digits and reduced like a ``dot`` result.  The width w is proven, not
guessed: 2^(w-1) exceeds sum_i ||F_i||_inf * max_col ||row_i[col]||_1,
which bounds every coefficient of every column sum, so unpacking is
exact.

No floating point enters any computation; ``embed_complex`` exists only
for display and diagnostics.
"""

from __future__ import annotations

import cmath
import math
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import compress

from .budget import charge


class FieldMismatchError(ValueError):
    """Raised when combining numbers from different cyclotomic fields."""


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    result = n
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (low degree first), monic divisor."""
    num = list(num)
    dd = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    quot = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            quot[k - dd] = c
            for j in range(dd + 1):
                num[k - dd + j] -= c * den[j]
    if any(num):
        raise ValueError("division is not exact")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, low degree first, monic.

    Computed by dividing x^n - 1 by Phi_d for every proper divisor d of n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


# signed machine integer typecodes of `array` by byte width
_NATIVE = {array(t).itemsize: t for t in "bhilq"}
_SWAP = sys.byteorder == "big"


def pack_width(bound: int) -> int:
    """The least w = 8 * 2^k with 2^(w-1) > ``bound``: every integer of
    absolute value at most ``bound`` is then one balanced base-2^w digit.
    Widths up to 64 bits pack and unpack as machine integers."""
    w = 8
    while bound >> (w - 1):
        w *= 2
    return w


@lru_cache(maxsize=64)
def _bias(w: int, count: int) -> int:
    """2^(w-1) in each of ``count`` base-2^w digits."""
    return ((1 << w * count) - 1) // ((1 << w) - 1) << (w - 1)


def pack(coeffs, w: int) -> int:
    """sum_k c_k 2^(wk) for integers |c_k| < 2^(w-1), w a multiple of 8.

    The coefficients are written as w-bit two's complement fields; flipping
    each field's top bit (xor with the bias) and subtracting the bias turns
    that bit string into the signed sum."""
    nb = w // 8
    fmt = _NATIVE.get(nb)
    if fmt:
        fields = array(fmt, coeffs)
        if _SWAP:
            fields.byteswap()
        raw = fields.tobytes()
    else:
        raw = b"".join(c.to_bytes(nb, "little", signed=True) for c in coeffs)
    bias = _bias(w, len(coeffs))
    return (int.from_bytes(raw, "little") ^ bias) - bias


def unpack(value: int, w: int, count: int) -> list[int]:
    """The ``count`` balanced base-2^w digits c_k in [-2^(w-1), 2^(w-1))
    with ``value`` = sum_k c_k 2^(wk); the inverse of ``pack``.  Adding the
    bias makes every digit nonnegative, and flipping each top bit back
    leaves the digits as w-bit two's complement fields."""
    nb = w // 8
    bias = _bias(w, count)
    raw = ((value + bias) ^ bias).to_bytes(nb * count, "little")
    fmt = _NATIVE.get(nb)
    if fmt:
        fields = array(fmt, raw)
        if _SWAP:
            fields.byteswap()
        return fields.tolist()
    return [int.from_bytes(raw[i:i + nb], "little", signed=True)
            for i in range(0, len(raw), nb)]


class MatrixRow:
    """One matrix row prepared for ``CycloField.vecmat``: its entries over
    a common denominator ``den``; ``terms``, the nonzero coordinates as
    (power j, coefficient c, columns whose entry has c at power j); and
    ``norm``, the largest l1 norm of an entry's numerator."""

    __slots__ = ("den", "norm", "terms", "size")

    def __init__(self, field: "CycloField", entries):
        for e in entries:
            if e.field is not field:
                raise FieldMismatchError(
                    f"cannot combine {e.field} and {field} values")
        den = math.lcm(*[e.den for e in entries]) if entries else 1
        groups: dict[tuple[int, int], list[int]] = {}
        norm = 0
        for col, e in enumerate(entries):
            s = den // e.den
            norm = max(norm, s * sum(map(abs, e.num)))
            for j, c in compress(enumerate(e.num), e.num):
                groups.setdefault((j, s * c), []).append(col)
        self.den = den
        self.norm = norm
        self.terms = tuple((j, c, tuple(cols))
                           for (j, c), cols in sorted(groups.items()))
        self.size = len(entries)


_FIELDS: dict[int, "CycloField"] = {}


def cyclo_field(order: int) -> "CycloField":
    """The field Q(zeta_order); instances are interned so identity == equality."""
    field = _FIELDS.get(order)
    if field is None:
        field = CycloField(order)
        _FIELDS[order] = field
    return field


class CycloField:
    """Q(zeta_N) with precomputed reduction data for the power basis."""

    __slots__ = (
        "order", "degree", "phi_coeffs", "_rows", "_zeta_cache",
        "_complex_powers", "zero", "one",
    )

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("order must be positive")
        self.order = order
        # x^k mod Phi_N for k = d .. max(N-1, 2d-2), each row as its
        # nonzero (index, coefficient) pairs; charged rows x d
        # coefficients before Phi_N is computed.
        d = euler_phi(order)
        top = max(order - 1, 2 * d - 2)
        charge((top - d + 1) * d, f"cyclotomic field Q(zeta_{order}): "
               f"{top - d + 1} reduction rows of {d} coefficients")
        phi = cyclotomic_polynomial(order)
        self.phi_coeffs = phi
        self.degree = d
        rows: list[tuple[tuple[int, int], ...]] = []
        base = [-c for c in phi[:d]]
        cur = base
        for _ in range(d, top + 1):
            rows.append(tuple((j, c) for j, c in enumerate(cur) if c))
            lead = cur[d - 1]
            cur = [0] + cur[: d - 1]
            if lead:
                cur = [c + lead * b for c, b in zip(cur, base)]
        self._rows = tuple(rows)
        self._zeta_cache: dict[int, CycloNumber] = {}
        z = cmath.exp(2j * cmath.pi / order)
        self._complex_powers = tuple(z ** j for j in range(d))
        self.zero = CycloNumber(self, (0,) * d, 1)
        self.one = self._monomial_number(0)

    def _monomial(self, k: int) -> tuple[int, ...]:
        """Coordinates of x^(k mod N) reduced modulo Phi_N."""
        k %= self.order
        d = self.degree
        out = [0] * d
        if k < d:
            out[k] = 1
        else:
            for j, c in self._rows[k - d]:
                out[j] = c
        return tuple(out)

    def _monomial_number(self, k: int) -> "CycloNumber":
        return CycloNumber(self, self._monomial(k), 1)

    def zeta(self, k: int = 1) -> "CycloNumber":
        """The root of unity zeta_N^k in canonical form."""
        k %= self.order
        num = self._zeta_cache.get(k)
        if num is None:
            num = self._monomial_number(k)
            self._zeta_cache[k] = num
        return num

    def from_integer(self, value: int) -> "CycloNumber":
        d = self.degree
        return CycloNumber(self, (value,) + (0,) * (d - 1), 1)

    def from_rational(self, value: Fraction | int) -> "CycloNumber":
        q = Fraction(value)
        d = self.degree
        return CycloNumber(self, (q.numerator,) + (0,) * (d - 1), q.denominator)

    def from_coeffs(self, coeffs) -> "CycloNumber":
        """Build a number from phi(N) rational coordinates in the power basis."""
        qs = [Fraction(c) for c in coeffs]
        if len(qs) != self.degree:
            raise ValueError(
                f"expected {self.degree} coordinates, got {len(qs)}")
        den = math.lcm(*[q.denominator for q in qs]) if qs else 1
        nums = tuple(int(q * den) for q in qs)
        return CycloNumber(self, nums, den)

    def embed(self, value: "CycloNumber") -> "CycloNumber":
        """Embed a number from a subfield Q(zeta_M), M | N, via zeta_M = zeta_N^(N/M)."""
        src = value.field
        if src is self:
            return value
        if self.order % src.order != 0:
            raise FieldMismatchError(
                f"Q(zeta_{src.order}) does not embed in Q(zeta_{self.order})")
        return self._substitute(value, self.order // src.order)

    def _substitute(self, value: "CycloNumber", k: int) -> "CycloNumber":
        """``value`` with its root zeta replaced by zeta_N^k, reduced: each
        coordinate j goes to zeta^(jk mod N) through the sparse rows."""
        n, d, rows = self.order, self.degree, self._rows
        acc = [0] * d
        for j, c in enumerate(value.num):
            if c:
                e = j * k % n
                if e < d:
                    acc[e] += c
                else:
                    for i, r in rows[e - d]:
                        acc[i] += c * r
        return CycloNumber(self, acc, value.den)

    def dot(self, pairs) -> "CycloNumber":
        """The sum of a * b over ``pairs`` of numbers in this field.

        The nonzero products of coordinates accumulate unreduced over the
        lcm of the pair denominators; the sum is reduced modulo Phi_N and
        normalized once, at the end."""
        d = self.degree
        acc = [0] * (2 * d - 1)
        den = 1
        for a, b in pairs:
            if a.field is not self or b.field is not self:
                raise FieldMismatchError(
                    f"cannot combine {a.field} and {b.field} values "
                    f"in Q(zeta_{self.order})")
            terms = list(compress(enumerate(b.num), b.num))
            if not terms:
                continue
            pden = a.den * b.den
            scale = 1
            if pden != den:
                g = math.gcd(den, pden)
                up = pden // g
                if up != 1:
                    acc = [v * up for v in acc]
                scale = den // g
                den *= up
            for i, c in compress(enumerate(a.num), a.num):
                if scale != 1:
                    c *= scale
                for j, t in terms:
                    acc[i + j] += c * t
        return self._reduced(acc, den)

    def vecmat(self, pairs, size: int) -> tuple["CycloNumber", ...]:
        """The vector times matrix product: for each of the ``size``
        columns, the sum of f * row[column] over ``pairs`` of a number f
        and a ``MatrixRow``.

        Every product goes over the common denominator D = lcm(f.den *
        row.den), so f scales to F_i with F_i / D = f / row.den.  The
        column sums are packed at one width w with 2^(w-1) > sum_i
        ||F_i||_inf * row_i.norm, which bounds each coefficient of each
        column's unreduced polynomial; each column is unpacked once and
        reduced modulo Phi_N like a ``dot`` result."""
        pairs = list(pairs)
        for f, row in pairs:
            if f.field is not self:
                raise FieldMismatchError(
                    f"cannot combine {f.field} and {self} values")
            if row.size != size:
                raise ValueError("matrix row has the wrong length")
        den = math.lcm(*[f.den * row.den for f, row in pairs]) if pairs else 1
        scaled, bound = [], 0
        for f, row in pairs:
            if row.norm:        # a zero row adds nothing to any column
                s = den // (f.den * row.den)
                scaled.append((s, f.num, row))
                bound += s * max(map(abs, f.num)) * row.norm
        w = pack_width(bound)
        acc = [0] * size
        for s, num, row in scaled:
            packed = pack(num, w) * s
            for j, c, cols in row.terms:
                term = c * packed << w * j
                for col in cols:
                    acc[col] += term
        count = 2 * self.degree - 1
        return tuple(self._reduced(unpack(v, w, count), den) for v in acc)

    def _reduced(self, acc: list[int], den: int) -> "CycloNumber":
        """The number with unreduced numerator ``acc`` (2 phi(N) - 1
        coefficients, low degree first) over ``den``, reduced modulo Phi_N
        through the sparse rows x^k mod Phi_N."""
        d = self.degree
        rows, high = self._rows, acc[d:]
        for k, c in compress(enumerate(high), high):
            for j, r in rows[k]:
                acc[j] += c * r
        return CycloNumber(self, acc[:d], den)

    def __repr__(self) -> str:
        return f"CycloField({self.order})"


def _normalized(nums: tuple[int, ...] | list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den == 1:
        return tuple(nums), 1
    if den < 0:
        den = -den
        nums = [-v for v in nums]
    g = math.gcd(den, *nums)
    if g == 0:
        return tuple(nums), 1
    if g > 1:
        den //= g
        nums = [v // g for v in nums]
    if not any(nums):
        den = 1
    return tuple(nums), den


class CycloNumber:
    """An element of Q(zeta_N), canonical modulo Phi_N.

    Immutable; all arithmetic returns new values, so numbers are freely
    shareable.  Integers and Fractions coerce on the right/left of ring
    operations.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, num: tuple[int, ...], den: int = 1,
                 _normalize: bool = True):
        self.field = field
        if _normalize:
            num, den = _normalized(num, den)
        self.num = num
        self.den = den

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other) -> "CycloNumber | None":
        if isinstance(other, CycloNumber):
            if other.field is not self.field:
                raise FieldMismatchError(
                    f"cannot combine Q(zeta_{self.field.order}) with "
                    f"Q(zeta_{other.field.order}) values")
            return other
        if isinstance(other, int):
            return self.field.from_integer(other)
        if isinstance(other, Fraction):
            return self.field.from_rational(other)
        return None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(v, den) for v in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self == self.field.one

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("number is not rational")
        return Fraction(self.num[0], self.den)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        da, db = self.den, b.den
        if da == db:
            return CycloNumber(self.field,
                               [x + y for x, y in zip(self.num, b.num)], da)
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        return CycloNumber(
            self.field,
            [x * ma + y * mb for x, y in zip(self.num, b.num)],
            da * ma)

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.field, tuple(-v for v in self.num), self.den,
                           _normalize=False)

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self + (-b)

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return b + (-self)

    def __mul__(self, other):
        if isinstance(other, Fraction):
            return CycloNumber(self.field,
                               [v * other.numerator for v in self.num],
                               self.den * other.denominator)
        if isinstance(other, int):
            return CycloNumber(self.field, [v * other for v in self.num],
                               self.den)
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self.field.dot(((self, b),))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return self * b.invert()

    def __rtruediv__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return b * self.invert()

    def __pow__(self, exponent: int) -> "CycloNumber":
        if exponent < 0:
            return self.invert() ** (-exponent)
        if exponent == 0:
            return self.field.one
        # square-and-multiply from the lowest set bit: x**(2^k) costs k
        # products, and no product by one is spent
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def invert(self) -> "CycloNumber":
        """Multiplicative inverse through the real number u = x * conj(x),
        or u = x when x is real: x * others = u with others = conj(x) or 1.

        When u is rational, as it is for every root of unity, 1/x =
        others / u: one substitution and one product.  Otherwise, since u
        is fixed by complex conjugation, its norm to Q is the product of
        its conjugates sigma_k(u) over k in (Z/N)^x / {1, -1}, i.e. over
        the units 1 <= k < N/2, and 1/x = others * prod_(k > 1) sigma_k(u)
        / N(u): half the conjugates of the full Galois product."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        field = self.field
        if self.is_rational():
            return field.from_rational(1 / self.as_rational())
        others = self.conj()
        if others == self:
            u, others = self, field.one
        else:
            u = self * others
        norm = u
        if not u.is_rational():
            n = field.order
            for k in range(2, (n + 1) // 2):
                if math.gcd(k, n) == 1:
                    others = others * field._substitute(u, k)
            norm = self * others
        return others * (1 / norm.as_rational())

    def conj(self) -> "CycloNumber":
        """The automorphism zeta -> zeta^(N-1); complex conjugation on embedding."""
        return self.field._substitute(self, -1)

    def scale(self, q: Fraction | int) -> "CycloNumber":
        q = Fraction(q)
        return CycloNumber(self.field,
                           [v * q.numerator for v in self.num],
                           self.den * q.denominator)

    # -- embedding and display ----------------------------------------------

    def embed_complex(self) -> complex:
        """Evaluate at zeta_N = exp(2 pi i / N).  Diagnostics only."""
        powers = self.field._complex_powers
        total = 0j
        for j, c in enumerate(self.num):
            if c:
                total += c * powers[j]
        return total / self.den

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloNumber):
            return (self.field is other.field and self.num == other.num
                    and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == other
        return NotImplemented

    def __hash__(self):
        return hash((self.field.order, self.num, self.den))

    def __repr__(self) -> str:
        terms = []
        for j, c in enumerate(self.num):
            if not c:
                continue
            q = Fraction(c, self.den)
            if j == 0:
                terms.append(f"{q}")
            elif j == 1:
                terms.append(f"{q}*z")
            else:
                terms.append(f"{q}*z^{j}")
        body = " + ".join(terms) if terms else "0"
        return f"Cyclo({self.field.order}: {body})"


def make_root(order: int, k: int) -> CycloNumber:
    """zeta_order^k in canonical form; make_root(N, 0) is the unit."""
    return cyclo_field(order).zeta(k)


def gauss_sum(m: int, xi: CycloNumber) -> CycloNumber:
    """The quadratic sum over Z_m of xi^(i^2), exactly."""
    if m < 1:
        raise ValueError("m must be positive")
    total = xi.field.one
    term = xi.field.one
    # xi^(i^2) stepped multiplicatively: (i+1)^2 - i^2 = 2i + 1.
    odd = xi
    xi2 = xi * xi
    for _ in range(1, m):
        term = term * odd
        total = total + term
        odd = odd * xi2
    return total
