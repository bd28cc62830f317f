"""Exact finite-field arithmetic.

Builds F_{q^k} with a canonical modulus, computes modular powers of
polynomials over it, and factors polynomials completely via squarefree
decomposition, distinct-degree splitting and seeded Cantor-Zassenhaus
equal-degree splitting.
"""
from __future__ import annotations

import functools
import itertools
import random
import sys
from array import array
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    DegreeOutOfRange,
    FieldTooLarge,
    MixedContexts,
    NotPrime,
    ZeroPolynomial,
)
from .integers import is_prime, prime_factors

ENUMERATION_BOUND = 10 ** 6

# Fixed seed for equal-degree splitting: identical inputs always factor
# through the identical random stream.
_SPLIT_SEED = 0x5E1F1E1D


class FieldContext:
    """An explicit finite field: F_q, or F_q[x]/(modulus) for a monic
    irreducible modulus of degree k over F_q (see ``make_field``).

    Elements are coefficient vectors of k ints in [0, q), low degree first.
    """

    def __init__(self, q, modulus=None, _checked=False):
        if not _checked and not is_prime(q):
            raise NotPrime(f"{q} is not prime")
        self.q = q
        self.modulus = None if modulus is None else tuple(modulus)
        self.k = 1 if self.modulus is None else len(self.modulus) - 1
        self.cardinality = q ** self.k
        # the nonzero lower coefficients of the modulus, for _ereduce
        self._low_terms = () if self.modulus is None else tuple(
            (j, c) for j, c in enumerate(self.modulus[:-1]) if c
        )
        self._fold_growth = _fold_growth(self)
        self._key = (q, self.k, self.modulus)
        self._hash = hash(self._key)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldContext):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.modulus is None:
            return f"F_{self.q}"
        return f"F_{self.q}^{self.k}"

    def zero(self) -> "FqElement":
        return FqElement(self, (0,) * self.k)

    def one(self) -> "FqElement":
        return self.embed(1)

    def embed(self, n: int) -> "FqElement":
        """Image of a rational integer."""
        return FqElement(self, (n % self.q,) + (0,) * (self.k - 1))

    def element(self, coeffs: Sequence[int]) -> "FqElement":
        """Element from a coefficient vector (low degree first, may be short)."""
        if len(coeffs) > self.k:
            raise ValueError("coefficient vector longer than the field degree")
        vec = [c % self.q for c in coeffs] + [0] * (self.k - len(coeffs))
        return FqElement(self, tuple(vec))

    def gen(self) -> "FqElement":
        """Residue class of x in F_q[x]/(modulus)."""
        if self.modulus is None:
            raise ValueError("the prime field has no generator over itself")
        return self.element((0, 1))

    def from_index(self, i: int) -> "FqElement":
        """Element number i in [0, cardinality): base-q digits."""
        return FqElement(self, self._eindex(i))

    def elements(self) -> Iterator["FqElement"]:
        """All field elements; errors above the enumeration bound."""
        if self.cardinality > ENUMERATION_BOUND:
            raise FieldTooLarge(
                f"cardinality {self.cardinality} exceeds {ENUMERATION_BOUND}"
            )
        for vec in itertools.product(range(self.q), repeat=self.k):
            yield FqElement(self, vec)

    # -- coefficient-vector arithmetic ---------------------------------------

    def _eadd(self, u, v):
        q = self.q
        return tuple([(a + b) % q for a, b in zip(u, v)])

    def _esub(self, u, v):
        q = self.q
        return tuple([(a - b) % q for a, b in zip(u, v)])

    def _eneg(self, u):
        q = self.q
        return tuple([-a % q for a in u])

    def _eindex(self, i):
        vec = []
        for _ in range(self.k):
            i, digit = divmod(i, self.q)
            vec.append(digit)
        return tuple(vec)

    def _emul(self, u, v):
        if self.k == 1:
            return (u[0] * v[0] % self.q,)
        prod = [0] * (2 * self.k - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    prod[i + j] += a * b
        return self._ereduce(prod)

    def _ereduce(self, prod):
        # reduce in place by the monic modulus, then mod q
        q, n, terms = self.q, self.k, self._low_terms
        for i in range(len(prod) - 1, n - 1, -1):
            c = prod[i] % q
            if c:
                for j, m in terms:
                    prod[i - n + j] -= c * m
        return tuple(c % q for c in prod[:n])

    def _epow(self, u, e):
        result = (1,) + (0,) * (self.k - 1)
        while e:
            if e & 1:
                result = self._emul(result, u)
            u = self._emul(u, u)
            e >>= 1
        return result

    def _einv(self, u):
        q = self.q
        if not any(u):
            raise ZeroDivisionError("inverting 0")
        if self.k == 1:
            return (pow(u[0], q - 2, q),)
        # extended Euclid for u against the modulus, on int lists mod q
        r0, r1 = list(self.modulus), _trim(list(u))
        t0: list = []
        t1 = [1]
        while r1:
            quo, rem = _divmod_ints(r0, r1, q)
            r0, r1 = r1, rem
            t0, t1 = t1, _submul_ints(t0, quo, t1, q)
        c = pow(r0[0], q - 2, q)
        return tuple(c * a % q for a in t0) + (0,) * (self.k - len(t0))


# int-list polynomial helpers over F_q (low degree first) used by _einv ------


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _submul_ints(a, b, c, q):
    # a - b*c mod q
    out = list(a) + [0] * max(len(b) + len(c) - 1 - len(a), 0)
    for i, x in enumerate(b):
        for j, y in enumerate(c):
            out[i + j] -= x * y
    return _trim([v % q for v in out])


def _divmod_ints(a, b, q):
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], q - 2, q)
    quo = [0] * max(len(a) - db, 0)
    for s in range(len(quo) - 1, -1, -1):
        c = a[s + db] * inv_lead % q
        quo[s] = c
        if c:
            for i in range(db + 1):
                a[s + i] = (a[s + i] - c * b[i]) % q
    return _trim(quo), _trim(a[:db])


@dataclass(frozen=True, slots=True)
class FqElement:
    """An element of a FieldContext: a fully reduced coefficient vector."""

    field: FieldContext
    coeffs: tuple

    def _peer(self, other) -> "FqElement":
        if not isinstance(other, FqElement):
            raise TypeError(f"cannot combine FqElement with {type(other).__name__}")
        if other.field != self.field:
            raise MixedContexts("operands live in different fields")
        return other

    def __add__(self, other):
        other = self._peer(other)
        return FqElement(self.field, self.field._eadd(self.coeffs, other.coeffs))

    def __sub__(self, other):
        other = self._peer(other)
        return FqElement(self.field, self.field._esub(self.coeffs, other.coeffs))

    def __neg__(self):
        return FqElement(self.field, self.field._eneg(self.coeffs))

    def __mul__(self, other):
        other = self._peer(other)
        return FqElement(self.field, self.field._emul(self.coeffs, other.coeffs))

    def __truediv__(self, other):
        return self * self._peer(other).inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return FqElement(self.field, self.field._epow(self.coeffs, e))

    def inverse(self) -> "FqElement":
        return FqElement(self.field, self.field._einv(self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def lex_key(self) -> tuple:
        """The coefficient tuple; a total order on elements of one field."""
        return self.coeffs

    def __repr__(self):
        return f"Fq({self.coeffs} in {self.field!r})"


# -- polynomials over F_(q^k) -----------------------------------------------------
#
# A polynomial is a trimmed tuple of coefficient vectors, the reduced k-tuples
# of the FieldContext._e* methods.  Products use Kronecker substitution
# (Harvey, arXiv:0712.4046): each vector becomes 2k - 1 byte-aligned slots of
# one Python int, its k digits and k - 1 zero slots that take the top of a
# coefficient product, so one CPython multiply forms the whole product with
# no carry between slots.  The top k - 1 slots of every product coefficient
# are then folded into its low k slots by the field modulus, still in the
# packed int, and each low slot is reduced mod q once.


# array item size -> typecode, for the slot widths that array converts in C
_ARRAY_CODES = {array(code).itemsize: code for code in "BHIQ"}


def _fold_growth(field: FieldContext) -> int:
    # The fold adds (q - m_j) * slot t to slot t - k + j for the top slots t,
    # highest first, so a low slot ends up at most this many times the
    # largest slot of the unfolded product.
    k, q = field.k, field.q
    bound = [1] * (2 * k - 1)
    for t in range(2 * k - 2, k - 1, -1):
        for j, c in field._low_terms:
            bound[t - k + j] += (q - c) * bound[t]
    return max(bound)


def _slot_bytes(field: FieldContext, n: int) -> int:
    # a product slot, for a shorter operand of n coefficients, is a sum of at
    # most n*k products of two digits in [0, q) before the fold; widths up to
    # 8 bytes are rounded up to an array item size
    bound = n * field.k * (field.q - 1) ** 2 * field._fold_growth
    w = (bound.bit_length() + 7) // 8
    return next((size for size in _ARRAY_CODES if size >= w), w)


def _pack(vecs, k: int, w: int) -> int:
    gap = (0,) * (k - 1)
    digits = list(itertools.chain.from_iterable([v + gap for v in vecs]))
    code = _ARRAY_CODES.get(w)
    if code is None:
        return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in digits]), "little")
    slots = array(code, digits)
    if sys.byteorder == "big":
        slots.byteswap()
    return int.from_bytes(slots.tobytes(), "little")


def _unpack(field: FieldContext, x: int, n: int, w: int) -> list:
    # The first n coefficients of the packed product x, reduced; slots above
    # the top of x read as 0.  For t >= k, y^t = y^(t-k) (y^k - m) mod q and
    # the modulus m: the fold adds slot t times (q - m_j) to slot t - k + j,
    # top slot first, which keeps every slot nonnegative.
    k, q = field.k, field.q
    bits = 8 * w
    step = (2 * k - 1) * w
    if k > 1:
        blocks = (x.bit_length() + 8 * step - 1) // (8 * step)
        plane = int.from_bytes((b"\xff" * w + bytes(step - w)) * blocks, "little")
        times = sum((q - c) << (bits * j) for j, c in field._low_terms)
        for t in range(2 * k - 2, k - 1, -1):
            x += (((x >> (bits * t)) & plane) * times) << (bits * (t - k))
    size = n * step
    data = x.to_bytes(max(size, (x.bit_length() + 7) // 8), "little")[:size]
    code = _ARRAY_CODES.get(w)
    if code is None:
        slots = [int.from_bytes(data[i:i + w], "little") for i in range(0, size, w)]
    else:
        digits = array(code, data)
        if sys.byteorder == "big":
            digits.byteswap()
        slots = digits.tolist()
    return [tuple([c % q for c in slots[i:i + k]]) for i in range(0, len(slots), 2 * k - 1)]


def _product(field: FieldContext, a, b, n: int | None = None) -> list:
    # the first n coefficients (all by default) of a*b, for nonempty a and b
    w = _slot_bytes(field, min(len(a), len(b)))
    k = field.k
    if n is None:
        n = len(a) + len(b) - 1
    return _unpack(field, _pack(a, k, w) * _pack(b, k, w), n, w)


def _trimmed(vecs) -> tuple:
    vecs = list(vecs)
    while vecs and not any(vecs[-1]):
        vecs.pop()
    return tuple(vecs)


def _series_inverse(field: FieldContext, f, n: int) -> list:
    # the first n terms of 1/f in F[[y]], f[0] = 1, by Newton's iteration
    # g <- g - g*(f*g - 1), which doubles the number of correct terms
    if n <= 0:
        return []
    one = (1,) + (0,) * (field.k - 1)
    esub = field._esub
    g = [one]
    while len(g) < n:
        prec = min(2 * len(g), n)
        e = _product(field, f[:prec], g, prec)
        e[0] = esub(e[0], one)
        ge = _product(field, g, e, prec)
        g = [esub(u, v) for u, v in zip(g + [(0,) * field.k] * (prec - len(g)), ge)]
    return g


class _Barrett:
    """Products modulo a fixed polynomial of degree n by Barrett reduction
    against its monic associate m (von zur Gathen-Gerhard, Modern Computer
    Algebra, 9.1).  For deg c <= 2n - 2 the quotient of c by m, reversed, is
    rev(c) * rev(m)^-1 mod y^(n - 1); the negated inverse is computed once
    here, so each product mod m is three Kronecker products and no division:
    c = a*b, -quo, and the remainder c + (-quo)*(m - y^n) below y^n.  One
    instance serves every power and trace taken modulo the same m."""

    def __init__(self, mod: "FqPoly"):
        m = mod.monic()
        field = self.field = m.field
        n = self.n = m.degree
        # the remainder's slots add two products of at most n coefficients
        w = self.w = _slot_bytes(field, 2 * n)
        self.low = _pack(m.vecs[:n], field.k, w)
        neg = field._eneg
        inv = _series_inverse(field, m.vecs[::-1], n - 1)
        self.neg_inv = _pack([neg(v) for v in inv], field.k, w)
        self.shift = 8 * w * (2 * field.k - 1) * n  # bits below c[n]

    def mulmod(self, a: tuple, b: tuple) -> tuple:
        """a*b mod m for coefficient-vector tuples of length at most n."""
        if not a or not b:
            return ()
        field, n, w, k = self.field, self.n, self.w, self.field.k
        c = _pack(a, k, w) * _pack(b, k, w)
        size = len(a) + len(b) - 1
        if size <= n:
            return tuple(_unpack(field, c, size, w))
        top = _unpack(field, c >> self.shift, size - n, w)[::-1]
        neg_quo = _unpack(field, _pack(top, k, w) * self.neg_inv, size - n, w)[::-1]
        return _trimmed(_unpack(field, c + _pack(neg_quo, k, w) * self.low, n, w))

    def pow(self, base: tuple, e: int) -> tuple:
        """base^e mod m for a coefficient-vector tuple of length at most n."""
        result = ((1,) + (0,) * (self.field.k - 1),) if self.n else ()
        while e:
            if e & 1:
                result = self.mulmod(result, base)
            e >>= 1
            if e:
                base = self.mulmod(base, base)
        return result

    def trace(self, c: "FqPoly", n: int) -> "FqPoly":
        """Sum of c^(2^i) mod m over i < n, for c reduced mod m."""
        acc = c
        term = c.vecs
        for _ in range(n - 1):
            term = self.mulmod(term, term)
            acc = acc + FqPoly._of(c.field, term)
        return acc


class FqPoly:
    """Polynomial over a FieldContext, coefficients low degree first.

    ``vecs`` holds the coefficients as reduced int vectors of the field; the
    empty tuple is the zero polynomial, otherwise the top vector is nonzero.
    ``coeffs`` is the same polynomial as a tuple of FqElement.  Polynomials
    are immutable by convention.
    """

    __slots__ = ("field", "vecs")

    def __init__(self, field: FieldContext, coeffs: Sequence[FqElement]):
        for c in coeffs:
            if c.field != field:
                raise MixedContexts("coefficient outside the polynomial's field")
        self.field = field
        self.vecs = _trimmed(c.coeffs for c in coeffs)

    @classmethod
    def _of(cls, field: FieldContext, vecs: tuple) -> "FqPoly":
        # vecs already reduced and trimmed
        poly = object.__new__(cls)
        poly.field = field
        poly.vecs = vecs
        return poly

    @classmethod
    def from_ints(cls, field: FieldContext, ints: Sequence[int]) -> "FqPoly":
        pad = (0,) * (field.k - 1)
        return cls._of(field, _trimmed((c % field.q,) + pad for c in ints))

    @classmethod
    def x(cls, field: FieldContext) -> "FqPoly":
        return cls.from_ints(field, (0, 1))

    @property
    def coeffs(self) -> tuple[FqElement, ...]:
        return tuple(FqElement(self.field, v) for v in self.vecs)

    @property
    def degree(self) -> int:
        return len(self.vecs) - 1

    def is_zero(self) -> bool:
        return not self.vecs

    def __eq__(self, other):
        if not isinstance(other, FqPoly):
            return NotImplemented
        return self.field == other.field and self.vecs == other.vecs

    def __hash__(self):
        return hash((self.field, self.vecs))

    def _peer(self, other: "FqPoly") -> tuple:
        if other.field != self.field:
            raise MixedContexts("operands live in different fields")
        return other.vecs

    @property
    def leading(self) -> FqElement:
        if self.is_zero():
            raise ZeroPolynomial("the zero polynomial has no leading coefficient")
        return FqElement(self.field, self.vecs[-1])

    def monic(self) -> "FqPoly":
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        field = self.field
        lead = self.vecs[-1]
        if lead[0] == 1 and not any(lead[1:]):
            return self
        inv = field._einv(lead)
        return FqPoly._of(field, tuple(field._emul(v, inv) for v in self.vecs))

    def __add__(self, other: "FqPoly") -> "FqPoly":
        a, b = self.vecs, self._peer(other)
        if len(a) < len(b):
            a, b = b, a
        eadd = self.field._eadd
        return FqPoly._of(
            self.field, _trimmed([eadd(u, v) for u, v in zip(a, b)] + list(a[len(b):]))
        )

    def __sub__(self, other: "FqPoly") -> "FqPoly":
        return self + (-other)

    def __neg__(self) -> "FqPoly":
        eneg = self.field._eneg
        return FqPoly._of(self.field, tuple(eneg(v) for v in self.vecs))

    def __mul__(self, other: "FqPoly") -> "FqPoly":
        a, b = self.vecs, self._peer(other)
        if not a or not b:
            return FqPoly._of(self.field, ())
        return FqPoly._of(self.field, tuple(_product(self.field, a, b)))

    def scale(self, c: FqElement) -> "FqPoly":
        if c.field != self.field:
            raise MixedContexts("scalar outside the polynomial's field")
        emul = self.field._emul
        return FqPoly._of(self.field, _trimmed(emul(v, c.coeffs) for v in self.vecs))

    def __divmod__(self, other: "FqPoly") -> tuple["FqPoly", "FqPoly"]:
        b = self._peer(other)
        if not b:
            raise ZeroPolynomial("division by the zero polynomial")
        field = self.field
        emul, esub = field._emul, field._esub
        rem = list(self.vecs)
        db = len(b) - 1
        inv_lead = field._einv(b[-1])
        quo = [(0,) * field.k] * max(len(rem) - db, 0)
        for s in range(len(quo) - 1, -1, -1):
            c = quo[s] = emul(rem[s + db], inv_lead)
            if any(c):
                for i in range(db):
                    rem[s + i] = esub(rem[s + i], emul(c, b[i]))
        return FqPoly._of(field, _trimmed(quo)), FqPoly._of(field, _trimmed(rem[:db]))

    def __floordiv__(self, other: "FqPoly") -> "FqPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "FqPoly") -> "FqPoly":
        return divmod(self, other)[1]

    def derivative(self) -> "FqPoly":
        q = self.field.q
        return FqPoly._of(
            self.field,
            _trimmed(tuple(i * c % q for c in v) for i, v in enumerate(self.vecs) if i),
        )

    def evaluate(self, x: FqElement) -> FqElement:
        field = self.field
        if x.field != field:
            raise MixedContexts("evaluation point outside the polynomial's field")
        acc = (0,) * field.k
        for v in reversed(self.vecs):
            acc = field._eadd(field._emul(acc, x.coeffs), v)
        return FqElement(field, acc)

    def pow_mod(self, e: int, mod: "FqPoly") -> "FqPoly":
        if e < 0:
            raise ValueError(f"pow_mod exponent {e} is negative")
        return FqPoly._of(self.field, _Barrett(mod).pow((self % mod).vecs, e))

    def lex_key(self) -> tuple:
        """(degree, coefficient vectors): the factor order of poly_factor."""
        return (self.degree, self.vecs)

    def __repr__(self):
        if self.is_zero():
            return "FqPoly(0)"
        return f"FqPoly(deg {self.degree} over {self.field!r})"


def poly_gcd(a: FqPoly, b: FqPoly) -> FqPoly:
    """Monic greatest common divisor."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


@functools.lru_cache(maxsize=None)
def make_field(q: int, k: int) -> FieldContext:
    """F_{q^k} with the canonical modulus.

    The modulus is the first monic irreducible degree-k polynomial in the
    base-q encoding order of the lower coefficient vector (so x^4 + x + 1
    for F_{2^4}), fixed once and for all to keep factor orderings stable.
    F_q itself needs no modulus and is built for any prime q; the search for
    k > 1 is refused above cardinality ENUMERATION_BOUND.
    """
    if not is_prime(q):
        raise NotPrime(f"{q} is not prime")
    if k < 1:
        raise DegreeOutOfRange(f"extension degree {k} < 1")
    prime = FieldContext(q, _checked=True)
    if k == 1:
        return prime
    if q ** k > ENUMERATION_BOUND:
        raise DegreeOutOfRange(
            f"cardinality {q}^{k} exceeds the enumeration bound {ENUMERATION_BOUND}"
        )
    for idx in range(q ** k):
        low = []
        i = idx
        for _ in range(k):
            low.append(i % q)
            i //= q
        candidate = FqPoly.from_ints(prime, low + [1])
        if is_irreducible(candidate):
            return FieldContext(q, tuple(v[0] for v in candidate.vecs), _checked=True)
    raise AssertionError("unreachable: irreducible polynomials exist in every degree")


def is_irreducible(f: FqPoly) -> bool:
    """Irreducibility over the coefficient field, by the x^(Q^d) criterion:
    f of degree n is irreducible iff x^(Q^n) = x mod f and
    gcd(x^(Q^(n/r)) - x, f) = 1 for every prime r | n."""
    if f.is_zero():
        raise ZeroPolynomial("irreducibility of the zero polynomial is undefined")
    n = f.degree
    if n == 0:
        return False
    if n == 1:
        return True
    f = f.monic()
    Q = f.field.cardinality
    x = FqPoly.x(f.field)
    barrett = _Barrett(f)
    if barrett.pow(x.vecs, Q ** n) != x.vecs:
        return False
    for r in prime_factors(n):
        h = FqPoly._of(f.field, barrett.pow(x.vecs, Q ** (n // r))) - x
        if poly_gcd(h, f).degree != 0:
            return False
    return True


def trace_mod(c: FqPoly, mod: FqPoly, n: int) -> FqPoly:
    """Sum of c^(2^i) mod ``mod`` over i < n, in characteristic 2.

    For irreducible ``mod`` of degree m over F_(2^k) and n = k*m this is the
    absolute trace of c in F_(2^k)[x]/(mod) = F_(2^n), a constant 0 or 1;
    for a product of such moduli it is that trace in each residue field.
    """
    return _Barrett(mod).trace(c % mod, n)


# -- factorization --------------------------------------------------------------


def poly_factor(f: FqPoly) -> tuple[tuple[FqPoly, int], ...]:
    """Complete factorization into monic irreducibles with multiplicities.

    Pipeline: squarefree decomposition (with q-th root extraction in
    characteristic q), distinct-degree splitting, then Cantor-Zassenhaus
    equal-degree splitting driven by a fixed-seed random stream.  The result
    is sorted by (degree, coefficient order) and multiplying the factors back
    together with f's leading coefficient reproduces f exactly.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.degree == 0:
        return ()
    rng = random.Random(_SPLIT_SEED)
    collected: dict[FqPoly, int] = {}
    for part, mult in _squarefree_parts(f.monic()):
        for d, product in _distinct_degree_parts(part):
            for irreducible in _equal_degree_split(product, d, rng):
                collected[irreducible] = collected.get(irreducible, 0) + mult
    return tuple(sorted(collected.items(), key=lambda kv: kv[0].lex_key()))


def _squarefree_parts(f: FqPoly) -> list[tuple[FqPoly, int]]:
    # classical characteristic-q decomposition; f monic
    field = f.field
    out: list[tuple[FqPoly, int]] = []
    c = poly_gcd(f, f.derivative())
    w = f // c
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        z = w // y
        if z.degree > 0:
            out.append((z, i))
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        # c is a polynomial in x^q; extract its q-th root and recurse
        out.extend(
            (g, mult * field.q) for g, mult in _squarefree_parts(_qth_root(c))
        )
    return out


def _qth_root(f: FqPoly) -> FqPoly:
    field = f.field
    q = field.q
    frob_inv = field.cardinality // q  # a -> a^(q^(k-1)) inverts x -> x^q
    root = []
    for i, v in enumerate(f.vecs):
        if i % q == 0:
            root.append(field._epow(v, frob_inv))
        elif any(v):
            raise AssertionError("polynomial expected to be a q-th power")
    return FqPoly._of(field, tuple(root))


def _distinct_degree_parts(f: FqPoly) -> list[tuple[int, FqPoly]]:
    # f monic squarefree; returns (d, product of all irreducible factors of
    # degree d)
    field = f.field
    Q = field.cardinality
    out = []
    x = FqPoly.x(field)
    h = x % f
    barrett = _Barrett(f)
    d = 0
    while f.degree > 0:
        d += 1
        if 2 * d > f.degree:
            out.append((f.degree, f))
            break
        h = FqPoly._of(field, barrett.pow(h.vecs, Q))
        g = poly_gcd(h - x, f)
        if g.degree > 0:
            out.append((d, g))
            f = f // g
            h = h % f
            barrett = _Barrett(f)
    return out


def _equal_degree_split(f: FqPoly, d: int, rng: random.Random) -> list[FqPoly]:
    # f monic, all irreducible factors of degree d
    if f.degree == d:
        return [f]
    field = f.field
    Q = field.cardinality
    one = FqPoly.from_ints(field, (1,))
    barrett = _Barrett(f)
    while True:
        r = FqPoly._of(
            field, _trimmed(field._eindex(rng.randrange(Q)) for _ in range(f.degree))
        )
        if r.degree < 1:
            continue
        if field.q == 2:
            # trace map of the residue fields F_{2^(k*d)} down to F_2
            g = poly_gcd(barrett.trace(r, d * field.k), f)
        else:
            h = FqPoly._of(field, barrett.pow(r.vecs, (Q ** d - 1) // 2))
            g = poly_gcd(h - one, f)
        if 0 < g.degree < f.degree:
            return _equal_degree_split(g, d, rng) + _equal_degree_split(
                (f // g).monic(), d, rng
            )
