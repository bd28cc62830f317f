"""Exact finite-field arithmetic.

Builds F_{q^k} with a canonical modulus, decides whether a quadratic equation
has a root in F_Q[x]/(modulus) in every characteristic, and factors
polynomials completely via squarefree decomposition, distinct-degree
splitting and seeded Cantor-Zassenhaus equal-degree splitting.
"""
from __future__ import annotations

import functools
import itertools
import random
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
        vec = []
        for _ in range(self.k):
            i, digit = divmod(i, self.q)
            vec.append(digit)
        return FqElement(self, tuple(vec))

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
        return tuple((a + b) % q for a, b in zip(u, v))

    def _esub(self, u, v):
        q = self.q
        return tuple((a - b) % q for a, b in zip(u, v))

    def _eneg(self, u):
        q = self.q
        return tuple(-a % q for a in u)

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
        q, n, mod = self.q, self.k, self.modulus
        for i in range(len(prod) - 1, n - 1, -1):
            c = prod[i] % q
            if c:
                for j in range(n):
                    prod[i - n + j] -= c * mod[j]
        return tuple(c % q for c in prod[:n])

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
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "FqElement":
        return FqElement(self.field, self.field._einv(self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def lex_key(self) -> tuple:
        """The coefficient tuple; a total order on elements of one field."""
        return self.coeffs

    def __repr__(self):
        return f"Fq({self.coeffs} in {self.field!r})"


@dataclass(frozen=True)
class FqPoly:
    """Polynomial over a FieldContext, coefficients low degree first.

    The empty coefficient vector is the zero polynomial; otherwise the top
    coefficient is nonzero.
    """

    field: FieldContext
    coeffs: tuple[FqElement, ...]

    def __post_init__(self):
        coeffs = self.coeffs
        for c in coeffs:
            if c.field != self.field:
                raise MixedContexts("coefficient outside the polynomial's field")
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def from_ints(cls, field: FieldContext, ints: Sequence[int]) -> "FqPoly":
        return cls(field, tuple(field.embed(c) for c in ints))

    @classmethod
    def x(cls, field: FieldContext) -> "FqPoly":
        return cls(field, (field.zero(), field.one()))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> FqElement:
        if self.is_zero():
            raise ZeroPolynomial("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "FqPoly":
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        lead = self.leading
        if lead == self.field.one():
            return self
        inv = lead.inverse()
        return FqPoly(self.field, tuple(c * inv for c in self.coeffs))

    def __add__(self, other: "FqPoly") -> "FqPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return FqPoly(self.field, tuple(out))

    def __sub__(self, other: "FqPoly") -> "FqPoly":
        return self + (-other)

    def __neg__(self) -> "FqPoly":
        return FqPoly(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "FqPoly") -> "FqPoly":
        if self.is_zero() or other.is_zero():
            return FqPoly(self.field, ())
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return FqPoly(self.field, tuple(out))

    def scale(self, c: FqElement) -> "FqPoly":
        return FqPoly(self.field, tuple(a * c for a in self.coeffs))

    def __divmod__(self, other: "FqPoly") -> tuple["FqPoly", "FqPoly"]:
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        field = self.field
        rem = list(self.coeffs)
        db = other.degree
        inv_lead = other.leading.inverse()
        quo = [field.zero()] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db:
            c = rem[-1] * inv_lead
            s = len(rem) - 1 - db
            if not c.is_zero():
                quo[s] = c
                for i in range(db + 1):
                    rem[s + i] = rem[s + i] - c * other.coeffs[i]
            rem.pop()
            while rem and rem[-1].is_zero():
                rem.pop()
        return FqPoly(field, tuple(quo)), FqPoly(field, tuple(rem))

    def __floordiv__(self, other: "FqPoly") -> "FqPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "FqPoly") -> "FqPoly":
        return divmod(self, other)[1]

    def derivative(self) -> "FqPoly":
        field = self.field
        return FqPoly(
            field,
            tuple(
                field.embed(i) * c for i, c in enumerate(self.coeffs) if i >= 1
            ),
        )

    def evaluate(self, x: FqElement) -> FqElement:
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def pow_mod(self, e: int, mod: "FqPoly") -> "FqPoly":
        if e < 0:
            raise ValueError(f"pow_mod exponent {e} is negative")
        result = FqPoly.from_ints(self.field, (1,)) % mod
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result

    def lex_key(self) -> tuple:
        return (self.degree, tuple(c.lex_key() for c in self.coeffs))

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
    """
    if not is_prime(q):
        raise NotPrime(f"{q} is not prime")
    if k < 1:
        raise DegreeOutOfRange(f"extension degree {k} < 1")
    if q ** k > ENUMERATION_BOUND:
        raise DegreeOutOfRange(
            f"cardinality {q}^{k} exceeds the enumeration bound {ENUMERATION_BOUND}"
        )
    prime = FieldContext(q, _checked=True)
    if k == 1:
        return prime
    for idx in range(q ** k):
        low = []
        i = idx
        for _ in range(k):
            low.append(i % q)
            i //= q
        candidate = FqPoly.from_ints(prime, low + [1])
        if is_irreducible(candidate):
            return FieldContext(
                q, tuple(c.coeffs[0] for c in candidate.coeffs), _checked=True
            )
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
    if x.pow_mod(Q ** n, f) != x % f:
        return False
    for r in prime_factors(n):
        h = x.pow_mod(Q ** (n // r), f) - x
        if poly_gcd(h, f).degree != 0:
            return False
    return True


def trace_mod(c: FqPoly, mod: FqPoly, n: int) -> FqPoly:
    """Sum of c^(2^i) mod ``mod`` over i < n, in characteristic 2.

    For irreducible ``mod`` of degree m over F_(2^k) and n = k*m this is the
    absolute trace of c in F_(2^k)[x]/(mod) = F_(2^n), a constant 0 or 1;
    for a product of such moduli it is that trace in each residue field.
    """
    acc = term = c % mod
    for _ in range(n - 1):
        term = (term * term) % mod
        acc = acc + term
    return acc


# -- quadratic equations -------------------------------------------------------


def quadratic_has_root(beta: FqPoly, gamma: FqPoly, mod: FqPoly) -> bool:
    """Whether y^2 + beta*y + gamma = 0 has a root y in F_Q[x]/(mod), for a
    monic irreducible ``mod`` of degree m over F_Q (mod = x asks it for
    constants in F_Q itself).

    Odd characteristic: the discriminant beta^2 - 4 gamma is 0 or a square,
    by Euler's criterion with exponent (Q^m - 1)/2.  Characteristic 2: beta
    is 0, since squaring is bijective, or the absolute trace of gamma/beta^2
    is 0; beta^(2Q^m - 4) stands for beta^-2 because Q^m - 3 is negative at
    Q^m = 2.
    """
    field = mod.field
    if not beta.field == gamma.field == field:
        raise MixedContexts("beta, gamma and mod live in different fields")
    Qm = field.cardinality ** mod.degree
    if field.q == 2:
        beta = beta % mod
        if beta.is_zero():
            return True
        c = (gamma * beta.pow_mod(2 * Qm - 4, mod)) % mod
        return trace_mod(c, mod, field.k * mod.degree).is_zero()
    disc = (beta * beta - gamma.scale(field.embed(4))) % mod
    if disc.is_zero():
        return True
    return disc.pow_mod((Qm - 1) // 2, mod) == FqPoly.from_ints(field, (1,))


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
    for i, c in enumerate(f.coeffs):
        if i % q == 0:
            root.append(c ** frob_inv)
        elif not c.is_zero():
            raise AssertionError("polynomial expected to be a q-th power")
    return FqPoly(field, tuple(root))


def _distinct_degree_parts(f: FqPoly) -> list[tuple[int, FqPoly]]:
    # f monic squarefree; returns (d, product of all irreducible factors of
    # degree d)
    Q = f.field.cardinality
    out = []
    x = FqPoly.x(f.field)
    h = x % f
    d = 0
    while f.degree > 0:
        d += 1
        if 2 * d > f.degree:
            out.append((f.degree, f))
            break
        h = h.pow_mod(Q, f)
        g = poly_gcd(h - x, f)
        if g.degree > 0:
            out.append((d, g))
            f = f // g
            h = h % f
    return out


def _equal_degree_split(f: FqPoly, d: int, rng: random.Random) -> list[FqPoly]:
    # f monic, all irreducible factors of degree d
    if f.degree == d:
        return [f]
    field = f.field
    Q = field.cardinality
    one = FqPoly.from_ints(field, (1,))
    while True:
        r = FqPoly(
            field,
            tuple(field.from_index(rng.randrange(Q)) for _ in range(f.degree)),
        )
        if r.degree < 1:
            continue
        if field.q == 2:
            # trace map of the residue fields F_{2^(k*d)} down to F_2
            g = poly_gcd(trace_mod(r, f, d * field.k), f)
        else:
            g = poly_gcd(r.pow_mod((Q ** d - 1) // 2, f) - one, f)
        if 0 < g.degree < f.degree:
            return _equal_degree_split(g, d, rng) + _equal_degree_split(
                (f // g).monic(), d, rng
            )
