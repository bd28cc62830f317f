"""Weierstrass curves over Q: standard invariants, CM detection, reduction
types at rational primes, point counts over finite fields (Shanks-Mestre
baby-step giant-step over F_q for q > 229, an integer quadratic-character
sum for q <= 229, then the Frobenius trace recurrence for F_(q^k)), and the
good-ordinary test."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import FieldContext, make_field
from .errors import (
    BadReduction,
    ComputationFailure,
    FieldTooLarge,
    NotPrime,
    PossiblyNonMinimal,
    SingularCurve,
    ZeroInput,
)
from .integers import factorize, is_prime, valuation

# Largest q that count_points accepts.  Shanks-Mestre factors multiples m of
# point orders with m < q + 1 + 2 sqrt(q) + 3000 < (10^6 + 3)^2, and 10^6 + 3
# is the least prime above 10^6, so trial division to 10^6 leaves a prime
# residual, which is_prime decides deterministically (integers._MR_BASES).
COUNT_BOUND = 10 ** 12

# For q above this, Shanks-Mestre gives a_q; at or below it the Hasse
# interval may hold two multiples of every point order of E and of its twist.
MESTRE_BOUND = 229


@dataclass(frozen=True)
class WeierstrassCurve:
    """A nonsingular long Weierstrass model with integer coefficients."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def __post_init__(self):
        if self.discriminant == 0:
            raise SingularCurve(f"discriminant of {self.a_invariants} is 0")

    @classmethod
    def from_a_invariants(cls, a_invariants) -> "WeierstrassCurve":
        return cls(*(int(a) for a in a_invariants))

    @property
    def a_invariants(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def b2(self) -> int:
        return self.a1 * self.a1 + 4 * self.a2

    @property
    def b4(self) -> int:
        return 2 * self.a4 + self.a1 * self.a3

    @property
    def b6(self) -> int:
        return self.a3 * self.a3 + 4 * self.a6

    @property
    def b8(self) -> int:
        return (
            self.a1 * self.a1 * self.a6
            + 4 * self.a2 * self.a6
            - self.a1 * self.a3 * self.a4
            + self.a2 * self.a3 * self.a3
            - self.a4 * self.a4
        )

    @property
    def c4(self) -> int:
        return self.b2 * self.b2 - 24 * self.b4

    @property
    def c6(self) -> int:
        return -self.b2 ** 3 + 36 * self.b2 * self.b4 - 216 * self.b6

    @property
    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    @property
    def j(self) -> Fraction:
        return Fraction(self.c4 ** 3, self.discriminant)

    def __repr__(self):
        return f"WeierstrassCurve{self.a_invariants}"


@dataclass(frozen=True)
class Invariants:
    b2: int
    b4: int
    b6: int
    b8: int
    c4: int
    c6: int
    discriminant: int
    j: Fraction


def invariants(curve: WeierstrassCurve) -> Invariants:
    """All derived b/c-invariants, the discriminant and the j-invariant."""
    return Invariants(
        curve.b2,
        curve.b4,
        curve.b6,
        curve.b8,
        curve.c4,
        curve.c6,
        curve.discriminant,
        curve.j,
    )


# The thirteen rational j-invariants with complex multiplication, keyed by j
# with the imaginary quadratic discriminant as value.
CM_DISCRIMINANT_BY_J = {
    0: -3,
    54000: -12,
    -12288000: -27,
    1728: -4,
    287496: -16,
    -3375: -7,
    16581375: -28,
    8000: -8,
    -32768: -11,
    -884736: -19,
    -884736000: -43,
    -147197952000: -67,
    -262537412640768000: -163,
}


def is_cm(curve: WeierstrassCurve) -> int | None:
    """CM discriminant if j matches the rational CM table, else None."""
    j = curve.j
    if j.denominator != 1:
        return None
    return CM_DISCRIMINANT_BY_J.get(j.numerator)


def is_square_in_Qq(x: int, q: int) -> bool:
    """Whether the nonzero integer x is a square in the q-adic field Q_q."""
    if x == 0:
        raise ZeroInput("squareness of 0 in Q_q is not asked for")
    if not is_prime(q):
        raise NotPrime(f"{q} is not prime")
    e = valuation(x, q)
    if e % 2 == 1:
        return False
    u = x // q ** e
    if q == 2:
        return u % 8 == 1
    return pow(u % q, (q - 1) // 2, q) == 1


@dataclass(frozen=True)
class Good:
    trace: int

    kind = "good"


@dataclass(frozen=True)
class SplitMultiplicative:
    kind = "split_multiplicative"


@dataclass(frozen=True)
class NonsplitMultiplicative:
    kind = "nonsplit_multiplicative"


@dataclass(frozen=True)
class Additive:
    potentially_multiplicative: bool

    kind = "additive"


ReductionType = Good | SplitMultiplicative | NonsplitMultiplicative | Additive


def check_minimal_at(curve: WeierstrassCurve, q: int) -> None:
    """Raise PossiblyNonMinimal when v_q(disc) >= 12 and v_q(c4) >= 4.

    A cheap guard against obviously non-minimal models; no Laska-Kraus here.
    """
    v_disc = valuation(curve.discriminant, q)
    if v_disc < 12:
        return
    if curve.c4 != 0 and valuation(curve.c4, q) < 4:
        return
    raise PossiblyNonMinimal(
        f"v_{q}(disc) = {v_disc} >= 12 and v_{q}(c4) >= 4: model may not be minimal"
    )


def reduction_type(curve: WeierstrassCurve, q: int) -> ReductionType:
    """Reduction type of a globally minimal model at the prime q.

    Good primes carry the trace of Frobenius from a point count over F_q;
    multiplicative primes are split exactly when -c6 is a square in Q_q;
    additive primes record whether the reduction is potentially
    multiplicative (negative q-adic valuation of j).
    """
    if not is_prime(q):
        raise NotPrime(f"{q} is not prime")
    check_minimal_at(curve, q)
    disc = curve.discriminant
    if disc % q != 0:
        n = count_points(curve, make_field(q, 1))
        return Good(trace=q + 1 - n)
    if curve.c4 % q != 0:
        if is_square_in_Qq(-curve.c6, q):
            return SplitMultiplicative()
        return NonsplitMultiplicative()
    pot_mult = curve.c4 != 0 and 3 * valuation(curve.c4, q) < valuation(disc, q)
    return Additive(potentially_multiplicative=pot_mult)


def count_points(curve: WeierstrassCurve, field: FieldContext) -> int:
    """#E(F_{q^k}) including the point at infinity.

    a_q = q + 1 - #E(F_q) comes from Python ints alone: Shanks-Mestre in
    O(q^(1/4)) group operations for q > 229, an O(q) quadratic-character sum
    for q <= 229 (see _count_points_prime).  Then #E(F_(q^k)) = q^k + 1 - s_k
    with s_0 = 2, s_1 = a_q and s_k = a_q s_(k-1) - q s_(k-2) (Silverman, AEC
    V.2.3.1), so no extension field is enumerated.  q above COUNT_BOUND
    raises FieldTooLarge before any work.
    """
    q = field.q
    if q > COUNT_BOUND:
        raise FieldTooLarge(f"q = {q} exceeds the point-count bound {COUNT_BOUND}")
    if curve.discriminant % q == 0:
        raise BadReduction(f"curve is singular modulo {q}")
    a_q = q + 1 - _count_points_prime(curve, q)
    s_prev, s = 2, a_q
    for _ in range(field.k - 1):
        s_prev, s = s, a_q * s - q * s_prev
    return field.cardinality + 1 - s


def _count_points_prime(curve: WeierstrassCurve, q: int) -> int:
    if q > MESTRE_BOUND:
        return q + 1 - _shanks_mestre_trace(curve, q)
    if q == 2:
        a1, a2, a3, a4, a6 = curve.a_invariants
        return 1 + sum(
            (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % 2 == 0
            for x in (0, 1)
            for y in (0, 1)
        )
    # For odd q, y^2 + (a1 x + a3) y = x^3 + a2 x^2 + a4 x + a6 has
    # 1 + chi(d(x)) solutions y, where d = 4x^3 + b2 x^2 + 2 b4 x + b6 is the
    # discriminant of the y-quadratic (2 is a unit in characteristic 3 too).
    # roots[v] is the number of square roots of v mod q.
    roots = bytearray(q)
    roots[0] = 1
    for y in range(1, q // 2 + 1):
        roots[y * y % q] = 2
    b2, b4, b6 = curve.b2 % q, 2 * curve.b4 % q, curve.b6 % q
    return 1 + sum(roots[(((4 * x + b2) * x + b4) * x + b6) % q] for x in range(q))


# Shanks-Mestre (Cohen, A Course in Computational Algebraic Number Theory,
# 7.4.3).  Points are (x, y) int pairs mod q on y^2 = x^3 + a x + b, None is
# the point at infinity; b is never needed by the group law.


def _shanks_mestre_trace(curve: WeierstrassCurve, q: int) -> int:
    """a_q at a prime q > MESTRE_BOUND of good reduction.

    E is y^2 = x^3 + A x + B, A = -27 c4, B = -54 c6, over F_q (q > 3).  For
    each x with d = x^3 + A x + B != 0, the point (d x, d^2) lies on
    Y^2 = X^3 + A d^2 X + B d^3, which is E when d is a square and its
    quadratic twist E' otherwise, so no square root is taken.  The orders of
    these points are collected as L_E | #E and L_T | #E' = 2q + 2 - #E until
    one N in the Hasse interval fits both; for q > 229 Mestre's theorem makes
    that happen before the scan runs out of x (Cohen 7.4.12).
    """
    A, B = -27 * curve.c4 % q, -54 * curve.c6 % q
    r = math.isqrt(4 * q)  # |a_q| <= 2 sqrt(q), which is irrational
    lo, hi = q + 1 - r, q + 1 + r
    l_e = l_t = 1
    for x in range(q):
        d = ((x * x + A) * x + B) % q
        if d == 0:
            continue
        d2 = d * d % q
        a, point = A * d2 % q, (d * x % q, d2)
        order = _point_order(point, _order_multiple(point, a, q, lo, hi), a, q)
        if pow(d, (q - 1) // 2, q) == 1:
            l_e = math.lcm(l_e, order)
        else:
            l_t = math.lcm(l_t, order)
        n = _unique_count(l_e, l_t, q, lo, hi)
        if n is not None:
            return q + 1 - n
    raise ComputationFailure(f"Shanks-Mestre found no unique point count at q = {q}")


def _add(P, Q, a: int, q: int):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % q == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, q) % q
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, q) % q
    x3 = (lam * lam - x1 - x2) % q
    return x3, (lam * (x1 - x3) - y1) % q


def _mul(n: int, P, a: int, q: int):
    acc = None
    while n:
        if n & 1:
            acc = _add(acc, P, a, q)
        P = _add(P, P, a, q)
        n >>= 1
    return acc


def _order_multiple(P, a: int, q: int, lo: int, hi: int) -> int:
    """A positive m with m P = O, by baby-step giant-step over [lo, hi],
    which holds the order of the group P lies in.

    Baby steps store x(jP) for 1 <= j <= s; the giant step at c tests
    cP = +-jP, so each giant step covers [c - s, c + s]."""
    s = math.isqrt((hi - lo) // 2) + 1
    baby = {}
    R = None
    for j in range(1, s + 1):
        R = _add(R, P, a, q)
        if R is None:
            return j
        baby[R[0]] = (j, R[1])
    step = _add(_add(R, R, a, q), P, a, q)  # (2s + 1) P
    c = lo + s
    G = _mul(c, P, a, q)
    while c - s <= hi:
        if G is None:
            return c
        if G[0] in baby:
            j, y = baby[G[0]]
            return c - j if G[1] == y else c + j
        c += 2 * s + 1
        G = _add(G, step, a, q)
    raise ComputationFailure(f"no multiple of a point order in [{lo}, {hi}] mod {q}")


def _point_order(P, m: int, a: int, q: int) -> int:
    """The order of P, given a positive multiple m of it."""
    for ell in factorize(m):
        while m % ell == 0 and _mul(m // ell, P, a, q) is None:
            m //= ell
    return m


def _unique_count(l_e: int, l_t: int, q: int, lo: int, hi: int) -> int | None:
    """The one N in [lo, hi] with l_e | N and l_t | 2q + 2 - N, or None when
    there are several.  By the CRT those N are one residue class mod
    lcm(l_e, l_t)."""
    g = math.gcd(l_e, l_t)
    rest = (2 * q + 2) % l_t
    if rest % g:
        raise ComputationFailure(f"point orders {l_e} and {l_t} fit no count mod {q}")
    m = l_e // g * l_t
    n0 = l_e * (rest // g * pow(l_e // g, -1, l_t // g) % (l_t // g))
    n = lo + (n0 - lo) % m
    if n > hi:
        raise ComputationFailure(f"point orders {l_e} and {l_t} fit no count mod {q}")
    return n if n + m > hi else None


def trace_of_frobenius(curve: WeierstrassCurve, q: int) -> int:
    """a_q for a prime of good reduction."""
    red = reduction_type(curve, q)
    if not isinstance(red, Good):
        raise BadReduction(f"no Frobenius trace at the bad prime {q}")
    return red.trace


def is_good_ordinary(curve: WeierstrassCurve, p: int) -> bool:
    """Good reduction at p with a_p a unit mod p.

    Base change to Q(mu_p) is totally ramified above p, so the residue field
    stays F_p and this decides ordinariness over that field as well.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if curve.discriminant % p == 0:
        return False
    n = count_points(curve, make_field(p, 1))
    return (p + 1 - n) % p != 0
