"""Weierstrass curves over Q: standard invariants, CM detection, reduction
types at rational primes, point counts over finite fields (an integer
quadratic-character sum over F_q, then the Frobenius trace recurrence for
F_(q^k)), and the good-ordinary test."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import ENUMERATION_BOUND, FieldContext, make_field
from .errors import (
    BadReduction,
    FieldTooLarge,
    NotPrime,
    PossiblyNonMinimal,
    SingularCurve,
    ZeroInput,
)
from .integers import is_prime, valuation


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

    F_q is counted with Python ints only, in O(q); see _count_points_prime.
    That fixes a_q = q + 1 - #E(F_q), and #E(F_(q^k)) = q^k + 1 - s_k with
    s_0 = 2, s_1 = a_q and s_k = a_q s_(k-1) - q s_(k-2) (Silverman, AEC
    V.2.3.1), so no extension field is enumerated.
    """
    q = field.q
    if curve.discriminant % q == 0:
        raise BadReduction(f"curve is singular modulo {q}")
    a_q = q + 1 - _count_points_prime(curve, q)
    s_prev, s = 2, a_q
    for _ in range(field.k - 1):
        s_prev, s = s, a_q * s - q * s_prev
    return field.cardinality + 1 - s


def _count_points_prime(curve: WeierstrassCurve, q: int) -> int:
    if q > ENUMERATION_BOUND:
        raise FieldTooLarge(f"cardinality {q} exceeds {ENUMERATION_BOUND}")
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
