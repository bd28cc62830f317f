"""Division polynomials, fields of definition of p-torsion points over
residue-field towers (read from the action of Frobenius on E[p]), and the
rational p-torsion search backing the pro-p criterion."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import FieldContext, FqPoly, make_field
from .curve import WeierstrassCurve, check_minimal_at, trace_of_frobenius
from .errors import (
    BadIndex,
    BadReduction,
    DivisorSearchExhausted,
    FactoringIncomplete,
    HypothesisFailure,
    NotPrime,
    SamePrime,
)
from .integers import divisors_up_to, factorize, is_prime

RATIONAL_ROOT_DIVISOR_BOUND = 10 ** 9


# integer polynomials as tuples, low degree first ------------------------------

def _trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return tuple(p)


def _psub(a, b):
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return _trim(tuple(x - y for x, y in zip(a, b)))


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(tuple(out))


def division_poly(curve: WeierstrassCurve, n: int) -> tuple[int, ...]:
    """The n-th division polynomial as a univariate integer polynomial
    (coefficients low degree first).

    For odd n this is psi_n itself, of degree (n^2 - 1)/2 with leading
    coefficient n; y^2 is eliminated through the curve equation, so psi_2^2
    appears as the quartic 4x^3 + b2 x^2 + 2 b4 x + b6.  For even n the
    univariate cofactor psi_n / psi_2 is returned.
    """
    if n < 1:
        raise BadIndex(f"division polynomial index {n} < 1")
    b2, b4, b6, b8 = curve.b2, curve.b4, curve.b6, curve.b8
    quartic = (b6, 2 * b4, b2, 4)  # psi_2^2
    w2 = _pmul(quartic, quartic)
    cache: dict[int, tuple[int, ...]] = {
        0: (),
        1: (1,),
        2: (1,),
        3: (b8, 3 * b6, 3 * b4, b2, 3),
        4: (
            b4 * b8 - b6 * b6,
            b2 * b8 - b4 * b6,
            10 * b8,
            10 * b6,
            5 * b4,
            b2,
            2,
        ),
    }

    def psi(m: int) -> tuple[int, ...]:
        if m in cache:
            return cache[m]
        h = m // 2
        if m % 2 == 1:
            a = _pmul(psi(h + 2), _pmul(psi(h), _pmul(psi(h), psi(h))))
            b = _pmul(psi(h - 1), _pmul(psi(h + 1), _pmul(psi(h + 1), psi(h + 1))))
            if h % 2 == 0:
                out = _psub(_pmul(w2, a), b)
            else:
                out = _psub(a, _pmul(w2, b))
        else:
            left = _pmul(psi(h + 2), _pmul(psi(h - 1), psi(h - 1)))
            right = _pmul(psi(h - 2), _pmul(psi(h + 1), psi(h + 1)))
            out = _pmul(psi(h), _psub(left, right))
        cache[m] = out
        return out

    return psi(n)


@dataclass(frozen=True)
class TorsionDegreeProfile:
    """Degrees over F_{q^f} of the x-factors of psi_p and of the fields of
    definition of the corresponding full points.

    The two tuples are aligned: position i pairs an x-factor of degree m
    with the degree (m or 2m) of the field its points generate.  Pairs are
    sorted by (x-degree, point degree), so x_factor_degrees is sorted.
    """

    curve: WeierstrassCurve
    p: int
    q: int
    f: int
    x_factor_degrees: tuple[int, ...]
    point_degrees: tuple[int, ...]


def embed_curve(curve: WeierstrassCurve, field: FieldContext):
    """The a-invariants as elements of the given field."""
    return tuple(field.embed(a) for a in curve.a_invariants)


def frobenius_matrix(
    curve: WeierstrassCurve, p: int, q: int, f: int, a_q: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """A matrix over F_p conjugate to the action on E[p] of the Frobenius of
    F_Q, Q = q^f, for a good prime q != p with trace a_q = q + 1 - #E(F_q).

    The action has trace s_f and determinant Q mod p, where s_0 = 2,
    s_1 = a_q and s_k = a_q s_(k-1) - q s_(k-2) (Silverman, AEC V.2.3.1 and
    III.8).  When t^2 != 4Q the characteristic polynomial X^2 - tX + Q fixes
    the class, and its companion matrix is returned.  Otherwise the action
    is lam*I or lam*(I + N), N nilpotent, with lam = t/2 of order e in
    F_p^*/{+-1}: it is scalar exactly when x^(Q^e) = x modulo psi_p, one
    modular power over F_q, since psi_p has integer coefficients.
    """
    s_prev, t = 2, a_q % p
    for _ in range(f - 1):
        s_prev, t = t, (a_q * t - q * s_prev) % p
    det = pow(q, f, p)
    if (t * t - 4 * det) % p:
        return ((0, -det % p), (1, t))
    lam = t * pow(2, -1, p) % p
    e, power = 1, lam  # e: the order of lam in F_p^*/{+-1}
    while power not in (1, p - 1):
        e, power = e + 1, power * lam % p
    psi = FqPoly.from_ints(make_field(q, 1), division_poly(curve, p))
    x = FqPoly.x(psi.field)
    if x.pow_mod(q ** (f * e), psi) == x:
        return ((lam, 0), (0, lam))
    return ((lam, 1), (0, lam))


def _orbit_degrees(matrix, p: int) -> list[tuple[int, int]]:
    # (m, d) for each orbit of the matrix on (F_p^2 - 0)/{+-1}: m is the
    # least power taking v to +-v, and d is m if that power fixes v, else 2m
    (a, b), (c, d) = matrix
    seen = bytearray(p * p)
    pairs = []
    for start in range(1, p * p):
        if seen[start]:
            continue
        x0, y0 = divmod(start, p)
        x, y, m = x0, y0, 0
        while True:
            seen[x * p + y] = seen[(-x % p) * p + (-y % p)] = 1
            x, y, m = (a * x + b * y) % p, (c * x + d * y) % p, m + 1
            if (x, y) == (x0, y0):
                pairs.append((m, m))
                break
            if (x, y) == (-x0 % p, -y0 % p):
                pairs.append((m, 2 * m))
                break
    return pairs


def torsion_point_degrees(
    curve: WeierstrassCurve, p: int, q: int, f: int, a_q: int | None = None
) -> TorsionDegreeProfile:
    """The degrees over F_Q, Q = q^f, of the x-factors of psi_p and of the
    points above them, from the Frobenius class on E[p] (frobenius_matrix).

    The roots of psi_p are the x-coordinates of (E[p] - 0)/{+-1}, so each
    orbit of Frobenius there, of size m, is an irreducible x-factor of
    degree m; its points have degree m if the m-th power fixes them and 2m
    if it negates them.  a_q, when given, is the trace of Frobenius at q
    already counted by the caller; otherwise F_q is counted here.  No
    extension field is built and nothing is factored.
    """
    for n in (p, q):
        if not is_prime(n):
            raise NotPrime(f"{n} is not prime")
    if p == 2:
        raise HypothesisFailure("the torsion profile needs an odd prime p")
    if q == p:
        raise SamePrime(f"q = p = {p} is excluded")
    if f < 1:
        raise BadIndex(f"residue degree {f} < 1")
    check_minimal_at(curve, q)
    if curve.discriminant % q == 0:
        raise BadReduction(f"curve has bad reduction at {q}")
    if a_q is None:
        a_q = trace_of_frobenius(curve, q)
    pairs = sorted(_orbit_degrees(frobenius_matrix(curve, p, q, f, a_q), p))
    return TorsionDegreeProfile(
        curve=curve,
        p=p,
        q=q,
        f=f,
        x_factor_degrees=tuple(m for m, _ in pairs),
        point_degrees=tuple(d for _, d in pairs),
    )


def _is_p_power(d: int, p: int) -> bool:
    while d % p == 0:
        d //= p
    return d == 1


def has_p_power_point_degree(profile: TorsionDegreeProfile) -> bool:
    """Whether some p-torsion point has a degree over F_{q^f} that is a power
    of p (p^0 = 1 included).

    The residue fields along the cyclotomic tower above F_{q^f} are exactly
    the F_{q^(f*p^n)}, so this is nonzero p-torsion over that tower.
    """
    return any(_is_p_power(d, profile.p) for d in profile.point_degrees)


def has_p_torsion_in_cyc_tower(
    curve: WeierstrassCurve, p: int, q: int, f: int
) -> bool:
    """Nonzero p-torsion over the cyclotomic tower above F_{q^f}."""
    return has_p_power_point_degree(torsion_point_degrees(curve, p, q, f))


# generic long-Weierstrass group law -------------------------------------------
# Works with any coefficient type supporting field operations (FqElement,
# Fraction); points are None (infinity) or (x, y) pairs.


def point_neg(ai, P):
    if P is None:
        return None
    a1, _, a3, _, _ = ai
    x, y = P
    return (x, -y - a1 * x - a3)


def point_add(ai, P, Q):
    if P is None:
        return Q
    if Q is None:
        return P
    a1, a2, a3, a4, _ = ai
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if y2 == point_neg(ai, P)[1]:
            return None
        lam = (x1 * x1 + x1 * x1 + x1 * x1 + a2 * x1 + a2 * x1 + a4 - a1 * y1) / (
            y1 + y1 + a1 * x1 + a3
        )
    else:
        lam = (y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return (x3, y3)


def point_mul(ai, n, P):
    if n < 0:
        return point_mul(ai, -n, point_neg(ai, P))
    acc = None
    addend = P
    while n:
        if n & 1:
            acc = point_add(ai, acc, addend)
        addend = point_add(ai, addend, addend)
        n >>= 1
    return acc


# rational p-torsion search ------------------------------------------------------


def _eval_int_poly(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _rational_sqrt(r: Fraction) -> Fraction | None:
    if r < 0:
        return None
    num = math.isqrt(r.numerator)
    den = math.isqrt(r.denominator)
    if num * num == r.numerator and den * den == r.denominator:
        return Fraction(num, den)
    return None


def _point_from_x(curve: WeierstrassCurve, x: Fraction):
    beta = curve.a1 * x + curve.a3
    rhs = ((x + curve.a2) * x + curve.a4) * x + curve.a6
    root = _rational_sqrt(beta * beta + 4 * rhs)
    if root is None:
        return None
    return (x, (-beta + root) / 2)


def rational_p_torsion(
    curve: WeierstrassCurve, p: int, divisor_bound: int = RATIONAL_ROOT_DIVISOR_BOUND
):
    """Search for a Q-rational point of exact order p.

    Rational-root-theorem search on the primitive part of psi_p: candidate
    x-coordinates are ratios of divisors (of magnitude <= divisor_bound) of
    the constant and leading coefficients.  A returned point is verified to
    have exact order p under the group law.  ``None`` only means nothing was
    found under the bound, never a proof of absence.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p < 3:
        raise HypothesisFailure("the search needs an odd prime p")
    psi = division_poly(curve, p)
    content = 0
    for c in psi:
        content = math.gcd(content, c)
    prim = tuple(c // content for c in psi)
    shift = 0
    while prim[shift] == 0:
        shift += 1
    candidates: list[Fraction] = [Fraction(0)] if shift else []
    body = prim[shift:]
    try:
        fac_const = factorize(body[0])
        fac_lead = factorize(body[-1])
    except FactoringIncomplete as exc:
        raise DivisorSearchExhausted(
            f"coefficient factorization incomplete: {exc}"
        ) from exc
    numerators = divisors_up_to(fac_const, divisor_bound)
    denominators = divisors_up_to(fac_lead, divisor_bound)
    seen = set()
    for num in numerators:
        for den in denominators:
            for sign in (1, -1):
                x = Fraction(sign * num, den)
                if x not in seen:
                    seen.add(x)
                    candidates.append(x)
    candidates.sort(key=lambda x: (abs(x), x < 0))
    ai = tuple(Fraction(a) for a in curve.a_invariants)
    for x in candidates:
        if x.denominator == 1:
            value = _eval_int_poly(prim, x.numerator)
        else:
            value = _eval_int_poly(prim, x)
        if value != 0:
            continue
        point = _point_from_x(curve, x)
        if point is None:
            continue
        if point_mul(ai, p, point) is None:
            return point
    return None
