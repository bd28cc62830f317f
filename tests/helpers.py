"""Shared independent oracles for the test suite.

Everything here is deliberately written against the naive definition (trial
division, exhaustive enumeration, textbook chord-and-tangent formulas) rather
than reusing the library's own algorithms, so that agreement is meaningful.
"""
from __future__ import annotations

import itertools

from dualselmer.arith import (
    FieldContext,
    FqPoly,
    is_irreducible,
    make_field,
    poly_factor,
    trace_mod,
)
from dualselmer.errors import MixedContexts
from dualselmer.torsion import division_poly, point_mul


def monic_polys(field: FieldContext, degree: int):
    """All monic polynomials of exactly the given degree, in a fixed order."""
    elems = list(field.elements())
    one = field.one()
    for lower in itertools.product(elems, repeat=degree):
        yield FqPoly(field, tuple(lower) + (one,))


def brute_force_factor(f: FqPoly, max_divisor_degree: int) -> dict[FqPoly, int]:
    """Factorization by trial division against every monic polynomial of
    degree <= max_divisor_degree, ascending.

    Valid whenever deg(f) <= 2 * max_divisor_degree: any composite remainder
    would have a factor of degree at most half its own, so a non-constant
    remainder at the end is irreducible.
    """
    assert f.degree <= 2 * max_divisor_degree
    g = f.monic()
    out: dict[FqPoly, int] = {}
    for d in range(1, max_divisor_degree + 1):
        if g.degree < d:
            break
        for cand in monic_polys(f.field, d):
            while g.degree >= d:
                quo, rem = divmod(g, cand)
                if not rem.is_zero():
                    break
                out[cand] = out.get(cand, 0) + 1
                g = quo
            if g.degree == 0:
                break
    if g.degree > 0:
        out[g] = out.get(g, 0) + 1
    return out


def product_of_factors(field, factors, leading):
    acc = FqPoly(field, (leading,))
    for poly, mult in factors:
        for _ in range(mult):
            acc = acc * poly
    return acc


# schoolbook polynomial arithmetic on FqElement tuples (low degree first) ---


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


def schoolbook_add(field, a, b):
    """a + b coefficient by coefficient."""
    if len(a) < len(b):
        a, b = b, a
    return _strip(
        [x + y for x, y in zip(a, b)] + list(a[len(b):])
    )


def schoolbook_mul(field, a, b):
    """a*b by the double loop, one FqElement product per coefficient pair."""
    a, b = _strip(a), _strip(b)
    if not a or not b:
        return ()
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _strip(out)


def schoolbook_divmod(field, a, b):
    """(quotient, remainder) of a by a nonzero b, by long division."""
    rem, b = list(_strip(a)), _strip(b)
    inv = b[-1].inverse()
    quo = [field.zero()] * max(len(rem) - len(b) + 1, 0)
    for s in range(len(quo) - 1, -1, -1):
        c = rem[s + len(b) - 1] * inv
        quo[s] = c
        for i, y in enumerate(b):
            rem[s + i] = rem[s + i] - c * y
    return _strip(quo), _strip(rem[:len(b) - 1])


def schoolbook_pow_mod(field, a, e, m):
    """a^e mod m by square-and-multiply on the schoolbook product."""
    result = schoolbook_divmod(field, (field.one(),), m)[1]
    base = schoolbook_divmod(field, a, m)[1]
    while e:
        if e & 1:
            result = schoolbook_divmod(field, schoolbook_mul(field, result, base), m)[1]
        base = schoolbook_divmod(field, schoolbook_mul(field, base, base), m)[1]
        e >>= 1
    return result


# independent chord-and-tangent group law on y^2 + a1 xy + a3 y = x^3 + ... ----


def oracle_neg(ai, P):
    if P is None:
        return None
    a1, _, a3, _, _ = ai
    x, y = P
    return (x, -y - a1 * x - a3)


def oracle_add(ai, P, Q):
    if P is None:
        return Q
    if Q is None:
        return P
    a1, a2, a3, a4, _ = ai
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and y2 == oracle_neg(ai, P)[1]:
        return None
    if P == Q:
        three = x1 + x1 + x1
        num = three * x1 + (a2 + a2) * x1 + a4 - a1 * y1
        den = y1 + y1 + a1 * x1 + a3
    else:
        num = y2 - y1
        den = x2 - x1
    lam = num / den
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - (y1 - lam * x1) - a3
    return (x3, y3)


def oracle_mul(ai, n, P):
    acc = None
    for _ in range(n):
        acc = oracle_add(ai, acc, P)
    return acc


def curve_points(curve, field):
    """Every affine point by a full (x, y) double loop, plus None for the
    point at infinity."""
    e1, e2, e3, e4, e6 = (field.embed(a) for a in curve.a_invariants)
    points = [None]
    elems = list(field.elements())
    for x in elems:
        for y in elems:
            lhs = y * y + e1 * x * y + e3 * y
            rhs = ((x + e2) * x + e4) * x + e6
            if lhs == rhs:
                points.append((x, y))
    return points


def curve_points_by_tables(curve, field):
    """Every affine point plus None for the point at infinity, in O(#F) field
    operations: tables of w^2 and w^2 + w over the field reduce the
    y-quadratic y^2 + beta y = rhs at each x, beta = a1 x + a3, to a lookup.

    Odd q: (2y + beta)^2 = beta^2 + 4 rhs, so w^2 = beta^2 + 4 rhs with
    y = (w - beta)/2.  q = 2 and beta = 0: y^2 = rhs.  q = 2 and beta != 0:
    y = beta w turns it into w^2 + w = rhs/beta^2.  Every point is checked
    against the curve equation before it is returned.
    """
    e1, e2, e3, e4, e6 = (field.embed(a) for a in curve.a_invariants)
    elems = list(field.elements())
    square_roots: dict = {}  # v -> every w with w^2 = v
    as_roots: dict = {}  # v -> every w with w^2 + w = v
    for w in elems:
        square_roots.setdefault(w * w, []).append(w)
        as_roots.setdefault(w * w + w, []).append(w)
    four = field.embed(4)
    half = None if field.q == 2 else field.embed(2).inverse()
    points = [None]
    for x in elems:
        beta = e1 * x + e3
        rhs = ((x + e2) * x + e4) * x + e6
        if field.q != 2:
            ys = [(w - beta) * half
                  for w in square_roots.get(beta * beta + four * rhs, ())]
        elif beta.is_zero():
            ys = square_roots.get(rhs, [])
        else:
            ys = [beta * w for w in as_roots.get(rhs / (beta * beta), ())]
        for y in ys:
            assert y * y + e1 * x * y + e3 * y == rhs
            points.append((x, y))
    return points


def frobenius_trace_power(a_q: int, q: int, m: int) -> int:
    """t_m with t_0 = 2, t_1 = a_q, t_m = a_q t_(m-1) - q t_(m-2)."""
    t_prev, t = 2, a_q
    if m == 0:
        return 2
    for _ in range(m - 1):
        t_prev, t = t, a_q * t - q * t_prev
    return t


def euler_criterion_count(curve, q: int) -> int:
    """#E(F_q) at an odd prime q of good reduction: each x contributes
    1 + chi(D(x)) affine points, where D(x) = (a1 x + a3)^2 + 4 (x^3 + a2 x^2
    + a4 x + a6) is the discriminant of the y-quadratic and chi is the
    Legendre symbol by Euler's criterion, one modular power per x."""
    a1, a2, a3, a4, a6 = curve.a_invariants
    total = 1
    for x in range(q):
        disc = ((a1 * x + a3) ** 2 + 4 * (x ** 3 + a2 * x * x + a4 * x + a6)) % q
        if disc == 0:
            total += 1
        elif pow(disc, (q - 1) // 2, q) == 1:
            total += 2
    return total


def sqrt_mod_prime(v: int, q: int) -> int | None:
    """A square root of v modulo the odd prime q, or None when v is not a
    square (Tonelli-Shanks)."""
    v %= q
    if v == 0:
        return 0
    if pow(v, (q - 1) // 2, q) != 1:
        return None
    s, t = 0, q - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    z = next(z for z in range(2, q) if pow(z, (q - 1) // 2, q) == q - 1)
    m, c, r, u = s, pow(z, t, q), pow(v, (t + 1) // 2, q), pow(v, t, q)
    while u != 1:
        i, w = 0, u
        while w != 1:
            i, w = i + 1, w * w % q
        b = pow(c, 1 << (m - i - 1), q)
        m, c, r, u = i, b * b % q, r * b % q, u * b * b % q
    return r


def check_trace_by_point_orders(curve, q: int, a_q: int, points: int = 4) -> None:
    """Assert the Hasse bound a_q^2 <= 4q, (q + 1 - a_q) P = O for `points`
    points P of E(F_q), and (q + 1 + a_q) P' = O for as many points P' of
    the quadratic twist y^2 = x^3 + A u^2 x + B u^3 (A = -27 c4, B = -54 c6,
    u a non-square), with torsion.point_mul over make_field(q, 1).  Points
    solve the y-quadratic of a model with a square root mod q."""
    assert a_q * a_q <= 4 * q
    field = make_field(q, 1)
    half = pow(2, -1, q)
    u = next(u for u in range(2, q) if sqrt_mod_prime(u, q) is None)
    twist = (0, 0, 0, -27 * curve.c4 * u * u, -54 * curve.c6 * u ** 3)
    for model, order in ((curve.a_invariants, q + 1 - a_q), (twist, q + 1 + a_q)):
        a1, a2, a3, a4, a6 = model
        ai = tuple(field.embed(a) for a in model)
        found = 0
        for x in range(q):
            beta = a1 * x + a3
            w = sqrt_mod_prime(beta * beta + 4 * (((x + a2) * x + a4) * x + a6), q)
            if w is None:
                continue
            P = (field.embed(x), field.embed((w - beta) * half))
            assert point_mul(ai, order, P) is None
            found += 1
            if found == points:
                break
        assert found == points


# torsion degree profiles by factoring psi_p -------------------------------------


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


def factoring_profile(curve, p: int, field: FieldContext) -> list[tuple[int, int]]:
    """Sorted (x-factor degree m, point degree) pairs of psi_p over the field.

    psi_p is factored with poly_factor; the points above the roots x0 of a
    factor g of degree m have degree m when the y-quadratic
    y^2 + beta(x0) y - gamma(x0) = 0 has a root in F_Q[x]/(g) = F_Q(x0),
    and 2m otherwise.
    """
    psi = FqPoly.from_ints(field, division_poly(curve, p))
    beta = FqPoly.from_ints(field, (curve.a3, curve.a1))
    gamma = FqPoly.from_ints(field, (curve.a6, curve.a4, curve.a2, 1))
    pairs = []
    for factor, mult in poly_factor(psi):
        m = factor.degree
        d = m if quadratic_has_root(beta, -gamma, factor) else 2 * m
        pairs.extend([(m, d)] * mult)
    return sorted(pairs)


def extension_field(q: int, k: int) -> FieldContext:
    """F_(q^k) built from its modulus, with no bound on q^k: the modulus is
    the first monic irreducible x^k + c(x) in the base-q order of c."""
    prime = FieldContext(q)
    if k == 1:
        return prime
    for idx in itertools.count():
        low = [idx // q ** j % q for j in range(k)]
        candidate = FqPoly.from_ints(prime, low + [1])
        if is_irreducible(candidate):
            return FieldContext(q, tuple(v[0] for v in candidate.vecs))
