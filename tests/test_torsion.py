import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dualselmer.arith import FqPoly, make_field, poly_factor
from dualselmer.curve import WeierstrassCurve, trace_of_frobenius
from dualselmer.errors import (
    BadIndex,
    BadReduction,
    DivisorSearchExhausted,
    HypothesisFailure,
    SamePrime,
)
from dualselmer.integers import is_prime, multiplicative_order
from dualselmer.registry import load_registry
from dualselmer.torsion import (
    division_poly,
    embed_curve,
    has_p_torsion_in_cyc_tower,
    point_add,
    point_mul,
    point_neg,
    frobenius_matrix,
    rational_p_torsion,
    torsion_point_degrees,
)

from helpers import (
    curve_points,
    extension_field,
    factoring_profile,
    monic_polys,
    oracle_mul,
)

E21A4 = WeierstrassCurve(1, 0, 0, 1, 0)
A1950Y1 = WeierstrassCurve(1, 0, 0, -355303, -89334583)
E_J0 = WeierstrassCurve(0, 0, 0, 0, 1)


# -- division polynomials --------------------------------------------------------


def test_division_poly_base_cases():
    assert division_poly(E21A4, 1) == (1,)
    with pytest.raises(BadIndex):
        division_poly(E21A4, 0)


def test_division_poly_psi3_formula():
    for curve in (E21A4, A1950Y1, E_J0):
        b2, b4, b6, b8 = curve.b2, curve.b4, curve.b6, curve.b8
        assert division_poly(curve, 3) == (b8, 3 * b6, 3 * b4, b2, 3)


def test_division_poly_psi3_j0():
    assert division_poly(E_J0, 3) == (0, 12, 0, 0, 3)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_division_poly_degree_and_leading(n):
    psi = division_poly(E21A4, n)
    assert len(psi) - 1 == (n * n - 1) // 2
    assert psi[-1] == n


def test_division_poly_roots_are_torsion_x_coordinates():
    # over primes where E gains 5-torsion, the roots of psi_5 are exactly the
    # x-coordinates of the points annihilated by 5 (checked with an
    # independent chord-and-tangent law and a full point enumeration)
    psi5 = division_poly(E21A4, 5)
    for r in (41, 73):
        field = make_field(r, 1)
        ai = embed_curve(E21A4, field)
        tors_x = set()
        for point in curve_points(E21A4, field):
            if point is not None and oracle_mul(ai, 5, point) is None:
                tors_x.add(point[0])
        roots = {
            x for x in field.elements()
            if FqPoly.from_ints(field, psi5).evaluate(x).is_zero()
        }
        assert tors_x == roots and roots


def _roots_in(g, field):
    # roots of the F_q-polynomial g in an extension field, by factoring there
    lifted = FqPoly.from_ints(field, [c.coeffs[0] for c in g.coeffs])
    return [-h.coeffs[0] for h, _ in poly_factor(lifted) if h.degree == 1]


def _y_roots(curve, x):
    # solutions y of the curve equation above x, by enumerating x's field
    e1, e2, e3, e4, e6 = embed_curve(curve, x.field)
    beta = e1 * x + e3
    rhs = ((x + e2) * x + e4) * x + e6
    return [y for y in x.field.elements() if (y + beta) * y == rhs]


def test_division_poly_root_lifts_to_point_killed_by_p():
    # the degree-2 x-factor g of psi_5 over F_19 has point degree 4: g splits
    # over F_(19^2) with no y there, and over F_(19^4) every root of g gives
    # points on the curve killed by 5
    psi = FqPoly.from_ints(make_field(19, 1), division_poly(E21A4, 5))
    g = next(h for h, _ in poly_factor(psi) if h.degree == 2)
    roots2 = _roots_in(g, make_field(19, 2))
    assert len(roots2) == 2
    assert not any(_y_roots(E21A4, x) for x in roots2)
    F4 = make_field(19, 4)
    roots4 = _roots_in(g, F4)
    assert len(roots4) == 2
    ai = embed_curve(E21A4, F4)
    for x in roots4:
        ys = _y_roots(E21A4, x)
        assert len(ys) == 2
        for y in ys:
            assert (
                y * y + ai[0] * x * y + ai[2] * y
                == ((x + ai[1]) * x + ai[3]) * x + ai[4]
            )
            assert oracle_mul(ai, 5, (x, y)) is None
            assert oracle_mul(ai, 1, (x, y)) is not None


def _curve(spec):
    # a registry label, or inline a1,a2,a3,a4,a6
    if "," in spec:
        return WeierstrassCurve(*(int(a) for a in spec.split(",")))
    return load_registry()[spec]


def _root_oracle_pairs(curve, p, q):
    # sorted (x-degree m, point degree) pairs over F_q, independent of the
    # rule in torsion_point_degrees: take the roots x0 of each x-factor g in
    # make_field(q, m), m = deg g, and look for a y there
    psi = FqPoly.from_ints(make_field(q, 1), division_poly(curve, p))
    pairs = []
    for g, mult in poly_factor(psi):
        m = g.degree
        roots = _roots_in(g, make_field(q, m))
        assert len(roots) == m
        has_y = {bool(_y_roots(curve, x)) for x in roots}
        assert len(has_y) == 1  # conjugate roots agree
        pairs += [(m, m if has_y.pop() else 2 * m)] * mult
    return sorted(pairs)


@pytest.mark.parametrize(
    "label,p,q",
    [
        ("21a4", 5, 2),  # one x-factor of degree 12
        ("21a4", 11, 2),  # a1 != 0: point degrees m and 2m at m = 5
        ("11a1", 7, 2),
        ("37a1", 5, 2),  # linear factors over F_2
        ("37a1", 7, 3),
        ("11a1", 5, 3),
        ("21a4", 5, 11),
        ("389a1", 5, 7),
        ("1,0,1,0,1", 5, 2),  # a1 = a3 = 1: beta(x0) is not constant
    ],
)
def test_point_degrees_match_root_oracle(label, p, q):
    curve = _curve(label)
    prof = torsion_point_degrees(curve, p, q, 1)
    pairs = list(zip(prof.x_factor_degrees, prof.point_degrees))
    assert pairs == _root_oracle_pairs(curve, p, q)


@pytest.mark.parametrize(
    "label,p,q,f",
    [
        ("21a4", 11, 2, 2),
        ("37a1", 5, 2, 2),
        ("37a1", 5, 2, 4),
        ("37a1", 7, 3, 2),
        ("11a1", 5, 3, 2),
        ("11a1", 5, 7, 2),
    ],
)
def test_point_degrees_over_extension_follow_from_prime_field(label, p, q, f):
    # a field of degree n over F_q has degree n/gcd(n, f) over F_(q^f), and
    # an irreducible x-factor of degree m over F_q splits into gcd(m, f)
    # factors over F_(q^f)
    curve = _curve(label)
    expected = []
    for m, d in _root_oracle_pairs(curve, p, q):
        g = math.gcd(m, f)
        expected += [(m // g, d // math.gcd(d, f))] * g
    prof = torsion_point_degrees(curve, p, q, f)
    pairs = list(zip(prof.x_factor_degrees, prof.point_degrees))
    assert pairs == sorted(expected)
    assert any(m == d for m, d in pairs)


# -- torsion degree profiles -------------------------------------------------------


def test_profile_21a4_q2():
    prof = torsion_point_degrees(E21A4, 5, 2, 4)
    assert prof.x_factor_degrees == (3, 3, 3, 3)
    assert prof.point_degrees == (6, 6, 6, 6)


def test_profile_21a4_q13():
    prof = torsion_point_degrees(E21A4, 5, 13, 4)
    assert prof.x_factor_degrees == (3, 3, 3, 3)
    assert prof.point_degrees == (6, 6, 6, 6)


def test_profile_x_degrees_sum():
    # leading coefficient p is a unit mod q, so the degrees add to (p^2-1)/2,
    # and each point degree is m or 2m for its aligned x-degree m
    for q, f in ((2, 4), (13, 4), (11, 1)):
        prof = torsion_point_degrees(E21A4, 5, q, f)
        assert sum(prof.x_factor_degrees) == 12
        assert all(
            d in (m, 2 * m)
            for m, d in zip(prof.x_factor_degrees, prof.point_degrees)
        )


def test_profile_rational_torsion_gives_degree_one():
    # A has a rational 5-torsion point and good reduction at 7
    prof = torsion_point_degrees(A1950Y1, 5, 7, 1)
    assert 1 in prof.x_factor_degrees
    assert 1 in prof.point_degrees


def test_profile_errors():
    with pytest.raises(SamePrime):
        torsion_point_degrees(E21A4, 5, 5, 1)
    with pytest.raises(BadReduction):
        torsion_point_degrees(E21A4, 5, 3, 4)


def test_profile_refuses_p_2():
    # division_poly(curve, 2) is the cofactor 1, not the 2-division cubic
    with pytest.raises(HypothesisFailure, match="odd prime"):
        torsion_point_degrees(E21A4, 2, 5, 1)


# -- the Frobenius class against the factoring oracle ------------------------------


def _class_pairs(label, p, q, f):
    prof = torsion_point_degrees(_curve(label), p, q, f)
    return list(zip(prof.x_factor_degrees, prof.point_degrees))


def _oracle_pairs(label, p, q, f):
    return factoring_profile(_curve(label), p, make_field(q, f))


def _kind(label, p, q, f):
    # "distinct" eigenvalues, or the degenerate class: "scalar" lam*I or
    # "nonscalar" lam*(I + N), with the order e of lam in F_p^*/{+-1}
    curve = _curve(label)
    (a, b), (c, _) = frobenius_matrix(curve, p, q, f, trace_of_frobenius(curve, q))
    if c:
        return "distinct", None
    e = next(e for e in range(1, p) if pow(a, e, p) in (1, p - 1))
    return ("scalar" if b == 0 else "nonscalar"), e


@pytest.mark.parametrize(
    "label,p,q,f,kind",
    [
        ("21a4", 5, 2, 4, ("distinct", None)),  # q = 2, the paper's F_(2^4)
        ("37a1", 5, 2, 4, ("scalar", 1)),
        ("21a4", 11, 2, 10, ("scalar", 1)),  # q = 2, p = 11, f = ord_11(2)
        ("11a1", 5, 3, 2, ("distinct", None)),  # q = 3
        ("11a1", 11, 3, 5, ("nonscalar", 1)),  # q = 3, p = 11
        ("11a1", 3, 13, 1, ("nonscalar", 1)),
        ("21a4", 5, 23, 2, ("scalar", 2)),  # a_23 = 0: Frobenius^2 = -23
        ("21a4", 7, 23, 2, ("scalar", 3)),
        ("11a1", 7, 19, 2, ("scalar", 3)),
        ("1,0,1,0,1", 5, 2, 4, ("distinct", None)),  # inline, a1 = a3 = 1
        ("1,0,1,0,1", 11, 2, 10, ("scalar", 1)),
        ("1,0,1,0,1", 5, 23, 2, ("scalar", 2)),
        ("0,0,1,0,0", 5, 2, 2, ("scalar", 2)),  # inline, j = 0
    ],
)
def test_class_profile_matches_factoring_oracle(label, p, q, f, kind):
    assert _kind(label, p, q, f) == kind
    assert _class_pairs(label, p, q, f) == _oracle_pairs(label, p, q, f)


_ORACLE_CASES = [
    (label, p, q, f)
    for label in ("21a4", "1950y1", "11a1", "37a1", "389a1", "5077a1",
                  "1,0,1,0,1", "0,0,1,0,0")
    for p in (3, 5, 7, 11)
    for q in range(2, 60)
    if is_prime(q) and q != p and _curve(label).discriminant % q
    for f in sorted({1, 2, multiplicative_order(q, p)})
    if q ** f <= (2000 if p == 11 else 20000)
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_ORACLE_CASES))
def test_class_profile_matches_factoring_oracle_sampled(case):
    assert _class_pairs(*case) == _oracle_pairs(*case)


# -- tower torsion criterion ---------------------------------------------------------


def test_tower_torsion_paper_cases():
    assert has_p_torsion_in_cyc_tower(E21A4, 5, 2, 4) is False
    assert has_p_torsion_in_cyc_tower(E21A4, 5, 13, 4) is False


def test_tower_torsion_rational_point():
    assert has_p_torsion_in_cyc_tower(A1950Y1, 5, 7, 1) is True


def test_tower_torsion_monotone_in_f():
    assert has_p_torsion_in_cyc_tower(A1950Y1, 5, 7, 1)
    for f in (2, 3):
        assert has_p_torsion_in_cyc_tower(A1950Y1, 5, 7, f)


def _predicted_order_p_count(profile, s):
    # points of order p over F_(q^(f*s)): an x-factor of degree m whose
    # aligned point degree d divides s contributes its m x-coordinates with
    # two points each (p odd, so P != -P)
    return sum(
        2 * m
        for m, d in zip(profile.x_factor_degrees, profile.point_degrees)
        if s % d == 0
    )


def test_order5_count_prediction_f41():
    profile = torsion_point_degrees(E21A4, 5, 41, 1)
    predicted = _predicted_order_p_count(profile, 1)
    field = make_field(41, 1)
    ai = embed_curve(E21A4, field)
    brute = sum(
        1
        for point in curve_points(E21A4, field)
        if point is not None and oracle_mul(ai, 5, point) is None
    )
    assert predicted == brute == 4


# -- rational p-torsion ----------------------------------------------------------------


def test_rational_5_torsion_of_A():
    point = rational_p_torsion(A1950Y1, 5)
    assert point == (Fraction(806), Fraction(11765))
    ai = tuple(Fraction(a) for a in A1950Y1.a_invariants)
    assert point_mul(ai, 5, point) is None
    for m in (1, 2, 3, 4):
        assert point_mul(ai, m, point) is not None


def test_rational_3_torsion_j0():
    assert rational_p_torsion(E_J0, 3) == (Fraction(0), Fraction(1))


def test_rational_5_torsion_of_E_none():
    assert rational_p_torsion(E21A4, 5) is None


def test_rational_torsion_divisor_search_exhausted():
    # constant term of psi_3 is -p1*p2 with both primes above the trial
    # bound, so the divisor enumeration cannot be certified complete
    p1 = 10 ** 6 + 3
    p2 = next(
        n for n in range(p1 + 1, p1 + 500) if is_prime(n) and p1 * n % 4 == 1
    )
    assert is_prime(p1) and p1 * p2 % 4 == 1
    a6 = (1 - p1 * p2) // 4
    curve = WeierstrassCurve(0, 1, 0, 1, a6)
    assert curve.b8 == -p1 * p2
    with pytest.raises(DivisorSearchExhausted):
        rational_p_torsion(curve, 3)


# -- group law helpers ---------------------------------------------------------------


def test_point_ops_match_oracle_over_prime_field():
    field = make_field(11, 1)
    ai = embed_curve(E21A4, field)
    points = curve_points(E21A4, field)
    for P in points:
        for Q in points[:5]:
            assert point_add(ai, P, Q) == (
                point_add(ai, Q, P)
            )
        assert point_add(ai, P, point_neg(ai, P)) is None
    # associativity spot check
    P, Q, R = points[1], points[2], points[3]
    assert point_add(ai, point_add(ai, P, Q), R) == point_add(
        ai, P, point_add(ai, Q, R)
    )


def test_point_mul_matches_repeated_addition():
    field = make_field(11, 1)
    ai = embed_curve(E21A4, field)
    P = next(p for p in curve_points(E21A4, field) if p is not None)
    acc = None
    for n in range(8):
        assert point_mul(ai, n, P) == acc
        acc = point_add(ai, acc, P)
