import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dualselmer.arith import FieldContext, make_field
from dualselmer.curve import (
    Additive,
    Good,
    NonsplitMultiplicative,
    SplitMultiplicative,
    WeierstrassCurve,
    count_points,
    invariants,
    is_cm,
    is_good_ordinary,
    is_square_in_Qq,
    reduction_type,
    trace_of_frobenius,
)
from dualselmer.errors import (
    BadReduction,
    FieldTooLarge,
    PossiblyNonMinimal,
    SingularCurve,
    ZeroInput,
)
from dualselmer.integers import is_prime
from dualselmer.registry import load_registry

from helpers import (
    check_trace_by_point_orders,
    curve_points,
    curve_points_by_tables,
    euler_criterion_count,
    frobenius_trace_power,
)

E21A4 = WeierstrassCurve(1, 0, 0, 1, 0)
A1950Y1 = WeierstrassCurve(1, 0, 0, -355303, -89334583)
E_J0 = WeierstrassCurve(0, 0, 0, 0, 1)
E_J1728 = WeierstrassCurve(0, 0, 0, 1, 0)


# -- invariants -----------------------------------------------------------------


def test_invariants_21a4():
    inv = invariants(E21A4)
    assert (inv.discriminant, inv.c4, inv.c6) == (-63, -47, 71)
    assert 1728 * inv.discriminant == inv.c4 ** 3 - inv.c6 ** 2
    assert 4 * inv.b8 == inv.b2 * inv.b6 - inv.b4 ** 2


def test_invariants_j0_curve():
    assert invariants(E_J0).discriminant == -432


def test_invariants_j1728():
    assert invariants(E_J1728).j == Fraction(1728)


def test_singular_curve_rejected():
    with pytest.raises(SingularCurve):
        WeierstrassCurve(0, 0, 0, 0, 0)
    with pytest.raises(SingularCurve):
        WeierstrassCurve(0, 0, 0, -3, 2)  # y^2 = (x-1)^2 (x+2)


@given(
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-5, 5),
)
@settings(max_examples=100)
def test_invariant_identities_hold(a1, a2, a3, a4, a6):
    try:
        c = WeierstrassCurve(a1, a2, a3, a4, a6)
    except SingularCurve:
        return
    inv = invariants(c)
    assert 4 * inv.b8 == inv.b2 * inv.b6 - inv.b4 ** 2
    assert 1728 * inv.discriminant == inv.c4 ** 3 - inv.c6 ** 2


# -- CM -------------------------------------------------------------------------


def test_cm_detection():
    assert is_cm(E21A4) is None
    assert is_cm(A1950Y1) is None
    assert is_cm(E_J0) == -3
    assert is_cm(E_J1728) == -4


# -- squares in Q_q ----------------------------------------------------------------


@pytest.mark.parametrize(
    "x,q,expected",
    [
        (-71, 3, True),
        (-71, 7, False),
        (18, 2, False),
        (9, 5, True),
        (2, 7, True),
        (-7, 2, True),   # -7 = 1 mod 8
        (17, 2, True),
        (12, 3, False),  # odd valuation
        (45, 5, False),  # odd valuation of 5
    ],
)
def test_is_square_in_Qq(x, q, expected):
    assert is_square_in_Qq(x, q) == expected


def test_is_square_zero_input():
    with pytest.raises(ZeroInput):
        is_square_in_Qq(0, 5)


@given(st.integers(-300, 300).filter(lambda x: x != 0), st.sampled_from([2, 3, 5, 7, 11]))
def test_squares_are_squares(x, q):
    assert is_square_in_Qq(x * x, q)


# -- reduction types ----------------------------------------------------------------


def test_reduction_types_21a4():
    assert reduction_type(E21A4, 3) == SplitMultiplicative()
    assert reduction_type(E21A4, 7) == NonsplitMultiplicative()
    assert reduction_type(E21A4, 2) == Good(trace=-1)
    assert reduction_type(E21A4, 13) == Good(trace=-2)


def test_reduction_additive_j0():
    red2 = reduction_type(E_J0, 2)
    red3 = reduction_type(E_J0, 3)
    assert red2 == Additive(potentially_multiplicative=False)
    assert red3 == Additive(potentially_multiplicative=False)


def test_reduction_potentially_multiplicative():
    # v_5(c4) = 2, v_5(disc) = 7 > 6, so j has negative 5-adic valuation
    curve = WeierstrassCurve(0, 0, 0, 50, 250)
    assert reduction_type(curve, 5) == Additive(potentially_multiplicative=True)
    assert _valuation_fraction(curve.j, 5) < 0


def test_reduction_potentially_good():
    # v_2(c4) = 4, v_2(disc) = 8 < 12, so j stays 2-integral
    curve = WeierstrassCurve(0, 0, 0, 1, 2)
    assert reduction_type(curve, 2) == Additive(potentially_multiplicative=False)
    assert _valuation_fraction(curve.j, 2) >= 0


def test_additive_flag_matches_j_valuation_scan():
    # on a deterministic sample: additive reduction flags potential
    # multiplicativity exactly when v_q(j) < 0
    rng = random.Random(11)
    seen = set()
    for _ in range(250):
        coeffs = [rng.randrange(-6, 7) for _ in range(5)]
        try:
            curve = WeierstrassCurve(*coeffs)
        except SingularCurve:
            continue
        for q in (2, 3, 5):
            try:
                red = reduction_type(curve, q)
            except PossiblyNonMinimal:
                continue
            if isinstance(red, Additive):
                vj_neg = curve.c4 != 0 and _valuation_fraction(curve.j, q) < 0
                assert red.potentially_multiplicative == vj_neg
                seen.add(red.potentially_multiplicative)
    assert False in seen


def _valuation_fraction(fr, q):
    v = 0
    num, den = fr.numerator, fr.denominator
    while num % q == 0:
        num //= q
        v += 1
    while den % q == 0:
        den //= q
        v -= 1
    return v


def test_non_minimal_model_rejected():
    # scale 21a4 by u = 2: (a1,a2,a3,a4,a6) -> (2a1, 4a2, 8a3, 16a4, 64a6)
    blown_up = WeierstrassCurve(2, 0, 0, 16, 0)
    with pytest.raises(PossiblyNonMinimal):
        reduction_type(blown_up, 2)


def _transformed(curve, r, s, t):
    a1, a2, a3, a4, a6 = curve.a_invariants
    return WeierstrassCurve(
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1,
    )


def test_reduction_type_invariant_under_coordinate_change():
    rng = random.Random(7)
    for _ in range(25):
        r, s, t = (rng.randrange(-3, 4) for _ in range(3))
        moved = _transformed(E21A4, r, s, t)
        assert moved.discriminant == E21A4.discriminant
        for q in (2, 3, 5, 7, 13):
            assert reduction_type(moved, q) == reduction_type(E21A4, q)


def test_multiplicative_split_decided_by_c6():
    for q in (3, 7):
        red = reduction_type(E21A4, q)
        assert isinstance(red, (SplitMultiplicative, NonsplitMultiplicative))
        assert isinstance(red, SplitMultiplicative) == is_square_in_Qq(-E21A4.c6, q)


# -- point counting ----------------------------------------------------------------


def test_count_points_21a4_f5():
    assert count_points(E21A4, make_field(5, 1)) == 8


def test_count_points_f5_independent_double_loop():
    assert len(curve_points(E21A4, make_field(5, 1))) == 8


def test_count_points_j1728_f3():
    assert count_points(E_J1728, make_field(3, 1)) == 4


def test_count_points_21a4_f2():
    assert count_points(E21A4, make_field(2, 1)) == 4


def test_count_points_bad_reduction():
    with pytest.raises(BadReduction):
        count_points(E21A4, make_field(3, 1))


@pytest.mark.parametrize(
    "curve", [E21A4, E_J1728, WeierstrassCurve(1, 0, 1, 0, 1)], ids=str
)
@pytest.mark.parametrize("q,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_table_oracle_matches_double_loop(curve, q, k):
    # both enumerate solutions of the curve equation, so bad reduction
    # (21a4 at 3, y^2 = x^3 + x at 2) is compared as well
    field = make_field(q, k)
    points = curve_points_by_tables(curve, field)
    assert len(points) == len(set(points))
    assert set(points) == set(curve_points(curve, field))


@pytest.mark.parametrize("curve", [E21A4, E_J1728, E_J0], ids=str)
@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_hasse_and_trace_recurrence(curve, q):
    if curve.discriminant % q == 0:
        return
    a_q = trace_of_frobenius(curve, q)
    for k in (1, 2, 3):
        if q ** k > 10 ** 6:
            break
        count = len(curve_points_by_tables(curve, make_field(q, k)))
        assert count == q ** k + 1 - frobenius_trace_power(a_q, q, k)
        assert count == count_points(curve, make_field(q, k))
        assert (q ** k + 1 - count) ** 2 <= 4 * q ** k


@given(
    st.tuples(*[st.integers(-50, 50)] * 5),
    st.sampled_from([q for q in range(2, 100) if is_prime(q)]),
)
@example((1, 0, 0, 1, 0), 2)
@example((0, 0, 0, 1, 0), 3)
@example((0, 0, 1, -1, 0), 3)
@settings(max_examples=60, deadline=None)
def test_prime_field_count_matches_double_loop(ai, q):
    try:
        curve = WeierstrassCurve(*ai)
    except SingularCurve:
        assume(False)
    assume(curve.discriminant % q != 0)
    field = make_field(q, 1)
    assert count_points(curve, field) == len(curve_points(curve, field))


@pytest.mark.parametrize("label", sorted(load_registry()))
def test_prime_field_count_matches_euler_criterion_near_1e4(label):
    curve = load_registry()[label]
    q = 10007
    assert curve.discriminant % q != 0
    assert count_points(curve, make_field(q, 1)) == euler_criterion_count(curve, q)


def test_prime_field_count_above_bound_refused():
    # q = 10^12 + 39, the first prime above the count bound; the bound is
    # checked before any work, so the refusal is immediate
    q = 10 ** 12 + 39
    start = time.perf_counter()
    with pytest.raises(FieldTooLarge, match="point-count bound 1000000000000"):
        count_points(E21A4, FieldContext(q))
    assert time.perf_counter() - start < 1.0


# -- Shanks-Mestre (q > 229) against the Euler-criterion count -------------------

SHANKS_MESTRE_PRIMES = [q for q in range(230, 3001) if is_prime(q)]
E15A1 = WeierstrassCurve(1, 1, 1, -10, -10)  # full rational 2-torsion


@given(st.tuples(*[st.integers(-30, 30)] * 5), st.sampled_from(SHANKS_MESTRE_PRIMES))
@settings(max_examples=80, deadline=None)
def test_shanks_mestre_matches_euler_criterion(ai, q):
    try:
        curve = WeierstrassCurve(*ai)
    except SingularCurve:
        assume(False)
    assume(curve.discriminant % q != 0)
    assert count_points(curve, make_field(q, 1)) == euler_criterion_count(curve, q)


@pytest.mark.parametrize("q", [233, 239, 1009, 2003, 2999])
@pytest.mark.parametrize("label", sorted(load_registry()))
def test_shanks_mestre_registry_curves(label, q):
    curve = load_registry()[label]
    assert curve.discriminant % q != 0
    assert count_points(curve, make_field(q, 1)) == euler_criterion_count(curve, q)


@pytest.mark.parametrize(
    "ai,q,a_q",
    [
        ((0, 0, 0, 0, 1), 233, 0),  # j = 0, q = 2 mod 3: supersingular
        ((0, 0, 0, -1, 0), 239, 0),  # j = 1728, q = 3 mod 4: supersingular
        ((0, 0, 0, -1, 0), 233, None),
        ((0, 0, 0, 0, 1), 241, None),
        ((1, 1, 1, -10, -10), 233, None),
        ((1, 1, 1, -10, -10), 2011, None),
        ((1, 0, 0, 1, 0), 233, None),
        ((0, 0, 0, -2, -6), 233, 30),  # a_q = isqrt(4q): #E is the low end
        ((0, 0, 0, -5, -1), 239, -30),  # a_q = -isqrt(4q): #E is the high end
        ((0, 0, 0, -5, 1), 239, 30),
        ((0, 0, 0, 1, 8), 251, 31),
        ((0, 0, 0, 1, -8), 251, -31),
        ((0, 0, 0, 0, -3), 241, None),  # #E = hi, a second candidate one lcm below
    ],
)
def test_shanks_mestre_explicit_cases(ai, q, a_q):
    curve = WeierstrassCurve(*ai)
    count = euler_criterion_count(curve, q)
    if a_q is not None:
        assert count == q + 1 - a_q
    assert count_points(curve, make_field(q, 1)) == count


@pytest.mark.parametrize(
    "q", [10 ** 6 + 3, 10 ** 9 + 7, 999999999989], ids=["1e6+3", "1e9+7", "below_1e12"]
)
def test_large_q_trace_checked_by_point_orders(q):
    for curve in (E21A4, A1950Y1, E15A1):
        assert curve.discriminant % q != 0
        start = time.perf_counter()
        a_q = trace_of_frobenius(curve, q)
        assert time.perf_counter() - start < 1.0
        check_trace_by_point_orders(curve, q, a_q)


def test_count_matches_double_loop_small_extensions():
    for q, k in ((2, 2), (2, 3), (3, 2), (5, 1)):
        field = make_field(q, k)
        if E21A4.discriminant % q == 0:
            continue
        assert count_points(E21A4, field) == len(curve_points(E21A4, field))


# -- ordinariness ----------------------------------------------------------------


def test_good_ordinary_21a4_at_5():
    assert is_good_ordinary(E21A4, 5)
    assert trace_of_frobenius(E21A4, 5) == -2


def test_not_good_at_bad_prime():
    assert not is_good_ordinary(E21A4, 7)  # 7 | disc


def test_supersingular_not_ordinary():
    assert count_points(E_J1728, make_field(7, 1)) == 8  # a_7 = 0
    assert not is_good_ordinary(E_J1728, 7)
