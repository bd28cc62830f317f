import math

import pytest

from dualselmer.curve import WeierstrassCurve
from dualselmer.errors import NotOrdinary
from dualselmer.lfunc import (
    EulerFactor,
    PadicApprox,
    determinant_exponent,
    euler_factor,
    twist_profile,
    unit_root,
)

from helpers import curve_points_by_tables, frobenius_trace_power

E21A4 = WeierstrassCurve(1, 0, 0, 1, 0)
E_J0 = WeierstrassCurve(0, 0, 0, 0, 1)


# -- Euler factors ------------------------------------------------------------


def test_euler_factor_good():
    assert euler_factor(E21A4, 5) == EulerFactor(q=5, coeffs=(1, 2, 5))


def test_euler_factor_split():
    assert euler_factor(E21A4, 3) == EulerFactor(q=3, coeffs=(1, -1))


def test_euler_factor_nonsplit():
    assert euler_factor(E21A4, 7) == EulerFactor(q=7, coeffs=(1, 1))


def test_euler_factor_additive():
    assert euler_factor(E_J0, 3) == EulerFactor(q=3, coeffs=(1,))


def test_euler_factor_str():
    assert str(euler_factor(E21A4, 3)) == "1 - T"
    assert str(euler_factor(E21A4, 5)) == "1 + 2T + 5T^2"
    assert str(euler_factor(E_J0, 3)) == "1"


def test_euler_factor_consistent_with_point_counts():
    # P(T) = (1 - aT)(1 - bT) with a + b = a_q, ab = q: the trace recurrence
    # driven by the linear coefficient must reproduce the table-oracle point
    # counts, and so must count_points
    from dualselmer.arith import make_field
    from dualselmer.curve import count_points

    for q in (2, 5, 11, 13):
        factor = euler_factor(E21A4, q)
        one, minus_trace, lead = factor.coeffs
        assert one == 1 and lead == q
        a_q = -minus_trace
        for k in (1, 2):
            count = len(curve_points_by_tables(E21A4, make_field(q, k)))
            assert count == q ** k + 1 - frobenius_trace_power(a_q, q, k)
            assert count == count_points(E21A4, make_field(q, k))


# -- unit roots ----------------------------------------------------------------


def test_unit_root_precision_one():
    assert unit_root(-2, 5, 1) == PadicApprox(p=5, precision=1, value=3)


def test_unit_root_frozen_value_n3():
    # exhaustive-lift oracle gave 113: 113 = 3 mod 5 and 113^2+2*113+5 = 0 mod 125
    root = unit_root(-2, 5, 3)
    assert root.value == 113
    assert (root.value ** 2 + 2 * root.value + 5) % 125 == 0


def test_unit_root_not_ordinary():
    with pytest.raises(NotOrdinary):
        unit_root(5, 5, 4)
    with pytest.raises(NotOrdinary):
        unit_root(0, 7, 2)


def _exhaustive_unit_root(a_p, p, n):
    roots = [
        x
        for x in range(p ** n)
        if x % p == a_p % p and (x * x - a_p * x + p) % p ** n == 0
    ]
    assert len(roots) == 1
    return roots[0]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_unit_root_matches_exhaustive_lift(p):
    bound = 2 * math.isqrt(4 * p) // 2
    for a_p in range(-bound, bound + 1):
        if abs(a_p) >= 2 * math.sqrt(p) or a_p % p == 0:
            continue
        got = unit_root(a_p, p, 4)
        assert got.value == _exhaustive_unit_root(a_p, p, 4)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_unit_root_high_precision_identities(p):
    n = 20
    mod = p ** n
    for a_p in range(-2 * math.isqrt(p), 2 * math.isqrt(p) + 1):
        if a_p % p == 0 or a_p * a_p >= 4 * p:
            continue
        b = unit_root(a_p, p, n)
        assert b.is_unit()
        assert (b.value * b.value - a_p * b.value + p) % mod == 0
        c = (a_p - b.value) % mod
        assert b.value * c % mod == p % mod
        assert (b.value + c) % mod == a_p % mod


def test_padic_approx_validation():
    with pytest.raises(ValueError):
        PadicApprox(p=5, precision=0, value=0)
    with pytest.raises(ValueError):
        PadicApprox(p=5, precision=1, value=7)


# -- twist profiles and determinant exponents -------------------------------------


def test_twist_profile_p1():
    prof = twist_profile("P1")
    assert prof.entries == ((0, -1), (1, +1))


def test_twist_profile_p2():
    prof = twist_profile("P2")
    assert prof.entries == ((0, "T_p(E)*"), (1, "T_p(E)"))


def test_twist_profile_bad_tag():
    with pytest.raises(ValueError):
        twist_profile("P0")


@pytest.mark.parametrize(
    "n1,n2,lo,hi,flag",
    [(1, 0, -1, 1, True), (0, 0, 0, 0, False), (2, 3, -8, 8, True)],
)
def test_determinant_exponent(n1, n2, lo, hi, flag):
    got = determinant_exponent(n1, n2)
    assert (got.negative, got.positive, got.nontrivial) == (lo, hi, flag)


def test_determinant_exponent_rejects_negative():
    with pytest.raises(ValueError):
        determinant_exponent(-1, 0)
