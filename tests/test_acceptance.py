"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every expected value is either pinned from an independent oracle
computed inside this file or asserted exactly.
"""
import json
import math
import random
import time

from dualselmer.arith import FqPoly, is_irreducible, make_field, poly_factor
from dualselmer.classify import build_report, p0_set
from dualselmer.cli import EXIT_OK, main
from dualselmer.curve import (
    Good,
    SplitMultiplicative,
    WeierstrassCurve,
    count_points,
    is_good_ordinary,
    reduction_type,
)
from dualselmer.lfunc import unit_root
from dualselmer.torsion import (
    division_poly,
    embed_curve,
    torsion_point_degrees,
)

from helpers import (
    brute_force_factor,
    curve_points,
    curve_points_by_tables,
    frobenius_trace_power,
    oracle_add,
    oracle_neg,
    product_of_factors,
)

E21A4 = WeierstrassCurve(1, 0, 0, 1, 0)
A1950Y1 = WeierstrassCurve(1, 0, 0, -355303, -89334583)
E_J1728 = WeierstrassCurve(0, 0, 0, 1, 0)
E_J0 = WeierstrassCurve(0, 0, 0, 0, 1)


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


_REPORT_CACHE = {}


def _paper_report():
    if "report" not in _REPORT_CACHE:
        _REPORT_CACHE["report"] = build_report(
            E21A4, A1950Y1, 5, lam=0, mu=0, rk_zp=0
        )
    return _REPORT_CACHE["report"]


def test_criterion_01_p0_set():
    start = time.monotonic()
    p0 = p0_set(A1950Y1, 5)
    elapsed = time.monotonic() - start
    ok = p0 == {2, 3, 13} and elapsed < 1.0
    ok = ok and _paper_report().p0 == (2, 3, 13)
    _report(1, "P0(A=1950y1, p=5) = {2, 3, 13}", ok, f"p0_set in {elapsed:.3f}s")


def test_criterion_02_reduction_types():
    red3 = reduction_type(E21A4, 3)
    red2 = reduction_type(E21A4, 2)
    red13 = reduction_type(E21A4, 13)
    ok = (
        isinstance(red3, SplitMultiplicative)
        and isinstance(red2, Good)
        and isinstance(red13, Good)
    )
    _report(2, "E split multiplicative at 3, good at 2 and 13", ok)


def test_criterion_03_division_poly_factorization():
    start = time.monotonic()
    results = {}
    for q in (2, 13):
        field = make_field(q, 4)
        psi = FqPoly.from_ints(field, division_poly(E21A4, 5))
        factors = poly_factor(psi)
        results[q] = factors
    elapsed = time.monotonic() - start
    ok = elapsed < 30.0
    for q, factors in results.items():
        degrees = sorted(f.degree for f, m in factors for _ in range(m))
        ok = ok and degrees == [3, 3, 3, 3]
        ok = ok and all(m == 1 for _, m in factors)
        ok = ok and all(is_irreducible(f) for f, _ in factors)
        field = make_field(q, 4)
        psi = FqPoly.from_ints(field, division_poly(E21A4, 5))
        ok = ok and product_of_factors(field, factors, psi.leading) == psi
    _report(
        3,
        "psi_5(21a4) splits into four irreducible cubics over F_(2^4) and F_(13^4)",
        ok,
        f"{elapsed:.2f}s",
    )


def test_criterion_04_p1_p2_and_counts():
    report = build_report(E21A4, A1950Y1, 5, lam=0, mu=0, rk_zp=0)
    # n1_cyc = 1 comes from f(3,5) = 4 and v_5(3^4 - 1) = 1
    f = next(ev.f for ev in report.evidence if ev.q == 3)
    v5 = 0
    n = 3 ** f - 1
    while n % 5 == 0:
        n //= 5
        v5 += 1
    ok = (
        report.p1 == (3,)
        and report.p2 == ()
        and report.n1_cyc == 1
        and report.n2_cyc == 0
        and f == 4
        and v5 == 1
    )
    _report(4, "P1 = {3}, P2 = {}, n1_cyc = 1, n2_cyc = 0", ok)


def test_criterion_05_rank_and_verdict():
    report = build_report(E21A4, A1950Y1, 5, lam=0, mu=0, rk_zp=0)
    ok = (
        report.lambda_h_rank == 1
        and report.verdict == "CompletelyFaithfulConditional"
    )
    _report(5, "Lambda(H)-rank 1 and verdict CompletelyFaithfulConditional", ok)


def test_criterion_06_ordinary_with_independent_count():
    # independent oracle: full (x, y) double loop over F_5
    points = curve_points(E21A4, make_field(5, 1))
    a5_oracle = 5 + 1 - len(points)
    red = reduction_type(E21A4, 5)
    ok = (
        is_good_ordinary(E21A4, 5)
        and a5_oracle == -2
        and isinstance(red, Good)
        and red.trace == -2
    )
    _report(6, "21a4 good ordinary at 5 with a_5 = -2 (double-loop oracle)", ok)


def test_criterion_07_hasse_and_trace_recurrence():
    checks = 0
    ok = True
    for curve in (E21A4, E_J1728, E_J0):
        for q in (2, 3, 5, 7, 11, 13):
            if curve.discriminant % q == 0:
                continue
            a_q = reduction_type(curve, q).trace
            for k in (1, 2, 3):
                if q ** k > 10 ** 6:
                    break
                # independent count: every point from the table oracle
                count = len(curve_points_by_tables(curve, make_field(q, k)))
                trace = q ** k + 1 - count
                ok = ok and count == q ** k + 1 - frobenius_trace_power(a_q, q, k)
                ok = ok and count == count_points(curve, make_field(q, k))
                ok = ok and trace * trace <= 4 * q ** k
                checks += 1
    _report(
        7,
        "Hasse bound and trace recurrence for three curves, q <= 13, k <= 3",
        ok and checks >= 30,
        f"{checks} point counts",
    )


_ORACLE_FIELDS = [
    (2, 1, 6),
    (3, 1, 5),
    (2, 2, 4),
    (5, 1, 4),
    (7, 1, 3),
    (2, 3, 3),
    (3, 2, 3),
    (13, 1, 3),
    (2, 4, 3),
    (5, 2, 2),
    (3, 3, 2),
    (7, 2, 2),
    (2, 6, 2),
    (3, 4, 2),
]


def test_criterion_08_factorization_oracle_suite():
    rng = random.Random(0xFAC7)
    start = time.monotonic()
    checked = 0
    mismatches = 0
    for q, k, dmax in _ORACLE_FIELDS:
        field = make_field(q, k)
        for _ in range(16):
            degree = rng.randrange(2, min(12, 2 * dmax) + 1)
            coeffs = [
                field.from_index(rng.randrange(field.cardinality))
                for _ in range(degree)
            ]
            coeffs.append(field.from_index(rng.randrange(1, field.cardinality)))
            f = FqPoly(field, tuple(coeffs))
            if rng.random() < 0.25 and 2 * f.degree <= 2 * dmax:
                f = f * f
            expected = brute_force_factor(f, dmax)
            got = poly_factor(f)
            if dict(got) != expected:
                mismatches += 1
                continue
            if not all(is_irreducible(g) for g, _ in got):
                mismatches += 1
            if product_of_factors(field, got, f.leading) != f:
                mismatches += 1
            checked += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and checked >= 200
    _report(
        8,
        "poly_factor matches brute-force trial division on seeded random polys",
        ok,
        f"{checked} polynomials, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_09_unit_root_suite():
    mismatches = 0
    checked = 0
    for p in (5, 7, 11, 13):
        for a_p in range(-2 * math.isqrt(p) - 1, 2 * math.isqrt(p) + 2):
            if a_p % p == 0 or a_p * a_p >= 4 * p:
                continue
            got4 = unit_root(a_p, p, 4)
            lifts = [
                x
                for x in range(p ** 4)
                if x % p == a_p % p and (x * x - a_p * x + p) % p ** 4 == 0
            ]
            if len(lifts) != 1 or got4.value != lifts[0]:
                mismatches += 1
            b = unit_root(a_p, p, 20)
            mod = p ** 20
            if (b.value * b.value - a_p * b.value + p) % mod != 0:
                mismatches += 1
            if b.value % p == 0:
                mismatches += 1
            checked += 1
    ok = mismatches == 0 and checked >= 20
    _report(
        9,
        "Newton unit roots match exhaustive lifts (N=4) and satisfy the "
        "quadratic mod p^20",
        ok,
        f"{checked} ordinary traces, {mismatches} mismatches",
    )


def test_criterion_10_torsion_count_oracle():
    start = time.monotonic()
    profile = torsion_point_degrees(E21A4, 5, 2, 4)
    predicted = sum(
        2 * m
        for m, d in zip(profile.x_factor_degrees, profile.point_degrees)
        if 3 % d == 0
    )
    # brute force over F_(2^12)
    big = make_field(2, 12)
    points = curve_points_by_tables(E21A4, big)
    # independent cardinality anchor: a_2 from a double loop over F_2, then
    # the trace recurrence
    a2 = 2 + 1 - len(curve_points(E21A4, make_field(2, 1)))
    expected_total = 2 ** 12 + 1 - frobenius_trace_power(a2, 2, 12)
    ai = embed_curve(E21A4, big)
    # 5P = O iff 4P = -P: two doublings and a negation per point
    brute = 0
    for P in points:
        if P is None:
            continue
        P2 = oracle_add(ai, P, P)
        P4 = oracle_add(ai, P2, P2)
        if P4 == oracle_neg(ai, P):
            brute += 1
    elapsed = time.monotonic() - start
    ok = (
        len(points) == expected_total
        and predicted == brute
        and elapsed < 60.0
    )
    _report(
        10,
        "order-5 point count over F_(2^12): degree-profile prediction equals "
        "brute force",
        ok,
        f"predicted {predicted}, brute {brute}, #E = {len(points)}, {elapsed:.1f}s",
    )


def test_criterion_11_determinism(capsys):
    assert main(["paper-example"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["paper-example"]) == EXIT_OK
    second = capsys.readouterr().out
    ok = first == second and json.loads(first)["summary"]["P0"] == [2, 3, 13]
    with capsys.disabled():
        _report(11, "two paper-example runs emit byte-identical JSON", ok)
