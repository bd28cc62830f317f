from collections import Counter

import pytest
from hypothesis import given, strategies as st

from dualselmer import classify as cl
from dualselmer import curve as curve_mod
from dualselmer.arith import ENUMERATION_BOUND
from dualselmer.curve import (
    NonsplitMultiplicative,
    SplitMultiplicative,
    WeierstrassCurve,
    reduction_type,
)
from dualselmer.errors import (
    DivisorSearchExhausted,
    NotMultiplicative,
    PossiblyNonMinimal,
    SamePrime,
)
from dualselmer.integers import valuation
from dualselmer.registry import load_registry

from helpers import extension_field, factoring_profile

E21A4 = WeierstrassCurve(1, 0, 0, 1, 0)
A1950Y1 = WeierstrassCurve(1, 0, 0, -355303, -89334583)
E_J0 = WeierstrassCurve(0, 0, 0, 0, 1)


# -- P0 ---------------------------------------------------------------------------


def test_bad_primes():
    assert cl.bad_primes(E21A4) == {3, 7}
    assert cl.bad_primes(A1950Y1) == {2, 3, 5, 13}
    assert cl.bad_primes(E_J0) == {2, 3}


def test_bad_primes_rejects_non_minimal_model():
    # 21a4 scaled by u = 2: v_2(disc) = 12 and v_2(c4) >= 4
    with pytest.raises(PossiblyNonMinimal, match="v_2"):
        cl.bad_primes(WeierstrassCurve(2, 0, 0, 16, 0))


def test_p0_set():
    assert cl.p0_set(A1950Y1, 5) == {2, 3, 13}
    assert cl.p0_set(E21A4, 5) == {3, 7}
    assert cl.p0_set(E21A4, 7) == {3}


def test_p0_set_empty_for_curve_good_outside_p():
    # 11a1 has discriminant -11^5
    curve = WeierstrassCurve(0, -1, 1, -10, -20)
    assert curve.discriminant == -(11 ** 5)
    assert cl.p0_set(curve, 11) == set()


# -- residue degrees and splitting counts ----------------------------------------------


@pytest.mark.parametrize("q,p,f", [(2, 5, 4), (13, 5, 4), (11, 5, 1), (3, 5, 4), (7, 5, 4)])
def test_residue_degree(q, p, f):
    assert cl.residue_degree(q, p) == f


def test_residue_degree_same_prime():
    with pytest.raises(SamePrime):
        cl.residue_degree(5, 5)


@pytest.mark.parametrize("q,p,expected", [(3, 5, 1), (2, 5, 1), (11, 5, 4)])
def test_primes_in_Kcyc(q, p, expected):
    assert cl.primes_in_Kcyc(q, p) == expected


@given(
    st.sampled_from([2, 3, 7, 11, 13, 17, 19, 23, 29, 31]),
    st.sampled_from([5, 7, 11, 13]),
)
def test_prime_counting_invariants(q, p):
    if q == p:
        return
    f = cl.residue_degree(q, p)
    in_K = cl.primes_in_K(q, p)
    in_cyc = cl.primes_in_Kcyc(q, p)
    assert in_K * f == p - 1
    assert in_cyc % in_K == 0
    quotient = in_cyc // in_K
    assert quotient == p ** valuation(quotient, p)
    assert quotient == p ** (valuation(q ** f - 1, p) - 1)


# -- splitting over K ---------------------------------------------------------------


def test_split_over_K_cases():
    assert cl.split_over_K(SplitMultiplicative(), 4) is True
    assert cl.split_over_K(NonsplitMultiplicative(), 2) is True
    assert cl.split_over_K(NonsplitMultiplicative(), 3) is False
    with pytest.raises(NotMultiplicative):
        cl.split_over_K(reduction_type(E21A4, 2), 4)


# -- per-prime classification ----------------------------------------------------------


def test_classify_prime_paper_values():
    ev3 = cl.classify_prime(E21A4, 5, 3, 4)
    assert ev3.prime_class == cl.CLASS_P1
    assert ev3.split_over_K is True
    assert ev3.torsion_profile is None
    ev2 = cl.classify_prime(E21A4, 5, 2, 4)
    assert ev2.prime_class == cl.CLASS_NEITHER
    assert ev2.torsion_profile is not None
    ev13 = cl.classify_prime(E21A4, 5, 13, 4)
    assert ev13.prime_class == cl.CLASS_NEITHER


@pytest.mark.parametrize(
    "curve,q,f",
    [
        pytest.param(E21A4, 2, 4, id="21a4-q2"),
        pytest.param(A1950Y1, 11, 1, id="1950y1-q11"),
    ],
)
def test_classify_prime_counts_good_q_once(monkeypatch, curve, q, f):
    # the reduction type and the torsion profile share one count of F_q
    counts = Counter()
    original = curve_mod._count_points_prime

    def counting(curve, q):
        counts[q] += 1
        return original(curve, q)

    monkeypatch.setattr(curve_mod, "_count_points_prime", counting)
    ev = cl.classify_prime(curve, 5, q, f)
    assert ev.torsion_profile is not None
    assert counts == {q: 1}


def test_classify_prime_p2_case():
    # A itself has rational 5-torsion, so good primes with f = 1 land in P2
    ev = cl.classify_prime(A1950Y1, 5, 11, 1)
    assert ev.prime_class == cl.CLASS_P2
    assert 1 in ev.torsion_profile.point_degrees


def test_classify_prime_additive_is_neither():
    # E_J0 is additive at 3
    ev = cl.classify_prime(E_J0, 5, 3, 4)
    assert ev.prime_class == cl.CLASS_NEITHER
    assert ev.split_over_K is None and ev.torsion_profile is None


def test_classify_prime_nonsplit_odd_f_is_neither():
    # E is nonsplit multiplicative at 7 and ord_3(7) = 1 is odd
    ev = cl.classify_prime(E21A4, 3, 7, 1)
    assert isinstance(ev.reduction_over_Q, NonsplitMultiplicative)
    assert ev.split_over_K is False
    assert ev.prime_class == cl.CLASS_NEITHER


def test_classify_prime_nonsplit_even_f_is_p1():
    # ord_5(7) = 4 is even, so the twist splits over the unramified quadratic
    ev = cl.classify_prime(E21A4, 5, 7, 4)
    assert isinstance(ev.reduction_over_Q, NonsplitMultiplicative)
    assert ev.split_over_K is True
    assert ev.prime_class == cl.CLASS_P1


def test_evidence_invariants():
    for q in (2, 3, 13):
        f = cl.residue_degree(q, 5)
        ev = cl.classify_prime(E21A4, 5, q, f)
        assert ev.primes_in_K == (5 - 1) // f
        assert ev.primes_in_Kcyc % ev.primes_in_K == 0
        if ev.prime_class == cl.CLASS_P1:
            assert ev.split_over_K is True
        if ev.prime_class == cl.CLASS_P2:
            assert ev.torsion_profile is not None


# -- rank formula -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "rk,n1,n2,expected", [(0, 1, 0, 1), (0, 0, 0, 0), (2, 1, 3, 9)]
)
def test_lambda_H_rank(rk, n1, n2, expected):
    assert cl.lambda_H_rank(rk, n1, n2) == expected


def test_lambda_H_rank_rejects_negative():
    with pytest.raises(ValueError):
        cl.lambda_H_rank(-1, 0, 0)


# -- pro-p check ------------------------------------------------------------------------


def test_pro_p_check():
    assert cl.pro_p_check(A1950Y1, 5) == cl.PRO_P_VERIFIED
    assert cl.pro_p_check(E21A4, 5) == cl.PRO_P_INCONCLUSIVE
    assert cl.pro_p_check(E_J0, 3) == cl.PRO_P_VERIFIED


# -- verdict ----------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n1,n2,lam,mu,ordin,cmfree,expected",
    [
        (1, 0, 0, 0, True, True, cl.VERDICT_FAITHFUL),
        (1, 0, 1, 0, True, True, cl.VERDICT_INCONCLUSIVE),
        (2, 0, 0, 0, True, True, cl.VERDICT_INCONCLUSIVE),
        (1, 1, 0, 0, True, True, cl.VERDICT_INCONCLUSIVE),
        (1, 0, 0, 0, False, True, cl.VERDICT_INCONCLUSIVE),
        (1, 0, 0, 0, True, False, cl.VERDICT_INCONCLUSIVE),
        (1, 0, None, None, True, True, cl.VERDICT_INCONCLUSIVE),
        (0, 0, 0, 0, True, True, cl.VERDICT_INCONCLUSIVE),
    ],
)
def test_faithfulness_verdict(n1, n2, lam, mu, ordin, cmfree, expected):
    assert cl.faithfulness_verdict(n1, n2, lam, mu, ordin, cmfree) == expected


# -- full report --------------------------------------------------------------------------


def test_build_report_paper_example():
    report = cl.build_report(E21A4, A1950Y1, 5, lam=0, mu=0, rk_zp=0)
    assert report.p0 == (2, 3, 13)
    assert report.p1 == (3,)
    assert report.p2 == ()
    assert report.n1_cyc == 1 and report.n2_cyc == 0
    assert report.lambda_h_rank == 1
    assert report.ordinary_ok and report.cm_free_ok
    assert report.pro_p_status == cl.PRO_P_VERIFIED
    assert report.verdict == cl.VERDICT_FAITHFUL
    assert any("conditional" in c for c in report.caveats)


def test_build_report_without_user_invariants():
    report = cl.build_report(E21A4, A1950Y1, 5)
    assert report.lambda_h_rank is None
    assert report.verdict == cl.VERDICT_INCONCLUSIVE
    assert any("not supplied" in c for c in report.caveats)


def test_build_report_deterministic():
    a = cl.build_report(E21A4, A1950Y1, 5, lam=0, mu=0, rk_zp=0)
    b = cl.build_report(E21A4, A1950Y1, 5, lam=0, mu=0, rk_zp=0)
    assert a == b


def test_build_report_p1_p2_subset_p0_disjoint():
    report = cl.build_report(E21A4, A1950Y1, 5, lam=0, mu=0, rk_zp=0)
    assert set(report.p1) <= set(report.p0)
    assert set(report.p2) <= set(report.p0)
    assert not (set(report.p1) & set(report.p2))
    assert report.n1_cyc == sum(
        ev.primes_in_Kcyc for ev in report.evidence if ev.prime_class == cl.CLASS_P1
    )


def test_build_report_divisor_search_degraded(monkeypatch):
    def boom(A, p):
        raise DivisorSearchExhausted("forced")

    monkeypatch.setattr(cl, "rational_p_torsion", boom)
    report = cl.build_report(E21A4, A1950Y1, 5, lam=0, mu=0, rk_zp=0)
    assert report.pro_p_status == cl.PRO_P_INCONCLUSIVE
    assert any("divisor bound" in c for c in report.caveats)


@pytest.mark.parametrize(
    "label_E,label_A,p",
    [("21a4", "37a1", 5), ("11a1", "389a1", 7), ("11a1", "5077a1", 5)],
)
def test_profiles_above_the_field_bound_match_factoring_oracle(label_E, label_A, p):
    # F_(37^4), F_(389^3) and F_(5077^4) are above make_field's bound; the
    # oracle factors psi_p over each, built from its modulus directly
    table = load_registry()
    E = table[label_E]
    report = cl.build_report(E, table[label_A], p)
    profiled = [ev for ev in report.evidence if ev.torsion_profile is not None]
    assert any(ev.q ** ev.f > ENUMERATION_BOUND for ev in profiled)
    for ev in profiled:
        prof = ev.torsion_profile
        pairs = list(zip(prof.x_factor_degrees, prof.point_degrees))
        assert pairs == factoring_profile(E, p, extension_field(ev.q, ev.f))
