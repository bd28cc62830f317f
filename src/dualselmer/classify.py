"""Prime classification over K = Q(mu_p): the sets P0/P1/P2, prime-splitting
counts in K and its cyclotomic Z_p-tower, the Lambda(H)-rank formula, the
pro-p check and the faithfulness verdict.

All number-field data reduces to the residue degree f = ord_p(q) and the
valuation v_p(q^f - 1); no general number-field arithmetic is involved.
"""
from __future__ import annotations

from dataclasses import dataclass

from .curve import (
    Additive,
    Good,
    NonsplitMultiplicative,
    ReductionType,
    SplitMultiplicative,
    WeierstrassCurve,
    check_minimal_at,
    is_cm,
    is_good_ordinary,
    reduction_type,
)
from .errors import (
    DivisorSearchExhausted,
    NotMultiplicative,
    NotPrime,
)
from .integers import (
    check_distinct_primes,
    factorize,
    is_prime,
    multiplicative_order,
)
from .torsion import (
    TorsionDegreeProfile,
    has_p_power_point_degree,
    rational_p_torsion,
    torsion_point_degrees,
)

CLASS_P1 = "P1"
CLASS_P2 = "P2"
CLASS_NEITHER = "Neither"

PRO_P_VERIFIED = "Verified"
PRO_P_INCONCLUSIVE = "Inconclusive"

VERDICT_FAITHFUL = "CompletelyFaithfulConditional"
VERDICT_INCONCLUSIVE = "Inconclusive"

# The tower-torsion criterion is applied to the curve whose Selmer group is
# studied (E), not to the curve A generating the extension.
TORSION_SIDE_NOTE = (
    "the P2 torsion criterion is evaluated on E, the curve whose Selmer "
    "group is studied"
)


@dataclass(frozen=True)
class PrimeEvidence:
    """Everything recorded about one prime q of P0."""

    q: int
    f: int
    reduction_over_Q: ReductionType
    split_over_K: bool | None
    torsion_profile: TorsionDegreeProfile | None
    prime_class: str
    primes_in_K: int
    primes_in_Kcyc: int


@dataclass(frozen=True)
class ClassificationReport:
    curve_E: WeierstrassCurve
    curve_A: WeierstrassCurve
    label_E: str | None
    label_A: str | None
    p: int
    evidence: tuple[PrimeEvidence, ...]
    p0: tuple[int, ...]
    p1: tuple[int, ...]
    p2: tuple[int, ...]
    n1_cyc: int
    n2_cyc: int
    ordinary_ok: bool
    cm_free_ok: bool
    pro_p_status: str
    lam: int | None
    mu: int | None
    rk_zp: int | None
    lambda_h_rank: int | None
    verdict: str
    caveats: tuple[str, ...]


def bad_primes(curve: WeierstrassCurve) -> frozenset[int]:
    """Primes dividing the minimal discriminant, by trial division plus a
    primality certificate on the residual."""
    fac = factorize(curve.discriminant)
    for q in fac:
        check_minimal_at(curve, q)
    return frozenset(fac)


def p0_set(A: WeierstrassCurve, p: int) -> frozenset[int]:
    """Bad primes of A away from p: the primes ramifying infinitely in the
    extension generated by A's p-power torsion, apart from p itself."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return bad_primes(A) - {p}


def residue_degree(q: int, p: int) -> int:
    """Residue degree of q in Q(mu_p): the multiplicative order of q mod p."""
    check_distinct_primes(q, p)
    return multiplicative_order(q, p)


def split_over_K(reduction: ReductionType, f: int) -> bool:
    """Whether multiplicative reduction becomes split over the completion of
    K = Q(mu_p).

    Nonsplit reduction splits exactly over the quadratic unramified
    extension, which lies below the completion iff f is even; the pro-p
    tower on top contributes no quadratic subextension for p >= 5.
    """
    if isinstance(reduction, SplitMultiplicative):
        return True
    if isinstance(reduction, NonsplitMultiplicative):
        return f % 2 == 0
    raise NotMultiplicative(f"reduction {reduction!r} is not multiplicative")


def primes_in_K(q: int, p: int) -> int:
    """Number of primes of Q(mu_p) above q (q unramified, e = 1)."""
    return (p - 1) // residue_degree(q, p)


def primes_in_Kcyc(q: int, p: int) -> int:
    """Number of primes of the cyclotomic Z_p-tower K^cyc above q.

    The Frobenius at q generates the closure of <q^f> in 1 + pZ_p, whose
    index in the tower's Galois group is p^(v_p(q^f - 1) - 1).
    """
    check_distinct_primes(q, p)
    f = multiplicative_order(q, p)
    v = 1
    while pow(q, f, p ** (v + 1)) == 1:
        v += 1
    return ((p - 1) // f) * p ** (v - 1)


def classify_prime(E: WeierstrassCurve, p: int, q: int, f: int) -> PrimeEvidence:
    """Assign q to P1, P2 or Neither and collect the supporting evidence.

    P1 needs multiplicative reduction that is split over K_v; P2 needs good
    reduction with p-torsion appearing along the cyclotomic tower of the
    residue field, decided from the Frobenius class on E[p] with the trace
    a_q that the reduction type already carries.  Additive reduction is
    always Neither for p >= 5: the semistability defect divides 12, which is
    coprime to p, so the type is unchanged along the pro-p tower.
    """
    check_distinct_primes(q, p)
    red = reduction_type(E, q)
    split: bool | None = None
    profile: TorsionDegreeProfile | None = None
    prime_class = CLASS_NEITHER
    if isinstance(red, (SplitMultiplicative, NonsplitMultiplicative)):
        split = split_over_K(red, f)
        if split:
            prime_class = CLASS_P1
    elif isinstance(red, Good):
        profile = torsion_point_degrees(E, p, q, f, a_q=red.trace)
        if has_p_power_point_degree(profile):
            prime_class = CLASS_P2
    else:
        assert isinstance(red, Additive)
    return PrimeEvidence(
        q=q,
        f=f,
        reduction_over_Q=red,
        split_over_K=split,
        torsion_profile=profile,
        prime_class=prime_class,
        primes_in_K=(p - 1) // f,
        primes_in_Kcyc=primes_in_Kcyc(q, p),
    )


def lambda_H_rank(rk_zp: int, n1_cyc: int, n2_cyc: int) -> int:
    """rk_Zp + |P1(K^cyc)| + 2 |P2(K^cyc)|."""
    if min(rk_zp, n1_cyc, n2_cyc) < 0:
        raise ValueError("rank inputs must be nonnegative")
    return rk_zp + n1_cyc + 2 * n2_cyc


def pro_p_check(A: WeierstrassCurve, p: int) -> str:
    """Verified when a Q-rational point of exact order p is found on A.

    Such a point pins a Galois-fixed line in A[p], so the torsion field of A
    over Q(mu_p) is a p-extension and the whole tower is pro-p.  A failed
    search is only Inconclusive: K-rational torsion would also suffice but
    is not searched.
    """
    point = rational_p_torsion(A, p)
    return PRO_P_VERIFIED if point is not None else PRO_P_INCONCLUSIVE


def faithfulness_verdict(
    n1_cyc: int,
    n2_cyc: int,
    lam: int | None,
    mu: int | None,
    ordinary_ok: bool,
    cm_free_ok: bool,
) -> str:
    """CompletelyFaithfulConditional iff n1 = 1, n2 = 0, lambda = mu = 0 and
    the ordinary/CM-free hypotheses hold; the lambda/mu inputs are always
    user-supplied, so the verdict stays conditional."""
    if (
        n1_cyc == 1
        and n2_cyc == 0
        and lam == 0
        and mu == 0
        and ordinary_ok
        and cm_free_ok
    ):
        return VERDICT_FAITHFUL
    return VERDICT_INCONCLUSIVE


def build_report(
    E: WeierstrassCurve,
    A: WeierstrassCurve,
    p: int,
    lam: int | None = None,
    mu: int | None = None,
    rk_zp: int | None = None,
    label_E: str | None = None,
    label_A: str | None = None,
    extra_caveats: tuple[str, ...] = (),
    ordinary_ok: bool | None = None,
    cm_free_ok: bool | None = None,
) -> ClassificationReport:
    """Run the whole classification pipeline and assemble the report.

    ordinary_ok (E good ordinary at p) and cm_free_ok (neither curve has CM)
    are decided here unless the caller has already decided them."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if ordinary_ok is None:
        ordinary_ok = is_good_ordinary(E, p)
    if cm_free_ok is None:
        cm_free_ok = is_cm(E) is None and is_cm(A) is None
    caveats: list[str] = list(extra_caveats)
    try:
        pro_p_status = pro_p_check(A, p)
    except DivisorSearchExhausted:
        pro_p_status = PRO_P_INCONCLUSIVE
        caveats.append(
            "rational torsion search exceeded its divisor bound; "
            "pro-p status downgraded to Inconclusive"
        )
    p0 = tuple(sorted(p0_set(A, p)))
    evidence = tuple(classify_prime(E, p, q, residue_degree(q, p)) for q in p0)
    p1 = tuple(ev.q for ev in evidence if ev.prime_class == CLASS_P1)
    p2 = tuple(ev.q for ev in evidence if ev.prime_class == CLASS_P2)
    n1_cyc = sum(ev.primes_in_Kcyc for ev in evidence if ev.prime_class == CLASS_P1)
    n2_cyc = sum(ev.primes_in_Kcyc for ev in evidence if ev.prime_class == CLASS_P2)
    rank = lambda_H_rank(rk_zp, n1_cyc, n2_cyc) if rk_zp is not None else None
    verdict = faithfulness_verdict(n1_cyc, n2_cyc, lam, mu, ordinary_ok, cm_free_ok)
    if lam is None or mu is None or rk_zp is None:
        caveats.append(
            "lambda, mu and rk_zp were not supplied; the verdict is "
            "Inconclusive without them"
        )
    else:
        caveats.append(
            "the verdict is conditional on the user-supplied invariants "
            "lambda, mu and rk_zp, which this tool does not compute"
        )
    caveats.append(TORSION_SIDE_NOTE)
    return ClassificationReport(
        curve_E=E,
        curve_A=A,
        label_E=label_E,
        label_A=label_A,
        p=p,
        evidence=evidence,
        p0=p0,
        p1=p1,
        p2=p2,
        n1_cyc=n1_cyc,
        n2_cyc=n2_cyc,
        ordinary_ok=ordinary_ok,
        cm_free_ok=cm_free_ok,
        pro_p_status=pro_p_status,
        lam=lam,
        mu=mu,
        rk_zp=rk_zp,
        lambda_h_rank=rank,
        verdict=verdict,
        caveats=tuple(caveats),
    )
