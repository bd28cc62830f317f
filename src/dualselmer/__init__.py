"""Desk-scale verification toolkit for the arithmetic hypotheses behind
completely faithful dual Selmer groups: finite-field factorization, curve
reduction data, torsion field degrees, prime classification, Euler factors
and p-adic unit roots."""

__version__ = "0.1.0"

from .arith import (
    ENUMERATION_BOUND,
    FieldContext,
    FqElement,
    FqPoly,
    is_irreducible,
    make_field,
    poly_factor,
    poly_gcd,
)
from .curve import (
    Additive,
    Good,
    Invariants,
    NonsplitMultiplicative,
    ReductionType,
    SplitMultiplicative,
    WeierstrassCurve,
    count_points,
    invariants,
    is_cm,
    is_good_ordinary,
    is_square_in_Qq,
    reduction_type,
)
from .torsion import (
    TorsionDegreeProfile,
    division_poly,
    embed_curve,
    has_p_torsion_in_cyc_tower,
    point_add,
    point_mul,
    point_neg,
    rational_p_torsion,
    torsion_point_degrees,
)
from .classify import (
    ClassificationReport,
    PrimeEvidence,
    bad_primes,
    build_report,
    classify_prime,
    faithfulness_verdict,
    lambda_H_rank,
    p0_set,
    primes_in_Kcyc,
    pro_p_check,
    residue_degree,
    split_over_K,
)
from .lfunc import (
    DeterminantExponents,
    EulerFactor,
    PadicApprox,
    TwistProfile,
    determinant_exponent,
    euler_factor,
    twist_profile,
    unit_root,
)
from . import errors
