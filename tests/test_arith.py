import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from dualselmer.arith import (
    FieldContext,
    FqPoly,
    is_irreducible,
    make_field,
    poly_factor,
    poly_gcd,
    trace_mod,
)
from dualselmer.errors import (
    DegreeOutOfRange,
    FieldTooLarge,
    MixedContexts,
    NotPrime,
    ZeroPolynomial,
)

from helpers import (
    brute_force_factor,
    monic_polys,
    product_of_factors,
    quadratic_has_root,
)


# -- make_field ---------------------------------------------------------------


def test_prime_field_context():
    F = make_field(5, 1)
    assert F.q == 5 and F.k == 1 and F.modulus is None
    assert F.cardinality == 5


def test_f16_modulus_is_x4_plus_x_plus_1():
    F = make_field(2, 4)
    assert F.modulus == (1, 1, 0, 0, 1)


def test_f16_modulus_is_first_irreducible_quartic():
    # exhaustive check: x^4 + x + 1 has no divisor of degree <= 2, and every
    # earlier quartic in the encoding order has one
    prime = make_field(2, 1)

    def divisible_by_small(candidate):
        for d in (1, 2):
            for g in monic_polys(prime, d):
                if (candidate % g).is_zero():
                    return True
        return False

    target_index = None
    for idx in range(2 ** 4):
        low = [(idx >> i) & 1 for i in range(4)]
        candidate = FqPoly.from_ints(prime, low + [1])
        if not divisible_by_small(candidate):
            target_index = idx
            break
    assert target_index == 0b0011  # x^4 + x + 1
    F = make_field(2, 4)
    assert list(F.modulus) == [1, 1, 0, 0, 1]


def test_f13_4_modulus_frozen():
    assert make_field(13, 4).modulus == (2, 0, 0, 0, 1)


def test_make_field_rejects_composite():
    with pytest.raises(NotPrime):
        make_field(4, 2)


@pytest.mark.parametrize("q,k", [(2, 0), (5, -1), (2, 21), (997, 3)])
def test_make_field_degree_out_of_range(q, k):
    with pytest.raises(DegreeOutOfRange):
        make_field(q, k)


def test_make_field_prime_field_has_no_bound():
    # F_q needs no modulus search; enumerating it still meets the bound
    q = 10 ** 12 - 11
    field = make_field(q, 1)
    assert (field.q, field.k, field.modulus) == (q, 1, None)
    with pytest.raises(FieldTooLarge):
        next(field.elements())


# -- element arithmetic ---------------------------------------------------------


def _field_elements_by_index(field):
    return [field.from_index(i) for i in range(field.cardinality)]


@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_field_axioms_f27(i, j, k):
    F = make_field(3, 3)
    a, b, c = F.from_index(i), F.from_index(j), F.from_index(k)
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == F.zero()
    if not a.is_zero():
        assert a * a.inverse() == F.one()


@given(st.integers(0, 15), st.integers(1, 15))
def test_pow_matches_repeated_multiplication(i, e):
    F = make_field(2, 4)
    a = F.from_index(i)
    acc = F.one()
    for _ in range(e):
        acc = acc * a
    assert a ** e == acc


def test_mixed_contexts_rejected():
    a = make_field(2, 4).one()
    b = make_field(3, 1).one()
    with pytest.raises(MixedContexts):
        _ = a + b


# -- quadratic equations -----------------------------------------------------------


def _has_root(beta, gamma):
    # quadratic_has_root on constants, in F[x]/(x) = F
    return quadratic_has_root(
        FqPoly(beta.field, (beta,)), FqPoly(gamma.field, (gamma,)), FqPoly.x(beta.field)
    )


def test_quadratic_f5_example():
    F = make_field(5, 1)
    assert _has_root(F.zero(), F.embed(-4))  # y^2 - 4 = (y - 2)(y - 3)
    assert not _has_root(F.zero(), F.embed(-2))  # 2 is not a square mod 5


def test_quadratic_f2_no_roots():
    F = make_field(2, 1)
    assert not _has_root(F.one(), F.one())  # y^2 + y + 1


@pytest.mark.parametrize("gamma", [0, 1])
def test_quadratic_f2_beta_zero_single_root(gamma):
    F = make_field(2, 1)
    g = F.embed(gamma)
    assert _has_root(F.zero(), g)
    assert [y for y in F.elements() if y * y == g] == [g]


def test_quadratic_mixed_contexts():
    with pytest.raises(MixedContexts):
        _has_root(make_field(2, 2).one(), make_field(2, 3).one())


def _all_fields_up_to(bound):
    fields = []
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79):
        k = 1
        while q ** k <= bound:
            fields.append(make_field(q, k))
            k += 1
    return fields


@pytest.mark.parametrize(
    "field", _all_fields_up_to(81), ids=lambda f: f"F_{f.q}^{f.k}"
)
def test_quadratic_agrees_with_enumeration(field):
    # exhaustive oracle: tabulate y^2 and beta*y products as indices, then
    # check every (beta, gamma) pair against direct enumeration of y, as
    # constants mod x over the field itself.  For k > 1 the pairs with
    # beta in {0, 1, x} are also asked as polynomials of degree < k over F_q
    # modulo the field's modulus, the F_Q[x]/(factor) form in which point
    # degrees are decided; with every gamma they reach every discriminant
    # beta^2 - 4 gamma (odd q) and every gamma/beta^2 (q = 2)
    elems = [field.from_index(i) for i in range(field.cardinality)]
    index = {e: i for i, e in enumerate(elems)}
    mul = [[index[a * b] for b in elems] for a in elems]
    add = [[index[a + b] for b in elems] for a in elems]
    squares = [mul[i][i] for i in range(len(elems))]
    zero = index[field.zero()]
    prime = make_field(field.q, 1)
    if field.k > 1:
        modulus = FqPoly.from_ints(prime, field.modulus)
    for bi in range(len(elems)):
        row = mul[bi]
        for gi in range(len(elems)):
            solvable = any(
                add[add[squares[yi]][row[yi]]][gi] == zero
                for yi in range(len(elems))
            )
            assert _has_root(elems[bi], elems[gi]) == solvable
            if field.k > 1 and bi in (0, 1, field.q):
                beta, gamma = (FqPoly.from_ints(prime, elems[i].coeffs)
                               for i in (bi, gi))
                assert quadratic_has_root(beta, gamma, modulus) == solvable


# -- irreducibility ---------------------------------------------------------------


def test_irreducible_examples():
    F3 = make_field(3, 1)
    F5 = make_field(5, 1)
    assert is_irreducible(FqPoly.from_ints(F3, [1, 0, 1]))
    assert not is_irreducible(FqPoly.from_ints(F5, [1, 0, 1]))
    F2 = make_field(2, 1)
    assert is_irreducible(FqPoly.from_ints(F2, [1, 1, 0, 0, 1]))


def test_irreducible_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        is_irreducible(FqPoly(make_field(2, 1), ()))


def test_irreducible_agrees_with_trial_division():
    F = make_field(3, 1)
    for f in monic_polys(F, 4):
        has_divisor = any(
            (f % g).is_zero() for d in (1, 2) for g in monic_polys(F, d)
        )
        assert is_irreducible(f) == (not has_divisor)


# -- factorization ----------------------------------------------------------------


def test_factor_difference_of_squares():
    F = make_field(5, 1)
    f = FqPoly.from_ints(F, [-1, 0, 1])
    factors = poly_factor(f)
    assert {(g.coeffs[0].coeffs[0], m) for g, m in factors} == {(1, 1), (4, 1)}
    assert all(g.degree == 1 for g, _ in factors)


def test_factor_perfect_square():
    F = make_field(3, 1)
    f = FqPoly.from_ints(F, [1, 2, 1])  # (x+1)^2
    factors = poly_factor(f)
    assert len(factors) == 1
    g, mult = factors[0]
    assert mult == 2 and g == FqPoly.from_ints(F, [1, 1])


def test_factor_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        poly_factor(FqPoly(make_field(2, 1), ()))


def test_factor_deterministic():
    F = make_field(7, 1)
    f = FqPoly.from_ints(F, [3, 1, 4, 1, 5, 0, 2, 1])
    assert poly_factor(f) == poly_factor(f)


def test_factor_high_multiplicity_char_p():
    # (x+1)^9 over F_3 exercises the q-th-root branch twice
    F = make_field(3, 1)
    xp1 = FqPoly.from_ints(F, [1, 1])
    f = FqPoly.from_ints(F, [1])
    for _ in range(9):
        f = f * xp1
    assert poly_factor(f) == ((xp1, 9),)


# smaller always-on slice of the acceptance oracle suite
_ORACLE_FIELDS = [
    (make_field(2, 1), 6),
    (make_field(3, 1), 5),
    (make_field(2, 2), 4),
    (make_field(5, 1), 4),
    (make_field(7, 1), 3),
    (make_field(2, 3), 3),
    (make_field(3, 2), 3),
    (make_field(13, 1), 3),
    (make_field(2, 4), 3),
]


def random_poly(field, degree, rng):
    coeffs = [field.from_index(rng.randrange(field.cardinality)) for _ in range(degree)]
    coeffs.append(field.from_index(rng.randrange(1, field.cardinality)))
    return FqPoly(field, tuple(coeffs))


def test_factor_matches_brute_force_sample():
    rng = random.Random(20240817)
    checked = 0
    for field, dmax in _ORACLE_FIELDS:
        for _ in range(5):
            degree = rng.randrange(2, 2 * dmax + 1)
            f = random_poly(field, degree, rng)
            if rng.random() < 0.3:
                f = f * f  # force multiplicity
                if f.degree > 2 * dmax:
                    f = random_poly(field, dmax, rng)
            expected = brute_force_factor(f, dmax)
            got = poly_factor(f)
            assert dict(got) == expected
            assert all(is_irreducible(g) for g, _ in got)
            assert product_of_factors(field, got, f.leading) == f
            checked += 1
    assert checked >= 40


@given(st.integers(0, 3 ** 4 - 1), st.integers(0, 3 ** 4 - 1))
@settings(max_examples=60)
def test_poly_product_degree_additive(i, j):
    # integral domain: degrees add
    F = make_field(3, 2)
    a = FqPoly(F, tuple(F.from_index((i >> (2 * t)) % 9) for t in range(2)) + (F.one(),))
    b = FqPoly(F, tuple(F.from_index((j >> (2 * t)) % 9) for t in range(2)) + (F.one(),))
    assert (a * b).degree == a.degree + b.degree


def test_gcd_monic():
    F = make_field(5, 1)
    f = FqPoly.from_ints(F, [-1, 0, 1])
    g = FqPoly.from_ints(F, [1, 1]).scale(F.embed(3))
    h = poly_gcd(f, g)
    assert h == FqPoly.from_ints(F, [1, 1])


def test_pow_mod_rejects_negative_exponent():
    F = make_field(5, 1)
    mod = FqPoly.from_ints(F, [2, 0, 1])
    with pytest.raises(ValueError, match="-1"):
        FqPoly.x(F).pow_mod(-1, mod)


def test_pow_mod_zero_exponent_is_one():
    F = make_field(2, 1)
    mod = FqPoly.from_ints(F, [1, 1])
    assert FqPoly.x(F).pow_mod(0, mod) == FqPoly.from_ints(F, [1])


def test_trace_mod_matches_element_trace():
    # F_2[x]/(x^4 + x + 1) is F_16: trace_mod of a residue equals the
    # element trace sum_i c^(2^i) computed in make_field(2, 4)
    F2, F16 = make_field(2, 1), make_field(2, 4)
    mod = FqPoly.from_ints(F2, F16.modulus)
    traces = set()
    for c in F16.elements():
        tr = c + c ** 2 + c ** 4 + c ** 8
        assert tr in (F16.zero(), F16.one())
        got = trace_mod(FqPoly.from_ints(F2, c.coeffs), mod, 4)
        assert got == FqPoly.from_ints(F2, [tr.coeffs[0]])
        traces.add(tr)
    assert len(traces) == 2
