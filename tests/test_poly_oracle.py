"""Differential tests of FqPoly arithmetic (Kronecker products, Barrett
pow_mod, packed folding by the field modulus, schoolbook division) against
the FqElement schoolbook oracle in helpers."""
import pytest
from hypothesis import given, settings, strategies as st

from dualselmer.arith import FieldContext, FqPoly, make_field, trace_mod

from helpers import (
    schoolbook_add,
    schoolbook_divmod,
    schoolbook_mul,
    schoolbook_pow_mod,
)

# the canonical fields, built from their moduli so that a fault in the
# arithmetic under test cannot stop the module from loading
F5077 = FieldContext(5077)
F389_2 = FieldContext(389, (2, 0, 1))
F13_4 = FieldContext(13, (2, 0, 0, 0, 1))
FIELDS = [
    FieldContext(2),
    FieldContext(2, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
    FieldContext(3, (2, 1, 0, 0, 0, 0, 1)),
    F13_4,
    F389_2,
    F5077,
    FieldContext(2 ** 61 - 1),  # slots wider than 8 bytes
]


def test_fields_are_canonical():
    for field in FIELDS[:-1]:
        assert field == make_field(field.q, field.k)


def _coeffs(draw, field, max_len, worst):
    # F_5077 draws every coefficient as q - 1 when worst: the largest slot
    # sums a product can reach
    n = draw(st.integers(0, max_len))
    if worst:
        return (field.embed(-1),) * n
    top = field.cardinality - 1
    return tuple(field.from_index(draw(st.integers(0, top))) for _ in range(n))


@st.composite
def cases(draw):
    field = draw(st.sampled_from(FIELDS))
    worst = field is F5077 and draw(st.booleans())
    a = _coeffs(draw, field, 9, worst)
    b = _coeffs(draw, field, 9, worst)
    m = _coeffs(draw, field, 8, worst)
    if draw(st.booleans()):
        m = m + (field.one(),)  # monic modulus
    e = draw(st.sampled_from([0, 1, None]))
    if e is None:
        e = draw(st.integers(2, 2 ** 70))
    return field, a, b, m, e


@given(cases())
@settings(max_examples=150, deadline=None)
def test_poly_arithmetic_matches_schoolbook(case):
    field, a, b, m, e = case
    pa, pb, pm = FqPoly(field, a), FqPoly(field, b), FqPoly(field, m)
    assert (pa * pb).coeffs == schoolbook_mul(field, a, b)
    if not pb.is_zero():
        quo, rem = divmod(pa, pb)
        assert (quo.coeffs, rem.coeffs) == schoolbook_divmod(field, a, b)
    if not pm.is_zero():
        assert pa.pow_mod(e, pm).coeffs == schoolbook_pow_mod(field, a, e, m)
        want = term = schoolbook_divmod(field, a, m)[1]
        for _ in range(3):
            term = schoolbook_divmod(field, schoolbook_mul(field, term, term), m)[1]
            want = schoolbook_add(field, want, term)
        assert trace_mod(pa, pm, 4).coeffs == want


@pytest.mark.parametrize(
    "field,n",
    [(F5077, n) for n in (1, 2, 40, 150, 166, 167, 200)]
    + [(F389_2, 40), (F389_2, 80), (F13_4, 20), (F13_4, 60)],
)
def test_worst_case_slots(field, n):
    # every digit q - 1: for F_5077 the slot sums n*(q - 1)^2 of a square
    # cross 32 bits at n = 167; in the extension fields the fold by the
    # modulus multiplies them further
    top = field.element([field.q - 1] * field.k)
    a = (top,) * n
    m = a + (field.one(),)  # a is its own residue mod m
    assert (FqPoly(field, a) * FqPoly(field, a)).coeffs == schoolbook_mul(field, a, a)
    for e in (2, 3):
        assert (
            FqPoly(field, a).pow_mod(e, FqPoly(field, m)).coeffs
            == schoolbook_pow_mod(field, a, e, m)
        )
