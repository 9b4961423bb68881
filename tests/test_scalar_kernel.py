"""The integer-numerator scalar kernel against the original Fraction algorithm.

Random polynomials over dims 1-4 are built from raw term lists that include
zero coefficients, repeated exponent vectors and fractions written with
negative denominators.  Every operation must agree exactly with
``reference_scalars`` and leave the canonical layout: a positive
denominator, no zero numerator, content one, and denominator one for zero.
"""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scalars as ref
from genform import Chart, ChartMismatchError, ScalarField

NAMES = ("x", "y", "z", "w")

kernel_settings = settings(max_examples=150, deadline=None, derandomize=True, database=None)

coefficients = st.one_of(
    st.integers(-40, 40),
    st.builds(Fraction, st.integers(-40, 40), st.integers(-12, 12).filter(bool)),
)


@st.composite
def term_lists(draw, dim):
    exponents = st.tuples(*[st.integers(0, 3)] * dim)
    terms = draw(st.lists(st.tuples(exponents, coefficients), max_size=6))
    # repeat some exponent vectors so that merging and cancellation happen
    for exps, coeff in list(terms):
        if draw(st.booleans()):
            terms.append((exps, draw(st.sampled_from([-coeff, coeff, 0]))))
    return terms


@st.composite
def cases(draw, operands=2):
    dim = draw(st.integers(1, 4))
    k = draw(coefficients)
    chart = Chart(NAMES[:dim], k)
    lists = [draw(term_lists(dim)) for _ in range(operands)]
    return chart, lists


def _build(chart, pairs, public_dict):
    """Either construction path: the raw list, or a dict of merged coefficients."""
    if not public_dict:
        return ScalarField.from_terms(chart, pairs)
    merged = {}
    for exps, coeff in pairs:
        merged[exps] = merged.get(exps, 0) + coeff
    return ScalarField(chart, merged)


def assert_canonical(f):
    num, den = f._num, f._den
    assert type(den) is int and den > 0
    assert all(type(c) is int and c != 0 for c in num.values())
    assert math.gcd(den, *num.values()) == 1
    if not num:
        assert den == 1


def assert_matches(f, expected, chart):
    assert_canonical(f)
    assert f.terms == expected
    assert dict(f.terms) == expected
    assert len(f.terms) == len(expected)
    assert all(type(c) is Fraction for c in f.terms.values())
    assert str(f) == ref.poly_str(chart.names, expected)
    assert f == ScalarField(chart, expected)
    assert f.is_zero == (not expected)


@kernel_settings
@given(cases(), st.booleans())
def test_construction_matches_reference(case, public_dict):
    chart, (pairs, _) = case
    assert_matches(_build(chart, pairs, public_dict), ref.normalize(chart.dim, pairs), chart)


@kernel_settings
@given(cases(), st.booleans())
def test_ring_operations_match_reference(case, public_dict):
    chart, (pa, pb) = case
    a, b = _build(chart, pa, public_dict), _build(chart, pb, not public_dict)
    ra, rb = ref.normalize(chart.dim, pa), ref.normalize(chart.dim, pb)
    assert_matches(a + b, ref.add(ra, rb), chart)
    assert_matches(a - b, ref.sub(ra, rb), chart)
    assert_matches(-a, ref.neg(ra), chart)
    assert_matches(a * b, ref.mul(ra, rb), chart)
    assert_matches(a * a, ref.mul(ra, ra), chart)
    # the cross terms of (a + b)(a - b) cancel inside the product
    assert_matches((a + b) * (a - b), ref.mul(ref.add(ra, rb), ref.sub(ra, rb)), chart)
    assert (a == b) == (ra == rb)
    assert (a - a).is_zero


@kernel_settings
@given(cases(operands=1), coefficients)
def test_rational_operands_match_reference(case, q):
    chart, (pairs,) = case
    a = ScalarField.from_terms(chart, pairs)
    ra = ref.normalize(chart.dim, pairs)
    rq = ref.normalize(chart.dim, [((0,) * chart.dim, q)])
    assert_matches(a * q, ref.mul(ra, rq), chart)
    assert_matches(q * a, ref.mul(rq, ra), chart)
    assert_matches(a + q, ref.add(ra, rq), chart)
    assert_matches(q + a, ref.add(rq, ra), chart)
    assert_matches(a - q, ref.sub(ra, rq), chart)
    assert_matches(q - a, ref.sub(rq, ra), chart)
    assert_matches(chart.constant(q), rq, chart)


@kernel_settings
@given(cases(operands=1), st.data())
def test_diff_and_eval_match_reference(case, data):
    chart, (pairs,) = case
    a = ScalarField.from_terms(chart, pairs)
    ra = ref.normalize(chart.dim, pairs)
    for coord in range(chart.dim):
        assert_matches(a.diff(coord), ref.diff(ra, coord), chart)
    point = data.draw(st.lists(coefficients, min_size=chart.dim, max_size=chart.dim))
    value = a.eval_at(point)
    assert type(value) is Fraction
    assert value == ref.eval_at(ra, point)


def test_coordinates_and_constants_are_canonical():
    chart = Chart(NAMES)
    for i in range(4):
        assert_matches(chart.coordinate(i), {tuple(int(j == i) for j in range(4)): 1}, chart)
    assert_matches(chart.constant(Fraction(6, -4)), {(0, 0, 0, 0): Fraction(-3, 2)}, chart)
    assert_matches(chart.constant(0), {}, chart)
    assert_matches(chart.constant(Fraction(0, 7)), {}, chart)


def test_public_constructor_keeps_its_checks():
    chart = Chart(("x", "y"))
    with pytest.raises(ChartMismatchError):
        ScalarField.from_terms(chart, [((1, 0), 1), ((1,), 2)])
    f = ScalarField(chart, {(1, 0): "3/6", (0, 1): 0, (0, 0): Fraction(-4, 8)})
    assert f.terms == {(1, 0): Fraction(1, 2), (0, 0): Fraction(-1, 2)}
    assert (f._num, f._den) == ({(1, 0): 1, (0, 0): -1}, 2)


def test_values_stay_immutable_and_copyable():
    chart = Chart(("x", "y"), Fraction(1, 3))
    x, y = chart.coordinates()
    f = Fraction(2, 3) * x * y - 5
    for name in ("chart", "_num", "_den", "terms", "other"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
    with pytest.raises(TypeError):
        f.terms[(1, 1)] = 1
    assert f.terms is not f.terms  # a fresh view on every access
    with pytest.raises(TypeError):
        hash(f)
    assert copy.copy(f) == f
    assert copy.deepcopy(f) == f
    assert pickle.loads(pickle.dumps(f)) == f
