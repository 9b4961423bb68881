"""The integer-numerator scalar kernel against the original Fraction algorithm.

Random polynomials over dims 1-4 are built from raw term lists that include
zero coefficients, repeated exponent vectors and fractions written with
negative denominators.  Every operation must agree exactly with
``reference_scalars`` and leave the canonical layout: a positive
denominator, no zero numerator, content one, and denominator one for zero.
The monomial builder ``_from_monomials``, which every construction from
(numerator, denominator, exponents) triples goes through, gets the same term
lists.

The fused sum-of-products kernel is checked the same way, and the form and
vector operations built on it are checked against naive term-by-term
versions kept here, which only use the public constructors and ``+ - *``.
The kernel is compiled per dimension, so it and scalar ``*`` are also
checked at every dimension the harness serves (1 to
``harness.MAX_DIMENSION``) and on one 12-coordinate chart, with plain
products sign * a * b and derivative products sign * a * d_i b mixed, and
on targeted cases of each path of the compiled code.
"""

import copy
import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scalars as ref
from genform import Chart, ChartMismatchError, Form, ScalarField, VectorField
from genform.harness import MAX_DIMENSION
from genform.scalars import _from_monomials, _kernel_for, _sum_products

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
    expected = ref.normalize(chart.dim, pairs)
    assert_matches(_build(chart, pairs, public_dict), expected, chart)
    monomials = [(Fraction(c).numerator, Fraction(c).denominator, exps) for exps, c in pairs]
    assert_matches(_from_monomials(chart, monomials), expected, chart)


def test_from_monomials_matches_reference_on_edge_cases():
    chart = Chart(("x", "y"))
    x, y, one = (1, 0), (0, 1), (0, 0)
    for monomials in [
        [],
        [(0, 1, x), (0, 7, one)],                      # zero numerators only
        [(1, 2, x), (-3, 6, x)],                       # a cancelling sum over mixed denominators
        [(1, 2, x), (1, 3, x), (1, 6, x)],             # repeated exponents summing to a whole x
        [(2, 4, x), (3, 9, y), (0, 5, one), (-5, 1, one), (1, 4, y), (-1, 4, y)],
        [(6, 4, x), (3, 2, y)],                        # a common factor to divide out
    ]:
        expected = ref.normalize(2, [(exps, Fraction(num, den)) for num, den, exps in monomials])
        assert_matches(_from_monomials(chart, monomials), expected, chart)
    assert _from_monomials(chart, [(1, 2, x), (1, 3, x), (1, 6, x)]) == chart.coordinate(0)


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


def _trivial_or_general(dim):
    """Term lists of a general polynomial, or of the constant 0, 1 or -1."""
    origin = (0,) * dim
    return st.one_of(term_lists(dim), st.sampled_from([[], [(origin, 1)], [(origin, -1)]]))


@kernel_settings
@given(st.integers(1, 4), st.sampled_from([Fraction(0), Fraction(-2, 3)]), st.data())
def test_zero_and_one_operands_match_reference(dim, k, data):
    """A product by the scalar constant 0, 1 or -1 (one kernel product) or by
    the rational 0 or 1, and a sum with 0 (which returns the other operand),
    must give what the reference gives, on the operands' chart, and must
    still refuse an operand on another chart."""
    chart = Chart(NAMES[:dim], k)
    pairs = data.draw(_trivial_or_general(dim))
    f = ScalarField.from_terms(chart, pairs)
    rf = ref.normalize(dim, pairs)
    origin = (0,) * dim
    r0, r1, rm1 = {}, {origin: Fraction(1)}, {origin: Fraction(-1)}
    zero, one, minus_one = chart.constant(0), chart.constant(1), chart.constant(-1)
    results = [
        (f * one, ref.mul(rf, r1)), (one * f, ref.mul(r1, rf)),
        (f * zero, ref.mul(rf, r0)), (zero * f, ref.mul(r0, rf)),
        (f * minus_one, ref.mul(rf, rm1)), (minus_one * f, ref.mul(rm1, rf)),
        (f * 1, ref.mul(rf, r1)), (1 * f, ref.mul(r1, rf)),
        (f * 0, ref.mul(rf, r0)), (0 * f, ref.mul(r0, rf)),
        (f * Fraction(1), ref.mul(rf, r1)), (Fraction(1) * f, ref.mul(r1, rf)),
        (f * Fraction(0), ref.mul(rf, r0)), (Fraction(0) * f, ref.mul(r0, rf)),
        (f + 0, ref.add(rf, r0)), (0 + f, ref.add(r0, rf)),
        (f - 0, ref.sub(rf, r0)), (0 - f, ref.sub(r0, rf)),
        (f + zero, ref.add(rf, r0)), (zero + f, ref.add(r0, rf)),
        (f - zero, ref.sub(rf, r0)), (zero - f, ref.sub(r0, rf)),
    ]
    for got, expected in results:
        assert type(got) is ScalarField
        assert got.chart == chart
        assert_matches(got, expected, chart)
    others = [Chart(NAMES[:dim], k + 1), Chart(tuple(n.upper() for n in NAMES[:dim]), k)]
    for other in others:
        for trivial in (other.constant(0), other.constant(1), other.constant(-1)):
            for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b):
                with pytest.raises(ChartMismatchError):
                    op(f, trivial)
                with pytest.raises(ChartMismatchError):
                    op(trivial, f)


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


wide_values = st.one_of(
    coefficients,
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30)),
)


@kernel_settings
@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(
    st.lists(st.tuples(st.tuples(*[st.integers(0, 12)] * dim), coefficients), max_size=12),
    st.lists(wide_values, min_size=dim, max_size=dim))))
def test_eval_at_matches_a_plain_fraction_sum(case):
    pairs, point = case
    a = ScalarField.from_terms(Chart(NAMES[:len(point)]), pairs)
    total = Fraction(0)
    for exps, c in a.terms.items():
        for e, v in zip(exps, point):
            c *= Fraction(v) ** e
        total += c
    value = a.eval_at(point)
    assert type(value) is Fraction
    assert value == total


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
    # both constructors check a pair's exponent vector before its coefficient
    for build in (lambda pairs: ScalarField(chart, dict(pairs)),
                  lambda pairs: ScalarField.from_terms(chart, pairs)):
        with pytest.raises(ChartMismatchError):
            build([((1,), "not a number")])
        with pytest.raises(ValueError):
            build([((1, 0), "not a number"), ((1,), 2)])


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


# ---------------------------------------------------------------------------
# The fused sum-of-products kernel and the operations built on it.


COMPILED_DIMS = [*range(1, MAX_DIMENSION + 1), 12]


def _chart(dim, k=0):
    return Chart(NAMES[:dim] if dim <= len(NAMES) else tuple(f"x{i}" for i in range(dim)), k)


@st.composite
def product_sums(draw, dims=st.integers(1, 4), derivatives=False):
    """A chart and (sign, a-terms, b-terms) triples; some triples cancel others.
    With ``derivatives``, some triples carry a coordinate i as a fourth entry:
    the derivative product sign * a * d_i b."""
    dim = draw(dims)
    chart = _chart(dim, draw(coefficients))
    triples = draw(st.lists(st.tuples(st.sampled_from([-3, -1, 1, 2]), term_lists(dim),
                                      term_lists(dim)), max_size=5))
    if derivatives:
        triples = [(*t, draw(st.integers(0, dim - 1))) if draw(st.booleans()) else t
                   for t in triples]
    for sign, pa, pb, *coord in list(triples):
        if draw(st.booleans()):
            # the same product with the opposite sign, a plain one possibly written the other way round
            triples.append((-sign, pb, pa) if not coord and draw(st.booleans())
                           else (-sign, pa, pb, *coord))
    return chart, triples


def assert_sum_products_matches(case):
    """``_sum_products`` of the products, and the sum of their ``*`` products,
    against the reference, which computes a derivative product as a * d_i b."""
    chart, raw = case
    products = [(sign, ScalarField.from_terms(chart, pa), ScalarField.from_terms(chart, pb),
                 *coord) for sign, pa, pb, *coord in raw]
    expected = {}
    for sign, pa, pb, *coord in raw:
        rb = ref.normalize(chart.dim, pb)
        for i in coord:
            rb = ref.diff(rb, i)
        product = ref.mul(ref.normalize(chart.dim, pa), rb)
        expected = ref.add(expected, ref.mul({(0,) * chart.dim: Fraction(sign)}, product))
    got = _sum_products(chart, products)
    assert_matches(got, expected, chart)
    assert got == sum((s * a * (b.diff(*coord) if coord else b) for s, a, b, *coord in products),
                      chart.constant(0))
    for _, a, b, *_ in products:
        assert_matches(a * b, ref.mul(dict(a.terms), dict(b.terms)), chart)
    return got


@kernel_settings
@given(product_sums())
def test_sum_products_matches_naive_sum_and_reference(case):
    assert_sum_products_matches(case)


@pytest.mark.parametrize("dim", [*range(1, MAX_DIMENSION + 1), 12])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_sum_products_matches_reference_at_every_dimension_it_is_compiled_for(dim, data):
    """Each dimension has its own compiled kernel.  Every key it
    writes is an exponent tuple of the chart's length, dim 1 included, where
    the key display needs its trailing comma to be a tuple."""
    got = assert_sum_products_matches(data.draw(product_sums(st.just(dim))))
    assert all(type(exps) is tuple and len(exps) == dim for exps in got.terms)
    assert _kernel_for(dim) is _kernel_for(dim)


@pytest.mark.parametrize("dim", COMPILED_DIMS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_derivative_products_match_reference_at_every_dimension_it_is_compiled_for(dim, data):
    """Plain and derivative products mixed in one sum run the same compiled
    kernel; every key it writes has the chart's length."""
    got = assert_sum_products_matches(data.draw(product_sums(st.just(dim), derivatives=True)))
    assert all(type(exps) is tuple and len(exps) == dim for exps in got.terms)


@pytest.mark.parametrize("dim", COMPILED_DIMS)
def test_derivative_products_that_vanish_at_every_dimension(dim):
    """A derivative product is zero when b is constant in x_i, when b is zero
    and when a is zero; beside a nonzero one it leaves the sum unchanged."""
    chart = _chart(dim, Fraction(2, 3))
    x = chart.coordinates()
    last = dim - 1
    zero = chart.constant(0)
    f = Fraction(1, 2) * x[0] * x[last] * x[last] - Fraction(2, 3) * x[0] + 7
    flat = chart.constant(Fraction(5, 7)) + (x[0] if dim > 1 else 0)  # constant in x_last
    vanishing = [(2, f, flat, last), (-1, f, zero, 0), (3, zero, f, last)]
    assert_matches(_sum_products(chart, vanishing), {}, chart)
    rf = dict(f.terms)
    expected = ref.add(ref.mul(dict(flat.terms), ref.diff(rf, last)), ref.mul(rf, rf))
    got = _sum_products(chart, [(1, flat, f, last), *vanishing, (1, f, f)])
    assert_matches(got, expected, chart)
    assert all(type(exps) is tuple and len(exps) == dim for exps in got.terms)
    assert_matches(f.diff(last), ref.diff(rf, last), chart)
    for coord in (-1, dim):
        with pytest.raises(IndexError):
            f.diff(coord)


def test_sum_products_edge_cases():
    chart = Chart(("x", "y"))
    x, y = chart.coordinates()
    half_x, third_y = Fraction(1, 2) * x, Fraction(1, 3) * y
    assert_matches(_sum_products(chart, []), {}, chart)
    # the only products cancel: the zero polynomial over denominator one
    assert_matches(_sum_products(chart, [(1, half_x, third_y), (-1, third_y, half_x)]), {}, chart)
    # mixed denominators: 1/6 xy + 3/4 x^2 - 1/9 y^2
    got = _sum_products(chart, [(1, half_x, third_y), (3, half_x, half_x),
                                (-1, third_y, third_y)])
    assert_matches(got, {(1, 1): Fraction(1, 6), (2, 0): Fraction(3, 4),
                         (0, 2): Fraction(-1, 9)}, chart)


# Term lists on the chart (x, y) for the targeted kernel cases below.
X, Y, ONE = (1, 0), (0, 1), (0, 0)


def test_derivative_product_whose_first_operand_is_constant_in_the_coordinate():
    """The kernel lowers a's x exponent to -1 when a has no x; each term of b
    it meets has an x, so no key of the sum keeps a -1."""
    a = [(Y, Fraction(2, 3)), (ONE, Fraction(1, 5))]      # 2/3 y + 1/5
    b = [((2, 1), 3), ((0, 3), Fraction(1, 2)), (X, -4)]  # 3 x^2 y + 1/2 y^3 - 4 x
    got = assert_sum_products_matches((Chart(("x", "y")), [(1, a, b, 0)]))
    assert got.terms == {(1, 2): 4, (0, 1): Fraction(-8, 3), (1, 1): Fraction(6, 5),
                         (0, 0): Fraction(-4, 5)}
    assert all(min(exps) >= 0 for exps in got.terms)


@pytest.mark.parametrize("coord", [0, 1])
def test_derivative_product_of_two_operands_with_several_terms(coord):
    a = [((2, 1), 1), (Y, Fraction(3, 4)), (ONE, Fraction(-1, 2))]          # x^2 y + 3/4 y - 1/2
    b = [((3, 2), 1), ((1, 1), Fraction(-2, 7)), ((0, 3), 1), (ONE, 5)]   # x^3 y^2 - 2/7 xy + y^3 + 5
    assert_sum_products_matches((Chart(("x", "y")), [(-3, a, b, coord)]))
    assert_sum_products_matches((Chart(("x", "y")), [(2, a, b, coord), (1, b, a, coord), (1, a, b)]))


def test_a_single_product_that_cancels_over_a_denominator_is_the_canonical_zero():
    """A single product over denominator 2 * 3 = 6 that leaves only zeros,
    through a zero sign or a b constant in the coordinate, is the zero
    polynomial over denominator one; one that cancels in part keeps its
    other terms over that denominator."""
    chart = Chart(("x", "y"))
    half_x, third_y = [(X, Fraction(1, 2))], [(Y, Fraction(1, 3))]
    for products in [[(0, half_x, third_y)], [(1, half_x, third_y, 0)],
                     [(0, half_x, [(X, Fraction(1, 3))], 0)]]:
        got = assert_sum_products_matches((chart, products))
        assert got._den == 1 and not got._num
    # (x + y)/2 * (x - y)/3: the xy terms cancel inside the product
    got = assert_sum_products_matches(
        (chart, [(1, [(X, Fraction(1, 2)), (Y, Fraction(1, 2))],
                  [(X, Fraction(1, 3)), (Y, Fraction(-1, 3))])]))
    assert got.terms == {(2, 0): Fraction(1, 6), (0, 2): Fraction(-1, 6)}


def test_a_sum_whose_content_divides_out():
    """Over the lcm 12 of the products' denominators every numerator is 12,
    so the sum is x y + x^2 + x over denominator one."""
    chart = Chart(("x", "y"))
    got = assert_sum_products_matches(
        (chart, [(1, [(X, Fraction(3, 2))], [(Y, Fraction(2, 3))]),
                 (2, [(X, Fraction(1, 4))], [(X, 2)]),
                 (3, [(ONE, Fraction(1, 2))], [((2, 0), Fraction(1, 3))], 0)]))
    assert got.terms == {(1, 1): 1, (2, 0): 1, (1, 0): 1}
    assert got._den == 1


def _naive_wedge(a, b):
    return Form.from_terms(a.chart, a.degree + b.degree,
                           [(ka + kb, pa * pb) for ka, pa in a.components.items()
                            for kb, pb in b.components.items()])


def _naive_contract(v, a):
    terms = []
    for key, poly in a.components.items():
        for j, idx in enumerate(key):
            product = v.components[idx] * poly
            terms.append((key[:j] + key[j + 1:], product if j % 2 == 0 else -product))
    return Form.from_terms(a.chart, a.degree - 1, terms)


def _naive_apply(v, f):
    out = f.chart.constant(0)
    for i, comp in enumerate(v.components):
        out = out + comp * f.diff(i)
    return out


def _naive_bracket(v, w):
    n = v.chart.dim
    comps = []
    for i in range(n):
        acc = v.chart.constant(0)
        for j in range(n):
            acc = acc + v.components[j] * w.components[i].diff(j)
            acc = acc - w.components[j] * v.components[i].diff(j)
        comps.append(acc)
    return VectorField(v.chart, tuple(comps))


@st.composite
def scalars_on(draw, chart):
    return ScalarField.from_terms(chart, draw(term_lists(chart.dim)))


@st.composite
def forms_on(draw, chart, degree):
    keys = list(itertools.combinations(range(chart.dim), degree))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=3)) if keys else []
    return Form(chart, degree, {key: draw(scalars_on(chart)) for key in chosen})


@st.composite
def vectors_on(draw, chart):
    zero = chart.constant(0)
    return VectorField(chart, tuple(draw(st.one_of(st.just(zero), scalars_on(chart)))
                                    for _ in range(chart.dim)))


def assert_form_canonical(a):
    for key, poly in a.components.items():
        assert len(key) == a.degree and list(key) == sorted(set(key))
        assert not poly.is_zero
        assert_canonical(poly)


@kernel_settings
@given(st.data())
def test_fused_form_operations_match_naive_versions(data):
    dim = data.draw(st.integers(1, 4))
    chart = Chart(NAMES[:dim], data.draw(coefficients))
    p = data.draw(st.integers(0, dim))
    q = data.draw(st.integers(0, dim))
    a, b = data.draw(forms_on(chart, p)), data.draw(forms_on(chart, q))
    v, w = data.draw(vectors_on(chart)), data.draw(vectors_on(chart))
    f = data.draw(scalars_on(chart))
    for got, expected in [(a.wedge(b), _naive_wedge(a, b)),
                          (a.wedge(a), _naive_wedge(a, a)),
                          (v.contract(a), _naive_contract(v, a)),
                          (v.contract(a.wedge(b)), _naive_contract(v, _naive_wedge(a, b)))]:
        assert_form_canonical(got)
        assert got == expected
        assert str(got) == str(expected)
    assert_matches(v.apply(f), dict(_naive_apply(v, f).terms), chart)
    for got, expected in [(v.bracket(w), _naive_bracket(v, w)),
                          (v.bracket(v), _naive_bracket(v, v))]:
        assert got == expected
        for comp in got.components:
            assert_canonical(comp)
