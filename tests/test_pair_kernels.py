"""The pair operations against naive compositions of the textbook formulas.

Every pair operation builds each output coefficient as one fused sum of
products, and the ordinary Lie derivative uses the coordinate formula.  The
naive versions below are the compositions the operations were first written
as: the pair formulas of ``genform.generalized`` assembled with ``+``, ``-``
and scalar ``*`` from term-by-term ordinary operations kept in
``test_scalar_kernel`` and here, and the ordinary Lie derivative as the
homotopy formula i_v d + d i_v.  The exterior derivative is taken term by
term too, one partial per unsorted key merged by ``Form.from_terms``, so no
naive version calls the library's ``d``.  They share no code with the fused
kernels.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from genform import Chart, Form, GeneralizedForm, GeneralizedVector, cartan_residual
from genform.generalized import _sign

from test_scalar_kernel import (
    NAMES,
    _naive_apply,
    _naive_bracket,
    _naive_contract,
    _naive_wedge,
    assert_form_canonical,
    coefficients,
    scalars_on,
    vectors_on,
)

pair_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# -- naive compositions ---------------------------------------------------------


def naive_form_d(a):
    return Form.from_terms(a.chart, a.degree + 1,
                           [((i,) + key, poly.diff(i)) for key, poly in a.components.items()
                            for i in range(a.chart.dim)])


def naive_d(a):
    p, k = a.degree, a.chart.k
    return GeneralizedForm(naive_form_d(a.ordinary) + (_sign(p + 1) * k) * a.companion,
                           naive_form_d(a.companion))


def naive_lie(v, a):
    return _naive_contract(v, naive_form_d(a)) + naive_form_d(_naive_contract(v, a))


def naive_wedge(a, b):
    q = b.degree
    ordinary = _naive_wedge(a.ordinary, b.ordinary)
    companion = _naive_wedge(a.ordinary, b.companion) \
        + _sign(q) * _naive_wedge(a.companion, b.ordinary)
    return GeneralizedForm(ordinary, companion)


def naive_contract(V, a):
    p = a.degree
    ordinary = _naive_contract(V.v1, a.ordinary)
    companion = _naive_contract(V.v1, a.companion) \
        + (p * _sign(p - 1)) * (V.v0 * a.ordinary)
    return GeneralizedForm(ordinary, companion)


def naive_scaled_by(V, a0):
    alpha0 = a0.ordinary.scalar_part()
    v1 = alpha0 * V.v1
    v0 = alpha0 * V.v0 + _naive_contract(V.v1, a0.companion).scalar_part()
    return GeneralizedVector(v1, v0)


def naive_lie_cartan(V, a):
    return naive_contract(V, naive_d(a)) + naive_d(naive_contract(V, a))


def naive_lie_form(V, a):
    p, k = a.degree, V.chart.k
    ordinary = naive_lie(V.v1, a.ordinary) - ((p * k) * V.v0) * a.ordinary
    companion = naive_lie(V.v1, a.companion) - (((p + 1) * k) * V.v0) * a.companion
    return GeneralizedForm(ordinary, companion)


def naive_lie_vector(V, W):
    k = V.chart.k
    v1 = _naive_bracket(V.v1, W.v1) + (k * V.v0) * W.v1
    return GeneralizedVector(v1, _naive_apply(V.v1, W.v0))


def naive_commutator(V, W):
    return GeneralizedVector(_naive_bracket(V.v1, W.v1),
                             _naive_apply(V.v1, W.v0) - _naive_apply(W.v1, V.v0))


def naive_cartan_residual(V, W, a):
    k = V.chart.k
    cross = GeneralizedVector(
        _naive_bracket(V.v1, W.v1) + (k * V.v0) * W.v1,
        _naive_apply(V.v1, W.v0) - _naive_apply(W.v1, V.v0),
    )
    return (naive_lie_cartan(V, naive_contract(W, a))
            - naive_contract(W, naive_lie_cartan(V, a))
            - naive_contract(cross, a))


# -- inputs -----------------------------------------------------------------------
#
# Forms in range get at least one coefficient, and nonzero values come first
# in each choice, which hypothesis favours: most cases use every slot term.


@st.composite
def any_forms_on(draw, chart, degree):
    """A form of any degree tag; outside [0, n] it is the zero form."""
    if not 0 <= degree <= chart.dim:
        return Form.zero(chart, degree)
    keys = list(itertools.combinations(range(chart.dim), degree))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, min_size=1, max_size=3))
    return Form(chart, degree, {key: draw(scalars_on(chart)) for key in chosen})


@st.composite
def gforms_on(draw, chart, degree):
    return GeneralizedForm(draw(any_forms_on(chart, degree)),
                           draw(any_forms_on(chart, degree + 1)))


@st.composite
def gvectors_on(draw, chart):
    zero = chart.constant(0)
    return GeneralizedVector(draw(vectors_on(chart)),
                             draw(st.one_of(scalars_on(chart).filter(bool), st.just(zero))))


@st.composite
def pair_cases(draw):
    dim = draw(st.integers(1, 4))
    k = draw(st.one_of(coefficients.filter(bool), st.just(0)))
    chart = Chart(NAMES[:dim], k)
    p, q = draw(st.integers(-1, dim)), draw(st.integers(-1, dim))
    return (chart, draw(gforms_on(chart, p)), draw(gforms_on(chart, q)),
            draw(gvectors_on(chart)), draw(gvectors_on(chart)))


def assert_same_pair(got, expected):
    assert type(got) is type(expected)
    assert got == expected
    assert str(got) == str(expected)
    if isinstance(got, GeneralizedForm):
        assert got.degree == expected.degree
        for part in (got.ordinary, got.companion):
            assert_form_canonical(part)


# -- the checks ---------------------------------------------------------------------


@pair_settings
@given(pair_cases())
def test_ordinary_lie_matches_homotopy_formula(case):
    chart, a, b, V, W = case
    for form in (a.ordinary, a.companion, b.ordinary):
        got = V.v1.lie(form)
        expected = naive_lie(V.v1, form)
        assert got == expected and got.degree == expected.degree
        assert str(got) == str(expected)
        assert_form_canonical(got)


@pair_settings
@given(pair_cases())
def test_pair_form_operations_match_naive_compositions(case):
    chart, a, b, V, W = case
    assert_same_pair(a.d(), naive_d(a))
    assert_same_pair(b.d(), naive_d(b))
    assert_same_pair(a.wedge(b), naive_wedge(a, b))
    assert_same_pair(b.wedge(a), naive_wedge(b, a))
    assert_same_pair(V.contract(a), naive_contract(V, a))
    assert_same_pair(W.contract(b), naive_contract(W, b))
    assert_same_pair(V.lie(a), naive_lie_form(V, a))
    assert_same_pair(W.lie(b), naive_lie_form(W, b))
    assert_same_pair(V.lie_cartan(a), naive_lie_cartan(V, a))


@pair_settings
@given(pair_cases(), st.data())
def test_pair_vector_operations_match_naive_compositions(case, data):
    chart, a, b, V, W = case
    assert_same_pair(V.lie(W), naive_lie_vector(V, W))
    assert_same_pair(W.lie(V), naive_lie_vector(W, V))
    assert_same_pair(V.commutator(W), naive_commutator(V, W))
    assert_same_pair(V.commutator(V), naive_commutator(V, V))
    a0 = data.draw(gforms_on(chart, 0))
    assert_same_pair(V.scaled_by(a0), naive_scaled_by(V, a0))


@pair_settings
@given(pair_cases())
def test_cartan_residual_matches_naive_composition(case):
    chart, a, b, V, W = case
    assert_same_pair(cartan_residual(V, W, a), naive_cartan_residual(V, W, a))
