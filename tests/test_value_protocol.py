"""The rules the four non-scalar value types share.

``Form``, ``VectorField``, ``GeneralizedForm`` and ``GeneralizedVector`` all
subtract as ``a + (-b)`` within one type, scale by a rational or by a scalar
field on their own chart, are true exactly when nonzero, and compare equal
only on one chart.  Zero forms and zero pair forms are equal whatever their
degree tags.
"""

from fractions import Fraction

import pytest

from genform import (
    Chart,
    ChartMismatchError,
    DegreeError,
    Form,
    GeneralizedForm,
    GeneralizedVector,
    VectorField,
)

TYPES = ("form", "vector", "pair form", "pair vector")


def make(kind: str, chart: Chart, zero: bool = False):
    """A value of one kind on ``chart``: its zero, or a fixed nonzero value."""
    x, y = chart.coordinates()
    if kind == "form":
        return Form.zero(chart, 1) if zero else Form(chart, 1, {(0,): x * y, (1,): y})
    if kind == "vector":
        return VectorField.zero(chart) if zero else VectorField(chart, (y, x + 1))
    if kind == "pair form":
        if zero:
            return GeneralizedForm.zero(chart, 1)
        return GeneralizedForm(make("form", chart), Form(chart, 2, {(0, 1): x}))
    if zero:
        return GeneralizedVector.zero(chart)
    return GeneralizedVector(make("vector", chart), x - y)


CHART = Chart(("x", "y"), Fraction(1, 2))
OTHER_K = Chart(("x", "y"), Fraction(2))
OTHER_NAMES = Chart(("u", "v"), Fraction(1, 2))


@pytest.mark.parametrize("kind", TYPES)
def test_difference_with_another_type_is_a_type_error(kind):
    value = make(kind, CHART)
    for other in [make(other, CHART) for other in TYPES if other != kind] + [CHART.coordinate(0)]:
        with pytest.raises(TypeError):
            value - other
    assert value - value == make(kind, CHART, zero=True)


@pytest.mark.parametrize("kind", TYPES)
def test_a_string_is_not_a_factor(kind):
    for zero in (False, True):
        with pytest.raises(TypeError):
            "a" * make(kind, CHART, zero)


@pytest.mark.parametrize("kind", TYPES)
@pytest.mark.parametrize("zero", [False, True], ids=["nonzero", "zero"])
def test_scalar_field_on_another_chart_is_a_chart_mismatch(kind, zero):
    value = make(kind, CHART, zero)
    for chart in (OTHER_K, OTHER_NAMES):
        with pytest.raises(ChartMismatchError):
            chart.coordinate(0) * value
    assert CHART.coordinate(0) * value == CHART.coordinate(0) * value
    assert 2 * value == Fraction(2) * value == value + value


@pytest.mark.parametrize("kind", TYPES)
def test_truth_is_nonzero(kind):
    assert bool(make(kind, CHART)) is True
    assert bool(make(kind, CHART, zero=True)) is False
    assert bool(0 * make(kind, CHART)) is False


def test_zero_forms_and_pairs_of_different_degree_tags_are_equal():
    assert Form.zero(CHART, 0) == Form.zero(CHART, 2) == Form.zero(CHART, 5)
    for p in (-1, 0, 1, 2):
        for q in (-1, 0, 1, 2):
            assert GeneralizedForm.zero(CHART, p) == GeneralizedForm.zero(CHART, q)
    x, y = CHART.coordinates()
    one = Form(CHART, 1, {(0,): x})
    two = Form(CHART, 2, {(0, 1): x})
    # a nonzero slot fixes the pair's degree
    assert GeneralizedForm(one, Form.zero(CHART, 2)) != GeneralizedForm(Form.zero(CHART, 0), one)
    assert GeneralizedForm(one, two) != GeneralizedForm(Form.zero(CHART, 1), two)


@pytest.mark.parametrize("kind", TYPES)
def test_equal_parts_on_different_charts_are_not_equal(kind):
    for zero in (False, True):
        value = make(kind, CHART, zero)
        assert value == make(kind, CHART, zero)
        assert value != make(kind, OTHER_K, zero)
        assert value != make(kind, OTHER_NAMES, zero)


@pytest.mark.parametrize("kind", TYPES)
def test_equality_with_another_type_is_false(kind):
    value = make(kind, CHART)
    assert value != CHART.coordinate(0)
    assert all(value != make(other, CHART) for other in TYPES if other != kind)


@pytest.mark.parametrize("kind", TYPES)
def test_sum_on_another_chart_is_a_chart_mismatch(kind):
    for zero in (False, True):
        for chart in (OTHER_K, OTHER_NAMES):
            with pytest.raises(ChartMismatchError):
                make(kind, CHART, zero) + make(kind, chart, zero)


def test_a_zero_summand_of_another_degree_leaves_the_other():
    x, y = CHART.coordinates()
    one = Form(CHART, 1, {(0,): x})
    two = Form(CHART, 2, {(0, 1): y})
    assert one + Form.zero(CHART, 3) == one and (Form.zero(CHART, 0) + one).degree == 1
    # the nonzero pair keeps its degree and both its slots, even a zero slot
    for a in (GeneralizedForm(one, two), GeneralizedForm(Form.zero(CHART, 0), one),
              GeneralizedForm(Form.zero(CHART, -1), Form.from_scalar(x))):
        for p in (-1, 0, 1, 2):
            zero = GeneralizedForm.zero(CHART, p)
            for total in (a + zero, zero + a, a - zero):
                assert total == a and str(total) == str(a)
                assert (total.degree, total.companion.degree) == (a.degree, a.degree + 1)
            assert (zero + zero).degree == p
    a = GeneralizedForm(one, two)
    with pytest.raises(DegreeError):
        a + GeneralizedForm(Form.zero(CHART, 0), one)
    with pytest.raises(DegreeError):
        one + two


def test_every_zero_prints_as_0():
    for p in (-1, 0, 1, 2, 3):
        assert str(Form.zero(CHART, p)) == "0"
        assert str(GeneralizedForm.zero(CHART, p)) == "[0 ; 0]"
    assert str(VectorField.zero(CHART)) == "0"
    assert str(GeneralizedVector.zero(CHART)) == "{0 ; 0}"
