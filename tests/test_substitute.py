"""``substitute`` against a reference that rebuilds through the public constructors.

``session.substitute`` evaluates every coefficient of a value at a point
through the value's own ``_map``.  The reference below walks the parts of
each value type by hand and rebuilds the result with the checked public
constructors ``Form(...)``, ``VectorField(...)``, ``GeneralizedForm(...)``
and ``GeneralizedVector(...)``.  Every kind of value is drawn by the public
generators at dims 1-4, pair forms at every degree from -1 to n, together
with the zero of every kind and degree and values on a chart with k != 0.
Both must give equal values of the same type, degree tags and printed text,
or raise the same kind of error.
"""

from fractions import Fraction

import pytest

from genform import (
    Chart,
    Form,
    GenConfig,
    GeneralizedForm,
    GeneralizedVector,
    ScalarField,
    VectorField,
    default_chart,
    gen_form,
    gen_gform,
    gen_gvector,
    gen_scalar,
    gen_vector,
    substitute,
)

from test_trusted_values import assert_sound


def reference_substitute(value, point):
    """Every coefficient replaced by its value at the point, rebuilt by the checked constructors."""
    if isinstance(value, ScalarField):
        return value.chart.constant(value.eval_at(point))
    if isinstance(value, Form):
        consts = {key: value.chart.constant(poly.eval_at(point))
                  for key, poly in value.components.items()}
        return Form(value.chart, value.degree, consts)
    if isinstance(value, VectorField):
        return VectorField(value.chart,
                           tuple(value.chart.constant(c.eval_at(point))
                                 for c in value.components))
    if isinstance(value, GeneralizedForm):
        return GeneralizedForm(reference_substitute(value.ordinary, point),
                               reference_substitute(value.companion, point))
    if isinstance(value, GeneralizedVector):
        return GeneralizedVector(reference_substitute(value.v1, point),
                                 reference_substitute(value.v0, point))
    raise TypeError(f"cannot substitute into {type(value).__name__}")


def degree_tags(value):
    """The degree tags of a value and of its parts, which ``==`` ignores for zeros."""
    if isinstance(value, Form):
        return (value.degree,)
    if isinstance(value, GeneralizedForm):
        return (value.ordinary.degree, value.companion.degree)
    return ()


def values_on(cfg: GenConfig, chart: Chart) -> list:
    """Drawn values of every kind on ``chart``, and the zero of every kind and degree."""
    n = chart.dim
    values = [chart.constant(0), VectorField.zero(chart), GeneralizedVector.zero(chart)]
    values += [Form.zero(chart, p) for p in range(-1, n + 2)]
    values += [GeneralizedForm.zero(chart, p) for p in range(-1, n + 1)]
    for position in range(3):
        values += [gen_scalar(cfg, position, chart), gen_vector(cfg, position, chart),
                   gen_gvector(cfg, position, chart)]
        values += [gen_form(cfg, p, position, chart) for p in range(n + 1)]
        values += [gen_gform(cfg, p, position, chart) for p in range(-1, n + 1)]
    return values


def charts_for(cfg: GenConfig) -> list[Chart]:
    """The config's default chart and the same coordinates with k = -2/3."""
    chart = default_chart(cfg)
    return [chart, Chart(chart.names, Fraction(-2, 3))]


def points_for(n: int) -> list[list]:
    return [[Fraction(i - 1, i + 2) for i in range(n)],
            [Fraction(3 - 2 * i) for i in range(n)],
            [0] * n]


def outcome(fn, *args):
    """The value fn returns, or the type of the error it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the reference and the change must fail alike
        return type(exc)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_substitute_matches_the_checked_rebuild(dim, seed):
    cfg = GenConfig(seed=seed, dimension=dim)
    seen_k = set()
    for chart in charts_for(cfg):
        seen_k.add(chart.k)
        for value in values_on(cfg, chart):
            for point in points_for(dim):
                got = substitute(value, point)
                want = reference_substitute(value, point)
                assert type(got) is type(want)
                assert got == want
                assert str(got) == str(want)
                assert degree_tags(got) == degree_tags(want)
                assert all(c.chart == chart and c == c.chart.constant(c.eval_at(point))
                           for c in got._coefficients())
                assert_sound(got)
    assert any(seen_k)


@pytest.mark.parametrize("dim", [1, 3])
def test_substitute_at_a_point_of_the_wrong_length_fails_like_the_reference(dim):
    cfg = GenConfig(seed=5, dimension=dim)
    for chart in charts_for(cfg):
        for value in values_on(cfg, chart):
            for point in ([Fraction(1, 2)] * (dim + 1), [Fraction(1, 2)] * (dim - 1)):
                got = outcome(substitute, value, point)
                want = outcome(reference_substitute, value, point)
                if isinstance(want, type):
                    assert got is want
                else:
                    assert type(got) is type(want) and got == want and str(got) == str(want)


@pytest.mark.parametrize("value", [3, Fraction(1, 2), "x", None, [1]])
def test_substitute_refuses_a_non_value(value):
    with pytest.raises(TypeError, match="cannot substitute into"):
        substitute(value, [1, 2])
