"""Values built by the trusted constructors pass the public constructors' checks.

Operation results and trial inputs skip the checks of ``Form(...)``,
``VectorField(...)``, ``GeneralizedForm(...)`` and ``GeneralizedVector(...)``.
Each value below is rebuilt through those public constructors from its parts:
the rebuild must not raise, must compare equal and must keep every degree
tag.  Forms must hold no zero coefficient and nonzero pair degrees must lie
in [-1, n].  The value types stay frozen and unhashable, print the same by
``repr`` and ``str``, and copy and pickle round trips keep them equal.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genform import (
    Chart,
    Form,
    GenConfig,
    GeneralizedForm,
    GeneralizedVector,
    ScalarField,
    VectorField,
    cartan_residual,
)
from genform.harness import IDENTITIES, _trial_chart, _trial_env

from test_pair_kernels import gforms_on, pair_cases, pair_settings
from test_scalar_kernel import assert_canonical, assert_form_canonical


def rebuild(value):
    """The value rebuilt from its parts by the public constructors, which check them."""
    if isinstance(value, ScalarField):
        return ScalarField(value.chart, dict(value.terms))
    if isinstance(value, Form):
        return Form(value.chart, value.degree,
                    {key: rebuild(poly) for key, poly in value.components.items()})
    if isinstance(value, VectorField):
        return VectorField(value.chart, tuple(map(rebuild, value.components)))
    if isinstance(value, GeneralizedForm):
        return GeneralizedForm(rebuild(value.ordinary), rebuild(value.companion))
    return GeneralizedVector(rebuild(value.v1), rebuild(value.v0))


def assert_sound(value):
    """``value`` is canonical and survives a rebuild through the public constructors."""
    again = rebuild(value)
    assert type(again) is type(value)
    assert again == value
    assert str(again) == str(value)
    n = value.chart.dim
    if isinstance(value, ScalarField):
        assert_canonical(value)
    elif isinstance(value, Form):
        assert again.degree == value.degree
        assert_form_canonical(value)
    elif isinstance(value, VectorField):
        assert type(value.components) is tuple and len(value.components) == n
        for comp in value.components:
            assert comp.chart is value.chart or comp.chart == value.chart
            assert_canonical(comp)
    elif isinstance(value, GeneralizedForm):
        assert value.is_zero or -1 <= value.degree <= n
        assert value.companion.degree == value.degree + 1
        assert again.degree == value.degree
        assert_sound(value.ordinary)
        assert_sound(value.companion)
    else:
        assert_sound(value.v1)
        assert_sound(value.v0)


@pair_settings
@given(pair_cases(), st.data())
def test_operation_results_rebuild_through_the_public_constructors(case, data):
    chart, a, b, V, W = case
    mu = data.draw(st.sampled_from([2, Fraction(-1, 3), 0, chart.coordinate(0) - 1]))
    a0 = data.draw(gforms_on(chart, 0))
    v, w = V.v1, W.v1
    results = [
        a.wedge(b), b.wedge(a), a.d(), a.d().d(), b.d(), a + a, a - a, -a, mu * a,
        V.contract(a), W.contract(b), V.lie(a), V.lie_cartan(a), W.lie(b),
        V.lie(W), W.lie(V), V.commutator(W), V.commutator(V), V.scaled_by(a0),
        cartan_residual(V, W, a), V + W, V - W, -V, mu * V,
        v + w, v - w, -v, mu * v, v.bracket(w), v.contract(a.ordinary), v.lie(a.companion),
        GeneralizedForm.zero(chart, b.degree), GeneralizedForm.from_form(a.companion),
        GeneralizedVector.zero(chart), GeneralizedVector.from_vector(v), VectorField.zero(chart),
    ]
    for value in results:
        assert_sound(value)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("k", ["random", "zero", "fixed"])
def test_trial_inputs_rebuild_through_the_public_constructors(dim, k):
    cfg = GenConfig(seed=3, dimension=dim,
                    k={"random": None, "zero": Fraction(0), "fixed": Fraction(-2, 3)}[k])
    for ident in IDENTITIES.values():
        for trial in range(12):
            chart = _trial_chart(cfg, trial)
            for value in _trial_env(ident, cfg, chart, trial).values():
                assert_sound(value)


def test_zero_pair_results_carry_their_formula_degree():
    chart = Chart(("x", "y"), 1)
    x, y = chart.coordinates()
    top = GeneralizedForm(Form(chart, 2, {(0, 1): x}), Form.zero(chart, 3))
    assert top.d().degree == 3
    bottom = GeneralizedForm(Form.zero(chart, -1), Form(chart, 0, {(): y}))
    V = GeneralizedVector(VectorField(chart, (x, y)), x)
    assert V.contract(bottom).degree == -2
    assert bottom.wedge(bottom).degree == -2
    assert GeneralizedForm.zero(chart, 7).degree == 7
    assert GeneralizedForm.zero(chart, -4).degree == -4
    for value in (top.d(), V.contract(bottom), GeneralizedForm.zero(chart, 7)):
        assert value.is_zero
        assert_sound(value)


def _values():
    chart = Chart(("x", "y"), Fraction(1, 3))
    x, y = chart.coordinates()
    a = Form(chart, 1, {(0,): x * y, (1,): 3 - x})
    v = VectorField(chart, (y, chart.constant(0)))
    return [chart, x * y - 5, a, v,
            GeneralizedForm(a, Form(chart, 2, {(0, 1): y})), GeneralizedVector(v, x)]


@pytest.mark.parametrize("value", _values(), ids=lambda value: type(value).__name__)
def test_values_stay_frozen_and_copyable(value):
    for name in (*getattr(value, "__dataclass_fields__", ()), "chart", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
    for again in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(again) is type(value)
        assert again == value
        assert str(again) == str(value)
        if isinstance(value, Chart):
            assert again.dim == value.dim == 2
        if isinstance(value, (Form, GeneralizedForm)):
            assert again.degree == value.degree
    if not isinstance(value, Chart):  # a chart is a hashable dataclass
        with pytest.raises(TypeError):
            hash(value)
        assert repr(value) == str(value)
