"""Basis blocks of the session DSL: ``dx^dy`` and ``@x`` are built directly.

``forms._basis_form`` and ``forms._coordinate_vector`` build through the
trusted constructors, so they are compared here with the checked public
construction on every index tuple.  A session made only of basis blocks and
literal coefficients multiplies by the constants 0, 1 and -1 and adds zeros,
which the scalar kernel returns without its fused sum of products: a count of
the kernel's calls, not a timing, guards that.
"""

import itertools
from fractions import Fraction

import pytest

from genform import Chart, Form, VectorField, coordinate_vectors, forms, generalized, scalars
from genform import parse_session
from genform.forms import _basis_form, _coordinate_vector

NAMES = ("x", "y", "z", "w")


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_basis_form_matches_the_checked_construction(dim):
    chart = Chart(NAMES[:dim], Fraction(-2, 3))
    one = chart.constant(1)
    for length in range(1, dim + 2):
        for indices in itertools.product(range(dim), repeat=length):
            got = _basis_form(chart, indices)
            expected = Form.from_terms(chart, length, [(indices, one)])
            assert got == expected
            assert got.degree == expected.degree == length
            assert str(got) == str(expected)
            assert Form(chart, got.degree, got.components) == got  # the checks hold


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_coordinate_vector_matches_the_checked_construction(dim):
    chart = Chart(NAMES[:dim], Fraction(-2, 3))
    zero, one = chart.constant(0), chart.constant(1)
    for i in range(dim):
        got = _coordinate_vector(chart, i)
        expected = VectorField(chart, tuple(one if j == i else zero for j in range(dim)))
        assert got == expected
        assert str(got) == str(expected)
        assert VectorField(chart, got.components) == got  # the checks hold
        assert coordinate_vectors(chart)[i] == expected


def test_reversed_and_repeated_differentials_render_as_before():
    text = "chart x, y\na = dy^dx\nb = dx^dx\n"
    assert parse_session(text).render() == "chart x, y k=0\na = -1*dx^dy\nb = 0\n"


def _count_kernel_calls(monkeypatch) -> list:
    """Route every call of the fused kernel, from each module that binds it,
    through a counter; returns the list the calls are appended to."""
    calls = []
    kernel = scalars._sum_products

    def counted(chart, triples):
        calls.append(len(triples))
        return kernel(chart, triples)

    for module in (scalars, forms, generalized):
        monkeypatch.setattr(module, "_sum_products", counted)
    return calls


BASIS_ONLY = """chart x, y, z k=-2/3
v = (1 + x*y)*@x - 2/3*y*@y + z^2*@z
a = (x - 1)*dx^dy + y*dy^dx - 3*dz^dx
b = x*dx - dz + 1/2*y*z*dy
V = {v ; x}
A = [b ; a]
"""


def test_basis_blocks_with_literal_coefficients_make_no_kernel_call(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    rendered = parse_session(BASIS_ONLY).render()
    assert parse_session(rendered).render() == rendered
    assert calls == []


def test_the_count_sees_the_kernel_calls_of_a_power(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    parse_session("chart x, y\np = (x + 1)^2\n").render()
    assert calls
