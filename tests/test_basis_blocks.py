"""Basis blocks of the session DSL: ``dx^dy`` and ``@x`` are built directly.

``forms._basis_form`` and ``forms._coordinate_vector`` build through the
trusted constructors, so they are compared here with the checked public
construction on every index tuple, alone and times a coefficient.  A session
made only of basis blocks and literal coefficients builds each block with its
coefficient and adds the blocks.  A sum with a zero summand returns the other
operand, and two nonzero coefficients at one key, as in
``(x - 1)*dx^dy + y*dy^dx``, are merged by ``scalars._combine``; neither runs
the scalar kernel's fused sum of products: a count of the kernel's calls,
not a timing, guards that.  Likewise counts of calls show
that the parser reads a term of numbers and coordinates without its reader of
other factors, and builds a block after a scalar with that scalar as its
coefficient instead of multiplying a unit block by it.
"""

import itertools
from fractions import Fraction

import pytest

from genform import (Chart, Form, VectorField, coordinate_vectors, forms, generalized, scalars,
                     session)
from genform import parse_session
from genform.forms import _basis_form, _coordinate_vector

NAMES = ("x", "y", "z", "w")


def coefficients(chart):
    """A zero, a negative constant and a two-term polynomial on ``chart``."""
    return chart.constant(0), chart.constant(Fraction(-3, 2)), chart.coordinate(0) - Fraction(1, 3)


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
            for c in coefficients(chart):
                scaled = _basis_form(chart, indices, c)
                assert scaled == c * expected and scaled.degree == length


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
        for c in coefficients(chart):
            assert _coordinate_vector(chart, i, c) == c * expected


def test_reversed_and_repeated_differentials_render_as_before():
    text = "chart x, y\na = dy^dx\nb = dx^dx\n"
    assert parse_session(text).render() == "chart x, y k=0\na = -1*dx^dy\nb = 0\n"


def _count_calls(monkeypatch, *methods) -> list:
    """Route every call of each ``(owner, name)`` method through a counter;
    returns the list the names of the calls are appended to."""
    calls = []

    def counter(name, method):
        def counted(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)
        return counted

    for owner, name in methods:
        monkeypatch.setattr(owner, name, counter(f"{owner.__name__}.{name}", vars(owner)[name]))
    return calls


# The fused kernel, from each module that binds it.
KERNEL = [(module, "_sum_products") for module in (scalars, forms, generalized)]


BASIS_ONLY = """chart x, y, z k=-2/3
v = (1 + x*y)*@x - 2/3*y*@y + z^2*@z
a = (x - 1)*dx^dy + y*dy^dx - 3*dz^dx
b = x*dx - dz + 1/2*y*z*dy
V = {v ; x}
A = [b ; a]
"""


def test_basis_blocks_with_literal_coefficients_make_no_kernel_call(monkeypatch):
    calls = _count_calls(monkeypatch, *KERNEL)
    rendered = parse_session(BASIS_ONLY).render()
    assert parse_session(rendered).render() == rendered
    assert calls == []


def test_the_count_sees_the_kernel_calls_of_a_power(monkeypatch):
    calls = _count_calls(monkeypatch, *KERNEL)
    parse_session("chart x, y\np = (x + 1)^2\n").render()
    assert calls


def test_monomial_terms_make_no_call_of_the_other_factor_reader(monkeypatch):
    calls = _count_calls(monkeypatch, (session._Parser, "_factor"))
    parsed = parse_session("chart x, y\nf = -5/4*x^2*y + 3*x - y^3\n")
    assert parsed.render() == "chart x, y k=0\nf = 3*x - 5/4*x^2*y - y^3\n"
    assert calls == []


def test_blocks_after_a_scalar_make_no_scalar_product_call(monkeypatch):
    calls = _count_calls(monkeypatch, (Form, "__rmul__"), (VectorField, "__rmul__"))
    parsed = parse_session("chart x, y\na = (x + y)*dx^dy + x*dy^dx\nv = (x - 1)*@y\n")
    assert parsed.render() == "chart x, y k=0\na = y*dx^dy\nv = (-1 + x)*@y\n"
    assert calls == []


def test_the_counts_see_other_factors_and_blocks_on_the_left(monkeypatch):
    calls = _count_calls(monkeypatch, (session._Parser, "_factor"), (Form, "__rmul__"),
                         (VectorField, "__rmul__"))
    parsed = parse_session("chart x, y\na = (x + y)*x\nb = dx^dy*x\nv = @y*x\n")
    assert parsed.render() == "chart x, y k=0\na = x^2 + x*y\nb = x*dx^dy\nv = x*@y\n"
    assert calls == ["_Parser._factor", "Form.__rmul__", "VectorField.__rmul__"]
