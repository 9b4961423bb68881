"""Ordinary exterior calculus: frozen hand cases, algebraic laws, point oracle."""

import itertools
from fractions import Fraction

import pytest

from genform import (
    Chart,
    ChartMismatchError,
    DegreeError,
    Form,
    GenConfig,
    VectorField,
    coordinate_vectors,
    gen_form,
    gen_vector,
    one_forms,
)
from genform.forms import _normalize_key

from oracle_tensors import contract_at_point, form_values, wedge_at_point


def chart2():
    return Chart(("x", "y"))


def test_basis_wedge():
    ch = chart2()
    dx, dy = one_forms(ch)
    got = dx.wedge(dy)
    assert got.degree == 2
    assert got.components == {(0, 1): ch.constant(1)}


def test_wedge_antisymmetry_on_basis():
    ch = chart2()
    dx, _ = one_forms(ch)
    assert dx.wedge(dx).is_zero


def test_wedge_transposition_sign():
    ch = chart2()
    x, y = ch.coordinates()
    dx, dy = one_forms(ch)
    # (x dy) ^ (y dx) = -xy dx^dy: one transposition to sort the indices
    got = (x * dy).wedge(y * dx)
    assert got == Form(ch, 2, {(0, 1): -(x * y)})


def test_d_of_coordinate():
    ch = chart2()
    x, _ = ch.coordinates()
    dx, _ = one_forms(ch)
    assert Form.from_scalar(x).d() == dx


def test_d_single_term():
    ch = chart2()
    _, y = ch.coordinates()
    dx, dy = one_forms(ch)
    assert (y * dx).d() == -(dx.wedge(dy))


def test_d_of_top_form_is_zero():
    ch = chart2()
    dx, dy = one_forms(ch)
    assert dx.wedge(dy).d().is_zero


def test_d_of_negative_degree_is_zero():
    ch = chart2()
    assert Form.zero(ch, -1).d().is_zero


def test_contract_dual_pairing():
    ch = chart2()
    ex, _ = coordinate_vectors(ch)
    dx, _ = one_forms(ch)
    assert ex.contract(dx) == Form.from_scalar(ch.constant(1))


def test_contract_first_slot():
    ch = chart2()
    x, y = ch.coordinates()
    ex, _ = coordinate_vectors(ch)
    dx, dy = one_forms(ch)
    assert (y * ex).contract(dx.wedge(dy)) == y * dy
    assert ex.contract(x * dy).is_zero


def test_contract_degree_zero_gives_zero():
    ch = chart2()
    v = gen_vector(GenConfig(seed=2), 0, ch)
    assert v.contract(Form.from_scalar(ch.coordinate(0))).is_zero
    assert v.contract(Form.zero(ch, -1)).is_zero


def test_lie_transport_cases():
    ch = chart2()
    x, y = ch.coordinates()
    ex, _ = coordinate_vectors(ch)
    dx, dy = one_forms(ch)
    assert ex.lie(x * dy) == dy
    assert ex.lie(y * dx).is_zero
    assert VectorField.zero(ch).lie(x * dy).is_zero


def test_lie_matches_direct_transport_formula():
    # L_v(f dx_I) = v(f) dx_I + sum_j f dx_{i_1} ^ .. ^ d(v^{i_j}) ^ .. ^ dx_{i_p},
    # written out by hand for the three cases above
    ch = chart2()
    x, y = ch.coordinates()
    ex, _ = coordinate_vectors(ch)
    dx, dy = one_forms(ch)
    # v = @x, a = x dy: v(x) dy + x d(v^y)=0  ->  dy
    assert ex.lie(x * dy) == Form(ch, 1, {(1,): ch.constant(1)})
    # v = @x, a = y dx: v(y) dx + y d(v^x)=0  ->  0
    assert ex.lie(y * dx) == Form.zero(ch, 1)
    # v = zero: both transport terms vanish
    assert VectorField.zero(ch).lie(x * dy) == Form.zero(ch, 1)


def test_bracket_cases():
    ch = chart2()
    x, _ = ch.coordinates()
    ex, ey = coordinate_vectors(ch)
    assert ex.bracket(ey).is_zero
    assert ex.bracket(x * ey) == ey
    v = gen_vector(GenConfig(seed=4), 1, ch)
    assert v.bracket(v).is_zero


def test_apply():
    ch = chart2()
    x, y = ch.coordinates()
    ex, ey = coordinate_vectors(ch)
    assert ex.apply(x * x) == 2 * x
    assert (x * ey).apply(y) == x
    v = gen_vector(GenConfig(seed=5), 2, ch)
    assert v.apply(ch.constant(1)).is_zero


def test_vector_scaling_and_addition():
    ch = chart2()
    x, y = ch.coordinates()
    ex, ey = coordinate_vectors(ch)
    v = y * ex
    assert 1 * v == v
    assert (0 * v).is_zero
    assert x * v == (x * y) * ex
    assert v + x * ey == VectorField(ch, (y, x))


def test_zero_forms_compare_equal_across_degrees():
    ch = chart2()
    assert Form.zero(ch, 0) == Form.zero(ch, 2)
    assert Form.zero(ch, -1) == Form.zero(ch, 3)
    assert Form.zero(ch, 1) != Form.from_scalar(ch.constant(1))


def _cycle_sign(key):
    """The sign of the permutation that sorts distinct ``key``, by cycle count:
    a permutation of m points with c cycles has sign (-1)^(m - c)."""
    rank = {value: r for r, value in enumerate(sorted(key))}
    perm = [rank[value] for value in key]  # position -> sorted position
    seen, cycles = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return -1 if (len(perm) - cycles) % 2 else 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_normalize_key_sorts_with_the_permutation_sign(n):
    for length in range(n + 2):
        for key in itertools.product(range(n), repeat=length):
            if len(set(key)) < len(key):
                assert _normalize_key(key) == (None, 0), key
            else:
                assert _normalize_key(key) == (tuple(sorted(key)), _cycle_sign(key)), key


def test_out_of_range_degrees_must_be_zero():
    ch = chart2()
    with pytest.raises(DegreeError):
        Form(ch, 3, {(0, 1): ch.constant(1)})


@pytest.mark.parametrize("degree,key,error", [
    (2, (1, 0), ValueError),  # decreasing
    (2, (1, 1), ValueError),  # repeated
    (1, (2,), ValueError),  # index past the last coordinate
    (1, (-1,), ValueError),  # negative index
    (2, (0,), DegreeError),  # key shorter than the degree
    (1, (0, 1), DegreeError),  # key longer than the degree
])
def test_public_constructor_rejects_bad_keys(degree, key, error):
    ch = chart2()
    with pytest.raises(error):
        Form(ch, degree, {key: ch.constant(1)})


def test_public_constructors_reject_coefficients_on_another_chart():
    ch, other = chart2(), Chart(("x", "y"), 1)
    with pytest.raises(ChartMismatchError):
        Form(ch, 1, {(0,): other.constant(1)})
    with pytest.raises(ChartMismatchError):
        Form.from_terms(ch, 1, [((0,), other.constant(1))])
    with pytest.raises(ChartMismatchError):
        Form.from_terms(ch, 2, [((1, 0), other.coordinate(0))])


def _random_forms(seed, chart, degrees):
    cfg = GenConfig(seed=seed, dimension=chart.dim)
    return [gen_form(cfg, d, i, chart) for i, d in enumerate(degrees)]


def test_wedge_graded_commutativity_and_associativity():
    ch = Chart(("x", "y", "z"))
    degrees = [0, 1, 1, 2, 0, 1, 2, 3, 1, 1, 0, 2]
    forms = _random_forms(21, ch, degrees)
    for a, b in zip(forms[::2], forms[1::2]):
        sign = -1 if (a.degree * b.degree) % 2 else 1
        assert a.wedge(b) == sign * b.wedge(a)
    for a, b, c in zip(forms[::3], forms[1::3], forms[2::3]):
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_d_squared_zero_and_leibniz():
    ch = Chart(("x", "y", "z"))
    degrees = [0, 1, 2, 3, 1, 0, 2, 1]
    forms = _random_forms(22, ch, degrees)
    for a in forms:
        assert a.d().d().is_zero
    for a, b in zip(forms[::2], forms[1::2]):
        sign = -1 if a.degree % 2 else 1
        assert a.wedge(b).d() == a.d().wedge(b) + sign * a.wedge(b.d())


def test_contraction_antiderivation_and_nilpotency():
    ch = Chart(("x", "y", "z"))
    cfg = GenConfig(seed=23, dimension=3)
    degrees = [0, 1, 2, 3, 1, 2, 0, 1]
    forms = _random_forms(23, ch, degrees)
    for i, (a, b) in enumerate(zip(forms[::2], forms[1::2])):
        v = gen_vector(cfg, i, ch)
        sign = -1 if a.degree % 2 else 1
        assert v.contract(a.wedge(b)) == v.contract(a).wedge(b) + sign * a.wedge(v.contract(b))
        assert v.contract(v.contract(a)).is_zero


def test_lie_commutes_with_d():
    ch = chart2()
    cfg = GenConfig(seed=24, dimension=2)
    for i, d in enumerate([0, 1, 2, 0, 1]):
        a = gen_form(cfg, d, i, ch)
        v = gen_vector(cfg, 100 + i, ch)
        assert v.lie(a.d()) == v.lie(a).d()


def test_bracket_jacobi():
    ch = Chart(("x", "y", "z"))
    cfg = GenConfig(seed=25, dimension=3)
    for i in range(6):
        u = gen_vector(cfg, (i, 0), ch)
        v = gen_vector(cfg, (i, 1), ch)
        w = gen_vector(cfg, (i, 2), ch)
        cyclic = (u.bracket(v.bracket(w))
                  + v.bracket(w.bracket(u))
                  + w.bracket(u.bracket(v)))
        assert cyclic.is_zero


def test_wedge_against_point_oracle():
    ch = Chart(("x", "y", "z"))
    cfg = GenConfig(seed=26, dimension=3)
    points = [(Fraction(1, 2), 2, Fraction(-1, 3)), (1, -1, 2)]
    degree_pairs = [(0, 1), (1, 1), (1, 2), (2, 1), (0, 0), (2, 2)]
    for i, (p, q) in enumerate(degree_pairs):
        a = gen_form(cfg, p, (i, 0), ch)
        b = gen_form(cfg, q, (i, 1), ch)
        got = a.wedge(b)
        for pt in points:
            expected = wedge_at_point(form_values(a, pt), p, form_values(b, pt), q, 3)
            assert form_values(got, pt) == expected


def test_contract_against_point_oracle():
    ch = Chart(("x", "y", "z"))
    cfg = GenConfig(seed=27, dimension=3)
    points = [(Fraction(2, 5), -1, 3), (0, Fraction(1, 7), 1)]
    for i, p in enumerate([1, 2, 3, 1, 2]):
        a = gen_form(cfg, p, (i, 0), ch)
        v = gen_vector(cfg, (i, 1), ch)
        got = v.contract(a)
        for pt in points:
            vvals = [c.eval_at(pt) for c in v.components]
            expected = contract_at_point(vvals, form_values(a, pt), p, 3)
            assert form_values(got, pt) == expected
