"""Pair calculus: frozen worked cases for every operation, plus edge behavior.

Each expected value below was derived by hand from the defining formulas and
cross-checked against the point oracle or an independent expansion before
being frozen.
"""

from fractions import Fraction

import pytest

from genform import (
    Chart,
    DegreeError,
    Form,
    GenConfig,
    GeneralizedForm,
    GeneralizedVector,
    VectorField,
    cartan_residual,
    coordinate_vectors,
    gen_gform,
    gen_gvector,
    one_forms,
)


def setup_chart(k=0):
    ch = Chart(("x", "y"), Fraction(k))
    x, y = ch.coordinates()
    dx, dy = one_forms(ch)
    ex, ey = coordinate_vectors(ch)
    return ch, x, y, dx, dy, ex, ey


def pair(ordinary, companion):
    return GeneralizedForm(ordinary, companion)


class TestWedge:
    def test_mixed_degrees_with_companion_sign(self):
        ch, x, y, dx, dy, ex, ey = setup_chart()
        a = pair(Form.from_scalar(x), dy)          # degree 0
        b = pair(y * dx, Form.zero(ch, 2))         # degree 1
        got = a.wedge(b)
        # companion: x*0 + (-1)^1 dy^(y dx) = -y dy^dx = y dx^dy
        assert got == pair(x * y * dx, Form(ch, 2, {(0, 1): y}))

    def test_unit(self):
        ch, *_ = setup_chart(k=2)
        unit = GeneralizedForm.from_form(Form.from_scalar(ch.constant(1)))
        for degree in range(-1, 3):
            b = gen_gform(GenConfig(seed=31, dimension=2), degree, degree, ch)
            assert unit.wedge(b) == b

    def test_negative_degree_factor(self):
        ch, x, y, dx, dy, ex, ey = setup_chart()
        a = pair(Form.zero(ch, -1), Form.from_scalar(x))   # degree -1
        b = pair(dy, Form.zero(ch, 2))                     # degree 1
        got = a.wedge(b)
        assert got.degree == 0
        assert got == pair(Form.zero(ch, 0), -(x * dy))


class TestDerivative:
    def test_deformed_scalar_pair(self):
        ch, x, y, dx, dy, ex, ey = setup_chart(k=1)
        a = pair(Form.from_scalar(x), y * dx)
        got = a.d()
        assert got == pair((ch.constant(1) - y) * dx, Form(ch, 2, {(0, 1): ch.constant(-1)}))

    def test_zero_companion_embeds_ordinary(self):
        ch, x, y, dx, dy, ex, ey = setup_chart(k=Fraction(5, 3))
        alpha = x * y * dx
        assert GeneralizedForm.from_form(alpha).d() == GeneralizedForm.from_form(alpha.d())

    def test_negative_degree_input(self):
        ch, x, y, dx, dy, ex, ey = setup_chart(k=Fraction(2, 3))
        a = pair(Form.zero(ch, -1), Form.from_scalar(x))
        # at degree -1 the alternating factor is (+1), so the k-term survives
        assert a.d() == pair(Form.from_scalar(Fraction(2, 3) * x), dx)

    def test_top_degree_result_is_zero(self):
        ch, x, y, dx, dy, ex, ey = setup_chart(k=1)
        top = pair(x * dx.wedge(dy), Form.zero(ch, 3))
        assert top.d().is_zero


class TestScaledBy:
    def test_companion_contraction(self):
        ch, x, y, dx, dy, ex, ey = setup_chart()
        a0 = pair(Form.from_scalar(x), dy)
        V = GeneralizedVector(ey, ch.constant(1))
        assert V.scaled_by(a0) == GeneralizedVector(x * ey, x + 1)

    def test_unit_zero_form(self):
        ch, *_ = setup_chart(k=3)
        unit = GeneralizedForm.from_form(Form.from_scalar(ch.constant(1)))
        V = gen_gvector(GenConfig(seed=32, dimension=2), 0, ch)
        assert V.scaled_by(unit) == V

    def test_pure_companion(self):
        ch, x, y, dx, dy, ex, ey = setup_chart()
        a0 = pair(Form.zero(ch, 0), dx)
        V = GeneralizedVector(y * ex, ch.constant(0))
        assert V.scaled_by(a0) == GeneralizedVector(VectorField.zero(ch), y)

    def test_degree_error(self):
        ch, x, y, dx, dy, ex, ey = setup_chart()
        a1 = pair(dx, Form.zero(ch, 2))
        V = GeneralizedVector(ex, x)
        with pytest.raises(DegreeError):
            V.scaled_by(a1)


class TestContract:
    def test_degree_one_keeps_scalar_term(self):
        ch, x, y, dx, dy, ex, ey = setup_chart()
        V = GeneralizedVector(y * ex, x)
        a = pair(x * dy, dx.wedge(dy))
        # i_{y@x}(x dy) = 0; i_{y@x}(dx^dy) = y dy; +1 * x * (x dy)
        assert V.contract(a) == pair(Form.zero(ch, 0), (y + x * x) * dy)

    def test_zero_vector(self):
        ch, *_ = setup_chart(k=1)
        a = gen_gform(GenConfig(seed=33, dimension=2), 1, 0, ch)
        assert GeneralizedVector.zero(ch).contract(a).is_zero

    def test_degree_zero_kills_scalar_term(self):
        ch, x, y, dx, dy, ex, ey = setup_chart()
        f, g = x * y, y * y
        for v0 in (ch.constant(0), x, ch.constant(7)):
            V = GeneralizedVector(ex, v0)
            a = pair(Form.from_scalar(f), g * dx)
            assert V.contract(a) == pair(Form.zero(ch, -1), Form.from_scalar(g))

    def test_negative_degree_gives_zero(self):
        ch, x, y, dx, dy, ex, ey = setup_chart()
        V = GeneralizedVector(ex, x)
        a = pair(Form.zero(ch, -1), Form.from_scalar(y))
        assert V.contract(a).is_zero


class TestVectorArithmetic:
    def test_add_zero_scaled(self):
        ch, x, y, dx, dy, ex, ey = setup_chart()
        V = GeneralizedVector(ex, x)
        W = GeneralizedVector(y * ey, y)
        assert V + ch.constant(0) * W == V

    def test_componentwise(self):
        ch, x, y, dx, dy, ex, ey = setup_chart()
        V = GeneralizedVector(ex, ch.constant(0))
        W = GeneralizedVector(ey, ch.constant(1))
        assert V + x * W == GeneralizedVector(ex + x * ey, x)

    def test_additive_inverse(self):
        ch, *_ = setup_chart()
        V = gen_gvector(GenConfig(seed=34, dimension=2), 0, ch)
        assert (V + 1 * (-1 * V)).is_zero


class TestLieCartan:
    def test_embeds_ordinary_cartan(self):
        ch, x, y, dx, dy, ex, ey = setup_chart(k=Fraction(7, 2))
        alpha = x * dy
        V = GeneralizedVector(y * ex, ch.constant(0))
        got = GeneralizedVector(y * ex, ch.constant(0)).lie_cartan(GeneralizedForm.from_form(alpha))
        assert got == GeneralizedForm.from_form((y * ex).lie(alpha))

    def test_expanded_closed_form_case(self):
        ch, x, y, dx, dy, ex, ey = setup_chart(k=1)
        V = GeneralizedVector(ex, x)
        a = pair(y * dx, Form.zero(ch, 2))
        # expansion by hand: (L(y dx) - xy dx, (dx)^(y dx)-term + (-1) x d(y dx))
        assert V.lie_cartan(a) == pair(-(x * y) * dx, Form(ch, 2, {(0, 1): x}))

    def test_zero_vector(self):
        ch, *_ = setup_chart(k=1)
        a = gen_gform(GenConfig(seed=35, dimension=2), 1, 1, ch)
        assert GeneralizedVector.zero(ch).lie_cartan(a).is_zero


class TestLie:
    def test_closed_form_case(self):
        ch, x, y, dx, dy, ex, ey = setup_chart(k=1)
        V = GeneralizedVector(ex, x)
        a = pair(y * dx, Form.zero(ch, 2))
        assert V.lie(a) == pair(-(x * y) * dx, Form.zero(ch, 2))

    def test_zero_scalar_part_reduces_to_ordinary(self):
        ch, x, y, dx, dy, ex, ey = setup_chart(k=Fraction(-3, 4))
        v = x * ey + ex
        a = pair(y * dx, x * dx.wedge(dy))
        got = GeneralizedVector.from_vector(v).lie(a)
        assert got == pair(v.lie(y * dx), v.lie(x * dx.wedge(dy)))

    def test_degree_zero_case(self):
        ch, x, y, dx, dy, ex, ey = setup_chart(k=2)
        V = GeneralizedVector(ex, x)
        a = pair(Form.from_scalar(y), Form.zero(ch, 1))
        assert V.lie(a).is_zero


class TestLieOfVector:
    def test_deformation_term(self):
        for k in (0, 1, Fraction(5, 2)):
            ch, x, y, dx, dy, ex, ey = setup_chart(k=k)
            V = GeneralizedVector(ex, x)
            W = GeneralizedVector(x * ey, y)
            expected = GeneralizedVector((ch.constant(1) + Fraction(k) * x * x) * ey,
                                         ch.constant(0))
            assert V.lie(W) == expected

    def test_embeds_bracket(self):
        ch, x, y, dx, dy, ex, ey = setup_chart(k=4)
        v, w = y * ex, x * x * ey
        got = GeneralizedVector.from_vector(v).lie(GeneralizedVector.from_vector(w))
        assert got == GeneralizedVector.from_vector(v.bracket(w))

    def test_self_action_not_antisymmetric(self):
        ch, x, y, dx, dy, ex, ey = setup_chart(k=3)
        V = GeneralizedVector(ex, x)
        # (k v0 v1, v1(v0)) at V = W: nonzero although the bracket part dies
        assert V.lie(V) == GeneralizedVector((3 * x) * ex, ch.constant(1))


class TestCommutator:
    def test_worked_case(self):
        ch, x, y, dx, dy, ex, ey = setup_chart(k=2)
        V = GeneralizedVector(ex, x)
        W = GeneralizedVector(x * ey, y)
        assert V.commutator(W) == GeneralizedVector(ey, ch.constant(0))

    def test_self_commutator_vanishes(self):
        ch, *_ = setup_chart(k=1)
        V = gen_gvector(GenConfig(seed=36, dimension=2), 0, ch)
        assert V.commutator(V).is_zero

    def test_zero_field_side(self):
        ch, x, y, dx, dy, ex, ey = setup_chart()
        f = x * x * y
        V = GeneralizedVector.from_vector(ex)
        W = GeneralizedVector(VectorField.zero(ch), f)
        assert V.commutator(W) == GeneralizedVector(VectorField.zero(ch), f.diff(0))


class TestCartanResidual:
    def test_vanishes_without_scalar_part(self):
        ch, x, y, dx, dy, ex, ey = setup_chart(k=1)
        cfg = GenConfig(seed=37, dimension=2)
        V = GeneralizedVector(gen_gvector(cfg, 0, ch).v1, ch.constant(0))
        W = gen_gvector(cfg, 1, ch)
        a = gen_gform(cfg, 1, 2, ch)
        assert cartan_residual(V, W, a).is_zero

    def test_vanishes_on_constants(self):
        ch, x, y, dx, dy, ex, ey = setup_chart(k=1)
        V = GeneralizedVector(x * ex, ch.constant(2))
        W = GeneralizedVector(3 * ex + ey, x * y)
        a = pair(5 * dx, x * dx.wedge(dy))
        # constant transported coefficients: the closed-form value is zero
        assert cartan_residual(V, W, a).is_zero

    def test_worked_zero_case(self):
        ch, x, y, dx, dy, ex, ey = setup_chart(k=1)
        V = GeneralizedVector(ex, x)
        W = GeneralizedVector(y * ex, ch.constant(0))
        a = pair(dy, Form.zero(ch, 2))
        got = cartan_residual(V, W, a)
        # closed form: +(0, L_{x y @x}(dy)); that transported value is zero here
        assert (x * (y * ex)).lie(dy).is_zero
        assert got.is_zero

    def test_nonzero_witness(self):
        ch, x, y, dx, dy, ex, ey = setup_chart(k=1)
        V = GeneralizedVector(ex, x)
        W = GeneralizedVector.from_vector(ey)
        a = GeneralizedForm.from_form(y * dx)
        got = cartan_residual(V, W, a)
        assert not got.is_zero
        assert got == pair(Form.zero(ch, 0), x * dx)


class TestPairInvariants:
    def test_zero_pairs_compare_equal_across_degrees(self):
        ch, *_ = setup_chart()
        assert GeneralizedForm.zero(ch, -1) == GeneralizedForm.zero(ch, 2)

    def test_companion_degree_validated(self):
        ch, x, y, dx, dy, ex, ey = setup_chart()
        with pytest.raises(DegreeError):
            GeneralizedForm(dx, dy)

    def test_out_of_range_zero_keeps_its_formula_degree(self):
        ch, *_ = setup_chart()
        low = GeneralizedForm(Form.zero(ch, -1), Form.zero(ch, 0))
        squashed = low.wedge(low)
        assert squashed.is_zero
        assert squashed.degree == -2
        assert squashed.companion.degree == -1

    def test_scalar_multiplication_scales_both_parts(self):
        ch, x, y, dx, dy, ex, ey = setup_chart()
        a = pair(y * dx, x * dx.wedge(dy))
        assert x * a == pair((x * y) * dx, (x * x) * dx.wedge(dy))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pair_results_carry_their_formula_degree(n):
    """Each pair operation tags its result with its formula's degree, zero or not."""
    chart = Chart(("x", "y", "z", "w")[:n], Fraction(-2, 3))
    zero = GeneralizedVector.zero(chart)
    wrong, zeros = [], 0
    for seed in range(4):
        cfg = GenConfig(seed=seed, dimension=n, k=chart.k)
        drawn = (gen_gvector(cfg, ("V",), chart), gen_gvector(cfg, ("W",), chart))
        forms = {p: gen_gform(cfg, p, ("a",), chart) for p in range(-1, n + 1)}
        for p, a in forms.items():
            cases = [(f"wedge q={q}", a.wedge(b), p + q) for q, b in forms.items()]
            cases += [("d", a.d(), p + 1), ("d d", a.d().d(), p + 2)]
            for V, W in (drawn, (zero, zero)):
                cases += [("contract", V.contract(a), p - 1), ("lie", V.lie(a), p),
                          ("lie_cartan", V.lie_cartan(a), p),
                          ("cartan_residual", cartan_residual(V, W, a), p - 1)]
            wrong += [(seed, p, name, got.degree, degree)
                      for name, got, degree in cases if got.degree != degree]
            zeros += sum(got.is_zero for _, got, _ in cases)
    assert wrong == []
    assert zeros > 0


def _drawn_triples(n):
    """(V, W, a0) drawn on a dim-n chart for each k in {0, 3/2, -2}, seed and position."""
    for k in (Fraction(0), Fraction(3, 2), Fraction(-2)):
        chart = Chart(("x", "y", "z", "w")[:n], k)
        for seed in range(4):
            cfg = GenConfig(seed=seed, dimension=n, k=k)
            for position in range(5):
                yield (chart, gen_gvector(cfg, ("V", position), chart),
                       gen_gvector(cfg, ("W", position), chart),
                       gen_gform(cfg, 0, ("a0", position), chart))


def _holds_mostly_nonzero(cases):
    """Every (lhs, rhs) case is equal, and more than three quarters are nonzero."""
    assert [index for index, (lhs, rhs) in enumerate(cases) if lhs != rhs] == []
    assert sum(not lhs.is_zero for lhs, _ in cases) > len(cases) * 3 // 4


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_action_on_fields_minus_commutator(n):
    """V.lie(W) - V.commutator(W) = (k v0 w1, L_{w1} v0), as the README states."""
    _holds_mostly_nonzero([(V.lie(W) - V.commutator(W),
                            GeneralizedVector(chart.k * V.v0 * W.v1, W.v1.apply(V.v0)))
                           for chart, V, W, _ in _drawn_triples(n)])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_corrected_lie_is_leibniz_over_scaling(n):
    """V.lie(a0 W) = (V.lie a0) W + a0 V.lie(W) for a degree-0 pair a0."""
    _holds_mostly_nonzero([(V.lie(W.scaled_by(a0)),
                            W.scaled_by(V.lie(a0)) + V.lie(W).scaled_by(a0))
                           for _, V, W, a0 in _drawn_triples(n)])
