"""DSL parsing, evaluation, canonical printing, diagnostics, round trips."""

from fractions import Fraction

import pytest

from genform import (
    Chart,
    Form,
    GenConfig,
    GeneralizedForm,
    GeneralizedVector,
    ParseError,
    ScalarField,
    VectorField,
    gen_form,
    gen_gform,
    gen_gvector,
    gen_scalar,
    gen_vector,
    one_forms,
    parse_session,
    render_session,
    substitute,
)
import genform.session as session_module
from genform.session import MAX_EXPONENT, MAX_LITERAL_DIGITS, MAX_NESTING, MAX_PRODUCT_TERMS


def test_chart_and_pair_literal():
    session = parse_session("chart x, y k=1\na = [x*dy ; dx^dy]")
    assert session.chart == Chart(("x", "y"), Fraction(1))
    a = session.definitions["a"]
    assert isinstance(a, GeneralizedForm)
    assert a.degree == 1
    ch = session.chart
    x, y = ch.coordinates()
    dx, dy = one_forms(ch)
    assert a == GeneralizedForm(x * dy, dx.wedge(dy))


def test_lie_of_vector_along_itself():
    session = parse_session("chart x k=1\nv = {@x ; x}\nb = Lv(v, v)")
    b = session.definitions["b"]
    ch = session.chart
    x = ch.coordinate(0)
    # (k x @x, @x applied to x) at k=1
    assert b == GeneralizedVector(x * VectorField(ch, (ch.constant(1),)), ch.constant(1))
    assert str(b) == "{x*@x ; 1}"


def test_use_before_definition():
    with pytest.raises(ParseError) as info:
        parse_session("chart x\na = d(a)")
    assert info.value.code == "E_NAME"
    assert info.value.line == 2


def test_default_k_is_zero():
    assert parse_session("chart x, y").chart.k == 0


def test_negative_k():
    assert parse_session("chart x k=-1/2").chart.k == Fraction(-1, 2)


def test_comments_and_whitespace():
    text = "# leading comment\nchart x , y   k = 2  # trailing\n\n  f =  x * y  # done\n"
    session = parse_session(text)
    x, y = session.chart.coordinates()
    assert session.definitions["f"] == x * y


def test_parity_normalization_in_rendering():
    session = parse_session("chart x, y\na = x*dy^dx")
    assert str(session.definitions["a"]) == "-1*x*dx^dy"


def test_repeated_differential_cancels():
    session = parse_session("chart x, y\na = dx^dx")
    assert isinstance(session.definitions["a"], ScalarField)  # collapsed zero
    assert session.definitions["a"].is_zero


def test_negative_degree_pair_literal():
    session = parse_session("chart x, y\na = [0 ; x]")
    a = session.definitions["a"]
    assert a.degree == -1
    assert a.ordinary.is_zero
    assert a.companion == Form.from_scalar(session.chart.coordinate(0))


def test_zero_pair_vector_literal():
    session = parse_session("chart x, y\nV = {0 ; 0}\n")
    assert session.definitions["V"].is_zero


def test_scalar_power_and_rationals():
    session = parse_session("chart x, y\nf = 2/3*x^2*y - (x + y)^2 + 1/3")
    ch = session.chart
    x, y = ch.coordinates()
    expected = ch.constant(Fraction(2, 3)) * x * x * y - (x + y) * (x + y) + ch.constant(Fraction(1, 3))
    assert session.definitions["f"] == expected


def test_ordinary_operations_through_dsl():
    text = """chart x, y
v = y*@x
al = x*dy
w = @y
c = comm(v, w)
t = I(v, dx^dy)
s = L(v, x*y)
"""
    session = parse_session(text)
    ch = session.chart
    x, y = ch.coordinates()
    dx, dy = one_forms(ch)
    assert session.definitions["c"] == (y * VectorField(ch, (ch.constant(1), ch.constant(0)))).bracket(
        VectorField(ch, (ch.constant(0), ch.constant(1))))
    assert session.definitions["t"] == y * dy
    assert session.definitions["s"] == y * y  # (y @x)(x y) = y*y


def test_generalized_operations_through_dsl():
    text = """chart x, y k=1
a = [x ; y*dx]
b = d(a)
V = {y*@x ; x}
r = I(V, [x*dy ; dx^dy])
s = scale([x ; dy], {@y ; 1})
"""
    session = parse_session(text)
    ch = session.chart
    x, y = ch.coordinates()
    dx, dy = one_forms(ch)
    assert session.definitions["b"] == GeneralizedForm((ch.constant(1) - y) * dx,
                                                       -(dx.wedge(dy)))
    assert session.definitions["r"] == GeneralizedForm(Form.zero(ch, 0), (y + x * x) * dy)
    ey = VectorField(ch, (ch.constant(0), ch.constant(1)))
    assert session.definitions["s"] == GeneralizedVector(x * ey, x + 1)


def test_smul_and_add():
    session = parse_session("chart x, y\na = add(x*dx, smul(y, dy))")
    ch = session.chart
    x, y = ch.coordinates()
    dx, dy = one_forms(ch)
    assert session.definitions["a"] == x * dx + y * dy


@pytest.mark.parametrize("text,code", [
    ("chart x\nf = $", "E_LEX"),
    ("f = x", "E_PARSE"),                     # missing chart declaration
    ("chart x\nf x", "E_PARSE"),              # missing '='
    ("chart x\nf = nope", "E_NAME"),
    ("chart x\nf = x\nf = x", "E_REDEF"),
    ("chart x\nx = 1", "E_REDEF"),            # collides with a coordinate
    ("chart x\ndx = 1", "E_REDEF"),           # collides with a differential
    ("chart x\nwedge = 1", "E_REDEF"),        # reserved operation name
    ("chart x, y\nf = wedge(@x, @y)", "E_TYPE"),
    ("chart x, y\nf = dx + @x", "E_TYPE"),
    ("chart x, y\nf = dx^2", "E_TYPE"),
    ("chart x, y\nf = x*dx + dx^dy", "E_DEGREE"),
    ("chart x, y\nf = [x*dx ; x]", "E_DEGREE"),
    ("chart x, y\nf = scale([x*dx ; dx^dy], {@x ; 0})", "E_DEGREE"),
    ("chart x, y\nf = d(x", "E_PARSE"),
    ("chart wedge\nf = 1", "E_PARSE"),        # reserved coordinate name
    ("chart x, x\nf = 1", "E_PARSE"),         # duplicate coordinate
    ("chart x, dx\nf = 1", "E_PARSE"),        # a coordinate named like a differential
    ("chart dx, x\nf = 1", "E_PARSE"),
    ("chart x\nf = 1/0", "E_PARSE"),
])
def test_diagnostic_codes(text, code):
    with pytest.raises(ParseError) as info:
        parse_session(text)
    assert info.value.code == code
    assert info.value.line >= 1 and info.value.col >= 1


def test_diagnostic_position_is_exact():
    with pytest.raises(ParseError) as info:
        parse_session("chart x, y\nf = x + nope")
    assert (info.value.line, info.value.col) == (2, 9)


@pytest.mark.parametrize("text, col", [("chart x, dx\nf = 1", 10), ("chart dx, x\nf = 1", 11)])
def test_coordinate_named_like_a_differential_is_refused_at_the_later_name(text, col):
    # `show` would print the 1-form d(x) as `dx`, which would read back as the coordinate
    with pytest.raises(ParseError) as info:
        parse_session(text)
    assert str(info.value) == (f"1:{col}: E_PARSE: coordinate 'dx' collides with the "
                               "differential of 'x'")


@pytest.mark.parametrize("pair, degree", [
    ("I(V, [0 ; 1])", -2),
    ("d([x*dx^dy ; 0])", 3),
])
def test_scaling_by_a_zero_pair_reports_its_formula_degree(pair, degree):
    with pytest.raises(ParseError) as info:
        parse_session(f"chart x, y\nV = {{@x ; 1}}\nB = scale({pair}, V)")
    assert str(info.value) == f"3:5: E_DEGREE: scaling needs a degree-0 pair, got degree {degree}"


def test_empty_definition_list_renders_chart_line_only():
    session = parse_session("chart x, y k=3/4")
    assert session.render() == "chart x, y k=3/4\n"


def test_substitute_forms_and_pairs():
    session = parse_session("chart x, y k=1\na = [x ; y*dx]\nV = {y*@x ; x}")
    point = [Fraction(2), Fraction(3)]
    a_at = substitute(session.definitions["a"], point)
    assert str(a_at) == "[2 ; 3*dx]"
    v_at = substitute(session.definitions["V"], point)
    assert str(v_at) == "{3*@x ; 2}"


def _round_trip(text):
    first = parse_session(text)
    rendered = first.render()
    second = parse_session(rendered)
    assert second.chart == first.chart
    assert list(second.definitions) == list(first.definitions)
    for name, value in first.definitions.items():
        assert second.definitions[name] == value
    assert second.render() == rendered


def test_round_trip_handwritten_sessions():
    _round_trip("chart x, y k=1\na = [x*dy ; dx^dy]\nb = d(a)\nf = x^3 - 2/7*y")
    _round_trip("chart x\nv = {@x ; x}\nb = Lv(v, v)")
    _round_trip("chart x, y, z k=-2/3\nw = x*dx^dy + z*dy^dz\nu = y*@x + x^2*@z")


def test_round_trip_generated_sessions():
    for seed in range(12):
        cfg = GenConfig(seed=seed, dimension=1 + seed % 3)
        chart = Chart(("x", "y", "z")[: cfg.dimension], Fraction(seed, 7))
        defs = {
            "f": gen_scalar(cfg, 0, chart),
            "al": gen_form(cfg, min(1, chart.dim), 1, chart),
            "v": gen_vector(cfg, 2, chart),
            "A": gen_gform(cfg, chart.dim - 1, 3, chart),
            "V": gen_gvector(cfg, 4, chart),
        }
        _round_trip(render_session(chart, defs))


def _nested(depth):
    return "(" * depth + "x" + ")" * depth


def test_nesting_limit_is_a_parse_error():
    # the definition's own expression is one level, each "(" opens another
    session = parse_session("chart x\na = " + _nested(MAX_NESTING - 1))
    assert session.definitions["a"] == session.chart.coordinate(0)
    with pytest.raises(ParseError) as info:
        parse_session("chart x\na = " + _nested(MAX_NESTING))
    assert info.value.code == "E_PARSE"
    # reported at the first token of the expression one level too deep
    assert (info.value.line, info.value.col) == (2, 5 + MAX_NESTING)


@pytest.mark.parametrize("opener,closer", [("d(", ")"), ("[", " ; 0]"), ("add(0, ", ")")])
def test_nesting_limit_counts_brackets_and_calls(opener, closer):
    text = "chart x, y\na = " + opener * MAX_NESTING + "x" + closer * MAX_NESTING
    with pytest.raises(ParseError) as info:
        parse_session(text)
    assert info.value.code == "E_PARSE"


def test_long_unary_minus_chain_is_not_nesting():
    session = parse_session("chart x\na = " + "- " * 3001 + "x^2\nb = " + "-" * 3000 + "x")
    x = session.chart.coordinate(0)
    assert session.definitions["a"] == -(x * x)
    assert session.definitions["b"] == x


def test_power_by_squaring_matches_repeated_products(monkeypatch):
    session = parse_session("chart x, y\nf = 1 + x - 2/3*y\n"
                            + "".join(f"p{e} = f^{e}\n" for e in range(10)))
    f = session.definitions["f"]
    expected = session.chart.constant(1)
    for e in range(10):
        assert session.definitions[f"p{e}"] == expected
        expected = expected * f
    products = []
    original = ScalarField.__mul__

    def counting_mul(self, other):
        products.append(1)
        return original(self, other)

    monkeypatch.setattr(ScalarField, "__mul__", counting_mul)
    parse_session("chart x\np = (1 + x)^8")
    assert len(products) == 3  # three squarings, no product by one


def test_exponent_bound_is_checked_before_evaluating(monkeypatch):
    x_power = parse_session(f"chart x\np = x^{MAX_EXPONENT}\nq = x^000{MAX_EXPONENT}")
    assert x_power.definitions["p"].terms == {(MAX_EXPONENT,): 1}
    assert x_power.definitions["q"] == x_power.definitions["p"]

    def no_products(self, other):
        raise AssertionError("an exponent over the bound must not be evaluated")

    monkeypatch.setattr(ScalarField, "__mul__", no_products)
    for exponent in (str(MAX_EXPONENT + 1), "9" * 5000):
        with pytest.raises(ParseError) as info:
            parse_session(f"chart x\np = (1 + x)^{exponent}")
        assert info.value.code == "E_PARSE"
        assert (info.value.line, info.value.col) == (2, 13)


@pytest.mark.parametrize("template,col", [
    ("chart x\na = {}*x", 5),
    ("chart x\na = 1/{}", 7),
    ("chart x k={}\na = x", 11),
    ("chart x k=-3/{}\na = x", 14),
])
def test_overlong_integer_literal_is_a_parse_error(template, col):
    with pytest.raises(ParseError) as info:
        parse_session(template.format("9" * (MAX_LITERAL_DIGITS + 1)))
    assert info.value.code == "E_PARSE"
    line = 2 if template.startswith("chart x\n") else 1
    assert (info.value.line, info.value.col) == (line, col)


def test_literal_limit_counts_digits_after_leading_zeros():
    widest = "9" * MAX_LITERAL_DIGITS
    session = parse_session(f"chart x k=1/{widest}\na = {widest}*x\nb = {'0' * 5000}7")
    assert session.definitions["a"].terms == {(1,): int(widest)}
    assert session.chart.k == Fraction(1, int(widest))
    assert session.definitions["b"] == session.chart.constant(7)


def test_product_term_limit_stops_a_power_before_its_work(monkeypatch):
    largest = []
    original = ScalarField.__mul__

    def recording_mul(self, other):
        largest.append(len(self.terms) * len(other.terms))
        return original(self, other)

    monkeypatch.setattr(ScalarField, "__mul__", recording_mul)
    with pytest.raises(ParseError) as info:
        parse_session("chart x, y, z\na = (1+x+y+z)^60")
    assert info.value.code == "E_PARSE"
    assert (info.value.line, info.value.col) == (2, 14)  # the '^'
    assert "term products" in info.value.message
    assert max(largest) <= MAX_PRODUCT_TERMS


def test_product_term_limit_applies_to_star(monkeypatch):
    with pytest.raises(ParseError) as info:
        parse_session("chart x, y, z\nf = (1+x+y+z)^12\ng = 2*f*f")
    assert info.value.code == "E_PARSE"
    assert (info.value.line, info.value.col) == (3, 8)  # the second '*'
    monkeypatch.setattr(session_module, "MAX_PRODUCT_TERMS", 6)
    session = parse_session("chart x, y\na = (1 + x)*(1 + x + y)")
    x, y = session.chart.coordinates()
    assert session.definitions["a"] == (1 + x) * (1 + x + y)
    with pytest.raises(ParseError) as info:
        parse_session("chart x, y\na = (1 + x)*(1 + x + y + x*y)")
    assert (info.value.line, info.value.col) == (2, 12)
    with pytest.raises(ParseError) as info:
        parse_session("chart x, y\na = smul(1 + x, 1 + x + y + x*y)")
    assert (info.value.line, info.value.col) == (2, 5)


def test_unprintable_value_is_a_parse_error_at_its_name():
    nines = "9" * 3000
    session = parse_session(f"chart x\na = {nines}")
    assert session.definitions["a"] == session.chart.constant(int(nines))
    with pytest.raises(ParseError) as info:
        parse_session(f"chart x\na = {nines}\nb = a*a")
    assert info.value.code == "E_PARSE"
    assert (info.value.line, info.value.col) == (3, 1)
    assert "more than 4300 digits" in info.value.message
    with pytest.raises(ParseError) as info:
        parse_session(f"chart x\na = {nines}\nb = [x ; a*a*dx]")
    assert (info.value.line, info.value.col) == (3, 1)


def test_printable_check_reads_coefficients_in_lowest_terms():
    # the common denominator has about 6000 digits, every printed one 3001
    text = f"chart x, y\na = 1/1{'0' * 2999}1*x + 1/{'9' * 3000}*y\n"
    session = parse_session(text)
    assert session.definitions["a"]._den > 10 ** MAX_LITERAL_DIGITS
    _round_trip(text)


def test_product_term_limit_applies_to_operation_calls():
    # f has 455 terms, so each session below needs 455 * 455 = 207025 term products
    head = "chart x, y, z\nf = (1+x+y+z)^12\n"
    for body, col in [("g = wedge(f, f)", 5), ("g = f*(f*dx)", 6), ("g = smul(f, f*dx)", 5)]:
        with pytest.raises(ParseError) as info:
            parse_session(head + body)
        assert info.value.code == "E_PARSE"
        assert (info.value.line, info.value.col) == (3, col)
        assert "term products" in info.value.message


@pytest.mark.parametrize("call,products", [
    ("wedge(a, b)", 6), ("I(V, b)", 8), ("L(V, b)", 8), ("Lc(V, b)", 8), ("Lv(V, W)", 8),
    ("comm(V, W)", 8), ("scale(c, W)", 6), ("wedge(f, al)", 9), ("I(v, al)", 9),
    ("L(v, al)", 9), ("L(v, f)", 9), ("comm(v, v)", 9), ("smul(f, al)", 9),
])
def test_operation_product_limit_counts_all_coefficient_terms(call, products, monkeypatch):
    # operand terms: f, al, v, a, c 3 each; b 2; V 4 (3 + 1); W 2 (1 + 0 + 1)
    text = ("chart x, y\nf = 1 + x + y\nal = (1 + x)*dx + y*dy\nv = x*@x + (1 + y)*@y\n"
            "a = [1 + x ; y*dx]\nb = [x*dy ; dx^dy]\nc = [1 + y ; x*dy]\n"
            "V = {v ; x}\nW = {y*@x ; 1}\ng = " + call)
    expected = parse_session(text).definitions["g"]
    monkeypatch.setattr(session_module, "MAX_PRODUCT_TERMS", products)
    assert parse_session(text).definitions["g"] == expected
    monkeypatch.setattr(session_module, "MAX_PRODUCT_TERMS", products - 1)
    with pytest.raises(ParseError) as info:
        parse_session(text)
    assert info.value.code == "E_PARSE"
    assert (info.value.line, info.value.col) == (10, 5)
    assert "term products" in info.value.message


def test_power_chain_is_refused_before_its_integers_pass_the_printable_size(monkeypatch):
    widest = []
    original = ScalarField.__mul__

    def recording_mul(self, other):
        widest.append(max(map(int.bit_length, [self._den, other._den,
                                               *self._num.values(), *other._num.values()])))
        return original(self, other)

    monkeypatch.setattr(ScalarField, "__mul__", recording_mul)
    for text, col in [("a = 2^1000^1000", 11), ("a = (2)^1000^1000", 13),
                      ("a = x*-1/3^1000^1000", 16), ("a = (2^1000)^15", 13)]:
        with pytest.raises(ParseError) as info:
            parse_session("chart x\n" + text)
        assert info.value.code == "E_PARSE"
        assert (info.value.line, info.value.col) == (2, col), text
        assert f"coefficient of more than {MAX_LITERAL_DIGITS} digits" in info.value.message
    assert max(widest) <= 8001  # the squaring to 2^16000 was never run
    # a power that prints is still computed: 2^14000 has 4215 digits
    session = parse_session("chart x\na = (2^1000)^14*x\nb = -2^3*x^2^2 + (1/2)^1000")
    x = session.chart.coordinate(0)
    assert session.definitions["a"] == 2 ** 14000 * x
    assert session.definitions["b"] == -8 * x * x * x * x + Fraction(1, 2 ** 1000)


def test_value_with_an_exponent_above_the_limit_is_refused_at_its_name():
    session = parse_session(f"chart x, y\na = x^{MAX_EXPONENT - 1}*x\nb = d(y^{MAX_EXPONENT})")
    assert str(session.definitions["a"]) == f"x^{MAX_EXPONENT}"
    assert parse_session(render_session(session.chart, session.definitions)).definitions \
        == session.definitions
    for text in [f"a = x^{MAX_EXPONENT}*x", f"a = x^{MAX_EXPONENT}*y*x",
                 f"a = (1 + x)^2*x^{MAX_EXPONENT - 1}", f"a = x^{MAX_EXPONENT}^{MAX_EXPONENT}",
                 f"f = x^{MAX_EXPONENT}\na = wedge(f*dx, x*dy)"]:
        with pytest.raises(ParseError) as info:
            parse_session("chart x, y\n" + text)
        assert info.value.code == "E_PARSE"
        assert (info.value.line, info.value.col) == (text.count("\n") + 2, 1), text
        assert f"exponent above {MAX_EXPONENT}" in info.value.message


def test_product_integer_limit_stops_a_chain_of_wide_factors():
    # a has 13288-bit integers: a*a (26576 bits) is allowed, (a*a)*a is refused at the '*';
    # a chain of literals obeys the same limit
    nines = "9" * 4000
    for body, col in [("*".join(["a"] * 3), 8), ("*".join(["a"] * 60), 8),
                      (f"{nines}*{nines}*{nines}*x", 8006), ("*".join([nines] * 60), 8006)]:
        with pytest.raises(ParseError) as info:
            parse_session(f"chart x\na = {nines}*x\nb = " + body)
        assert info.value.code == "E_PARSE"
        assert (info.value.line, info.value.col) == (3, col)  # the second '*'
        assert "26576-bit and 13288-bit integers" in info.value.message
    with pytest.raises(ParseError) as info:
        parse_session(f"chart x, y\na = {nines}*x\nc = wedge(a*a*dx, a*dy)")
    assert (info.value.line, info.value.col, info.value.code) == (3, 5, "E_PARSE")
    assert "integers exceeds" in info.value.message


def test_product_integer_limit_is_exact(monkeypatch):
    # 255 has 8 bits, so a*a needs 16 bits and a*a*a 24
    text = "chart x, y\na = 255*x + y\nb = a*a\nc = smul(a, a*dx)\ng = wedge(a*dx, a*dy)"
    expected = parse_session(text).definitions
    monkeypatch.setattr(session_module, "_PRODUCT_BITS", 16)
    assert parse_session(text).definitions == expected
    monkeypatch.setattr(session_module, "_PRODUCT_BITS", 15)
    for line in (3, 4, 5):
        lines = text.split("\n")
        with pytest.raises(ParseError) as info:
            parse_session("\n".join(lines[:2] + lines[line - 1:line]))
        assert info.value.code == "E_PARSE"
        assert info.value.col == {3: 6, 4: 5, 5: 5}[line]
        assert "8-bit and 8-bit integers exceeds 15 bits" in info.value.message


def test_unit_basis_factors_skip_the_product_limits(monkeypatch):
    monkeypatch.setattr(session_module, "MAX_PRODUCT_TERMS", 2)
    monkeypatch.setattr(session_module, "_PRODUCT_BITS", 2)
    session = parse_session("chart x, y\nf = 7 + 5*x + 3*y\na = f*dx + dy*f\nb = f*dx^dy\n"
                            "v = f*@x - @y*f\nc = f*-dx\ng = wedge(f, dx)\nw = I(@y, f*dy)")
    x, y = session.chart.coordinates()
    f = 7 + 5 * x + 3 * y
    dx, dy = one_forms(session.chart)
    assert session.definitions["a"] == f * dx + f * dy
    assert session.definitions["c"] == -(f * dx)
    assert session.definitions["w"] == f
    for body in ("f*(2*dx)", "f*(x*dx + dy)", "f*(@x + @y)", "f*f"):
        with pytest.raises(ParseError) as info:
            parse_session("chart x, y\nf = 7 + 5*x + 3*y\ng = " + body)
        assert info.value.code == "E_PARSE", body
        assert info.value.col == 6, body


@pytest.mark.parametrize("call", [
    "wedge(v, v)", "I(f, g)", "L(g, v)", "Lc(v, g)", "Lv(v, v)", "comm(g, v)", "scale(v, g)",
])
def test_operation_kinds_are_checked_before_the_product_limit(call, monkeypatch):
    monkeypatch.setattr(session_module, "MAX_PRODUCT_TERMS", 0)
    with pytest.raises(ParseError) as info:
        parse_session("chart x, y\nf = 1 + x\nv = f*@x + f*@y\ng = f*dx\nh = " + call)
    assert (info.value.line, info.value.col, info.value.code) == (5, 5, "E_TYPE")


def test_wrong_kinds_of_large_operands_are_a_type_error():
    text = "chart x, y, z\nf = (1+x+y+z)^12\nv = f*@x + f*@y\ng = wedge(v, v)"
    with pytest.raises(ParseError) as info:
        parse_session(text)
    assert (info.value.line, info.value.col, info.value.code) == (4, 5, "E_TYPE")
    with pytest.raises(ParseError) as info:
        parse_session(text.replace("wedge(v, v)", "comm(v, v)"))
    assert (info.value.line, info.value.col, info.value.code) == (4, 5, "E_PARSE")
    assert "term products" in info.value.message


def test_value_faults_report_digits_before_exponents():
    nines = "9" * 3000
    for body in ("b = a*a*x^1000*x", "b = x^1000*x*@x + a*a*@y", "b = [a*a ; x^1000*x*dx]"):
        with pytest.raises(ParseError) as info:
            parse_session(f"chart x, y\na = {nines}\n{body}")
        assert (info.value.line, info.value.col) == (3, 1), body
        assert "more than 4300 digits" in info.value.message, body
